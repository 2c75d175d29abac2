"""Exact partition-diagram algebras and their tensor-power actions.

Everything is computed over the rationals (fractions.Fraction) or the
integers; there are no floating point numbers anywhere in the package.
"""

from .setpart import (
    SetPartition,
    bell_number,
    count_partitions,
    enumerate_partitions,
    from_blocks,
    from_edges,
    orbit_partition,
    refines,
    stirling2,
)
from .diagram import (
    AlgebraElement,
    Diagram,
    Poly,
    RectDiagram,
    closed_under_product,
    concat,
    enumerate_diagrams,
    flip,
    identity,
    is_bottom_propagating,
    is_top_propagating,
    is_uniform,
    multiply,
    parse_diagram,
    parse_rect_diagram,
    partition_algebra_generators,
    rect_compose,
)
from .rep import PermWord, SparseMat, act, entry, eval_at, matrix, perm_matrix, tuple_rank
from .centralizer import (
    BudgetExceededError,
    VerificationReport,
    centralizer_dimension,
    commutant_dimension,
    perm_span_dim,
    perm_span_expected,
    span_rank,
    verify_schur_weyl,
)
from .seqmodel import (
    GeometricWeights,
    MonomialInvariant,
    NormProfile,
    act_on_invariants,
    classify_column_finite,
    classify_linf_bounded,
    classify_lp_bounded,
    invariant_dim,
    l1_truncated_norm,
    linf_matrix_norm,
    monomial_vector,
)

__version__ = "0.1.0"
