"""Exact centralizer and commutant dimensions on tensor-power modules.

Ranks are computed by incremental elimination over the integers: each row
is cleared of denominators, reduced against the current echelon basis with
two-term integer combinations, and gcd-normalized, so no floating point or
rational division ever occurs and the result is reproducible.  Integral
entries, which every entry of a diagram or permutation matrix is, become
plain ints when a row is read and stay ints throughout, so no `Fraction` is
built on that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Iterable, Iterator, Mapping, Sequence

from .diagram import enumerate_diagrams, partition_algebra_generators
from .rep import BudgetExceededError, PermWord, SparseMat, matrix, perm_matrix
from .setpart import count_partitions

__all__ = [
    "BudgetExceededError",
    "SPAN_DIM_LIMIT",
    "COMMUTANT_DIM_LIMIT",
    "rank_of_rows",
    "span_rank",
    "commutant_dimension",
    "centralizer_dimension",
    "perm_span_dim",
    "perm_span_expected",
    "symmetric_group_generators",
    "VerificationReport",
    "verify_schur_weyl",
]

# Hard resource ceilings; exceeding them is an error, never a silent fallback.
SPAN_DIM_LIMIT = 1296
COMMUTANT_DIM_LIMIT = 256


def _integer_row(row: Mapping[int, object]) -> dict[int, int]:
    """Clear denominators and divide out the content; leading entry positive.

    Entries are ints or Fractions (any rational with `numerator` and
    `denominator`); an all-integer row skips the denominator step.
    """
    items = [(i, v) for i, v in row.items() if v]
    if not items:
        return {}
    denom = 1
    for _, v in items:
        q = v.denominator
        if q != 1:
            denom = denom * q // gcd(denom, q)
    if denom == 1:
        ints = {i: v.numerator for i, v in items}
    else:
        ints = {i: v.numerator * (denom // v.denominator) for i, v in items}
    g = _content(ints)
    if ints[min(ints)] < 0:
        g = -g
    if g != 1:
        ints = {i: v // g for i, v in ints.items()}
    return ints


def _content(ints: dict[int, int]) -> int:
    """gcd of the entries (0 for an empty row), stopping once it reaches 1."""
    g = 0
    for v in ints.values():
        g = gcd(g, v)
        if g == 1:
            break
    return g


def rank_of_rows(rows: Iterable[Mapping[int, object]]) -> int:
    """Rank of a set of sparse rational rows, by exact integer elimination.

    Each row is made a primitive integer row, then reduced against the
    echelon basis (one row per pivot column): r := r * b[c] - b * r[c],
    divided by its content.  When the basis pivot b[c] is 1, r is copied
    rather than scaled.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        r = _integer_row(row)
        while r:
            c = min(r)
            b = basis.get(c)
            if b is None:
                basis[c] = r
                break
            # r := r * b[c] - b * r[c]; the pivot column cancels exactly.
            rc, bc = r[c], b[c]
            merged = dict(r) if bc == 1 else {i: v * bc for i, v in r.items()}
            for i, v in b.items():
                nv = merged.get(i, 0) - v * rc
                if nv:
                    merged[i] = nv
                else:
                    del merged[i]
            g = _content(merged)
            if g > 1:
                merged = {i: v // g for i, v in merged.items()}
            r = merged
    return len(basis)


def _vectorize(m: SparseMat) -> dict[int, Fraction]:
    return {r * m.dim + c: v for r, c, v in m.triples}


def span_rank(mats: Sequence[SparseMat]) -> int:
    """Dimension of the linear span of the given matrices."""
    mats = list(mats)
    if not mats:
        return 0
    dim = mats[0].dim
    for m in mats:
        if m.dim != dim:
            raise ValueError("matrices must share one dimension")
    if dim > SPAN_DIM_LIMIT:
        raise BudgetExceededError(f"span rank at dimension {dim} exceeds the limit {SPAN_DIM_LIMIT}")
    return rank_of_rows(_vectorize(m) for m in mats)


def commutant_dimension(generators: Sequence[SparseMat]) -> int:
    """Dimension of the space of matrices commuting with every generator.

    A matrix commutes with an algebra exactly when it commutes with a
    generating set of it, so pass generators rather than a whole basis: the
    work grows with the number of matrices given.  The unknown X is the
    full D*D matrix; each generator G contributes the linear system
    XG - GX = 0, one sparse row per matrix position (i, l).
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    dim = gens[0].dim
    for g in gens:
        if g.dim != dim:
            raise ValueError("generators must share one dimension")
    if dim > COMMUTANT_DIM_LIMIT:
        raise BudgetExceededError(
            f"commutant at dimension {dim} exceeds the limit {COMMUTANT_DIM_LIMIT}"
        )
    return dim * dim - rank_of_rows(row for g in gens for row in _commutator_rows(g))


def _commutator_rows(g: SparseMat) -> Iterator[dict[int, int | Fraction]]:
    """The nonzero rows of XG - GX = 0, position (i, l) by position, in order.

    Unknown X[i, j] is column i * dim + j.  Integral entries of G (all of
    them, for diagram and permutation matrices) enter the rows as ints.
    """
    dim = g.dim
    g_rows: list[list] = [[] for _ in range(dim)]
    g_cols: list[list] = [[] for _ in range(dim)]
    for r, c, v in g.triples:
        v = v.numerator if v.denominator == 1 else v
        g_rows[r].append((c, v))
        g_cols[c].append((r, v))
    for i in range(dim):
        row_i = g_rows[i]
        for l in range(dim):
            row = {i * dim + j: v for j, v in g_cols[l]}  # (XG)_{i,l} = sum_j X[i,j] G[j,l]
            for j, v in row_i:  # (GX)_{i,l} = sum_j G[i,j] X[j,l]
                key = j * dim + l
                nv = row.get(key, 0) - v
                if nv:
                    row[key] = nv
                else:
                    del row[key]
            if row:
                yield row


def centralizer_dimension(n: int, k: int) -> int:
    """Dimension of the centralizer of the symmetric group on k tensor factors.

    Equals the number of set partitions of the 2k diagram vertices into at
    most n blocks.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    return count_partitions(2 * k, max_blocks=n)


def symmetric_group_generators(n: int) -> list[PermWord]:
    """A generating set: the first transposition and the long cycle."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        return [PermWord.identity(1)]
    gens = [PermWord.transposition(n, 1, 2)]
    cyc = PermWord.cycle(n)
    if cyc not in gens:
        gens.append(cyc)
    return gens


def perm_span_dim(n: int, k: int) -> int:
    """Dimension of the span of all n! permutation matrices on k-tuples."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    if n > 5 or k > 2:
        raise BudgetExceededError(
            f"perm span at (n, k) = ({n}, {k}) exceeds the n <= 5, k <= 2 budget"
        )
    from itertools import permutations

    rows = []
    for images in permutations(range(1, n + 1)):
        rows.append(_vectorize(perm_matrix(PermWord(images), k)))
    return rank_of_rows(rows)


def _partitions(m: int, largest: int):
    """Integer partitions of m into parts of at most `largest`, as weakly decreasing tuples."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def _standard_tableaux(shape: tuple[int, ...]) -> int:
    """f^shape, the number of standard Young tableaux, by the hook-length formula."""
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = prod(shape[i] - j + cols[j] - i - 1 for i in range(len(shape)) for j in range(shape[i]))
    return factorial(sum(shape)) // hooks


def perm_span_expected(n: int, k: int) -> int:
    """Closed form of perm_span_dim: the sum of (f^lambda)^2 over lambda |- n with n - lambda_1 <= k.

    Those lambda are the irreducible S_n-modules that occur in the k-th
    tensor power of the permutation module, so this is the dimension of the
    image of the group algebra in End(V^(tensor k)).  No elimination is
    involved, so it checks the computed ranks independently.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    total = 0
    for first in range(n, max(n - k, 1) - 1, -1):  # lambda_1 >= n - k
        for rest in _partitions(n - first, first):
            total += _standard_tableaux((first,) + rest) ** 2
    return total


@dataclass(frozen=True)
class VerificationReport:
    """Exact dimension bookkeeping for one (n, k) centralizer check."""

    n: int
    k: int
    centralizer_dim: int
    diagram_span_rank: int
    commutant_of_perms_dim: int
    perm_span_dim: int
    commutant_of_diagrams_dim: int
    perm_span_expected: int

    @property
    def surjectivity_verdict(self) -> bool:
        """Diagram matrices fill the full centralizer of the symmetric group."""
        return (
            self.diagram_span_rank == self.centralizer_dim == self.commutant_of_perms_dim
        )

    @property
    def double_commutant_verdict(self) -> bool:
        """Commuting with every diagram matrix forces membership in the perm span.

        Both computed ranks must also equal the closed form perm_span_expected.
        """
        return self.commutant_of_diagrams_dim == self.perm_span_dim == self.perm_span_expected

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "centralizer_dim": self.centralizer_dim,
            "diagram_span_rank": self.diagram_span_rank,
            "commutant_of_perms_dim": self.commutant_of_perms_dim,
            "perm_span_dim": self.perm_span_dim,
            "commutant_of_diagrams_dim": self.commutant_of_diagrams_dim,
            "surjectivity_verdict": self.surjectivity_verdict,
            "double_commutant_verdict": self.double_commutant_verdict,
        }


def verify_schur_weyl(n: int, k: int) -> VerificationReport:
    """Machine-check both centralizer statements at one finite size.

    The diagram span rank uses every diagram matrix, since the first
    statement is about the whole span.  The commutant of the diagrams uses
    only the matrices of `partition_algebra_generators(k)`: matrix(d1) @
    matrix(d2) = n^m * matrix(d1 o d2) with n >= 1, so those matrices and
    the identity generate the diagram span as an algebra, and both have the
    same commutant at every n.  The double-commutant verdict also compares
    both computed ranks with the closed form `perm_span_expected`.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    diag_mats = [matrix(d, n) for d in enumerate_diagrams(k)]
    diag_gens = [matrix(d, n) for d in partition_algebra_generators(k)]
    perm_gens = [perm_matrix(s, k) for s in symmetric_group_generators(n)]
    return VerificationReport(
        n=n,
        k=k,
        centralizer_dim=centralizer_dimension(n, k),
        diagram_span_rank=span_rank(diag_mats),
        commutant_of_perms_dim=commutant_dimension(perm_gens),
        perm_span_dim=perm_span_dim(n, k),
        commutant_of_diagrams_dim=commutant_dimension(diag_gens),
        perm_span_expected=perm_span_expected(n, k),
    )
