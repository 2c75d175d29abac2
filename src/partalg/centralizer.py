"""Exact centralizer and commutant dimensions on tensor-power modules.

Ranks are computed by incremental elimination over the integers: each row
is cleared of denominators, reduced against the current echelon basis with
two-term integer combinations, and gcd-normalized, so no floating point or
rational division ever occurs and the result is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .diagram import enumerate_diagrams, partition_algebra_generators
from .rep import PermWord, SparseMat, matrix, perm_matrix
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
    "symmetric_group_generators",
    "VerificationReport",
    "verify_schur_weyl",
]

# Hard resource ceilings; exceeding them is an error, never a silent fallback.
SPAN_DIM_LIMIT = 1296
COMMUTANT_DIM_LIMIT = 256


class BudgetExceededError(RuntimeError):
    """A requested computation is outside the configured resource budget."""


def _integer_row(row: Mapping[int, object]) -> dict[int, int]:
    """Clear denominators and divide out the content; leading entry positive."""
    fracs = {i: Fraction(v) for i, v in row.items() if v}
    if not fracs:
        return {}
    denom = 1
    for v in fracs.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = {i: int(v * denom) for i, v in fracs.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    if g > 1:
        ints = {i: v // g for i, v in ints.items()}
    if ints[min(ints)] < 0:
        ints = {i: -v for i, v in ints.items()}
    return ints


def rank_of_rows(rows: Iterable[Mapping[int, object]]) -> int:
    """Rank of a set of sparse rational rows, by exact integer elimination."""
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
            merged = {i: v * bc for i, v in r.items()}
            for i, v in b.items():
                nv = merged.get(i, 0) - v * rc
                if nv:
                    merged[i] = nv
                else:
                    merged.pop(i, None)
            g = 0
            for v in merged.values():
                g = gcd(g, v)
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
    rows: list[dict[int, Fraction]] = []
    for g in gens:
        eq: dict[tuple[int, int], dict[int, Fraction]] = {}
        for j, l, v in g.triples:  # (XG)_{i,l} picks up v * X[i,j]
            for i in range(dim):
                d = eq.setdefault((i, l), {})
                key = i * dim + j
                d[key] = d.get(key, Fraction(0)) + v
        for i, j, v in g.triples:  # (GX)_{i,l} picks up v * X[j,l]
            for l in range(dim):
                d = eq.setdefault((i, l), {})
                key = j * dim + l
                d[key] = d.get(key, Fraction(0)) - v
        for pos in sorted(eq):
            row = {idx: v for idx, v in eq[pos].items() if v}
            if row:
                rows.append(row)
    return dim * dim - rank_of_rows(rows)


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

    @property
    def surjectivity_verdict(self) -> bool:
        """Diagram matrices fill the full centralizer of the symmetric group."""
        return (
            self.diagram_span_rank == self.centralizer_dim == self.commutant_of_perms_dim
        )

    @property
    def double_commutant_verdict(self) -> bool:
        """Commuting with every diagram matrix forces membership in the perm span."""
        return self.commutant_of_diagrams_dim == self.perm_span_dim

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
    same commutant at every n.
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
    )
