"""Diagram actions on weighted sequence spaces, decided at finite truncation.

With geometric weights mu_i = r^i the operator norm of a diagram matrix on
the truncated space either stabilizes as the truncation grows (bounded
operator) or grows without bound, and the block shape of the diagram
decides which.  Norms here are exact rationals, never floats, so the
stability comparison is an equality test.  The sup norm's row counts, and
the column counts as row counts of the flipped diagram, are read from the
labels of the RGS's two rows; the weighted l1 norm still scans trunc^k tuples.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod
from typing import Callable, Sequence

from .diagram import Diagram, concat, flip
from .rational import frac_str
from .rep import _capped_power, _constant_ranks, check_budget, matrix
from .setpart import SetPartition, _Record, count_partitions

__all__ = [
    "GeometricWeights",
    "NormProfile",
    "MonomialInvariant",
    "l1_truncated_norm",
    "classify_lp_bounded",
    "linf_matrix_norm",
    "classify_linf_bounded",
    "classify_column_finite",
    "lp_norm_profile",
    "linf_norm_profile",
    "monomial_vector",
    "invariant_dim",
    "act_on_invariants",
]

DEFAULT_RATIO = Fraction(1, 2)
DEFAULT_TRUNC_SMALL = 4
DEFAULT_TRUNC_LARGE = 8


class GeometricWeights(_Record):
    """Summable weights mu_i = ratio^i with 0 < ratio < 1."""

    __slots__ = __match_args__ = ("ratio",)

    def __init__(self, ratio: Fraction | int | str = DEFAULT_RATIO):
        r = Fraction(ratio)
        if not 0 < r < 1:
            raise ValueError(f"ratio must lie strictly between 0 and 1, got {r}")
        object.__setattr__(self, "ratio", r)

    def mu(self, i: int) -> Fraction:
        if i < 1:
            raise ValueError("indices start at 1")
        return self.ratio**i

    def mu_tuple(self, t: Sequence[int]) -> Fraction:
        out = Fraction(1)
        for v in t:
            out *= self.mu(v)
        return out


def l1_truncated_norm(d: Diagram, trunc: int, weights: GeometricWeights) -> Fraction:
    """Weighted operator norm on the first trunc basis sequences.

    This is the maximum over bottom tuples i of (sum of mu_j over tops j
    compatible with i) / mu_i.  The inner sum factors over blocks: a block
    meeting the bottom row pins its value, a block isolated in the top row
    sums a free value over the truncation window.  The smallest weight
    ratio^trunc spans w 64-bit words, so the scan costs about trunc^k * w.
    """
    if trunc < 1:
        raise ValueError("truncation must be at least 1")
    k = d.k
    r = weights.ratio
    w = max(1, trunc * max(r.numerator.bit_length(), r.denominator.bit_length()) // 64)
    check_budget(_capped_power(trunc, k) * w, lambda: f"l1 norm at truncation {trunc} scans {trunc}^{k} tuples of {w}-word weights")
    rows = d.block_rows
    mu = [Fraction(0)] + [weights.mu(i) for i in range(1, trunc + 1)]
    free_sums: dict[int, Fraction] = {}
    for tops, bots in rows:
        if not bots and len(tops) not in free_sums:
            e = len(tops)
            free_sums[e] = sum((mu[v] ** e for v in range(1, trunc + 1)), Fraction(0))
    best = Fraction(0)
    for bt in product(range(1, trunc + 1), repeat=k):
        col = Fraction(1)
        ok = True
        for tops, bots in rows:
            if bots:
                x = bt[bots[0]]
                if any(bt[p] != x for p in bots[1:]):
                    ok = False
                    break
                if tops:
                    col *= mu[x] ** len(tops)
            else:
                col *= free_sums[len(tops)]
        if not ok:
            continue
        ratio = col / prod(mu[v] for v in bt)
        if ratio > best:
            best = ratio
    return best


def _stable(norm: Callable[[int], Fraction]) -> bool:
    """The paper's test: the truncated norm is the same at both default truncations."""
    return norm(DEFAULT_TRUNC_SMALL) == norm(DEFAULT_TRUNC_LARGE)


def classify_lp_bounded(d: Diagram, weights: GeometricWeights | None = None) -> bool:
    """Bounded on the weighted sequence space: norm stable across truncations."""
    if weights is None:
        weights = GeometricWeights()
    return _stable(lambda t: l1_truncated_norm(d, t, weights))


def linf_matrix_norm(d: Diagram, trunc: int) -> Fraction:
    """Supremum-norm of the truncated matrix: the largest row sum.

    A nonzero row pins every block that meets the top row, and each block
    that misses it takes any of trunc values, so every nonzero row has
    trunc^(blocks missing the top row) entries: the bottom row's labels
    that the top row lacks.
    """
    if trunc < 1:
        raise ValueError("truncation must be at least 1")
    return Fraction(trunc ** len(set(d.part.rgs[d.k:]).difference(d.part.rgs[:d.k])))


def classify_linf_bounded(d: Diagram) -> bool:
    """Bounded for the matrix sup-norm: row sums stable across truncations."""
    return _stable(lambda t: linf_matrix_norm(d, t))


def classify_column_finite(d: Diagram) -> bool:
    """Every column has finitely many nonzeros in the untruncated action.

    The column counts are the row counts of the flipped diagram, so this is
    `classify_linf_bounded` of flip(d): stable across the default
    truncations 4 and 8.
    """
    flipped = flip(d)
    return _stable(lambda t: linf_matrix_norm(flipped, t))


class NormProfile(_Record):
    """Exact norms of one diagram across a list of truncation sizes."""

    __slots__ = __match_args__ = ("diagram", "truncations", "norms", "divergent", "ratio")

    def __init__(self, diagram: Diagram, truncations: tuple[int, ...], norms: tuple[Fraction, ...], divergent: bool,
                 ratio: Fraction | None = None):
        self._set_fields(diagram, truncations, norms, divergent, ratio)

    def to_json(self) -> dict:
        doc = {
            "diagram": self.diagram.to_text(),
            "truncations": list(self.truncations),
            "norms": [frac_str(v) for v in self.norms],
            "divergent": self.divergent,
        }
        if self.ratio is not None:
            doc["r"] = frac_str(self.ratio)
        return doc


def _profile(
    d: Diagram, truncations: Sequence[int], norm: Callable[[int], Fraction], ratio: Fraction | None = None
) -> NormProfile:
    """Each distinct norm once, over the requested and the default truncations."""
    if not truncations:
        raise ValueError("at least one truncation is required")
    wanted = (*truncations, DEFAULT_TRUNC_SMALL, DEFAULT_TRUNC_LARGE)
    values = {t: norm(t) for t in dict.fromkeys(wanted)}
    return NormProfile(
        diagram=d,
        truncations=tuple(truncations),
        norms=tuple(values[t] for t in truncations),
        divergent=not _stable(values.get),
        ratio=ratio,
    )


def lp_norm_profile(d: Diagram, weights: GeometricWeights, truncations: Sequence[int]) -> NormProfile:
    return _profile(d, truncations, lambda t: l1_truncated_norm(d, t, weights), weights.ratio)


def linf_norm_profile(d: Diagram, truncations: Sequence[int]) -> NormProfile:
    return _profile(d, truncations, lambda t: linf_matrix_norm(d, t))


class MonomialInvariant(_Record):
    """The 0/1 vector over [n]^k that is 1 where pi refines the tuple's orbit type: the power sum p_pi, not m_pi."""

    __slots__ = __match_args__ = ("pi", "n", "vector")

    def __init__(self, pi: SetPartition, n: int, vector: tuple[int, ...]):
        self._set_fields(pi, n, vector)

    @property
    def k(self) -> int:
        return self.pi.ground_size

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.vector) if v)


def monomial_vector(pi: SetPartition, n: int) -> MonomialInvariant:
    """Indicator of tuples constant on every block of pi: the power sum p_pi, not the monomial m_pi (Rosas-Sagan).

    A diagram's matrix read row-major is p_(d.part); both scatter `rep._constant_ranks`.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    k = pi.ground_size
    check_budget(_capped_power(n, k), lambda: f"power sum vector at n = {n} has {n}^{k} entries")
    vec = [0] * n**k
    for p in _constant_ranks(pi, n):
        vec[p] = 1
    return MonomialInvariant(pi, n, tuple(vec))


def invariant_dim(n: int, k: int) -> int:
    """Dimension of the symmetric-group invariants in the k-fold tensor power."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    return count_partitions(k, max_blocks=n)


def act_on_invariants(d: Diagram, pi: SetPartition, n: int) -> dict[SetPartition, Fraction]:
    """Apply a diagram to the power sum p_pi: d . p_pi = n^c . p_sigma.

    With pi on the top row of a diagram P whose bottom vertices are
    singletons, sigma is the top row of the product d . P and c counts the
    middle components it swallows, each a free value in [n].  The answer is
    checked exactly against d's matrix, row by row over the support of p_pi.
    """
    k = d.k
    if pi.ground_size != k:
        raise ValueError(f"partition covers {pi.ground_size} positions, the diagram has k={k}")
    if n < k:
        raise ValueError(f"need n >= k = {k} for a full power sum basis, got n={n}")
    b = pi.num_blocks
    dp, c = concat(d, Diagram(k, SetPartition(pi.rgs + tuple(range(b, b + k)))))
    sigma = SetPartition(dp.part.rgs[:k])
    check_budget(_capped_power(n, b), lambda: f"power sum at n = {n} of a {b}-block partition has {n}^{b} nonzeros")
    support = set(_constant_ranks(pi, n))
    dim = n**k
    hits = Counter(p // dim for p in matrix(d, n)._ranks if p % dim in support)
    if dict(hits) != dict.fromkeys(_constant_ranks(sigma, n), n**c):
        raise RuntimeError("acted vector left the invariant span")
    return {sigma: Fraction(n**c)}
