"""Exact sparse matrices for diagram and permutation actions on tensor powers.

The module realizes a k-strand diagram as an n^k by n^k matrix over the
rationals.  Rows are indexed by top-row tuples (outputs) and columns by
bottom-row tuples (inputs); tuples over {1, ..., n} are ranked
lexicographically with the leftmost entry most significant.

Matrix entries are always `Fraction`s.  A `SparseMat` holds its nonzeros
by position r * dim + c, ascending, packed as 64-bit ints wherever dim^2
fits, beside the tuple of their values.  Diagram and permutation matrices
build their positions directly, digit by digit, and share one `Fraction(1)`
object as every nonzero entry, so building them allocates no number and no
tuple per entry.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .diagram import AlgebraElement, Diagram
from .rational import frac_str
from .setpart import SetPartition, _Record, _all_digits, bell_number, orbit_partition, refines

__all__ = [
    "BudgetExceededError",
    "MATRIX_NNZ_LIMIT",
    "check_budget",
    "check_diagram_count",
    "SparseMat",
    "PermWord",
    "tuple_rank",
    "unrank_tuple",
    "entry",
    "matrix",
    "perm_matrix",
    "eval_at",
    "act",
]

# Hard ceiling on the nonzeros of one diagram matrix and on the tuples or
# pairs any other loop visits, checked before anything is allocated;
# exceeding it is an error, never a silent fallback.
MATRIX_NNZ_LIMIT = 2**20

_ONE = Fraction(1)
_PACKED = 1 << 63  # a dim with dim^2 below this packs its positions as signed 64-bit ints


class BudgetExceededError(RuntimeError):
    """A requested computation is outside the configured resource budget."""


def check_budget(work: int, what: Callable[[], str]) -> None:
    """Raise BudgetExceededError when work exceeds MATRIX_NNZ_LIMIT.

    `what()` names the computation and its size; it starts the message.  It is called only to raise,
    under `setpart._all_digits`, so a passing check formats nothing and names a size of any length.
    """
    if work > MATRIX_NNZ_LIMIT:
        with _all_digits():
            raise BudgetExceededError(f"{what()}, over the limit {MATRIX_NNZ_LIMIT}")


def _capped_power(base: int, exp: int) -> int:
    """base^exp with exp capped where 2^exp passes MATRIX_NNZ_LIMIT, read at call time.

    For base >= 2 it is over the limit exactly when base^exp is, so a budget
    check never computes a huge exact power only to refuse it.
    """
    return base ** min(exp, MATRIX_NNZ_LIMIT.bit_length())


def check_diagram_count(what: str, k: int) -> None:
    """Refuse a walk over the Bell(2k) diagrams on k strands over the budget.

    The floor 2^(2k-1) <= Bell(2k) is compared first, its exponent capped
    (`_capped_power`), so a huge k is refused before the Bell triangle of
    the exact count is built.
    """
    g = 2 * k
    check_budget(_capped_power(2, g - 1), lambda: f"{what} at k = {k} enumerates Bell({g}) >= 2^{g - 1} diagrams")
    bell = bell_number(g)
    check_budget(bell, lambda: f"{what} at k = {k} enumerates Bell({g}) = {bell} diagrams")


class SparseMat(_Record):
    """Immutable square sparse matrix with exact rational entries: its fields refuse assignment.

    A nonzero at row r and column c sits at position r * dim + c, so the
    positions read in ascending order are the row-major order.  `positions`
    holds them packed as native signed 64-bit ints in a `bytes` buffer when
    dim^2 < 2^63, else as a tuple of ints; the choice depends on `dim` alone.
    `values` holds the aligned nonzero `Fraction`s.  No zero is stored, so
    equality and hashing are structural.  `triples` reads the (r, c, value)
    list back.
    """

    __slots__ = __match_args__ = ("dim", "positions", "values")

    def __init__(self, dim: int, entries: Iterable[tuple[int, int, object]] = ()):
        """Sum the (row, column, value) triples; repeated cells add up."""
        if dim < 0:
            raise ValueError("dimension must be non-negative")

        def cells():
            for r, c, v in entries:
                if not (0 <= r < dim and 0 <= c < dim):
                    raise ValueError(f"coordinate ({r}, {c}) outside a {dim} by {dim} matrix")
                yield r * dim + c, v if isinstance(v, Fraction) else Fraction(v)

        self._set_fields(*SparseMat._summed(dim, cells())._astuple())

    @classmethod
    def _trusted(cls, dim: int, positions: Iterable[int], values: Iterable[Fraction]) -> "SparseMat":
        """Pack positions that are already distinct, ascending and below dim^2, with their nonzero Fraction values."""
        m = cls.__new__(cls)
        m._set_fields(dim, array("q", positions).tobytes() if dim * dim < _PACKED else tuple(positions), tuple(values))
        return m

    @classmethod
    def _summed(cls, dim: int, cells: Iterable[tuple[int, Fraction]]) -> "SparseMat":
        """The matrix of (position, value) pairs in any order: repeated positions add up, zeros are dropped."""
        acc: dict[int, Fraction] = {}
        for p, v in cells:
            acc[p] = acc[p] + v if p in acc else v
        keys = sorted(p for p, v in acc.items() if v)
        return cls._trusted(dim, keys, map(acc.__getitem__, keys))

    @property
    def _ranks(self) -> Sequence[int]:
        """The positions as ints: a read-only view of the packed buffer, or the tuple itself."""
        p = self.positions
        return memoryview(p).cast("q") if type(p) is bytes else p

    @classmethod
    def identity(cls, dim: int) -> "SparseMat":
        return cls._trusted(dim, range(0, dim * dim, dim + 1), (_ONE,) * dim)

    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def triples(self) -> tuple[tuple[int, int, Fraction], ...]:
        """The nonzeros as (row, column, value), row-major."""
        dim = self.dim
        return tuple((p // dim, p % dim, v) for p, v in zip(self._ranks, self.values))

    def entry(self, r: int, c: int) -> Fraction:
        if 0 <= r < self.dim and 0 <= c < self.dim:
            p = r * self.dim + c
            ranks = self._ranks
            i = bisect_left(ranks, p)
            if i < len(ranks) and ranks[i] == p:
                return self.values[i]
        return Fraction(0)

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if not isinstance(other, SparseMat):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return SparseMat._summed(self.dim, chain(zip(self._ranks, self.values), zip(other._ranks, other.values)))

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + other.scaled(-1)

    def scaled(self, scalar) -> "SparseMat":
        s = Fraction(scalar)
        return SparseMat._summed(self.dim, ((p, s * v) for p, v in zip(self._ranks, self.values)))

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if not isinstance(other, SparseMat):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        dim = self.dim
        rows_b: dict[int, list[tuple[int, Fraction]]] = {}
        for p, w in zip(other._ranks, other.values):
            r, c = divmod(p, dim)
            rows_b.setdefault(r, []).append((c, w))
        # self's nonzero at p = r * dim + c meets other's row c at column l: position p - c + l
        return SparseMat._summed(dim, ((p - c + l, v * w) for p, v in zip(self._ranks, self.values)
                                       for c in (p % dim,) for l, w in rows_b.get(c, ())))

    def to_dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for r, c, v in self.triples:
            out[r][c] = v
        return out

    def to_json(self) -> dict:
        dim = self.dim
        return {"dim": dim, "triples": [[p // dim, p % dim, frac_str(v)] for p, v in zip(self._ranks, self.values)]}

    def __reduce__(self):
        # the positions as ints, so a pickle does not depend on the byte order of the machine that wrote it
        return self._trusted, (self.dim, list(self._ranks), self.values)

    def __repr__(self):
        return f"SparseMat(dim={self.dim}, nnz={self.nnz})"


def tuple_rank(t: Sequence[int], n: int) -> int:
    """Lexicographic rank of a tuple over {1, ..., n}, leftmost most significant."""
    r = 0
    for v in t:
        if not 1 <= v <= n:
            raise ValueError(f"tuple entry {v} outside [1, {n}]")
        r = r * n + (v - 1)
    return r


def unrank_tuple(rank: int, n: int, k: int) -> tuple[int, ...]:
    if not 0 <= rank < n**k:
        raise ValueError(f"rank {rank} outside [0, {n**k})")
    out = []
    for _ in range(k):
        rank, digit = divmod(rank, n)
        out.append(digit + 1)
    return tuple(reversed(out))


def entry(d: Diagram, top: Sequence[int], bottom: Sequence[int]) -> int:
    """1 when the combined row assignment is constant on every block of d: d refines its orbit type."""
    if len(top) != d.k or len(bottom) != d.k:
        raise ValueError("tuple lengths must equal the diagram's k")
    return int(refines(d.part, orbit_partition(list(top) + list(bottom))))


def _constant_ranks(part: SetPartition, n: int) -> Iterator[int]:
    """Ascending ranks of the tuples in [n]^g constant on each block of part: p_part, read once.

    A block's value x + 1 adds x times its place value, the sum of n^(g-1-i) over its
    vertices i.  Blocks are RGS labels, in order of least vertex, where such tuples first differ.
    Only the n^(b-1) ranks of the first b - 1 blocks are held; the last block's follow as ranges.
    """
    steps = [0] * part.num_blocks
    place = 1
    for label in reversed(part.rgs):
        steps[label] += place
        place *= n
    ranks = [0]
    for step in steps[:-1]:
        ranks = [p + x * step for p in ranks for x in range(n)]
    if not steps:
        return iter(ranks)
    step = steps[-1]
    return chain.from_iterable(range(p, p + n * step, step) for p in ranks)


def matrix(d: Diagram, n: int) -> SparseMat:
    """The n^k by n^k 0/1 matrix of d, columns indexed by bottom tuples.

    Read row-major it is p_(d.part) over the 2k vertices, so the ranks from
    `_constant_ranks` are its positions, packed as they come.

    Raises BudgetExceededError, before allocating anything, when the
    n^(number of blocks) nonzeros would exceed MATRIX_NNZ_LIMIT.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    b = d.part.num_blocks
    check_budget(_capped_power(n, b), lambda: f"matrix at n = {n} of a {b}-block diagram has {n}^{b} nonzeros")
    return SparseMat._trusted(n**d.k, _constant_ranks(d.part, n), (_ONE,) * n**b)


class PermWord(_Record):
    """A permutation of {1, ..., n} stored by its image word."""

    __slots__ = __match_args__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"{images!r} is not a bijection of 1..{len(images)}")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"point {i} outside [1, {self.n}]")
        return self.images[i - 1]

    def apply(self, t: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.images[v - 1] for v in t)

    def compose(self, other: "PermWord") -> "PermWord":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("cannot compose permutations of different degrees")
        return PermWord(tuple(self.images[v - 1] for v in other.images))

    def __mul__(self, other):
        if isinstance(other, PermWord):
            return self.compose(other)
        return NotImplemented

    @classmethod
    def identity(cls, n: int) -> "PermWord":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "PermWord":
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise ValueError(f"invalid transposition ({a} {b}) on 1..{n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @classmethod
    def cycle(cls, n: int) -> "PermWord":
        """The long cycle sending 1 to 2, ..., n to 1."""
        if n < 1:
            raise ValueError("degree must be positive")
        return cls(tuple(range(2, n + 1)) + (1,))


def perm_matrix(sigma: PermWord, k: int) -> SparseMat:
    """Permutation matrix of the diagonal action on k-tuples.

    Row t has its one in column sigma^-1(t).  Appending one tuple place y
    to row r and column c moves position r * n^k + c to (r * n + y) * n^k +
    c * n + sigma^-1(y) = n * p + step[y], so the positions grow digit by
    digit, ascending, with no row or column split out.  The last place's
    n^k positions go to the packed buffer as they are made, never as a list.

    Raises BudgetExceededError, before allocating anything, when the n^k
    nonzeros would exceed MATRIX_NNZ_LIMIT.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = sigma.n
    check_budget(_capped_power(n, k), lambda: f"permutation matrix at n = {n} on {k}-tuples has {n}^{k} nonzeros")
    dim = n**k
    step = [0] * n
    for x, y in enumerate(sigma.images):
        step[y - 1] = (y - 1) * dim + x
    prefixes = [0]
    for _ in range(k - 1):
        prefixes = [p * n + s for p in prefixes for s in step]
    positions = (p * n + s for p in prefixes for s in step) if k else prefixes
    return SparseMat._trusted(dim, positions, (_ONE,) * dim)


def eval_at(elem: AlgebraElement, n: int) -> SparseMat:
    """Specialize the loop parameter to n and sum the diagram matrices.

    Raises BudgetExceededError, before building any matrix, when the terms'
    matrices would have more than MATRIX_NNZ_LIMIT nonzeros together.  The
    term with the most blocks is compared first, its power capped
    (`_capped_power`), so no exact power over the limit is computed.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    scalars = [(d, s) for d, poly in elem.terms() if (s := poly(Fraction(n)))]
    blocks = [d.part.num_blocks for d, _ in scalars]
    b = max(blocks, default=0)
    check_budget(_capped_power(n, b), lambda: f"evaluation at n = {n} of a {b}-block diagram has {n}^{b} nonzeros")
    nnz = sum(n**m for m in blocks)
    check_budget(nnz, lambda: f"evaluation at n = {n} of {len(scalars)} diagrams has {nnz} nonzeros")
    # every nonzero of a diagram matrix is 1, at the positions `_constant_ranks` lists
    return SparseMat._summed(n**elem.k, ((p, s) for d, s in scalars for p in _constant_ranks(d.part, n)))


def act(m: SparseMat, vec: Sequence) -> list[Fraction]:
    """Exact matrix-vector product."""
    if len(vec) != m.dim:
        raise ValueError(f"vector length {len(vec)} does not match dimension {m.dim}")
    dim = m.dim
    out = [Fraction(0)] * dim
    for p, v in zip(m._ranks, m.values):
        r, c = divmod(p, dim)
        x = vec[c]
        if x:
            out[r] += v * x
    return out
