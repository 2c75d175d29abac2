"""Exact sparse matrices for diagram and permutation actions on tensor powers.

The module realizes a k-strand diagram as an n^k by n^k matrix over the
rationals.  Rows are indexed by top-row tuples (outputs) and columns by
bottom-row tuples (inputs); tuples over {1, ..., n} are ranked
lexicographically with the leftmost entry most significant.

Matrix entries are always `Fraction`s.  Diagram and permutation matrices
share one `Fraction(1)` object as every nonzero entry, so building them
allocates no number per entry.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

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


class BudgetExceededError(RuntimeError):
    """A requested computation is outside the configured resource budget."""


def check_budget(work: int, what: str | Callable[[], str]) -> None:
    """Raise BudgetExceededError when work exceeds MATRIX_NNZ_LIMIT.

    `what` names the computation and its size; it starts the message.  A callable is called only to
    raise, under `setpart._all_digits`, so a passing check formats nothing and names a size of any length.
    """
    if work > MATRIX_NNZ_LIMIT:
        with _all_digits():
            raise BudgetExceededError(f"{what() if callable(what) else what}, over the limit {MATRIX_NNZ_LIMIT}")


def _capped_power(base: int, exp: int) -> int:
    """base^exp with exp capped where 2^exp passes MATRIX_NNZ_LIMIT, read at call time.

    For base >= 2 it is over the limit exactly when base^exp is, so a budget
    check never computes a huge exact power only to refuse it.
    """
    return base ** min(exp, MATRIX_NNZ_LIMIT.bit_length())


def check_diagram_count(what: str, k: int) -> int:
    """Refuse a walk over the Bell(2k) diagrams on k strands over the budget; return Bell(2k).

    The floor 2^(2k-1) <= Bell(2k) is compared first, its exponent capped
    (`_capped_power`), so a huge k is refused before the Bell triangle of
    the exact count is built.
    """
    g = 2 * k
    check_budget(_capped_power(2, g - 1), lambda: f"{what} at k = {k} enumerates Bell({g}) >= 2^{g - 1} diagrams")
    bell = bell_number(g)
    check_budget(bell, lambda: f"{what} at k = {k} enumerates Bell({g}) = {bell} diagrams")
    return bell


class SparseMat(_Record):
    """Immutable square sparse matrix with exact rational entries: its fields refuse assignment.

    Entries are kept as a row-major sorted coordinate list with no stored
    zeros, so equality and hashing are structural.
    """

    __slots__ = __match_args__ = ("dim", "triples")

    def __init__(self, dim: int, entries: Iterable[tuple[int, int, object]] = ()):
        """Sum the (row, column, value) triples; repeated cells add up."""
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        acc: dict[tuple[int, int], Fraction] = {}
        for r, c, v in entries:
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"coordinate ({r}, {c}) outside a {dim} by {dim} matrix")
            f = v if isinstance(v, Fraction) else Fraction(v)
            key = (r, c)
            acc[key] = acc[key] + f if key in acc else f
        self._set_fields(dim, tuple(sorted((r, c, v) for (r, c), v in acc.items() if v)))

    @classmethod
    def _trusted(cls, dim: int, triples: tuple[tuple[int, int, Fraction], ...]) -> "SparseMat":
        """Wrap triples that are already distinct, in range, nonzero and row-major sorted."""
        m = cls.__new__(cls)
        m._set_fields(dim, triples)
        return m

    @classmethod
    def identity(cls, dim: int) -> "SparseMat":
        return cls(dim, [(i, i, 1) for i in range(dim)])

    @property
    def nnz(self) -> int:
        return len(self.triples)

    def entry(self, r: int, c: int) -> Fraction:
        for rr, cc, v in self.triples:
            if (rr, cc) == (r, c):
                return v
            if (rr, cc) > (r, c):
                break
        return Fraction(0)

    def __add__(self, other: "SparseMat") -> "SparseMat":
        if not isinstance(other, SparseMat):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return SparseMat(self.dim, list(self.triples) + list(other.triples))

    def __sub__(self, other: "SparseMat") -> "SparseMat":
        return self + other.scaled(-1)

    def scaled(self, scalar) -> "SparseMat":
        s = Fraction(scalar)
        return SparseMat(self.dim, [(r, c, s * v) for r, c, v in self.triples])

    def __matmul__(self, other: "SparseMat") -> "SparseMat":
        if not isinstance(other, SparseMat):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        rows_b: dict[int, list[tuple[int, Fraction]]] = {}
        for r, c, v in other.triples:
            rows_b.setdefault(r, []).append((c, v))
        return SparseMat(self.dim, ((r, l, v * w) for r, c, v in self.triples for l, w in rows_b.get(c, ())))

    def to_dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for r, c, v in self.triples:
            out[r][c] = v
        return out

    def to_json(self) -> dict:
        return {"dim": self.dim, "triples": [[r, c, frac_str(v)] for r, c, v in self.triples]}

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


def _constant_ranks(part: SetPartition, n: int) -> list[int]:
    """Ascending ranks of the tuples in [n]^g constant on each block of part: p_part.

    A block's value x + 1 adds x times its place value, the sum of n^(g-1-i) over its
    vertices i.  Blocks are RGS labels, in order of least vertex, where such tuples first differ.
    """
    steps = [0] * part.num_blocks
    place = 1
    for label in reversed(part.rgs):
        steps[label] += place
        place *= n
    ranks = [0]
    for step in steps:
        ranks = [p + x * step for p in ranks for x in range(n)]
    return ranks


def matrix(d: Diagram, n: int) -> SparseMat:
    """The n^k by n^k 0/1 matrix of d, columns indexed by bottom tuples.

    Read row-major it is p_(d.part) over the 2k vertices, so each rank p
    from `_constant_ranks` is the position (p // n^k, p % n^k).

    Raises BudgetExceededError, before allocating anything, when the
    n^(number of blocks) nonzeros would exceed MATRIX_NNZ_LIMIT.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    b = d.part.num_blocks
    check_budget(_capped_power(n, b), lambda: f"matrix at n = {n} of a {b}-block diagram has {n}^{b} nonzeros")
    dim = n**d.k
    return SparseMat._trusted(dim, tuple([(p // dim, p % dim, _ONE) for p in _constant_ranks(d.part, n)]))


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

    Row t has its one in column sigma^-1(t); appending one tuple position at
    a time keeps the rows in order.

    Raises BudgetExceededError, before allocating anything, when the n^k
    nonzeros would exceed MATRIX_NNZ_LIMIT.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    n = sigma.n
    check_budget(_capped_power(n, k), lambda: f"permutation matrix at n = {n} on {k}-tuples has {n}^{k} nonzeros")
    preimages = [0] * n
    for x, y in enumerate(sigma.images):
        preimages[y - 1] = x
    cells = [(0, 0)]
    for _ in range(k):
        cells = [(r * n + y, c * n + preimages[y]) for r, c in cells for y in range(n)]
    return SparseMat._trusted(n**k, tuple([(r, c, _ONE) for r, c in cells]))


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
    return SparseMat(n**elem.k, ((r, c, s * v) for d, s in scalars for r, c, v in matrix(d, n).triples))


def act(m: SparseMat, vec: Sequence) -> list[Fraction]:
    """Exact matrix-vector product."""
    if len(vec) != m.dim:
        raise ValueError(f"vector length {len(vec)} does not match dimension {m.dim}")
    out = [Fraction(0)] * m.dim
    for r, c, v in m.triples:
        x = vec[c]
        if x:
            out[r] += v * x
    return out
