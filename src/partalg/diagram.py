"""Diagrams spanning the partition algebra and its propagating subalgebras.

A diagram on k strands is a set partition of the 2k vertices formed by a
top row and a bottom row.  Vertices 0..k-1 are the top row (printed 1..k)
and vertices k..2k-1 are the bottom row (printed 1'..k').  The product of
two diagrams stacks the first above the second, fuses the shared row, and
pays one factor of the loop parameter per component swallowed in the
middle, so coefficients are polynomials in that parameter.

The public constructors of `Diagram`, `Poly` and `AlgebraElement` check and
normalise what they are given.  The product path builds its values normal
(a partition on 2k vertices, `Fraction` coefficients with 0 and 1 shared and
no trailing zero, nonzero terms of one k), so it wraps them through each
class's private `_trusted` constructor and checks nothing twice.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import factorial, prod
from typing import Iterable, Iterator, Mapping

from . import setpart
from .rational import frac_str
from .setpart import SetPartition, _Record, _components

__all__ = [
    "Diagram",
    "RectDiagram",
    "Poly",
    "AlgebraElement",
    "identity",
    "partition_algebra_generators",
    "concat",
    "multiply",
    "flip",
    "is_uniform",
    "is_top_propagating",
    "is_bottom_propagating",
    "enumerate_diagrams",
    "closed_under_product",
    "parse_diagram",
    "parse_rect_diagram",
    "rect_compose",
]


class Diagram(_Record):
    """A set partition of k top and k bottom vertices."""

    __slots__ = __match_args__ = ("k", "part")

    def __init__(self, k: int, part: SetPartition):
        if k < 1:
            raise ValueError("k must be a positive integer")
        if part.ground_size != 2 * k:
            raise ValueError(f"partition covers {part.ground_size} vertices, expected {2 * k}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "part", part)

    @classmethod
    def _trusted(cls, k: int, part: SetPartition) -> "Diagram":
        """Wrap a partition already known to cover 2k vertices, k >= 1, without checking it again."""
        d = cls.__new__(cls)
        object.__setattr__(d, "k", k)
        object.__setattr__(d, "part", part)
        return d

    @property
    def block_rows(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per block, in block order: its top positions and its bottom positions, 0-based in each row.

        Each block of `part.blocks` is split at the row boundary when read; the block-shape tests read only each
        row's labels.
        """
        k = self.k
        return tuple((tuple(v for v in b if v < k), tuple(v - k for v in b if v >= k)) for b in self.part.blocks)

    def to_text(self) -> str:
        return self.part.to_text(top_size=self.k)

    def sort_key(self) -> tuple[int, ...]:
        return self.part.rgs

    def __repr__(self):
        return f"Diagram({self.k}, {self.to_text()!r})"


def parse_diagram(text: str, k: int | None = None) -> Diagram:
    """Parse diagram text, inferring k from the largest vertex label; a k given must be positive."""
    if k is not None and k < 1:
        raise ValueError("k must be a positive integer")
    text = text.strip()
    if text.startswith("rgs:"):
        p = setpart.parse_text(text)
        if p.ground_size % 2 or p.ground_size == 0:
            raise ValueError(f"diagram rgs length must be a positive even number, got {p.ground_size}")
        inferred = p.ground_size // 2
        if k is not None and inferred != k:
            raise ValueError(f"rgs length {p.ground_size} does not match k={k} (expected {2 * k})")
        return Diagram(inferred, p)
    token_blocks = setpart._parse_token_blocks(text)
    inferred = max(label for block in token_blocks for label, _ in block)
    use_k = inferred if k is None else k
    try:
        p = setpart.parse_text(text, top_size=use_k, ground_size=2 * use_k)
    except ValueError as err:
        raise ValueError(f"invalid diagram text {text!r}: {err}") from None
    return Diagram(use_k, p)


def identity(k: int) -> Diagram:
    """The diagram joining each top vertex to the bottom vertex below it."""
    return Diagram(k, SetPartition(tuple(range(k)) * 2))


def partition_algebra_generators(k: int) -> list[Diagram]:
    """Diagrams that generate the partition algebra on k strands.

    Halverson and Ram generate it by the transpositions s_i, the
    projections p_i (strand i cut into two singletons) and the joins
    p_{i+1/2} (strands i and i+1 fused into one block).  Conjugating by the
    symmetric group, which s_1 and the long strand cycle generate, leaves
    four diagrams: p_1, s_1, the cycle and b_1 = p_{3/2}.  At k = 2 the cycle
    is s_1, and at k = 1 only p_1 remains.
    """
    if k < 1:  # at k < 0 the p_1 labels below are refused by SetPartition before Diagram sees k
        raise ValueError("k must be a positive integer")
    top = tuple(range(k))
    gens = [Diagram(k, SetPartition(top + (k,) + top[1:]))]  # p_1
    if k == 1:
        return gens
    rest = tuple(range(2, k))
    gens.append(Diagram(k, SetPartition((0, 1) + rest + (1, 0) + rest)))  # s_1
    if k > 2:
        gens.append(Diagram(k, SetPartition(top + (k - 1,) + top[:-1])))  # long cycle
    b = (0, 0) + tuple(range(1, k - 1))
    gens.append(Diagram(k, SetPartition(b + b)))  # b_1
    return gens


def is_uniform(d: Diagram) -> bool:
    """Every block meets the two rows in equally many vertices: each label occurs as often in either row."""
    return sorted(d.part.rgs[:d.k]) == sorted(d.part.rgs[d.k:])


def is_top_propagating(d: Diagram) -> bool:
    """No block lies entirely in the top row: every top label is a bottom label."""
    return set(d.part.rgs[:d.k]).issubset(d.part.rgs[d.k:])


def is_bottom_propagating(d: Diagram) -> bool:
    """No block lies entirely in the bottom row: every bottom label is a top label."""
    return set(d.part.rgs[d.k:]).issubset(d.part.rgs[:d.k])


_SUBSET_PREDICATES = {
    "uniform": is_uniform,
    "top": is_top_propagating,
    "bottom": is_bottom_propagating,
}


def enumerate_diagrams(k: int, subset: str | None = None, max_blocks: int | None = None) -> Iterator[Diagram]:
    """All k-strand diagrams in lexicographic RGS order, optionally filtered.

    With max_blocks only the diagrams with at most that many blocks are
    walked, in the same order.
    """
    if subset is not None and subset not in _SUBSET_PREDICATES:
        raise ValueError(f"unknown diagram subset {subset!r}")
    pred = _SUBSET_PREDICATES.get(subset)
    for p in setpart.enumerate_partitions(2 * k, max_blocks):
        d = Diagram(k, p)
        if pred is None or pred(d):
            yield d


def _shapes(k: int) -> Iterator[tuple[Diagram, int]]:
    """One diagram per shape on k strands, with the number of diagrams of that shape.

    A diagram's shape is the multiset of its blocks' (tops, bottoms) counts:
    a vector partition of (k, k) into parts (t, b) != (0, 0), walked with
    the parts in descending order.  The representative gives the first
    block the first t_1 tops and the first b_1 bottoms, and so on.

    The shapes are the orbits of S_k x S_k, which permutes the top vertices
    and the bottom vertices separately.  Two diagrams of one shape are one
    orbit: match their blocks part for part and send each block's tops and
    bottoms to the other's.  The stabilizer permutes the tops and the
    bottoms inside each block and the m_j equal blocks of each part among
    themselves, so the orbit has (k!)^2 / (prod t_i! b_i! * prod m_j!)
    diagrams, and the orbits of all shapes sum to Bell(2k).

    On a weighted sequence space every tensor factor carries the same
    weights mu_i, so permuting the factors of the rows and of the columns
    is an isometry of the weighted l1 norm and of the sup norm.  It maps
    each truncation window [trunc]^k onto itself and keeps the nonzero
    count of every row and column.  So the truncated norms and column
    counts, and the three tests that compare them across truncations, are
    constant on a shape.  So are the three block criteria, which read only
    each block's two counts.
    """
    def parts(t: int, b: int, top: tuple[int, int]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not t and not b:
            yield ()
        for x in range(min(t, top[0]), -1, -1):
            for y in range(min(b, top[1]) if x == top[0] else b, -1, -1):
                if x or y:
                    yield from (((x, y), *rest) for rest in parts(t - x, b - y, (x, y)))

    for shape in parts(k, k, (k, k)):
        labels = [i for i, (t, _) in enumerate(shape) for _ in range(t)]
        labels += [i for i, (_, b) in enumerate(shape) for _ in range(b)]
        stabilizer = prod(factorial(t) * factorial(b) for t, b in shape)
        stabilizer *= prod(factorial(len(list(equal))) for _, equal in groupby(shape))
        yield Diagram(k, setpart.from_labels(labels)), factorial(k) ** 2 // stabilizer


def closed_under_product(family: Iterable[Diagram]) -> bool:
    """Every product of two members is a member and swallows no middle component.

    The check closes a generating set G instead of forming all m^2 products
    of the m members.  Members are visited by propagating blocks (labels in
    both rows), then by block count, both descending, and one joins G only
    when the semigroup S generated so far does not reach it.  Each element of
    S is multiplied on the right by each generator; a product with a middle
    component or outside the family is a failing pair of members, so the
    answer is False at once; a product in the family is replaced by that
    member, so S holds the family's own objects.  Members and S are keyed by
    RGS, so no diagram is hashed or compared.  Otherwise S is the whole
    family.  The middle counts satisfy mid(a, b) + mid(ab, c) = mid(b, c) +
    mid(a, bc), since both sides count the components swallowed by stacking
    a, b and c.  For b = b'g with g in G this gives mid(a, b) = mid(a, b') +
    mid(ab', g) - mid(b', g), where mid(ab', g) = mid(b', g) = 0 because ab'
    and b' lie in S; by induction on the word length of b, mid(a, b) = 0 and
    ab lies in S for all a, b in the family.  At most m·|G| products are
    formed, and m·|G| is checked against the budget each time a generator is
    added.
    """
    from .rep import check_budget  # rep imports this module

    def visit_order(d: Diagram) -> tuple:
        return -len(set(d.part.rgs[:d.k]).intersection(d.part.rgs[d.k:])), -d.part.num_blocks, d.sort_key()

    members = {d.part.rgs: d for d in family}  # a product found here is replaced by the member itself
    m = len(members)
    gens: list[Diagram] = []
    elements: list[Diagram] = []  # S in the order reached
    done: dict[tuple[int, ...], int] = {}  # x in S has been multiplied by gens[:done[x.part.rgs]]
    for g in sorted(members.values(), key=visit_order):
        if g.part.rgs in done:
            continue
        gens.append(g)
        check_budget(m * len(gens), lambda: f"closure of {m} diagrams from {len(gens)} generators forms up to {m * len(gens)} products")
        done[g.part.rgs] = 0
        elements.append(g)
        for x in elements:  # also visits the elements appended on the way
            for h in gens[done[x.part.rgs]:]:
                d, middles = concat(x, h)
                d = members.get(d.part.rgs)
                if middles or d is None:
                    return False
                if d.part.rgs not in done:
                    done[d.part.rgs] = 0
                    elements.append(d)
            done[x.part.rgs] = len(gens)
    return True


def flip(d: Diagram) -> Diagram:
    """Exchange the two rows (the algebra's natural involution)."""
    rgs, k = d.part.rgs, d.k
    return Diagram(k, setpart.from_labels(rgs[k:] + rgs[:k]))


def concat(d1: Diagram, d2: Diagram) -> tuple[Diagram, int]:
    """Stack d1 above d2 and fuse d1's bottom row with d2's top row.

    Returns the induced diagram on d1's top row and d2's bottom row,
    together with the number of connected components that lie entirely in
    the fused middle row.
    """
    if d1.k != d2.k:
        raise ValueError(f"cannot concatenate diagrams with k={d1.k} and k={d2.k}")
    k = d1.k
    part, swallowed = _stack(d1.part, d2.part, k, k)
    return Diagram._trusted(k, part), swallowed


def _stack(p1: SetPartition, p2: SetPartition, top: int, mid: int) -> tuple[SetPartition, int]:
    """Stack p1 (top + mid vertices) above p2 (mid + bottom) and fuse the mid row.

    Returns the induced partition of p1's top row followed by p2's bottom
    row, and the number of components lying entirely in the fused row.
    """
    # Nodes are p1's labels, then p2's shifted by p1's ground size, which bounds an RGS's labels without a
    # scan; each middle vertex joins its two blocks.
    shift = p1.ground_size
    comp = _components(shift + p2.ground_size, [(a, shift + b) for a, b in zip(p1.rgs[top:], p2.rgs)])
    labels = [comp[a] for a in p1.rgs[:top]] + [comp[shift + b] for b in p2.rgs[mid:]]
    middle_only = {comp[a] for a in p1.rgs[top:]} - set(labels)
    return setpart.from_labels(labels), len(middle_only)


_ZERO, _ONE = Fraction(0), Fraction(1)


def _coefficient(c) -> Fraction:
    """c as a Fraction, 0 and 1 as the shared `_ZERO` and `_ONE`; only an int is compared before it is converted."""
    if type(c) is not Fraction and type(c) is not int:
        c = Fraction(c)
    return _ZERO if c == 0 else _ONE if c == 1 else c if type(c) is Fraction else Fraction(c)


class Poly(_Record):
    """Polynomial in the loop parameter with exact rational coefficients.

    Coefficients are stored by ascending power with no trailing zeros.  A
    coefficient 0 or 1 is one shared `Fraction`, so x^m, the coefficient of a
    product of two diagrams, holds no number of its own.
    """

    __slots__ = __match_args__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [_coefficient(c) for c in coeffs]
        end = len(cs)
        while end and cs[end - 1] is _ZERO:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(cs[:end]))

    @classmethod
    def _trusted(cls, coeffs: tuple[Fraction, ...]) -> "Poly":
        """Wrap coefficients already normal: `Fraction`s, 0 and 1 shared, no trailing zero."""
        p = cls.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    @classmethod
    def of(cls, *coeffs) -> "Poly":
        return cls(coeffs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls.of(1)

    @classmethod
    def x_power(cls, m: int) -> "Poly":
        if m < 0:
            raise ValueError("power must be non-negative")
        return cls._trusted((_ZERO,) * m + (_ONE,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly(tuple(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if self.coeffs == _UNIT:
            return other
        if other.coeffs == _UNIT:
            return self
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(tuple(out))

    def __rmul__(self, scalar) -> "Poly":
        s = Fraction(scalar)
        return Poly(tuple(s * c for c in self.coeffs))

    def shifted(self, m: int) -> "Poly":
        """Multiply by the m-th power of the loop parameter."""
        if m < 0:
            raise ValueError("shift must be non-negative")
        return Poly._trusted((_ZERO,) * m + self.coeffs) if m and self.coeffs else self

    def __call__(self, value) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def to_strings(self) -> list[str]:
        return [frac_str(c) for c in self.coeffs]

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                parts.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(parts)


_UNIT = (_ONE,)  # the coefficients of the polynomial 1
_UNIT_POLY = Poly._trusted(_UNIT)


class AlgebraElement(_Record):
    """A finite linear combination of same-k diagrams with Poly coefficients; unhashable, as its terms are a dict."""

    __slots__ = __match_args__ = ("k", "_terms")
    __hash__ = None

    def __init__(self, k: int, terms: Mapping[Diagram, Poly] | Iterable[tuple[Diagram, Poly]] = ()):
        if k < 1:
            raise ValueError("k must be a positive integer")
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Diagram, Poly] = {}
        for d, c in items:
            if d.k != k:
                raise ValueError(f"term diagram has k={d.k}, element has k={k}")
            if not isinstance(c, Poly):
                c = Poly.of(c)
            acc[d] = acc[d] + c if d in acc else c
        self._set_fields(k, {d: c for d, c in acc.items() if not c.is_zero()})

    @classmethod
    def _trusted(cls, k: int, terms: dict[Diagram, Poly]) -> "AlgebraElement":
        """Wrap terms already normal: diagrams of this k >= 1, each with a nonzero Poly, in a dict of its own."""
        e = cls.__new__(cls)
        object.__setattr__(e, "k", k)
        object.__setattr__(e, "_terms", terms)
        return e

    @classmethod
    def from_diagram(cls, d: Diagram, coeff: Poly | int | Fraction = _UNIT_POLY) -> "AlgebraElement":
        if coeff is _UNIT_POLY:
            return cls._trusted(d.k, {d: coeff})
        return cls(d.k, {d: coeff})

    @classmethod
    def identity(cls, k: int) -> "AlgebraElement":
        return cls.from_diagram(identity(k))

    def terms(self) -> list[tuple[Diagram, Poly]]:
        """Terms in the canonical (lexicographic RGS) diagram order."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coeff(self, d: Diagram) -> Poly:
        return self._terms.get(d, Poly.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.k != other.k:
            raise ValueError("cannot add elements with different k")
        return AlgebraElement(self.k, [*self._terms.items(), *other._terms.items()])

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.k, {d: scalar * c for d, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return NotImplemented

    def __repr__(self):
        if self.is_zero():
            return f"AlgebraElement({self.k}, 0)"
        body = " + ".join(f"({c.pretty()})*{{{d.to_text()}}}" for d, c in self.terms())
        return f"AlgebraElement({self.k}, {body})"

    def to_json_terms(self) -> list[dict]:
        return [{"coeff": c.to_strings(), "diagram": d.to_text()} for d, c in self.terms()]


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of the diagram product to linear combinations.

    Each pair of terms costs one `concat` and one product of coefficients,
    shifted by the middle components swallowed.  The products are collected
    in one dict and added only when a diagram repeats, where they may cancel;
    the operands' terms are already normal, so the result is wrapped without
    the public constructor's checks.
    """
    if a.k != b.k:
        raise ValueError("cannot multiply elements with different k")
    acc: dict[Diagram, Poly] = {}
    for d1, c1 in a._terms.items():
        for d2, c2 in b._terms.items():
            d, m = concat(d1, d2)
            c = (c1 * c2).shifted(m)
            acc[d] = acc[d] + c if d in acc else c
    return AlgebraElement._trusted(a.k, {d: c for d, c in acc.items() if c.coeffs})


class RectDiagram(_Record):
    """A diagram with k top and l bottom vertices, no block inside the top row.

    These compose only when the inner shapes agree; a shape mismatch is a
    genuine zero, returned as None by rect_compose.
    """

    __slots__ = __match_args__ = ("k_top", "l_bottom", "part")

    def __init__(self, k_top: int, l_bottom: int, part: SetPartition):
        if k_top < 0 or l_bottom < 0:
            raise ValueError("row sizes must be non-negative")
        if part.ground_size != k_top + l_bottom:
            raise ValueError(f"partition covers {part.ground_size} vertices, expected {k_top + l_bottom}")
        isolated = set(part.rgs[:k_top]).difference(part.rgs[k_top:])
        if isolated:
            raise ValueError(f"block {part.blocks[min(isolated)]} is isolated to the top row")
        self._set_fields(k_top, l_bottom, part)

    def to_text(self) -> str:
        return f"{self.k_top},{self.l_bottom}:{self.part.to_text(top_size=self.k_top)}"

    def __repr__(self):
        return f"RectDiagram({self.to_text()!r})"


def parse_rect_diagram(text: str) -> RectDiagram:
    """Parse 'k,l:' prefixed rectangular diagram text."""
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"rectangular diagram text needs a 'k,l:' prefix, got {text!r}")
    try:
        k_str, l_str = head.split(",")
        k, l = int(k_str), int(l_str)
    except ValueError:
        raise ValueError(f"malformed shape prefix {head!r}") from None
    p = setpart.parse_text(body, top_size=k, ground_size=k + l)
    return RectDiagram(k, l, p)


def rect_compose(d1: RectDiagram, d2: RectDiagram) -> RectDiagram | None:
    """Concatenate when d1's bottom shape matches d2's top shape, else None.

    Because neither operand has a block isolated to its top row, every
    fused middle vertex connects down to d2's bottom row, so no component
    can be swallowed; this is asserted rather than compensated for.
    """
    if d1.l_bottom != d2.k_top:
        return None
    part, swallowed = _stack(d1.part, d2.part, d1.k_top, d1.l_bottom)
    assert not swallowed, "middle components cannot arise without top-isolated blocks"
    return RectDiagram(d1.k_top, d2.l_bottom, part)
