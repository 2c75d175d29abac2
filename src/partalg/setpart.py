"""Canonical set partitions of a finite ordered ground set.

A partition of {0, ..., g-1} is stored as a restricted-growth string (RGS):
entry t is the label of the block containing vertex t, blocks numbered in
order of first appearance.  The RGS is unique per partition, so equality,
hashing and lexicographic ordering reduce to tuple comparisons.  A
`SetPartition` holds only its RGS; every other reading, its blocks too, is
computed from it when asked for.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "SetPartition",
    "DisjointSets",
    "from_blocks",
    "from_edges",
    "from_labels",
    "enumerate_partitions",
    "count_partitions",
    "bell_number",
    "stirling2",
    "orbit_partition",
    "refines",
    "parse_text",
]


class _Record:
    """Frozen value semantics for every value class of the package, with no generated code.

    It serves `SetPartition`, `Diagram`, `RectDiagram`, `Poly`, `AlgebraElement`, `SparseMat`, `PermWord`,
    `GeometricWeights`, `NormProfile`, `MonomialInvariant` and `VerificationReport`.  The one mutable value class is
    `cli.Command`, kept apart so that `cli` imports no other `partalg` module before a command is parsed.

    A subclass names its fields, in order, in `__match_args__` and sets each once in `__init__` with
    `object.__setattr__` or `_set_fields`.  Instances of one class are equal when their field tuples are, hash as that
    tuple, print as `Name(field=value, ...)`, pickle and copy through the constructor, and refuse
    assignment and deletion.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        # equality and hash close over the class's field getter, which reads every field in one C call
        super().__init_subclass__(**kwargs)
        key = attrgetter(*cls.__match_args__)  # the field tuple; with one field, the bare value
        one = len(cls.__match_args__) == 1

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash((key(self),) if one else key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def _set_fields(self, *values) -> None:
        """Set every field once, in `__match_args__` order: the `__init__` of a record with no checks."""
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self._astuple()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()


class SetPartition(_Record):
    """A set partition of {0, ..., g-1} in canonical RGS form."""

    __slots__ = __match_args__ = ("rgs",)

    def __init__(self, rgs: Sequence[int]):
        rgs = tuple(rgs)
        top = -1
        for t, lab in enumerate(rgs):
            if not isinstance(lab, int) or lab < 0:
                raise ValueError(f"rgs[{t}] = {lab!r} is not a non-negative integer")
            if lab > top + 1:
                raise ValueError(f"rgs[{t}] = {lab} breaks restricted growth")
            if lab == top + 1:
                top = lab
        object.__setattr__(self, "rgs", rgs)

    @classmethod
    def _trusted(cls, rgs: tuple[int, ...]) -> "SetPartition":
        """Wrap a tuple that is already a restricted-growth string, without checking it again."""
        p = cls.__new__(cls)
        object.__setattr__(p, "rgs", rgs)
        return p

    @property
    def ground_size(self) -> int:
        return len(self.rgs)

    @property
    def num_blocks(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for v, lab in enumerate(self.rgs):
            out[lab].append(v)
        return tuple(map(tuple, out))

    def to_text(self, top_size: int | None = None) -> str:
        """Block text form; vertices past top_size print as primed labels."""
        return "|".join(",".join(_vertex_name(v, top_size) for v in block) for block in self.blocks)


def _vertex_name(v: int, top_size: int | None) -> str:
    """Vertex v as block text writes it: v + 1, or (v - top_size + 1)' from top_size on."""
    return str(v + 1) if top_size is None or v < top_size else f"{v - top_size + 1}'"


class DisjointSets:
    """Union-find over {0, ..., n-1} with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def from_labels(labels: Sequence[int]) -> SetPartition:
    """Canonicalize an arbitrary labelling (equal label = same block)."""
    relabel: dict[int, int] = {}
    return SetPartition._trusted(tuple([relabel.setdefault(lab, len(relabel)) for lab in labels]))


def from_blocks(ground_size: int, blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Canonicalize an explicit block list covering {0, ..., ground_size-1}."""
    return _from_blocks(ground_size, blocks, repr)


def _from_blocks(ground_size: int, blocks: Iterable[Iterable[int]], name: Callable[[int], str]) -> SetPartition:
    """`from_blocks`, with each vertex named as name(vertex) in its error messages."""
    if ground_size < 0:
        raise ValueError("ground size must be non-negative")
    # keyed by the given vertices, so a huge ground_size allocates nothing
    # before it fails: the least missing vertex is at most len(owner)
    owner: dict[int, int] = {}
    for b_idx, block in enumerate(blocks):
        for v in block:
            if not isinstance(v, int) or not 0 <= v < ground_size:
                raise ValueError(f"vertex {name(v)} out of range for ground size {ground_size}")
            if v in owner:
                raise ValueError(f"vertex {name(v)} appears in more than one block")
            owner[v] = b_idx
    if len(owner) < ground_size:
        missing = next(v for v in range(ground_size) if v not in owner)
        raise ValueError(f"vertex {name(missing)} is missing from the blocks")
    return from_labels([owner[v] for v in range(ground_size)])


def from_edges(ground_size: int, edges: Iterable[tuple[int, int]]) -> SetPartition:
    """Partition into connected components of a graph on the ground set."""
    if ground_size < 0:
        raise ValueError("ground size must be non-negative")
    dsu = DisjointSets(ground_size)
    for a, b in edges:
        for v in (a, b):
            if not isinstance(v, int) or not 0 <= v < ground_size:
                raise ValueError(f"edge endpoint {v!r} out of range for ground size {ground_size}")
        dsu.union(a, b)
    return from_labels([dsu.find(v) for v in range(ground_size)])


def enumerate_partitions(ground_size: int, max_blocks: int | None = None) -> Iterator[SetPartition]:
    """All partitions of the ground set in lexicographic RGS order."""
    if ground_size < 0:
        raise ValueError("ground size must be non-negative")
    if max_blocks is not None and max_blocks < 1:
        raise ValueError("max_blocks must be at least 1")
    if ground_size == 0:
        yield SetPartition._trusted(())
        return
    cap = ground_size if max_blocks is None else min(max_blocks, ground_size)
    rgs = [0] * ground_size

    def rec(t: int, used: int) -> Iterator[SetPartition]:
        if t == ground_size:
            yield SetPartition._trusted(tuple(rgs))
            return
        for v in range(min(used + 1, cap)):
            rgs[t] = v
            yield from rec(t + 1, used + (1 if v == used else 0))

    yield from rec(1, 1)


def bell_number(g: int) -> int:
    """Number of partitions of a g-element set, by the Bell triangle."""
    if g < 0:
        raise ValueError("ground size must be non-negative")
    row = [1]
    for _ in range(g):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _stirling_row(g: int, cap: int) -> list[int]:
    """Stirling numbers of the second kind S(g, 0), ..., S(g, min(g, cap)), in O(g * cap) steps."""
    row = [1]
    for n in range(1, g + 1):
        top = min(n, cap)
        nxt = [0] * (top + 1)
        for m in range(1, top + 1):
            nxt[m] = m * (row[m] if m < len(row) else 0) + row[m - 1]
        row = nxt
    return row


def stirling2(g: int, j: int) -> int:
    """Number of partitions of a g-element set into exactly j blocks."""
    if g < 0 or j < 0:
        raise ValueError("arguments must be non-negative")
    if j > g:
        return 0
    return _stirling_row(g, j)[j]


def count_partitions(ground_size: int, max_blocks: int | None = None) -> int:
    """Partition count, optionally restricted to at most max_blocks blocks."""
    if ground_size < 0:
        raise ValueError("ground size must be non-negative")
    if max_blocks is None:
        return bell_number(ground_size)
    if max_blocks < 1:
        raise ValueError("max_blocks must be at least 1")
    return sum(_stirling_row(ground_size, max_blocks))


def orbit_partition(values: Sequence[int]) -> SetPartition:
    """Group positions carrying equal values: the orbit type of a tuple."""
    for v in values:
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"tuple entries must be positive integers, got {v!r}")
    return from_labels(values)


def refines(p: SetPartition, q: SetPartition) -> bool:
    """True when every block of p lies inside a block of q."""
    if p.ground_size != q.ground_size:
        raise ValueError("partitions live on different ground sets")
    seen: dict[int, int] = {}
    for v, lab in enumerate(p.rgs):
        q_lab = q.rgs[v]
        if seen.setdefault(lab, q_lab) != q_lab:
            return False
    return True


_VERTEX_RE = re.compile(r"(\d+)(')?\Z")


def _parse_token_blocks(text: str) -> list[list[tuple[int, bool]]]:
    blocks = []
    for chunk in text.split("|"):
        block = []
        for tok in chunk.split(","):
            tok = tok.strip()
            m = _VERTEX_RE.match(tok)
            if m is None:
                raise ValueError(f"malformed vertex token {tok!r}")
            label = int(m.group(1))
            if label < 1:
                raise ValueError(f"vertex labels start at 1, got {tok!r}")
            block.append((label, m.group(2) is not None))
        blocks.append(block)
    return blocks


def parse_text(text: str, top_size: int | None = None, ground_size: int | None = None) -> SetPartition:
    """Parse block text like ``1,2,1'|3`` or a raw ``rgs:`` label string.

    Unprimed labels 1..t map to vertices 0..t-1 and primed labels j' to
    t+j-1 where t = top_size; with top_size None primes are rejected.
    """
    text = text.strip()
    if text.startswith("rgs:"):
        body = text[4:]
        try:
            rgs = tuple(int(x.strip()) for x in body.split(","))
        except ValueError:
            raise ValueError(f"malformed rgs text {body!r}") from None
        p = SetPartition(rgs)
        if ground_size is not None and p.ground_size != ground_size:
            raise ValueError(
                f"rgs length {p.ground_size} does not match expected ground size {ground_size}"
            )
        return p
    idx_blocks: list[list[int]] = []
    for block in _parse_token_blocks(text):
        idx_block = []
        for label, primed in block:
            if primed and top_size is None:
                raise ValueError(f"primed vertex {label}' is not allowed here")
            if not primed and top_size is not None and label > top_size:
                raise ValueError(f"vertex {label} exceeds top size {top_size}")
            idx_block.append(top_size + label - 1 if primed else label - 1)
        idx_blocks.append(idx_block)
    if ground_size is None:  # every block holds a vertex; the top row has top_size vertices, named or not
        ground_size = max(top_size or 0, 1 + max(map(max, idx_blocks)))
    return _from_blocks(ground_size, idx_blocks, lambda v: _vertex_name(v, top_size))
