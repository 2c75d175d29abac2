"""Independent answers that the benchmark checks partalg's results against.

Nothing here calls the partalg function whose result it checks: every
value comes from a closed form or a direct count written from the
definitions. Diagrams are handled as restricted growth strings (RGS):
vertices 0..k-1 are the top row, k..2k-1 the bottom row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial


def stirling2_row(g: int) -> list[int]:
    """S(g, j) for j = 0..g, by the recurrence S(g, j) = j S(g-1, j) + S(g-1, j-1)."""
    row = [1]
    for m in range(1, g + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, m + 1)]
    return row


def centralizer_dim(n: int, k: int) -> int:
    """Set partitions of the 2k diagram vertices into at most n blocks."""
    return sum(stirling2_row(2 * k)[1 : n + 1])


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def hook_dim(shape: tuple[int, ...]) -> int:
    """f^lambda, the number of standard tableaux, by the hook-length formula."""
    conj = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(shape)) // hooks


def perm_span_dim(n: int, k: int) -> int:
    """Sum of (f^lambda)^2 over lambda |- n with n - lambda_1 <= k."""
    return sum(hook_dim(lam) ** 2 for lam in _partitions(n) if n - lam[0] <= k)


def canonical_rgs(labels) -> tuple[int, ...]:
    """Relabel in order of first appearance."""
    seen: dict = {}
    return tuple(seen.setdefault(x, len(seen)) for x in labels)


def num_blocks(rgs) -> int:
    return max(rgs) + 1


def blocks(rgs) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(num_blocks(rgs))]
    for v, lab in enumerate(rgs):
        out[lab].append(v)
    return out


def diagram_product(rgs1, rgs2, k: int) -> tuple[tuple[int, ...], int]:
    """Stack d1 above d2: the outer diagram's RGS and the number of closed middle loops."""
    # Nodes: 0..k-1 top of d1, k..2k-1 the fused middle row, 2k..3k-1 bottom of d2.
    parent = list(range(3 * k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for rgs, shift in ((rgs1, 0), (rgs2, k)):
        first: dict[int, int] = {}
        for v, lab in enumerate(rgs):
            root = first.setdefault(lab, v + shift)
            parent[find(v + shift)] = find(root)
    outer = [find(v) for v in list(range(k)) + list(range(2 * k, 3 * k))]
    loops = {find(v) for v in range(k, 2 * k)} - set(outer)
    return canonical_rgs(outer), len(loops)


def _row_split(rgs, k: int) -> list[tuple[int, int]]:
    """Per block: (vertices in the top row, vertices in the bottom row)."""
    return [(sum(1 for v in b if v < k), sum(1 for v in b if v >= k)) for b in blocks(rgs)]


def l1_norm(rgs, k: int, trunc: int, ratio: Fraction) -> Fraction:
    """Weighted l1 operator norm at truncation trunc, block by block.

    A block with t top and b bottom vertices that meets the bottom row pins
    one value x and contributes ratio^(x (t - b)), maximized independently
    at x = 1 or x = trunc; a top-only block sums its free value.
    """
    out = Fraction(1)
    for t, b in _row_split(rgs, k):
        if b == 0:
            out *= sum(ratio ** (v * t) for v in range(1, trunc + 1))
        elif t > b:
            out *= ratio ** (t - b)
        elif t < b:
            out *= ratio ** (trunc * (t - b))
    return out


def linf_norm(rgs, k: int, trunc: int) -> Fraction:
    """Largest row sum: each bottom-only block adds one free value."""
    return Fraction(trunc ** sum(1 for t, b in _row_split(rgs, k) if t == 0))


def diagram_on_invariant(rgs, k: int, pi_rgs, n: int) -> list[int]:
    """The vector D m_pi over [n]^k, summed straight from the 0/1 entries."""
    dblocks = blocks(rgs)
    tuples = list(product(range(n), repeat=k))
    support = [b for b, hit in zip(tuples, monomial_indicator(pi_rgs, n, k)) if hit]
    out = []
    for top in tuples:
        total = 0
        for bottom in support:
            vals = top + bottom
            total += all(vals[v] == vals[blk[0]] for blk in dblocks for v in blk[1:])
        out.append(total)
    return out


def monomial_indicator(pi_rgs, n: int, k: int) -> list[int]:
    """1 on the tuples that are constant on every block of pi."""
    return [
        int(all(t[a] == t[b] for a in range(k) for b in range(k) if pi_rgs[a] == pi_rgs[b]))
        for t in product(range(n), repeat=k)
    ]
