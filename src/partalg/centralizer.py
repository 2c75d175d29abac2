"""Exact centralizer and commutant dimensions on tensor-power modules.

Ranks are computed by an `Echelon`, an incremental elimination over the
integers: each row is cleared of denominators, reduced in place against the
current echelon basis with two-term integer combinations, and
gcd-normalized once, when it joins the basis, so no floating point or
rational division ever occurs and the result is reproducible.  Commutator
and span rows carry integral entries, which every entry of a diagram or
permutation matrix is, as plain ints; an all-int row is read in one pass,
with no denominator step, so no `Fraction` is built on that path.

A commutant eliminates only the rows of its generators that are neither
permutation nor diagonal matrices, in orbit unknowns, rarest first:
`commutant_dimension` hands them to `rank_of_rows` as they are formed, and
its one read clears, renumbers, makes primitive and deduplicates them.  A
span eliminates one row per matrix, in column classes refined matrix by
matrix from each position read once, the rows read from their split tree
(`span_rank`).  The permutation span is certified mod 2 instead
(`perm_span_dim`): its rows are int bitsets in a `_BitEchelon`, the
`Echelon` that reduces by XOR, keyed by the live orbit unknowns of the
diagram commutant, which it labels from kernels on the live positions alone
(`_live_orbits`).  Its closure moves whole orbits, and its upper bound forms
the rows of p_1 from kernel-matched tails (`_tail_rows`).

There are no size caps.  What a layer allocates or reads is counted before
it eliminates and passed to `rep.check_budget`; the elimination is metered
by `Echelon.updates`, in entries over Z and in 64-bit words over GF(2).
Over the limit, either raises `BudgetExceededError`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, product
from math import factorial, gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import rep
from .diagram import enumerate_diagrams, partition_algebra_generators
from .rep import BudgetExceededError, PermWord, SparseMat, check_budget, check_diagram_count, matrix, perm_matrix
from .setpart import _Record, _stirling_row, count_partitions

__all__ = [
    "BudgetExceededError",
    "Echelon",
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


def _integer_row(row: Mapping[int, object]) -> dict[int, int]:
    """The row with its denominators cleared: a positive multiple of it, all ints, zeros dropped.

    Entries are ints or Fractions (any rational with `numerator` and
    `denominator`).  An all-int row is read once into the dict returned,
    which is always fresh, so `Echelon.add` may reduce it in place.  No
    content or sign step: a row is made primitive where it is kept.
    """
    ints = {i: v for i, v in row.items() if v}
    for v in ints.values():
        if type(v) is not int:  # a Fraction, or a bool: clear the denominators
            denom = lcm(*(w.denominator for w in ints.values()))
            return {i: w.numerator * (denom // w.denominator) for i, w in ints.items()}
    return ints


def _primitive(ints: dict[int, int]) -> dict[int, int]:
    """The nonzero int row made primitive, leading entry positive; the same dict when it already is."""
    g = 0
    for v in ints.values():
        g = gcd(g, v)
        if g == 1:
            break
    if ints[min(ints)] < 0:
        g = -g
    return ints if g == 1 else {i: v // g for i, v in ints.items()}


class Echelon:
    """An integer row echelon basis that grows one row at a time, metered.

    `add` clears a row's denominators, then reduces it in place
    against the basis (one row per pivot column): r := r * b[c] - b * r[c],
    where r is scaled only when the basis pivot b[c] is not 1.  The content
    is divided out and the sign fixed once, when r joins the basis, so every
    basis row is primitive with a positive pivot.  `updates` counts the
    work in the echelon's `unit`: here len(r) for every row read and len(b)
    for every reduction step, so it bounds the entries the basis holds (a
    reduction only merges supports).  Past 16 * MATRIX_NNZ_LIMIT, read when
    the echelon is made, `add` raises `BudgetExceededError`.
    """

    __slots__ = ("basis", "updates", "what", "limit")
    unit = "updates"

    def __init__(self, what: str = "elimination"):
        self.basis: dict = {}
        self.updates = 0
        self.what = what
        self.limit = 16 * rep.MATRIX_NNZ_LIMIT

    @property
    def rank(self) -> int:
        return len(self.basis)

    def _refuse(self):
        raise BudgetExceededError(f"{self.what} stopped after {self.updates} {self.unit} at rank {self.rank}, over the limit {self.limit}")

    def add(self, row: Mapping[int, object]) -> bool:
        """Reduce the row; True when it was independent and joined the basis."""
        return self._reduce(_integer_row(row))

    def _reduce(self, r: dict[int, int]) -> bool:
        """`add` for a fresh int row with no zeros, which is reduced in place."""
        basis = self.basis
        self.updates += len(r)
        while r:
            if self.updates > self.limit:
                self._refuse()
            c = min(r)
            b = basis.get(c)
            if b is None:
                basis[c] = _primitive(r)
                return True
            # r := r * b[c] - b * r[c]; the pivot column cancels exactly.
            rc, bc = r[c], b[c]
            if bc != 1:
                r = {i: v * bc for i, v in r.items()}
            for i, v in b.items():
                nv = r.get(i, 0) - v * rc
                if nv:
                    r[i] = nv
                else:
                    del r[i]
            self.updates += len(b)
        return False


class _BitEchelon(Echelon):
    """An `Echelon` over GF(2) of int bitsets, its `updates` counting 64-bit words.

    A row's pivot is its highest bit, `x.bit_length()`, and a reduction is
    x ^= basis[pivot].  The words of each row read and of each basis row
    XORed are counted, so the count bounds the bytes the basis holds.
    """

    __slots__ = ()
    unit = "words"

    def add(self, x: int) -> bool:
        """Reduce the bitset; True when it was independent and joined the basis."""
        basis = self.basis
        self.updates += (x.bit_length() + 63) >> 6
        while x:
            if self.updates > self.limit:
                self._refuse()
            pivot = x.bit_length()
            b = basis.get(pivot)
            if b is None:
                basis[pivot] = x
                return True
            x ^= b
            self.updates += (pivot + 63) >> 6
        return False


def rank_of_rows(rows: Iterable[Mapping[int, object]], what: str | Callable[[int], str] = "elimination") -> int:
    """Rank of a set of sparse rational rows, by exact integer elimination metered as `what`.

    The one owner of the elimination order.  In one read the rows are
    cleared of denominators and zeros, the columns numbered by how few rows
    use them, ties broken by the key, and each row renumbered, made
    primitive with a positive leading entry and kept once.  The distinct
    rows are fed in descending order of their renumbered entries, so the
    echelon pivots on the rarest unknowns first and fills in little
    (Markowitz, 1957).  A column permutation leaves the rank unchanged.
    `what` is the echelon's name, or a function of the distinct row count.
    """
    # each row as read held once, as (its columns, its entries): small where many rows repeat
    rows = list({(tuple(r), tuple(r.values())) for r in map(_integer_row, rows) if r})
    uses = Counter(chain.from_iterable(columns for columns, _ in rows))
    number = {c: i for i, c in enumerate(sorted(uses, key=lambda c: (uses[c], c)))}
    for i, (columns, entries) in enumerate(rows):  # in place and flat, (column, entry, column, entry, ...)
        pairs = sorted(zip(map(number.__getitem__, columns), entries))
        g = -gcd(*entries) if pairs[0][1] < 0 else gcd(*entries)  # primitive, leading entry positive
        rows[i] = tuple(chain.from_iterable(pairs if g == 1 else [(c, v // g) for c, v in pairs]))
    rows = sorted(set(rows))  # as the rows of sorted (column, entry) pairs would sort
    echelon = Echelon(what if isinstance(what, str) else what(len(rows)))
    while rows:  # descending, each row dropped as it is fed
        r = rows.pop()
        echelon._reduce(dict(zip(r[::2], r[1::2])))
    return echelon.rank


def span_rank(mats: Sequence[SparseMat]) -> int:
    """Dimension of the linear span of the given matrices.

    Positions where every matrix has the same entry are equal columns of the
    stacked rows, so they share one column class (for diagram matrices an
    S_n-orbit, one set partition of the 2k vertices into at most n blocks).
    Each matrix, one row over the classes, splits them by entry, reading its
    positions once into a list of position labels; a new class records its
    parent, the matrix and its entry, so a class's entries are the links of
    its chain back to class 0.  Rows are added until the rank reaches the
    class count.  The work is estimated as the D^2 labels plus the nonzeros.
    """
    mats = list(mats)
    if not mats:
        return 0
    dim = mats[0].dim
    if any(m.dim != dim for m in mats):
        raise ValueError("matrices must share one dimension")
    nnz = sum(m.nnz for m in mats)
    check_budget(dim * dim + nnz, lambda: f"span rank of {len(mats)} matrices labels {dim * dim} positions and reads {nnz} nonzeros")
    label = [0] * (dim * dim)  # position -> class; class 0 is zero in every matrix so far
    parent, source, entry = [0], [0], [0]  # each class: the class it split from, that matrix and its entry there
    last = key = None
    for j, m in enumerate(mats):
        split: dict[int, int] = {}  # old class -> new class, for the entry `key` read last
        splits = {key: split}  # entry -> its split, keyed by ints: Fraction.__hash__ is slow
        for p, v in zip(m._ranks, m.values):
            if v is not last:  # diagram matrices share one entry object: one key for all of them
                last, key = v, (v.numerator, v.denominator)
                split = splits.setdefault(key, {})
                value = key[0] if key[1] == 1 else v
            old = label[p]
            new = split.get(old)
            if new is None:
                new = split[old] = len(parent)
                parent.append(old)
                source.append(j)
                entry.append(value)
            label[p] = new
    classes = set(label) - {0}
    rows: list[dict[int, int | Fraction]] = [{} for _ in mats]
    for o in classes:
        link = o
        while link:
            rows[source[link]][o] = entry[link]
            link = parent[link]
    echelon = Echelon(f"span rank of {len(mats)} matrices in {len(classes)} column classes")
    for row in rows:
        if echelon.rank < len(classes):
            echelon.add(row)
    return echelon.rank


def commutant_dimension(generators: Sequence[SparseMat]) -> int:
    """Dimension of the space of matrices commuting with every generator.

    A matrix commutes with an algebra exactly when it commutes with a
    generating set of it, so pass generators rather than a whole basis.
    X commutes with a permutation matrix P exactly when X[a, b] = X[Pa, Pb],
    so the unknowns are the orbits of the D*D positions under the
    permutation generators (one 1 in every row and column, nothing else),
    labelled by one flood fill.  A diagonal G gives X[a, b] = 0 wherever
    G[a, a] != G[b, b], which kills whole orbits.  Only the rows of
    XG - GX = 0 of the other generators reach `rank_of_rows`, reduced by the
    classes of equal rows and columns of G (`_orbit_commutator_rows`): in
    the live orbit unknowns, as formed, made primitive and distinct by the
    one read of `rank_of_rows`, in its order.  At the (7, 2) diagram
    commutant that is 588 distinct rows of p_1 (2352 distinct of all D^2)
    and 50,965 `Echelon.updates`, against 175,092 in descending order of the
    orbit labels.  The dimension is live orbits minus rank.

    The D*D positions are checked before labelling, and the D*D positions
    plus the 2 * D * nnz terms the other generators' rows read before the
    first row is formed; the elimination is metered.
    """
    dim, live, _, rows = _commutant_system(generators)
    return live - rank_of_rows(rows, lambda count: f"commutant at dimension {dim} eliminating {count} rows in {live} orbit unknowns")


def _sum_row(terms: Iterator) -> dict[int, int | Fraction]:
    """The commutator row over Z, live unknowns only, as formed: not cleared of zeros or denominators, not made primitive."""
    row: dict[int, int | Fraction] = {}
    for o, v in terms:
        if o >= 0:
            row[o] = row.get(o, 0) + v
    return row


def _commutant_system(generators: Sequence[SparseMat]) -> tuple[int, int, list[int], Iterator[dict]]:
    """The dimension, the live orbit count, each position's orbit label (-1 where dead) and the commutator rows, read lazily."""
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    dim = gens[0].dim
    if any(g.dim != dim for g in gens):
        raise ValueError("generators must share one dimension")
    perms, diagonals, others = [], [], []
    for g in gens:
        if all(p % (dim + 1) == 0 for p in g._ranks):  # r * dim + c with r == c
            diagonals.append(g)
        elif (image := _permutation(g)) is not None:
            perms.append(image)
        else:
            others.append(g)
    terms = 2 * dim * sum(g.nnz for g in others)
    what = lambda: f"commutant at dimension {dim} labels {dim * dim} positions and reads {terms} terms"
    check_budget(dim * dim, what)
    label, count = _position_orbits(dim, perms)
    dead = set()
    for g in diagonals:
        # X[a, b] = 0 where the diagonal differs at a and b: each such position is read once
        diag = {p // (dim + 1): v for p, v in zip(g._ranks, g.values)}
        values = [diag.get(a, 0) for a in range(dim)]
        cols = {value: [b for b, v in enumerate(values) if v != value] for value in set(values)}
        for a, value in enumerate(values):
            dead.update([label[a * dim + b] for b in cols[value]])
    label = [-1 if o in dead else o for o in label]

    def rows() -> Iterator[dict]:
        check_budget(dim * dim + terms, what)
        for g in others:
            yield from _orbit_commutator_rows(g, label)

    return dim, count - len(dead), label, rows()


def _permutation(g: SparseMat) -> list[int] | None:
    """Row r to the column of its one if g is a permutation matrix, else None.

    Rows and columns are both checked: a diagram matrix can have one 1 in
    every column and two in some row.
    """
    dim = g.dim
    if g.nnz != dim or any(v != 1 for v in g.values):
        return None
    image = [p - i * dim for i, p in enumerate(g._ranks)]  # the i-th one's column, when it is in row i
    return image if all(0 <= c < dim for c in image) and len(set(image)) == dim else None


def _position_orbits(dim: int, perms: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Orbit labels of the positions a * dim + b under (a, b) -> (s[a], s[b]), and the orbit count.

    Labels are numbered in the order of each orbit's first position.
    """
    label = [-1] * (dim * dim)
    count = 0
    for start in range(dim * dim):
        if label[start] >= 0:
            continue
        label[start] = count
        stack = [start]
        while stack:
            a, b = divmod(stack.pop(), dim)
            for s in perms:
                q = s[a] * dim + s[b]
                if label[q] < 0:
                    label[q] = count
                    stack.append(q)
        count += 1
    return label, count


def _orbit_commutator_rows(g: SparseMat, label: Sequence[int]) -> Iterator[dict]:
    """Rows spanning XG - GX = 0 in orbit unknowns, each summed by `_sum_row`.

    Unknown X[i, j] is orbit label[i * dim + j], dropped where -1 (dead).
    Integral entries of G enter the rows as ints.
    Equal columns l ~ l' of G give equal entries (XG)_{i,l} = (XG)_{i,l'}, so
    the D^2 rows R(i, l) span what these span: R(i, l) at each column-class
    representative l, and for each other l the difference R(i, l) - R(i, rep
    l) = (GX)_{i,rep l} - (GX)_{i,l}, which depends on i only through row i
    of G, so it is formed once per class of equal rows.
    """
    dim = g.dim
    g_rows: list = [[] for _ in range(dim)]
    g_cols: list = [[] for _ in range(dim)]
    for p, v in zip(g._ranks, g.values):
        r, c = divmod(p, dim)
        v = v.numerator if v.denominator == 1 else v
        g_rows[r].append((c, v))
        g_cols[c].append((r, v))
    # each row of G as (its columns, their entries), each column as (its rows, their entries)
    g_rows, g_cols = ([tuple(zip(*line)) or ((), ()) for line in lines] for lines in (g_rows, g_cols))
    col_class: dict[tuple, int] = {}  # column of G -> its first index
    col_rep = [col_class.setdefault(col, l) for l, col in enumerate(g_cols)]
    row_classes = {row: i for i, row in enumerate(g_rows)}.values()  # one row of G per class of equal rows
    negated = [tuple(-v for v in vs) for _, vs in g_rows]  # the entries of -G, row by row
    at_col = {l: label[l::dim].__getitem__ for l in col_class.values()}  # X[j, l] at j
    for i in range(dim):
        at_row, js = label[i * dim:(i + 1) * dim].__getitem__, g_rows[i][0]  # X[i, j] at j
        for l, at_l in at_col.items():  # (XG)_{i,l} = sum_j X[i,j] G[j,l], minus (GX)_{i,l} = sum_j G[i,j] X[j,l]
            yield _sum_row(chain(zip(map(at_row, g_cols[l][0]), g_cols[l][1]), zip(map(at_l, js), negated[i])))
    for l, rep_l in enumerate(col_rep):
        if rep_l != l:
            at_l, at_rep = label[l::dim].__getitem__, at_col[rep_l]
            for i in row_classes:  # sum_j G[i,j] (X[j,rep l] - X[j,l])
                js, vs = g_rows[i]
                yield _sum_row(chain(zip(map(at_rep, js), vs), zip(map(at_l, js), negated[i])))


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
    gens = [PermWord.transposition(n, 1, 2), PermWord.cycle(n)]
    return gens[:1] if n == 2 else gens  # at n = 2 the long cycle is s_1


def perm_span_dim(n: int, k: int) -> int:
    """Dimension of the span of the n! permutation matrices on k-tuples.

    That span is the algebra generated by the matrices of s_1 and the long
    cycle.  It is built by closure: starting from the identity, each product
    that was independent when it joined the echelon is multiplied by each
    generator, so the work grows with the span dimension, not with n!.

    The closure works in the coordinates of the diagram commutant, which
    holds the span.  Its unknowns come from kernels (`_live_orbits`): the
    orbits, under the place permutations, of the live positions (a, b) with
    ker a = ker b, the only ones b_1 and the place permutations leave alive.
    Each S_n generator is checked to commute with each diagram generator
    before any product is keyed, so every product is constant on each orbit
    and zero off the live positions: 1632 live orbits of 4096 positions at
    (8, 2), 3336 of 46,656 at (6, 3).  A product is held as the list of its
    orbits.  Row r of m @ g has its one in column g[m[r]], and (r, c) ->
    (r, g[c]) commutes with the place permutations, so g moves whole orbits
    (`_orbit_moves`) and no product reads its n^k positions.

    The rank is certified by L <= dim <= U, with no elimination over Z:
      L is the closure's rank mod 2: 0/1 rows independent mod 2 are independent over Q;
      U is n!, the number of matrices, or else the live orbits minus the rank mod 2 of the
      integer commutator rows of p_1, each XORed into a bitset from its kernel-matched tails
      (`_tail_rows`), not made primitive: integer rows independent mod 2 are independent
      over Q, and these rows span what the diagram commutant's primitive rows span, so U is
      at least that commutant's dimension.
      L = U proves dim = L; else the closure runs again over Z.

    The matrices are budgeted by `matrix`, and the positions as
    `commutant_dimension` budgets them: the D^2 labels before labelling, and
    with the 2 * D * nnz terms of p_1 before the first row of U.  Each
    echelon is metered: the closure mod 2 takes 8.6 M of the 2^24 words at
    (10, 2) and is stopped at (11, 2) and (7, 3).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    diagrams = partition_algebra_generators(k)
    mats = [matrix(d, n) for d in diagrams]
    dim = n**k
    terms = 2 * dim * mats[0].nnz  # the rows of p_1
    budget = lambda: f"commutant at dimension {dim} labels {dim * dim} positions and reads {terms} terms"
    check_budget(dim * dim, budget)
    label, first = _live_orbits(n, k, [s for s in map(_permutation, mats) if s is not None])
    gens = [_permutation(perm_matrix(s, k)) for s in symmetric_group_generators(n)]
    for d, m in zip(diagrams, mats):
        entries = dict(zip(m._ranks, m.values))
        for g in gens:
            if {g[p // dim] * dim + g[p % dim]: v for p, v in entries.items()} != entries:
                raise RuntimeError(f"permutation span at (n, k) = ({n}, {k}): a generator of S_{n} does not commute with the diagram {d}")
    what = f"permutation span at (n, k) = ({n}, {k})"
    moves = [_orbit_moves(label, first, g) for g in gens]
    identity = sorted(set(label[::dim + 1]))  # the orbits of the diagonal
    lower = _closure_rank(identity, moves, _BitEchelon(f"{what} mod 2"), _xor_bits)
    if lower == factorial(n):
        return lower
    check_budget(dim * dim + terms, budget)
    upper = _BitEchelon(f"commutant at dimension {dim} mod 2 in {len(first)} orbit unknowns")
    # distinct and ascending: 3.0 M words at (6, 3), against 9.8 M descending
    rows = sorted(set(_tail_rows(n, k, label)), reverse=True)
    while rows:  # ascending, each row dropped as it is fed
        upper.add(rows.pop())
    if lower == len(first) - upper.rank:
        return lower
    return _closure_rank(identity, moves, Echelon(what), lambda orbits: dict.fromkeys(orbits, 1))


def _kernel_classes(n: int, k: int) -> list[list[int]]:
    """Each k-tuple's class: the ascending indices of the k-tuples over [n] with its kernel.

    The kernel of a tuple is its pattern of equal entries: a and b share it
    when a_i = a_j exactly where b_i = b_j.
    """
    classes: dict[tuple[int, ...], list[int]] = {}
    of = [classes.setdefault(tuple(map(t.index, t)), []) for t in product(range(n), repeat=k)]
    for a, group in enumerate(of):
        group.append(a)
    return of


def _live_orbits(n: int, k: int, perms: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Labels of the diagram commutant's live orbits at each of the n^2k positions (-1 where dead), and each orbit's first position.

    X commutes with the diagonal b_1 exactly when X[a, b] = 0 wherever
    [a_1 = a_2] != [b_1 = b_2], and with the place permutations `perms`
    exactly when X[a, b] = X[s a, s b].  They generate S_k on the places, so
    every pair of places can be moved to the first two: the live positions
    are exactly those with ker a = ker b, and they are closed under `perms`.
    Only they are flood-filled, from the live starts in ascending order, so
    the orbits keep the order of their first positions.
    """
    dim = n**k
    label = [-1] * (dim * dim)
    first: list[int] = []
    for a, group in enumerate(_kernel_classes(n, k)):
        for b in group:
            start = a * dim + b
            if label[start] >= 0:
                continue
            o = label[start] = len(first)
            first.append(start)
            stack = [start]
            while stack:
                r, c = divmod(stack.pop(), dim)
                for s in perms:
                    q = s[r] * dim + s[c]
                    if label[q] < 0:
                        label[q] = o
                        stack.append(q)
    return label, first


def _orbit_moves(label: Sequence[int], first: Sequence[int], g: Sequence[int]) -> list[int]:
    """Each live orbit's image under (r, c) -> (r, g[c]), read at its first position."""
    dim = len(g)
    return [label[p - p % dim + g[p % dim]] for p in first]


def _tail_rows(n: int, k: int, label: Sequence[int]) -> Iterator[int]:
    """The commutator rows of p_1 in the live orbit unknowns, each reduced mod 2 into a bitset.

    With m = n^(k-1), tuple x * m + t has first entry x and tail t.  p_1 has
    its ones at the (a, b) with equal tails, so its rows, and its columns, are
    equal exactly when their tails are.  At row i = x * m + s and column
    class t, `_orbit_commutator_rows` forms (XG)_{i,t} - (GX)_{i,t}: X[i, y * m
    + t] over y, a slice of label row i, minus X[y * m + s, t], a slice down
    column t.  At each other column l = y * m + t and tail s it forms
    (GX)_{i,t} - (GX)_{i,l}, two slices down columns.  A term is live only
    when its two tuples share a kernel, which needs ker s = ker t, so only
    those pairs of tails are walked.
    """
    dim = n**k
    m = dim // n
    stride = m * dim  # x -> x + 1 in the first place of the row tuple
    for s, group in enumerate(_kernel_classes(n, k - 1)):
        for t in group:
            down = _xor_bits(label[s * dim + t::stride])  # (GX)_{i, t}, the same at each i with tail s
            for i in range(s, dim, m):
                yield down ^ _xor_bits(label[i * dim + t:(i + 1) * dim:m])  # (XG)_{i, t}
            for l in range(t + m, dim, m):
                yield down ^ _xor_bits(label[s * dim + l::stride])  # (GX)_{i, l}


def _xor_bits(orbits: Iterable[int]) -> int:
    """The bitset of the orbits that occur an odd number of times, the dead label -1 skipped."""
    x = 0
    for o in orbits:
        if o >= 0:
            x ^= 1 << o
    return x


def _closure_rank(identity: list[int], moves: Sequence[list[int]], echelon: Echelon, row: Callable[[list[int]], object]) -> int:
    """Rank of the algebra generated by the permutations that move the live orbits by `moves`, each product's orbits added as `row(orbits)`."""
    echelon.add(row(identity))
    frontier = [identity]
    while frontier:
        grown = []
        for m in frontier:
            for move in moves:
                p = [move[o] for o in m]
                if echelon.add(row(p)):
                    grown.append(p)
        frontier = grown
    return echelon.rank


def _standard_tableaux(shape: tuple[int, ...]) -> int:
    """f^shape, the number of standard Young tableaux, by the hook-length formula."""
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = prod(shape[i] - j + cols[j] - i - 1 for i in range(len(shape)) for j in range(shape[i]))
    return factorial(sum(shape)) // hooks


def _isotypic(n: int, k: int) -> dict[tuple[int, ...], int]:
    """The multiplicity m_lambda > 0 of each S^lambda in V^(tensor k), V = C^n: level k of the Bratteli diagram of P_k(n)."""
    mult = {(n,): 1}
    for step in range(2 * k):  # V = Ind 1 from S_(n-1): by the branching rule each factor removes a box, then adds one
        grown: dict[tuple[int, ...], int] = {}
        for shape, m in mult.items():
            rows = shape + (0, 0)
            for i in range(len(shape) + 1):
                v = rows[i] + (1 if step % 2 else -1)
                if (i == 0 or rows[i - 1] >= v) and rows[i + 1] <= v:  # still a partition: row i between its neighbours
                    moved = tuple(x for x in rows[:i] + (v,) + rows[i + 1:] if x)
                    grown[moved] = grown.get(moved, 0) + m
        mult = grown
    return mult


def perm_span_expected(n: int, k: int) -> int:
    """Closed form of perm_span_dim: the sum of (f^lambda)^2 over the lambda with m_lambda > 0 in `_isotypic`.

    By Wedderburn the image of C[S_n] in End(V^(tensor k)) is the sum of End(S^lambda) over those lambda.  No
    elimination is involved, so it checks the computed ranks independently.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    return sum(_standard_tableaux(shape) ** 2 for shape in _isotypic(n, k))


class VerificationReport(_Record):
    """Exact dimension bookkeeping for one (n, k) centralizer check."""

    __slots__ = __match_args__ = (
        "n", "k", "centralizer_dim", "diagram_span_rank", "commutant_of_perms_dim", "perm_span_dim",
        "commutant_of_diagrams_dim", "perm_span_expected",
    )

    def __init__(self, n: int, k: int, centralizer_dim: int, diagram_span_rank: int, commutant_of_perms_dim: int,
                 perm_span_dim: int, commutant_of_diagrams_dim: int, perm_span_expected: int):
        self._set_fields(n, k, centralizer_dim, diagram_span_rank, commutant_of_perms_dim, perm_span_dim,
                         commutant_of_diagrams_dim, perm_span_expected)

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
        # the closed form is printed only through the double-commutant verdict
        doc = {f: getattr(self, f) for f in self.__match_args__ if f != "perm_span_expected"}
        return doc | {
            "surjectivity_verdict": self.surjectivity_verdict,
            "double_commutant_verdict": self.double_commutant_verdict,
        }


def verify_schur_weyl(n: int, k: int) -> VerificationReport:
    """Machine-check both centralizer statements at one finite size.

    The diagram span rank walks only the diagrams with at most n blocks, a
    basis of the span: in the orbit basis of Halverson and Ram, d is the sum of
    x_pi over its coarsenings pi, x_pi = 0 exactly when pi has more than n
    blocks, and no coarsening has more blocks than d, so the change of basis is
    unitriangular.  span(basis) lies in span(all diagram matrices), which lies
    in End_{S_n}, so a rank equal to `centralizer_dimension` proves the first
    statement.  `span_rank` reads each matrix as one row over the S_n-orbits of
    positions.  The commutant of the diagrams uses only the matrices of
    `partition_algebra_generators(k)`: matrix(d1) @ matrix(d2) = n^m *
    matrix(d1 o d2) with n >= 1, so those matrices and the identity generate
    the diagram span as an algebra, and both have the same commutant at every
    n.  There s_1 and the long cycle give orbits, the diagonal b_1 kills the
    orbits whose tuples differ in their pattern of equal entries, and only the
    rows of p_1 are eliminated; the commutant of the symmetric group is an
    orbit count.  The double-commutant verdict also compares both computed ranks
    with `perm_span_expected`.

    What is allocated or read is checked before any elimination: first
    `check_diagram_count`, whose Bell(2k) bounds the walk over the diagrams
    with at most n blocks from above and refuses a huge k before any Stirling
    row is built, then the basis matrices' nonzeros.  The permutation span is
    computed first: the meter of its closure mod 2 stops it at (11, 2) and
    (7, 3) before either pays for its commutant of the diagrams.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive integers")
    check_diagram_count("schur-weyl verification", k)
    nnz = sum(s * n**b for b, s in enumerate(_stirling_row(2 * k, n)))
    check_budget(nnz, lambda: f"the basis diagrams at (n, k) = ({n}, {k}) have sum_(b <= {n}) S({2 * k}, b) {n}^b nonzeros")
    perm_span = perm_span_dim(n, k)
    commutant_of_diagrams = commutant_dimension([matrix(d, n) for d in partition_algebra_generators(k)])
    diagram_span = span_rank([matrix(d, n) for d in enumerate_diagrams(k, max_blocks=n)])
    perm_gens = [perm_matrix(s, k) for s in symmetric_group_generators(n)]
    return VerificationReport(
        n=n,
        k=k,
        centralizer_dim=centralizer_dimension(n, k),
        diagram_span_rank=diagram_span,
        commutant_of_perms_dim=commutant_dimension(perm_gens),
        perm_span_dim=perm_span,
        commutant_of_diagrams_dim=commutant_of_diagrams,
        perm_span_expected=perm_span_expected(n, k),
    )
