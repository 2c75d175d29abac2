from __future__ import annotations

import json
import random
import time
from functools import cache
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partalg import centralizer, rep as rep_module
from partalg.centralizer import (
    BudgetExceededError,
    Echelon,
    VerificationReport,
    _BitEchelon,
    _integer_row,
    _permutation,
    _primitive,
    centralizer_dimension,
    commutant_dimension,
    perm_span_dim,
    perm_span_expected,
    rank_of_rows,
    span_rank,
    symmetric_group_generators,
    verify_schur_weyl,
)
from partalg.diagram import enumerate_diagrams, parse_diagram, partition_algebra_generators
from partalg.rep import PermWord, SparseMat, matrix, perm_matrix
from partalg.setpart import orbit_partition


def _dense_rank(rows: list[dict[int, Fraction]], width: int) -> int:
    # textbook Gauss over Fraction, independent of the integer elimination
    mat = [[Fraction(row.get(c, 0)) for c in range(width)] for row in rows]
    rank = 0
    for col in range(width):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / lead
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


class _StepwiseEchelon:
    """The elimination that `Echelon` replaced, unmetered: each row is copied
    at every reduction step and divided by its content after it."""

    def __init__(self):
        self.basis: dict[int, dict[int, int]] = {}
        self.updates = 0

    def add(self, row) -> bool:
        items = [(i, Fraction(v)) for i, v in row.items() if v]
        if not items:
            return False
        denom = 1
        for _, v in items:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        r = {i: v.numerator * (denom // v.denominator) for i, v in items}
        g = gcd(*r.values())
        g = -g if r[min(r)] < 0 else g
        r = {i: v // g for i, v in r.items()}
        self.updates += len(r)
        while r:
            c = min(r)
            b = self.basis.get(c)
            if b is None:
                self.basis[c] = r
                return True
            rc, bc = r[c], b[c]
            merged = {i: v * bc for i, v in r.items()}
            for i, v in b.items():
                merged[i] = merged.get(i, 0) - v * rc
            self.updates += len(b)
            merged = {i: v for i, v in merged.items() if v}
            g = gcd(*merged.values())
            r = {i: v // g for i, v in merged.items()} if g > 1 else merged
        return False


def test_rank_of_rows_matches_dense_gauss_on_random_input():
    rng = random.Random(19)
    for _ in range(25):
        width = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(0, 10)):
            row = {
                c: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for c in range(width)
                if rng.random() < 0.5
            }
            rows.append({c: v for c, v in row.items() if v})
        assert rank_of_rows(rows) == _dense_rank(rows, width)


def test_rank_of_rows_edge_cases():
    assert rank_of_rows([]) == 0
    assert rank_of_rows([{}, {}]) == 0
    r1 = {0: Fraction(1), 2: Fraction(3)}
    r2 = {1: Fraction(2)}
    combo = {0: Fraction(2), 1: Fraction(-2), 2: Fraction(6)}  # 2*r1 - r2
    assert rank_of_rows([r1, r2, combo]) == 2
    assert rank_of_rows([r1, {c: 7 * v for c, v in r1.items()}]) == 1


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=5)
NONZERO_RATIONALS = RATIONALS.filter(bool)
WIDTH = 8
INT_ROWS = st.lists(st.dictionaries(st.integers(0, WIDTH - 1), st.integers(-5, 5), max_size=6), max_size=10)
RATIONAL_ROWS = st.lists(st.dictionaries(st.integers(0, WIDTH - 1), RATIONALS, max_size=6), max_size=10)


@settings(max_examples=40, deadline=None)
@given(rows=INT_ROWS, data=st.data())
def test_rank_of_rows_ignores_row_order_and_nonzero_scaling(rows, data):
    order = data.draw(st.permutations(range(len(rows))))
    scales = data.draw(st.lists(NONZERO_RATIONALS, min_size=len(rows), max_size=len(rows)))
    moved = [{c: s * v for c, v in rows[i].items()} for i, s in zip(order, scales)]
    # and column labels: rank_of_rows renumbers the columns by their use, so new labels, spread apart,
    # change only its order
    relabel = data.draw(st.permutations(range(WIDTH)))
    relabelled = [{3 * relabel[c] + 1: v for c, v in row.items()} for row in rows]
    assert rank_of_rows(moved) == rank_of_rows(rows) == rank_of_rows(relabelled) == _dense_rank(rows, WIDTH)


@settings(max_examples=40, deadline=None)
@given(rows=RATIONAL_ROWS)
def test_rank_of_rows_agrees_on_int_and_fraction_entries(rows):
    # each row cleared of its denominators, as plain ints, as Fractions, and
    # with int and Fraction entries mixed within one row
    cleared = []
    for row in rows:
        lcm = 1
        for v in row.values():
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        cleared.append({c: int(v * lcm) for c, v in row.items()})
    as_fractions = [{c: Fraction(v) for c, v in row.items()} for row in cleared]
    mixed = [{c: Fraction(v) if (i + c) % 2 else v for c, v in row.items()} for i, row in enumerate(cleared)]
    rank = _dense_rank(rows, WIDTH)
    assert rank_of_rows(rows) == rank_of_rows(cleared) == rank
    assert rank_of_rows(as_fractions) == rank_of_rows(mixed) == rank


@settings(max_examples=60, deadline=None)
@given(row=st.dictionaries(st.integers(0, 9), st.one_of(st.integers(-6, 6), RATIONALS), max_size=6))
def test_integer_row_is_a_positive_int_multiple_and_primitive_fixes_content_and_sign(row):
    out = _integer_row(row)
    support = sorted(c for c, v in row.items() if v)
    assert sorted(out) == support and out is not row
    if support:
        assert all(type(v) is int for v in out.values())
        scale = Fraction(out[support[0]]) / row[support[0]]
        assert scale > 0 and all(out[c] == scale * row[c] for c in support)
        prim = _primitive(out)
        assert sorted(prim) == support and prim[support[0]] > 0 and gcd(*prim.values()) == 1
        assert all(prim[c] * out[support[0]] == out[c] * prim[support[0]] for c in support)


CELLS = st.one_of(st.integers(-12, 12), RATIONALS)
KERNEL_ROWS = st.lists(
    st.one_of(*(st.dictionaries(st.integers(0, WIDTH - 1), cells, max_size=WIDTH)
                for cells in (st.integers(-12, 12), RATIONALS, CELLS))),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(rows=KERNEL_ROWS)
def test_echelon_matches_the_stepwise_normalising_oracle(rows):
    # int, Fraction and mixed rows; the in-place reduction must leave the caller's rows alone
    before = [[(c, type(v), v) for c, v in row.items()] for row in rows]
    echelon, oracle = Echelon(), _StepwiseEchelon()
    for row in rows:
        assert echelon.add(row) == oracle.add(row)
        assert (echelon.rank, echelon.updates) == (len(oracle.basis), oracle.updates)
    assert [[(c, type(v), v) for c, v in row.items()] for row in rows] == before
    assert echelon.basis.keys() == oracle.basis.keys()
    for c, b in echelon.basis.items():
        assert min(b) == c and b[c] > 0 and gcd(*b.values()) == 1
        assert all(type(v) is int for v in b.values())
        assert b.keys() == oracle.basis[c].keys()


@settings(max_examples=100, deadline=None)
@example(row={0: 0, 2: -4, 5: 6, 7: 10})  # a zero entry, a negative lead and content 2
@example(row={1: 0, 3: 9, 4: -3})
@given(row=st.dictionaries(st.integers(0, 9), st.integers(-12, 12), max_size=8))
def test_integer_row_fast_path_matches_the_fraction_path(row):
    out = _integer_row(row)
    assert out == _integer_row({c: Fraction(v) for c, v in row.items()})
    assert all(type(v) is int for v in out.values()) and out is not row


def test_integer_row_reads_bools_through_the_fraction_path():
    # True is an int whose type is not int: it leaves as a plain 1, not as True
    for row in ({0: True}, {0: True, 3: -2}, {1: False, 2: True}):
        out = _integer_row(row)
        assert out == {c: int(v) for c, v in row.items() if v}
        assert all(type(v) is int for v in out.values())


def test_span_rank_of_diagram_matrices():
    for n, expected in ((2, 8), (3, 14), (4, 15)):
        mats = [matrix(d, n) for d in enumerate_diagrams(2)]
        # as many column classes as set partitions of the 4 vertices into at most n blocks
        assert _span_rank_and_classes(mats) == _two_pass_span_rank(mats) == (expected, expected)
    assert span_rank([]) == 0
    with pytest.raises(ValueError):
        span_rank([SparseMat.identity(2), SparseMat.identity(3)])
    with pytest.raises(BudgetExceededError):
        span_rank([SparseMat.identity(1024)] * 1025)  # 1025 * 1024 nonzeros
    # 2048^2 positions are refused before any label is allocated
    mats = [SparseMat.identity(2048)]
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="^span rank of 1 matrices labels 4194304 positions and reads 2048 nonzeros, over the limit 1048576$"):
        span_rank(mats)
    assert time.perf_counter() - start < 1


def test_diagrams_with_at_most_n_blocks_are_a_basis_of_the_span():
    # d is the sum of the orbit basis elements x_pi over its coarsenings pi,
    # and x_pi = 0 exactly when pi has more than n blocks
    for k in (1, 2, 3):
        diagrams = list(enumerate_diagrams(k))
        for n in range(1, 5):
            basis = [matrix(d, n) for d in diagrams if d.part.num_blocks <= n]
            rank = span_rank(basis)
            assert rank == len(basis) == centralizer_dimension(n, k), (n, k)
            assert rank == span_rank([matrix(d, n) for d in diagrams]), (n, k)


def test_verify_schur_weyl_spans_only_the_basis(monkeypatch):
    sizes = []

    def recording(mats):
        mats = list(mats)
        sizes.append(len(mats))
        return span_rank(mats)

    monkeypatch.setattr(centralizer, "span_rank", recording)
    rep = verify_schur_weyl(2, 3)
    assert sizes == [32]  # S(6, 1) + S(6, 2) of the 203 = Bell(6) diagrams
    assert rep.diagram_span_rank == rep.centralizer_dim == 32


def test_span_rank_mixes_integral_and_fraction_entries():
    half = Fraction(1, 2)
    a = SparseMat(2, [(0, 1, 3), (1, 0, half)])
    b = SparseMat(2, [(0, 1, 6), (1, 0, 1)])  # 2a
    c = SparseMat(2, [(0, 1, 3), (1, 0, 1)])  # same support as a, other values
    assert span_rank([a, b]) == 1
    assert span_rank([a, c]) == span_rank([a, b, c]) == 2
    assert span_rank([a, c, SparseMat(2, [(0, 1, half), (1, 0, half), (1, 1, 2)])]) == 3


ENTRIES = st.sampled_from([-2, -1, Fraction(1, 2), 1, 3])


@st.composite
def _matrix_families(draw):
    dim = draw(st.integers(1, 3))
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), ENTRIES)
    mats = [SparseMat(dim, draw(st.lists(cells, max_size=dim * dim))) for _ in range(draw(st.integers(1, 4)))]
    # a repeated matrix, and one on the same support with its values redrawn
    mats.append(draw(st.sampled_from(mats)))
    m = draw(st.sampled_from(mats))
    mats.append(SparseMat(dim, [(r, c, draw(ENTRIES)) for r, c, _ in m.triples]))
    # on another support, one entry object throughout, as in a diagram matrix, and
    # values interleaved in row-major order, equal values held by distinct Fraction objects
    m = draw(st.sampled_from(mats))
    one = Fraction(1)
    mats.append(SparseMat(dim, [(c, r, one) for r, c, _ in m.triples]))
    pool = st.sampled_from([one, Fraction(1), Fraction(1, 2), Fraction(2, 4), Fraction(-2)])
    mats.append(SparseMat(dim, [(r, c, draw(pool)) for r, c, _ in m.triples]))
    return draw(st.permutations(mats))


def _two_pass_span_rank(mats: list[SparseMat]) -> tuple[int, int]:
    # the rank and class count by a second method: positions labelled in a dict keyed by
    # (old class, numerator, denominator), then every triple read again for the rows
    dim = mats[0].dim
    label: dict[int, int] = {}
    count = 1
    for m in mats:
        fresh: dict[tuple, int] = {}
        for r, c, v in m.triples:
            p = r * dim + c
            label[p] = fresh.setdefault((label.get(p, 0), v.numerator, v.denominator), count + len(fresh))
        count += len(fresh)
    rows = [{label[r * dim + c]: v for r, c, v in m.triples} for m in mats]
    return rank_of_rows(rows), len(set(label.values()))


def _span_rank_and_classes(mats: list[SparseMat]) -> tuple[int, int]:
    # span_rank, and the class count its echelon names
    whats = []

    class Recording(Echelon):
        def __init__(self, what: str = "elimination"):
            whats.append(what)
            super().__init__(what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(centralizer, "Echelon", Recording)
        rank = span_rank(mats)
    (what,) = whats
    return rank, int(what.removesuffix(" column classes").rsplit(" ", 1)[1])


@settings(max_examples=120, deadline=None)
@given(mats=_matrix_families())
def test_span_rank_matches_dense_gauss_on_the_vectorized_matrices(mats):
    dim = mats[0].dim
    rows = [{r * dim + c: v for r, c, v in m.triples} for m in mats]
    rank, classes = _span_rank_and_classes(mats)
    assert rank == _dense_rank(rows, dim * dim)
    assert (rank, classes) == _two_pass_span_rank(mats)


def test_span_rank_stops_at_the_class_count(monkeypatch):
    adds = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda self, row: adds.append(row) or add(self, row))
    assert span_rank([SparseMat.identity(3)] * 40) == 1
    assert len(adds) == 1


def _commutator_rows(g: SparseMat):
    # the nonzero rows of XG - GX = 0 in all D*D unknowns, X[i, j] at i * dim + j
    dim = g.dim
    g_rows: list[list] = [[] for _ in range(dim)]
    g_cols: list[list] = [[] for _ in range(dim)]
    for r, c, v in g.triples:
        g_rows[r].append((c, v))
        g_cols[c].append((r, v))
    for i in range(dim):
        for l in range(dim):
            row = {i * dim + j: v for j, v in g_cols[l]}  # (XG)_{i,l}
            for j, v in g_rows[i]:  # (GX)_{i,l}
                key = j * dim + l
                row[key] = row.get(key, 0) - v
            row = {c: v for c, v in row.items() if v}
            if row:
                yield row


def _commutant_oracle(gens: list[SparseMat]) -> int:
    # elimination in position coordinates; diagonal generators first only
    # because their single-entry rows keep this oracle fast
    gens = sorted(gens, key=lambda g: not all(r == c for r, c, _ in g.triples))
    return gens[0].dim ** 2 - rank_of_rows(row for g in gens for row in _commutator_rows(g))


def test_commutant_of_identity_is_everything():
    for dim in (1, 2, 3, 5):
        assert commutant_dimension([SparseMat.identity(dim)]) == dim * dim
    with pytest.raises(ValueError):
        commutant_dimension([])
    with pytest.raises(ValueError):
        commutant_dimension([SparseMat.identity(2), SparseMat.identity(3)])
    with pytest.raises(BudgetExceededError):
        commutant_dimension([SparseMat.identity(1025)])  # 1025^2 positions to label


def test_commutant_by_orbits_matches_position_elimination():
    sizes = [(n, k) for n in range(1, 6) for k in (1, 2)] + [(n, 3) for n in range(1, 5)]
    for n, k in sizes:
        for gens in (
            [perm_matrix(s, k) for s in symmetric_group_generators(n)],
            [matrix(d, n) for d in partition_algebra_generators(k)],
        ):
            assert commutant_dimension(gens) == _commutant_oracle(gens), (n, k)


def _random_generator(data, dim: int) -> SparseMat:
    kind = data.draw(st.sampled_from(("permutation", "diagonal", "other")))
    if kind == "permutation":
        image = data.draw(st.permutations(range(dim)))
        return SparseMat(dim, [(r, c, 1) for r, c in enumerate(image)])
    if kind == "diagonal":
        values = data.draw(st.lists(RATIONALS, min_size=dim, max_size=dim))
        return SparseMat(dim, [(i, i, v) for i, v in enumerate(values)])
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), st.one_of(st.integers(-3, 3), RATIONALS))
    return SparseMat(dim, data.draw(st.lists(cells, max_size=2 * dim)))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 6), count=st.integers(1, 4), data=st.data())
def test_commutant_of_random_generator_mixes_matches_position_elimination(dim, count, data):
    gens = [_random_generator(data, dim) for _ in range(count)]
    assert commutant_dimension(gens) == _commutant_oracle(gens)


def test_a_matrix_with_one_1_per_column_only_is_not_a_permutation():
    # at n = 2 the matrix of {1,2,1'},{2'} has one 1 in every column and two
    # in rows (1,1) and (2,2): it is not a permutation matrix
    m = matrix(parse_diagram("1,2,1'|2'"), 2)
    assert m.nnz == m.dim and len({c for _, c, _ in m.triples}) == m.dim
    assert _permutation(m) is None
    swap = perm_matrix(PermWord((2, 1)), 2)
    assert _permutation(swap) == [3, 2, 1, 0]
    for gens in ([m], [m, swap], [swap, m, matrix(parse_diagram("1,2|1',2'"), 2)]):
        assert commutant_dimension(gens) == _commutant_oracle(gens)


def test_commutant_of_identity_plus_all_ones():
    # matrices commuting with the all-ones matrix form a space of dim (n-1)^2 + 1
    for n in (2, 3, 4):
        mats = [matrix(d, n) for d in enumerate_diagrams(1)]
        assert commutant_dimension(mats) == (n - 1) ** 2 + 1


def test_commutant_generators_suffice():
    n, k = 3, 2
    gen_mats = [perm_matrix(s, k) for s in symmetric_group_generators(n)]
    all_mats = [
        perm_matrix(PermWord(images), k) for images in permutations(range(1, n + 1))
    ]
    assert commutant_dimension(gen_mats) == commutant_dimension(all_mats) == 14


def test_diagram_generators_have_the_full_basis_commutant():
    # the full basis is only an oracle here; verify_schur_weyl uses generators
    cases = [(n, 1) for n in (1, 2, 3, 4)] + [(2, 2), (3, 2), (4, 2), (1, 3), (2, 3)]
    for n, k in cases:
        basis = [matrix(d, n) for d in enumerate_diagrams(k)]
        gens = [matrix(d, n) for d in partition_algebra_generators(k)]
        assert commutant_dimension(gens) == commutant_dimension(basis), (n, k)


def test_symmetric_group_generators_cover_edge_sizes():
    assert symmetric_group_generators(1) == [PermWord.identity(1)]
    assert symmetric_group_generators(2) == [PermWord((2, 1))]
    gens3 = symmetric_group_generators(3)
    assert gens3 == [PermWord((2, 1, 3)), PermWord((2, 3, 1))]


def test_centralizer_dimension_table():
    assert centralizer_dimension(2, 2) == 8
    assert centralizer_dimension(3, 2) == 14
    assert centralizer_dimension(4, 2) == 15
    assert centralizer_dimension(5, 2) == 15
    assert centralizer_dimension(2, 1) == 2
    assert centralizer_dimension(1, 3) == 1
    with pytest.raises(ValueError):
        centralizer_dimension(0, 2)


def test_centralizer_dimension_counts_diagonal_orbits():
    # the dimension equals the number of distinct coincidence patterns
    # among tuples in [n]^{2k}
    cases = [(n, k) for n in (1, 2, 3, 4, 5, 6) for k in (1, 2)] + [(3, 3), (6, 3)]
    for n, k in cases:
        patterns = {orbit_partition(t) for t in product(range(1, n + 1), repeat=2 * k)}
        assert centralizer_dimension(n, k) == len(patterns)


def test_perm_span_dimensions():
    assert perm_span_dim(2, 1) == 2
    assert perm_span_dim(3, 1) == 5
    assert perm_span_dim(4, 1) == 10
    assert perm_span_dim(2, 2) == 2
    assert perm_span_dim(3, 2) == 6
    assert perm_span_dim(4, 2) == 23
    assert perm_span_dim(6, 1) == 26
    assert perm_span_dim(2, 3) == 2
    # refused before anything is labelled: by `matrix` on the n^3 nonzeros of p_1,
    # or by the commutant on its n^4 positions (33^3 nonzeros pass, 33^4 positions do not)
    for n, refusal in (
        (1100, "matrix at n = 1100 of a 3-block diagram has 1100^3 nonzeros"),
        (1000, "matrix at n = 1000 of a 3-block diagram has 1000^3 nonzeros"),
        (33, "commutant at dimension 1089 labels 1185921 positions and reads 78270786 terms"),
    ):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as exc:
            perm_span_dim(n, 2)
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == f"{refusal}, over the limit {2**20}"
    with pytest.raises(ValueError):
        perm_span_dim(0, 1)


def test_perm_span_closure_matches_the_factorial_oracle():
    # the rank of all n! permutation matrices, the loop the closure replaces
    for n in range(1, 6):
        for k in range(1, 4):
            rows = (
                {r * n**k + c: 1 for r, c, _ in perm_matrix(PermWord(images), k).triples}
                for images in permutations(range(1, n + 1))
            )
            assert perm_span_dim(n, k) == rank_of_rows(rows) == perm_span_expected(n, k), (n, k)
    for n in (6, 7):  # 720 and 5040 matrices: the closed form alone
        assert perm_span_dim(n, 2) == perm_span_expected(n, 2), n


def _bit_rank(rows: list[dict[int, int]]) -> int:
    echelon = _BitEchelon("test rows mod 2")
    for row in rows:
        echelon.add(sum(1 << c for c, v in row.items() if v % 2))
    return echelon.rank


def test_rank_mod_2_can_fall_below_the_rank_over_q():
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]  # 110, 011, 101: the third is the sum mod 2
    assert _bit_rank(rows) == 2
    assert rank_of_rows(rows) == _dense_rank(rows, 3) == 3


@settings(max_examples=60, deadline=None)
@given(rows=INT_ROWS)
def test_rank_mod_2_is_at_most_the_rank_over_q(rows):
    assert _bit_rank(rows) <= rank_of_rows(rows) == _dense_rank(rows, WIDTH)


def test_the_permutation_span_is_certified_without_elimination_over_z(monkeypatch):
    class Refused(Echelon):
        def __init__(self, what="elimination"):
            raise AssertionError(f"integer elimination reached: {what}")

    monkeypatch.setattr(centralizer, "Echelon", Refused)
    for n in range(1, 11):
        assert perm_span_dim(n, 2) == perm_span_expected(n, 2), n
    for n in range(1, 7):
        assert perm_span_dim(n, 3) == perm_span_expected(n, 3), n
    # k >= n - 1: the lower bound reaches n!, and no commutator row is read
    system = centralizer._commutant_system

    def unread(generators, *row):
        dim, live, label, _ = system(generators, *row)

        def rows():
            raise AssertionError("a commutator row was read")
            yield

        return dim, live, label, rows()

    monkeypatch.setattr(centralizer, "_commutant_system", unread)
    for n in range(1, 6):
        for k in range(max(n - 1, 1), 5):
            assert perm_span_dim(n, k) == perm_span_expected(n, k) == factorial(n), (n, k)


def test_an_upper_bound_that_misses_runs_the_integer_closure(monkeypatch):
    system = centralizer._commutant_system
    made = []

    def one_more_orbit(generators, *row):  # the upper bound, live orbits minus a rank mod 2, grows by one
        dim, live, label, rows = system(generators, *row)
        return dim, live + 1, label, rows

    class Recorded(Echelon):
        def __init__(self, what="elimination"):
            super().__init__(what)
            made.append(what)

    monkeypatch.setattr(centralizer, "_commutant_system", one_more_orbit)
    monkeypatch.setattr(centralizer, "Echelon", Recorded)
    for n, k in ((3, 1), (5, 1), (4, 2), (5, 2), (7, 2), (5, 3)):
        made.clear()
        assert perm_span_dim(n, k) == perm_span_expected(n, k), (n, k)
        assert made == [f"permutation span at (n, k) = ({n}, {k})"], (n, k)


def test_the_raw_rows_bound_the_permutation_span_as_the_primitive_rows_do():
    # U = live orbits minus the rank mod 2 of the commutator rows as formed, which perm_span_dim reads,
    # equals U from the rows made primitive, and the closed form
    sizes = [(n, 2) for n in range(1, 10)] + [(n, 3) for n in range(1, 6)] + [(n, 4) for n in range(1, 5)] + [(2, 5), (3, 5)]
    for n, k in sizes:
        _, live, _, rows = centralizer._commutant_system([matrix(d, n) for d in partition_algebra_generators(k)])
        raw = list(rows)
        cleared = [row for row in map(_integer_row, raw) if row]
        primitive = list(map(_primitive, cleared))
        assert live - _bit_rank(raw) == live - _bit_rank(primitive) == perm_span_expected(n, k), (n, k)
        assert n < 2 or primitive != cleared, (n, k)  # the rows as formed are not all primitive already


def _formed_rows_oracle(g: SparseMat, label: list[int]):
    # each commutator row as one dict, summed term by term at label[r * dim + c], over the same
    # classes of equal rows and columns of G
    dim = g.dim
    g_rows: list[list] = [[] for _ in range(dim)]
    g_cols: list[list] = [[] for _ in range(dim)]
    for r, c, v in g.triples:
        v = v.numerator if v.denominator == 1 else v
        g_rows[r].append((c, v))
        g_cols[c].append((r, v))
    col_class: dict[tuple, int] = {}
    col_rep = [col_class.setdefault(tuple(col), l) for l, col in enumerate(g_cols)]
    row_reps = {tuple(row): i for i, row in enumerate(g_rows)}.values()
    halves = [([(i * dim + j, v) for j, v in g_cols[l]], [(j * dim + l, v) for j, v in g_rows[i]])
              for i in range(dim) for l in col_class.values()]
    halves += [([(j * dim + col_rep[l], v) for j, v in g_rows[i]], [(j * dim + l, v) for j, v in g_rows[i]])
               for i in row_reps for l in range(dim) if col_rep[l] != l]
    for plus, minus in halves:
        row: dict = {}
        for p, v in plus + [(p, -v) for p, v in minus]:
            if label[p] >= 0:
                row[label[p]] = row.get(label[p], 0) + v
        yield row


def _fixture_verify_sizes() -> set[tuple[int, int]]:
    cases = json.loads((Path(__file__).parent / "cli_fixture.json").read_text())
    return {(int(c["argv"][3]), int(c["argv"][5])) for c in cases
            if c["argv"][:3] == ["verify", "schur-weyl", "--n"] and c["argv"][4:5] == ["--k"] and c["exit"] == 0}


def test_the_bitset_rows_are_the_formed_rows_mod_2():
    # one walk, two accumulators: the rows over Z and the bitsets mod 2, against the dicts formed term by term
    # and each reduced mod 2 as sum(1 << o for odd entries), on every verify size that passes in the CLI
    # fixture and on n <= 6, k <= 3
    sizes = _fixture_verify_sizes()
    assert {(10, 1), (8, 2), (5, 3), (3, 4), (2, 5)} <= sizes
    for n, k in sorted(sizes | set(product(range(1, 7), range(1, 4)))):
        mats = [matrix(d, n) for d in partition_algebra_generators(k)]
        dim, _, label, bits = centralizer._commutant_system(mats, centralizer._bit_row)
        _, _, _, rows = centralizer._commutant_system(mats)
        others = [g for g in mats if _permutation(g) is None and any(r != c for r, c, _ in g.triples)]
        formed = [row for g in others for row in _formed_rows_oracle(g, label)]
        assert sorted(bits) == sorted(sum(1 << o for o, v in row.items() if v % 2) for row in formed), (n, k)
        assert sorted(sorted(row.items()) for row in rows) == sorted(sorted(row.items()) for row in formed), (n, k)
    # even and odd integer entries, which the diagram matrices never have, beside a permutation that gives orbits
    rng = random.Random(36)
    for dim in (3, 4, 5, 6):
        cycle = SparseMat(dim, [(r, (r + 1) % dim, 1) for r in range(dim)])
        for _ in range(5):
            g = SparseMat(dim, [(rng.randrange(dim), rng.randrange(dim), rng.randint(-3, 3)) for _ in range(2 * dim)])
            if _permutation(g) is not None or all(r == c for r, c, _ in g.triples):
                continue
            _, _, label, bits = centralizer._commutant_system([cycle, g], centralizer._bit_row)
            formed = list(_formed_rows_oracle(g, label))
            assert sorted(bits) == sorted(sum(1 << o for o, v in row.items() if v % 2) for row in formed), (dim, g)


def test_the_diagram_commutant_eliminates_its_rarest_unknowns_first(monkeypatch):
    made = []

    class Recorded(Echelon):
        def __init__(self, what="elimination"):
            super().__init__(what)
            made.append(self)

    monkeypatch.setattr(centralizer, "Echelon", Recorded)
    # the Markowitz order of rank_of_rows, each row primitive with a positive leading entry in that order:
    # fed in descending order of the orbit labels instead, these rows took 18,237, 394,726 and 194,564
    # updates, and 8,341, 108,250 and 70,973 with the sign fixed at the least orbit label
    for n, k, dim, rows, live, rank, updates in (
        (5, 2, 25, 200, 225, 147, 7985),
        (8, 2, 64, 896, 1632, 741, 100202),
        (5, 3, 125, 1600, 1025, 906, 67703),
    ):
        made.clear()
        assert commutant_dimension([matrix(d, n) for d in partition_algebra_generators(k)]) == live - rank, (n, k)
        (echelon,) = made
        assert echelon.what == f"commutant at dimension {dim} eliminating {rows} rows in {live} orbit unknowns"
        assert (echelon.rank, echelon.updates) == (rank, updates), (n, k)


def test_a_diagram_that_fails_to_commute_is_refused(monkeypatch):
    # p_1 replaced by the unit matrix E_(0, 1), which s_1 moves to E_(n + 1, n)
    p1 = partition_algebra_generators(2)[0]
    monkeypatch.setattr(centralizer, "matrix", lambda d, n: SparseMat(n * n, [(0, 1, 1)]) if d == p1 else matrix(d, n))
    # checked before any product is keyed, also where L = n! needs no upper bound
    for n in (3, 5):
        with pytest.raises(RuntimeError, match=rf"^permutation span at \(n, k\) = \({n}, 2\): a generator of S_{n} does not commute with the diagram "):
            perm_span_dim(n, 2)


def test_every_closure_product_is_constant_on_the_place_orbits():
    # The closure multiplies permutation matrices, so each product is some
    # P_sigma^(tensor k); its support must be a union of the orbits of the
    # positions (a, b) under all k! simultaneous place permutations.
    for n in range(1, 5):
        for k in range(1, 4):
            tuples = list(product(range(n), repeat=k))
            index = {t: i for i, t in enumerate(tuples)}
            places = list(permutations(range(k)))
            for images in permutations(range(1, n + 1)):
                support = {(r, c) for r, c, _ in perm_matrix(PermWord(images), k).triples}
                for r, c in support:
                    a, b = tuples[r], tuples[c]
                    for s in places:
                        moved = (index[tuple(a[p] for p in s)], index[tuple(b[p] for p in s)])
                        assert moved in support, (n, k, images, a, b, s)


def test_every_permutation_matrix_is_zero_on_the_dead_orbits():
    # the permutation span is keyed by the diagram commutant's live orbit labels
    for n in range(1, 6):
        for k in range(1, 4):
            dim, _, label, _ = centralizer._commutant_system([matrix(d, n) for d in partition_algebra_generators(k)])
            for images in permutations(range(1, n + 1)):
                assert all(label[r * dim + c] >= 0 for r, c, _ in perm_matrix(PermWord(images), k).triples), (n, k, images)


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 6), data=st.data())
def test_one_dead_position_kills_its_whole_orbit(dim, data):
    # commutant_dimension takes any diagonal, constant on the orbits or not
    perms = data.draw(st.lists(st.permutations(range(dim)), max_size=2))
    values = st.lists(st.sampled_from([0, 1, 2, Fraction(1, 2)]), min_size=dim, max_size=dim)
    diagonals = data.draw(st.lists(values, min_size=1, max_size=2))
    gens = [SparseMat(dim, [(r, c, 1) for r, c in enumerate(s)]) for s in perms]
    gens += [SparseMat(dim, [(a, a, v) for a, v in enumerate(diag)]) for diag in diagonals]
    _, live, label, _ = centralizer._commutant_system(gens)
    orbit, count = centralizer._position_orbits(dim, perms)
    dead = {orbit[a * dim + b] for diag in diagonals for a in range(dim) for b in range(dim) if diag[a] != diag[b]}
    assert label == [-1 if o in dead else o for o in orbit]
    assert live == count - len(dead)


def test_the_place_orbits_are_labelled_once_per_commutant(monkeypatch):
    calls = []
    orbits = centralizer._position_orbits

    def counted(dim, perms):
        calls.append(dim)
        return orbits(dim, perms)

    monkeypatch.setattr(centralizer, "_position_orbits", counted)
    for n, k in ((3, 1), (4, 2), (5, 2), (3, 2), (2, 3)):  # L < n! first, then L = n!
        calls.clear()
        perm_span_dim(n, k)
        assert len(calls) == 1, (n, k)
        calls.clear()
        verify_schur_weyl(n, k)  # the permutation span and the two commutants
        assert len(calls) == 3, (n, k)


def test_the_span_at_n_factorial_reads_no_commutator_terms(monkeypatch):
    # (3, 2): 9^2 = 81 positions, and p_1's 27 nonzeros make 2 * 9 * 27 = 486 terms
    diagrams = [matrix(d, 3) for d in partition_algebra_generators(2)]
    monkeypatch.setattr(rep_module, "MATRIX_NNZ_LIMIT", 81)
    assert perm_span_dim(3, 2) == factorial(3)
    with pytest.raises(BudgetExceededError) as exc:
        commutant_dimension(diagrams)
    assert str(exc.value) == "commutant at dimension 9 labels 81 positions and reads 486 terms, over the limit 81"
    # the positions alone are checked before labelling, with the same message
    monkeypatch.setattr(rep_module, "MATRIX_NNZ_LIMIT", 80)
    with pytest.raises(BudgetExceededError) as exc:
        perm_span_dim(3, 2)
    assert str(exc.value) == "commutant at dimension 9 labels 81 positions and reads 486 terms, over the limit 80"


def test_budgets_are_checked_against_the_work_estimates(monkeypatch):
    monkeypatch.setattr(rep_module, "MATRIX_NNZ_LIMIT", 16)
    assert span_rank([SparseMat.identity(2)] * 6) == 1  # 2^2 labels and 6 * 2 nonzeros
    with pytest.raises(BudgetExceededError, match="^span rank of 7 matrices labels 4 positions and reads 14 nonzeros, over the limit 16$"):
        span_rank([SparseMat.identity(2)] * 7)
    with pytest.raises(BudgetExceededError, match="^span rank of 4 matrices labels 16 positions and reads 16 nonzeros, over the limit 16$"):
        span_rank([SparseMat.identity(4)] * 4)
    assert commutant_dimension([SparseMat.identity(4)] * 4) == 16  # 4^2 positions, no rows
    with pytest.raises(BudgetExceededError, match="^commutant at dimension 5 labels 25 positions and reads 0 terms"):
        commutant_dimension([SparseMat.identity(5)])
    assert commutant_dimension([SparseMat(2, [(0, 1, 1)])]) == 2  # 2^2 positions and 2 * 2 * 1 terms
    with pytest.raises(BudgetExceededError, match="^commutant at dimension 2 labels 4 positions and reads 16 terms"):
        commutant_dimension([SparseMat(2, [(0, 0, 1), (0, 1, 1)])] * 2)
    assert perm_span_dim(2, 2) == 2  # 2^3 nonzeros of p_1 and 2^4 positions; L = 2! reads no row
    with pytest.raises(BudgetExceededError, match="^matrix at n = 5 of a 2-block diagram has 5\\^2 nonzeros, over the limit 16$"):
        perm_span_dim(5, 1)  # p_1 is the all-ones 5 x 5 matrix
    with pytest.raises(BudgetExceededError, match="^matrix at n = 5 of a 3-block diagram has 5\\^3 nonzeros, over the limit 16$"):
        perm_span_dim(5, 2)
    # the nilpotent 4 x 4 Jordan block: 16 positions and 2 * 4 * 3 terms, then
    # its 14 distinct rows take 31 updates, under the meter's 16 * 40
    jordan = SparseMat(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    monkeypatch.setattr(rep_module, "MATRIX_NNZ_LIMIT", 40)
    assert commutant_dimension([jordan]) == 4
    monkeypatch.setattr(rep_module, "MATRIX_NNZ_LIMIT", 39)
    with pytest.raises(BudgetExceededError, match="^commutant at dimension 4 labels 16 positions and reads 24 terms, over the limit 39$"):
        commutant_dimension([jordan])


def test_the_echelon_stops_past_sixteen_times_the_limit(monkeypatch):
    monkeypatch.setattr(rep_module, "MATRIX_NNZ_LIMIT", 1)
    echelon = Echelon("three test rows")
    assert echelon.add({i: 1 for i in range(8)}) and echelon.add({i: 1 for i in range(1, 9)})
    assert echelon.updates == 16  # two rows read, no reduction: at the limit, not past it
    with pytest.raises(BudgetExceededError) as exc:
        echelon.add({0: 1, 8: 1})  # 2 entries read take the count past 16
    assert str(exc.value) == "three test rows stopped after 18 updates at rank 2, over the limit 16"
    assert echelon.rank == 2
    with pytest.raises(BudgetExceededError, match="^the same rows stopped after 18 updates at rank 2, over the limit 16$"):
        rank_of_rows([{i: 1 for i in range(8)}, {i: 1 for i in range(1, 9)}, {0: 1, 8: 1}], "the same rows")
    # the bit echelon counts 64-bit words: bit 1000 makes a row of 16 words
    bits = _BitEchelon("two test bitsets")
    assert bits.add(1 << 1000 | 1) and bits.updates == 16  # one row read: at the limit, not past it
    with pytest.raises(BudgetExceededError) as exc:
        bits.add(1 << 1000)  # 16 words read take the count past 16
    assert str(exc.value) == "two test bitsets stopped after 32 words at rank 1, over the limit 16"
    assert bits.rank == 1
    # 7^3 nonzeros of p_1 and 7^4 positions pass their checks, and the closure mod 2 is metered at 16 * 2401
    monkeypatch.setattr(rep_module, "MATRIX_NNZ_LIMIT", 2401)
    with pytest.raises(BudgetExceededError) as exc:
        perm_span_dim(7, 2)
    assert str(exc.value) == "permutation span at (n, k) = (7, 2) mod 2 stopped after 38422 words at rank 279, over the limit 38416"
    # the limit is read when an echelon is made: at the default limit the same size finishes
    monkeypatch.setattr(rep_module, "MATRIX_NNZ_LIMIT", 2**20)
    assert perm_span_dim(7, 2) == 458


def test_the_p1_rows_fed_span_the_whole_commutator_system(monkeypatch):
    fed = []

    def recording(rows, what):
        fed.append(list(rows))
        return rank_of_rows(fed[-1], what)

    monkeypatch.setattr(centralizer, "rank_of_rows", recording)
    for n, k in ((1, 1), (3, 1), (2, 2), (4, 2), (5, 2), (3, 3), (4, 3)):
        fed.clear()
        assert commutant_dimension([perm_matrix(s, k) for s in symmetric_group_generators(n)]) == centralizer_dimension(n, k)
        assert fed == [[]], (n, k)
        if k > 1:  # s_1, the cycle and b_1 without p_1: orbits, no rows
            fed.clear()
            commutant_dimension([matrix(d, n) for d in partition_algebra_generators(k)[1:]])
            assert fed == [[]], (n, k)
        fed.clear()
        verify_schur_weyl(n, k)
        # fed: the diagram commutant, then the commutant of the permutations;
        # the diagram span eliminates in its own Echelon
        assert len(fed) == 2 and fed[1] == [], (n, k)
        # the rows fed span the whole system: equal ranks, and so does their union
        system, bound = _p1_commutator_system(n, k)
        assert len(fed[0]) <= bound, (n, k)
        assert rank_of_rows(fed[0]) == rank_of_rows(system) == rank_of_rows(fed[0] + system), (n, k)
        width = 1 + max((x for row in fed[0] + system for x in row), default=-1)
        if width <= 200:  # the dense oracle where it is quick: up to (4, 2) and (3, 3)
            rank = _dense_rank(fed[0], width)
            assert rank == _dense_rank(system, width) == _dense_rank(fed[0] + system, width), (n, k)


def _p1_commutator_system(n: int, k: int) -> tuple[list[dict[int, Fraction]], int]:
    # All D^2 rows of XG - GX for G = p_1, distinct up to a nonzero scalar, over
    # unknowns keyed by the least image of the position (a, b) under the place
    # permutations and numbered in the order of their first position, with the
    # positions whose tuples differ in their pattern of equal entries set to 0
    # (b_1).  Also the bound D * |column classes| + |row classes| * (D - |column
    # classes|) on the rows formed from the classes of equal columns and rows.
    tuples = list(product(range(n), repeat=k))
    places = list(permutations(range(k)))
    number = {}
    for a in tuples:
        for b in tuples:
            number.setdefault(min(tuple(a[p] for p in s) + tuple(b[p] for p in s) for s in places), len(number))

    def unknown(a, b):
        if any((a[i] == a[j]) != (b[i] == b[j]) for i in range(k) for j in range(k)):
            return None
        return number[min(tuple(a[p] for p in s) + tuple(b[p] for p in s) for s in places)]

    key = {(a, b): unknown(a, b) for a in tuples for b in tuples}
    p1 = matrix(partition_algebra_generators(k)[0], n)
    g_rows = {a: [] for a in tuples}
    g_cols = {a: [] for a in tuples}
    for r, c, v in p1.triples:
        g_rows[tuples[r]].append((tuples[c], v))
        g_cols[tuples[c]].append((tuples[r], v))
    rows = set()
    for i in tuples:
        for l in tuples:
            row = {}
            terms = [(key[i, j], v) for j, v in g_cols[l]] + [(key[j, l], -v) for j, v in g_rows[i]]
            for x, v in terms:
                if x is not None:
                    row[x] = row.get(x, 0) + v
            row = {x: v for x, v in row.items() if v}
            if row:
                lead = row[min(row)]
                rows.add(frozenset((x, v / lead) for x, v in row.items()))
    column_classes = len({frozenset(col) for col in g_cols.values()})
    row_classes = len({frozenset(row) for row in g_rows.values()})
    dim = len(tuples)
    return [dict(row) for row in rows], dim * column_classes + row_classes * (dim - column_classes)


def test_echelon_add_reports_independence_and_counts_updates():
    echelon = Echelon()
    assert echelon.add({0: 1, 2: 3}) and echelon.updates == 2  # 2 entries read
    assert echelon.add({0: 2, 1: 1}) and echelon.updates == 6  # 2 read, one step against a 2-entry row
    assert not echelon.add({0: 1, 2: 3})
    assert not echelon.add({})
    assert echelon.rank == 2 and echelon.updates == 10
    assert echelon.basis == {0: {0: 1, 2: 3}, 1: {1: 1, 2: -6}}


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 10), data=st.data())
def test_an_echelon_basis_holds_at_most_its_capacity(width, data):
    # r distinct pivots, each row starting at its pivot: at most r * u - r * (r - 1) / 2
    # entries over u unknowns, and r <= min(rows, u) only raises that bound; a
    # reduction only merges supports, so the entries are also at most the updates
    cells = st.one_of(st.integers(-5, 5), RATIONALS)
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, width - 1), cells), max_size=12))
    echelon = Echelon()
    for row in rows:
        echelon.add(row)

    def capacity(r):
        return r * width - r * (r - 1) // 2

    entries = sum(len(b) for b in echelon.basis.values())
    assert entries <= capacity(echelon.rank) <= capacity(min(len(rows), width))
    assert entries <= echelon.updates


def test_perm_span_matches_dense_oracle_at_3_1():
    rows = []
    for images in permutations((1, 2, 3)):
        m = perm_matrix(PermWord(images), 1)
        rows.append({r * 3 + c: v for r, c, v in m.triples})
    assert _dense_rank(rows, 9) == perm_span_dim(3, 1) == 5


def test_verify_schur_weyl_small_sizes():
    rep = verify_schur_weyl(2, 2)
    assert (rep.centralizer_dim, rep.diagram_span_rank, rep.commutant_of_perms_dim) == (8, 8, 8)
    assert (rep.perm_span_dim, rep.commutant_of_diagrams_dim) == (2, 2)
    assert rep.surjectivity_verdict and rep.double_commutant_verdict

    rep = verify_schur_weyl(3, 1)
    assert rep.centralizer_dim == rep.diagram_span_rank == 2
    assert rep.perm_span_dim == rep.commutant_of_diagrams_dim == 5
    assert rep.surjectivity_verdict and rep.double_commutant_verdict

    rep = verify_schur_weyl(4, 2)
    assert rep.centralizer_dim == rep.diagram_span_rank == rep.commutant_of_perms_dim == 15
    assert rep.perm_span_dim == rep.commutant_of_diagrams_dim == 23
    assert rep.surjectivity_verdict and rep.double_commutant_verdict


def _integer_partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _integer_partitions(n - first, first):
            yield (first,) + rest


def _corner_removed(shape: tuple[int, ...]):
    # each shape with one corner box of `shape` removed
    for i, row in enumerate(shape):
        if i + 1 == len(shape) or shape[i + 1] < row:
            yield shape[:i] + (row - 1,) * (row > 1) + shape[i + 1:]


@cache
def _lattice_paths(shape: tuple[int, ...]) -> int:
    # f^shape by the branching rule: the paths up Young's lattice from the empty shape, no hook formula
    return 1 if sum(shape) <= 1 else sum(_lattice_paths(s) for s in _corner_removed(shape))


def _occurring_shapes(n: int, k: int) -> set[tuple[int, ...]]:
    # the lambda |- n that occur in V^(x)k are those with n - lambda_1 <= k
    return {shape for shape in _integer_partitions(n) if n - shape[0] <= k}


def _perm_span_by_branching(n: int, k: int) -> int:
    # dimension of the image of C[S_n] in End(V^(x)k): sum of (f^lambda)^2 over the lambda that occur,
    # each f^lambda counted up Young's lattice, so it shares no code with the walk or the hook formula
    return sum(_lattice_paths(shape) ** 2 for shape in _occurring_shapes(n, k))


def test_perm_span_and_diagram_commutant_match_the_closed_form():
    expected = {1: [1, 2, 5, 10, 17], 2: [1, 2, 6, 23, 78]}
    for k, dims in expected.items():
        assert [_perm_span_by_branching(n, k) for n in range(1, 6)] == dims
    for k in (1, 2):
        for n in range(1, 6):
            rep = verify_schur_weyl(n, k)
            closed = _perm_span_by_branching(n, k)
            assert rep.perm_span_dim == rep.commutant_of_diagrams_dim == closed, (n, k)
            assert rep.perm_span_expected == closed and rep.double_commutant_verdict
    for n in range(1, 9):
        for k in range(1, 5):
            assert perm_span_expected(n, k) == _perm_span_by_branching(n, k), (n, k)
    with pytest.raises(ValueError):
        perm_span_expected(0, 1)


def test_the_young_lattice_walk_checks_every_closed_form():
    # each closed form a verdict compares with, against the walk `perm_span_expected` sums over
    assert centralizer._isotypic(3, 1) == {(3,): 1, (2, 1): 1}  # V = S^(3) + S^(2,1)
    assert centralizer._isotypic(2, 2) == {(2,): 2, (1, 1): 2}
    assert [_lattice_paths(shape) for shape in ((3,), (2, 1), (1, 1, 1), (3, 2))] == [1, 2, 1, 5]
    for n in range(1, 16):
        for k in range(1, 9):
            mult = centralizer._isotypic(n, k)
            assert set(mult) == _occurring_shapes(n, k), (n, k)
            assert sum(m * m for m in mult.values()) == centralizer_dimension(n, k), (n, k)
            assert sum(m * _lattice_paths(shape) for shape, m in mult.items()) == n**k, (n, k)
            assert sum(_lattice_paths(shape) ** 2 for shape in mult) == perm_span_expected(n, k), (n, k)


def test_every_irreducible_occurs_from_k_equal_n_minus_one():
    # sum_(lambda |- n) (f^lambda)^2 = n!: from k = n - 1 on the image of C[S_n] is all of it, below that it is smaller
    for k in range(1, 6):
        assert centralizer._isotypic(1, k) == {(1,): 1}
    for n in range(1, 11):
        for k in range(1, n + 3):
            if k >= n - 1:
                assert perm_span_expected(n, k) == factorial(n), (n, k)
            else:
                assert perm_span_expected(n, k) < factorial(n), (n, k)


def test_double_commutant_verdict_needs_the_closed_form():
    rep = verify_schur_weyl(3, 2)
    assert rep.double_commutant_verdict
    wrong = VerificationReport(
        rep.n, rep.k, rep.centralizer_dim, rep.diagram_span_rank, rep.commutant_of_perms_dim, rep.perm_span_dim,
        rep.commutant_of_diagrams_dim, rep.perm_span_expected + 1,
    )
    assert not wrong.double_commutant_verdict


@pytest.mark.parametrize(
    "n, k, centralizer_dim, perm_span", [(3, 3, 122, 6), (6, 2, 15, 207), (4, 4, 2795, 24), (2, 5, 512, 2)]
)
def test_verify_schur_weyl_past_5_2(n, k, centralizer_dim, perm_span):
    rep = verify_schur_weyl(n, k)
    assert rep.centralizer_dim == rep.diagram_span_rank == rep.commutant_of_perms_dim == centralizer_dim
    assert rep.perm_span_dim == rep.commutant_of_diagrams_dim == rep.perm_span_expected == perm_span
    assert rep.surjectivity_verdict and rep.double_commutant_verdict


def test_verify_schur_weyl_below_stable_range_still_consistent():
    # n < 2k: the 15 diagram matrices are dependent (see
    # test_span_rank_of_diagram_matrices); the rank 8 comes from the 8
    # diagrams with at most 2 blocks, and the centralizer equalities hold
    rep = verify_schur_weyl(2, 2)
    assert rep.diagram_span_rank < 15
    assert rep.surjectivity_verdict


def test_report_json_document():
    doc = verify_schur_weyl(2, 1).to_json()
    assert doc == {
        "n": 2,
        "k": 1,
        "centralizer_dim": 2,
        "diagram_span_rank": 2,
        "commutant_of_perms_dim": 2,
        "perm_span_dim": 2,
        "commutant_of_diagrams_dim": 2,
        "surjectivity_verdict": True,
        "double_commutant_verdict": True,
    }
    # printed in the declared field order, the closed form left out, then the verdicts
    assert list(doc) == [
        "n", "k", "centralizer_dim", "diagram_span_rank", "commutant_of_perms_dim", "perm_span_dim",
        "commutant_of_diagrams_dim", "surjectivity_verdict", "double_commutant_verdict",
    ]


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: symmetric_group_generators(0), "n must be a positive integer", id="generators"),
        pytest.param(lambda: verify_schur_weyl(0, 2), "n and k must be positive integers", id="verify"),
    ],
)
def test_sizes_below_one_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
