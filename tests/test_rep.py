from __future__ import annotations

import ast
import copy
import pickle
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partalg
from partalg import centralizer, rep, seqmodel
from partalg.diagram import AlgebraElement, Diagram, Poly, concat, enumerate_diagrams, identity, multiply, parse_diagram
from partalg.rep import (
    BudgetExceededError,
    PermWord,
    SparseMat,
    act,
    entry,
    eval_at,
    matrix,
    perm_matrix,
    tuple_rank,
    unrank_tuple,
)
from partalg.setpart import SetPartition, _all_digits

D2 = list(enumerate_diagrams(2))


def test_tuple_rank_roundtrip():
    assert tuple_rank((1, 1), 3) == 0
    assert tuple_rank((1, 2), 3) == 1
    assert tuple_rank((2, 1), 3) == 3
    assert tuple_rank((3, 3), 3) == 8
    for n, k in ((2, 1), (3, 2), (4, 3)):
        for r in range(n**k):
            t = unrank_tuple(r, n, k)
            assert len(t) == k and all(1 <= v <= n for v in t)
            assert tuple_rank(t, n) == r
    with pytest.raises(ValueError):
        tuple_rank((0, 1), 3)
    with pytest.raises(ValueError):
        tuple_rank((1, 4), 3)


def test_entry_is_the_block_constancy_indicator():
    d = parse_diagram("1,1',2'|2")
    assert entry(d, (3, 7), (3, 5)) == 0
    assert entry(d, (3, 7), (3, 3)) == 1
    assert entry(d, (4, 4), (4, 4)) == 1
    wide = parse_diagram("1,2,1'|3|4,2',3',4'")
    assert entry(wide, (1, 2, 2, 3), (1, 3, 3, 3)) == 0
    assert entry(wide, (1, 1, 2, 3), (1, 3, 3, 3)) == 1
    with pytest.raises(ValueError):
        entry(wide, (1, 1), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        entry(wide, (1, 1, 2, 0), (1, 1, 1, 1))


def test_matrix_against_entry_by_entry_oracle():
    n = 3
    for d in D2:
        m = matrix(d, n)
        dense = m.to_dense()
        for top in product(range(1, n + 1), repeat=2):
            for bot in product(range(1, n + 1), repeat=2):
                assert dense[tuple_rank(top, n)][tuple_rank(bot, n)] == entry(d, top, bot)


@st.composite
def diagrams(draw, max_k: int = 3) -> Diagram:
    k = draw(st.integers(1, max_k))
    labels = draw(st.lists(st.integers(0, 2 * k - 1), min_size=2 * k, max_size=2 * k))
    first_seen: dict[int, int] = {}
    return Diagram(k, SetPartition(tuple(first_seen.setdefault(x, len(first_seen)) for x in labels)))


@settings(max_examples=40, deadline=None)
@given(d=diagrams(), n=st.integers(1, 4))
def test_matrix_matches_the_entrywise_definition(d, n):
    tuples = list(product(range(1, n + 1), repeat=d.k))
    expected = [(tuple_rank(t, n), tuple_rank(b, n), 1) for t in tuples for b in tuples if entry(d, t, b)]
    m = matrix(d, n)
    assert m == SparseMat(n**d.k, expected)
    assert all(type(v) is Fraction for _, _, v in m.triples)


@settings(max_examples=30, deadline=None)
@given(images=st.integers(1, 4).flatmap(lambda n: st.permutations(range(1, n + 1))), k=st.integers(0, 3))
def test_perm_matrix_matches_the_diagonal_action(images, k):
    s = PermWord(tuple(images))
    tuples = product(range(1, s.n + 1), repeat=k)
    assert perm_matrix(s, k) == SparseMat(s.n**k, [(tuple_rank(s.apply(t), s.n), tuple_rank(t, s.n), 1) for t in tuples])


def test_matrix_checks_the_nonzero_budget_before_building(monkeypatch):
    assert partalg.BudgetExceededError is centralizer.BudgetExceededError is BudgetExceededError
    singletons = parse_diagram("1|2|3|4|5|6|1',2',3',4',5',6'")
    with pytest.raises(BudgetExceededError):
        matrix(singletons, 30)  # 30^7 nonzeros
    monkeypatch.setattr(rep, "MATRIX_NNZ_LIMIT", 16)
    rep.check_budget(16, lambda: "sixteen")
    with pytest.raises(BudgetExceededError, match="^sixteen plus one, over the limit 16$"):
        rep.check_budget(17, lambda: "sixteen plus one")
    assert matrix(parse_diagram("1|2|1'|2'"), 2).nnz == 16
    with pytest.raises(BudgetExceededError):
        matrix(parse_diagram("1|2|3,1'|2'|3'"), 2)


def _perm_matrix_from_lists(sigma: PermWord, k: int) -> SparseMat:
    """`perm_matrix` with every place's positions held as a list: the oracle of its lazy last place."""
    n, dim = sigma.n, sigma.n**k
    step = [0] * n
    for x, y in enumerate(sigma.images):
        step[y - 1] = (y - 1) * dim + x
    positions = [0]
    for _ in range(k):
        positions = [p * n + s for p in positions for s in step]
    return SparseMat._trusted(dim, positions, (Fraction(1),) * dim)


def test_perm_matrix_builds_its_last_place_lazily():
    for n in range(1, 5):
        for images in permutations(range(1, n + 1)):
            s = PermWord(images)
            for k in range(4):
                m, want = perm_matrix(s, k), _perm_matrix_from_lists(s, k)
                assert m == want and hash(m) == hash(want)
    # at n^k = 2^20, the limit, the last place's 8 MB of packed positions are never a list of ints as well
    tracemalloc.start()
    try:
        m = perm_matrix(PermWord.cycle(32), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.nnz == 2**20 and m.entry(tuple_rank((2, 2, 2, 2), 32), 0) == 1  # the cycle sends 1 to 2
    assert peak < 32 * 2**20


def test_perm_matrix_checks_its_nonzeros_before_building_them(monkeypatch):
    monkeypatch.setattr(rep, "MATRIX_NNZ_LIMIT", 16)
    assert perm_matrix(PermWord.cycle(4), 2).nnz == 16
    with pytest.raises(BudgetExceededError, match=r"^permutation matrix at n = 5 on 2-tuples has 5\^2 nonzeros, over the limit 16$"):
        perm_matrix(PermWord.cycle(5), 2)


HUGE = 10**5000  # past Python's default limit of 4300 digits for an int printed as text
FOUR_SINGLETONS = parse_diagram("1|2|1'|2'")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda n: matrix(FOUR_SINGLETONS, n), "matrix at n = {n} of a 4-block diagram has {n}^4 nonzeros",
                 id="matrix"),
    pytest.param(lambda n: eval_at(AlgebraElement.from_diagram(FOUR_SINGLETONS), n),
                 "evaluation at n = {n} of a 4-block diagram has {n}^4 nonzeros", id="eval_at"),
    pytest.param(lambda n: seqmodel.monomial_vector(SetPartition((0, 1)), n), "power sum vector at n = {n} has {n}^2 entries",
                 id="monomial_vector"),
    pytest.param(lambda n: seqmodel.l1_truncated_norm(parse_diagram("1|1'"), n, seqmodel.GeometricWeights()),
                 "l1 norm at truncation {n} scans {n}^1 tuples of {w}-word weights", id="l1_truncated_norm"),
    pytest.param(lambda n: seqmodel.act_on_invariants(FOUR_SINGLETONS, SetPartition((0, 1)), n),
                 "power sum at n = {n} of a 2-block partition has {n}^2 nonzeros", id="act_on_invariants"),
    pytest.param(lambda n: centralizer.perm_span_dim(n, 2), "matrix at n = {n} of a 3-block diagram has {n}^3 nonzeros",
                 id="perm_span_dim"),
    pytest.param(lambda n: centralizer.verify_schur_weyl(n, 2),
                 "the basis diagrams at (n, k) = ({n}, 2) have sum_(b <= {n}) S(4, b) {n}^b nonzeros", id="verify_schur_weyl"),
    pytest.param(lambda n: centralizer.span_rank([SparseMat(n, [])]),
                 "span rank of 1 matrices labels {nn} positions and reads 0 nonzeros", id="span_rank"),
    pytest.param(lambda n: centralizer.commutant_dimension([SparseMat(n, [])]),
                 "commutant at dimension {n} labels {nn} positions and reads 0 terms", id="commutant_dimension"),
])
def test_a_budget_names_an_n_of_any_length(call, message):
    # the message is built only when the check fails, with the digit limit lifted and then restored
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for n in (HUGE, 10**4299):  # 5001 digits, and 4300, which always printed
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError) as refused:
            call(n)
        assert time.perf_counter() - start < 1.0
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        if n != HUGE:  # an n that always printed keeps its message, byte for byte
            w = n * 2 // 64  # the l1 scan's weight words at ratio 1/2
            with _all_digits():  # n * n has 8599 digits
                expected = message.format(n=n, w=w, nn=n * n) + f", over the limit {rep.MATRIX_NNZ_LIMIT}"
            assert str(refused.value) == expected


def test_every_budget_check_builds_its_message_lazily():
    # a string `what` would be formatted on every pass and fail only on a refusal, as a TypeError
    found = set()
    for path in sorted(Path(rep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in (f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)):
            # names this function (or one nested in it) binds to anything but a lambda
            strings = {t.id for node in ast.walk(func) if isinstance(node, ast.Assign) and not isinstance(node.value, ast.Lambda)
                       for t in node.targets if isinstance(t, ast.Name)}
            for call in (c for c in ast.walk(func) if isinstance(c, ast.Call)):
                if getattr(call.func, "id", getattr(call.func, "attr", None)) != "check_budget":
                    continue
                where = f"{path.name}:{call.lineno}"
                found.add(where)
                what = call.args[1]
                assert isinstance(what, (ast.Lambda, ast.Name)), f"{where} passes {ast.unparse(what)}, not a lambda or a name"
                assert getattr(what, "id", None) not in strings, f"{where} passes {what.id}, bound to something other than a lambda"
    assert len(found) >= 16


def test_diagram_count_guard_refuses_by_its_floor_then_by_bell(monkeypatch):
    monkeypatch.setattr(rep, "MATRIX_NNZ_LIMIT", 16)
    assert rep.check_diagram_count("walk", 2) is None  # Bell(4) = 15 passes
    # the floor 2^5 <= Bell(6) = 203 already passes 16, so the floor refuses k = 3
    with pytest.raises(BudgetExceededError) as refused:
        rep.check_diagram_count("walk", 3)
    assert str(refused.value) == "walk at k = 3 enumerates Bell(6) >= 2^5 diagrams, over the limit 16"
    monkeypatch.undo()
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="^walk at k = 1000000 enumerates Bell"):
        rep.check_diagram_count("walk", 10**6)
    assert time.perf_counter() - start < 1.0


def test_matrix_golden_swap():
    swap = parse_diagram("1,2'|2,1'")
    assert matrix(swap, 2).to_dense() == [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]


def test_matrix_golden_rank_one_projector():
    d = parse_diagram("1,2,1',2'")
    m = matrix(d, 3)
    assert m.nnz == 3
    assert all(m.entry(i, i) == 1 for i in (0, 4, 8))


def test_matrix_column_support_counts():
    # each admissible column carries one nonzero per free top block
    n, k = 3, 2
    for d in D2:
        free = sum(1 for block in d.part.blocks if all(v < k for v in block))
        m = matrix(d, n)
        per_col: dict[int, int] = {}
        for r, c, _ in m.triples:
            per_col[c] = per_col.get(c, 0) + 1
        assert all(count == n**free for count in per_col.values())


def test_perm_word_basics():
    s = PermWord((2, 1, 3))
    assert s.n == 3 and s(1) == 2 and s(3) == 3
    assert s.apply((1, 2, 3, 1)) == (2, 1, 3, 2)
    assert PermWord.identity(4) == PermWord((1, 2, 3, 4))
    assert PermWord.transposition(4, 2, 4) == PermWord((1, 4, 3, 2))
    assert PermWord.cycle(4) == PermWord((2, 3, 4, 1))
    with pytest.raises(ValueError):
        PermWord((1, 1, 2))
    with pytest.raises(ValueError):
        PermWord((0, 1))


def test_perm_compose_convention():
    s = PermWord((2, 1, 3))
    t = PermWord((2, 3, 1))
    st = s * t
    for i in (1, 2, 3):
        assert st(i) == s(t(i))


def test_perm_matrix_is_a_homomorphism():
    rng = random.Random(17)
    n, k = 4, 2
    perms = [PermWord(tuple(rng.sample(range(1, n + 1), n))) for _ in range(8)]
    for s, t in zip(perms, perms[1:]):
        assert perm_matrix(s, k) @ perm_matrix(t, k) == perm_matrix(s * t, k)
    ident = SparseMat.identity(n**k)
    assert perm_matrix(PermWord.identity(n), k) == ident
    for s in perms:
        inv = PermWord(tuple(sorted(range(1, n + 1), key=s)))
        assert perm_matrix(s, k) @ perm_matrix(inv, k) == ident


def test_diagram_matrices_commute_with_permutation_action():
    n, k = 3, 2
    perms = [PermWord(p) for p in ((2, 1, 3), (2, 3, 1), (3, 1, 2))]
    for d in D2:
        m = matrix(d, n)
        for s in perms:
            p = perm_matrix(s, k)
            assert p @ m == m @ p


def test_representation_property_exhaustive_small():
    for k in (1, 2):
        diagrams = list(enumerate_diagrams(k))
        for n in (2, 3):
            mats = {d: matrix(d, n) for d in diagrams}
            for d1, d2 in product(diagrams, repeat=2):
                d, middles = concat(d1, d2)
                assert mats[d1] @ mats[d2] == mats[d].scaled(Fraction(n) ** middles)


def test_representation_property_random_k3():
    rng = random.Random(29)
    diagrams = list(enumerate_diagrams(3))
    n = 3
    for _ in range(25):
        d1, d2 = rng.choice(diagrams), rng.choice(diagrams)
        d, middles = concat(d1, d2)
        assert matrix(d1, n) @ matrix(d2, n) == matrix(d, n).scaled(Fraction(n) ** middles)


def test_eval_at_identity_and_scalars():
    one = AlgebraElement.identity(2)
    assert eval_at(one, 3) == SparseMat.identity(9)
    doubled = 2 * one
    assert eval_at(doubled, 3) == SparseMat.identity(9).scaled(2)
    with pytest.raises(ValueError):
        eval_at(one, 0)


def test_eval_at_golden_product():
    lhs = AlgebraElement.from_diagram(parse_diagram("1,2|3|4,3',4'|1',2'"))
    rhs = AlgebraElement.from_diagram(parse_diagram("1|2|3,1'|4,2',3',4'"))
    prod = multiply(lhs, rhs)
    for n in (2, 3):
        assert eval_at(lhs, n) @ eval_at(rhs, n) == eval_at(prod, n)


def test_eval_at_substitutes_the_marker():
    d = parse_diagram("1|1'")
    elem = AlgebraElement.from_diagram(d, Poly.x_power(1))
    for n in (2, 3, 5):
        assert eval_at(elem, n) == matrix(d, n).scaled(n)


def test_eval_at_checks_the_summed_nonzeros_before_building(monkeypatch):
    calls = []
    monkeypatch.setattr(rep, "matrix", lambda d, n: calls.append(d) or matrix(d, n))
    monkeypatch.setattr(rep, "MATRIX_NNZ_LIMIT", 16)
    singletons = AlgebraElement.from_diagram(parse_diagram("1|2|1'|2'"))  # 2^4 nonzeros at n = 2
    assert eval_at(singletons, 2).nnz == 16
    both = singletons + AlgebraElement.from_diagram(identity(2))  # 16 + 2^2 nonzeros
    calls.clear()
    with pytest.raises(BudgetExceededError, match="^evaluation at n = 2 of 2 diagrams has 20 nonzeros"):
        eval_at(both, 2)
    assert calls == []
    vanishing = AlgebraElement.from_diagram(identity(2), Poly.of(-2, 1))  # n - 2, zero at n = 2
    assert eval_at(singletons + vanishing, 2).nnz == 16  # terms that vanish at n are left out


def test_act_applies_matrix_to_coordinates():
    swap = matrix(parse_diagram("1,2'|2,1'"), 2)
    vec = [Fraction(i) for i in (1, 2, 3, 4)]
    assert act(swap, vec) == [Fraction(v) for v in (1, 3, 2, 4)]
    with pytest.raises(ValueError):
        act(swap, vec[:3])


def test_sparse_mat_accumulates_and_drops_zeros():
    m = SparseMat(2, [(0, 0, Fraction(1)), (0, 0, Fraction(-1)), (1, 0, Fraction(2))])
    assert m.nnz == 1 and m.entry(1, 0) == 2 and m.entry(0, 0) == 0
    assert [type(v) for _, _, v in SparseMat(2, [(0, 1, 3), (1, 1, "1/2")]).triples] == [Fraction, Fraction]
    assert SparseMat(2, {}) == SparseMat(2, [])
    with pytest.raises(ValueError):
        SparseMat(2, [(2, 0, Fraction(1))])


SUMMANDS = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))


@st.composite
def sums_with_a_comeback(draw, keys):
    """(key, value) entries in which one key's running sum returns to 0 and is then added to again."""
    entries = st.lists(st.tuples(st.sampled_from(keys), SUMMANDS), max_size=8)
    out = draw(entries)
    key = draw(st.sampled_from(keys))
    x = draw(SUMMANDS.filter(bool))
    out += [(key, x), (key, -x - sum(v for k, v in out if k == key))]
    out += draw(entries)
    out.append((key, draw(SUMMANDS.filter(bool))))
    return out


def _dict_sum(entries) -> dict:
    out: dict = {}
    for key, v in entries:
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


@settings(max_examples=80, deadline=None)
@given(cells=sums_with_a_comeback([(r, c) for r in range(2) for c in range(2)]))
def test_sparse_mat_equals_the_dict_sum_when_a_cell_cancels_and_returns(cells):
    m = SparseMat(2, [(r, c, v) for (r, c), v in cells])
    assert m.triples == tuple(sorted((r, c, Fraction(v)) for (r, c), v in _dict_sum(cells).items()))
    assert all(type(v) is Fraction for _, _, v in m.triples)


@settings(max_examples=80, deadline=None)
@given(terms=sums_with_a_comeback(list(enumerate_diagrams(1))))
def test_algebra_element_equals_the_dict_sum_when_a_term_cancels_and_returns(terms):
    a = AlgebraElement(1, [(d, Poly.of(v)) for d, v in terms])
    expected = sorted(_dict_sum(terms).items(), key=lambda t: t[0].sort_key())
    assert a.terms() == [(d, Poly.of(v)) for d, v in expected]
    assert a == AlgebraElement(1, dict(expected)) and a.is_zero() == (not expected)


def test_sparse_mat_algebra_matches_dense_oracle():
    rng = random.Random(41)

    def random_mat(dim: int) -> SparseMat:
        triples = [
            (r, c, Fraction(rng.randint(-4, 4)))
            for r in range(dim)
            for c in range(dim)
            if rng.random() < 0.4
        ]
        return SparseMat(dim, triples)

    def dense_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
        dim = len(a)
        return [
            [sum((a[i][j] * b[j][l] for j in range(dim)), Fraction(0)) for l in range(dim)]
            for i in range(dim)
        ]

    for _ in range(10):
        a, b = random_mat(5), random_mat(5)
        assert (a @ b).to_dense() == dense_mul(a.to_dense(), b.to_dense())
        assert (a + b).to_dense() == [
            [x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.to_dense(), b.to_dense())
        ]
        assert (a - a).nnz == 0


def test_sparse_mat_json_form():
    m = SparseMat(2, [(1, 0, Fraction(1, 2)), (0, 1, Fraction(3))])
    assert m.to_json() == {"dim": 2, "triples": [[0, 1, "3/1"], [1, 0, "1/2"]]}


def _is_the_public_record(m: SparseMat) -> None:
    """m equals, and hashes as, the public constructor on its triples; pickle and copy give it back."""
    rebuilt = SparseMat(m.dim, m.triples)
    assert rebuilt == m and hash(rebuilt) == hash(m) and rebuilt.positions == m.positions
    for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert twin == m and hash(twin) == hash(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_built_matrices_are_the_public_constructor_on_their_triples(n):
    for k in (1, 2, 3):
        for d in enumerate_diagrams(k):
            _is_the_public_record(matrix(d, n))
        for images in permutations(range(1, n + 1)):
            _is_the_public_record(perm_matrix(PermWord(images), k))


def test_entry_bisects_the_positions():
    rng = random.Random(7)
    for dim in (0, 1, 3, 6):
        m = SparseMat(dim, [(rng.randrange(dim), rng.randrange(dim), rng.randint(-2, 2)) for _ in range(2 * dim)])
        dense = m.to_dense()
        assert all(m.entry(r, c) == dense[r][c] for r in range(dim) for c in range(dim))
        assert all(m.entry(r, c) == 0 for r, c in ((-1, 0), (0, -1), (0, dim), (dim, 0), (1, -1)))


@pytest.mark.parametrize("k, packed", [(31, True), (32, False), (40, False)])
def test_positions_past_signed_64_bits_are_a_tuple(k, packed):
    # one block on all 2k vertices at n = 2: the constant tuples, positions 0 and dim^2 - 1 = 2^(2k) - 1
    m = matrix(Diagram(k, SetPartition((0,) * (2 * k))), 2)
    last = 2**k - 1
    assert type(m.positions) is (bytes if packed else tuple)
    if not packed:
        assert m.positions == (0, 2 ** (2 * k) - 1)
    assert m.triples == ((0, 0, 1), (last, last, 1))
    assert m.entry(last, last) == 1 and m.entry(0, last) == m.entry(last, 0) == 0
    _is_the_public_record(m)
    assert m @ m == m and m + m == m.scaled(2) and m - m == SparseMat(m.dim)
    assert m.to_json() == {"dim": 2**k, "triples": [[0, 0, "1/1"], [last, last, "1/1"]]}


@pytest.mark.parametrize("digits, k", [(400, 300), (4000, 3000)])
def test_eval_at_refuses_a_huge_power_without_computing_or_printing_it(digits, k):
    # n^(2k) over 4300 digits could not be printed, and at 4000 digits n^6000 takes tens of seconds to compute
    n = 10 ** (digits - 1)
    singletons = AlgebraElement.from_diagram(Diagram(k, SetPartition(range(2 * k))))
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        eval_at(singletons, n)
    assert time.perf_counter() - start < 1
    b, limit = 2 * k, rep.MATRIX_NNZ_LIMIT
    assert str(info.value) == f"evaluation at n = {n} of a {b}-block diagram has {n}^{b} nonzeros, over the limit {limit}"


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: SparseMat(-1), ValueError, "dimension must be non-negative", id="dim"),
        pytest.param(
            lambda: SparseMat(2) + 1, TypeError, "unsupported operand type(s) for +: 'SparseMat' and 'int'", id="add"
        ),
        pytest.param(
            lambda: SparseMat(2) @ 1, TypeError, "unsupported operand type(s) for @: 'SparseMat' and 'int'", id="matmul"
        ),
        pytest.param(lambda: SparseMat(2) + SparseMat(3), ValueError, "dimension mismatch", id="add_dim"),
        pytest.param(lambda: SparseMat(2) @ SparseMat(3), ValueError, "dimension mismatch", id="matmul_dim"),
        pytest.param(lambda: unrank_tuple(9, 3, 2), ValueError, "rank 9 outside [0, 9)", id="unrank"),
        pytest.param(lambda: matrix(parse_diagram("1|1'"), 0), ValueError, "n must be a positive integer", id="matrix"),
        pytest.param(lambda: PermWord((2, 1))(3), ValueError, "point 3 outside [1, 2]", id="point"),
        pytest.param(
            lambda: PermWord((2, 1)).compose(PermWord((1, 2, 3))),
            ValueError,
            "cannot compose permutations of different degrees",
            id="compose",
        ),
        pytest.param(
            lambda: PermWord((2, 1)) * 1, TypeError, "unsupported operand type(s) for *: 'PermWord' and 'int'", id="mul"
        ),
        pytest.param(lambda: PermWord.transposition(3, 1, 1), ValueError, "invalid transposition (1 1) on 1..3", id="swap"),
        pytest.param(lambda: PermWord.cycle(0), ValueError, "degree must be positive", id="cycle"),
        pytest.param(lambda: perm_matrix(PermWord((2, 1)), -1), ValueError, "k must be non-negative", id="perm_matrix"),
    ],
)
def test_foreign_operands_and_out_of_range_arguments_are_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
