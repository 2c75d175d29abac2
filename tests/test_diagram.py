from __future__ import annotations

import contextlib
import io
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partalg import diagram, rep
from partalg.diagram import (
    AlgebraElement,
    Diagram,
    Poly,
    RectDiagram,
    closed_under_product,
    concat,
    enumerate_diagrams,
    flip,
    identity,
    is_bottom_propagating,
    is_top_propagating,
    is_uniform,
    multiply,
    parse_diagram,
    parse_rect_diagram,
    partition_algebra_generators,
    rect_compose,
)
from partalg.seqmodel import linf_matrix_norm
from partalg.setpart import DisjointSets, SetPartition, enumerate_partitions, from_blocks, from_labels

D2 = list(enumerate_diagrams(2))
D3 = list(enumerate_diagrams(3))


def _components(n: int, edges: list[tuple[int, int]]) -> list[set[int]]:
    # plain BFS, deliberately not the package's union-find
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[int] = set()
    comps = []
    for v in range(n):
        if v in seen:
            continue
        queue, comp = [v], set()
        while queue:
            u = queue.pop()
            if u in comp:
                continue
            comp.add(u)
            queue.extend(adj[u] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def _concat_oracle(d1: Diagram, d2: Diagram) -> tuple[SetPartition, int]:
    # independent recomputation of the stacked product over 3k nodes
    k = d1.k
    edges = []
    for block in d1.part.blocks:
        edges.extend((block[0], v) for v in block[1:])
    for block in d2.part.blocks:
        edges.extend((block[0] + k, v + k) for v in block[1:])
    comps = _components(3 * k, edges)
    keep = list(range(k)) + list(range(2 * k, 3 * k))
    owner = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            owner[v] = idx
    relabel: dict[int, int] = {}
    rgs = tuple(relabel.setdefault(owner[v], len(relabel)) for v in keep)
    middles = sum(1 for comp in comps if all(k <= v < 2 * k for v in comp))
    return SetPartition(rgs), middles


def test_diagram_construction_and_text():
    d = parse_diagram("1,2,1'|3|4,2',3',4'")
    assert d.k == 4
    assert d.part.rgs == (0, 0, 1, 2, 0, 2, 2, 2)
    assert d.to_text() == "1,2,1'|3|4,2',3',4'"
    with pytest.raises(ValueError):
        Diagram(2, SetPartition((0, 0, 0)))
    with pytest.raises(ValueError):
        Diagram(0, SetPartition(()))


def test_parse_diagram_infers_k_from_largest_vertex():
    assert parse_diagram("1,1'|2,2'").k == 2
    assert parse_diagram("1,1',2'|2").k == 2
    assert parse_diagram("rgs:0,1,0,1") == parse_diagram("1,1'|2,2'")
    with pytest.raises(ValueError, match="does not match k"):
        parse_diagram("rgs:0,1,0,1", k=3)
    with pytest.raises(ValueError, match="even"):
        parse_diagram("rgs:0,0,1")
    with pytest.raises(ValueError, match="missing"):
        parse_diagram("1,1'|3,2',3'")
    with pytest.raises(ValueError):
        parse_diagram("1,1'|2,2'", k=3)


def test_identity_diagram():
    assert identity(1).to_text() == "1,1'"
    assert identity(3).part.rgs == (0, 1, 2, 0, 1, 2)
    assert is_uniform(identity(4))
    assert is_top_propagating(identity(4)) and is_bottom_propagating(identity(4))
    for k in (0, -1):
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            identity(k)


def test_concat_golden_product():
    d1 = parse_diagram("1,2|3|4,3',4'|1',2'")
    d2 = parse_diagram("1|2|3,1'|4,2',3',4'")
    d, middles = concat(d1, d2)
    assert d == parse_diagram("1,2|3|4,1',2',3',4'")
    assert middles == 1


def test_concat_with_identity_is_neutral():
    for d in D2:
        assert concat(identity(2), d) == (d, 0)
        assert concat(d, identity(2)) == (d, 0)


def test_concat_k_mismatch():
    with pytest.raises(ValueError):
        concat(identity(2), identity(3))


def test_generators_reach_every_diagram():
    # closure of the identity under right multiplication by the generators
    for k, bell in ((1, 2), (2, 15), (3, 203), (4, 4140)):
        gens = partition_algebra_generators(k)
        reached = {identity(k)}
        frontier = list(reached)
        while frontier:
            fresh = []
            for d in frontier:
                for g in gens:
                    e, _ = concat(d, g)
                    if e not in reached:
                        reached.add(e)
                        fresh.append(e)
            frontier = fresh
        assert len(reached) == bell
        assert reached == set(enumerate_diagrams(k))


def test_generators_edge_sizes():
    assert [len(partition_algebra_generators(k)) for k in (1, 2, 3, 4)] == [1, 3, 4, 4]
    assert [d.to_text() for d in partition_algebra_generators(1)] == ["1|1'"]
    assert [d.to_text() for d in partition_algebra_generators(2)] == [
        "1|2,2'|1'",
        "1,2'|2,1'",
        "1,2,1',2'",
    ]
    for k in (0, -1):
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            partition_algebra_generators(k)


def test_scalar_times_element_is_termwise():
    d1, d2 = D2[0], D2[1]
    e = AlgebraElement(2, {d1: Poly.of(1, 2), d2: Poly.of(3)})
    half = {d1: Poly.of(Fraction(1, 2), 1), d2: Poly.of(Fraction(3, 2))}
    expected = [
        (2, {d1: Poly.of(2, 4), d2: Poly.of(6)}),
        (Fraction(1, 2), half),
        ("1/2", half),
        (Poly.of(0, 1), {d1: Poly.of(0, 1, 2), d2: Poly.of(0, 3)}),
    ]
    for s, terms in expected:
        assert s * e == AlgebraElement(2, terms)


def test_from_diagram_with_zero_coefficient_is_zero():
    assert AlgebraElement.from_diagram(D2[0], 0).is_zero()
    assert AlgebraElement.from_diagram(D2[0], Poly.zero()).is_zero()


def test_concat_singleton_strand_swallows_a_component():
    d = parse_diagram("1|1'")
    assert concat(d, d) == (d, 1)
    e = AlgebraElement.from_diagram(d)
    assert multiply(e, e) == AlgebraElement.from_diagram(d, Poly.x_power(1))


def test_concat_matches_independent_oracle():
    rng = random.Random(11)
    pairs = [(d1, d2) for d1 in D2 for d2 in D2]
    pairs += [(rng.choice(D3), rng.choice(D3)) for _ in range(60)]
    for d1, d2 in pairs:
        d, middles = concat(d1, d2)
        part, middles_oracle = _concat_oracle(d1, d2)
        assert d.part == part and middles == middles_oracle


def test_stacking_reads_no_block_count(monkeypatch):
    rng = random.Random(17)
    pairs = [(d1, d2) for k in (1, 2) for d1 in enumerate_diagrams(k) for d2 in enumerate_diagrams(k)]
    pairs += [(rng.choice(D3), rng.choice(D3)) for _ in range(200)]
    expected = [_concat_oracle(d1, d2) for d1, d2 in pairs]  # the oracle reads blocks, so before the patch
    rect_pairs = [
        (RectDiagram(d1.k, d1.k, d1.part), RectDiagram(d2.k, d2.k, d2.part), part)
        for (d1, d2), (part, middles) in zip(pairs, expected)
        if is_top_propagating(d1) and is_top_propagating(d2)
    ]
    assert rect_pairs

    def refused(self):
        raise AssertionError("num_blocks was read")

    monkeypatch.setattr(SetPartition, "num_blocks", property(refused))
    for (d1, d2), (part, middles) in zip(pairs, expected):
        assert concat(d1, d2) == (Diagram(d1.k, part), middles)
    for r1, r2, part in rect_pairs:
        assert rect_compose(r1, r2) == RectDiagram(r1.k_top, r2.l_bottom, part)


def test_multiply_is_associative():
    elems2 = [AlgebraElement.from_diagram(d) for d in D2]
    for a, b, c in product(elems2, repeat=3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    rng = random.Random(3)
    for _ in range(150):
        a, b, c = (AlgebraElement.from_diagram(rng.choice(D3)) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_is_bilinear():
    rng = random.Random(5)
    for _ in range(20):
        a, b, c = (
            AlgebraElement(
                2, {rng.choice(D2): Poly.of(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)}
            )
            for _ in range(3)
        )
        assert multiply(a + b, c) == multiply(a, c) + multiply(b, c)
        assert multiply(c, a + b) == multiply(c, a) + multiply(c, b)
        assert multiply(2 * a, b) == 2 * multiply(a, b)


def test_multiply_identity_element():
    rng = random.Random(13)
    for k in (1, 2, 3):
        pool = list(enumerate_diagrams(k))
        elem = AlgebraElement(k, {rng.choice(pool): Poly.of(1, 2), rng.choice(pool): Poly.of(3)})
        one = AlgebraElement.identity(k)
        assert multiply(one, elem) == elem
        assert multiply(elem, one) == elem


def test_subset_predicates_on_display_diagrams():
    assert is_uniform(parse_diagram("1,1'|2,2'"))
    assert is_uniform(parse_diagram("1,2'|2,1'"))
    assert is_uniform(parse_diagram("1,2,1',2'"))
    assert not is_uniform(parse_diagram("1,1',2'|2"))
    # every singleton block is unbalanced
    assert not is_uniform(parse_diagram("1|2|1'|2'"))
    tp = parse_diagram("1,1'|2',3'|2,3,4,4'")
    assert is_top_propagating(tp) and not is_bottom_propagating(tp)
    bp = parse_diagram("1,1'|2,3|4,2',3',4'")
    assert is_bottom_propagating(bp) and not is_top_propagating(bp)


def test_enumerate_diagram_counts():
    assert len(list(enumerate_diagrams(1))) == 2
    assert len(D2) == 15
    assert len(D3) == 203
    assert [len(list(enumerate_diagrams(k, "uniform"))) for k in (1, 2, 3)] == [1, 3, 16]
    assert len(list(enumerate_diagrams(2, "top"))) == 5
    assert len(list(enumerate_diagrams(2, "bottom"))) == 5
    with pytest.raises(ValueError):
        list(enumerate_diagrams(2, "sideways"))


def test_enumerate_uniform_k2_explicitly():
    expected = {"1,2,1',2'", "1,1'|2,2'", "1,2'|2,1'"}
    assert {d.to_text() for d in enumerate_diagrams(2, "uniform")} == expected


def test_enumerate_top_k2_explicitly():
    expected = {"1,2,1',2'", "1,1'|2,2'", "1,2'|2,1'", "1,2,1'|2'", "1,2,2'|1'"}
    assert {d.to_text() for d in enumerate_diagrams(2, "top")} == expected


def test_enumerate_is_sorted_and_matches_partition_count():
    keys = [d.sort_key() for d in D3]
    assert keys == sorted(keys)
    assert len(D3) == len(list(enumerate_partitions(6)))


def test_flip_is_an_involution_and_swaps_rows():
    assert flip(parse_diagram("1,2,1'|2'")) == parse_diagram("1,1',2'|2")
    assert flip(identity(3)) == identity(3)
    for d in D3:
        assert flip(flip(d)) == d
        assert is_top_propagating(flip(d)) == is_bottom_propagating(d)
        assert is_uniform(flip(d)) == is_uniform(d)


def _diagram_of(k: int, labels: list[int]) -> Diagram:
    first_seen: dict[int, int] = {}
    return Diagram(k, SetPartition(tuple(first_seen.setdefault(x, len(first_seen)) for x in labels)))


@st.composite
def diagram_pairs(draw, max_k: int = 3) -> tuple[Diagram, Diagram]:
    k = draw(st.integers(1, max_k))
    labels = st.lists(st.integers(0, 2 * k - 1), min_size=2 * k, max_size=2 * k)
    return _diagram_of(k, draw(labels)), _diagram_of(k, draw(labels))


@settings(max_examples=80, deadline=None)
@given(pair=diagram_pairs())
def test_flip_reverses_products_and_keeps_the_middle_count(pair):
    d1, d2 = pair
    product_12, middles = concat(d1, d2)
    assert concat(flip(d2), flip(d1)) == (flip(product_12), middles)


@st.composite
def even_rgs(draw, max_k: int = 5) -> tuple[int, ...]:
    k = draw(st.integers(1, max_k))
    rgs: list[int] = []
    for _ in range(2 * k):
        rgs.append(draw(st.integers(0, max(rgs, default=-1) + 1)))
    return tuple(rgs)


@settings(max_examples=200, deadline=None)
@given(rgs=even_rgs())
def test_flip_matches_the_index_formula(rgs):
    # the oracle: vertex v of the flipped diagram is vertex (v + k) mod 2k of d
    k = len(rgs) // 2
    flipped = flip(Diagram(k, SetPartition(rgs))).part.rgs
    for v, w in product(range(2 * k), repeat=2):
        assert (flipped[v] == flipped[w]) == (rgs[(v + k) % (2 * k)] == rgs[(w + k) % (2 * k)])


def _readings_through_blocks(rgs: tuple[int, ...], k: int) -> tuple[tuple, tuple, str]:
    # each block gathered by its label, then split at k and printed, one block at a time
    blocks = tuple(tuple(v for v, lab in enumerate(rgs) if lab == b) for b in range(max(rgs) + 1))
    rows = tuple((tuple(v for v in b if v < k), tuple(v - k for v in b if v >= k)) for b in blocks)
    text = "|".join(",".join(str(v + 1) if v < k else f"{v - k + 1}'" for v in b) for b in blocks)
    return blocks, rows, text


@settings(max_examples=200, deadline=None)
@given(rgs=even_rgs())
def test_blocks_block_rows_and_text_read_from_the_rgs_match_the_block_oracle(rgs):
    k = len(rgs) // 2
    d = Diagram(k, SetPartition(rgs))
    blocks, rows, text = _readings_through_blocks(rgs, k)
    assert (d.part.blocks, d.block_rows, d.to_text()) == (blocks, rows, text)
    assert d.part.to_text() == "|".join(",".join(str(v + 1) for v in b) for b in blocks)
    assert parse_diagram(text, k) == d


def _uniform_by_scan(d: Diagram) -> bool:
    return all(2 * sum(1 for v in block if v < d.k) == len(block) for block in d.part.blocks)


def _top_propagating_by_scan(d: Diagram) -> bool:
    return all(any(v >= d.k for v in block) for block in d.part.blocks)


def _bottom_propagating_by_scan(d: Diagram) -> bool:
    return all(any(v < d.k for v in block) for block in d.part.blocks)


@settings(max_examples=120, deadline=None)
@given(pair=diagram_pairs(max_k=5), trunc=st.integers(1, 9))
def test_block_rows_split_each_block_and_decide_the_subsets(pair, trunc):
    for d in pair:
        k = d.k
        assert len(d.block_rows) == d.part.num_blocks
        for (tops, bots), block in zip(d.block_rows, d.part.blocks):
            assert all(0 <= v < k for v in tops + bots)
            assert tops + tuple(v + k for v in bots) == block
        assert is_uniform(d) == _uniform_by_scan(d)
        assert is_top_propagating(d) == _top_propagating_by_scan(d)
        assert is_bottom_propagating(d) == _bottom_propagating_by_scan(d)
        # the sup norm counts the blocks with no top vertex; of the flipped diagram, those with no bottom vertex
        assert linf_matrix_norm(d, trunc) == trunc ** sum(1 for tops, _ in d.block_rows if not tops)
        assert linf_matrix_norm(flip(d), trunc) == trunc ** sum(1 for _, bots in d.block_rows if not bots)


def test_subalgebras_closed_without_middle_components():
    for k in (1, 2, 3):
        for subset, pred in (
            ("uniform", is_uniform),
            ("top", is_top_propagating),
            ("bottom", is_bottom_propagating),
        ):
            members = list(enumerate_diagrams(k, subset))
            for d1, d2 in product(members, repeat=2):
                d, middles = concat(d1, d2)
                assert middles == 0
                assert pred(d)


def _closed_by_all_pairs(family) -> bool:
    # the m^2 products that closed_under_product replaces: the test oracle
    members = set(family)
    return all(middles == 0 and d in members for d, middles in (concat(a, b) for a, b in product(members, repeat=2)))


FAMILIES = {k: {s: list(enumerate_diagrams(k, s)) for s in ("uniform", "top", "bottom")} for k in (1, 2, 3)}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closure_from_generators_matches_the_all_pairs_oracle_on_random_subsets(data):
    # subsets of all of P_k are mostly not closed; subsets of a family mostly miss a product
    k = data.draw(st.sampled_from([2, 3]))
    pool = data.draw(st.sampled_from([D2 if k == 2 else D3, *FAMILIES[k].values()]))
    family = data.draw(st.sets(st.sampled_from(pool), max_size=24))
    assert closed_under_product(family) == _closed_by_all_pairs(family)


def test_closure_from_generators_matches_the_all_pairs_oracle_on_whole_families():
    for k in (1, 2, 3):
        for members in FAMILIES[k].values():
            assert closed_under_product(members) and _closed_by_all_pairs(members)
    # all of P_k is closed as a set, but its products swallow middle components
    for pool in (D2, D3):
        assert not closed_under_product(pool) and not _closed_by_all_pairs(pool)
    # one middle-free product lands outside: s_1 squared is the identity
    s_1 = parse_diagram("1,2'|2,1'")
    assert not closed_under_product([s_1]) and closed_under_product([s_1, identity(2)])
    assert closed_under_product([])


def _copies(family) -> list[Diagram]:
    return [Diagram(d.k, SetPartition(d.part.rgs)) for d in family]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_closure_of_equal_but_distinct_members_with_duplicates_matches_the_oracle(data):
    k = data.draw(st.sampled_from([2, 3]))
    pool = data.draw(st.sampled_from([D2 if k == 2 else D3, *FAMILIES[k].values()]))
    family = data.draw(st.lists(st.sampled_from(pool), max_size=24))
    copies = _copies(family + family[: data.draw(st.integers(0, len(family)))])
    assert all(c == d and c is not d for c, d in zip(copies, family))
    assert closed_under_product(copies) == _closed_by_all_pairs(family)


def test_closure_multiplies_only_the_family_own_objects(monkeypatch):
    # a product found among the members is replaced by that member, so no second copy is held
    for k in (2, 3):
        for members in FAMILIES[k].values():
            copies = _copies(members) + _copies(members)
            ids = {id(d) for d in copies}
            seen = []
            monkeypatch.setattr(diagram, "concat", lambda a, b: seen.append((id(a), id(b))) or concat(a, b))
            assert closed_under_product(copies)
            assert seen and all(a in ids and b in ids for a, b in seen)


def test_closure_keys_members_by_rgs_and_never_hashes_or_compares_a_record(monkeypatch):
    def refused(*args):
        raise AssertionError("a record was hashed or compared")

    for record in (Diagram, SetPartition):
        monkeypatch.setattr(record, "__hash__", refused)
        monkeypatch.setattr(record, "__eq__", refused)
    for k in (1, 2, 3):
        for members in FAMILIES[k].values():
            assert closed_under_product(members)


def test_closure_forms_m_times_the_generators_products_not_m_squared(monkeypatch):
    calls = []
    monkeypatch.setattr(diagram, "concat", lambda a, b: calls.append(1) or concat(a, b))
    for k in (3, 4):
        for subset in ("uniform", "top", "bottom"):
            members = list(enumerate_diagrams(k, subset))
            calls.clear()
            assert closed_under_product(members)
            assert len(calls) <= 6 * len(members)  # at most 6 generators; m^2 would be 52^2 at k = 3


def test_closure_checks_the_budget_each_time_a_generator_is_added(monkeypatch):
    top = FAMILIES[3]["top"]
    monkeypatch.setattr(rep, "MATRIX_NNZ_LIMIT", 2 * len(top))
    with pytest.raises(rep.BudgetExceededError) as refused:
        closed_under_product(top)
    assert str(refused.value) == "closure of 52 diagrams from 3 generators forms up to 156 products, over the limit 104"


def test_middle_counts_satisfy_mid_ab_plus_mid_ab_c_equals_mid_bc_plus_mid_a_bc():
    rng = random.Random(16)
    triples = [*product(D2, repeat=3), *(tuple(rng.choice(D3) for _ in range(3)) for _ in range(2000))]
    for a, b, c in triples:
        ab, mid_ab = concat(a, b)
        bc, mid_bc = concat(b, c)
        ab_c, mid_ab_c = concat(ab, c)
        a_bc, mid_a_bc = concat(a, bc)
        assert ab_c == a_bc and mid_ab + mid_ab_c == mid_bc + mid_a_bc


def test_enumerate_with_max_blocks_keeps_the_order_of_the_full_walk():
    for k in (1, 2, 3):
        for subset in (None, "uniform", "top", "bottom"):
            full = list(enumerate_diagrams(k, subset))
            for b in range(1, 2 * k + 1):
                assert list(enumerate_diagrams(k, subset, max_blocks=b)) == [d for d in full if d.part.num_blocks <= b]


def test_poly_arithmetic():
    p = Poly.of(1, 2)
    q = Poly.of(0, 0, 3)
    assert (p + q).coeffs == Poly.of(1, 2, 3).coeffs
    assert (p * q).coeffs == Poly.of(0, 0, 3, 6).coeffs
    assert (p - p).is_zero()
    assert Poly.of(0, 0).is_zero() and Poly.of(0, 0).coeffs == ()
    assert Poly.of(5).degree == 0 and Poly.zero().degree == -1
    assert p.shifted(2).coeffs == Poly.of(0, 0, 1, 2).coeffs
    assert p(3) == 7
    assert Poly.x_power(2)(5) == 25
    assert (2 * p).coeffs == Poly.of(2, 4).coeffs
    assert Poly.of(0, 1).to_strings() == ["0/1", "1/1"]
    assert Poly.of(1, 1).pretty() == "1 + x"
    assert Poly.zero().pretty() == "0"


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: Poly.of(Fraction(-3, 2), 2, 0, Fraction(1, 3)).pretty(), "-3/2 + 2*x + 1/3*x^3"),
        (lambda: Poly.zero().shifted(3), Poly.zero()),
        (lambda: Poly.zero() * Poly.of(1, 2), Poly.zero()),
        (lambda: Poly.of(1, 2) * Poly.zero(), Poly.zero()),
        (lambda: Poly.of(1).shifted(-1), ValueError("shift must be non-negative")),
        (lambda: Poly.x_power(-1), ValueError("power must be non-negative")),
        (lambda: parse_rect_diagram("1:1,1'"), ValueError("malformed shape prefix '1'")),
        (lambda: parse_rect_diagram("1,x:1,1'"), ValueError("malformed shape prefix '1,x'")),
    ],
    ids=["pretty-coefficients", "shift-zero", "zero-times", "times-zero", "negative-shift", "negative-power",
         "rect-one-size", "rect-not-an-int"],
)
def test_poly_and_rect_parse_edge_branches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            call()
        assert str(err.value) == str(expected)
    else:
        assert call() == expected


def test_readme_library_example_prints_what_it_says():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    out, scope = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(code, scope)
    assert out.getvalue().splitlines() == [
        "AlgebraElement(4, (x)*{1,2|3|4,1',2',3',4'})",
        """["1|2,2'|3,3'|1'", "1,2'|2,1'|3,3'", "1,2'|2,3'|3,1'", "1,2,1',2'|3,3'"]""",
        "{'n': 4, 'k': 2, 'centralizer_dim': 15, 'diagram_span_rank': 15, 'commutant_of_perms_dim': 15, "
        "'perm_span_dim': 23, 'commutant_of_diagrams_dim': 23, 'surjectivity_verdict': True, "
        "'double_commutant_verdict': True}",
    ]
    lhs, rhs = scope["lhs"], scope["rhs"]
    assert lhs * rhs == multiply(lhs, rhs) and repr(lhs * rhs) == out.getvalue().splitlines()[0]
    assert repr(AlgebraElement(4)) == "AlgebraElement(4, 0)"


def test_algebra_element_bookkeeping():
    d = D2[0]
    zero = AlgebraElement(2, {d: Poly.zero()})
    assert zero.is_zero()
    elem = AlgebraElement(2, {d: Poly.of(1)})
    assert elem + AlgebraElement(2, {d: Poly.of(-1)}) == AlgebraElement(2)
    assert elem.coeff(d) == Poly.one()
    assert elem.coeff(D2[1]).is_zero()
    with pytest.raises(ValueError):
        AlgebraElement(2, {identity(3): Poly.one()})
    with pytest.raises(ValueError):
        elem + AlgebraElement(3)


def test_algebra_element_json_terms_are_sorted():
    a = AlgebraElement(2, {D2[3]: Poly.of(1), D2[1]: Poly.of(0, 1)})
    terms = a.to_json_terms()
    assert terms == [
        {"coeff": ["0/1", "1/1"], "diagram": D2[1].to_text()},
        {"coeff": ["1/1"], "diagram": D2[3].to_text()},
    ]


def test_parse_roundtrip_every_k3_diagram():
    for d in D3:
        assert parse_diagram(d.to_text()) == d


def test_rect_diagram_constraint():
    d = parse_rect_diagram("1,2:1,1',2'")
    assert (d.k_top, d.l_bottom) == (1, 2)
    with pytest.raises(ValueError, match="isolated to the top row"):
        RectDiagram(2, 1, from_blocks(3, [[0, 1], [2]]))
    # bottom-isolated blocks are fine
    RectDiagram(1, 2, from_blocks(3, [[0, 1], [2]]))
    with pytest.raises(ValueError):
        RectDiagram(1, 1, from_blocks(3, [[0, 1, 2]]))


def test_rect_diagram_refuses_the_first_top_only_block_in_block_order():
    # blocks (0, 4), (1, 3), (2,): the first one isolated to the top row of 4 is named, 0-based
    with pytest.raises(ValueError, match=r"^block \(1, 3\) is isolated to the top row$"):
        RectDiagram(4, 1, SetPartition((0, 1, 2, 1, 0)))
    for g in range(6):
        for p in enumerate_partitions(g):
            for k in range(g + 1):
                # oracle: the first block in block order that has no bottom vertex
                isolated = [b for b in p.blocks if all(v < k for v in b)]
                if isolated:
                    with pytest.raises(ValueError) as err:
                        RectDiagram(k, g - k, p)
                    assert str(err.value) == f"block {isolated[0]} is isolated to the top row"
                else:
                    assert RectDiagram(k, g - k, p).part == p


def test_rect_text_roundtrip():
    for text in ("1,2:1,1',2'", "2,1:1,2,1'", "0,2:1',2'", "2,2:1,1'|2,2'"):
        assert parse_rect_diagram(text).to_text() == text
    with pytest.raises(ValueError, match="prefix"):
        parse_rect_diagram("1,1'|2,2'")


def test_rect_compose_examples():
    d1 = parse_rect_diagram("1,2:1,1',2'")
    d2 = parse_rect_diagram("2,1:1,2,1'")
    assert rect_compose(d1, d2) == parse_rect_diagram("1,1:1,1'")
    assert rect_compose(d2, d1) == parse_rect_diagram("2,2:1,2,1',2'")
    # shape mismatch is the zero of the composition, not an error
    assert rect_compose(d1, d1) is None
    ident = parse_rect_diagram("2,2:1,1'|2,2'")
    assert rect_compose(ident, ident) == ident


def _rect_pool(k: int, l: int) -> list[RectDiagram]:
    pool = []
    for p in enumerate_partitions(k + l):
        if all(any(v >= k for v in block) for block in p.blocks):
            pool.append(RectDiagram(k, l, p))
    return pool


def test_rect_compose_randomized_shapes_have_no_middle_components():
    rng = random.Random(23)
    for _ in range(40):
        # a shape with an empty bottom row admits no diagrams at all
        k, mid, l = rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)
        d1 = rng.choice(_rect_pool(k, mid))
        d2 = rng.choice(_rect_pool(mid, l))
        out = rect_compose(d1, d2)
        assert out is not None and (out.k_top, out.l_bottom) == (k, l)
        # independent recount of swallowed components over the stacked graph
        edges = []
        for block in d1.part.blocks:
            edges.extend((block[0], v) for v in block[1:])
        for block in d2.part.blocks:
            edges.extend((block[0] + k, v + k) for v in block[1:])
        comps = _components(k + mid + l, edges)
        assert all(any(v < k or v >= k + mid for v in comp) for comp in comps)
        if l != d2.k_top:
            assert rect_compose(d2, d2) is None or l == mid


@st.composite
def stacked_partitions(draw) -> tuple[SetPartition, SetPartition, int, int]:
    # rectangular shapes, empty rows included, with any set partitions on them
    top, mid, bottom = (draw(st.integers(0, 4)) for _ in range(3))

    def partition(size: int) -> SetPartition:
        return from_labels(draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)))

    return partition(top + mid), partition(mid + bottom), top, mid


@settings(max_examples=200, deadline=None)
@given(stack=stacked_partitions())
def test_stacking_blocks_matches_a_union_find_over_the_vertices(stack):
    p1, p2, top, mid = stack
    bottom = p2.ground_size - mid
    # nodes: the top row of p1, the fused middle row, then the bottom row of p2
    dsu = DisjointSets(top + mid + bottom)
    for block in p1.blocks:
        for v in block[1:]:
            dsu.union(block[0], v)
    for block in p2.blocks:
        for v in block[1:]:
            dsu.union(block[0] + top, v + top)
    labels = [dsu.find(v) for v in (*range(top), *range(top + mid, top + mid + bottom))]
    middle_only = {dsu.find(v) for v in range(top, top + mid)} - set(labels)
    assert diagram._stack(p1, p2, top, mid) == (from_labels(labels), len(middle_only))


def test_rect_compose_agrees_with_diagram_product_on_square_shapes():
    # top-propagating diagrams are exactly the square rectangular ones
    for d1 in enumerate_diagrams(2, "top"):
        for d2 in enumerate_diagrams(2, "top"):
            r1 = RectDiagram(2, 2, d1.part)
            r2 = RectDiagram(2, 2, d2.part)
            out = rect_compose(r1, r2)
            d, middles = concat(d1, d2)
            assert middles == 0
            assert out is not None and out.part == d.part
