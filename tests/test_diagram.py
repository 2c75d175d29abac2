from __future__ import annotations

import random
from itertools import product

import pytest

from partalg.diagram import (
    AlgebraElement,
    Diagram,
    Poly,
    RectDiagram,
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
from partalg.setpart import SetPartition, enumerate_partitions, from_blocks

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
        with pytest.raises(ValueError):
            partition_algebra_generators(k)


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
