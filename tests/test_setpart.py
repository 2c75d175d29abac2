from __future__ import annotations

import math
import random
import time
from itertools import islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partalg.diagram import enumerate_diagrams
from partalg.setpart import (
    SetPartition,
    _stirling_row,
    bell_number,
    count_partitions,
    enumerate_partitions,
    from_blocks,
    from_edges,
    from_labels,
    orbit_partition,
    parse_text,
    refines,
    stirling2,
)

# frozen expected counts, re-derived below by an independent recurrence
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def _bell_oracle(n: int) -> int:
    # B(m+1) = sum_j C(m, j) B(j); different recurrence from the package's triangle
    vals = [1]
    for m in range(n):
        vals.append(sum(math.comb(m, j) * vals[j] for j in range(m + 1)))
    return vals[n]


def _partitions_oracle(g: int) -> list[list[list[int]]]:
    # grow explicit block lists element by element; independent of the RGS generator
    parts: list[list[list[int]]] = [[]]
    for v in range(g):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                q = [list(b) for b in p]
                q[i].append(v)
                nxt.append(q)
            nxt.append([list(b) for b in p] + [[v]])
        parts = nxt
    return parts


def test_rgs_canonical_form_is_validated():
    SetPartition((0, 0, 1, 2, 0))
    with pytest.raises(ValueError):
        SetPartition((1, 0))
    with pytest.raises(ValueError):
        SetPartition((0, 2))
    with pytest.raises(ValueError):
        SetPartition((0, -1))


@given(st.lists(st.integers(-3, 6), max_size=12))
def test_from_labels_output_equals_the_validated_partition(labels):
    # from_labels skips the RGS check; the public constructor re-checks its output here
    p = from_labels(labels)
    assert p == SetPartition(list(p.rgs)) and hash(p) == hash(SetPartition(p.rgs))
    assert all((p.rgs[a] == p.rgs[b]) == (labels[a] == labels[b]) for a, b in product(range(len(labels)), repeat=2))


def test_enumerated_partitions_equal_the_validated_ones():
    for g in range(7):
        for cap in (None, 1, 2, 3):
            assert all(p == SetPartition(p.rgs) for p in enumerate_partitions(g, max_blocks=cap))


def test_blocks_and_sizes():
    p = SetPartition((0, 0, 1, 2, 0, 2, 2, 2))
    assert p.ground_size == 8
    assert p.num_blocks == 3
    assert p.blocks == ((0, 1, 4), (2,), (3, 5, 6, 7))
    empty = SetPartition(())
    assert empty.ground_size == 0 and empty.num_blocks == 0 and empty.blocks == ()


def test_from_blocks_display_example():
    p = from_blocks(8, [[0, 1, 4], [2], [3, 5, 6, 7]])
    assert p.rgs == (0, 0, 1, 2, 0, 2, 2, 2)


def test_from_blocks_canonicalizes_block_order():
    assert from_blocks(4, [[3, 1], [0, 2]]).rgs == (0, 1, 0, 1)
    assert from_blocks(3, [[2], [1], [0]]).rgs == (0, 1, 2)


def test_from_blocks_validation_names_the_vertex():
    with pytest.raises(ValueError, match="vertex 1 appears in more than one"):
        from_blocks(2, [[0, 1], [1]])
    with pytest.raises(ValueError, match="vertex 2 is missing"):
        from_blocks(3, [[0, 1]])
    with pytest.raises(ValueError, match="out of range"):
        from_blocks(2, [[0, 5], [1]])


def test_from_edges_two_graphs_same_partition():
    left = from_edges(8, [(0, 4), (4, 1), (5, 6), (6, 7), (7, 3)])
    right = from_edges(8, [(4, 0), (0, 1), (3, 6), (6, 7), (7, 3), (3, 5)])
    assert left == right
    assert left.rgs == (0, 0, 1, 2, 0, 2, 2, 2)


def test_from_edges_no_edges_gives_singletons():
    assert from_edges(3, []).rgs == (0, 1, 2)


def test_from_edges_validation():
    with pytest.raises(ValueError, match="endpoint"):
        from_edges(3, [(0, 3)])


def relabelled_components(size: int, edges) -> list[int]:
    """Component labels by repeated relabelling: each edge renames one endpoint's label to the other's everywhere.

    A quick-find over the vertices that shares no code with `setpart._components`.
    """
    labels = list(range(size))
    for a, b in edges:
        old, new = labels[b], labels[a]
        labels = [new if lab == old else lab for lab in labels]
    return labels


@st.composite
def graphs(draw) -> tuple[int, list[tuple[int, int]]]:
    size = draw(st.integers(0, 12))
    vertex = st.integers(0, max(size - 1, 0))
    return size, draw(st.lists(st.tuples(vertex, vertex), max_size=3 * size))


@settings(max_examples=200, deadline=None)
@given(graph=graphs(), data=st.data())
def test_from_edges_matches_the_relabelling_oracle(graph, data):
    size, edges = graph
    expected = from_labels(relabelled_components(size, edges))
    assert from_edges(size, edges) == expected
    assert from_edges(size, iter(edges)) == expected  # a one-shot iterator is read once
    if not size:
        return
    # a bad endpoint after good edges is named as before, whichever end of its edge it is
    bad = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=size), st.just(0.0)))
    good = data.draw(st.integers(0, size - 1))
    edge = data.draw(st.sampled_from([(bad, good), (good, bad)]))
    with pytest.raises(ValueError) as info:
        from_edges(size, iter([*edges, edge]))
    assert str(info.value) == f"edge endpoint {bad!r} out of range for ground size {size}"


def test_from_edges_on_a_long_chain_is_near_linear():
    # the upper half is chained from its far end, so its deep end sits 50,000 links below the root, and every
    # lower vertex then joins that deep end: without path halving each find would walk the whole chain
    n = 100_000
    half = n // 2
    edges = [(i, i + 1) for i in range(n - 2, half - 1, -1)] + [(n - 1, j) for j in range(half - 1, -1, -1)]
    start = time.perf_counter()
    p = from_edges(n, edges)
    assert time.perf_counter() - start < 2
    assert p.rgs == (0,) * n


def test_from_edges_any_spanning_graph_recovers_the_partition():
    rng = random.Random(7)
    for g in range(1, 9):
        for p in rng.sample(list(enumerate_partitions(g)), min(12, bell_number(g))):
            edges = []
            for block in p.blocks:
                order = list(block)
                rng.shuffle(order)
                edges.extend(zip(order, order[1:]))
                if len(block) > 2:  # redundant in-block edge must not matter
                    edges.append((block[0], block[-1]))
            rng.shuffle(edges)
            assert from_edges(g, edges) == p


def test_enumerate_counts_order_and_distinctness():
    for g in range(9):
        seen = list(enumerate_partitions(g))
        assert len(seen) == BELL[g]
        keys = [p.rgs for p in seen]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_enumerate_matches_independent_oracle():
    for g in range(7):
        ours = {p.rgs for p in enumerate_partitions(g)}
        oracle = {from_blocks(g, blocks).rgs for blocks in _partitions_oracle(g)}
        assert ours == oracle


def test_enumerate_g2_order():
    assert [p.rgs for p in enumerate_partitions(2)] == [(0, 0), (0, 1)]


def test_enumerate_max_blocks():
    assert sum(1 for _ in enumerate_partitions(4, max_blocks=2)) == 8
    assert [p.rgs for p in enumerate_partitions(3, max_blocks=1)] == [(0, 0, 0)]
    for p in enumerate_partitions(5, max_blocks=3):
        assert p.num_blocks <= 3
    with pytest.raises(ValueError):
        list(enumerate_partitions(3, max_blocks=0))


def _rgs_oracle(g: int, max_blocks: int | None) -> list[tuple[int, ...]]:
    # the recursive walk the loop replaced: label t runs over the used labels, then one new label, under the cap
    cap = g if max_blocks is None else min(max_blocks, g)
    out, rgs = [], [0] * g

    def rec(t: int, used: int) -> None:
        if t == g:
            out.append(tuple(rgs))
            return
        for v in range(min(used + 1, cap)):
            rgs[t] = v
            rec(t + 1, used + (v == used))

    rec(0, 0)
    return out


def test_enumerate_walks_in_the_recursive_order_at_every_cap():
    for g in range(10):
        for cap in (None, *range(1, g + 2)):
            assert [p.rgs for p in enumerate_partitions(g, max_blocks=cap)] == _rgs_oracle(g, cap), (g, cap)
    assert [p.rgs for p in enumerate_partitions(0)] == [()]


def test_enumerate_does_not_recurse_per_vertex():
    # 1200 vertices passed Python's default recursion limit when each vertex took a frame
    assert [p.rgs for p in enumerate_partitions(1200, max_blocks=1)] == [(0,) * 1200]
    assert [d.part.rgs for d in enumerate_diagrams(600, max_blocks=1)] == [(0,) * 1200]
    first = [p.rgs for p in islice(enumerate_partitions(1200, max_blocks=2), 3)]
    assert first == [(0,) * 1200, (0,) * 1199 + (1,), (0,) * 1198 + (1, 0)]


def test_count_partitions_and_bell():
    assert [bell_number(g) for g in range(9)] == BELL
    assert [count_partitions(g) for g in range(9)] == BELL
    for g in range(11):
        assert bell_number(g) == _bell_oracle(g)
    assert count_partitions(4, max_blocks=2) == 8
    assert count_partitions(4, max_blocks=3) == 14
    assert count_partitions(4, max_blocks=9) == 15
    assert count_partitions(0, max_blocks=3) == 1


def test_count_matches_enumeration_with_max_blocks():
    for g in range(7):
        for mb in range(1, 6):
            assert count_partitions(g, max_blocks=mb) == sum(
                1 for _ in enumerate_partitions(g, max_blocks=mb)
            )


def test_stirling_numbers():
    assert [stirling2(4, j) for j in range(5)] == [0, 1, 7, 6, 1]
    assert stirling2(0, 0) == 1
    assert stirling2(3, 5) == 0
    for g in range(8):
        assert sum(stirling2(g, j) for j in range(g + 1)) == BELL[g]
    # against enumeration by exact block count
    for g in range(7):
        by_count: dict[int, int] = {}
        for p in enumerate_partitions(g):
            by_count[p.num_blocks] = by_count.get(p.num_blocks, 0) + 1
        for j in range(1, g + 1):
            assert stirling2(g, j) == by_count.get(j, 0)
    # a row capped at cap blocks is the prefix of the full row
    for g in range(12):
        for cap in range(13):
            assert _stirling_row(g, cap) == _stirling_row(g, g)[: cap + 1]


def test_orbit_partition_examples():
    assert orbit_partition((1, 2, 2, 3, 1)).blocks == ((0, 4), (1, 2), (3,))
    assert orbit_partition((4, 1, 1, 2, 4)) == orbit_partition((1, 2, 2, 3, 1))
    assert orbit_partition((7, 7, 7)).rgs == (0, 0, 0)
    assert orbit_partition(()) == SetPartition(())
    with pytest.raises(ValueError):
        orbit_partition((1, 0))


def test_orbit_partition_is_a_symmetry_invariant():
    # exhaustive over [4]^3 and all of S_4
    for t in product(range(1, 5), repeat=3):
        base = orbit_partition(t)
        for sigma in permutations(range(1, 5)):
            assert orbit_partition(tuple(sigma[v - 1] for v in t)) == base


def test_refines_basics():
    fine = SetPartition((0, 1, 2, 3))
    coarse = SetPartition((0, 0, 0, 0))
    mid = SetPartition((0, 0, 1, 1))
    assert refines(fine, mid) and refines(mid, coarse) and refines(fine, coarse)
    assert not refines(coarse, mid)
    assert not refines(SetPartition((0, 1, 0)), SetPartition((0, 0, 1)))
    with pytest.raises(ValueError):
        refines(SetPartition((0,)), SetPartition((0, 1)))


def test_refines_is_a_partial_order():
    parts = list(enumerate_partitions(4))
    rel = {(p.rgs, q.rgs) for p in parts for q in parts if refines(p, q)}
    for p in parts:
        assert (p.rgs, p.rgs) in rel
        for q in parts:
            if (p.rgs, q.rgs) in rel and (q.rgs, p.rgs) in rel:
                assert p == q
            for r in parts:
                if (p.rgs, q.rgs) in rel and (q.rgs, r.rgs) in rel:
                    assert (p.rgs, r.rgs) in rel
    singles = SetPartition((0, 1, 2, 3))
    ones = SetPartition((0, 0, 0, 0))
    assert all((singles.rgs, p.rgs) in rel and (p.rgs, ones.rgs) in rel for p in parts)


def test_parse_text_roundtrip_with_primes():
    text = "1,2,1'|3|4,2',3',4'"
    p = parse_text(text, top_size=4, ground_size=8)
    assert p.rgs == (0, 0, 1, 2, 0, 2, 2, 2)
    assert p.to_text(top_size=4) == text
    assert parse_text("  1 , 2 , 1' |3|  4,2',3',4' ", top_size=4) == p


def test_parse_text_plain_and_rgs():
    assert parse_text("1,3|2").rgs == (0, 1, 0)
    assert parse_text("rgs:0,0,1,2,0,2,2,2").rgs == (0, 0, 1, 2, 0, 2, 2, 2)
    assert parse_text("rgs: 0, 1 ").rgs == (0, 1)
    # with no ground size given, the ground is the top row and the bottom row up to its largest primed label
    assert parse_text("1,2'|2|3|1'", top_size=3).rgs == (0, 1, 2, 3, 0)
    assert parse_text("1,2|3", top_size=3).rgs == (0, 0, 1)
    with pytest.raises(ValueError, match="^vertex 3 is missing from the blocks$"):
        parse_text("1,2", top_size=3)


def test_parse_text_errors_name_the_vertex_as_written():
    # vertices are named in the text's own labels, not by their 0-based index
    for text, top, ground, message in [
        ("1'", 1, 2, "vertex 1 is missing from the blocks"),
        ("1,1'|2,2'", 3, 6, "vertex 3 is missing from the blocks"),
        ("1,1'|2", 2, 4, "vertex 2' is missing from the blocks"),
        ("1,3'|2,1'|2'", 2, 4, "vertex 3' out of range for ground size 4"),
        ("1|2|3", None, 2, "vertex 3 out of range for ground size 2"),
        ("1|1", None, 2, "vertex 1 appears in more than one block"),
        ("1,2'|2,2'", 2, 4, "vertex 2' appears in more than one block"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_text(text, top_size=top, ground_size=ground)
        assert str(err.value) == message


def test_parse_text_errors():
    with pytest.raises(ValueError, match="malformed vertex token"):
        parse_text("1,x|2")
    with pytest.raises(ValueError, match="primed vertex"):
        parse_text("1,1'|2")
    with pytest.raises(ValueError, match="exceeds top size"):
        parse_text("1,3|2,1',2',3'", top_size=2)
    with pytest.raises(ValueError, match="missing"):
        parse_text("1,3|2", ground_size=4)
    with pytest.raises(ValueError, match="malformed rgs"):
        parse_text("rgs:0,a")
    with pytest.raises(ValueError, match="does not match expected ground size"):
        parse_text("rgs:0,0,1", ground_size=4)
    with pytest.raises(ValueError, match="breaks restricted growth"):
        parse_text("rgs:0,2")
    with pytest.raises(ValueError, match="labels start at 1"):
        parse_text("0,1")


def test_to_text_plain():
    assert SetPartition((0, 1, 0)).to_text() == "1,3|2"
    assert SetPartition((0,) * 4).to_text() == "1,2,3,4"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: from_blocks(-1, []), "ground size must be non-negative", id="from_blocks"),
        pytest.param(lambda: from_edges(-1, []), "ground size must be non-negative", id="from_edges"),
        pytest.param(lambda: next(enumerate_partitions(-1)), "ground size must be non-negative", id="enumerate"),
        pytest.param(lambda: bell_number(-1), "ground size must be non-negative", id="bell_number"),
        pytest.param(lambda: stirling2(-1, 0), "arguments must be non-negative", id="stirling2"),
        pytest.param(lambda: count_partitions(-1), "ground size must be non-negative", id="count_partitions"),
        pytest.param(lambda: count_partitions(3, 0), "max_blocks must be at least 1", id="count_no_blocks"),
    ],
)
def test_negative_sizes_and_block_caps_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
