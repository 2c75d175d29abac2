"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.
Every check is exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from partalg.centralizer import rank_of_rows, verify_schur_weyl
from partalg.diagram import (
    AlgebraElement,
    Poly,
    RectDiagram,
    concat,
    enumerate_diagrams,
    is_bottom_propagating,
    is_top_propagating,
    is_uniform,
    multiply,
    parse_diagram,
    rect_compose,
)
from partalg.rep import PermWord, act, entry, matrix, perm_matrix, tuple_rank
from partalg.seqmodel import (
    GeometricWeights,
    act_on_invariants,
    classify_column_finite,
    classify_linf_bounded,
    classify_lp_bounded,
    invariant_dim,
    l1_truncated_norm,
    linf_matrix_norm,
    monomial_vector,
)
from partalg.setpart import (
    bell_number,
    enumerate_partitions,
    from_edges,
    orbit_partition,
    parse_text,
)

D2 = list(enumerate_diagrams(2))
HALF = GeometricWeights(Fraction(1, 2))


def _report(cid: str, label: str, ok: bool) -> bool:
    print(f"[{cid} {label}] {'PASS' if ok else 'FAIL'}")
    return ok


def test_c01_worked_diagram_product():
    lhs = AlgebraElement.from_diagram(parse_diagram("1,2|3|4,3',4'|1',2'"))
    rhs = AlgebraElement.from_diagram(parse_diagram("1|2|3,1'|4,2',3',4'"))
    expected = AlgebraElement.from_diagram(
        parse_diagram("1,2|3|4,1',2',3',4'"), Poly.x_power(1)
    )
    ok = multiply(lhs, rhs) == expected
    assert _report("C01", "diagram-product", ok)


def test_c02_edge_lists_name_the_same_partition():
    left = from_edges(8, [(0, 4), (4, 1), (5, 6), (6, 7), (7, 3)])
    right = from_edges(8, [(4, 0), (0, 1), (3, 6), (6, 7), (7, 3), (3, 5)])
    target = parse_text("1,2,1'|3|4,2',3',4'", top_size=4)
    ok = left == right == target and left.rgs == (0, 0, 1, 2, 0, 2, 2, 2)
    assert _report("C02", "edge-list-equivalence", ok)


def test_c03_matrix_entry_values():
    d = parse_diagram("1,1',2'|2")
    ok = (
        entry(d, (3, 7), (3, 5)) == 0
        and entry(d, (3, 7), (3, 3)) == 1
        and entry(d, (4, 4), (4, 4)) == 1
    )
    assert _report("C03", "matrix-entries", ok)


def test_c04_tensor_action_identities():
    n = 4

    def action(d_text: str, i: int, j: int) -> list[Fraction]:
        vec = [Fraction(0)] * (n * n)
        vec[tuple_rank((i, j), n)] = Fraction(1)
        return act(matrix(parse_diagram(d_text), n), vec)

    def basis(*pairs: tuple[int, int]) -> list[Fraction]:
        vec = [Fraction(0)] * (n * n)
        for pair in pairs:
            vec[tuple_rank(pair, n)] += Fraction(1)
        return vec

    ok = True
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            merge_all = basis((i, i)) if i == j else basis()
            ok = ok and action("1,2,1',2'", i, j) == merge_all
            ok = ok and action("1,2'|2,1'", i, j) == basis((j, i))
            diag = basis(*((l, l) for l in range(1, n + 1))) if i == j else basis()
            ok = ok and action("1,2|1',2'", i, j) == diag
            ok = ok and action("1|2,1'|2'", i, j) == basis(*((l, i) for l in range(1, n + 1)))
    assert _report("C04", "tensor-action-identities", ok)


def test_c05_diagram_span_fills_the_centralizer():
    expected = {(4, 2): 15, (5, 2): 15, (2, 2): 8, (3, 2): 14}
    ok = True
    for (n, k), dim in expected.items():
        rep = verify_schur_weyl(n, k)
        ok = ok and rep.surjectivity_verdict
        ok = ok and rep.centralizer_dim == rep.diagram_span_rank == dim
        ok = ok and rep.commutant_of_perms_dim == dim
        # independent oracle: count value-coincidence patterns of [n]^{2k}
        orbits = {orbit_partition(t) for t in product(range(1, n + 1), repeat=2 * k)}
        ok = ok and len(orbits) == dim
    assert _report("C05", "centralizer-dimensions", ok)


def test_c06_commutant_of_diagrams_is_the_permutation_span():
    ok = True
    for n, k in ((2, 1), (3, 1), (4, 1), (3, 2)):
        rep = verify_schur_weyl(n, k)
        ok = ok and rep.double_commutant_verdict
        if (n, k) == (3, 1):
            ok = ok and rep.commutant_of_diagrams_dim == 5
    assert _report("C06", "double-commutant", ok)


def test_c07_matrices_represent_the_diagram_product():
    ok = True
    for n in (2, 3):
        mats = {d: matrix(d, n) for d in D2}
        for d1, d2 in product(D2, repeat=2):
            d, middles = concat(d1, d2)
            ok = ok and mats[d1] @ mats[d2] == mats[d].scaled(Fraction(n) ** middles)
    assert _report("C07", "representation-property", ok)


def test_c08_enumeration_counts():
    ok = (
        [len(list(enumerate_diagrams(k))) for k in (1, 2, 3)] == [2, 15, 203]
        and [len(list(enumerate_diagrams(k, "uniform"))) for k in (1, 2, 3)] == [1, 3, 16]
        and len(list(enumerate_diagrams(2, "top"))) == 5
        and len(list(enumerate_diagrams(2, "bottom"))) == 5
        and [bell_number(2 * k) for k in (1, 2, 3)] == [2, 15, 203]
    )
    assert _report("C08", "enumeration-counts", ok)


def test_c09_weighted_l1_boundedness_classification():
    ok = all(classify_lp_bounded(d, HALF) == is_uniform(d) for d in D2)
    for d in enumerate_diagrams(2, "uniform"):
        for trunc in (2, 4, 6, 8):
            ok = ok and l1_truncated_norm(d, trunc, HALF) == 1
    grower = parse_diagram("2,1'|1|2'")
    ok = ok and l1_truncated_norm(grower, 4, HALF) == 15
    ok = ok and l1_truncated_norm(grower, 8, HALF) == 255
    assert _report("C09", "weighted-l1-classification", ok)


def test_c10_sup_norm_boundedness_classification():
    ok = all(classify_linf_bounded(d) == is_bottom_propagating(d) for d in D2)
    for text in ("1,2|3|4,3',4'|1',2'", "1|2|3,1'|4,2',3',4'"):
        d = parse_diagram(text)
        ok = ok and classify_linf_bounded(d) == is_bottom_propagating(d)
    for d in enumerate_diagrams(2, "bottom"):
        for trunc in (3, 5, 8):
            ok = ok and linf_matrix_norm(d, trunc) == 1
    assert _report("C10", "sup-norm-classification", ok)


def test_c11_column_finiteness_and_rectangular_composition():
    ok = all(classify_column_finite(d) == is_top_propagating(d) for d in D2)

    def pool(k: int, l: int) -> list[RectDiagram]:
        keep = []
        for p in enumerate_partitions(k + l):
            if all(any(v >= k for v in block) for block in p.blocks):
                keep.append(RectDiagram(k, l, p))
        return keep

    def components(n: int, edges: list[tuple[int, int]]) -> list[set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen: set[int] = set()
        out = []
        for v in range(n):
            if v in seen:
                continue
            queue, comp = [v], set()
            while queue:
                u = queue.pop()
                if u not in comp:
                    comp.add(u)
                    queue.extend(adj[u] - comp)
            seen |= comp
            out.append(comp)
        return out

    rng = random.Random(53)
    for _ in range(30):
        k, mid, l = rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 4)
        d1, d2 = rng.choice(pool(k, mid)), rng.choice(pool(mid, l))
        composed = rect_compose(d1, d2)
        ok = ok and composed is not None
        # mismatched shapes compose to the zero marker, exactly
        if l != k:
            ok = ok and rect_compose(d2, d1) is None
        if mid != k:
            ok = ok and rect_compose(d1, d1) is None
        edges: list[tuple[int, int]] = []
        for block in d1.part.blocks:
            edges.extend((block[0], v) for v in block[1:])
        for block in d2.part.blocks:
            edges.extend((block[0] + k, v + k) for v in block[1:])
        for comp in components(k + mid + l, edges):
            ok = ok and any(v < k or v >= k + mid for v in comp)
    assert _report("C11", "column-finite-classification", ok)


def test_c12_monomial_invariants_form_a_basis():
    ok = True
    for k, n in ((2, 2), (2, 4), (3, 3), (3, 5)):
        rows = []
        for pi in enumerate_partitions(k):
            vec = monomial_vector(pi, n).vector
            rows.append({i: Fraction(v) for i, v in enumerate(vec) if v})
        ok = ok and rank_of_rows(rows) == bell_number(k) == invariant_dim(n, k)
        orbits = {orbit_partition(t) for t in product(range(1, n + 1), repeat=k)}
        ok = ok and len(orbits) == invariant_dim(n, k)
        for pi in enumerate_partitions(k):
            vec = [Fraction(v) for v in monomial_vector(pi, n).vector]
            for pos in range(1, n):
                swap = perm_matrix(PermWord.transposition(n, pos, pos + 1), k)
                ok = ok and act(swap, vec) == vec
    assert _report("C12", "invariant-basis-rank", ok)


def test_c13_propagating_diagrams_act_independently_of_size():
    ok = True
    for d in enumerate_diagrams(2, "bottom"):
        for pi in enumerate_partitions(2):
            small = {t.rgs: c for t, c in act_on_invariants(d, pi, 3).items()}
            large = {t.rgs: c for t, c in act_on_invariants(d, pi, 4).items()}
            ok = ok and small == large
    witness = parse_diagram("1,1'|2|2'")
    split = parse_text("1|2")
    ok = ok and act_on_invariants(witness, split, 3) == {split: Fraction(3)}
    ok = ok and act_on_invariants(witness, split, 4) == {split: Fraction(4)}
    assert _report("C13", "size-independent-action", ok)
