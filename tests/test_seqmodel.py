from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partalg import cli
from partalg.centralizer import rank_of_rows
from partalg.diagram import (
    Diagram,
    _shapes,
    enumerate_diagrams,
    flip,
    identity,
    is_bottom_propagating,
    is_top_propagating,
    is_uniform,
    parse_diagram,
)
from partalg import rep, seqmodel
from partalg.rep import BudgetExceededError, PermWord, _constant_ranks, act, matrix, perm_matrix, tuple_rank, unrank_tuple
from partalg.seqmodel import (
    GeometricWeights,
    act_on_invariants,
    classify_column_finite,
    classify_linf_bounded,
    classify_lp_bounded,
    invariant_dim,
    l1_truncated_norm,
    linf_matrix_norm,
    linf_norm_profile,
    lp_norm_profile,
    monomial_vector,
)
from partalg.setpart import SetPartition, enumerate_partitions, from_blocks, from_labels, orbit_partition, refines
from test_diagram import shape

HALF = GeometricWeights(Fraction(1, 2))
THIRD = GeometricWeights(Fraction(1, 3))

D1 = list(enumerate_diagrams(1))
D2 = list(enumerate_diagrams(2))


def _indicator(d: Diagram, top: tuple[int, ...], bot: tuple[int, ...]) -> int:
    values = list(top) + list(bot)
    return int(all(len({values[v] for v in block}) == 1 for block in d.part.blocks))


def _l1_oracle(d: Diagram, trunc: int, w: GeometricWeights) -> Fraction:
    k = d.k
    best = Fraction(0)
    for bot in product(range(1, trunc + 1), repeat=k):
        col = Fraction(0)
        for top in product(range(1, trunc + 1), repeat=k):
            if _indicator(d, top, bot):
                weight = Fraction(1)
                for v in top:
                    weight *= w.mu(v)
                col += weight
        denom = Fraction(1)
        for v in bot:
            denom *= w.mu(v)
        best = max(best, col / denom)
    return best


def _linf_oracle(d: Diagram, trunc: int) -> Fraction:
    k = d.k
    best = 0
    for top in product(range(1, trunc + 1), repeat=k):
        count = sum(
            _indicator(d, top, bot) for bot in product(range(1, trunc + 1), repeat=k)
        )
        best = max(best, count)
    return Fraction(best)


def test_geometric_weights_validation():
    assert HALF.mu(1) == Fraction(1, 2)
    assert HALF.mu(3) == Fraction(1, 8)
    assert THIRD.mu_tuple((1, 2)) == Fraction(1, 27)
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            GeometricWeights(bad)
    with pytest.raises(ValueError):
        HALF.mu(0)


def test_l1_norm_matches_definitional_oracle():
    for d in D1:
        for w in (HALF, THIRD):
            assert l1_truncated_norm(d, 4, w) == _l1_oracle(d, 4, w)
    for d in D2:
        for w in (HALF, THIRD):
            assert l1_truncated_norm(d, 3, w) == _l1_oracle(d, 3, w)


def test_linf_norm_matches_definitional_oracle():
    for d in D1:
        assert linf_matrix_norm(d, 4) == _linf_oracle(d, 4)
    for d in D2:
        assert linf_matrix_norm(d, 3) == _linf_oracle(d, 3)


def test_l1_norm_frozen_values():
    d = parse_diagram("2,1'|1|2'")
    assert l1_truncated_norm(d, 4, HALF) == 15
    assert l1_truncated_norm(d, 8, HALF) == 255
    assert l1_truncated_norm(identity(2), 6, HALF) == 1
    assert l1_truncated_norm(parse_diagram("1,2'|2,1'"), 6, HALF) == 1


def test_uniform_diagrams_have_l1_norm_one():
    for d in enumerate_diagrams(2, "uniform"):
        for trunc in (2, 4, 6, 8):
            for w in (HALF, THIRD):
                assert l1_truncated_norm(d, trunc, w) == 1


def test_l1_norm_is_monotone_in_truncation():
    for d in D2:
        norms = [l1_truncated_norm(d, trunc, HALF) for trunc in (2, 3, 4, 5)]
        assert norms == sorted(norms)


def test_lp_classifier_agrees_with_uniformity():
    for d in D2:
        assert classify_lp_bounded(d) == is_uniform(d)
    rng = random.Random(31)
    for d in rng.sample(list(enumerate_diagrams(3)), 25):
        assert classify_lp_bounded(d, THIRD) == is_uniform(d)


def test_linf_norm_frozen_values():
    assert linf_matrix_norm(parse_diagram("1|1'"), 7) == 7
    for trunc in (2, 5, 9):
        assert linf_matrix_norm(parse_diagram("1,1'|2|2'"), trunc) == trunc
    for d in enumerate_diagrams(2, "bottom"):
        for trunc in (3, 6):
            assert linf_matrix_norm(d, trunc) == 1
    # one free bottom block contributes a factor of the truncation, not of
    # the block size
    assert linf_matrix_norm(parse_diagram("1,1'|2',3'|2,3,4,4'"), 5) == 5


def test_linf_classifier_agrees_with_bottom_propagation():
    for d in D2:
        assert classify_linf_bounded(d) == is_bottom_propagating(d)
    assert classify_linf_bounded(parse_diagram("1,1'|2,3|4,2',3',4'"))
    assert not classify_linf_bounded(parse_diagram("1,1'|2',3'|2,3,4,4'"))
    rng = random.Random(37)
    for d in rng.sample(list(enumerate_diagrams(3)), 25):
        assert classify_linf_bounded(d) == is_bottom_propagating(d)


def test_column_finiteness_classifier_agrees_with_top_propagation():
    for d in D1 + D2:
        assert classify_column_finite(d) == is_top_propagating(d)
    assert not classify_column_finite(parse_diagram("1|1'"))
    rng = random.Random(43)
    for d in rng.sample(list(enumerate_diagrams(3)), 25):
        assert classify_column_finite(d) == is_top_propagating(d)


def _five_tests(d: Diagram) -> tuple[bool, ...]:
    """The sup-norm and column tests and the three block criteria: every test but the l1 norm's scan."""
    return classify_linf_bounded(d), classify_column_finite(d), is_uniform(d), is_bottom_propagating(d), is_top_propagating(d)


def _six_tests(d: Diagram) -> tuple[bool, ...]:
    return classify_lp_bounded(d, HALF), *_five_tests(d)


def test_the_six_tests_are_constant_on_each_shape():
    for k in (1, 2, 3):
        values: dict[tuple, set] = {}
        for d in enumerate_diagrams(k):
            values.setdefault(shape(d), set()).add(_six_tests(d))
        assert all(len(v) == 1 for v in values.values())
        assert {shape(d): {_six_tests(d)} for d, _ in _shapes(k)} == values
    assert len(set.union(*values.values())) == 5  # uniform, and each pair of propagating verdicts off it


def test_the_tests_at_four_strands_are_those_of_the_shape_representative():
    reps = {shape(d): d for d, _ in _shapes(4)}

    def cheap(d: Diagram) -> tuple:
        return (linf_matrix_norm(d, 4), linf_matrix_norm(d, 8), linf_matrix_norm(flip(d), 4),
                linf_matrix_norm(flip(d), 8), *_five_tests(d))

    want = {s: cheap(d) for s, d in reps.items()}
    d4 = list(enumerate_diagrams(4))
    assert all(cheap(d) == want[shape(d)] for d in d4)
    for d in random.Random(33).sample(d4, 12):
        rep_d = reps[shape(d)]
        for trunc in (4, 8):
            assert l1_truncated_norm(d, trunc, THIRD) == l1_truncated_norm(rep_d, trunc, THIRD)


def _classification_by_every_diagram(k: int, weights: GeometricWeights) -> tuple[bool, bool, bool]:
    """The three verdicts of `verify classification` over all Bell(2k) diagrams: the oracle of the shape walk."""
    lp_ok = linf_ok = col_ok = True
    for d in enumerate_diagrams(k):
        lp_ok = lp_ok and classify_lp_bounded(d, weights) == is_uniform(d)
        linf_ok = linf_ok and classify_linf_bounded(d) == is_bottom_propagating(d)
        col_ok = col_ok and classify_column_finite(d) == is_top_propagating(d)
    return lp_ok, linf_ok, col_ok


@pytest.mark.parametrize("weights, unflipped", [(HALF, False), (THIRD, False), (HALF, True)])
def test_the_walk_over_shapes_gives_the_verdicts_of_every_diagram(monkeypatch, weights, unflipped):
    if unflipped:  # the column counts read as row counts: the third verdict fails from k = 2
        monkeypatch.setattr(seqmodel, "flip", lambda d: d)
    for k in (1, 2, 3):
        want = _classification_by_every_diagram(k, weights)
        assert want == (True, True, not unflipped or k == 1)
        (doc,), code = cli._run_classification(k, weights)
        assert (doc["lp_matches_uniform"], doc["linf_matches_bottom_propagating"],
                doc["column_finite_matches_top_propagating"]) == want
        assert code == (0 if all(want) else 1)


def test_sup_norm_counts_the_rows_and_the_flip_counts_the_columns():
    cases = 0
    for k in (1, 2, 3):
        for d in enumerate_diagrams(k):
            for trunc in (1, 2, 3, 4):
                triples = matrix(d, trunc).triples
                rows = Counter(r for r, _, _ in triples)
                cols = Counter(c for _, c, _ in triples)
                assert linf_matrix_norm(d, trunc) == max(rows.values())
                assert linf_matrix_norm(flip(d), trunc) == max(cols.values())
                cases += 1
    assert cases == 880


def test_norm_profiles_compute_each_truncation_once(monkeypatch):
    calls = []

    def counted(d, trunc, weights):
        calls.append(trunc)
        return l1_truncated_norm(d, trunc, weights)

    monkeypatch.setattr(seqmodel, "l1_truncated_norm", counted)
    d = parse_diagram("2,1'|1|2'")
    assert lp_norm_profile(d, HALF, (4, 8)).divergent
    assert sorted(calls) == [4, 8]
    calls.clear()
    assert lp_norm_profile(d, HALF, (2, 4, 8)).norms == (3, 15, 255)
    assert sorted(calls) == [2, 4, 8]


def test_norm_profiles_serialize_with_their_parameters():
    p = lp_norm_profile(parse_diagram("2,1'|1|2'"), HALF, (4, 8))
    assert p.to_json() == {
        "diagram": "1|2,1'|2'",
        "truncations": [4, 8],
        "norms": ["15/1", "255/1"],
        "divergent": True,
        "r": "1/2",
    }
    q = linf_norm_profile(identity(2), (4, 8))
    assert q.norms == (Fraction(1), Fraction(1))
    assert not q.divergent
    assert "r" not in q.to_json()


def test_monomial_vector_examples():
    mv = monomial_vector(from_blocks(3, [[0, 1, 2]]), 3)
    assert sum(mv.vector) == 3
    assert mv.support() == tuple(
        i for i in range(27) if len(set(unrank_tuple(i, 3, 3))) == 1
    )
    mv = monomial_vector(from_blocks(3, [[0, 2], [1]]), 2)
    assert sum(mv.vector) == 4
    singletons = monomial_vector(from_blocks(2, [[0], [1]]), 3)
    assert set(singletons.vector) == {1}
    assert mv.k == 3 and mv.n == 2
    with pytest.raises(ValueError):
        monomial_vector(from_blocks(2, [[0], [1]]), 0)


def _constant_tuples_oracle(pi: SetPartition, n: int) -> list[int]:
    """Brute-force oracle: scan every tuple and test it block by block."""
    vec = []
    for t in product(range(1, n + 1), repeat=pi.ground_size):
        hit = 1
        for block in pi.blocks:
            x = t[block[0]]
            if any(t[p] != x for p in block[1:]):
                hit = 0
                break
        vec.append(hit)
    return vec


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(st.integers(0, 4), max_size=5), n=st.integers(1, 4))
def test_constant_ranks_match_a_scan_of_every_tuple(labels, n):
    pi = from_labels(labels)
    vec = _constant_tuples_oracle(pi, n)
    tuples = product(range(1, n + 1), repeat=pi.ground_size)
    assert list(_constant_ranks(pi, n)) == [tuple_rank(t, n) for t, hit in zip(tuples, vec) if hit]
    assert monomial_vector(pi, n).vector == tuple(vec)


def test_monomial_vectors_are_symmetric_group_fixed():
    n, k = 3, 3
    mats = [perm_matrix(PermWord(im), k) for im in permutations(range(1, n + 1))]
    for pi in enumerate_partitions(k):
        vec = [Fraction(v) for v in monomial_vector(pi, n).vector]
        for m in mats:
            assert act(m, vec) == vec


def test_monomial_vectors_span_a_space_of_the_predicted_dimension():
    for k in (1, 2, 3):
        for n in (1, 2, 3, 5):
            rows = []
            for pi in enumerate_partitions(k):
                vec = monomial_vector(pi, n).vector
                rows.append({i: Fraction(v) for i, v in enumerate(vec) if v})
            assert rank_of_rows(rows) == invariant_dim(n, k)


def test_invariant_dim_counts_value_patterns():
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            patterns = {orbit_partition(t) for t in product(range(1, n + 1), repeat=k)}
            assert invariant_dim(n, k) == len(patterns)
    assert invariant_dim(2, 4) == 8
    assert invariant_dim(5, 3) == 5
    with pytest.raises(ValueError):
        invariant_dim(0, 1)


def test_act_on_invariants_examples():
    merge = parse_diagram("1,2,1',2'")
    split = from_blocks(2, [[0], [1]])
    joined = from_blocks(2, [[0, 1]])
    assert act_on_invariants(merge, split, 3) == {joined: Fraction(1)}
    assert act_on_invariants(parse_diagram("2,1'|1|2'"), joined, 3) == {split: Fraction(1)}
    # a top-isolated block sums over its free index: the coefficient grows with n
    counter = parse_diagram("1,1'|2|2'")
    assert act_on_invariants(counter, split, 3) == {split: Fraction(3)}
    assert act_on_invariants(counter, split, 4) == {split: Fraction(4)}


def _peel_oracle(d: Diagram, pi: SetPartition, n: int) -> dict[SetPartition, Fraction]:
    """Act on the dense p_pi and peel the basis coefficients off orbit representatives.

    The change of basis is unitriangular along refinement, so the finest
    partitions come first; the expansion is checked against the acted vector.
    """
    w = act(matrix(d, n), monomial_vector(pi, n).vector)
    coeffs: dict[SetPartition, Fraction] = {}
    for tau in sorted(enumerate_partitions(d.k), key=lambda p: (-p.num_blocks, p.rgs)):
        a = w[tuple_rank(tuple(lab + 1 for lab in tau.rgs), n)]
        a -= sum(c for finer, c in coeffs.items() if refines(finer, tau))
        if a:
            coeffs[tau] = a
    recon = [Fraction(0)] * len(w)
    for tau, a in coeffs.items():
        for i, v in enumerate(monomial_vector(tau, n).vector):
            recon[i] += a * v
    assert recon == w
    return coeffs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_act_on_invariants_matches_the_peeled_dense_action(k):
    for d in enumerate_diagrams(k):
        for pi in enumerate_partitions(k):
            for n in range(k, 5):
                assert act_on_invariants(d, pi, n) == _peel_oracle(d, pi, n)


@settings(max_examples=15, deadline=None)
@given(
    labels=st.lists(st.integers(0, 7), min_size=8, max_size=8),
    pi_labels=st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
def test_act_on_invariants_matches_the_peeled_dense_action_on_four_strands(labels, pi_labels):
    d, pi = Diagram(4, from_labels(labels)), from_labels(pi_labels)
    assert act_on_invariants(d, pi, 4) == _peel_oracle(d, pi, 4)


def test_act_on_invariants_checks_the_product_against_the_matrix(monkeypatch):
    real = seqmodel.concat

    def one_more_middle(d1, d2):
        prod, middles = real(d1, d2)
        return prod, middles + 1

    monkeypatch.setattr(seqmodel, "concat", one_more_middle)
    with pytest.raises(RuntimeError, match="acted vector left the invariant span"):
        act_on_invariants(parse_diagram("1,1'|2,2'"), SetPartition((0, 1)), 3)


def test_act_on_invariants_is_size_independent_on_propagating_diagrams():
    for d in enumerate_diagrams(2, "bottom"):
        for pi in enumerate_partitions(2):
            small = {tau.rgs: c for tau, c in act_on_invariants(d, pi, 3).items()}
            large = {tau.rgs: c for tau, c in act_on_invariants(d, pi, 4).items()}
            assert small == large


def test_act_on_invariants_validation():
    d = parse_diagram("1,1'|2,2'")
    with pytest.raises(ValueError, match="need n >= k"):
        act_on_invariants(d, from_blocks(2, [[0], [1]]), 1)
    with pytest.raises(ValueError):
        act_on_invariants(d, from_blocks(3, [[0, 1, 2]]), 4)


def test_truncation_scans_and_monomial_vectors_check_the_budget_first(monkeypatch):
    # at a limit of 16, k = 2 scans may visit 4^2 tuples but not 5^2
    monkeypatch.setattr(rep, "MATRIX_NNZ_LIMIT", 16)
    d = parse_diagram("1,1'|2|2'")
    pi = SetPartition((0, 1))
    assert l1_truncated_norm(d, 4, HALF)
    assert len(monomial_vector(pi, 4).vector) == 16
    # one block for the matrix, two for p_pi: n^2 nonzeros in p_pi
    merge = parse_diagram("1,2,1',2'")
    assert act_on_invariants(merge, pi, 4)
    for call in (
        lambda: l1_truncated_norm(d, 5, HALF),
        lambda: monomial_vector(pi, 5),
        lambda: act_on_invariants(merge, pi, 5),
    ):
        with pytest.raises(BudgetExceededError):
            call()


LINE = parse_diagram("1|1'")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: l1_truncated_norm(LINE, 0, HALF), "truncation must be at least 1", id="l1"),
        pytest.param(lambda: linf_matrix_norm(LINE, 0), "truncation must be at least 1", id="linf"),
        pytest.param(lambda: lp_norm_profile(LINE, HALF, []), "at least one truncation is required", id="profile"),
    ],
)
def test_empty_truncations_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
