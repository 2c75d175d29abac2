from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

import pytest

from partalg.centralizer import (
    BudgetExceededError,
    centralizer_dimension,
    commutant_dimension,
    perm_span_dim,
    rank_of_rows,
    span_rank,
    symmetric_group_generators,
    verify_schur_weyl,
)
from partalg.diagram import enumerate_diagrams, partition_algebra_generators
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


def test_span_rank_of_diagram_matrices():
    for n, expected in ((2, 8), (3, 14), (4, 15)):
        mats = [matrix(d, n) for d in enumerate_diagrams(2)]
        assert span_rank(mats) == expected
    assert span_rank([]) == 0
    with pytest.raises(ValueError):
        span_rank([SparseMat.identity(2), SparseMat.identity(3)])
    with pytest.raises(BudgetExceededError):
        span_rank([SparseMat.identity(1297)])


def test_commutant_of_identity_is_everything():
    for dim in (1, 2, 3, 5):
        assert commutant_dimension([SparseMat.identity(dim)]) == dim * dim
    with pytest.raises(ValueError):
        commutant_dimension([])
    with pytest.raises(ValueError):
        commutant_dimension([SparseMat.identity(2), SparseMat.identity(3)])
    with pytest.raises(BudgetExceededError):
        commutant_dimension([SparseMat.identity(257)])


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
    with pytest.raises(BudgetExceededError):
        perm_span_dim(6, 1)
    with pytest.raises(BudgetExceededError):
        perm_span_dim(2, 3)
    with pytest.raises(ValueError):
        perm_span_dim(0, 1)


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


def _standard_tableaux(shape: tuple[int, ...]) -> int:
    # hook-length formula
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = (shape[i] - j + cols[j] - i - 1 for i in range(len(shape)) for j in range(shape[i]))
    return factorial(sum(shape)) // prod(hooks)


def _perm_span_closed_form(n: int, k: int) -> int:
    # dimension of the image of C[S_n] in End(V^{(x)k}): sum of (f^lambda)^2
    # over the irreducibles lambda that occur, those with n - lambda_1 <= k
    return sum(
        _standard_tableaux(shape) ** 2
        for shape in _integer_partitions(n)
        if n - shape[0] <= k
    )


def test_perm_span_and_diagram_commutant_match_the_closed_form():
    expected = {1: [1, 2, 5, 10, 17], 2: [1, 2, 6, 23, 78]}
    for k, dims in expected.items():
        assert [_perm_span_closed_form(n, k) for n in range(1, 6)] == dims
    for k in (1, 2):
        for n in range(1, 6):
            rep = verify_schur_weyl(n, k)
            closed = _perm_span_closed_form(n, k)
            assert rep.perm_span_dim == rep.commutant_of_diagrams_dim == closed, (n, k)


def test_verify_schur_weyl_below_stable_range_still_consistent():
    # n < 2k: diagram matrices become linearly dependent but the
    # centralizer equalities continue to hold
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
