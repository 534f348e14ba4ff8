import random

import pytest

from curveclass.errors import CurveClassError
from curveclass.snf import (
    _verify_snf,
    column_lattice_basis,
    diagonal_of,
    identity_matrix,
    mat_det,
    mat_mul,
    mat_rank,
    smith_normal_form,
)


I2 = identity_matrix(2)


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_det_known_values():
    assert mat_det([[2]]) == 2
    assert mat_det([[1, 2], [3, 4]]) == -2
    assert mat_det(identity_matrix(5)) == 1
    assert mat_det([[0, 1], [1, 0]]) == -1


def test_det_multiplicative_seeded():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a = random_matrix(rng, n, n)
        b = random_matrix(rng, n, n)
        assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def test_rank_examples():
    assert mat_rank([[1, 2], [2, 4]]) == 1
    assert mat_rank([[1, 0], [0, 1]]) == 2
    assert mat_rank([[0, 0], [0, 0]]) == 0
    assert mat_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_snf_diagonal_divisibility_seeded():
    # smith_normal_form verifies U*A*V = D internally; here check the shape
    rng = random.Random(77)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = random_matrix(rng, rows, cols)
        U, D, V = smith_normal_form(a)
        diag = [d for d in diagonal_of(D) if d != 0]
        assert all(d > 0 for d in diag)
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0
        assert abs(mat_det(U)) == 1
        assert abs(mat_det(V)) == 1
        assert mat_mul(mat_mul(U, a), V) == D
        # off-diagonal of D vanishes
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert D[i][j] == 0
        assert len(diag) == mat_rank(a)


def test_snf_known_structure():
    # Z^2 / <(2,0),(0,4)> = Z/2 x Z/4
    _, D, _ = smith_normal_form([[2, 0], [0, 4]])
    assert [d for d in diagonal_of(D) if d > 1] == [2, 4]
    # Z^2 / <(1,1),(1,-1)> = Z/2
    _, D, _ = smith_normal_form([[1, 1], [1, -1]])
    assert [d for d in diagonal_of(D) if d > 1] == [2]


def test_column_lattice_basis_preserves_lattice():
    rng = random.Random(13)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 7)
        a = random_matrix(rng, rows, cols)
        basis = column_lattice_basis(a)
        assert len(basis) == rows
        # same column lattice: SNF diagonals of both agree
        _, d1, _ = smith_normal_form(a)
        _, d2, _ = smith_normal_form(basis)
        nz1 = [d for d in diagonal_of(d1) if d != 0]
        nz2 = [d for d in diagonal_of(d2) if d != 0]
        assert nz1 == nz2


@pytest.mark.parametrize(
    "A, U, D, V, message",
    [
        ([[1]], [[1]], [[2]], [[1]], r"U\*A\*V != D"),
        ([[1]], [[2]], [[2]], [[1]], "U not unimodular"),
        ([[1]], [[1]], [[3]], [[3]], "V not unimodular"),
        ([[1, 1], [0, 1]], I2, [[1, 1], [0, 1]], I2, "D not diagonal"),
        ([[2, 0], [0, 3]], I2, [[2, 0], [0, 3]], I2, "divisibility chain broken"),
        ([[0, 0], [0, 1]], I2, [[0, 0], [0, 1]], I2, "zero before nonzero diagonal"),
    ],
)
def test_snf_self_checks_fire(A, U, D, V, message):
    with pytest.raises(CurveClassError, match="SNF self-check failed: " + message):
        _verify_snf(A, U, D, V)


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: mat_det([]), 1),
        (lambda: mat_rank([]), 0),
        (lambda: mat_rank([[]]), 0),
        (lambda: column_lattice_basis([]), []),
        (lambda: diagonal_of(smith_normal_form([[2, 4], [1, 2]])[1]), [1, 0]),
    ],
    ids=["det", "rank-no-rows", "rank-no-columns", "lattice-basis", "snf-rank-1"],
)
def test_empty_and_singular_matrices(call, want):
    assert call() == want
