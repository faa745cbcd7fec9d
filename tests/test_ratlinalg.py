from fractions import Fraction

import numpy as np
import pytest

from ifsfourier import EXAMPLES, AffineSystem, get_system
from ifsfourier.ratlinalg import (
    AmbiguousExpansivityError,
    SingularMatrixError,
    identity_rational,
    is_expansive,
    mat_inverse,
    mat_pow,
    rational_matrix,
)
from reference import rational_vector, solve_exact


def test_is_expansive_scale4():
    assert is_expansive([[4]]) is True


def test_is_expansive_identity_is_ambiguous():
    with pytest.raises(AmbiguousExpansivityError):
        is_expansive(np.eye(2))


def test_is_expansive_strict_contraction():
    assert is_expansive([[0.5, 0], [0, 0.25]]) is False


def test_is_expansive_rotation_scale_sqrt2():
    # eigenvalues 1 +- i, modulus sqrt(2)
    assert is_expansive([[1, 1], [-1, 1]]) is True


def test_is_expansive_matches_transpose():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(-3, 4, size=(3, 3)).astype(float) + 2.5 * np.eye(3)
        try:
            a = is_expansive(m)
            b = is_expansive(m.T)
        except AmbiguousExpansivityError:
            continue
        assert a == b


def test_is_expansive_rejects_nonsquare():
    with pytest.raises(ValueError):
        is_expansive(np.ones((2, 3)))


def test_mat_pow_hand_square():
    m = rational_matrix([[2, 1], [0, 2]])
    sq = mat_pow(m, 2)
    assert sq.tolist() == rational_matrix([[4, 4], [0, 4]]).tolist()


def test_mat_pow_identity_exponent():
    m = rational_matrix([[3, 1], [1, 2]])
    assert mat_pow(m, 1).tolist() == m.tolist()


def test_mat_pow_scalar_cube():
    assert mat_pow(rational_matrix([[4]]), 3)[0, 0] == 64


def test_mat_pow_additivity():
    m = rational_matrix([[2, 1], [-1, 3]])
    for a in (1, 2, 3):
        for b in (1, 2, 4):
            lhs = mat_pow(m, a + b)
            rhs = mat_pow(m, a) @ mat_pow(m, b)
            assert lhs.tolist() == rhs.tolist()


def test_solve_exact_scalar():
    x = solve_exact(rational_matrix([[3]]), rational_vector([3]))
    assert x[0] == 1


def test_solve_exact_identity():
    v = rational_vector([Fraction(2, 7), Fraction(-5, 3)])
    x = solve_exact(identity_rational(2), v)
    assert list(x) == list(v)


def test_solve_exact_2x2():
    m = rational_matrix([[1, 1], [-1, 1]])
    x = solve_exact(m, rational_vector([1, 0]))
    # oracle: x1 + x2 = 1, -x1 + x2 = 0
    assert list(x) == [Fraction(1, 2), Fraction(1, 2)]


def test_solve_exact_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        # diagonally dominant, hence invertible
        m = rational_matrix(rng.integers(-9, 10, size=(d, d))) + 40 * identity_rational(d)
        x = rational_vector(
            [Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 20))) for _ in range(d)]
        )
        v = m @ x
        got = solve_exact(m, v)
        assert list(got) == list(x)


def test_solve_exact_singular():
    with pytest.raises(SingularMatrixError):
        solve_exact(rational_matrix([[1, 2], [2, 4]]), rational_vector([1, 1]))


def test_mat_inverse_roundtrip():
    m = rational_matrix([[2, 1], [0, 2]])
    inv = mat_inverse(m)
    assert (m @ inv).tolist() == identity_rational(2).tolist()


def _solve_by_elimination(m, v):
    """Reference solve of m x = v, independent of `mat_inverse`: Gaussian
    elimination with first-nonzero pivoting, then back substitution."""
    n = m.shape[0]
    a = m.astype(object).copy()
    b = v.astype(object).copy()
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r, col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is not invertible over the rationals")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        piv = a[col, col]
        for r in range(col + 1, n):
            if a[r, col] != 0:
                factor = a[r, col] / piv
                a[r, col:] = a[r, col:] - factor * a[col, col:]
                b[r] = b[r] - factor * b[col]
    x = np.zeros(n, dtype=object)
    for r in range(n - 1, -1, -1):
        s = b[r] - (a[r, r + 1 :] * x[r + 1 :]).sum() if r + 1 < n else b[r]
        x[r] = Fraction(s) / a[r, r]
    return x


def _inverse_by_columns(m):
    """Reference: the inverse as n eliminations, one identity column each."""
    n = m.shape[0]
    return np.stack([_solve_by_elimination(m, identity_rational(n)[:, j]) for j in range(n)],
                    axis=1)


def _assert_inverse_matches_columns(m):
    got = mat_inverse(m)
    assert got.shape == m.shape
    assert got.tolist() == _inverse_by_columns(m).tolist()
    assert (m @ got).tolist() == identity_rational(m.shape[0]).tolist()
    assert all(type(v) is Fraction for v in got.flat)


@pytest.mark.parametrize("name", sorted(n for n, e in EXAMPLES.items() if e.kind == "affine"))
def test_mat_inverse_matches_column_solves_on_registry(name):
    sys_ = get_system(name)
    for m in (sys_.R_exact, sys_.S_exact):
        _assert_inverse_matches_columns(m)
        # the cycle solves invert S^p - I
        _assert_inverse_matches_columns(mat_pow(m, 3) - identity_rational(sys_.d))


def test_mat_inverse_matches_column_solves_on_random_integer_matrices():
    rng = np.random.default_rng(19)
    singular = 0
    for _ in range(300):
        d = int(rng.integers(1, 5))
        # small entries, so that some draws are singular
        m = rational_matrix(rng.integers(-2, 3, size=(d, d)))
        try:
            ref = _inverse_by_columns(m)
        except SingularMatrixError:
            singular += 1
            with pytest.raises(SingularMatrixError):
                mat_inverse(m)
            continue
        got = mat_inverse(m)
        assert got.tolist() == ref.tolist()
        assert (m @ got).tolist() == identity_rational(d).tolist()
    assert 0 < singular < 300
    # rational entries with a zero leading pivot
    m = rational_matrix([[0, Fraction(1, 3), 2], [Fraction(-5, 7), 1, 0], [1, 1, Fraction(9, 2)]])
    _assert_inverse_matches_columns(m)
    with pytest.raises(SingularMatrixError):
        mat_inverse(rational_matrix([[1, 2], [2, 4]]))


# S = [[14, 6], [-12, -4]]: the product of the R = 8, B = {0, 4} and R = 2
# triples conjugated by [[2, 1], [1, 1]]; its inverse [[-1/4, -3/8],
# [3/4, 7/8]] is exact in floats, which np.linalg.inv misses by 1.1e-16 to
# 4.4e-16
SHEARED_PRODUCT_R = [[14, -12], [6, -4]]


@pytest.mark.parametrize("name", sorted(n for n, e in EXAMPLES.items() if e.kind == "affine")
                         + ["sheared-product"])
def test_view_inverse_is_the_exact_inverse_correctly_rounded(name):
    if name == "sheared-product":
        sys_ = AffineSystem.create(SHEARED_PRODUCT_R, [[0, 0], [1, 0]], [[0, 0], [0, 1]])
        assert sys_.l_view.inv.tolist() == [[-0.25, -0.375], [0.75, 0.875]]
    else:
        sys_ = get_system(name)
    for view in (sys_.b_view, sys_.l_view):
        assert view.inv.tolist() == [[float(v) for v in row] for row in view.inv_exact]
