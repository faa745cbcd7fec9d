import itertools
from fractions import Fraction

import numpy as np
import pytest

from ifsfourier import AffineSystem, check_duality, check_pair
from ifsfourier.hadamard import build_matrix

F2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def test_pair_scale4_passes():
    # R^{-1}B = {0, 1/2} against L = {0, 1} gives the 2x2 Fourier matrix
    rep = check_pair([[0], [0.5]], [[0], [1]])
    assert rep.passes
    assert rep.max_deviation < 1e-12
    u = build_matrix([[0], [0.5]], [[0], [1]])
    assert np.allclose(u, F2)


def test_pair_singleton():
    rep = check_pair([[0]], [[0]])
    assert rep.passes and rep.order == 1


def test_pair_quarter_shift_fails():
    # U = (1/sqrt2)[[1,1],[1,i]]: off-diagonal of U*U has modulus |1+i|/2
    rep = check_pair([[0], [0.25]], [[0], [1]])
    assert not rep.passes
    assert rep.max_deviation == pytest.approx(abs(1 + 1j) / 2, abs=1e-12)


def test_pair_swap_preserves_verdict():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(-1, 1, size=(3, 2))
        b = rng.uniform(-1, 1, size=(3, 2))
        assert check_pair(a, b).passes == check_pair(b, a).passes
    assert check_pair([[0], [1]], [[0], [0.5]]).passes  # swapped scale-4 pair


def test_duality_cantor4(cantor4):
    rep = check_duality(cantor4)
    assert rep.passes
    assert rep.unitarity.max_deviation < 1e-12
    assert rep.integrality_mode == "structural"


def test_duality_planar_shear(planar_shear):
    rep = check_duality(planar_shear)
    assert rep.passes
    # the underlying matrix is the 4x4 family member at u = i, up to
    # row/column order: all entries have modulus 1/2 and include +-i/2
    u = build_matrix(planar_shear.B @ np.linalg.inv(planar_shear.R).T, planar_shear.L)
    assert np.allclose(np.abs(u), 0.5, atol=1e-12)
    assert np.isclose(np.abs(u.imag), 0.5, atol=1e-12).any()


def test_duality_twindragon(twindragon):
    rep = check_duality(twindragon)
    assert rep.passes
    u = build_matrix(twindragon.B @ np.linalg.inv(twindragon.R).T, twindragon.L)
    assert np.allclose(u, F2, atol=1e-12)


def test_duality_failure_names_check(planar_shear):
    # digit (2,1) makes two matrix rows coincide, so U*U != I
    bad = AffineSystem.create(
        planar_shear.R, [(0, 0), (1, 0), (0, 1), (2, 1)], planar_shear.L
    )
    rep = check_duality(bad)
    assert not rep.passes
    assert "unitarity" in rep.failures


def test_duality_cantor3_fails(cantor3):
    rep = check_duality(cantor3)
    assert not rep.passes
    assert rep.failures == ("unitarity",)


def test_numeric_integrality_path():
    # genuinely non-integer digits, still a Hadamard pair: B scaled by 1/4
    sys = AffineSystem.create([[4]], [[0], [0.5]], [[0], [4]])
    rep = check_duality(sys, integrality_horizon=12)
    assert rep.integrality_mode == "exact"
    assert rep.integrality_horizon == 12
    assert rep.integrality_deviation == 0.0
    assert rep.passes


def test_integrality_fails_on_a_dot_far_below_float_resolution():
    # (R^n b).l = 2 4^(n - 40) is no integer for n <= 16; a float test
    # relative to the dot saw at most 7e-15 and passed it
    sys = AffineSystem.create([[4]], [[0], [2]], [[0], [Fraction(1, 4 ** 40)]])
    rep = check_duality(sys)
    assert "integrality" in rep.failures
    assert rep.integrality_deviation == float(Fraction(2, 4 ** 24))


def test_integrality_fails_on_a_half_beside_a_large_dot():
    # b = 10^10 + 1/2 with l = 1: a Hadamard pair at R = 3, but 3^n b is
    # never an integer; the relative float deviation was 5e-11
    sys = AffineSystem.create([[3]], [[0], [Fraction(2 * 10 ** 10 + 1, 2)]], [[0], [1]])
    rep = check_duality(sys)
    assert rep.failures == ("integrality",)
    assert rep.integrality_deviation == 0.5


def product_pair(a1, b1, a2, b2) -> tuple:
    """The product (A1 x A2, B1 x B2) of two pairs of digit sets, rows in
    lexicographic order: its matrix is np.kron of the factors' matrices."""
    return tuple([list(u) + list(v) for u, v in itertools.product(x1, x2)]
                 for x1, x2 in ((a1, a2), (b1, b2)))


def test_tensor_two_fourier_matrices():
    # ({0, 1/2}^2, {0, 1}^2) has the tensor square of F2 as its matrix
    a, b = product_pair([[0], [0.5]], [[0], [1]], [[0], [0.5]], [[0], [1]])
    got = build_matrix(a, b)
    assert np.allclose(got, np.kron(F2, F2), atol=1e-15)
    assert check_pair(a, b).passes
    expected_rows = {
        (1, 1, 1, 1),
        (1, 1, -1, -1),
        (1, -1, 1, -1),
        (1, -1, -1, 1),
    }
    rows = {tuple(int(round(v * 2)) for v in row.real) for row in got}
    assert rows == expected_rows
    assert np.allclose(got.conj().T @ got, np.eye(4), atol=1e-12)


def test_tensor_identity_factor():
    # a one-digit factor ({1/4}, {1}) multiplies the matrix by exp(2 pi i / 4) = i
    a, b = product_pair([[0], [0.5]], [[0], [1]], [[0.25]], [[1]])
    assert np.allclose(build_matrix(a, b), 1j * F2, atol=1e-15)
    assert check_pair(a, b).passes


def test_tensor_of_unitaries_is_unitary():
    # the product of two Hadamard pairs is one: a shift of A multiplies the
    # columns by phases, and the product's matrix is the tensor product
    rng = np.random.default_rng(5)
    for _ in range(5):
        c1, c2 = rng.uniform(-1, 1, 2)
        a1, b1 = [[c1], [c1 + 0.5]], [[0], [1]]
        a2, b2 = [[c2], [c2 + 1 / 3], [c2 + 2 / 3]], [[0], [1], [2]]
        a, b = product_pair(a1, b1, a2, b2)
        w = build_matrix(a, b)
        assert np.allclose(w, np.kron(build_matrix(a1, b1), build_matrix(a2, b2)), atol=1e-12)
        assert check_pair(a, b).passes


def test_mismatched_cardinalities():
    with pytest.raises(ValueError):
        check_pair([[0], [1]], [[0], [1], [2]])
