import numpy as np
import pytest

from ifsfourier import (
    DomainError,
    GridFunction,
    Weight,
    cesaro,
    check_qmf,
    get_system,
    harmonic_defect,
    ruelle_apply,
    weight_from_digits,
)
from ifsfourier.transfer import default_grid

RES = 2049  # odd so the origin is a grid node


@pytest.fixture(scope="module")
def grid1d(cantor4):
    lo, hi, _ = default_grid(cantor4.l_view)
    return lo, hi


def test_ruelle_preserves_one(cantor4, cantor4_weight, grid1d):
    lo, hi = grid1d
    one = GridFunction.constant(1.0, lo, hi, RES)
    out = ruelle_apply(cantor4_weight, cantor4.l_view, one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_ruelle_uniform_weight_is_branch_mean(cantor4, grid1d):
    lo, hi = grid1d
    view = cantor4.l_view
    w = Weight(lambda x: np.full(np.shape(x) or (1,), 0.5), "1/N")
    f = GridFunction.sample(lambda p: np.sin(p[:, 0]), lo, hi, RES)
    out = ruelle_apply(w, view, f)
    nodes = f.nodes()[:, 0]
    expected = 0.5 * (np.sin(nodes / 4.0) + np.sin((nodes + 1.0) / 4.0))
    assert np.max(np.abs(out.values - expected)) < 1e-8


def test_ruelle_against_dense_direct_evaluation(cantor4, cantor4_weight):
    # oracle: evaluate sum_l W(tau_l x) f(tau_l x) analytically at 1025
    # probe points and compare with the grid route at resolution 4096
    view = cantor4.l_view
    lo, hi, _ = default_grid(view)
    f = GridFunction.sample(lambda p: p[:, 0], lo, hi, 4096)
    out = ruelle_apply(cantor4_weight, view, f)
    xs = np.linspace(lo[0] * 0.95, hi[0] * 0.95, 1025)
    direct = np.zeros_like(xs)
    for i in range(view.n_digits):
        img = (xs + view.digits[i][0]) * view.inv[0, 0]
        direct += np.asarray(cantor4_weight(img)) * img
    assert np.max(np.abs(out.eval(xs[:, None]) - direct)) < 1e-6


def test_ruelle_positivity_and_linearity(cantor4, cantor4_weight, grid1d):
    lo, hi = grid1d
    view = cantor4.l_view
    rng = np.random.default_rng(2)
    f = GridFunction.sample(lambda p: np.abs(np.sin(5 * p[:, 0])), lo, hi, 512)
    out = ruelle_apply(cantor4_weight, view, f)
    assert np.min(out.values) >= -1e-15
    g = GridFunction.sample(lambda p: np.cos(3 * p[:, 0]), lo, hi, 512)
    a, b = rng.uniform(-2, 2, 2)
    combo = GridFunction(lo=f.lo, hi=f.hi, values=a * f.values + b * g.values)
    lhs = ruelle_apply(cantor4_weight, view, combo).values
    rhs = a * out.values + b * ruelle_apply(cantor4_weight, view, g).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_ruelle_sup_norm_contraction(cantor4, cantor4_weight, grid1d):
    lo, hi = grid1d
    f = GridFunction.sample(lambda p: np.cos(7 * p[:, 0]), lo, hi, 1024)
    out = ruelle_apply(cantor4_weight, cantor4.l_view, f)
    assert out.max_abs() <= f.max_abs() + 1e-12


def test_interpolation_error_halves_with_resolution(cantor4, cantor4_weight):
    view = cantor4.l_view
    lo, hi, _ = default_grid(view)
    xs = np.linspace(lo[0] * 0.9, hi[0] * 0.9, 1025)
    direct = np.zeros_like(xs)
    for i in range(view.n_digits):
        img = (xs + view.digits[i][0]) * view.inv[0, 0]
        direct += np.asarray(cantor4_weight(img)) * np.cos(3 * img)
    errs = []
    for res in (256, 512):
        f = GridFunction.sample(lambda p: np.cos(3 * p[:, 0]), lo, hi, res)
        out = ruelle_apply(cantor4_weight, view, f)
        errs.append(np.max(np.abs(out.eval(xs[:, None]) - direct)))
    assert errs[0] / errs[1] >= 2.0


def test_domain_error_outside_box(cantor4, cantor4_weight, grid1d):
    lo, hi = grid1d
    f = GridFunction.constant(1.0, lo / 10, hi / 10, 64)  # box too small
    with pytest.raises(DomainError):
        ruelle_apply(cantor4_weight, cantor4.l_view, f)


def test_qmf_registry_systems():
    for name in ("cantor4", "lambda15", "lambda63", "planar-shear", "twindragon"):
        sys = get_system(name)
        w = weight_from_digits(sys.B)
        assert check_qmf(w, sys.l_view, n_probe=2000, seed=0) < 1e-12


def test_qmf_uniform_weight_exact(cantor4):
    w = Weight(lambda x: np.full(np.shape(x) or (1,), 0.5), "1/N")
    assert check_qmf(w, cantor4.l_view, n_probe=500, seed=1) == 0.0


def test_qmf_failure_non_hadamard():
    sys = get_system("cantor4")
    w = weight_from_digits([[0], [1]])  # wrong digit set for L={0,1}, R=4
    assert check_qmf(w, sys.l_view, n_probe=500, seed=1) > 0.1


def test_cesaro_constant_fixed_point(cantor4, cantor4_weight, grid1d):
    lo, hi = grid1d
    one = GridFunction.constant(1.0, lo, hi, 512)
    for n in (1, 3, 8):
        out = cesaro(cantor4_weight, cantor4.l_view, one, n)
        assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_cesaro_bump_approaches_cycle_harmonic(cantor4, cantor4_weight, grid1d):
    lo, hi = grid1d
    bump = GridFunction.sample(
        lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0]) / 0.05), lo, hi, RES
    )
    out = cesaro(cantor4_weight, cantor4.l_view, bump, 256)
    assert abs(float(out.eval([[0.0]])) - 1.0) < 0.02
    d16 = harmonic_defect(cantor4_weight, cantor4.l_view, cesaro(cantor4_weight, cantor4.l_view, bump, 16))
    d256 = harmonic_defect(cantor4_weight, cantor4.l_view, out)
    assert d256 < d16
    assert d256 < 1e-2


def test_harmonic_defect_reference_values(cantor4, cantor4_weight, grid1d):
    lo, hi = grid1d
    const = GridFunction.constant(2.5, lo, hi, 256)
    assert harmonic_defect(cantor4_weight, cantor4.l_view, const) < 1e-12
    rng = np.random.default_rng(0)
    noise = GridFunction(lo=const.lo, hi=const.hi, values=rng.uniform(0, 1, 256))
    assert harmonic_defect(cantor4_weight, cantor4.l_view, noise) > 0.1


def test_planar_shear_grid_qmf(planar_shear):
    # 2d grid transfer: the inf-norm contraction makes the box invariant
    w = weight_from_digits(planar_shear.B)
    view = planar_shear.l_view
    lo, hi, _ = default_grid(view, 65)
    one = GridFunction.constant(1.0, lo, hi, 65)
    out = ruelle_apply(w, view, one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_grid_csv(tmp_path, cantor4):
    lo = np.array([0.0])
    hi = np.array([1.0])
    g = GridFunction.sample(lambda p: p[:, 0] ** 2, lo, hi, 5)
    path = tmp_path / "g.csv"
    g.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0,value"
    assert len(lines) == 6
    assert float(lines[2].split(",")[1]) == pytest.approx(0.0625)
