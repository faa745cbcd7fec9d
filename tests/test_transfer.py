import itertools
import warnings

import numpy as np
import pytest

from ifsfourier import (
    DomainError,
    GridFunction,
    IfsView,
    Weight,
    cesaro,
    check_qmf,
    get_system,
    harmonic_defect,
    ruelle_apply,
    weight_from_digits,
)
from ifsfourier.measure import _branch_weights
from ifsfourier.transfer import default_grid

RES = 2049  # odd so the origin is a grid node


def constant(value, lo, hi, resolution) -> GridFunction:
    """The constant function `value` sampled on a box grid."""
    return GridFunction.sample(lambda pts: np.full(len(pts), value), lo, hi, resolution)


@pytest.fixture(scope="module")
def grid1d(cantor4):
    lo, hi, _ = default_grid(cantor4.l_view)
    return lo, hi


def test_ruelle_preserves_one(cantor4, cantor4_weight, grid1d):
    lo, hi = grid1d
    one = constant(1.0, lo, hi, RES)
    out = ruelle_apply(cantor4_weight, cantor4.l_view, one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_ruelle_uniform_weight_is_branch_mean(cantor4, grid1d):
    lo, hi = grid1d
    view = cantor4.l_view
    w = Weight(0.5, [], np.empty((0, 1)), "1/N")
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
    assert np.max(np.abs(out.values)) <= np.max(np.abs(f.values)) + 1e-12


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
    f = constant(1.0, lo / 10, hi / 10, 64)  # box too small
    with pytest.raises(DomainError):
        ruelle_apply(cantor4_weight, cantor4.l_view, f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_at_non_finite_point_is_a_domain_error(bad):
    # NaN passes both box comparisons, so it is refused before the cast to
    # an index, which would turn it into INT64_MIN
    f = GridFunction.sample(lambda p: p[:, 0], [0.0], [1.0], 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            f.eval([[bad]])
        with pytest.raises(DomainError, match="non-finite"):
            f.eval([[0.5], [bad]])
    assert f.eval([[0.5]]) == pytest.approx(0.5)


def test_non_finite_branch_images_are_a_domain_error():
    view = IfsView("L", np.array([[2.0]]), np.array([[0.0], [np.nan]]))
    w = Weight(0.5, [], np.empty((0, 1)), "1/N")
    f = constant(1.0, [-0.1], [1.1], 16)
    with pytest.raises(DomainError, match="non-finite"):
        ruelle_apply(w, view, f)


def test_qmf_registry_systems():
    for name in ("cantor4", "lambda15", "lambda63", "planar-shear", "twindragon"):
        sys = get_system(name)
        w = weight_from_digits(sys.B)
        assert check_qmf(w, sys.l_view, n_probe=2000, seed=0) < 1e-12


def test_qmf_uniform_weight_exact(cantor4):
    w = Weight(0.5, [], np.empty((0, 1)), "1/N")
    assert check_qmf(w, cantor4.l_view, n_probe=500, seed=1) == 0.0


def test_qmf_failure_non_hadamard():
    sys = get_system("cantor4")
    w = weight_from_digits([[0], [1]])  # wrong digit set for L={0,1}, R=4
    assert check_qmf(w, sys.l_view, n_probe=500, seed=1) > 0.1


def test_qmf_check_refuses_no_probes(cantor4):
    # n_probe 0 once raised numpy's zero-size reduction error
    w = Weight(0.5, [], np.empty((0, 1)), "1/N")
    with pytest.raises(ValueError, match="n_probe"):
        check_qmf(w, cantor4.l_view, n_probe=0)


def test_cesaro_constant_fixed_point(cantor4, cantor4_weight, grid1d):
    lo, hi = grid1d
    one = constant(1.0, lo, hi, 512)
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
    const = constant(2.5, lo, hi, 256)
    assert harmonic_defect(cantor4_weight, cantor4.l_view, const) < 1e-12
    rng = np.random.default_rng(0)
    noise = GridFunction(lo=const.lo, hi=const.hi, values=rng.uniform(0, 1, 256))
    assert harmonic_defect(cantor4_weight, cantor4.l_view, noise) > 0.1


def test_planar_shear_grid_qmf(planar_shear):
    # 2d grid transfer: the inf-norm contraction makes the box invariant
    w = weight_from_digits(planar_shear.B)
    view = planar_shear.l_view
    lo, hi, _ = default_grid(view, 65)
    one = constant(1.0, lo, hi, 65)
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


def test_complex_grid_csv(tmp_path):
    # a complex grid, which the class holds, raised TypeError on export
    g = GridFunction.sample(lambda p: np.exp(2j * np.pi * p[:, 0]), [0.0], [1.0], 5)
    path = tmp_path / "g.csv"
    g.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,value_re,value_im" and len(lines) == 6
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(rows[:, 0], np.linspace(0.0, 1.0, 5))
    assert np.array_equal(rows[:, 1] + 1j * rows[:, 2], g.values)  # 17 digits round-trip


# --- the stencil against the per-branch interpolation it replaced ------------

def reference_eval(f, pts):
    """`GridFunction.eval` before the stencil: one pass per corner, corners in
    `itertools.product` order, each adding weight * value to the sum."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    res = np.array(f.values.shape)
    u = (pts - f.lo) / f.spacing
    if np.any(u < -1e-9) or np.any(u > res - 1 + 1e-9):
        raise DomainError("outside")
    u = np.clip(u, 0.0, res - 1)
    base = np.minimum(u.astype(int), res - 2)
    frac = u - base
    out = np.zeros(pts.shape[0], dtype=f.values.dtype)
    flat = f.values.ravel()
    strides = np.cumprod((1,) + f.values.shape[::-1][:-1])[::-1]
    for corner in itertools.product((0, 1), repeat=f.d):
        idx = (base + np.array(corner)) @ strides
        w = np.ones(pts.shape[0])
        for a in range(f.d):
            w = w * (frac[:, a] if corner[a] else 1.0 - frac[:, a])
        out = out + w * flat[idx]
    return out


def reference_ruelle_apply(weight, view, f):
    """`ruelle_apply` before the stencil: W at the branch images times the
    interpolated f, summed branch by branch."""
    nodes = f.nodes()
    images = view.tau_all(nodes)
    w = _branch_weights(weight, view, nodes)
    acc = np.zeros(nodes.shape[0], dtype=f.values.dtype)
    for i in range(view.n_digits):
        acc = acc + w[i] * reference_eval(f, images[i])
    return acc.reshape(f.values.shape)


def reference_cesaro(weight, view, f, n_iter):
    acc, g = f.values.copy(), f
    for _ in range(n_iter - 1):
        g = GridFunction(lo=f.lo, hi=f.hi, values=reference_ruelle_apply(weight, view, g))
        acc = acc + g.values
    return acc / n_iter


def apply_ulps(view):
    """The summation-order bound, in ulps of max|f|, between the stencil and
    the per-branch sum: both sum N 2^d nonnegative products W coef |f| whose
    coefficients add up to R_W 1 = 1 (QMF), each with a rounding error of at
    most (N 2^d + 1) eps times that sum."""
    return 2 * (view.n_digits * 2 ** view.d + 1)


STENCIL_CASES = [
    ("cantor4", 4097, lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0]) / 0.05)),
    ("lambda15", 2049, lambda p: np.cos(7 * p[:, 0]) + 0.5 * np.sin(31 * p[:, 0])),
    ("planar-shear", 97, lambda p: 1.0 + 0.5 * np.cos(2 * np.pi * (p @ np.array([1.0, 2.0])))),
]


@pytest.mark.parametrize("name,res,fn", STENCIL_CASES)
def test_stencil_matches_per_branch_interpolation(name, res, fn):
    sys_ = get_system(name)
    view, w = sys_.l_view, weight_from_digits(sys_.B)
    lo, hi, _ = default_grid(view, res)
    f = GridFunction.sample(fn, lo, hi, res)
    eps, scale = np.finfo(float).eps, np.max(np.abs(f.values))
    bound = apply_ulps(view) * eps * scale
    got = ruelle_apply(w, view, f)
    assert got.values.shape == f.values.shape
    assert np.max(np.abs(got.values - reference_ruelle_apply(w, view, f))) <= bound
    # n Cesaro terms: each iterate adds at most one bound (R_W is a sup-norm
    # contraction), and the running sum rounds once per term
    n_iter = 16
    avg = cesaro(w, view, f, n_iter)
    ref = reference_cesaro(w, view, f, n_iter)
    assert np.max(np.abs(avg.values - ref)) <= n_iter * (bound + eps * scale)
    interior = (slice(1, -1),) * view.d
    ref_defect = float(np.max(np.abs(reference_ruelle_apply(w, view, avg) - avg.values)[interior]))
    assert abs(harmonic_defect(w, view, avg) - ref_defect) <= bound


@pytest.mark.parametrize("name,res,fn", STENCIL_CASES)
def test_eval_matches_per_corner_loop(name, res, fn):
    view = get_system(name).l_view
    lo, hi, _ = default_grid(view, res)
    f = GridFunction.sample(fn, lo, hi, res)
    pts = np.random.default_rng(5).uniform(lo, hi, size=(3000, view.d))
    bound = 2 ** view.d * np.finfo(float).eps * np.max(np.abs(f.values))
    for n in (1, 2, 7, 3000):
        assert np.max(np.abs(np.atleast_1d(f.eval(pts[:n])) - reference_eval(f, pts[:n]))) <= bound
    # complex samples interpolate as such
    g = GridFunction(lo=f.lo, hi=f.hi, values=f.values * (1 + 2j))
    assert np.allclose(g.eval(pts), (1 + 2j) * f.eval(pts), rtol=0, atol=4 * bound)


def test_eval_of_one_point_is_a_scalar(cantor4, grid1d):
    # float() of a shape-(1,) array is an error in numpy >= 2.4; callers do
    # float(avg.eval([[0.0]]))
    lo, hi = grid1d
    f = GridFunction.sample(lambda p: 1.0 + p[:, 0], lo, hi, 513)
    one = f.eval([[0.0]])
    assert one.shape == ()
    assert float(one) == pytest.approx(1.0, abs=1e-12)
    assert f.eval([[0.0], [0.1]]).shape == (2,)
    pts = np.array([[0.25]])
    f.eval(pts)
    assert pts[0, 0] == 0.25  # the caller's points are left alone


def _domain_outcome(fn):
    try:
        fn()
    except DomainError:
        return "DomainError"
    return "ok"


@pytest.mark.parametrize("name,shrink,expected", [
    ("cantor4", 1.0, "ok"), ("cantor4", 0.1, "DomainError"), ("lambda15", 0.5, "DomainError"),
    ("twindragon", 1.0, "DomainError"),  # no axis-aligned box holds its own nodes' images
    ("planar-shear", 1.0, "ok"), ("planar-shear", 0.5, "DomainError"),
])
def test_stencil_raises_domain_error_on_the_same_grids(name, shrink, expected):
    sys_ = get_system(name)
    view, w = sys_.l_view, weight_from_digits(sys_.B)
    lo, hi, _ = default_grid(view, 33)
    f = GridFunction.sample(lambda p: np.cos(p.sum(axis=1)), lo * shrink, hi * shrink, 33)
    assert _domain_outcome(lambda: reference_ruelle_apply(w, view, f)) == expected
    assert _domain_outcome(lambda: ruelle_apply(w, view, f)) == expected
    assert _domain_outcome(lambda: cesaro(w, view, f, 3)) == expected
    assert _domain_outcome(lambda: harmonic_defect(w, view, f)) == expected
