import functools
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ifsfourier import (
    EXAMPLES,
    AffineSystem,
    Weight,
    chaos_game,
    check_qmf,
    empirical_char,
    get_system,
    mu_hat,
    mu_hat_batch,
    mu_hat_detail,
    points_to_csv,
    run_chain,
    sample_paths,
    weight_from_digits,
)
from ifsfourier.measure import (EXACT_ZERO_CUTOFF, _branch_weights, _cosine_terms, _float_terms,
                                _gaussian_tail, _head_levels, _mu_hat_rows, _tail_depth,
                                _tail_level, _truncated_products, _zero_cutoff)
from ifsfourier.ratlinalg import _over_common_denominator, mat_inverse
from ifsfourier.system import IfsView, _angle_sums, fvec
from reference import m_eval, stepping_mu_hat_batch, tau

AFFINE = [name for name, entry in EXAMPLES.items() if entry.kind == "affine"]


def test_tau_cantor4_fixed_point(cantor4):
    assert tau(cantor4.b_view, 0, (Fraction(0),)) == (Fraction(0),)


def test_tau_cantor4_second_digit(cantor4):
    assert tau(cantor4.b_view, 1, (Fraction(0),)) == (Fraction(1, 2),)


def test_tau_twindragon_exact(twindragon):
    # oracle: exact solve of S x = (1,0) for S = [[1,-1],[1,1]]
    got = tau(twindragon.l_view, 1, (Fraction(0), Fraction(0)))
    assert got == (Fraction(1, 2), Fraction(-1, 2))


def test_tau_reads_float_coordinates_as_their_fractions(cantor4, twindragon, planar_shear):
    # a point is exact: float coordinates map as the rationals they are
    rng = np.random.default_rng(41)
    for view in (cantor4.b_view, cantor4.l_view, twindragon.l_view, planar_shear.l_view):
        for x in rng.uniform(-3, 3, (10, view.d)):
            for i in range(view.n_digits):
                got = tau(view, i, x)
                assert got == tau(view, i, tuple(map(Fraction, x)))
                assert all(type(c) is Fraction for c in got)
    assert tau(cantor4.l_view, 1, 0.25) == tau(cantor4.l_view, 1, (Fraction(1, 4),))


def test_tau_needs_exact_mirrors():
    with pytest.raises(ValueError, match="exact"):
        tau(EXAMPLES["riesz3"].view, 0, (0.25,))


def test_chaos_game_cantor4_range(cantor4):
    pts = chaos_game(cantor4.b_view, 5000, seed=1)
    assert pts.min() >= 0.0
    assert pts.max() <= 2.0 / 3.0 + 1e-12


def test_chaos_game_single_map_collapses():
    sys = get_system("cantor4")
    from ifsfourier.system import IfsView

    view = IfsView("B", sys.R, np.array([[0.0]]))
    pts = chaos_game(view, 200, seed=2)
    assert np.all(np.abs(pts[50:]) < 1e-12)


def test_chaos_game_deterministic_and_stream_split(cantor4):
    a = chaos_game(cantor4.b_view, 1000, seed=9)
    b = chaos_game(cantor4.b_view, 1000, seed=9)
    assert np.array_equal(a, b)
    c = chaos_game(cantor4.b_view, 1000, seed=9, n_streams=4)
    assert c.shape == a.shape
    assert not np.array_equal(a, c)  # different stream layout, same law


def test_chaos_game_planar_area(planar_shear):
    # Lebesgue measure of the attractor is 3; estimate by cell occupancy
    pts = chaos_game(planar_shear.b_view, 400_000, seed=4)
    bins = 160
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    h, ex, ey = np.histogram2d(
        pts[:, 0], pts[:, 1], bins=bins, range=[[lo[0], hi[0]], [lo[1], hi[1]]]
    )
    area = (h > 0).sum() * (ex[1] - ex[0]) * (ey[1] - ey[0])
    assert 2.6 < area < 3.4


def test_chaos_game_twindragon_area(twindragon):
    # the dual attractor has Lebesgue measure 1; cell occupancy converges
    # from above (the rough boundary overcounts at any finite resolution)
    pts = chaos_game(twindragon.l_view, 400_000, seed=5)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    estimates = []
    for bins in (100, 200):
        h, ex, ey = np.histogram2d(
            pts[:, 0], pts[:, 1], bins=bins, range=[[lo[0], hi[0]], [lo[1], hi[1]]]
        )
        estimates.append((h > 0).sum() * (ex[1] - ex[0]) * (ey[1] - ey[0]))
    assert estimates[1] < estimates[0]
    assert 1.0 < estimates[1] < 1.35


def test_m_eval_at_origin(cantor4, twindragon):
    assert m_eval(cantor4.B, 0.0) == pytest.approx(np.sqrt(2))
    assert m_eval(twindragon.B, (0.0, 0.0)) == pytest.approx(np.sqrt(2))


def test_m_eval_cantor4_zero_and_full(cantor4):
    assert abs(m_eval(cantor4.B, 0.25)) < 1e-15
    assert m_eval(cantor4.B, 0.5) == pytest.approx(np.sqrt(2))


def test_m_eval_bound(cantor4):
    xs = np.linspace(-3, 3, 400)
    assert np.all(np.abs(m_eval(cantor4.B, xs)) <= np.sqrt(2) + 1e-12)


def test_mu_hat_at_zero(cantor4, twindragon):
    assert mu_hat(cantor4, (Fraction(0),)) == 1.0
    assert mu_hat(twindragon, (Fraction(0), Fraction(0))) == 1.0


def test_mu_hat_exact_zero_at_one(cantor4):
    res = mu_hat_detail(cantor4, (Fraction(1),))
    assert res.exact_zero and res.zero_level == 1 and res.value == 0


def test_mu_hat_refinement_identity(cantor4):
    # mu_hat(t) = m_B(t/4)/sqrt(2) * mu_hat(t/4)
    t = 0.3
    lhs = mu_hat_detail(cantor4, (Fraction(3, 10),), 1e-12).value
    rhs = (
        m_eval(cantor4.B, t / 4) / np.sqrt(2)
        * mu_hat_detail(cantor4, (Fraction(3, 40),), 1e-12).value
    )
    assert abs(lhs - rhs) < 1e-10


def test_mu_hat_refinement_identity_random(cantor4, twindragon):
    # the identity must hold within 10x the truncation budget
    rng = np.random.default_rng(12)
    for sys in (cantor4, twindragon):
        s_inv = np.linalg.inv(sys.S)
        for _ in range(100):
            t = rng.uniform(-5, 5, sys.d)
            lhs = mu_hat_batch(sys, t[None, :], 1e-11)[0]
            tt = s_inv @ t
            rhs = (m_eval(sys.B, tt if sys.d > 1 else tt[0]) / np.sqrt(sys.N)
                   * mu_hat_batch(sys, tt[None, :], 1e-11)[0])
            assert abs(lhs - rhs) < 1e-10


def test_mu_hat_modulus_bounded(twindragon):
    rng = np.random.default_rng(13)
    pts = rng.uniform(-8, 8, size=(200, 2))
    vals = mu_hat_batch(twindragon, pts)
    assert np.all(np.abs(vals) <= 1.0 + 1e-9)


def test_mu_hat_batch_matches_detail(cantor4):
    rng = np.random.default_rng(14)
    ts = rng.uniform(-20, 20, size=(50, 1))
    batch = mu_hat_batch(cantor4, ts, 1e-11)
    for t, v in zip(ts, batch):
        assert abs(v - mu_hat_detail(cantor4, (t[0],), 1e-11).value) < 1e-10


@functools.lru_cache(maxsize=None)
def reference_tails(sys) -> np.ndarray:
    """T_K = sum_{k>K} ||S^{-k}||_2 for K = 0, 1, ..., with each power from
    `np.linalg.matrix_power` on its own, summed until the norms underflow
    to 0; the last entry is 0."""
    s_inv, norms = np.linalg.inv(sys.S), []
    while not norms or norms[-1] > 0.0:
        norms.append(np.linalg.norm(np.linalg.matrix_power(s_inv, len(norms) + 1), 2))
    return np.cumsum(norms[::-1])[::-1]


def reference_depth(sys, t_norm, tail_tol=None) -> int:
    """The smallest depth K >= 1 with 2 pi max|b| |t| T_K < tail_tol, T_K from
    `reference_tails`; 0 for t = 0."""
    tail_tol = sys.tail_tol if tail_tol is None else tail_tol
    x = 2.0 * np.pi * float(np.max(np.linalg.norm(sys.B, axis=1))) * t_norm
    return 0 if x == 0.0 else max(1, int(np.argmax(x * reference_tails(sys) < tail_tol)))


def geometric_depth(sys, t_norm, tail_tol=None) -> int:
    """The depth rule for a contraction c = ||S^{-1}||_2 whose powers have
    norm c^k (S^{-1} normal): the smallest K >= 1 with
    2 pi max|b| |t| c^(K+1) / (1 - c) < tail_tol; 0 for t = 0."""
    tail_tol = sys.tail_tol if tail_tol is None else tail_tol
    c = float(np.linalg.norm(np.linalg.inv(sys.S), 2))
    max_b = float(np.max(np.linalg.norm(sys.B, axis=1)))
    depth = 0 if t_norm == 0.0 or max_b == 0.0 else 1
    while depth and 2.0 * np.pi * max_b * t_norm * c ** (depth + 1) / (1.0 - c) >= tail_tol:
        depth += 1
    return depth


@pytest.mark.parametrize("name", AFFINE)
def test_depths_are_the_geometric_rule_where_s_inverse_is_normal(name):
    # a normal S^{-1} has ||S^{-k}||_2 = c^k, so its power norms give the
    # depths of the geometric rule; planar-shear's Jordan block needs fewer
    sys = get_system(name)
    s_inv = np.linalg.inv(sys.S)
    ts = np.geomspace(1e-3, 1e150, 300)
    depths = _tail_depth(sys, ts, None)
    rule = np.array([geometric_depth(sys, t) for t in ts])
    if np.allclose(s_inv @ s_inv.T, s_inv.T @ s_inv):
        assert np.array_equal(depths, rule)
    else:
        assert np.all(depths <= rule) and np.any(depths < rule)
    # below h the bound is the sum of the power norms, past h it is looser
    first = depths < len(sys.l_view.power_norms())
    assert depths[first].tolist() == [reference_depth(sys, t) for t in ts[first]]


def test_power_sums_cover_the_powers_past_the_doubling_cap():
    # R = 1001/1000: the doubling stops at its cap of 2^14 powers, whose sum is
    # 999.99992; the remainder past the cap makes it a bound on c / (1 - c)
    c = Fraction(1000, 1001)
    view = AffineSystem.create([[Fraction(1001, 1000)]], [[0], [1]], [[0], [1]]).l_view
    assert len(view.power_norms()) == 2 ** 14 and view.power_norms().sum() < 999.99993
    assert view.power_norms().sum() + view.power_tail() >= float(c / (1 - c))
    assert view.bounding_radius() >= float(c / (1 - c))


def mu_hat_fraction_reference(sys, t, tail_tol=None) -> tuple:
    """(value, n_factors, exact_zero, zero_level) by the per-level Fraction
    loop: S^{-k} t in Fractions, every phase b.t_k reduced mod 1 on its own,
    the depth from the scalar tail-bound loop."""
    tk = np.array(fvec(t), dtype=object)
    depth = reference_depth(sys, float(np.linalg.norm(tk.astype(float))), tail_tol)
    s_inv = mat_inverse(sys.S_exact)
    sqrt_n = np.sqrt(sys.N)
    value = 1.0 + 0.0j
    for k in range(1, depth + 1):
        tk = s_inv @ tk
        phases = np.array(
            [float(sum((bb * cc) % 1 for bb, cc in zip(b, tk)) % 1) for b in sys.B_exact]
        )
        factor = np.exp(2j * np.pi * phases).sum() / sqrt_n
        if abs(factor) < EXACT_ZERO_CUTOFF * sqrt_n:
            return 0j, k, True, k
        value *= factor / sqrt_n
    return complex(value), depth, False, None


def seeded_rationals(d, count, seed):
    rng = np.random.default_rng(seed)
    denoms = [1, 2, 3, 4, 5, 8, 9, 16, 25, 64]
    return [tuple(Fraction(int(rng.integers(-300, 301)), int(rng.choice(denoms)))
                  for _ in range(d)) for _ in range(count)]


@pytest.mark.parametrize("name", AFFINE)
def test_mu_hat_detail_matches_fraction_reference(name):
    sys = get_system(name)
    zeros = 0
    for t in seeded_rationals(sys.d, 120, seed=len(name)):
        ref_value, *ref_meta = mu_hat_fraction_reference(sys, t)
        got = mu_hat_detail(sys, t)
        assert [got.n_factors, got.exact_zero, got.zero_level] == ref_meta, t
        assert abs(got.value - ref_value) <= 1e-15, t
        zeros += got.exact_zero
    assert zeros > 0  # the draw reaches the exact-zero branch


# an N = 5 triple whose mu_hat vanishes exactly at t = -131 (phases 0, .8,
# .6, .4, .2 at level 1), where the float phase b.t_1 = 366.8 is off by
# ~1e-13 and a float product that steps t_k misses the zero
R20_TRIPLE = ([[20]], [[0], [4], [8], [12], [56]], [[0], [-9], [2], [-2], [4]])


def test_mu_hat_detail_numpy_integers_are_exact(cantor4, twindragon):
    r20 = AffineSystem.create(*R20_TRIPLE)
    ref = mu_hat_detail(r20, (Fraction(-131),))
    assert ref.exact_zero and ref.zero_level == 1
    for t in (np.int64(-131), np.array([-131]), (np.int32(-131),), -131, -131.0):
        assert mu_hat_detail(r20, t) == ref
    ref = mu_hat_detail(cantor4, (Fraction(12345),))
    for t in (np.int64(12345), np.array([12345]), (np.int32(12345),), 12345):
        assert mu_hat_detail(cantor4, t) == ref
    ref = mu_hat_detail(twindragon, (Fraction(3), Fraction(-4)))
    assert mu_hat_detail(twindragon, np.array([3, -4])) == ref
    assert mu_hat_detail(cantor4, np.float64(0.3)) == mu_hat_detail(cantor4, 0.3)


@pytest.mark.parametrize("name", AFFINE)
def test_float_points_are_read_as_their_fractions(name):
    # a point is exact: mu_hat_detail of a float t is, bit for bit, that of
    # its Fractions, up to |t| = 10^3 and on the quarter lattice of the zeros
    sys = get_system(name)
    rng = np.random.default_rng(42)
    ts = np.concatenate([rng.uniform(-1e3, 1e3, (10, sys.d)),
                         rng.integers(-40, 41, (10, sys.d)) / 4])
    for t in ts:
        assert repr(mu_hat_detail(sys, t)) == repr(mu_hat_detail(sys, tuple(map(Fraction, t))))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_a_non_finite_point_raises(cantor4, twindragon, t):
    with pytest.raises((ValueError, OverflowError)):
        mu_hat_detail(cantor4, t)
    with pytest.raises((ValueError, OverflowError)):
        mu_hat_detail(twindragon, (0.5, t))


# --- mu_hat_batch against the complex product --------------------------------

def mu_hat_batch_complex_reference(sys, ts, tail_tol=None):
    """`mu_hat_batch` as the complex float product on every N: at each level
    the mean of exp(2 pi i b.t_k) over the digits, t_k = t_{k-1} S^{-t}, all
    rows to the depth of the largest; a row stops at its first factor below
    the cutoff and is set to 0."""
    pts = np.atleast_2d(np.asarray(ts, dtype=float))
    depth = reference_depth(sys, float(np.linalg.norm(pts, axis=1).max(initial=0.0)), tail_tol)
    sqrt_n, s_inv_t, tk = np.sqrt(sys.N), sys.l_view.inv.T, pts
    values, rows = np.ones(len(pts), dtype=complex), np.arange(len(pts))
    for _ in range(depth):
        tk = tk @ s_inv_t
        factors = np.exp(2j * np.pi * (tk @ sys.B.T)[rows]).sum(axis=1) / sqrt_n
        values[rows] *= factors / sqrt_n
        rows = rows[np.abs(factors) >= EXACT_ZERO_CUTOFF * sqrt_n]
    values[np.isin(np.arange(len(pts)), rows, invert=True)] = 0j
    return values


def assert_batch_matches_complex_reference(sys, ts, tail_tol=None) -> int:
    """Values within 2 eps (depth + 2 pi max|b| |t| T_0): both products
    round about an eps per factor, and the reference's exp adds eps times its
    phase 2 pi b.t_k, unreduced.  Every reference zero is a zero, and every
    extra zero is an exact zero of mu_hat at the float t.  Returns the number
    of extra zeros."""
    ts = np.asarray(ts, dtype=float)
    got, ref = mu_hat_batch(sys, ts, tail_tol), mu_hat_batch_complex_reference(sys, ts, tail_tol)
    norms = np.linalg.norm(ts, axis=1)
    max_b = float(np.max(np.linalg.norm(sys.B, axis=1)))
    depth = reference_depth(sys, float(norms.max()), tail_tol)
    bound = 2 * np.finfo(float).eps * (depth + 2 * np.pi * max_b * norms * reference_tails(sys)[0])
    assert np.all(np.abs(got - ref) <= bound)
    assert np.all(got[ref == 0] == 0)
    extra = np.flatnonzero((got == 0) & (ref != 0))
    for i in extra:
        assert mu_hat_detail(sys, tuple(map(Fraction, ts[i])), tail_tol).exact_zero, ts[i]
    return len(extra)


@pytest.mark.parametrize("name", AFFINE)
def test_mu_hat_batch_matches_complex_reference(name):
    # every affine system, N = 2 and N = 4: the cosine form with its closed-form
    # tail, or the digit exponentials with it, against the per-level product
    sys = get_system(name)
    rng = np.random.default_rng(len(name))
    zeros = 0
    for scale in (2, 57, 500):
        assert_batch_matches_complex_reference(sys, rng.uniform(-scale, scale, (2000, sys.d)))
        quarters = rng.integers(-4 * scale, 4 * scale + 1, (2000, sys.d)) / 4
        assert_batch_matches_complex_reference(sys, quarters)
        zeros += np.count_nonzero(mu_hat_batch(sys, quarters) == 0)
    assert zeros > 0  # the quarter lattices reach the exact-zero rows


def test_mu_hat_batch_catches_more_zeros_on_the_basin_window(twindragon):
    # c09b's window, radius 40 at lattice scale 5: the cosine form flags 239
    # exact zeros that the complex product leaves at |value| <= 4e-16
    grid = np.mgrid[-200:201, -200:201].reshape(2, -1).T
    ts = np.array([0.3, -0.7]) - grid / 5
    assert assert_batch_matches_complex_reference(twindragon, ts, 1e-10) == 239


def assert_batch_matches_stepping_reference(sys, ts, tail_tol=None) -> int:
    """`mu_hat_batch` against `stepping_mu_hat_batch`, the product that steps
    t_k: values within the bound of `assert_batch_matches_complex_reference`
    (each phase rounds within eps of its turns, along a direction or along
    a stepped t_k), every reference zero a zero, and every extra zero an
    exact zero of mu_hat at the float t.  Returns the number of extra zeros."""
    ts = np.asarray(ts, dtype=float)
    got, ref = mu_hat_batch(sys, ts, tail_tol), stepping_mu_hat_batch(sys, ts, tail_tol)
    norms = np.linalg.norm(ts, axis=1)
    max_b = float(np.max(np.linalg.norm(sys.B, axis=1)))
    depth = reference_depth(sys, float(norms.max()), tail_tol)
    bound = 2 * np.finfo(float).eps * (depth + 2 * np.pi * max_b * norms * reference_tails(sys)[0])
    assert np.all(np.abs(got - ref) <= bound)
    assert np.all(got[ref == 0] == 0)
    extra = np.flatnonzero((got == 0) & (ref != 0))
    for i in extra:
        assert mu_hat_detail(sys, tuple(map(Fraction, ts[i])), tail_tol).exact_zero, ts[i]
    return len(extra)


@pytest.mark.parametrize("name", AFFINE)
def test_mu_hat_batch_matches_stepping_reference(name):
    # the real product along cached phase directions (every affine system is
    # symmetric about its mean digit) against the product that steps t_k,
    # with the N = 2 cosine or the N = 4 digit exponentials
    sys = get_system(name)
    rng = np.random.default_rng(len(name) + 7)
    for scale in (2, 57, 500):
        assert_batch_matches_stepping_reference(sys, rng.uniform(-scale, scale, (2000, sys.d)))
        quarters = rng.integers(-4 * scale, 4 * scale + 1, (2000, sys.d)) / 4
        assert_batch_matches_stepping_reference(sys, quarters)


# B = 2 {0, 1, 2} with R = 6: symmetric about its mean 2, a digit on it
ODD_SYMMETRIC_TRIPLE = ([[6]], [[0], [2], [4]], [[0], [1], [2]])


@pytest.mark.parametrize("triple, order", [(R20_TRIPLE, 3), (ODD_SYMMETRIC_TRIPLE, 4)],
                         ids=["asymmetric", "odd-symmetric"])
def test_mu_hat_batch_matches_stepping_reference_off_the_registry(triple, order):
    # an asymmetric N = 5 set takes the complex mean along its long double
    # directions, and flags the zero at t = -131 that stepping misses; a
    # symmetric N = 3 set (S^{-1} = 1/6, also long double) the real factor
    # (2 cos + 1) / 3.  Both reach zeros
    sys = AffineSystem.create(*triple)
    assert sys._digit_moments[3] == order and sys._tail_sums[0][3].dtype == np.longdouble
    ts = np.array([[-131.0], [1.5]])
    assert mu_hat_batch(sys, ts)[0] == 0 and (order == 4 or stepping_mu_hat_batch(sys, ts)[0] != 0)
    rng = np.random.default_rng(order)
    zeros = 0
    for scale in (2, 57):
        assert_batch_matches_stepping_reference(sys, rng.uniform(-scale, scale, (2000, 1)))
        quarters = rng.integers(-4 * scale, 4 * scale + 1, (2000, 1)) / 4
        assert_batch_matches_stepping_reference(sys, quarters)
        zeros += np.count_nonzero(mu_hat_batch(sys, quarters) == 0)
    assert zeros > 0


def test_long_double_directions_keep_the_batch_near_exact_at_large_t():
    # cantor3's S^{-1} = 1/3 is not dyadic, so its directions and phases are
    # long doubles, rounded to floats only after the reduction mod 1: up to
    # |t| = 10^7 the batch stays within 1e-13 of the exact evaluation, where
    # float phases (of stepped t_k or of long double directions alike) are
    # off by up to 2e-11
    sys = get_system("cantor3")
    ts = np.random.default_rng(2).uniform(-1e7, 1e7, (100, 1))
    ref = np.array([mu_hat_detail(sys, t, 1e-13).value for t in ts])
    assert np.max(np.abs(mu_hat_batch(sys, ts, 1e-13) - ref)) <= 1e-13


def planar_shear_zeros(scale: int, count: int, seed: int) -> np.ndarray:
    """count rows t = (a/3, b), |a| <= 3 scale and |b| <= scale, drawn in
    order from one seeded stream, that are exact zeros of planar-shear's
    mu_hat (`mu_hat_detail`)."""
    sys, rng, rows = get_system("planar-shear"), np.random.default_rng(seed), []
    while len(rows) < count:
        t = (Fraction(int(rng.integers(-3 * scale, 3 * scale + 1)), 3),
             Fraction(int(rng.integers(-scale, scale + 1))))
        if mu_hat_detail(sys, t).exact_zero:
            rows.append([float(c) for c in t])
    return np.array(rows)


def test_mu_hat_batch_flags_more_planar_shear_zeros_than_the_stepping_product(planar_shear):
    # at s = 1000 both float products miss some exact zeros: a vanishing
    # factor's phase rounds past the cutoff, in the stepped t_k or along a
    # cached direction, and not at the same rows.  The directions miss fewer:
    # 849 of these 1000 are flagged, against 799 by stepping (78 of those
    # are missed here; at s = 100 both flag all)
    ts = planar_shear_zeros(1000, 1000, seed=31)
    got, ref = mu_hat_batch(planar_shear, ts), stepping_mu_hat_batch(planar_shear, ts)
    assert np.count_nonzero(got == 0) > np.count_nonzero(ref == 0)


def per_level_batch(sys, ts, tail_tol=None):
    """`mu_hat_batch` with the factors of its closed-form tail taken one level
    at a time: the same head arithmetic (`_float_terms`) down to the head
    level K of `_head_levels`, then at each level K < k <= D the complex mean
    of exp(2 pi i b.t_k) over the digits, t_k stepped from t_K = S^{-K} t.
    All rows go to the depth D of the largest."""
    ts = np.asarray(ts, dtype=float)
    top = np.linalg.norm(ts, axis=1).max(initial=0.0)
    depth = int(_tail_depth(sys, top, tail_tol))
    dtype, terms, finish = _float_terms(sys, ts)

    def per_level(at, k):
        turns = finish(at, k)[1]
        tk = ts[at] @ _tail_level(sys, k)[2].T
        product = np.ones(len(tk), dtype=complex)
        for _ in range(depth - k):
            tk = tk @ sys.l_view.inv.T
            product *= np.exp(2j * np.pi * (tk @ sys.B.T)).sum(axis=1) / sys.N
        return np.abs(product), turns + np.angle(product) / (2 * np.pi)
    head = np.full(len(ts), _head_levels(sys, top, depth))
    return _truncated_products(head, dtype, terms, per_level)[0]


def assert_tail_moves_the_product_by_eps(sys, ts, tail_tol=None):
    """`mu_hat_batch` against `per_level_batch`: the same zero flags, and values
    within eps (the closed form's bound, `_head_levels`) plus 4 eps for each
    of the D - K factors past the head K that the per-level product rounds."""
    ts = np.asarray(ts, dtype=float)
    top = np.linalg.norm(ts, axis=1).max(initial=0.0)
    depth = _tail_depth(sys, top, tail_tol)
    rest = depth - _head_levels(sys, top, depth)
    got, ref = mu_hat_batch(sys, ts, tail_tol), per_level_batch(sys, ts, tail_tol)
    assert np.array_equal(got == 0, ref == 0)
    assert np.max(np.abs(got - ref), initial=0.0) <= np.finfo(float).eps * (1 + 4 * rest)


def long_doubles(rows) -> np.ndarray:
    """Rows of Fractions as long doubles, numerator over denominator."""
    return np.array([[np.longdouble(f.numerator) / np.longdouble(f.denominator) for f in row]
                     for row in rows], dtype=np.longdouble)


def assert_closed_form_tail_within_eps(sys, ts, tail_tol=None):
    """The closed-form tail of a batch at its head point t_K against the
    D - K factors it stands for, multiplied one by one in long double from
    the same t_K: within eps (the rule of `_head_levels`) plus 2 eps for the
    closed form's rounding and 4 long-double eps per factor of the
    reference's.  A wrong cumulant order m shows here first: taking m = 4 on
    an asymmetric digit set errs by up to hundreds of eps."""
    ts = np.asarray(ts, dtype=float)
    top = np.linalg.norm(ts, axis=1).max(initial=0.0)
    depth = int(_tail_depth(sys, top, tail_tol))
    head = int(_head_levels(sys, top, depth))
    tk = ts.copy()
    for _ in range(head):
        tk = tk @ sys.l_view.inv.T
    scale, turns = _gaussian_tail(tk.T, *_tail_level(sys, depth - head)[:2])
    two_pi = 8 * np.arctan(np.longdouble(1))
    x, b = tk.astype(np.longdouble), long_doubles(sys.B_exact)
    s_inv_t = long_doubles(sys.l_view.inv_exact).T
    ref = np.ones(len(x), dtype=np.clongdouble)
    for _ in range(depth - head):
        x = x @ s_inv_t
        ref *= np.exp(1j * two_pi * (x @ b.T)).sum(axis=1) / sys.N
    bound = 3 * np.finfo(float).eps + 4 * (depth - head) * np.finfo(np.longdouble).eps
    assert np.max(np.abs(scale * np.exp(2j * np.pi * turns) - ref), initial=0.0) <= bound


@pytest.mark.parametrize("name", AFFINE)
def test_tail_levels_do_not_depend_on_how_far_a_call_extends_them(name):
    # the cache extended to level 40 in one call holds, bit for bit, what
    # forty calls of one level each build, and each level r matches its
    # sums taken power by power: u_r, Q_r, S^{-r} and the directions c S^{-r}
    once, stepwise = get_system(name), get_system(name)
    _tail_level(once, 40)
    for r in range(41):
        _tail_level(stepwise, r)
    for a, b in zip(once._tail_sums, stepwise._tail_sums, strict=True):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    bbar, cov, *_, c, _ = once._digit_moments
    powers = [np.linalg.matrix_power(once.l_view.inv, j) for j in range(41)]
    for r, (u, q, power, g) in enumerate(once._tail_sums):
        u_r = sum((p.T @ bbar for p in powers[1:r + 1]), np.zeros(once.d))
        q_r = sum((p.T @ cov @ p for p in powers[1:r + 1]), np.zeros((once.d, once.d)))
        for got, want in ((power, powers[r]), (g, c @ powers[r]), (u, u_r), (q, q_r)):
            assert np.allclose(got.astype(float), want.astype(float), rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("name", AFFINE)
def test_mu_hat_batch_tail_at_its_edges(name):
    # a run whose depth is at most its head level takes no tail: it is the
    # per-level product bit for bit.  Runs of different heads in one batch
    # each meet the reference bound, the tail's eps against the per-level
    # product (with its zero flags) and against the factors it replaces in
    # long double.  A row at t = 0 reads 1, in a run of its own and inside a
    # deep run
    sys = get_system(name)
    rng = np.random.default_rng(43)
    wide = rng.uniform(-50, 50, (300, sys.d))
    top = np.linalg.norm(wide, axis=1).max()
    depth = _tail_depth(sys, top, 1e-3)
    assert _head_levels(sys, top, depth) == depth
    assert mu_hat_batch(sys, wide, 1e-3).tobytes() == per_level_batch(sys, wide, 1e-3).tobytes()
    wide[7] = 0.0
    runs = [np.zeros((3, sys.d)), rng.uniform(-0.01, 0.01, (50, sys.d)),
            rng.integers(-12, 13, (50, sys.d)) / 4, wide]
    tops = [np.linalg.norm(run, axis=1).max() for run in runs]
    depths = _tail_depth(sys, tops, None)
    heads = _head_levels(sys, tops, depths)
    assert len(set(heads[1:].tolist())) == 3 and np.all(heads[1:] < depths[1:])
    got = np.split(mu_hat_batch(sys, np.concatenate(runs), spans=[len(r) for r in runs]),
                   np.cumsum([len(r) for r in runs])[:-1])
    assert np.all(got[0] == 1) and got[-1][7] == 1
    for run, values in zip(runs[1:], got[1:]):
        assert values.tobytes() == mu_hat_batch(sys, run).tobytes()
        assert_batch_matches_complex_reference(sys, run)
        assert_tail_moves_the_product_by_eps(sys, run)
        assert_closed_form_tail_within_eps(sys, run)


@pytest.mark.parametrize("name", AFFINE)
def test_mu_hat_rows_do_not_depend_on_their_batch(name):
    # rows of different norms (so depths) and exact zeros, in one table of
    # the float rows: each row is mu_hat_detail of its float point
    sys = get_system(name)
    rng = np.random.default_rng(16)
    rows = np.concatenate([rng.uniform(-30, 30, (40, sys.d)),
                           rng.integers(-40, 41, (40, sys.d)) / 4, np.zeros((1, sys.d))])
    values, n_factors, _ = _mu_hat_rows(sys, *_over_common_denominator(rows))
    for t, value, n in zip(rows, values, n_factors):
        one = mu_hat_detail(sys, t)
        assert (one.value, one.n_factors) == (value, n)
    assert np.any(values == 0) and len(set(n_factors.tolist())) > 2


# a Hadamard triple with S = 5/2 not integral (D = 2, e = 4): mu_hat
# vanishes at the odd integers, at its first factor
RATIONAL_S_TRIPLE = ([[Fraction(5, 2)]], [[0], [Fraction(5, 4)]], [[0], [1]])


@pytest.mark.parametrize("name", AFFINE + ["rational-S"])
def test_exact_mu_hat_rows_do_not_depend_on_their_batch(name):
    # one integer table over q = 60 of rows of many depths, with the
    # lattices (1/3)Z, (1/4)Z and (1/5)Z where the registry's exact zeros
    # lie: each row is mu_hat_detail of its Fractions
    sys = AffineSystem.create(*RATIONAL_S_TRIPLE) if name == "rational-S" else get_system(name)
    q, rng = 60, np.random.default_rng(17)
    table = np.concatenate([rng.integers(-3000, 3001, (40, sys.d)), np.zeros((1, sys.d), int)]
                           + [m * rng.integers(-40, 41, (20, sys.d)) for m in (12, 15, 20)])
    values, n_factors, zero_level = _mu_hat_rows(sys, table, q)
    for row, value, n, level in zip(table.tolist(), values, n_factors, zero_level):
        one = mu_hat_detail(sys, tuple(Fraction(v, q) for v in row))
        assert (one.value, one.n_factors, one.zero_level or 0) == (value, n, level), row
    assert np.any(zero_level > 0) and len(set(n_factors.tolist())) > 2


def test_mu_hat_batch_input_shapes(cantor4, twindragon):
    column = mu_hat_batch(cantor4, [[0.5], [0.25], [1.0]])
    assert np.array_equal(mu_hat_batch(cantor4, np.array([0.5, 0.25, 1.0])), column)
    assert np.array_equal(mu_hat_batch(cantor4, 0.25), mu_hat_batch(cantor4, [[0.25]]))
    row = mu_hat_batch(twindragon, np.array([[0.3, -0.7]]))
    assert np.array_equal(mu_hat_batch(twindragon, np.array([0.3, -0.7])), row)
    for sys, ts in ((twindragon, np.zeros((4, 3))), (twindragon, np.zeros(3)),
                    (twindragon, 0.5), (cantor4, np.zeros((4, 2))),
                    (twindragon, np.zeros((2, 2, 2)))):
        with pytest.raises(ValueError, match="d = %d" % sys.d):
            mu_hat_batch(sys, ts)


@pytest.mark.parametrize("name", AFFINE)
def test_mu_hat_batch_spans_are_their_runs_alone(name):
    # each run of `spans` goes to the depth of its own largest norm: its
    # values are those of a batch of the run alone, bit for bit, whatever
    # depths its neighbours take.  A run of one row is that row alone: a
    # one-row batch runs as the row twice (on planar-shear a one-row matmul
    # once rounded the phases of 289 of 300 normal rows of scale 3 its own way)
    sys = get_system(name)
    rng = np.random.default_rng(37)
    runs = [rng.normal(scale=s, size=(n, sys.d)) for s, n in ((0.5, 40), (60.0, 7), (3.0, 2),
                                                             (0.0, 5), (3.0, 1), (9.0, 33))]
    runs.insert(2, np.empty((0, sys.d)))
    spans = [len(run) for run in runs]
    got = mu_hat_batch(sys, np.concatenate(runs), spans=spans)
    assert got.tobytes() == np.concatenate([mu_hat_batch(sys, run) for run in runs]).tobytes()
    assert got.tobytes() == mu_hat_batch(sys, np.concatenate(runs)[::-1],
                                         spans=spans[::-1])[::-1].tobytes()
    for bad in ([40, 7], spans + [1], [-1] + spans[:-1] + [spans[-1] + 1]):
        with pytest.raises(ValueError, match="spans"):
            mu_hat_batch(sys, np.concatenate(runs), spans=bad)
    for t in rng.normal(scale=3.0, size=(60, sys.d)):
        assert mu_hat_batch(sys, t[None]).tobytes() == mu_hat_batch(sys, [t, t])[:1].tobytes()


def test_weight_and_m_eval_input_shapes(cantor4, twindragon):
    # a flat array is one point on d = 2, and anything but a d-vector is
    # refused rather than cut to its first point; on d = 1 a flat array is
    # one point per entry
    rows = np.array([[0.12, 0.3], [0.2, 0.4]])
    for fn in (weight_from_digits(twindragon.B), lambda x: m_eval(twindragon.B, x)):
        assert fn(rows[0]) == fn(rows)[0]
        for bad in (rows.ravel(), 0.3, np.zeros((2, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="d = 2"):
                fn(bad)
    for fn in (weight_from_digits(cantor4.B), lambda x: m_eval(cantor4.B, x)):
        assert np.array_equal(fn(np.array([0.12, 0.3])), fn([[0.12], [0.3]]))
        assert fn(0.3) == fn([[0.3]])[0]
        with pytest.raises(ValueError, match="d = 1"):
            fn(rows)


def test_chaos_game_moments_match_mu_hat(cantor4):
    pts = chaos_game(cantor4.b_view, 40_000, seed=21)
    for t in (0.1, 0.25, -0.4):
        emp = empirical_char(pts, [t])
        ref = mu_hat_detail(cantor4, (Fraction(t).limit_denominator(100),)).value
        assert abs(emp - ref) < 3.0 / np.sqrt(len(pts))


def test_points_csv_roundtrip(tmp_path, cantor4):
    pts = chaos_game(cantor4.b_view, 50, seed=3)
    path = tmp_path / "pts.csv"
    points_to_csv(path, pts)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x0"
    got = np.array([[float(v)] for v in lines[1:]])
    assert np.allclose(got, pts, atol=1e-16)


def test_chaos_game_rejects_no_streams(cantor4):
    for n_streams in (0, -1):
        with pytest.raises(ValueError, match="n_streams"):
            chaos_game(cantor4.b_view, 100, seed=1, n_streams=n_streams)


AFFINE = sorted(name for name, entry in EXAMPLES.items() if entry.kind == "affine")


# --- the chaos-game scan against step-by-step iteration ----------------------

def chaos_game_loop(view, n_samples, seed, n_streams=1):
    """Reference: the orbit x_k = tau_{d_k}(x_{k-1}) from x_0 = 0, one sample
    at a time, with the same digit draws and stream split as `chaos_game`."""
    counts = [n_samples // n_streams] * n_streams
    counts[-1] += n_samples - sum(counts)
    inv_t = view.inv.T
    shifts = view.digits @ inv_t
    chunks = []
    for child, count in zip(np.random.SeedSequence(seed).spawn(n_streams), counts):
        digits = np.random.default_rng(child).integers(0, view.n_digits, size=count)
        out = np.empty((count, view.d))
        x = np.zeros(view.d)
        for k in range(count):
            x = x @ inv_t + shifts[digits[k]]
            out[k] = x
        chunks.append(out)
    return np.concatenate(chunks, axis=0)


def assert_scan_matches_loop(view, n_samples, seed, n_streams=1):
    """Same shape, and within 8 eps R: the truncation bound (eps/4) R plus
    rounding."""
    fast = chaos_game(view, n_samples, seed, n_streams=n_streams)
    ref = chaos_game_loop(view, n_samples, seed, n_streams=n_streams)
    assert fast.shape == ref.shape == (n_samples, view.d)
    assert np.max(np.abs(fast - ref)) <= 8 * np.finfo(float).eps * view.bounding_radius()


@pytest.mark.parametrize("name", AFFINE)
@pytest.mark.parametrize("n_streams", [1, 3])
def test_chaos_game_scan_matches_loop(name, n_streams):
    sys_ = get_system(name)
    for view in (sys_.b_view, sys_.l_view):
        assert_scan_matches_loop(view, 3000, 41, n_streams=n_streams)


@pytest.mark.parametrize("name", ["cantor4", "twindragon"])
def test_chaos_game_scan_short_streams(name):
    # 2 samples in 3 streams leaves the first two streams empty
    view = get_system(name).l_view
    assert_scan_matches_loop(view, 2, 5, n_streams=3)
    assert_scan_matches_loop(view, 1, 5)
    assert_scan_matches_loop(view, 1, 5, n_streams=3)


# --- the cosine-polynomial W kernel against the exponential symbol ---------


def _generic(digits):
    """W_B = |m_B|^2 / N from the exponential sum `m_eval`, at (n, d) rows or
    flat d = 1 coordinates: no cosine polynomial."""
    b = np.atleast_2d(np.asarray(digits, dtype=float))
    return lambda x: np.abs(m_eval(b, x)) ** 2 / len(b)


def at_images(fn, view, z):
    """fn at all N branch images of the rows of z, as an (N, n) array."""
    return fn(view.tau_all(z).reshape(-1, view.d)).reshape(view.n_digits, len(z))


def _kernel_deviation(digits, view, z):
    fast = _branch_weights(weight_from_digits(digits), view, z)
    ref = at_images(_generic(digits), view, z)
    assert fast.shape == ref.shape == (view.n_digits, len(z))
    assert fast.flags.c_contiguous
    return float(np.max(np.abs(fast - ref)))


@pytest.mark.parametrize("name", AFFINE)
def test_factored_kernel_matches_generic_on_l_view(name):
    sys_ = get_system(name)
    lo, hi = sys_.l_view.box()
    z = np.random.default_rng(31).uniform(lo, hi, size=(2000, sys_.d))
    assert _kernel_deviation(sys_.B, sys_.l_view, z) < 1e-13


@pytest.mark.parametrize("name", AFFINE)
def test_factored_kernel_matches_generic_off_the_box(name):
    # any frequencies on any affine view, at points up to three boxes out
    sys_ = get_system(name)
    for view in (sys_.b_view, sys_.l_view):
        lo, hi = view.box()
        z = np.random.default_rng(32).uniform(3 * lo, 3 * hi, size=(2000, sys_.d))
        for digits in (sys_.B, sys_.L):
            assert _kernel_deviation(digits, view, z) < 1e-11


@pytest.mark.parametrize("name", [n for n in AFFINE if n != "cantor3"])
def test_factored_kernel_qmf(name):
    # cantor3 is no Hadamard triple, so W_B is not QMF on its L-view
    sys_ = get_system(name)
    assert check_qmf(weight_from_digits(sys_.B), sys_.l_view) < 1e-14


@pytest.mark.parametrize("name,x", [("cantor4", [0.3]), ("lambda15", [0.21]),
                                    ("twindragon", [0.1, -0.2]),
                                    ("planar-shear", [0.15, 0.05])])
def test_walk_same_under_factored_and_generic_kernel(monkeypatch, name, x):
    from test_pathspace import patch_branch_pass  # not at the top: a circular import

    sys_ = get_system(name)
    weight = weight_from_digits(sys_.B)
    a = sample_paths(weight, sys_.l_view, x, 32, 2000, seed=23)
    c = run_chain(weight, sys_.l_view, x, 4000, burn_in=50, seed=24, n_chains=32)
    generic = _generic(sys_.B)

    def at_the_images(w, z, view):
        w[...] = at_images(generic, view, z)
        return w
    patch_branch_pass(monkeypatch, at_the_images)
    b = sample_paths(weight, sys_.l_view, x, 32, 2000, seed=23)
    assert np.array_equal(a.words, b.words)
    assert np.array_equal(a.tail_states, b.tail_states)
    d = run_chain(weight, sys_.l_view, x, 4000, burn_in=50, seed=24, n_chains=32)
    assert np.array_equal(c.states, d.states)


def test_weight_with_digits_hashable_and_comparable(cantor4):
    # a Weight is a value: c0, a, f and the description decide == and hash,
    # and == compares the arrays without raising
    digits = [[0], [1], [2], [3]]  # three cosine terms
    a, b = weight_from_digits(digits), weight_from_digits(digits)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b, a}) == 1
    assert a != Weight(a.c0, a.a, a.f, "W") and a != weight_from_digits(cantor4.B)
    assert a != "|m_B|^2/N"
    assert Weight(0.5, [], np.empty((0, 1))) != Weight(0.5, [], np.empty((0, 2)))
    minus, plus = Weight(0.5, [-0.0], [[1.0]]), Weight(0.5, [0.0], [[1.0]])
    assert minus == plus and hash(minus) == hash(plus)
    with pytest.raises(ValueError, match="read-only"):
        a.a[0] = 1.0
    for weight in (a, weight_from_digits(cantor4.B), EXAMPLES["riesz3"].weight):
        again = pickle.loads(pickle.dumps(weight))
        assert again == weight and hash(again) == hash(weight)
        assert not again.a.flags.writeable and again(0.3) == weight(0.3)


def test_cosine_weight_refuses_malformed_polynomials():
    # one coefficient and two frequencies: called at a point and in the
    # branch pass, such a weight would give two different values
    for a, f in [([0.25], [[1.0], [3.0]]), ([[0.25]], [[1.0]]), ([0.25], [1.0]), ([], [])]:
        with pytest.raises(ValueError, match="a of shape"):
            Weight(0.25, a, f)
    # no terms: the constant c0, with f of shape (0, d)
    view = get_system("cantor4").l_view
    half = Weight(0.5, [], np.empty((0, 1)), "1/2")
    assert half(0.1) == 0.5 and half([0.1, 0.2]).tolist() == [0.5, 0.5]
    assert np.all(_branch_weights(half, view, np.array([[0.1], [7.0]])) == 0.5)


def _polynomial(digits):
    weight = weight_from_digits(digits)
    return weight.c0, weight.a, weight.f


def test_cosine_polynomial_of_digit_sets():
    # cantor4: |1 + e(2x)|^2 / 4 = 1/2 + (1/2) cos(2 pi 2x)
    c0, a, f = _polynomial([[0], [2]])
    assert c0 == 0.5 and a.tolist() == [0.5] and f.tolist() == [[2.0]]
    # {0, 1, 2, 3}: differences 1, 2, 3 from 3, 2, 1 unordered pairs
    c0, a, f = _polynomial([[0], [1], [2], [3]])
    assert c0 == 0.25 and f.tolist() == [[1.0], [2.0], [3.0]]
    assert a.tolist() == [6 / 16, 4 / 16, 2 / 16]
    # +-delta share one frequency, whatever the order of the digits
    c0, a, f = _polynomial([[1, 0], [0, 0], [0, 1], [1, -1]])
    assert f.tolist() == [[0.0, 1.0], [1.0, -2.0], [1.0, -1.0], [1.0, 0.0]]
    assert c0 == 0.25 and a.tolist() == [4 / 16, 2 / 16, 4 / 16, 2 / 16]
    # a repeated digit is a pair with difference 0: it adds to the constant
    c0, a, f = _polynomial([[0], [0], [1]])
    assert c0 == 5 / 9 and a.tolist() == [4 / 9] and f.tolist() == [[1.0]]
    # one digit: W = 1 and no cosines
    c0, a, f = _polynomial([[3, 4]])
    assert c0 == 1.0 and a.shape == (0,) and f.shape == (0, 2)


@pytest.mark.parametrize("digits", [[[0], [0], [1]], [[1, 0], [0, 0], [0, 1], [1, -1]],
                                    [[3, 4]], [[0.5], [1.25], [-2.0]]])
def test_cosine_polynomial_matches_generic_weight(digits):
    # repeated digits, sign-merged 2-d differences, one digit, non-integer digits
    d = len(digits[0])
    view = IfsView("B", 3.0 * np.eye(d), np.zeros((2, d)) + np.arange(2.0)[:, None])
    z = np.random.default_rng(33).uniform(-2.0, 2.0, size=(500, d))
    assert _kernel_deviation(digits, view, z) < 1e-13
    # the weight called at the points themselves: the same cosine pass
    pts = z if d > 1 else z[:, 0]
    assert np.max(np.abs(weight_from_digits(digits)(pts) - _generic(digits)(pts))) < 1e-13


# --- the branch pass by angle addition against the direct pass -------------

EPS = np.finfo(float).eps


def direct_branch_pass(weight, view, n):
    """`measure._branch_pass` before angle addition: the trig of every
    frequency, P cosines and P sines of 2 pi g_j.z with g_j = M^{-t} f_j, and
    one (N, 2P) x (2P, n) product with the coefficients (a cos phi, -a sin phi),
    phi_{j,l} = 2 pi g_j.l reduced mod 1.  Patched in for `_branch_pass`, it
    gives the walk of that pass."""
    g = weight.f @ view.inv
    phi = g @ view.digits.T
    phi = 2.0 * np.pi * (phi - np.rint(phi))
    a = weight.a[:, None]
    coef = np.concatenate([a * np.cos(phi), -a * np.sin(phi)]).T.copy()
    out, turns = np.empty((view.n_digits, n)), np.empty((2 * len(g), n))

    def weights_at(z):
        np.matmul(coef, _cosine_terms(g, z, turns), out=out)
        return np.add(out, weight.c0, out=out)
    return weights_at


def walk_weight(name):
    """(weight, view) of a registry entry's walk: W_B on the L-view, or the
    riesz3 (weight, view)."""
    if EXAMPLES[name].kind == "circle":
        return EXAMPLES[name].weight, EXAMPLES[name].view
    sys_ = get_system(name)
    return weight_from_digits(sys_.B), sys_.l_view


def assert_near_direct_pass(weight, view, z):
    """The branch weights at the states z equal the direct pass's bit for bit
    when no frequency is derived, and are within a quarter of the zero cut
    at z otherwise: the first-order rounding bound of either pass, without
    the factor 4 the cut has to spare.  Returns the largest deviation."""
    fast = _branch_weights(weight, view, z)
    ref = direct_branch_pass(weight, view, len(z))(z)
    if len(view.cosine_factors(weight.a, weight.f)[0]) == len(weight.a):
        assert np.array_equal(fast, ref)
    floor, scale = _zero_cutoff(weight, view)
    assert np.all(np.abs(fast - ref) < (floor + np.abs(z) @ scale) / 4)
    return float(np.max(np.abs(fast - ref)))


@pytest.mark.parametrize("name", list(EXAMPLES))
def test_branch_pass_within_8_eps_of_the_direct_pass(name):
    # at 6,000 states of the box, the walk's weights: bit for bit on every
    # P = 1 weight (no derived frequency), within 8 eps on planar-shear
    weight, view = walk_weight(name)
    lo, hi = view.box()
    z = np.random.default_rng(35).uniform(lo, hi, size=(6000, view.d))
    derived = len(weight.a) - len(view.cosine_factors(weight.a, weight.f)[0])
    assert derived == (2 if name == "planar-shear" else 0)
    assert assert_near_direct_pass(weight, view, z) <= 8 * EPS


@pytest.mark.parametrize("name", AFFINE)
def test_branch_pass_near_the_direct_pass_on_both_views(name):
    # either digit set's weight on either view, out to three boxes: phases of
    # several turns, where the two passes round apart by more than 8 eps
    # (19 eps for W_L on planar-shear's B-view) but within the rounding bound
    sys_ = get_system(name)
    for view in (sys_.l_view, sys_.b_view):
        lo, hi = view.box()
        z = np.random.default_rng(36).uniform(3 * lo, 3 * hi, size=(2000, sys_.d))
        for digits in (sys_.B, sys_.L):
            assert_near_direct_pass(weight_from_digits(digits), view, z)


def test_planar_shear_runs_the_trig_on_two_of_its_four_frequencies():
    sys_ = get_system("planar-shear")
    weight = weight_from_digits(sys_.B)
    assert weight.f.tolist() == [[0, 1], [3, -1], [3, 0], [3, 1]]
    direct, plan = _angle_sums(weight.f)
    # (0, 1) and (3, 0) direct; (3, -1) = (3, 0) - (0, 1) and (3, 1) their sum
    assert direct.tolist() == [0, 2]
    assert plan.tolist() == [[1, 0], [-1, 1], [0, 1], [1, 1]]
    g, plan, left, right, coef = sys_.l_view.cosine_factors(weight.a, weight.f)
    assert g.tolist() == (weight.f[direct] @ sys_.l_view.inv).tolist()
    # 4 trig rows and the 4 products c_a c_b, s_a s_b, s_a c_b, c_a s_b the two
    # derived terms share: the same (4, 8) coefficients as 8 trig rows took
    assert sorted(zip(left.tolist(), right.tolist())) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert coef.shape == (4, 8)


def test_a_derived_frequency_never_reads_another():
    # 2 = 1 + 1 is derived, so 3 = 1 + 2 is not: 3 is direct, and 4 = 3 + 1
    direct, plan = _angle_sums(np.array([[1.0], [2.0], [3.0], [4.0]]))
    assert direct.tolist() == [0, 2]
    assert plan.tolist() == [[1, 0], [2, 0], [0, 1], [1, 1]]
    # rows are visited by |f|_1, ties by row, whatever their order
    direct, plan = _angle_sums(np.array([[3.0, 1.0], [0.0, 1.0], [3.0, -1.0], [3.0, 0.0]]))
    assert direct.tolist() == [1, 3] and plan.tolist() == [[1, 1], [1, 0], [-1, 1], [0, 1]]
    # a constant weight has no terms
    direct, plan = _angle_sums(np.empty((0, 2)))
    assert direct.shape == (0,) and plan.shape == (0, 0)


def test_weight_at_points_is_the_one_branch_pass():
    # W(x) runs the branch pass of the view x -> x: derived terms included,
    # within 8 eps of c0 + sum_j a_j cos(2 pi f_j.x) formed term by term
    x = np.random.default_rng(37).uniform(-1.0, 1.0, size=(1000, 2))
    for digits in ([[0, 0], [3, 0], [0, 1], [3, 1]], [[0, 0], [1, 0], [2, 0], [3, 0]]):
        weight = weight_from_digits(digits)
        assert len(weight._points.cosine_factors(weight.a, weight.f)[0]) < len(weight.a)
        ref = weight.c0 + weight.a @ np.cos(2.0 * np.pi * (weight.f @ x.T))
        assert np.max(np.abs(weight(x) - ref)) <= 8 * EPS
        assert weight(x).tolist() == _branch_weights(weight, weight._points, x)[0].tolist()


@pytest.mark.parametrize("tail_tol", [np.nan, np.inf, 0.0, -1.0])
def test_per_call_tail_tol_must_be_finite_and_positive(cantor4, tail_tol):
    with pytest.raises(ValueError, match="tail_tol must be a finite positive number"):
        mu_hat_detail(cantor4, 0.3, tail_tol)
    with pytest.raises(ValueError, match="tail_tol must be a finite positive number"):
        mu_hat_batch(cantor4, [0.3], tail_tol)


def test_an_overflowing_tail_bound_raises(cantor4):
    # the depth loop used to run on an infinite bound until c^k underflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e307, 1e200):
            with pytest.raises(OverflowError, match="tail bound"):
                mu_hat_batch(cantor4, [0.5, t])
            with pytest.raises(OverflowError, match="tail bound"):
                mu_hat_detail(cantor4, t)
        assert mu_hat_detail(cantor4, 1e150).n_factors > 0


@pytest.mark.parametrize("field", ["B", "L"])
def test_digits_beyond_the_float_range_are_refused(field):
    digits = {"B": [[0], [2]], "L": [[0], [1]]}
    digits[field] = [[0], [1e200]]  # |b|^2 overflows, so the norm is not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="%s has a digit beyond the float range" % field):
            AffineSystem.create([[4]], digits["B"], digits["L"])
