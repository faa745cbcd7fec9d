import warnings

import numpy as np
import pytest

from ifsfourier import (
    EXAMPLES,
    Weight,
    check_qmf,
    empirical_char,
    mu_hat_detail,
    run_chain,
    weight_from_digits,
)
from ifsfourier.invariant import (
    DEFAULT_BURN_IN,
    batch_mean_stderr,
    concentration_curve,
    fourier_coefficient,
    riesz_chain,
    riesz_partial_density,
)
from ifsfourier.system import IfsView


def riesz_weight(t):
    """W(e^{it}) = (2/3) cos^2 t, the Riesz weight on angles."""
    return (2.0 / 3.0) * np.cos(np.asarray(t, dtype=float)) ** 2


def test_chain_uniform_weight_samples_mu(cantor4):
    # W = 1/N on the B view: stationary law is mu_B itself
    w = Weight(0.5, [], np.empty((0, 1)), "1/N")
    chain = run_chain(w, cantor4.b_view, [0.1], 60_000, burn_in=200, seed=1)
    for t in (0.2, -0.35):
        emp = empirical_char(chain.states, [t])
        from fractions import Fraction

        ref = mu_hat_detail(cantor4, (Fraction(t).limit_denominator(100),)).value
        assert abs(emp - ref) < 3.0 / np.sqrt(chain.n) * 3


def test_chain_single_map_collapses(cantor4):
    view = IfsView("B", cantor4.R, np.array([[0.0]]))
    w = Weight(1.0, [], np.empty((0, 1)), "1")
    chain = run_chain(w, view, [0.5], 500, burn_in=100, seed=2)
    assert np.max(np.abs(chain.states)) < 1e-12


def test_chain_states_in_ball(cantor4):
    w = weight_from_digits(cantor4.B)
    chain = run_chain(w, cantor4.l_view, [0.0], 5000, burn_in=100, seed=3)
    assert np.max(np.abs(chain.states)) <= cantor4.l_view.bounding_radius() + 1e-9


def test_chain_stationarity_proxy(cantor4):
    w = weight_from_digits(cantor4.B)
    chain = run_chain(w, cantor4.l_view, [0.2], 60_000, burn_in=500, seed=4)
    xs = chain.states[:, 0]
    for fn in (
        lambda v: v,
        lambda v: v ** 2,
        lambda v: np.cos(2 * np.pi * v),
        lambda v: np.sin(4 * np.pi * v),
        lambda v: v ** 3,
    ):
        m1, s1 = batch_mean_stderr(fn(xs[:-1]))
        m2, _ = batch_mean_stderr(fn(xs[1:]))
        assert abs(m1 - m2) < 4 * max(s1, 1e-6)


def test_chain_deterministic_given_seed(cantor4):
    from ifsfourier import weight_from_digits

    w = weight_from_digits(cantor4.B)
    a = run_chain(w, cantor4.l_view, [0.1], 2000, burn_in=50, seed=9)
    b = run_chain(w, cantor4.l_view, [0.1], 2000, burn_in=50, seed=9)
    assert np.array_equal(a.states, b.states)
    c = riesz_chain(2000, seed=9)
    d = riesz_chain(2000, seed=9)
    assert np.array_equal(c.states, d.states)


def _reference_riesz_chain(n, seed, burn_in, n_chains, t0=0.0):
    """The bespoke circle loop riesz_chain ran before it became a run_chain
    call: angles in place of x = t / 2 pi, no QMF check.  Returns the
    recorded angles, chain by chain, and every branch choice."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = np.full(n_chains, float(t0))
    per_chain = n // n_chains
    keep = np.empty((n_chains, burn_in + per_chain))
    choices = np.empty((n_chains, burn_in + per_chain), dtype=int)
    for step in range(burn_in + per_chain):
        branches = (t[:, None] + 2.0 * np.pi * np.arange(3.0)[None, :]) / 3.0
        probs = riesz_weight(branches)
        probs = np.where(probs < 1e-15, 0.0, probs)
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random(n_chains)
        choice = np.minimum((u[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1), 2)
        t = branches[np.arange(n_chains), choice]
        keep[:, step] = t
        choices[:, step] = choice
    return keep[:, burn_in:], choices[:, burn_in:]


def riesz_angles(n, seed, burn_in, n_chains, t0) -> np.ndarray:
    """The states of `run_chain` on the riesz3 entry from the angle t0, as
    angles: `riesz_chain` is this walk from t0 = 0 after DEFAULT_BURN_IN
    steps."""
    entry = EXAMPLES["riesz3"]
    sample = run_chain(entry.weight, entry.view, [t0 / (2.0 * np.pi)], n, burn_in=burn_in,
                       seed=seed, n_chains=n_chains)
    return sample.states[:, 0] * (2.0 * np.pi)


@pytest.mark.parametrize("burn_in,t0", [(0, 0.0), (0, 1.3), (25, 4.0)])
def test_riesz_chain_matches_reference_loop(burn_in, t0):
    n, n_chains = 32 * 150, 32
    states = riesz_angles(n, 5, burn_in, n_chains, t0)
    angles, ref_choices = _reference_riesz_chain(n, 5, burn_in, n_chains, t0)
    assert states.shape == (n,)
    got = states.reshape(n_chains, -1)
    assert np.max(np.abs(got - angles)) < 1e-14
    # branch j maps t to (t + 2 pi j) / 3, so j = (3 t_k - t_{k-1}) / 2 pi
    # (after a burn-in the state before the first recorded one is unknown)
    prev = np.concatenate([np.full((n_chains, 1), float(t0)), got[:, :-1]], axis=1)
    choices = np.rint((3.0 * got - prev) / (2.0 * np.pi)).astype(int)
    start = 0 if burn_in == 0 else 1
    assert np.array_equal(choices[:, start:], ref_choices[:, start:])


def test_riesz_chain_is_the_riesz3_walk_from_zero():
    n, n_chains = 16 * 200, 16
    chain = riesz_chain(n, seed=5, n_chains=n_chains)
    assert chain.burn_in == DEFAULT_BURN_IN and chain.states.shape == (n,)
    assert chain.states.tobytes() == riesz_angles(n, 5, DEFAULT_BURN_IN, n_chains, 0.0).tobytes()
    angles = _reference_riesz_chain(n, 5, DEFAULT_BURN_IN, n_chains)[0]
    assert np.max(np.abs(chain.states.reshape(n_chains, -1) - angles)) < 1e-14


def test_run_chain_rejects_empty():
    w = Weight(0.5, [], np.empty((0, 1)), "1/N")
    view = IfsView("B", np.array([[4.0]]), np.array([[0.0], [2.0]]))
    with pytest.raises(ValueError):
        run_chain(w, view, [0.1], 0)


def test_chains_refuse_a_negative_burn_in():
    # burn_in -5 once returned uninitialized memory as the first states
    w = Weight(0.5, [], np.empty((0, 1)), "1/N")
    view = IfsView("B", np.array([[4.0]]), np.array([[0.0], [2.0]]))
    with pytest.raises(ValueError, match="burn_in"):
        run_chain(w, view, [0.1], 100, burn_in=-5)


def test_batch_mean_stderr_iid_scale():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=32_000)
    mean, err = batch_mean_stderr(vals)
    assert abs(mean) < 4 * err
    assert err == pytest.approx(1.0 / np.sqrt(len(vals)), rel=0.4)


@pytest.mark.parametrize("n_values,n_batches", [(100, 1), (100, 0), (5, 6), (0, 32)])
def test_batch_mean_stderr_refuses_fewer_than_two_batches_or_values(n_values, n_batches):
    with pytest.raises(ValueError, match="at least 2 batches"):
        batch_mean_stderr(np.ones(n_values), n_batches)


def test_fourier_coefficient_of_one_chain_is_refused(cantor4):
    # one chain is one batch: the stderr was NaN, with a RuntimeWarning
    chain = run_chain(weight_from_digits(cantor4.B), cantor4.l_view, [0.3], 200, burn_in=10,
                      n_chains=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least 2 batches"):
            fourier_coefficient(chain, [0.5])
    _, stderr = fourier_coefficient(run_chain(weight_from_digits(cantor4.B), cantor4.l_view,
                                              [0.3], 200, burn_in=10, n_chains=2), [0.5])
    assert np.isfinite(stderr)


def test_riesz_weight_normalization():
    riesz = EXAMPLES["riesz3"]
    assert check_qmf(riesz.weight, riesz.view, n_probe=1000, seed=0) < 1e-12


def test_riesz_partial_density_values():
    for k in (1, 4, 9):
        assert riesz_partial_density(0.0, k) == pytest.approx(2 ** k / (2 * np.pi))
    t = np.linspace(0, 2 * np.pi, 1000)
    assert np.all(riesz_partial_density(t, 6) >= 0.0)


def test_riesz_partial_density_integral():
    # Riemann sum on 3^13 points integrates every nonzero frequency to 0
    # exactly (max frequency 2*(3+...+3^12) < 3^13), so the value is the
    # constant term 1
    m = 3 ** 13
    t = np.arange(m) * (2 * np.pi / m)
    for k in (4, 12):
        val = riesz_partial_density(t, k).mean() * 2 * np.pi
        assert val == pytest.approx(1.0, abs=1e-8)


def test_riesz_chain_r_invariance():
    # the law of 3t mod 2pi matches the law of t (nu = nu o r^{-1})
    chain = riesz_chain(200_000, seed=6)
    t = chain.states
    rt = np.mod(3.0 * t, 2 * np.pi)
    for freq in (1, 2, 6):
        a, sa = batch_mean_stderr(np.exp(1j * freq * t))
        b, sb = batch_mean_stderr(np.exp(1j * freq * rt))
        assert abs(a - b) < 4 * (sa + sb + 1e-4)


def test_riesz_chain_fourier_coefficients():
    chain = riesz_chain(400_000, seed=7)
    v1, s1 = fourier_coefficient(chain, 1, angular=True)
    v6, s6 = fourier_coefficient(chain, 6, angular=True)
    assert abs(v1) < 4 * s1 + 1e-3
    assert abs(v6 - 0.5) < 4 * s6 + 1e-3


def test_riesz_stationary_product_starts_at_scale_one():
    # invariance rho(u) = 3 W(u) rho(3u) forces the factor (1 + cos 2u)
    # into the stationary density, so nu_hat(2) = 1/2 (not 0); the chain
    # pins this down to Monte Carlo accuracy
    chain = riesz_chain(400_000, seed=17)
    v2, s2 = fourier_coefficient(chain, 2, angular=True)
    assert abs(v2 - 0.5) < 4 * s2 + 1e-3
    v8, s8 = fourier_coefficient(chain, 8, angular=True)  # 8 = 2*3 + 2
    assert abs(v8 - 0.25) < 4 * s8 + 2e-3


def test_riesz_chain_quadrature_cross_check():
    # nu_hat(6) from the chain matches the partial-product coefficient 1/2
    # computed by exact-aliasing-free quadrature of the K=3 partial product
    m = 3 ** 5
    t = np.arange(m) * (2 * np.pi / m)
    coeff = (riesz_partial_density(t, 3) * np.exp(6j * t)).mean() * 2 * np.pi
    assert coeff.real == pytest.approx(0.5, abs=1e-10)
    chain = riesz_chain(200_000, seed=8)
    v6, s6 = fourier_coefficient(chain, 6, angular=True)
    assert abs(v6 - coeff) < 4 * s6 + 2e-3


def test_concentration_curve_shape():
    rng = np.random.default_rng(9)
    states = np.concatenate([np.zeros(9000), rng.uniform(0, 1, 1000)])
    curve = concentration_curve(states, n_bins=64)
    assert curve[0, 1] >= 0.9  # most mass in the single heaviest bin
    assert curve[-1, 1] == pytest.approx(1.0)
    assert np.all(np.diff(curve[:, 1]) >= -1e-12)


def test_concentration_curve_refuses_fewer_than_one_bin():
    # n_bins 0 once returned [[inf, 1.]] with a divide-by-zero warning
    for n_bins in (0, -3):
        with pytest.raises(ValueError, match="n_bins must be >= 1"):
            concentration_curve(np.ones((5, 1)), n_bins=n_bins)


def test_concentration_curve_refuses_no_states():
    # an empty states array once raised numpy's reshape error
    for states in (np.empty(0), np.empty((0, 2)), []):
        with pytest.raises(ValueError, match="at least one state"):
            concentration_curve(states)


def test_riesz_weight_is_a_cosine_polynomial(monkeypatch):
    # (2/3) cos^2(2 pi x) = 1/3 + (1/3) cos(4 pi x): the chain runs the W_B kernel
    from ifsfourier import pathspace
    from ifsfourier.measure import _branch_weights
    from test_measure import at_images
    from test_pathspace import patch_branch_pass

    riesz = EXAMPLES["riesz3"]
    x = np.random.default_rng(35).uniform(-2.0, 2.0, size=(3000, 1))
    fast = _branch_weights(riesz.weight, riesz.view, x)

    def generic(x):
        return riesz_weight(2.0 * np.pi * x[:, 0])
    assert np.max(np.abs(fast - at_images(generic, riesz.view, x))) < 1e-15
    assert np.max(np.abs(fast.sum(axis=0) - 1.0)) < 1e-15
    # the split chain against one segment that reads W at the branch images
    chain = run_chain(riesz.weight, riesz.view, [0.2], 32 * 300, burn_in=20, seed=4)

    def at_the_images(w, z, view):
        w[...] = at_images(generic, view, z)
        return w
    monkeypatch.setattr(pathspace, "_segment_count", lambda *args: 1)
    patch_branch_pass(monkeypatch, at_the_images)
    ref = run_chain(riesz.weight, riesz.view, [0.2], 32 * 300, burn_in=20, seed=4)
    assert np.array_equal(chain.states, ref.states)
