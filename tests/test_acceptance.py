"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s -v` to see the lines.

Three sub-criteria assert golden values that are provably inconsistent
with the defining constructions they accompany; they are implemented
literally, marked strict-xfail, and the verified values are pinned in
tests/test_golden_corrections.py:

  * 3a: the ten smallest cantor4 frequencies (the closure of {0} under
        x -> 4x + {0,1} can only contain base-4 numbers with digits 0/1,
        so ...,21 is followed by 64, 65 -- not 24, 25);
  * 2f: the twindragon W-cycle census at periods <= 4 (exact enumeration
        finds a third four-cycle, substitution-verified);
  * 12: the quarterplane basin table (the lattice endomorphism's true
        basins are slanted wedges; two of its claimed membership examples
        hold and are asserted here, the full table does not).
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

import ifsfourier as ff
from ifsfourier import (
    EXAMPLES,
    check_duality,
    completeness_sum,
    estimate_h,
    find_w_cycles,
    generate_lambda,
    get_system,
    grid_orthogonality,
    h_closed_form,
    k_point,
    mu_hat_detail,
    verify_orthogonality,
    weight_from_digits,
)
from ifsfourier.invariant import fourier_coefficient, riesz_chain
from ifsfourier.transfer import check_qmf
from reference import path_weight_with_tail
from test_spectrum import labels_at


def line(cid, ok, detail):
    print("ACCEPTANCE %-3s %s  %s" % (cid, "PASS" if ok else "FAIL", detail))
    return ok


def lam(l1):
    return ff.AffineSystem.create([[4]], [[0], [2]], [[0], [l1]], name="lambda%d" % l1)


def point_sets(cycles):
    return {frozenset(c.points) for c in cycles}


def one_point(v):
    return frozenset({(Fraction(v),)})


# -- 1: Hadamard verification ---------------------------------------------------

def test_c01_duality_checks():
    t0 = time.perf_counter()
    devs = {}
    for name in ("cantor4", "planar-shear", "twindragon"):
        rep = check_duality(get_system(name))
        devs[name] = rep.unitarity.max_deviation
        assert rep.passes, name
    elapsed = time.perf_counter() - t0
    ok = all(d < 1e-12 for d in devs.values()) and elapsed < 1.0
    assert line("1", ok, "duality max_dev=%.2e elapsed=%.3fs" % (max(devs.values()), elapsed))


# -- 2: W-cycle golden values ----------------------------------------------------

def test_c02_w_cycle_goldens():
    t0 = time.perf_counter()
    c4 = point_sets(find_w_cycles(get_system("cantor4"), 6))
    ok = c4 == {one_point(0)}
    l3 = point_sets(find_w_cycles(lam(3), 6))
    ok &= l3 == {one_point(0), one_point(1)}
    l15 = point_sets(find_w_cycles(lam(15), 6))
    ok &= frozenset({(Fraction(1),), (Fraction(4),)}) in l15
    l63 = point_sets(find_w_cycles(lam(63), 3))
    ok &= frozenset({(Fraction(16),), (Fraction(4),), (Fraction(1),)}) in l63
    planar = point_sets(find_w_cycles(get_system("planar-shear"), 4))
    ok &= planar == {
        frozenset({(Fraction(0), Fraction(0))}),
        frozenset({(Fraction(1), Fraction(-1))}),
        frozenset({(Fraction(0), Fraction(1))}),
        frozenset({(Fraction(1), Fraction(0))}),
    }
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert line("2", ok, "cantor4/l3/l15/l63/planar exact cycle sets, %.2fs" % elapsed)


@pytest.mark.xfail(
    strict=True,
    reason="exact enumeration finds a sixth W-cycle (word 0011, substitution-"
    "verified); see test_golden_corrections.py::test_twindragon_w_cycle_census",
)
def test_c02f_twindragon_count_golden():
    cycles = find_w_cycles(get_system("twindragon"), 4)
    from collections import Counter

    counts = Counter(c.period for c in cycles)
    ok = len(cycles) == 5 and counts[1] == 2 and counts[2] == 1 and counts[4] == 2
    line("2f", ok, "twindragon: expected 5 cycles (2x p1, 1x p2, 2x p4), found %d %s"
         % (len(cycles), dict(counts)))
    assert ok


# -- 3: spectrum golden values ---------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="the closure of {0} under x -> 4x + {0,1} contains only base-4 "
    "digit-{0,1} numbers, so elements 9 and 10 are 64, 65; see "
    "test_golden_corrections.py::test_cantor4_first_ten_frequencies",
)
def test_c03a_cantor4_ten_smallest_golden():
    sys = get_system("cantor4")
    spec = generate_lambda(sys, find_w_cycles(sys, 6), 5)
    got = spec.smallest_nonnegative_1d(10)
    expected = [0, 1, 4, 5, 16, 17, 20, 21, 24, 25]
    ok = got == expected
    line("3a", ok, "cantor4 ten smallest: got %s" % ([int(v) for v in got],))
    assert ok


def test_c03b_lambda5_is_scaled_lambda1():
    s1, s5 = lam(1), lam(5)
    ok = True
    for levels in (3, 5):
        a = generate_lambda(s1, find_w_cycles(s1, 2), levels).elements
        b = generate_lambda(s5, find_w_cycles(s5, 2), levels).elements
        ok &= {(5 * e,) for (e,) in a} == set(b)
    assert line("3b", ok, "Lambda(5) == 5 * Lambda(1) at levels 3 and 5")


def test_c03c_lambda3_two_branch_window():
    sys = lam(3)
    spec = generate_lambda(sys, find_w_cycles(sys, 3), 6)
    window = {e for (e,) in spec.elements if abs(e) <= 200}
    explicit = set()
    for n in range(6):
        for word in itertools.product((0, 1), repeat=n + 1):
            explicit.add(sum(3 * w * 4 ** i for i, w in enumerate(word)))
            explicit.add(sum(-3 * w * 4 ** i for i, w in enumerate(word)) - 1)
    explicit = {Fraction(v) for v in explicit if abs(v) <= 200}
    ok = window == explicit
    assert line("3c", ok, "Lambda(3) matches the two-branch form on [-200, 200], "
                "%d elements" % len(window))


# -- 4: orthogonality ------------------------------------------------------------

def test_c04_orthogonality_window():
    t0 = time.perf_counter()
    sys = get_system("cantor4")
    spec = generate_lambda(sys, find_w_cycles(sys, 6), 7)
    elems = sorted(spec.elements)[:50]
    rep = verify_orthogonality(sys, elems, tail_tol=1e-10)
    elapsed = time.perf_counter() - t0
    ok = rep.max_offdiag < 1e-8 and elapsed < 10.0
    assert line("4", ok, "50-window max offdiag %.2e, %.2fs" % (rep.max_offdiag, elapsed))


# -- 5: completeness -------------------------------------------------------------

def test_c05_completeness_levels8():
    sys = get_system("cantor4")
    cycles = find_w_cycles(sys, 6)
    sums = [
        completeness_sum(sys, sorted(generate_lambda(sys, cycles, lev).elements),
                         [0.3], 1e-10)
        for lev in (4, 6, 8)
    ]
    monotone = all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))
    ok = 0.999 <= sums[-1] <= 1.0 + 1e-6 and monotone
    assert line("5", ok, "levels-8 completeness %.8f, monotone=%s" % (sums[-1], monotone))


# -- 6: non-ONB witness ----------------------------------------------------------

def test_c06_cantor3_witness():
    rep = grid_orthogonality(get_system("cantor3"), [0.3], span=100)
    # regression value of the plateau, frozen from the first run
    ok = rep.clique_size == 2
    ok &= rep.zero_anchored_sum <= 0.96
    ok &= rep.zero_anchored_sum == pytest.approx(0.9314512523409066, abs=1e-9)
    assert line("6", ok, "clique=%d plateau=%.10f (partner %s)"
                % (rep.clique_size, rep.zero_anchored_sum, rep.anchored_partner))


# -- 7: QMF property -------------------------------------------------------------

def test_c07_qmf_normalization():
    # the five duality systems carry the QMF-normalized weight |m_B|^2/N;
    # cantor3 is the deliberate non-orthogonal witness whose weight is not
    # branch-normalized, and riesz3 is checked on its own view and weight
    worst = 0.0
    for name in ("cantor4", "lambda15", "lambda63", "planar-shear", "twindragon"):
        sys = get_system(name)
        dev = check_qmf(weight_from_digits(sys.B), sys.l_view, n_probe=10_000, seed=7)
        worst = max(worst, dev)
    riesz = EXAMPLES["riesz3"]
    worst = max(worst, check_qmf(riesz.weight, riesz.view, n_probe=10_000, seed=7))
    ok = worst < 1e-12
    assert line("7", ok, "sup |R_W 1 - 1| over 1e4 probes = %.2e" % worst)


# -- 8: path-space identity ------------------------------------------------------

def test_c08_path_space_identity():
    sys = get_system("cantor4")
    w = weight_from_digits(sys.B)
    cycle = find_w_cycles(sys, 2)[0]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(0, 7))
        word = tuple(int(v) for v in rng.integers(0, 2, n))
        x = Fraction(int(rng.integers(-999, 1000)), 3000)
        lhs = path_weight_with_tail(w, sys.l_view, [float(x)], word, cycle)
        rhs = abs(mu_hat_detail(sys, (x + k_point(sys, cycle, word)[0],), 1e-12).value) ** 2
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-8
    assert line("8", ok, "20 random (x, word): max |P_x term - |mu_hat|^2| = %.2e" % worst)


# -- 9: harmonic partition -------------------------------------------------------

CANTOR4_PROBES = [0.05, 0.3, -0.22, 0.17, -0.31]
TWINDRAGON_PROBES = [(0.1, -0.2), (0.3, -0.7), (-0.05, -0.33), (0.22, -0.9), (0.0, -0.5)]


def test_c09a_harmonic_partition_cantor4():
    sys = get_system("cantor4")
    w = weight_from_digits(sys.B)
    cycles = find_w_cycles(sys, 6)
    ok = True
    worst_total, worst_gap = 0.0, 0.0
    for i, x in enumerate(CANTOR4_PROBES):
        est = estimate_h(w, sys.l_view, [x], cycles, length=64, count=100_000,
                         seed=100 + i)
        ok &= abs(est.total - 1.0) < 0.02
        worst_total = max(worst_total, abs(est.total - 1.0))
        cf = h_closed_form(sys, [x], cycles[0], 12)
        sigma = max(est.stderrs[0], 1.0 / est.count)
        gap = abs(est.probabilities[0] - cf)
        # the MC estimate is censored by the unclassified residual; the
        # closed form is truncated from below at depth 12
        ok &= gap <= 3 * sigma + est.unclassified + 1e-6
        worst_gap = max(worst_gap, gap - est.unclassified)
    assert line("9a", ok, "cantor4: max |sum-1| = %.4f, closed-form gap <= 3 sigma "
                "(worst %.2e)" % (worst_total, worst_gap))


def test_c09b_harmonic_partition_twindragon():
    sys = get_system("twindragon")
    w = weight_from_digits(sys.B)
    cycles = find_w_cycles(sys, 8)
    from ifsfourier.spectrum import lattice_basin_labels
    from ifsfourier.measure import mu_hat_batch

    pts, labels = lattice_basin_labels(sys, cycles, radius=40.0, lattice_scale=5)
    ok = True
    worst_total = 0.0
    for i, x in enumerate(TWINDRAGON_PROBES):
        est = estimate_h(w, sys.l_view, list(x), cycles, length=64, count=100_000,
                         seed=200 + i)
        ok &= abs(est.total - 1.0) < 0.02
        worst_total = max(worst_total, abs(est.total - 1.0))
        # k-points of a cycle are the negated basin of its base point
        weights = np.abs(mu_hat_batch(sys, np.asarray(x) - pts / 5, 1e-10)) ** 2
        coverage = float(weights.sum())
        slack = (1.0 - coverage) + est.unclassified
        for ci in range(len(cycles)):
            cf = float(weights[labels == ci].sum())
            sigma = max(est.stderrs[ci], 1.0 / est.count)
            ok &= est.probabilities[ci] >= cf - 3 * sigma
            ok &= est.probabilities[ci] <= cf + slack + 3 * sigma
    assert line("9b", ok, "twindragon (9 cycles to period 8): max |sum-1| = %.4f, "
                "per-cycle closed form within 3 sigma + window tail" % worst_total)


# -- 10: TZ-failure witness ------------------------------------------------------

def test_c10_planar_shear_deficiency():
    sys = get_system("planar-shear")
    cycles = find_w_cycles(sys, 4)
    x = [1 / 3, 0]
    total_h = sum(h_closed_form(sys, x, c, 6) for c in cycles)
    sums = []
    for span in (6, 15):
        window = [
            (Fraction(a, 3), Fraction(b))
            for a in range(-3 * span, 3 * span + 1)
            for b in range(-span, span + 1)
        ]
        sums.append(completeness_sum(sys, window, x, 1e-10))
    ok = total_h < 0.99
    ok &= sums[0] <= sums[1] + 1e-12
    ok &= sums[-1] > 0.999
    assert line("10", ok, "sum h_C = %.3e < 0.99 while dual-lattice completeness "
                "reaches %.6f" % (total_h, sums[-1]))


# -- 11: Riesz product -----------------------------------------------------------

def test_c11_riesz_chain():
    riesz = EXAMPLES["riesz3"]
    norm_dev = check_qmf(riesz.weight, riesz.view, n_probe=2_000, seed=11)
    chain = riesz_chain(1_000_000, seed=11)
    v1, s1 = fourier_coefficient(chain, 1, angular=True)
    v6, s6 = fourier_coefficient(chain, 6, angular=True)
    ok = norm_dev < 1e-12
    ok &= abs(v1) < 4 * s1
    ok &= abs(v6 - 0.5) < 4 * s6
    assert line("11", ok, "normalization %.2e; nu_hat(1)=%.4f(±%.4f) "
                "nu_hat(6)=%.4f(±%.4f)" % (norm_dev, abs(v1), s1, abs(v6), s6))


# -- 12: cycle basins ------------------------------------------------------------

def quarterplane_table(x, y):
    if x <= 0 and y <= 0:
        return (0, 0)
    if x >= 1 and y >= 0:
        return (1, 0)
    if x <= 0 and y >= 1:
        return (0, 1)
    return (1, -1)


@pytest.mark.xfail(
    strict=True,
    reason="the endomorphism's true basins are slanted wedges, not the axis "
    "quarterplanes (the third quadrant is not even forward-invariant); see "
    "test_golden_corrections.py::test_planar_shear_basin_partition",
)
def test_c12_quarterplane_table_golden():
    sys = get_system("planar-shear")
    cycles = find_w_cycles(sys, 4)
    window = [(x, y) for x in range(-10, 11) for y in range(-10, 11)]
    mismatches = 0
    for (x, y), label in zip(window, labels_at(sys, cycles, window, 1)):
        got = tuple(int(c) for c in cycles[label].points[0])
        mismatches += got != quarterplane_table(x, y)
    ok = mismatches == 0
    line("12", ok, "quarterplane table on [-10,10]^2: %d/441 mismatches" % mismatches)
    assert ok
