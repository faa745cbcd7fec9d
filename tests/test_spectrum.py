import heapq
import itertools
import math
import os
import subprocess
from fractions import Fraction
from pathlib import Path
from sys import executable

import numpy as np
import pytest

from ifsfourier import (
    AffineSystem,
    completeness_sum,
    find_w_cycles,
    generate_lambda,
    grid_orthogonality,
    k_point,
    LatticeError,
    get_system,
    lattice_basin_sums,
    mu_hat_batch,
    mu_hat_detail,
    verify_orthogonality,
)
from ifsfourier.ratlinalg import _over_common_denominator
from ifsfourier.registry import EXAMPLES
from ifsfourier.spectrum import (_closure, _horner, _parseval_terms, _table_floats,
                                 lattice_basin_labels)
from ifsfourier.system import fvec
from reference import closure_reference, cycle_basin, rotations
from test_cycles import fraction_expand, table_expand
from test_measure import mu_hat_fraction_reference

AFFINE_NAMES = sorted(n for n, e in EXAMPLES.items() if e.kind == "affine")


def lam(l1):
    return AffineSystem.create([[4]], [[0], [2]], [[0], [l1]], name="lambda%d" % l1)


def one_d(values):
    return {(Fraction(v),) for v in values}


# --- generation --------------------------------------------------------------

def test_lambda_cantor4_level3(cantor4, cantor4_w_cycles):
    spec = generate_lambda(cantor4, cantor4_w_cycles, 3)
    assert spec.elements == frozenset(one_d([0, 1, 4, 5, 16, 17, 20, 21]))


def test_lambda_cantor4_base4_digit_structure(cantor4, cantor4_w_cycles):
    # every element's base-4 expansion uses digits 0 and 1 only
    spec = generate_lambda(cantor4, cantor4_w_cycles, 6)
    for (e,) in spec.elements:
        n = int(e)
        assert e == n and n >= 0
        while n:
            assert n % 4 in (0, 1)
            n //= 4


def test_lambda_scaling_window():
    # Lambda(5) = 5 * Lambda(1), level by level
    sys1, sys5 = lam(1), lam(5)
    w1 = find_w_cycles(sys1, 2)
    w5 = find_w_cycles(sys5, 2)
    for levels in (2, 4, 6):
        a = generate_lambda(sys1, w1, levels).elements
        b = generate_lambda(sys5, w5, levels).elements
        assert {(5 * e,) for (e,) in a} == set(b)


def test_lambda3_two_branch_form():
    # window +-200 matches digits {0,3} plus digits {0,-3} shifted by -1
    sys = lam(3)
    cycles = find_w_cycles(sys, 3)
    spec = generate_lambda(sys, cycles, 6)
    window = {e for (e,) in spec.elements if abs(e) <= 200}
    explicit = set()
    for n in range(6):
        for word in np.ndindex(*(2,) * (n + 1)):
            explicit.add(sum(3 * w * 4 ** i for i, w in enumerate(word)))
            explicit.add(sum(-3 * w * 4 ** i for i, w in enumerate(word)) - 1)
    assert window == {Fraction(v) for v in explicit if abs(v) <= 200}


def test_lambda_twindragon_fifth_lattice(twindragon):
    cycles = find_w_cycles(twindragon, 4)
    spec = generate_lambda(twindragon, cycles, 4)
    for e in spec.elements:
        for c in e:
            assert (5 * c).denominator == 1


def test_lambda_closure_invariant(cantor4, cantor4_w_cycles):
    specs = [generate_lambda(cantor4, cantor4_w_cycles, n) for n in range(5)]
    s = cantor4.S_exact
    for lower, upper in zip(specs, specs[1:]):
        for (e,) in lower.elements:
            for (l,) in cantor4.L_exact:
                assert (s[0, 0] * e + l,) in upper.elements


def test_lambda_requires_seeds(cantor4):
    with pytest.raises(ValueError):
        generate_lambda(cantor4, [], 3)


def test_lambda_requires_zero_digit():
    sys = AffineSystem.create([[4]], [[1], [3]], [[0], [1]])
    cycles = find_w_cycles(sys, 2) or [find_w_cycles(lam(1), 1)[0]]
    with pytest.raises(ValueError):
        generate_lambda(sys, cycles, 2)


def test_lambda_element_cap(cantor4, cantor4_w_cycles):
    spec = generate_lambda(cantor4, cantor4_w_cycles, 30, element_cap=100)
    assert spec.cap_hit
    assert len(spec.elements) <= 100
    assert spec.level == 6  # |Lambda_6| = 64, |Lambda_7| = 128


@pytest.mark.parametrize("cap,level,kept", [
    (1, 0, [0]),  # round 1 would pass the cap: only Lambda_0 = {0}
    (3, 1, [0, 1, 4]),  # Lambda_1 and the least element of round 2
    (8, 3, [0, 1, 4, 5, 16, 17, 20, 21]),  # Lambda_3 fills the cap: no hit
])
def test_lambda_level_is_the_last_complete_round(cantor4, cantor4_w_cycles, cap, level, kept):
    spec = generate_lambda(cantor4, cantor4_w_cycles, 3, element_cap=cap)
    assert (spec.level, spec.cap_hit) == (level, cap < 8)
    assert spec.elements == one_d(kept)


@pytest.mark.parametrize("cap", [1, 8, 16])
def test_lambda_element_cap_at_or_below_seed_count(twindragon, cap):
    # the 16 seeds always stay and nothing is added (a cap below the seed
    # count used to keep all but the last few new points)
    cycles = find_w_cycles(twindragon, 4)
    spec = generate_lambda(twindragon, cycles, 3, element_cap=cap)
    assert len(spec.seeds) == 16
    assert spec.elements == spec.seeds
    assert spec.cap_hit and spec.level == 0


# --- k-points ----------------------------------------------------------------

def test_k_point_empty_word_is_minus_fixed_point(cantor4, cantor4_w_cycles):
    assert k_point(cantor4, cantor4_w_cycles[0], ()) == (Fraction(0),)
    sys = lam(15)
    two = [c for c in find_w_cycles(sys, 2) if c.period == 2][0]
    assert k_point(sys, two, ()) == (-two.points[0][0],)


def test_k_point_cantor4_word11(cantor4, cantor4_w_cycles):
    assert k_point(cantor4, cantor4_w_cycles[0], (1, 1)) == (Fraction(5),)


def test_k_point_rejects_misaligned_word():
    sys = lam(15)
    two = [c for c in find_w_cycles(sys, 2) if c.period == 2][0]
    with pytest.raises(ValueError):
        k_point(sys, two, (0,))


def test_k_point_recursion(twindragon):
    # k_{C}(w0 w) = S k_{C'}(w l0) + w0 with C' the rotated cycle
    rng = np.random.default_rng(3)
    cycles = find_w_cycles(twindragon, 4)
    s = twindragon.S_exact
    from ifsfourier.cycles import Cycle

    for cyc in cycles:
        p = cyc.period
        rot_word, rot_base = list(rotations(cyc))[1 % p]
        rotated = Cycle(rot_word, p, (rot_base,) + cyc.points)
        for _ in range(5):
            k = int(rng.integers(1, 3))
            omega = tuple(int(v) for v in rng.integers(0, 2, k * p))
            lhs = np.array(k_point(twindragon, cyc, omega), dtype=object)
            shifted = omega[1:] + (cyc.word[0],)
            rhs = s @ np.array(k_point(twindragon, rotated, shifted), dtype=object)
            rhs = rhs + np.array(twindragon.L_exact[omega[0]], dtype=object)
            assert list(lhs) == list(rhs)


def rotation_k_points(sys, cycles, n):
    """Lambda_n as k-points: the per-word Horner sum of `k_point`,
    sum_j S^j w_j - S^n x_r, for every word w of n letters and every
    rotation base x_r of every cycle, n a multiple of the periods or not."""
    bases = [base for cyc in cycles for base in cyc.points]
    words = list(itertools.product(range(sys.N), repeat=n))
    return {_horner(sys.l_view, w, [-c for c in base]) for base in bases for w in words}


def assert_lambda_is_rotation_k_points(sys, cycles, max_words, levels=range(7)):
    n_bases = sum(c.period for c in cycles)
    checked = [n for n in levels if sys.N ** n * n_bases <= max_words]
    for n in checked:
        assert generate_lambda(sys, cycles, n).elements == rotation_k_points(sys, cycles, n)
    return checked


def test_lambda_equals_k_points():
    # levels 0-6 within 4096 words, also those that are not multiples of
    # the periods (2 on lambda15, 3 on lambda63, 2 and 4 on twindragon)
    misaligned = set()
    for name in AFFINE_NAMES:
        sys = get_system(name)
        cycles = find_w_cycles(sys, 4)
        checked = assert_lambda_is_rotation_k_points(sys, cycles, 4096)
        assert checked[:4] == [0, 1, 2, 3]
        if any(n % math.lcm(*(c.period for c in cycles)) for n in checked):
            misaligned.add(name)
    assert misaligned == {"lambda15", "lambda63", "twindragon"}


def test_k_points_of_depth_match_per_word_k_point_d2(twindragon, planar_shear):
    # the closure of one cycle's -C through n letters is its k-points over
    # all rotations, n a multiple of the period or not; those of the base
    # rotation are the per-word k_point sums
    for sys, depth in ((twindragon, 2), (planar_shear, 3)):
        for cyc in find_w_cycles(sys, 4):
            for n in (depth * cyc.period - 1, depth * cyc.period):
                assert _closure(sys, cyc.points, n).elements == rotation_k_points(sys, [cyc], n)
            words = itertools.product(range(sys.N), repeat=depth * cyc.period)
            assert ({k_point(sys, cyc, w) for w in words}
                    <= _closure(sys, cyc.points, depth * cyc.period).elements)


def test_k_points_absorb_cycle_suffix(cantor4, cantor4_w_cycles):
    lambda15 = lam(15)
    for sys, cycles in ((cantor4, cantor4_w_cycles), (lambda15, find_w_cycles(lambda15, 2))):
        for cyc in cycles:
            shallow = _closure(sys, cyc.points, 2).elements
            assert shallow <= _closure(sys, cyc.points, 4).elements


def k_points_reference(sys, bases, n):
    """The k-point set from n Fraction expansions of the negated bases."""
    points = -np.array(bases, dtype=object).reshape(-1, sys.d)
    for _ in range(n):
        points = fraction_expand(sys.l_view, points)
    return set(map(tuple, points.tolist()))


def assert_k_points_match_reference(sys, cycles, max_words):
    """One cycle's closure through n letters is the k-point set of n Fraction
    expansions of its negated points (every rotation)."""
    for cyc in cycles:
        for n in range(7):
            if sys.N ** n * cyc.period <= max_words:
                assert _closure(sys, cyc.points, n).elements == k_points_reference(
                    sys, cyc.points, n)


@pytest.mark.parametrize("name", AFFINE_NAMES)
def test_expand_and_k_points_match_fraction_reference(name):
    sys = get_system(name)
    cycles = find_w_cycles(sys, 4)
    assert_k_points_match_reference(sys, cycles, 4096)
    rng = np.random.default_rng(7)
    for view in (sys.b_view, sys.l_view):
        pts = np.array([[Fraction(int(a), int(b)) for a, b in rng.integers(1, 9, (sys.d, 2))]
                        for _ in range(5)], dtype=object)
        for batch in (pts, pts[:0], np.full((1, sys.d), Fraction(0), dtype=object)):
            new, ref = table_expand(view, batch), fraction_expand(view, batch)
            assert len(new) == len(ref) == sys.N * len(batch)
            assert new == [tuple(row) for row in ref.tolist()]


def growing_denominator_system():
    """Rational data with 0 in B and 0 in L whose closure denominator grows
    mid-closure, so that `generate_lambda` rescales its table."""
    return AffineSystem.create([[Fraction(7, 2), 1], [0, 3]], [[0, 0], [Fraction(1, 3), 1]],
                               [[0, 0], [Fraction(-2, 5), 1]])


def test_integer_step_matches_fraction_reference_on_rational_data():
    # matrix and digit denominators D, e > 1: each step lifts the common
    # denominator to lcm(D q, e)
    sys = AffineSystem.create([[Fraction(7, 2), 1], [0, 3]], [[0, 0], [Fraction(1, 3), 1]],
                              [[0, Fraction(1, 2)], [Fraction(-2, 5), 1]])
    bases = [(Fraction(1, 4), Fraction(-2, 3)), (Fraction(0), Fraction(5))]
    for n in range(4):
        for view in (sys.b_view, sys.l_view):
            ref = np.array(bases, dtype=object)
            for _ in range(n):
                ref = fraction_expand(view, ref)
            assert table_expand(view, bases, n) == [tuple(row) for row in ref.tolist()]
    # the closure rescales its elements when the denominator grows
    zero = growing_denominator_system()
    cycles = find_w_cycles(zero, 3)
    for n in range(6):
        assert generate_lambda(zero, cycles, n).elements == rotation_k_points(zero, cycles, n)


@pytest.mark.parametrize("name", AFFINE_NAMES + ["growing-denominator"])
def test_spectrum_set_is_its_sorted_table(name):
    # rows strictly ascending (so distinct), rows / q the elements, and the
    # public readers the Fraction-set routes they replace, with and without
    # cap hits
    sys = growing_denominator_system() if name == "growing-denominator" else get_system(name)
    cycles = find_w_cycles(sys, 3)
    denominators = set()
    for levels, cap in [(n, 100_000) for n in range(6)] + [(6, 50), (6, 333)]:
        spec = generate_lambda(sys, cycles, levels, element_cap=cap)
        rows = list(map(tuple, spec.rows.tolist()))
        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert spec.elements == {tuple(Fraction(v, spec.q) for v in row) for row in rows}
        assert len(spec.elements) == len(rows)
        assert spec.smallest() == sorted(spec.elements)
        for k in (0, 1, 7, len(rows) + 3):
            assert spec.smallest(k) == heapq.nsmallest(k, spec.elements)
        if spec.d == 1:
            assert spec.smallest_nonnegative_1d(9) == sorted(
                e[0] for e in spec.elements if e[0] >= 0)[:9]
        denominators.add(spec.q)
    assert (len(denominators) > 1) == (name == "growing-denominator")
    with pytest.raises(ValueError, match="count"):
        spec.smallest(-1)


def test_smallest_nonnegative_1d_refuses_a_negative_count_and_d_above_1(cantor4, twindragon):
    # a count of -1 once sliced off the last element: 7 of cantor4's 8
    spec = generate_lambda(cantor4, find_w_cycles(cantor4, 2), 3)
    assert [int(v) for v in spec.smallest_nonnegative_1d(100)] == [0, 1, 4, 5, 16, 17, 20, 21]
    with pytest.raises(ValueError, match="count"):
        spec.smallest_nonnegative_1d(-1)
    # on d = 2 it read the first coordinate of each row
    spec = generate_lambda(twindragon, find_w_cycles(twindragon, 2), 2)
    with pytest.raises(ValueError, match="d = 1"):
        spec.smallest_nonnegative_1d(3)


# --- orthogonality and completeness -------------------------------------------

def test_orthogonality_cantor4_window(cantor4, cantor4_w_cycles):
    spec = generate_lambda(cantor4, cantor4_w_cycles, 7)
    elems = sorted(spec.elements)[:50]
    report = verify_orthogonality(cantor4, elems, 1e-10)
    assert report.n_elements == 50
    assert report.max_offdiag < 1e-8


def test_orthogonality_singleton(cantor4):
    report = verify_orthogonality(cantor4, [(Fraction(7),)])
    assert report.max_offdiag == 0.0
    assert report.argmax_pair is None


def test_orthogonality_distinct_elements(cantor4, cantor4_w_cycles):
    # exact pairwise distinctness of the generated frequencies
    spec = generate_lambda(cantor4, cantor4_w_cycles, 6)
    assert len({e for e in spec.elements}) == len(spec.elements)


def test_cantor3_no_three_orthogonal(cantor3):
    report = grid_orthogonality(cantor3, [0.3], span=30)
    assert report.clique_size == 2
    assert report.n_edges > 0


def gram_pair_reference(sys, elems, tail_tol=None):
    """(max_offdiag, argmax_pair) by one Fraction-loop evaluation per pair."""
    worst, arg = 0.0, None
    for a, b in itertools.combinations(elems, 2):
        val = abs(mu_hat_fraction_reference(sys, tuple(x - y for x, y in zip(a, b)),
                                            tail_tol)[0])
        if val > worst:
            worst, arg = val, (a, b)
    return worst, arg


@pytest.mark.parametrize("name,levels,window,shuffle", [
    ("cantor4", 7, 50, False),  # c04
    ("cantor4", 8, 100, False),  # bench verify-onb
    ("lambda15", 7, 50, False),  # bench verify-onb
    ("cantor3", 6, 50, False),  # not an ONB: the max is a nonzero value
    ("cantor3", 6, 30, True),  # unsorted: differences of both signs, ties in the max
])
def test_orthogonality_matches_per_pair_reference(name, levels, window, shuffle):
    sys = get_system(name)
    elems = sorted(generate_lambda(sys, find_w_cycles(sys, 6), levels).elements)[:window]
    if shuffle:
        elems = [elems[i] for i in np.random.default_rng(3).permutation(len(elems))]
    report = verify_orthogonality(sys, elems, sys.tail_tol)
    assert (report.max_offdiag, report.argmax_pair) == gram_pair_reference(sys, elems)
    assert report.n_elements == len(elems)
    assert (report.max_offdiag > 0) == (name == "cantor3")


def grid_reference(sys, x, denom=4, span=100, tail_tol=None):
    """grid_orthogonality with one Fraction-loop evaluation per grid value."""
    zero_flag = {m: mu_hat_fraction_reference(sys, (Fraction(m, denom),), tail_tol)[2]
                 for m in range(1, 2 * span + 1)}
    ks = list(range(-span, span + 1))
    adj = np.zeros((len(ks), len(ks)), dtype=bool)
    for i, j in itertools.combinations(range(len(ks)), 2):
        adj[i, j] = adj[j, i] = zero_flag[abs(ks[i] - ks[j])]
    n_edges = int(adj.sum()) // 2
    has_triangle = bool((adj & ((adj.astype(np.int64) @ adj.astype(np.int64)) > 0)).any())
    clique = 3 if has_triangle else (2 if n_edges else 1)
    xf = float(x[0])
    base = abs(mu_hat_detail(sys, (Fraction(xf).limit_denominator(10**12),), tail_tol).value) ** 2
    partners = [Fraction(k, denom) for k in ks if k != 0 and zero_flag[abs(k)]]
    if not partners:
        return clique, n_edges, base, None
    vals = np.abs(mu_hat_batch(sys, np.array([[float(p) + xf] for p in partners]), tail_tol)) ** 2
    best = int(np.argmax(vals))
    return clique, n_edges, base + float(vals[best]), (partners[best],)


@pytest.mark.parametrize("name", ["cantor3", "cantor4"])
def test_grid_orthogonality_matches_per_value_reference(name):
    sys = get_system(name)
    report = grid_orthogonality(sys, [0.3], span=100)
    assert (report.clique_size, report.n_edges, report.zero_anchored_sum,
            report.anchored_partner) == grid_reference(sys, [0.3])
    report = grid_orthogonality(sys, [0.3], span=0)  # the one-point grid {0}
    assert (report.clique_size, report.n_edges, report.zero_anchored_sum,
            report.anchored_partner) == grid_reference(sys, [0.3], span=0)


@pytest.mark.parametrize("bad", [{"span": 2.5}, {"span": -100}, {"span": -1}])
def test_grid_orthogonality_rejects_bad_grids(cantor3, bad):
    # span -1 once raised an IndexError and 2.5 a TypeError
    with pytest.raises(ValueError, match="span"):
        grid_orthogonality(cantor3, [0.3], **bad)


@pytest.mark.parametrize("x", [[0.3, 99.0], [], np.zeros((2, 1))])
def test_grid_orthogonality_refuses_x_of_other_than_one_coordinate(cantor3, x):
    # [0.3, 99.0] once ran at 0.3 and ignored the rest
    with pytest.raises(ValueError, match="one coordinate"):
        grid_orthogonality(cantor3, x)


def test_completeness_contains_unit_term(cantor4, cantor4_w_cycles):
    spec = generate_lambda(cantor4, cantor4_w_cycles, 4)
    elems = sorted(spec.elements)
    lam0 = elems[3]
    total = completeness_sum(cantor4, elems, [-float(lam0[0])])
    assert total >= 1.0 - 1e-9
    assert total <= 1.0 + 1e-9


def test_completeness_monotone_bessel(cantor4, cantor4_w_cycles):
    sums = []
    for levels in (2, 4, 6, 8):
        spec = generate_lambda(cantor4, cantor4_w_cycles, levels)
        sums.append(completeness_sum(cantor4, sorted(spec.elements), [0.3]))
    assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))
    assert all(s <= 1.0 + 5e-10 for s in sums)


def window_kinds(window):
    """A window of Fraction points, with its entries as ints (where whole),
    as np.int64 rows (the whole points) and as floats."""
    return {
        "fraction": window,
        "int": [tuple(int(c) if c.denominator == 1 else c for c in e) for e in window],
        "int64": [np.array(e, dtype=np.int64) for e in window
                  if all(c.denominator == 1 for c in e)],
        "float": [tuple(float(c) for c in e) for e in window],
    }


@pytest.mark.parametrize("name", AFFINE_NAMES + ["deficiency"])
def test_windows_are_tabled_as_the_fvec_route_tables_them(name):
    # completeness_sum and verify_orthogonality table rational entries as
    # they are; the route they replace ran fvec on every entry first
    if name == "deficiency":  # the c10 window of the planar shear
        sys = get_system("planar-shear")
        window = [(Fraction(a, 3), Fraction(b)) for a in range(-18, 19) for b in range(-6, 7)]
    else:
        sys = get_system(name)
        window = generate_lambda(sys, find_w_cycles(sys, 4), 6).smallest(40)
    x = [0.3] * sys.d
    for kind, elems in window_kinds(window).items():
        fvec_route = [fvec(e) for e in elems]
        ref = float(np.sum(_parseval_terms(
            sys, _table_floats(*_over_common_denominator(fvec_route), sys.d), x, sys.tail_tol)))
        assert completeness_sum(sys, elems, x, sys.tail_tol) == ref, kind
        got = verify_orthogonality(sys, elems[:60], sys.tail_tol)
        assert got == verify_orthogonality(sys, fvec_route[:60], sys.tail_tol), kind
        assert got.argmax_pair is None or all(
            type(c) is Fraction for point in got.argmax_pair for c in point)
    assert len(window_kinds(window)["int64"]) > 0 or name == "cantor3"  # no whole point


# --- basins -------------------------------------------------------------------

def cycle_index(res, cycles):
    """Index of the cycle a BasinResult entered, -1 for none."""
    return -1 if res.cycle is None else next(k for k, c in enumerate(cycles) if c is res.cycle)


def labels_at(sys, cycles, points, q) -> list:
    """The `lattice_basin_labels` labels of points of (1/q) Z^d, read off the
    least window that holds them all."""
    z = np.array([[int(c * q) for c in fvec(x)] for x in points], dtype=np.int64)
    m = int(np.abs(z).max())
    pts, labels = lattice_basin_labels(sys, cycles, (m + 0.5) / q, q)
    at = (z + m) @ (2 * m + 1) ** np.arange(sys.d - 1, -1, -1)
    assert np.array_equal(pts[at], z)
    return labels[at].tolist()


def assert_labels_match_cycle_basin(sys, cycles, points, q=1) -> list:
    """The shipped labels of the points are the cycles their orbits enter
    under the per-point reference `cycle_basin` (512 moves); returns the
    labels."""
    labels = labels_at(sys, cycles, points, q)
    assert labels == [cycle_index(cycle_basin(sys, x, cycles, 512, q), cycles)
                      for x in points]
    return labels


def test_cycle_basin_matches_the_inline_branch_map(planar_shear, twindragon):
    # the planar-shear golden window [-10, 10]^2, random integer points of
    # planar-shear and random points of (1/5)Z^2 on twindragon, labelled by
    # lattice_basin_labels and by the orbit of the written-out branch map
    rng = np.random.default_rng(43)
    shear, dragon = find_w_cycles(planar_shear, 4), find_w_cycles(twindragon, 8)
    window = [(x, y) for x in range(-10, 11) for y in range(-10, 11)]
    far = [tuple(map(int, rng.integers(-200, 201, 2))) for _ in range(40)]
    fifths = [tuple(Fraction(int(v), 5) for v in rng.integers(-100, 101, 2)) for _ in range(40)]
    assert min(assert_labels_match_cycle_basin(planar_shear, shear, window + far, 1)) >= 0
    assert_labels_match_cycle_basin(twindragon, dragon, fifths, 5)


def test_basin_cycle_point_immediate(planar_shear):
    cycles = find_w_cycles(planar_shear, 1)
    (label,) = assert_labels_match_cycle_basin(planar_shear, cycles, [(1, -1)])
    assert frozenset(cycles[label].points) == {(Fraction(1), Fraction(-1))}
    assert cycle_basin(planar_shear, (1, -1), cycles).steps == 0


def test_basin_paper_examples(planar_shear):
    cycles = find_w_cycles(planar_shear, 1)
    labels = assert_labels_match_cycle_basin(planar_shear, cycles, [(-3, -2), (2, -3)])
    assert frozenset(cycles[labels[0]].points) == {(Fraction(0), Fraction(0))}
    assert frozenset(cycles[labels[1]].points) == {(Fraction(1), Fraction(-1))}


def test_basin_union_covers_window(planar_shear):
    cycles = find_w_cycles(planar_shear, 1)
    window = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    assert min(assert_labels_match_cycle_basin(planar_shear, cycles, window)) >= 0


def test_basin_off_lattice_rejected(planar_shear):
    cycles = find_w_cycles(planar_shear, 1)
    with pytest.raises(LatticeError):
        cycle_basin(planar_shear, (Fraction(1, 2), Fraction(0)), cycles)
    with pytest.raises(LatticeError):
        lattice_basin_labels(planar_shear, cycles, 0.5, 2)


def test_lattice_basin_labels_leaves_numpy_ma_unimported():
    # np.unique(axis=0) imports numpy.ma, about 0.9 MB held for the life of
    # the process: the residue classes are counted without it.  A fresh
    # interpreter, as this one has imported numpy.ma long since
    code = ("import sys\n"
            "from ifsfourier import find_w_cycles, get_system\n"
            "from ifsfourier.spectrum import lattice_basin_labels\n"
            "sys_ = get_system('twindragon')\n"
            "pts, labels = lattice_basin_labels(sys_, find_w_cycles(sys_, 4), 4.0, 5)\n"
            "assert (labels >= 0).any()\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_basin_twindragon_lattice(twindragon):
    cycles = find_w_cycles(twindragon, 6)
    (label,) = assert_labels_match_cycle_basin(
        twindragon, cycles, [(Fraction(2, 5), Fraction(-4, 5))], 5)
    assert label >= 0
    assert cycle_basin(twindragon, (Fraction(2, 5), Fraction(-4, 5)), cycles, 0, 5).found
    # this orbit happens to enter the period-6 cycle
    (label,) = assert_labels_match_cycle_basin(
        twindragon, cycles, [(Fraction(3, 5), Fraction(1, 5))], 5)
    assert label >= 0
    assert cycles[label].period == 6


@pytest.mark.parametrize("p_max", [6, 8])
def test_lattice_basin_sums_partition_the_window(twindragon, p_max):
    # the 9 W-cycles up to period 8 catch every orbit of the window; up to
    # period 6 there are 7, and the mass of the other basins goes to `other`
    cycles = find_w_cycles(twindragon, p_max)
    per_cycle, other, coverage = lattice_basin_sums(twindragon, [0.3, -0.7], cycles,
                                                    radius=2.0, lattice_scale=5)
    assert len(per_cycle) == len(cycles)
    assert sum(per_cycle) + other == pytest.approx(coverage, abs=1e-12)
    assert (other == 0.0) == (p_max == 8)
    assert 0.0 < coverage <= 1.0


def test_parseval_terms_of_an_int64_window_are_its_python_int_terms(twindragon):
    # lattice_basin_sums hands _parseval_terms the floats of an int64 window:
    # they are those of the Python-int table, and of numpy's int64 division rows / q
    pts = lattice_basin_labels(twindragon, find_w_cycles(twindragon, 8), 8.0, 5)[0]
    x = np.array([0.3, -0.7])
    floats = _table_floats(-pts, 5, 2)
    got = _parseval_terms(twindragon, floats, x)
    assert pts.dtype == np.int64 and len(pts) > 1000
    assert floats.tobytes() == _table_floats((-pts).astype(object), 5, 2).tobytes()
    assert got.tobytes() == (np.abs(mu_hat_batch(twindragon, -pts / 5 + x)) ** 2).tobytes()
    # past 2^53 an int64 row / q would round twice: Python int / int rounds once
    for n, q in ((2 ** 53 + 1, 3), (3, 2 ** 53 + 1), (-(2 ** 62) - 1, 7)):
        assert _table_floats(np.array([[n]]), q, 1).tolist() == [[n / q]]
    assert _table_floats(np.array([[2 ** 53 + 1]]), 3, 1)[0, 0] != np.float64(2 ** 53 + 1) / 3


def basin_labels_reference(sys, w_cycles, radius, lattice_scale, max_steps=512):
    """Basin labels with every cycle point scanned over the whole window at
    each of max_steps steps (membership seen after 0..max_steps-1 moves)."""
    q = int(lattice_scale)
    adj, den = _over_common_denominator(sys.l_view.inv_exact)
    adj = adj.astype(np.int64)
    l_scaled = np.array([[int(c * q) for c in l] for l in sys.L_exact], dtype=np.int64)
    m = int(np.floor(radius * q))
    mesh = np.meshgrid(*[np.arange(-m, m + 1, dtype=np.int64)] * sys.d, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    cycle_of_point = {}
    for ci, cyc in enumerate(w_cycles):
        for p in cyc.points:
            cycle_of_point[tuple(int(c * q) for c in p)] = ci
    states = pts.copy()
    done = np.zeros(len(pts), dtype=bool)
    label = np.full(len(pts), -1, dtype=np.int64)
    for _ in range(max_steps):
        for key, ci in cycle_of_point.items():
            hit = ~done & np.all(states == np.array(key, dtype=np.int64), axis=1)
            label[hit] = ci
            done |= hit
        if done.all():
            break
        cand = np.zeros_like(states)
        valid_count = np.zeros(len(pts), dtype=np.int64)
        for l in l_scaled:
            num = (states + l) @ adj.T
            ok = np.all(num % den == 0, axis=1)
            valid_count += ok
            cand = np.where((ok & ~done)[:, None], num // den, cand)
        assert np.all(valid_count[~done] == 1)
        states = np.where(done[:, None], states, cand)
    return pts, label


def stepper_basin_labels(sys, w_cycles, radius, lattice_scale, max_steps=512):
    """`lattice_basin_labels` as it ran before the closure: each window point
    stepped forward by R_L in int64, one step at a time on the points not yet
    labelled, with a binary search of sorted row keys for the cycle points
    and the residue classes, until its orbit meets a listed cycle, returns to
    the state it had at the last power-of-two step (an unlisted cycle: -1) or
    takes max_steps moves.  Raises LatticeError at a visited point with no
    unique S y - l decomposition."""
    def row_keys(rows):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()

    def lookup(sorted_keys, keys):
        if not len(sorted_keys):
            return np.zeros(len(keys), dtype=bool), np.zeros(len(keys), dtype=np.intp)
        at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
        return sorted_keys[at] == keys, at

    if not sys.exact_integer:
        raise LatticeError("lattice basins need integer system data")
    q = int(lattice_scale)
    adj, den = _over_common_denominator(sys.l_view.inv_exact)
    adj = adj.astype(np.int64)
    shifts = np.array([[int(c * q) for c in l] for l in sys.L_exact], dtype=np.int64) @ adj.T
    place = den ** np.arange(sys.d, dtype=np.int64)
    residues = (-shifts) % den
    carries = (residues + shifts) // den
    classes, digit_of, counts = np.unique(residues @ place, return_index=True,
                                          return_counts=True)
    classes, digit_of = classes[counts == 1], digit_of[counts == 1]
    m = int(np.floor(radius * q))
    mesh = np.meshgrid(*[np.arange(-m, m + 1, dtype=np.int64)] * sys.d, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    cycle_of_point = {}
    for ci, cyc in enumerate(w_cycles):
        for p in cyc.points:
            scaled = [c * q for c in p]
            if any(c.denominator != 1 for c in scaled):
                raise LatticeError("cycle point %s is not on the 1/%d lattice" % (p, q))
            cycle_of_point[tuple(int(c) for c in scaled)] = ci
    cycle_keys = row_keys(np.array(list(cycle_of_point), dtype=np.int64).reshape(-1, sys.d))
    order = np.argsort(cycle_keys)
    cycle_keys = cycle_keys[order]
    cycle_labels = np.array(list(cycle_of_point.values()), dtype=np.int64)[order]
    label = np.full(len(pts), -1, dtype=np.int64)
    active, states = np.arange(len(pts)), pts
    for step in range(max_steps + 1):
        keys = row_keys(states)
        hit, at = lookup(cycle_keys, keys)
        label[active[hit]] = cycle_labels[at[hit]]
        keep = ~hit
        if step:
            keep &= keys != mark
        if step == max_steps or not keep.any():
            break
        active, states, keys = active[keep], states[keep], keys[keep]
        mark = keys if step & (step - 1) == 0 else mark[keep]
        num = states @ adj.T
        quot = num // den
        found, at = lookup(classes, (num - den * quot) @ place)
        if not found.all():
            raise LatticeError("lattice point without a unique S y - l decomposition")
        states = quot + carries[digit_of[at]]
    return pts, label


def lattice_scale_of(cycles):
    """The least q that puts every point of the cycles on (1/q) Z^d."""
    return math.lcm(*(c.denominator for cyc in cycles for p in cyc.points for c in p))


def assert_closure_labels_match_the_stepper(sys, cycles, radius, q) -> bool:
    """The closure's labels are the stepper's at 512 moves, point for point;
    where the stepper raises LatticeError within 512 moves, so does the
    closure.  Returns whether labels compared."""
    try:
        ref_pts, ref_labels = stepper_basin_labels(sys, cycles, radius, q)
    except LatticeError:
        with pytest.raises(LatticeError):
            lattice_basin_labels(sys, cycles, radius, q)
        return False
    pts, labels = lattice_basin_labels(sys, cycles, radius, q)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(labels, ref_labels), (sys.name, radius, q)
    return True


LEBESGUE_NAMES = [n for n in AFFINE_NAMES
                  if get_system(n).N == round(abs(np.linalg.det(get_system(n).S)))]


@pytest.mark.parametrize("name", LEBESGUE_NAMES)
def test_closure_labels_match_the_stepper_on_lebesgue_systems(name):
    sys = get_system(name)
    for p_max in (1, 4):
        cycles = find_w_cycles(sys, p_max)
        q = lattice_scale_of(cycles)
        for scale, radius in ((q, 6.0), (3 * q, 4.0), (q, 0.0)):
            assert assert_closure_labels_match_the_stepper(sys, cycles, radius, scale)
    assert LEBESGUE_NAMES == ["planar-shear", "twindragon"]


@pytest.mark.parametrize("name", sorted(set(AFFINE_NAMES) - set(LEBESGUE_NAMES)))
def test_closure_refuses_where_the_stepper_does(name):
    # N < |det S|: some residue class has no digit, so the stepper meets a
    # point without a decomposition S y - l, and the closure refuses up front
    sys = get_system(name)
    cycles = find_w_cycles(sys, 4)
    q = lattice_scale_of(cycles)
    with pytest.raises(LatticeError):
        stepper_basin_labels(sys, cycles, 3.0, q)
    with pytest.raises(LatticeError):
        lattice_basin_labels(sys, cycles, 3.0, q)


def test_closure_refuses_a_scale_that_merges_the_digits(twindragon):
    # at q = 2 both digits q l lie in S Z^2: no point has a unique
    # decomposition, and the cycle points of (1/5) Z^2 are off the lattice
    cycles = find_w_cycles(twindragon, 4)
    for q in (2, 10):
        with pytest.raises(LatticeError):
            stepper_basin_labels(twindragon, cycles, 1.0, q)
        with pytest.raises(LatticeError):
            lattice_basin_labels(twindragon, cycles, 1.0, q)


@pytest.mark.parametrize("name,p_max,radius,q", [
    ("twindragon", 8, 8.0, 5),
    ("twindragon", 8, 20.0, 5),
    ("planar-shear", 4, 10.0, 3),  # orbits off the integer lattice: -1 labels
])
def test_lattice_basin_labels_match_window_scan_reference(name, p_max, radius, q):
    sys = get_system(name)
    cycles = find_w_cycles(sys, p_max)
    pts, labels = lattice_basin_labels(sys, cycles, radius, q)
    ref_pts, ref_labels = basin_labels_reference(sys, cycles, radius, q)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(labels, ref_labels)
    assert (labels < 0).any() == (name == "planar-shear")
    # per point, the exact orbit of cycle_basin enters the same cycle
    for i in np.random.default_rng(11).choice(len(pts), 40, replace=False):
        res = cycle_basin(sys, [Fraction(int(c), q) for c in pts[i]], cycles, 64, q)
        assert labels[i] == cycle_index(res, cycles)


def test_lattice_basin_labels_follow_every_orbit_to_its_cycle(twindragon):
    # label i means the orbit enters cycle i, however many moves that takes:
    # the closure runs until its levels run out
    cycles = find_w_cycles(twindragon, 8)
    pts, labels = lattice_basin_labels(twindragon, cycles, 1.0, 5)
    for pt, label in zip(pts, labels):
        res = cycle_basin(twindragon, [Fraction(int(c), 5) for c in pt], cycles, 512, 5)
        assert label == cycle_index(res, cycles)
    # (-1, 2/5) reaches its cycle in exactly four moves
    (at,) = np.flatnonzero(np.all(pts == [-5, 2], axis=1))
    assert labels[at] >= 0
    assert cycle_basin(twindragon, (-1, Fraction(2, 5)), cycles, 512, 5).steps == 4


@pytest.mark.parametrize("moves", [0, 1, 3, 4, 8])
def test_lattice_basin_labels_count_moves_like_cycle_basin(twindragon, moves):
    # every orbit that cycle_basin sees enter a cycle within `moves` moves is
    # labelled with that cycle; the labels are not held to any such count
    cycles = find_w_cycles(twindragon, 8)
    pts, labels = lattice_basin_labels(twindragon, cycles, 1.0, 5)
    resolved = 0
    for pt, label in zip(pts, labels):
        res = cycle_basin(twindragon, [Fraction(int(c), 5) for c in pt], cycles, moves, 5)
        if res.found:
            resolved += 1
            assert res.steps <= moves
            assert label == cycle_index(res, cycles)
    assert 0 < resolved <= int((labels >= 0).sum())
    # (-1, 2/5) reaches its cycle in exactly four moves and is labelled at every count
    (at,) = np.flatnonzero(np.all(pts == [-5, 2], axis=1))
    assert labels[at] >= 0
    assert cycle_basin(twindragon, (-1, Fraction(2, 5)), cycles, moves, 5).found == (moves >= 4)


@pytest.mark.parametrize("bad", [{"lattice_scale": 0}, {"lattice_scale": -5},
                                 {"radius": -1.0}, {"radius": np.inf}, {"radius": np.nan}])
def test_lattice_basins_reject_bad_input(twindragon, bad):
    # radius inf once raised OverflowError and NaN numpy's conversion error
    cycles = find_w_cycles(twindragon, 4)
    kwargs = {"radius": 1.0, "lattice_scale": 5, **bad}
    (name,) = bad
    with pytest.raises(ValueError, match=name):
        lattice_basin_labels(twindragon, cycles, **kwargs)
    with pytest.raises(ValueError, match=name):
        lattice_basin_sums(twindragon, [0.3, -0.7], cycles, **kwargs)


def assert_closure_matches_reference(sys, points, levels, element_cap=None):
    """_closure against the breadth-first closure with a set of tuples: the
    same rows, q, level, seeds and cap verdict; the closure."""
    spec = _closure(sys, points, levels, element_cap)
    rows, q, level, seeds, cap_hit = closure_reference(sys, points, levels, element_cap)
    assert tuple(map(tuple, spec.rows.tolist())) == rows
    assert (spec.q, spec.level, spec.seeds, spec.cap_hit) == (q, level, seeds, cap_hit)
    return spec


@pytest.mark.parametrize("name,p_max,levels", [("cantor4", 4, 8), ("cantor3", 3, 6),
                                               ("lambda15", 4, 8), ("lambda63", 3, 6),
                                               ("planar-shear", 4, 5), ("twindragon", 8, 8)])
def test_closure_matches_the_set_reference_on_registry(name, p_max, levels):
    sys = get_system(name)
    cycles = find_w_cycles(sys, p_max)
    points = [pt for cyc in cycles for pt in cyc.points]
    spec = assert_closure_matches_reference(sys, points, levels)
    for cap in (1, len(points), len(spec.rows) // 3, len(spec.rows) - 1):
        assert_closure_matches_reference(sys, points, levels, cap)
    for cyc in cycles:
        assert_closure_matches_reference(sys, cyc.points, levels)


def test_closure_past_int64_takes_python_ints():
    # R = 2^31, B = {0, 2^30}: Lambda_4 has 94-bit entries, past int64 from
    # level 3 (63 bits) on
    sys = AffineSystem.create([[2 ** 31]], [[0], [2 ** 30]], [[0], [1]])
    cycles = find_w_cycles(sys, 6)
    for levels, dtype in ((2, np.int64), (3, object), (4, object)):
        spec = assert_closure_matches_reference(sys, cycles[0].points, levels)
        assert spec.rows.dtype == dtype
    assert max(abs(v) for v in spec.rows.ravel()).bit_length() == 94
    assert spec.elements == generate_lambda(sys, cycles, 4).elements
    assert all(type(c.numerator) is int for e in spec.smallest() for c in e)
