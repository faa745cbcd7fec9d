"""Verified replacements for the three golden values the acceptance suite
marks as expected failures, each pinned through an independent route.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from ifsfourier import (
    find_w_cycles,
    generate_lambda,
    get_system,
    mu_hat_detail,
)
from reference import cycle_basin, m_eval
from test_spectrum import assert_labels_match_cycle_basin


def test_cantor4_first_ten_frequencies():
    # closure of {0} under x -> 4x + {0,1}: base-4 numbers with digits 0/1
    sys = get_system("cantor4")
    spec = generate_lambda(sys, find_w_cycles(sys, 6), 5)
    got = [int(v) for v in spec.smallest_nonnegative_1d(10)]
    assert got == [0, 1, 4, 5, 16, 17, 20, 21, 64, 65]
    # 24 = 120 base 4 cannot appear; independently, e_24 is not orthogonal
    # to e_0 (a nonvanishing transform rules it out of any spectrum with 0)
    r = mu_hat_detail(sys, (Fraction(24),), 1e-12)
    assert not r.exact_zero
    assert abs(r.value) > 0.5
    # while 64 is orthogonal to every smaller element of the window
    for v in got[:8]:
        assert mu_hat_detail(sys, (Fraction(64 - v),), 1e-12).exact_zero


def test_twindragon_w_cycle_census():
    # exact enumeration with substitution-verified orbits: six W-cycles up
    # to period 4 (the third four-cycle has word 0011), nine up to period 8
    sys = get_system("twindragon")
    cycles4 = find_w_cycles(sys, 4)
    assert Counter(c.period for c in cycles4) == {1: 2, 2: 1, 4: 3}
    extra = [c for c in cycles4 if c.word == (0, 0, 1, 1)][0]
    assert frozenset(extra.points) == {
        (Fraction(2, 5), Fraction(-4, 5)),
        (Fraction(-1, 5), Fraction(-3, 5)),
        (Fraction(-2, 5), Fraction(-1, 5)),
        (Fraction(1, 5), Fraction(-2, 5)),
    }
    # independent weight check: |m_B| = sqrt(N) at every orbit point
    for pt in extra.points_float:
        assert abs(abs(m_eval(sys.B, pt)) - np.sqrt(2)) < 1e-12
    cycles8 = find_w_cycles(sys, 8)
    assert Counter(c.period for c in cycles8) == {1: 2, 2: 1, 4: 3, 6: 1, 8: 2}


def test_planar_shear_no_higher_w_cycles_to_period_6():
    # exhaustive exact enumeration: the four fixed points stay the only
    # W-cycles through period 6 (in particular no period-6 W-cycle exists,
    # despite the folklore expectation of one at periods divisible by 6)
    sys = get_system("planar-shear")
    cycles = find_w_cycles(sys, 6)
    assert sorted(c.period for c in cycles) == [1, 1, 1, 1]


def test_planar_shear_basin_partition():
    sys = get_system("planar-shear")
    cycles = find_w_cycles(sys, 4)
    vertex = {i: tuple(int(v) for v in c.points[0]) for i, c in enumerate(cycles)}
    window = [(x, y) for x in range(-10, 11) for y in range(-10, 11)]
    labels = assert_labels_match_cycle_basin(sys, cycles, window)
    assert min(labels) >= 0  # the four basins cover the whole window
    assignment = {pt: vertex[label] for pt, label in zip(window, labels)}
    # each vertex sits in its own basin, and basins are forward-invariant:
    # one endomorphism step never changes the assigned cycle
    for i, c in enumerate(cycles):
        assert assignment[vertex[i]] == vertex[i]
    for (x, y), v in assignment.items():
        res = cycle_basin(sys, (x, y), cycles)
        if len(res.orbit) > 1:
            nxt = tuple(int(c) for c in res.orbit[1])
            if nxt in assignment:
                assert assignment[nxt] == v
    # frozen census of the true (slanted-wedge) partition on [-10, 10]^2
    counts = Counter(assignment.values())
    assert counts == {(0, 0): 68, (1, -1): 142, (0, 1): 163, (1, 0): 68}
    # the two documented membership examples do hold
    assert assignment[(-3, -2)] == (0, 0)
    assert assignment[(2, -3)] == (1, -1)
    # a concrete witness against the axis-quarterplane description: this
    # third-quadrant point drains to the cycle at (0, 1)
    assert assignment[(-10, -10)] == (0, 1)
