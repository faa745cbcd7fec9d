import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ifsfourier import (
    EXAMPLES,
    AffineSystem,
    check_duality,
    enumerate_cycles,
    find_w_cycles,
    example_names,
    get_system,
    power_system,
)
from ifsfourier.cycles import Cycle
from ifsfourier.ratlinalg import (
    _from_common_denominator,
    _over_common_denominator,
    identity_rational,
    mat_inverse,
    mat_pow,
)
from ifsfourier.spectrum import _horner
from ifsfourier.system import IfsView, fvec
from reference import aperiodic_necklaces, cycle_from_word, cycle_table_reference, m_eval, tau
from strategies import product_triple


def lam(l1):
    return AffineSystem.create([[4]], [[0], [2]], [[0], [l1]], name="lambda%d" % l1)


def point_sets(cycles):
    return {frozenset(c.points) for c in cycles}


def fraction_expand(view, points):
    """IfsView.expand as one Fraction matrix product per batch."""
    pts = np.asarray(points, dtype=object).reshape(-1, view.d)
    digits = np.array(view.digits_exact, dtype=object)
    return (digits[:, None] + pts @ view.matrix_exact.T).reshape(-1, view.d)


def table_expand(view, points, n: int = 1) -> list:
    """n steps of IfsView.expand on the Fraction rows `points`, through the
    integer table, as a list of Fraction rows."""
    rows, q = _over_common_denominator(np.asarray(points, dtype=object).reshape(-1, view.d))
    for _ in range(n):
        rows, q = view.expand(rows, q)
    return _from_common_denominator(rows.tolist(), q)


def word_sum(mat, digits, word) -> tuple:
    """sum_k mat^k digits[w_k], term by term with an explicit power."""
    d = len(digits[0])
    total = np.array([Fraction(0)] * d, dtype=object)
    power = identity_rational(d)
    for idx in word:
        total = total + power @ np.array(digits[idx], dtype=object)
        power = power @ mat
    return tuple(total)


def _min_rotation(word: tuple) -> tuple:
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def _is_aperiodic(word: tuple) -> bool:
    p = len(word)
    for q in range(1, p):
        if p % q == 0 and word == word[:q] * (p // q):
            return False
    return True


def _reference_necklaces(n_letters: int, p: int) -> list:
    return [w for w in itertools.product(range(n_letters), repeat=p)
            if w == _min_rotation(w) and _is_aperiodic(w)]


def _reference_enumerate_cycles(sys, p_max: int) -> list:
    """The Fraction enumeration: one expansion table per period, one
    Fraction fixed point per necklace, its orbit walked with `tau`."""
    out = []
    rhs = np.full((1, sys.d), Fraction(0), dtype=object)
    for p in range(1, p_max + 1):
        rhs = fraction_expand(sys.l_view, rhs)
        m_inv = mat_inverse(mat_pow(sys.S_exact, p) - identity_rational(sys.d))
        for w in _reference_necklaces(sys.N, p):
            points = [fvec(m_inv @ rhs[np.ravel_multi_index(w, (sys.N,) * p)])]
            for idx in w:
                points.append(fvec(tau(sys.l_view, idx, points[-1])))
            assert points.pop() == points[0]
            out.append(Cycle(word=w, period=p, points=tuple(points)))
    return out


def assert_cycles_match_reference(sys, p_max: int):
    fast = enumerate_cycles(sys, p_max)
    ref = _reference_enumerate_cycles(sys, p_max)
    assert [(c.word, c.period, c.points) for c in fast] == [
        (c.word, c.period, c.points) for c in ref]
    assert all(type(i) is int for c in fast for i in c.word)
    assert all(type(v) is Fraction for c in fast for pt in c.points for v in pt)


def _mobius(n: int) -> int:
    sign, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            sign = -sign
        k += 1
    return -sign if n > 1 else sign


def test_necklaces_match_itertools_reference():
    for n_letters in range(1, 5):
        for p in range(1, 8):
            assert list(aperiodic_necklaces(n_letters, p)) == _reference_necklaces(n_letters, p)


def test_necklace_counts_follow_moebius_formula():
    # aperiodic necklaces of length p over N letters: (1/p) sum_{d|p} mu(d) N^{p/d}
    for n_letters in range(1, 5):
        for p in range(1, 10):
            total = sum(_mobius(d) * n_letters ** (p // d) for d in range(1, p + 1) if p % d == 0)
            assert len(list(aperiodic_necklaces(n_letters, p))) * p == total


def test_enumerate_cycles_match_fraction_reference(twindragon, planar_shear):
    for sys, p_max in ((lam(63), 8), (twindragon, 10), (planar_shear, 6)):
        assert_cycles_match_reference(sys, p_max)


@pytest.mark.parametrize("field", ["R", "B", "L"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "10**400"])
def test_create_rejects_non_finite_entries(field, bad):
    # every system carries exact data and its float image: a NaN or infinite
    # entry has no rational value, and 10**400 no float one
    data = {"R": [[4]], "B": [[0], [2]], "L": [[0], [1]]}
    data[field] = [[bad]] if field == "R" else [[0], [bad]]
    with pytest.raises(ValueError, match="^%s has a non-finite entry" % field):
        AffineSystem.create(data["R"], data["B"], data["L"])


@pytest.mark.parametrize("field", ["unitarity_tol", "tail_tol"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-10, None],
                         ids=["nan", "inf", "zero", "negative", "None"])
def test_create_rejects_tolerances_that_are_no_finite_positive_number(field, bad):
    # a NaN tolerance fails every comparison and an infinite one passes every
    # bound: tail_tol = inf truncated mu_hat after one factor
    with pytest.raises(ValueError, match="^%s must be a finite positive number" % field):
        AffineSystem.create([[4]], [[0], [2]], [[0], [1]], **{field: bad})


def test_float_entries_are_kept_exactly():
    sys = AffineSystem.create([[4.0]], [[0.0], [0.1]], ["0", "1"])
    assert sys.B_exact[1] == (Fraction(0.1),) and sys.L_exact[1] == (Fraction(1),)
    assert sys.B[1, 0] == 0.1 and not sys.exact_integer


def test_corrupted_table_row_fails_orbit_identity(twindragon, monkeypatch):
    # the identity S x_rot(w) = x_w + l_{w_0} is checked on every row, so
    # one wrong right-hand side at period 3 is caught there
    expand = IfsView.expand

    def corrupted(view, numerators, q):
        rows, q_out = expand(view, numerators, q)
        if len(rows) == twindragon.N ** 3:
            rows = rows.copy()
            rows[5, 0] += 1
        return rows, q_out

    monkeypatch.setattr(IfsView, "expand", corrupted)
    with pytest.raises(AssertionError, match="round trip failed at period 3"):
        enumerate_cycles(twindragon, 3)


@pytest.mark.parametrize("pair, expected", [
    (("lambda15", "lambda63"), {1: 4, 2: 2, 3: 4, 6: 2}),
    (("cantor4", "lambda15"), {1: 2, 2: 1}),
    (("lambda15", "lambda15"), {1: 4, 2: 6}),
])
def test_product_census_counts_gcd_of_factor_periods(pair, expected):
    # a product orbit is a pair of factor orbits in step: cycles of periods
    # p1, p2 give gcd(p1, p2) product cycles of period lcm(p1, p2), and the
    # product is a W-cycle iff both factors are (W = W_1 W_2, each <= 1)
    p_max = 6
    s1, s2 = (get_system(name) for name in pair)
    census = Counter()
    for c1, c2 in itertools.product(find_w_cycles(s1, p_max), find_w_cycles(s2, p_max)):
        if math.lcm(c1.period, c2.period) <= p_max:
            census[math.lcm(c1.period, c2.period)] += math.gcd(c1.period, c2.period)
    assert census == expected
    product = product_triple(s1, s2)
    assert check_duality(product).passes
    assert Counter(c.period for c in find_w_cycles(product, p_max)) == expected


def test_necklace_counts_two_letters():
    # two one-cycles, one two-cycle, two three-cycles
    assert len(list(aperiodic_necklaces(2, 1))) == 2
    assert len(list(aperiodic_necklaces(2, 2))) == 1
    assert len(list(aperiodic_necklaces(2, 3))) == 2


def test_enumerate_cantor4_fixed_points(cantor4):
    cycles = enumerate_cycles(cantor4, 1)
    assert point_sets(cycles) == {
        frozenset({(Fraction(0),)}),
        frozenset({(Fraction(1, 3),)}),
    }


def test_enumerate_cantor4_two_cycle(cantor4):
    cycles = [c for c in enumerate_cycles(cantor4, 2) if c.period == 2]
    assert len(cycles) == 1
    assert frozenset(cycles[0].points) == {(Fraction(1, 15),), (Fraction(4, 15),)}


def test_cycle_roundtrip_exact(twindragon):
    for cyc in enumerate_cycles(twindragon, 4):
        view = twindragon.l_view
        x = cyc.points[0]
        for idx in cyc.word:
            x = tau(view, idx, x)
        assert x == cyc.points[0]


def test_cycle_points_in_attractor_ball(twindragon):
    r = twindragon.l_view.bounding_radius() + 1e-9
    for cyc in enumerate_cycles(twindragon, 6):
        assert np.all(np.linalg.norm(cyc.points_float, axis=1) <= r)


def _reference_w_equals_one(point, b_exact) -> bool:
    """The W_B = 1 test on one exact point, in Fractions: (b - b_ref).x has
    denominator 1 for every digit b."""
    ref = b_exact[0]
    for b in b_exact[1:]:
        dot = sum((bb - rr) * xx for bb, rr, xx in zip(b, ref, point))
        if dot.denominator != 1:
            return False
    return True


def assert_w_verdicts_match_fraction_reference(sys, p_max: int):
    """enumerate_cycles' own verdicts, find_w_cycles and the w_only census
    against the per-point Fraction test."""
    cycles = enumerate_cycles(sys, p_max)
    ref = [all(_reference_w_equals_one(pt, sys.B_exact) for pt in c.points) for c in cycles]
    assert [c.is_w_cycle for c in cycles] == ref
    expected = [(c.word, c.period, c.points) for c, ok in zip(cycles, ref) if ok]
    found = find_w_cycles(sys, p_max)
    assert [(c.word, c.period, c.points) for c in found] == expected
    assert all(c.is_w_cycle is True for c in found)
    w_only = enumerate_cycles(sys, p_max, w_only=True)
    assert [(c.word, c.period, c.points, c.is_w_cycle) for c in w_only] == [
        (c.word, c.period, c.points, c.is_w_cycle) for c in found]
    return sum(ref), len(ref)


@pytest.mark.parametrize("name", [name for name in example_names()
                                  if EXAMPLES[name].kind == "affine"])
def test_w_verdicts_match_fraction_reference_on_registry(name):
    sys = get_system(name)
    n_w, n_all = assert_w_verdicts_match_fraction_reference(sys, min(EXAMPLES[name].p_max,
                                                                     6 if sys.N < 4 else 4))
    assert 0 < n_w < n_all


def test_w_verdicts_with_fractional_digits():
    # B = {0, 1/2} with R = 2 over L = {0, 1}: lam / e has e = 2
    sys = AffineSystem.create([[2]], [[0], [Fraction(1, 2)]], [[0], [1]])
    assert_w_verdicts_match_fraction_reference(sys, 6)


def test_classify_cantor4(cantor4):
    one_cycles = enumerate_cycles(cantor4, 1)
    flags = {frozenset(c.points): c.is_w_cycle for c in one_cycles}
    assert flags[frozenset({(Fraction(0),)})] is True
    assert flags[frozenset({(Fraction(1, 3),)})] is False


def test_classify_lambda15_two_cycle():
    sys = lam(15)
    cycles = find_w_cycles(sys, 2)
    assert frozenset({(Fraction(1),), (Fraction(4),)}) in point_sets(cycles)


def test_classify_lambda63_three_cycle():
    sys = lam(63)
    cycles = find_w_cycles(sys, 3)
    assert frozenset({(Fraction(16),), (Fraction(4),), (Fraction(1),)}) in point_sets(cycles)


def test_w_verdict_matches_float_weight(twindragon):
    # exact classification agrees with |W_B - 1| evaluated in floats
    from ifsfourier import weight_from_digits

    w = weight_from_digits(twindragon.B)
    for cyc in enumerate_cycles(twindragon, 4):
        verdict = cyc.is_w_cycle
        devs = [abs(float(np.asarray(w(p)).reshape(-1)[0]) - 1.0) for p in cyc.points_float]
        assert verdict == (max(devs) < 1e-9)


def test_find_w_cycles_cantor4_only_origin(cantor4, cantor4_w_cycles):
    assert point_sets(cantor4_w_cycles) == {frozenset({(Fraction(0),)})}


def test_find_w_cycles_contains_origin(planar_shear):
    cycles = find_w_cycles(planar_shear, 2)
    zero = (Fraction(0), Fraction(0))
    assert any(zero in c.points for c in cycles)


def test_find_w_cycles_planar_shear(planar_shear):
    cycles = find_w_cycles(planar_shear, 4)
    expected = {
        frozenset({(Fraction(0), Fraction(0))}),
        frozenset({(Fraction(1), Fraction(-1))}),
        frozenset({(Fraction(0), Fraction(1))}),
        frozenset({(Fraction(1), Fraction(0))}),
    }
    assert point_sets(cycles) == expected


def test_find_w_cycles_invariant_under_relabeling():
    base = AffineSystem.create([[4]], [[0], [2]], [[0], [15]])
    permuted = AffineSystem.create([[4]], [[0], [2]], [[15], [0]])
    assert point_sets(find_w_cycles(base, 4)) == point_sets(find_w_cycles(permuted, 4))


def test_expand_lists_word_sums_in_lexicographic_order(planar_shear):
    view = planar_shear.l_view
    zero = np.zeros((1, 2), dtype=object)
    for n in range(1, 4):
        sums = table_expand(view, zero, n)
        words = itertools.product(range(planar_shear.N), repeat=n)
        assert sums == [word_sum(planar_shear.S_exact, planar_shear.L_exact, w) for w in words]
        shorter = table_expand(view, zero, n - 1)
        assert sums == [tuple(row) for row in fraction_expand(view, shorter)]
    assert all(type(c) is Fraction for row in sums for c in row)
    with pytest.raises(ValueError):
        IfsView("L", view.matrix, view.digits).expand(zero, 1)


@pytest.mark.parametrize("top", [2 ** 55, 2 ** 56, 2 ** 58, -2 ** 60])
def test_expand_bound_counts_the_rescaling_to_the_new_denominator(top):
    # L = {0, 1/16} over q = 1: the images 4 x + l are rescaled to q' = 16, so
    # 4 |x| 16 + 1 decides the dtype; past 2^62 the rows are Python ints
    view = AffineSystem.create([[4]], [[0], [2]], [[0], [Fraction(1, 16)]]).l_view
    rows, q = view.expand(np.array([[top], [3]], dtype=np.int64), 1)
    assert q == 16
    assert rows.tolist() == [[64 * top], [192], [64 * top + 1], [193]]
    assert rows.dtype == (np.int64 if 64 * abs(top) + 1 < 2 ** 62 else object)


def test_enumerate_cycles_match_per_word_sums_d2(twindragon, planar_shear):
    # each cycle's right-hand side (S^p - I) x_0, read from the expansion
    # table, equals the word's Horner sum and its term-by-term sum
    for sys, p_max in ((twindragon, 7), (planar_shear, 4)):
        zero = [Fraction(0)] * sys.d
        for cyc in enumerate_cycles(sys, p_max):
            m = mat_pow(sys.S_exact, cyc.period) - identity_rational(sys.d)
            rhs = tuple(m @ np.array(cyc.points[0], dtype=object))
            assert rhs == _horner(sys.l_view, cyc.word, zero)
            assert rhs == word_sum(sys.S_exact, sys.L_exact, cyc.word)
            assert cyc.points == cycle_from_word(sys, cyc.word).points


def test_power_system_identity(cantor4):
    assert power_system(cantor4, 1) is cantor4


def test_power_system_cantor4_squared(cantor4):
    sq = power_system(cantor4, 2)
    assert sorted(float(b[0]) for b in sq.B) == [0, 2, 8, 10]
    assert sorted(float(l[0]) for l in sq.L) == [0, 1, 4, 5]
    assert sq.R[0, 0] == 16
    from ifsfourier import check_duality

    assert check_duality(sq).passes


def test_check_duality_on_large_power_system():
    # R = 20, N = 5: a Hadamard triple, so its third power is one too; its
    # phases (R^-3 b).l reach ~8e3, so they must be reduced mod 1 exactly
    sys = AffineSystem.create([[20]], [[0], [4], [28], [12], [16]], [[0], [-9], [7], [13], [4]])
    assert check_duality(sys).passes
    assert check_duality(power_system(sys, 3)).passes


def test_power_system_symbol_factorization(cantor4):
    sq = power_system(cantor4, 2)
    rng = np.random.default_rng(8)
    for x in rng.uniform(-2, 2, 100):
        lhs = m_eval(sq.B, x) / np.sqrt(sq.N)
        rhs = (m_eval(cantor4.B, x) / np.sqrt(2)) * (
            m_eval(cantor4.B, 4 * x) / np.sqrt(2)
        )
        assert abs(lhs - rhs) < 1e-12


def test_power_system_one_cycles_cover_p_cycle_points():
    sys = lam(15)
    two_cycle = [c for c in find_w_cycles(sys, 2) if c.period == 2][0]
    sq = power_system(sys, 2)
    fixed_points = {c.points[0] for c in enumerate_cycles(sq, 1)}
    for p in two_cycle.points:
        assert p in fixed_points


def test_cycles_json_schema(cantor4):
    cycles = find_w_cycles(cantor4, 2)
    data = json.loads(json.dumps([c.to_json_dict() for c in cycles]))
    assert data == [
        {"word": [0], "period": 1, "points": ["(0)"], "is_w_cycle": True}
    ]


def assert_cycle_table_matches_reference(sys, p_max: int) -> list:
    """enumerate_cycles against the Python-int table with its set of tuples:
    the same cycles, words, points and W verdicts, as Python ints and
    Fractions with Python-int internals; the cycles."""
    fast = enumerate_cycles(sys, p_max)
    assert [(c.word, c.period, c.points, c.is_w_cycle) for c in fast] == [
        (c.word, c.period, c.points, c.is_w_cycle) for c in cycle_table_reference(sys, p_max)]
    assert all(type(v.numerator) is int and type(v.denominator) is int
               for c in fast for pt in c.points for v in pt)
    return fast


@pytest.mark.parametrize("name,p_max", [("cantor4", 8), ("cantor3", 5), ("lambda15", 8),
                                        ("lambda63", 8), ("planar-shear", 5), ("twindragon", 10)])
def test_cycle_table_matches_the_python_int_reference_on_registry(name, p_max):
    assert_cycle_table_matches_reference(get_system(name), p_max)


def test_cycle_table_past_int64_takes_python_ints():
    # R = 2^31: the period-6 fixed points have denominators 2^186 - 1 and
    # beyond, so the tables pass 2^62 at period 3 and run on Python ints
    sys = AffineSystem.create([[2 ** 31]], [[0], [2 ** 30]], [[0], [1]])
    cycles = assert_cycle_table_matches_reference(sys, 6)
    assert max(c.points[0][0].denominator for c in cycles).bit_length() == 186
    assert [c.points for c in cycles if c.is_w_cycle] == [((Fraction(0),),)]
    rows, q = np.zeros((1, 1), dtype=np.int64), 1
    dtypes = []
    for _ in range(4):
        rows, q = sys.l_view.expand(rows, q)
        dtypes.append(rows.dtype)
    assert dtypes == [np.int64, np.int64, object, object]
