import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ifsfourier import (
    EXAMPLES,
    AffineSystem,
    Weight,
    chaos_game,
    estimate_h,
    find_w_cycles,
    get_system,
    h_closed_form,
    h_closed_forms,
    k_point,
    mu_hat_batch,
    mu_hat_detail,
    riesz_chain,
    run_chain,
    sample_paths,
    weight_from_digits,
)
from ifsfourier import measure, pathspace
from ifsfourier.system import IfsView
from ifsfourier.measure import _branch_pass, _branch_weights, _zero_cutoff
from ifsfourier.pathspace import (NODE_ROWS, NODE_SHARE, QMF_SAMPLING_TOL, UNIFORM_BLOCK,
                                  PathEnsemble, _cut_pass, _cycle_labels, _walk,
                                  classification_radius)
from reference import cylinder_frequency, cylinder_weight, path_weight_with_tail
from strategies import product_triple
from test_measure import direct_branch_pass
from test_spectrum import k_points_reference


def test_cylinder_empty_word(cantor4, cantor4_weight):
    assert cylinder_weight(cantor4_weight, cantor4.l_view, [0.2], []) == 1.0


def test_cylinder_zero_fixed_path(cantor4, cantor4_weight):
    for n in (1, 5, 20):
        w = cylinder_weight(cantor4_weight, cantor4.l_view, [0.0], [0] * n)
        assert w == pytest.approx(1.0, abs=1e-14)


def test_cylinder_total_mass(cantor4, cantor4_weight):
    total = sum(
        cylinder_weight(cantor4_weight, cantor4.l_view, [0.3], word)
        for word in itertools.product(range(2), repeat=8)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_cylinder_cocycle_factorization(cantor4, cantor4_weight):
    view = cantor4.l_view
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-0.3, 0.3)
        word = tuple(rng.integers(0, 2, 6))
        prefix, suffix = word[:3], word[3:]
        z = np.array([x])
        for idx in prefix:
            z = view.inv @ (z + view.digits[idx])
        lhs = cylinder_weight(cantor4_weight, view, [x], word)
        rhs = cylinder_weight(cantor4_weight, view, [x], prefix) * cylinder_weight(
            cantor4_weight, view, z, suffix
        )
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_path_weight_matches_mu_hat(cantor4, cantor4_weight, cantor4_w_cycles):
    # P_x(word then cycle forever) = |mu_hat(x + k(word))|^2
    rng = np.random.default_rng(7)
    cycle = cantor4_w_cycles[0]
    for _ in range(20):
        n = int(rng.integers(0, 7))
        word = tuple(int(v) for v in rng.integers(0, 2, n))
        x = Fraction(int(rng.integers(-900, 900)), 2700)
        lhs = path_weight_with_tail(cantor4_weight, cantor4.l_view, [float(x)], word, cycle)
        k = k_point(cantor4, cycle, word)
        rhs = abs(mu_hat_detail(cantor4, (x + k[0],), 1e-12).value) ** 2
        assert abs(lhs - rhs) < 1e-8


def test_sample_paths_deterministic(cantor4, cantor4_weight):
    a = sample_paths(cantor4_weight, cantor4.l_view, [0.3], 16, 200, seed=5)
    b = sample_paths(cantor4_weight, cantor4.l_view, [0.3], 16, 200, seed=5)
    assert np.array_equal(a.words, b.words)
    assert cylinder_frequency(a, [0]) > 0.5


def test_sample_paths_zero_start_locks(cantor4, cantor4_weight):
    ens = sample_paths(cantor4_weight, cantor4.l_view, [0.0], 24, 500, seed=6)
    # W kills the other branch at the origin, so every word is all zeros
    assert cylinder_frequency(ens, [0] * 24) == 1.0


def test_sample_paths_uniform_weight_is_bernoulli(cantor4):
    w = Weight(0.5, [], np.empty((0, 1)), "1/N")
    ens = sample_paths(w, cantor4.l_view, [0.1], 4, 20_000, seed=8)
    # chi-square over the 16 length-4 cylinders
    counts = np.zeros(16)
    words = ens.words @ (2 ** np.arange(4))
    for v in words:
        counts[v] += 1
    expected = len(words) / 16.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 37.7  # chi2_{15} at p=0.999


def test_sample_paths_cylinder_frequencies(cantor4, cantor4_weight):
    view = cantor4.l_view
    count = 40_000
    ens = sample_paths(cantor4_weight, view, [0.3], 8, count, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        word = tuple(int(v) for v in rng.integers(0, 2, n))
        emp = cylinder_frequency(ens, word)
        exact = cylinder_weight(cantor4_weight, view, [0.3], word)
        assert abs(emp - exact) < 4.0 / np.sqrt(count)


def test_sample_paths_rejects_unnormalized(cantor4):
    bad = weight_from_digits([[0], [1]])
    with pytest.raises(ValueError):
        sample_paths(bad, cantor4.l_view, [0.1], 4, 10, seed=0)


def test_sample_paths_refuses_a_negative_tail_window(cantor4, cantor4_weight):
    # tail_window -1 once raised a bare IndexError
    with pytest.raises(ValueError, match="tail_window"):
        sample_paths(cantor4_weight, cantor4.l_view, [0.3], 16, 10, seed=0, tail_window=-1)


def test_walk_refuses_a_start_past_the_zero_cut(cantor4, cantor4_weight):
    # on cantor4 the cut at the start, floor + s |x| with floor = 2.28e-15 and
    # s = 1.40e-15, reaches 1/N = 1/2 near |x| = 3.6e14, where it may cut
    # every branch weight
    floor, s = pathspace._zero_cutoff(cantor4_weight, cantor4.l_view)
    edge = (0.5 - floor) / s[0]
    assert 3.5e14 < edge < 3.6e14
    for x in (1.001 * edge, -1.001 * edge):
        with pytest.raises(OverflowError, match="reaches 1/N = 0.5"):
            sample_paths(cantor4_weight, cantor4.l_view, [x], 4, 10, seed=0)


def test_estimate_h_at_cycle_point(cantor4, cantor4_weight, cantor4_w_cycles):
    est = estimate_h(
        cantor4_weight, cantor4.l_view, [0.0], cantor4_w_cycles, 32, 2000, seed=11
    )
    assert est.probabilities[0] == pytest.approx(1.0, abs=1e-3)


def test_estimate_h_single_cycle_total(cantor4, cantor4_weight, cantor4_w_cycles):
    est = estimate_h(
        cantor4_weight, cantor4.l_view, [0.29], cantor4_w_cycles, 64, 20_000, seed=12
    )
    assert est.probabilities[0] + est.unclassified == pytest.approx(1.0, abs=1e-12)
    assert est.probabilities[0] > 0.99


def test_estimate_h_probabilities_in_unit_interval(twindragon):
    w = weight_from_digits(twindragon.B)
    cycles = find_w_cycles(twindragon, 4)
    est = estimate_h(w, twindragon.l_view, [0.1, -0.2], cycles, 32, 5000, seed=13)
    assert all(0.0 <= p <= 1.0 for p in est.probabilities)
    assert est.total <= 1.0 + 1e-12


def test_classification_radius_multi_cycle(twindragon):
    cycles = find_w_cycles(twindragon, 4)
    # minimum pairwise distance among the twelve points is 1/5
    assert classification_radius(cycles, twindragon.l_view) == pytest.approx(1 / 40)


def per_cycle_labels(ens, w_cycles, radius):
    """(labels, ambiguous): the labels `estimate_h` formed before
    `_cycle_labels`, by one distance pass per cycle, in cycle order, with
    `np.linalg.norm`, at the tail state aligned to its period; and which
    paths were near two cycles' points, and so -1."""
    length, window = ens.length, ens.tail_states.shape[1] - 1
    assigned = np.full(ens.count, -1)
    ambiguous = np.zeros(ens.count, dtype=bool)
    for ci, cyc in enumerate(w_cycles):
        aligned = (length // cyc.period) * cyc.period
        states = ens.tail_states[:, aligned - (length - window)]
        dist = np.min(np.linalg.norm(states[:, None, :] - cyc.points_float[None, :, :], axis=2),
                      axis=1)
        hit = dist < radius
        ambiguous |= hit & (assigned >= 0)
        assigned = np.where(hit & (assigned < 0), ci, assigned)
    assigned[ambiguous] = -1
    return assigned, ambiguous


@pytest.mark.parametrize("name", [n for n, e in EXAMPLES.items() if e.kind == "affine"])
def test_cycle_labels_match_the_per_cycle_loop(name):
    # tails scattered about the W-cycle points, at lengths that align the
    # periods at different tail states (one shorter than the longest
    # period), and radii at which paths are near one cycle, none, or several
    sys_ = get_system(name)
    cycles = find_w_cycles(sys_, EXAMPLES[name].p_max)
    radius = classification_radius(cycles, sys_.l_view)
    points = np.concatenate([c.points_float for c in cycles])
    max_period = max(c.period for c in cycles)
    rng = np.random.default_rng(39)
    kinds, ambiguous = set(), 0
    for length in (64, max_period + 1, max(1, max_period - 1)):
        shape = (3000, min(max_period, length) + 1)
        tail = points[rng.integers(len(points), size=shape)]
        tail += rng.normal(size=tail.shape) * radius * rng.uniform(0.0, 3.0, shape + (1,))
        ens = PathEnsemble(start=tail[0, 0], length=length,
                           words=np.zeros((shape[0], length), dtype=np.int8), seed=0,
                           tail_states=tail)
        for r in (radius, 4 * radius, 100 * radius):
            labels, near_two = per_cycle_labels(ens, cycles, r)
            assert np.array_equal(_cycle_labels(ens, cycles, r), labels)
            kinds.update(np.sign(labels).tolist())
            ambiguous += np.count_nonzero(near_two)
    assert kinds == ({-1, 0, 1} if len(cycles) > 1 else {-1, 0})
    assert (ambiguous > 0) == (len(cycles) > 1)


def test_h_closed_form_monotone_in_depth(cantor4, cantor4_w_cycles):
    vals = [
        h_closed_form(cantor4, [0.3], cantor4_w_cycles[0], depth)
        for depth in (2, 4, 8, 12)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)


def test_h_closed_form_unit_at_matching_frequency(cantor4, cantor4_w_cycles):
    # x = -k(word): one term is |mu_hat(0)|^2 = 1
    k = k_point(cantor4, cantor4_w_cycles[0], (1, 0, 1))
    val = h_closed_form(cantor4, [-float(k[0])], cantor4_w_cycles[0], 6)
    assert val >= 1.0 - 1e-9
    assert val <= 1.0 + 1e-9


def closed_form_letters(sys, cycle, depth):
    """The word length h_closed_form sums over: depth - m letters, m the
    least with N^m >= period, so at most N^depth k-points per cycle."""
    m = min(m for m in range(cycle.period) if sys.N ** m >= cycle.period)
    return max(1, depth - m)


def h_closed_form_reference(sys, probes, cycle, depth):
    """h_closed_form at each probe x from the Fraction k-points of every
    rotation of the cycle, each coordinate float()ed."""
    ks = k_points_reference(sys, cycle.points, closed_form_letters(sys, cycle, depth))
    pts = np.array([[float(c) for c in k] for k in sorted(ks)])
    return [float(np.sum(np.abs(mu_hat_batch(sys, pts + np.asarray(x, dtype=float))) ** 2))
            for x in probes]


def assert_closed_forms_match_reference(sys, probes, cycles, depths):
    """Each closed form equals its per-word reference bit for bit and is
    nondecreasing in depth; the batch of all cycles equals the per-cycle
    calls bit for bit; at each probe the cycles sum to at most 1."""
    for x in probes:
        table = [[h_closed_form(sys, x, cyc, depth) for depth in depths] for cyc in cycles]
        for cyc, row in zip(cycles, table):
            assert row == [h_closed_form_reference(sys, [x], cyc, depth)[0] for depth in depths]
            assert all(a <= b + 1e-15 for a, b in zip(row, row[1:]))
        assert [h_closed_forms(sys, x, cycles, depth) for depth in depths] == [
            list(column) for column in zip(*table)]
        assert sum(row[-1] for row in table) <= 1.0 + 1e-9


@pytest.mark.parametrize("name,p_max,depth", [
    ("cantor4", 6, 8), ("lambda15", 6, 8), ("twindragon", 4, 6), ("planar-shear", 4, 6),
])
def test_h_closed_form_bit_identical_to_fraction_reference(name, p_max, depth):
    sys = get_system(name)
    rng = np.random.default_rng(23)
    probes = [rng.normal(size=sys.d) for _ in range(2)]
    if name == "planar-shear":
        probes.append(np.array([1 / 3, 0.0]))  # c10's dual-lattice point
    assert_closed_forms_match_reference(sys, probes, find_w_cycles(sys, p_max),
                                        (depth - 2, depth))


def assert_batch_is_per_cycle(sys, probes, cycles, depths):
    """h_closed_forms over all cycles == h_closed_form of each cycle alone."""
    for x in probes:
        for depth in depths:
            assert h_closed_forms(sys, x, cycles, depth) == [
                h_closed_form(sys, x, cyc, depth) for cyc in cycles]


@pytest.mark.parametrize("name", sorted(n for n, e in EXAMPLES.items() if e.kind == "affine"))
def test_batched_closed_forms_are_the_per_cycle_calls(name):
    # one batch over one lcm q, each cycle's rows at their own depth, gives
    # every cycle's sum bit for bit; probes near and far (deeper products)
    sys = get_system(name)
    rng = np.random.default_rng(29)
    probes = [[0.3] * sys.d, rng.normal(size=sys.d), rng.normal(scale=40.0, size=sys.d)]
    cycles = find_w_cycles(sys, 8 if name == "twindragon" else EXAMPLES[name].p_max)
    assert len(cycles) > 1 or name == "cantor4"
    assert_batch_is_per_cycle(sys, probes, cycles, (1, 4, 6))
    assert h_closed_forms(sys, probes[0], [], 4) == []


def test_h_closed_form_budget_is_n_to_the_depth():
    # twindragon at --p-max 8 --depth 8: 2,240 k-points over its nine cycles
    sys = get_system("twindragon")
    cycles = find_w_cycles(sys, 8)
    sizes = [c.period * sys.N ** closed_form_letters(sys, c, 8) for c in cycles]
    assert all(size <= sys.N ** 8 for size in sizes)
    assert sum(sizes) == 2240
    with pytest.raises(ValueError):
        h_closed_form(sys, [0.3, 0.2], cycles[0], 0)


def test_estimate_h_deficient_partition_planar_shear(planar_shear):
    # the shear system's harmonic eigenspace is larger than its cycle
    # count, so path mass escapes the four W-cycles; at x = (1/3, 0) the
    # escape is total (the matching closed-form sums vanish exactly)
    w = weight_from_digits(planar_shear.B)
    cycles = find_w_cycles(planar_shear, 4)
    est = estimate_h(w, planar_shear.l_view, [1 / 3, 0], cycles, 64, 20_000, seed=31)
    assert est.total < 1.0 - 0.01
    assert est.unclassified > 0.9
    assert sum(h_closed_form(planar_shear, [1 / 3, 0], c, 5) for c in cycles) == 0.0


def test_h_closed_form_cross_check_mc(cantor4, cantor4_weight, cantor4_w_cycles):
    x = [0.3]
    mc = estimate_h(cantor4_weight, cantor4.l_view, x, cantor4_w_cycles, 64, 20_000, seed=14)
    cf = h_closed_form(cantor4, x, cantor4_w_cycles[0], 12)
    sigma = max(mc.stderrs[0], 1e-4)
    assert abs(mc.probabilities[0] - cf) < 3 * sigma + mc.unclassified


def test_path_weight_with_tail_accepts_one_shot_iterables():
    sys_ = get_system("lambda15")
    w = weight_from_digits(sys_.B)
    cycle = next(c for c in find_w_cycles(sys_, 1) if c.word == (0,))
    word = [1, 0, 1]
    ref = path_weight_with_tail(w, sys_.l_view, [0.3], list(word), cycle)
    assert path_weight_with_tail(w, sys_.l_view, [0.3], tuple(word), cycle) == ref
    assert path_weight_with_tail(w, sys_.l_view, [0.3], iter(word), cycle) == ref
    assert ref == pytest.approx(2.96e-6, rel=1e-2)


# --- reference equivalence of the branch walk ------------------------------

def _reference_walk(weight, view, x, length, count, seed):
    """The per-digit walk the package used before its walks were merged:
    one weight call per digit, and the branch images computed a second
    time to move.  Returns the words and all states z_0..z_length."""
    inv_t = np.linalg.inv(view.matrix).T

    def images_of(z):
        return np.stack([(z + view.digits[i]) @ inv_t for i in range(view.n_digits)])

    rng = np.random.default_rng(seed)
    z = np.tile(np.asarray(x, dtype=float).reshape(1, view.d), (count, 1))
    words = np.empty((count, length), dtype=np.int8)
    states = [z]
    for step in range(length):
        images = images_of(z)
        probs = np.empty((count, view.n_digits))
        for i in range(view.n_digits):
            w = np.asarray(weight(images[i] if view.d > 1 else images[i][:, 0]), dtype=float)
            probs[:, i] = np.where(w < 1e-15, 0.0, w)
        probs = probs / probs.sum(axis=1)[:, None]
        u = rng.random(count)
        choices = np.minimum((u[:, None] >= np.cumsum(probs, axis=1)).sum(axis=1),
                             view.n_digits - 1)
        words[:, step] = choices
        z = images_of(z)[choices, np.arange(count)]
        states.append(z)
    return words, np.stack(states, axis=1)


WALK_CASES = [("cantor4", [0.3]), ("lambda15", [0.21]), ("twindragon", [0.1, -0.2]),
              ("planar-shear", [0.15, 0.05])]


@pytest.mark.parametrize("name,x", WALK_CASES)
def test_sample_paths_matches_reference_walk(name, x):
    sys_ = get_system(name)
    w = weight_from_digits(sys_.B)
    length, count, tail_window = 24, 300, 5
    ens = sample_paths(w, sys_.l_view, x, length, count, seed=21, tail_window=tail_window)
    words, states = _reference_walk(w, sys_.l_view, x, length, count, seed=21)
    assert np.array_equal(ens.words, words)
    assert np.array_equal(ens.tail_states, states[:, length - tail_window:])


@pytest.mark.parametrize("name,x", WALK_CASES)
def test_run_chain_matches_reference_walk(name, x):
    sys_ = get_system(name)
    w = weight_from_digits(sys_.B)
    n, burn_in, n_chains = 1003, 40, 8  # the last chain runs three steps longer
    chain = run_chain(w, sys_.l_view, x, n, burn_in=burn_in, seed=22, n_chains=n_chains)
    counts = [n // n_chains] * n_chains
    counts[-1] += n - sum(counts)
    _, states = _reference_walk(w, sys_.l_view, x, burn_in + counts[-1], n_chains, seed=22)
    expected = np.concatenate(
        [states[i, burn_in + 1: burn_in + 1 + counts[i]] for i in range(n_chains)])
    assert np.array_equal(chain.states, expected)


def test_walk_on_a_view_no_norm_contracts():
    # S^{-1} = [[1/2, 0], [-5/2, 1/2]] contracts in neither the inf- nor the
    # 2-norm: its box comes from the power norms and holds every orbit from 0
    sys_ = AffineSystem.create([[2, 10], [0, 2]], [[0, 0], [1, 0], [0, 1], [1, 1]],
                               [[0, 0], [1, 0], [0, 1], [1, 1]])
    w, x = weight_from_digits(sys_.B), [0.1, 0.2]
    lo, hi = sys_.l_view.box(inflate=1.0)
    points = chaos_game(sys_.l_view, 5000, 3)
    assert np.all((lo <= points) & (points <= hi))
    ens = sample_paths(w, sys_.l_view, x, 16, 200, seed=27, tail_window=16)
    words, states = _reference_walk(w, sys_.l_view, x, 16, 200, seed=27)
    assert np.array_equal(ens.words, words)
    assert np.array_equal(ens.tail_states, states)


# --- the walk before W_B became a cosine polynomial -------------------------

def exponential_branch_weights(digits, view, z):
    """The kernel `measure._branch_weights` ran for W_B = |m_B|^2 / N before
    the cosine polynomial: (images, w) with all N branch images from
    `tau_all` and w = |exp(2 pi i z G^t) H|^2 / K^2, where g_b = M^{-t} b are
    the rows of G and H[b, l] = exp(2 pi i g_b.l); w is a transposed,
    F-ordered (N, n) view."""
    b = np.atleast_2d(np.asarray(digits, dtype=float))
    g = b @ view.inv
    h = np.exp(2j * np.pi * (g @ view.digits.T))
    s = (np.exp(1j * (np.atleast_2d(z) @ (2.0 * np.pi * g.T))) @ h).T
    return view.tau_all(z), (s.real ** 2 + s.imag ** 2) / len(b) ** 2


def exponential_kernel_walk(digits, view, x, length, count, seed, keep_from):
    """`pathspace._walk` as it ran on that kernel: every branch image formed,
    axis-0 reductions over the F-ordered weights, one uniform draw per step.
    Returns the words and the states z_k for k >= keep_from."""
    rng = np.random.default_rng(seed)
    z = np.tile(np.asarray(x, dtype=float).reshape(1, view.d), (count, 1))
    words = np.empty((count, length), dtype=np.int8)
    kept = np.empty((count, length + 1 - keep_from, view.d))
    if keep_from == 0:
        kept[:, 0] = z
    walks = np.arange(count)
    for step in range(length):
        images, w = exponential_branch_weights(digits, view, z)
        w = np.where(w < 1e-15, 0.0, w)
        sums = np.add.reduce(w)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9
        w /= sums
        choices = np.add.reduce(rng.random(count) >= np.add.accumulate(w))
        np.minimum(choices, view.n_digits - 1, out=choices)
        words[:, step] = choices
        z = images[choices, walks]
        if step + 1 >= keep_from:
            kept[:, step + 1 - keep_from] = z
    return words, kept


@pytest.mark.parametrize("name,x", WALK_CASES)
def test_walk_matches_exponential_kernel_walk(name, x):
    sys_ = get_system(name)
    view, w = sys_.l_view, weight_from_digits(sys_.B)
    # wide: 3000 walks draw their uniforms 21 steps at a time, so 40 steps
    # end in a partial block
    length, count, tail_window = 40, 3000, 6
    assert UNIFORM_BLOCK // count == 21
    ens = sample_paths(w, view, x, length, count, seed=25, tail_window=tail_window)
    words, tail = exponential_kernel_walk(sys_.B, view, x, length, count, 25,
                                          length - tail_window)
    assert np.array_equal(ens.words, words)
    assert np.array_equal(ens.tail_states, tail)
    # narrow: 32 chains draw 2048 steps at a time, so 2602 steps cross a block
    n, burn_in, n_chains = 32 * 2500 + 2, 100, 32
    assert UNIFORM_BLOCK // n_chains == 2048
    chain = run_chain(w, view, x, n, burn_in=burn_in, seed=26, n_chains=n_chains)
    counts = [n // n_chains] * n_chains
    counts[-1] += n - sum(counts)
    _, kept = exponential_kernel_walk(sys_.B, view, x, burn_in + counts[-1], n_chains, 26,
                                      burn_in + 1)
    expected = np.concatenate([kept[i, : counts[i]] for i in range(n_chains)])
    assert np.array_equal(chain.states, expected)


@pytest.mark.parametrize("name", [name for name, _ in WALK_CASES])
def test_cosine_kernel_matches_exponential_kernel(name):
    sys_ = get_system(name)
    for view in (sys_.l_view, sys_.b_view):
        lo, hi = view.box()
        z = np.random.default_rng(34).uniform(3 * lo, 3 * hi, size=(2000, sys_.d))
        for digits in (sys_.B, sys_.L):
            _, ref = exponential_branch_weights(digits, view, z)
            assert np.max(np.abs(_branch_weights(weight_from_digits(digits), view, z) - ref)) < 1e-11


@pytest.mark.parametrize("count,steps,block", [(7, 10, 3), (32, 5000, 2048), (3000, 40, 21),
                                               (1, 5, 5)])
def test_block_uniforms_match_per_step_draws(count, steps, block):
    # the walk draws rng.random(k * count) for k steps at once; default_rng
    # must give the same uniforms as k calls of rng.random(count), in a
    # final partial block too
    per_step = np.random.default_rng(np.random.SeedSequence(17))
    blocked = np.random.default_rng(np.random.SeedSequence(17))
    rows = []
    for start in range(0, steps, block):
        rows.extend(blocked.random(min(block, steps - start) * count).reshape(-1, count))
    assert len(rows) == steps
    for row in rows:
        assert np.array_equal(row, per_step.random(count))
    assert blocked.random() == per_step.random()  # both streams end at the same place


# --- the walk on fixed buffers against the walk that allocated per step ----

def per_step_walk(weight, view, x, length, count, seed, keep_from):
    """`pathspace._walk` as it ran before its buffers: new arrays every step,
    the zero cut at each row's state by `np.where`, and the QMF check on
    every step, raising at the first step that breaks it.  Returns (words,
    kept) as `_walk`."""
    rng = np.random.default_rng(seed)
    z = np.tile(np.asarray(x, dtype=float).reshape(1, view.d), (count, 1))
    words = np.empty((count, length), dtype=np.int8)
    kept = np.empty((count, length + 1 - keep_from, view.d))
    if keep_from == 0:
        kept[:, 0] = z
    inv_t, digits = view.inv.T, view.digits
    floor, scale = _zero_cutoff(weight, view)
    block = max(1, UNIFORM_BLOCK // count)
    for step in range(length):
        if step % block == 0:
            uniforms = rng.random(min(block, length - step) * count).reshape(-1, count)
        u = uniforms[step % block]
        w = _branch_weights(weight, view, z)
        w = np.where(w < floor + np.abs(z) @ scale, 0.0, w)
        sums = np.add.reduce(w)
        worst = np.maximum.reduce(np.abs(sums - 1.0))
        if worst > QMF_SAMPLING_TOL:
            raise ValueError("branch probabilities sum to 1 within %g only up to %g; "
                             "is the weight QMF-normalized?" % (QMF_SAMPLING_TOL, worst))
        w /= sums
        cum = w[0]
        choices = (u >= cum).astype(np.intp)
        for row in w[1:-1]:
            cum += row
            choices += u >= cum
        words[:, step] = choices
        z = (z + digits.take(choices, axis=0)) @ inv_t
        if step + 1 >= keep_from:
            kept[:, step + 1 - keep_from] = z
    return words, kept


@pytest.mark.parametrize("name", ["cantor4", "twindragon", "planar-shear", "riesz3"])
def test_cylinder_weights_are_the_walks_branch_weights(name):
    # each sampled word's cylinder weight is the product of the branch
    # weights its walk read, bit for bit: the same move, pass and cut
    weight, view, _ = _walk_case(name)
    x, count, length = [0.21] * view.d, 200, 12
    words, kept = _walk(weight, view, x, length, count, 3, 0)
    floor, scale = _zero_cutoff(weight, view)
    product = np.ones(count)
    for k in range(length):
        z = kept[:, k]
        w = _branch_weights(weight, view, z)[words[:, k], np.arange(count)]
        product *= np.where(w < floor + np.abs(z) @ scale, 0.0, w)
    assert [cylinder_weight(weight, view, x, word) for word in words] == product.tolist()


def patch_branch_pass(monkeypatch, alter):
    """Make every branch pass, that of `_walk` and, through
    `measure._branch_weights`, that of `per_step_walk`, return
    alter(w, z, view) for its weights w at the states z: a test's way to
    give a walk weights that no cosine polynomial has."""
    def patched(weight, view, n):
        weights_at = _branch_pass(weight, view, n)
        return lambda z: alter(weights_at(z), z, view)
    monkeypatch.setattr(pathspace, "_branch_pass", patched)
    monkeypatch.setattr(measure, "_branch_pass", patched)


def _walk_case(name):
    """(weight, view, start) of a registry entry: W_B on the L-view, or the
    riesz3 (view, weight)."""
    if name == "riesz3":
        return EXAMPLES[name].weight, EXAMPLES[name].view, [0.1]
    sys_ = get_system(name)
    x = dict(WALK_CASES).get(name, [0.21] * sys_.d)
    return weight_from_digits(sys_.B), sys_.l_view, x


@pytest.mark.parametrize("name", [name for name, _ in WALK_CASES] + ["lambda63", "riesz3"])
@pytest.mark.parametrize("count,length,keep_from", [
    (32, 2 * 2048 + 5, 2 * 2048 - 3),  # two full uniform blocks and a partial one
    (6000, 25, 0),  # blocks of 10 steps; the last one partial
])
def test_walk_bit_identical_to_per_step_walk(name, count, length, keep_from):
    weight, view, x = _walk_case(name)
    assert UNIFORM_BLOCK // count in (2048, 10)
    words, kept = _walk(weight, view, x, length, count, 31, keep_from)
    ref_words, ref_kept = per_step_walk(weight, view, x, length, count, 31, keep_from)
    assert np.array_equal(words, ref_words)
    assert np.array_equal(kept, ref_kept)
    # recorded a step per row, the words are one C-ordered table: the same bytes
    assert words.flags.c_contiguous and words.tobytes() == ref_words.tobytes()


@pytest.mark.parametrize("count,length", [(6000, 64), (32, 4500)])
def test_planar_shear_walk_bit_identical_to_the_direct_pass_walk(monkeypatch, count, length):
    # the harmonic and run_chain shapes: the trig on 2 of the 4 frequencies
    # moves the branch weights by a few eps, and no word or state
    weight, view, x = _walk_case("planar-shear")
    words, kept = _walk(weight, view, x, length, count, 41, 0)
    monkeypatch.setattr(pathspace, "_branch_pass", direct_branch_pass)
    ref_words, ref_kept = _walk(weight, view, x, length, count, 41, 0)
    assert np.array_equal(words, ref_words)
    assert np.array_equal(kept, ref_kept)


def _qmf_outcome(monkeypatch, walk, changes, count, length):
    """The message of the ValueError a walk of W = 1/2 on cantor4 raises
    when, from each call of its branch pass in `changes` on (one call per
    walk step), every branch weight is that call's value; or None."""
    values, calls = [0.5], itertools.count()

    def step_weights(w, z, view):
        values[0] = changes.get(next(calls), values[0])
        w.fill(values[0])
        return w
    patch_branch_pass(monkeypatch, step_weights)
    half = Weight(0.5, [], np.empty((0, 1)), "1/2")
    try:
        walk(half, get_system("cantor4").l_view, [0.3], length, count, 7, length)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("count,length,start", [
    (32, 3000, 1000),   # mid-block in the first block of 2048 steps
    (32, 3000, 2500),   # mid-block in the last, partial block
    (32, 3000, 2047),   # the last step of a full block
    (3000, 40, 10),     # blocks of 21 steps
    (3000, 40, 39),     # the last step of the walk
])
@pytest.mark.parametrize("after", [
    [0.5 * (1.0 + 1e-6)],  # a break: row sums 1 + 1e-6
    [0.5 * (1.0 + 1e-10)],  # within QMF_SAMPLING_TOL: no break
    [0.0],  # row sums 0: probabilities 0/0 after the step
    [np.nan],  # NaN weights: they never raised
    [0.5 * (1.0 + 1e-6), np.nan],  # a break, then NaN row sums that must not hide it
])
def test_block_qmf_check_raises_on_exactly_the_per_step_inputs(monkeypatch, count, length,
                                                              start, after):
    monkeypatch.setattr(pathspace, "_segment_count", lambda *args: 1)  # one pass call a step
    changes = {start + i: value for i, value in enumerate(after)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the steps after a break leak no RuntimeWarning
        got = _qmf_outcome(monkeypatch, _walk, changes, count, length)
        ref = _qmf_outcome(monkeypatch, per_step_walk, changes, count, min(length, start + 1))
    assert (got is None) == (ref is None)
    if ref is not None:
        assert got == ref  # the rows after the break deviate no more than it


@pytest.mark.parametrize("count,length", [(32, 3000), (3000, 40)])
def test_block_qmf_check_after_a_break_at_a_state_reached_mid_block(monkeypatch, count, length):
    # the Riesz weight (its walk never locks into a cycle) scaled by 1 + 1e-6
    # on a short interval around a branch image the walk reaches mid-block,
    # and not before
    view, w_b = EXAMPLES["riesz3"].view, EXAMPLES["riesz3"].weight
    block = UNIFORM_BLOCK // count
    _, kept = _walk(w_b, view, [0.3], length, count, 9, 0)
    images = ((kept[:, :-1, None, :] + view.digits) @ view.inv.T)[..., 0]  # (walk, step, branch)
    target = images[0, block // 2, 1]
    lo, hi = target - 1e-12, target + 1e-12
    hit = np.any((lo < images) & (images < hi), axis=(0, 2))
    assert int(np.argmax(hit)) == block // 2

    def scaled(w, z, view):
        x = view.tau_all(z)[..., 0]
        w[(lo < x) & (x < hi)] *= 1.0 + 1e-6
        return w

    monkeypatch.setattr(pathspace, "_segment_count", lambda *args: 1)  # the one-segment walk
    patch_branch_pass(monkeypatch, scaled)
    with pytest.raises(ValueError, match="only up to") as got:
        _walk(w_b, view, [0.3], length, count, 9, 0)
    with pytest.raises(ValueError, match="only up to") as ref:
        per_step_walk(w_b, view, [0.3], length, count, 9, 0)
    # the block's worst deviation, at least that of the first step that broke
    worst = float(str(got.value).split("only up to ")[1].split(";")[0])
    first_worst = float(str(ref.value).split("only up to ")[1].split(";")[0])
    assert 1e-7 < first_worst <= worst < 1e-6


# --- zeros of W: the walk and the cylinder weights cut them exactly --------

# R = 20, B = 4 {0, 1, 2, 3, 14}, L = {0, -9, 2, -2, 4}: W_B vanishes at x = r / 20, 5 not | r
N5_TRIPLE = AffineSystem.create([[20]], [[0], [4], [8], [12], [56]], [[0], [-9], [2], [-2], [4]],
                                name="n5")


def two_digit_zeros(sys_):
    """|1 + exp(2 pi i delta.y)| = 0 on delta.y = 1/2 mod 1, delta = b1 - b0."""
    return [(sys_.B[1] - sys_.B[0], 2, [1])]


def states_onto_zeros(view, families, n, seed=0, far=False):
    """(z, l): n states and branches with tau_l z on the zero set of W, given
    as families (delta, q, residues), the hyperplanes delta.y = r/q mod 1
    with r in residues.  Uniform states of the view's box, scaled by
    10^u for u uniform in [0, 8] when `far`, are nudged so that their
    branch l lands on a hyperplane."""
    rng = np.random.default_rng(seed)
    lo, hi = view.box(inflate=1.0)
    z = rng.uniform(lo, hi, size=(n, view.d))
    if far:
        z *= 10.0 ** rng.uniform(0, 8, size=(n, 1))
    l = rng.integers(view.n_digits, size=n)
    y = (z + view.digits[l]) @ view.inv.T
    fam = rng.integers(len(families), size=n)
    for i, (delta, q, residues) in enumerate(families):
        rows = fam == i
        delta = np.asarray(delta, dtype=float)
        r = rng.choice(residues, size=int(rows.sum()))
        target = (r + q * np.rint((q * (y[rows] @ delta) - r) / q)) / q
        y[rows] += np.outer(target - y[rows] @ delta, delta / (delta @ delta))
    return y @ view.matrix.T - view.digits[l], l


def assert_zeros_cut(weight, view, z, l):
    """At states z whose branch l lands on a zero of W: the branch weight
    `_walk` computes there is below the zero cut at z, so the walk sets it
    to exactly 0; the cylinder weight of a word through the zero is exactly
    0.0; and the cut is at most 1e-12 per unit of max(1, |z|_inf).
    Returns the largest ratio of a branch weight at the zeros to its cut."""
    floor, scale = _zero_cutoff(weight, view)
    cut = floor + np.abs(z) @ scale
    assert np.all(cut <= 1e-12 * np.maximum(1.0, np.abs(z).max(axis=1)))
    w = _branch_weights(weight, view, z)[l, np.arange(len(z))]
    assert np.all(w < cut), np.count_nonzero(w >= cut)
    for k in range(0, len(z), max(1, len(z) // 40)):
        assert cylinder_weight(weight, view, z[k], [l[k]]) == 0.0
        # a longer word, through the zero at its second step
        z0 = z[k] @ view.matrix.T - view.digits[0]
        assert cylinder_weight(weight, view, z0, [0, l[k], 1 % view.n_digits]) == 0.0
    return float(np.max(w / cut))


ZERO_CASES = [
    (name, two_digit_zeros) for name in ("cantor4", "cantor3", "lambda15", "lambda63",
                                         "twindragon")
] + [("planar-shear", lambda s: [((3, 0), 2, [1]), ((0, 1), 2, [1])])]


@pytest.mark.parametrize("name,families", ZERO_CASES)
def test_zeros_of_w_b_are_cut_on_registry_systems(name, families):
    # on planar-shear 2 or 3 in 10^4 of these weights exceed 1e-15
    sys_ = get_system(name)
    z, l = states_onto_zeros(sys_.l_view, families(sys_), 20_000)
    assert_zeros_cut(weight_from_digits(sys_.B), sys_.l_view, z, l)


def test_the_cut_of_a_derived_term_reads_both_its_phases():
    # planar-shear: (0, 1) and (3, 0) direct, (3, -1) and (3, 1) derived from
    # both, so their phases carry the rounding of two and their values two
    # trig roundings: h_j = |g_a| + |g_b| and n_j = 2 in the cut
    weight, view, _ = _walk_case("planar-shear")
    g = np.abs(weight.f @ view.inv)  # the rows of (0, 1), (3, -1), (3, 0), (3, 1)
    h = np.array([g[0], g[0] + g[2], g[2], g[0] + g[2]])
    n = np.array([1.0, 2.0, 1.0, 2.0])
    turns = np.abs(weight.f @ view.inv @ view.digits.T).max(axis=1)
    eps = np.finfo(float).eps
    floor, scale = _zero_cutoff(weight, view)
    assert np.isclose(floor, 4 * eps * (weight.c0 + weight.a @ (n + 2 * np.pi * turns)),
                      rtol=1e-14, atol=0.0)
    assert np.allclose(scale, 8 * np.pi * eps * (weight.a @ h), rtol=1e-14, atol=0.0)


def test_zeros_of_the_riesz_weight_are_cut():
    # (2/3) cos^2(2 pi x) vanishes on 2x = 1/2 mod 1
    riesz = EXAMPLES["riesz3"]
    assert_zeros_cut(riesz.weight, riesz.view, *states_onto_zeros(riesz.view, [((2,), 2, [1])],
                                                                  4000))


@pytest.mark.parametrize("name,families", ZERO_CASES + [("riesz3", lambda _: [((2,), 2, [1])])])
def test_zeros_are_cut_at_states_far_from_the_attractor(name, families):
    # the cut grows with the state weighed, |z| out to 10^8, and stays well
    # above the computed weights at the zeros there
    weight, view, _ = _walk_case(name)
    z, l = states_onto_zeros(view, families(None if name == "riesz3" else get_system(name)), 4000,
                             far=True)
    assert np.abs(z).max() > 1e7
    assert assert_zeros_cut(weight, view, z, l) < 0.25  # the factor 4 the cut has to spare


def test_zeros_of_w_b_are_cut_on_a_scale_20_triple():
    weight, view = weight_from_digits(N5_TRIPLE.B), N5_TRIPLE.l_view
    families = [((4,), 5, [1, 2, 3, 4])]
    assert_zeros_cut(weight, view, *states_onto_zeros(view, families, 4000))
    # the images x = r / 20, |x| <= 1, from the integer states z = r - l (up to 8.6e-15 uncut)
    r, l = np.meshgrid([r for r in range(-20, 21) if r % 5], range(5))
    z = (r - view.digits[l, 0]).reshape(-1, 1)
    assert_zeros_cut(weight, view, z, l.ravel())
    # and on its product with lambda15, whose zeros are the two factors' zeros
    prod = product_triple(get_system("lambda15"), N5_TRIPLE)
    families = [((2, 0), 2, [1]), ((0, 4), 5, [1, 2, 3, 4])]
    assert_zeros_cut(weight_from_digits(prod.B), prod.l_view,
                     *states_onto_zeros(prod.l_view, families, 4000))


# --- the time-split walk against the walk that allocated per step ----------

def _riesz_case():
    return EXAMPLES["riesz3"].weight, EXAMPLES["riesz3"].view, [0.1]


def _scale3_plane_case():
    """R = 3 I, B = L = {0, 1, 2}^2, and W(x) = 1/9 + (1/10) cos(2 pi (x_1 + x_2)),
    QMF-normalized on the L-view with sup W < 1: a 2-d walk that splits, whose
    phases g.z = (z_1 + z_2) / 3 sum two products."""
    digits = [[i, j] for i in range(3) for j in range(3)]
    sys_ = AffineSystem.create([[3, 0], [0, 3]], digits, digits, name="scale3-plane")
    return Weight(1 / 9, [0.1], [[1.0, 1.0]]), sys_.l_view, [0.3, -0.7]


@pytest.mark.parametrize("count,length,keep_from", [
    (32, 32_250, 1001),  # the riesz bench shape: 62 segments of 521 steps, 52 past the end
    (31, 20_000, 500),  # count does not divide WIDTH
    (32, 10_001, 0),  # 19 segments of 527 steps, 12 past the end; z_0 kept
    (32, 5000, 5000),  # only the final state kept
    (5, 3001, 17),  # 5 segments of 601 steps, 4 past the end
    (2, 40_000, 39_990),  # 78 segments of 513 steps: only the last one's states kept
])
def test_split_walk_bit_identical_to_per_step_walk(count, length, keep_from):
    weight, view, x = _riesz_case()
    assert pathspace._segment_count(weight, x, length, count) > 1
    words, kept = _walk(weight, view, x, length, count, 23, keep_from)
    ref_words, ref_kept = per_step_walk(weight, view, x, length, count, 23, keep_from)
    assert np.array_equal(words, ref_words)
    assert np.array_equal(kept, ref_kept)


def _spy_split(monkeypatch):
    """The results of every `_segments` call on more than one segment, None
    for a walk sent back to one segment."""
    results, segments = [], pathspace._segments

    def spy(*args):
        walk = segments(*args)
        if args[-1] > 1:
            results.append(walk)
        return walk

    monkeypatch.setattr(pathspace, "_segments", spy)
    return results


def test_split_walk_in_the_plane_bit_identical_to_per_step_walk(monkeypatch):
    weight, view, x = _scale3_plane_case()
    results = _spy_split(monkeypatch)
    words, kept = _walk(weight, view, x, 4000, 32, 5, 100)
    ref_words, ref_kept = per_step_walk(weight, view, x, 4000, 32, 5, 100)
    assert len(results) == 1 and results[0] is not None  # the heads merged
    assert np.array_equal(words, ref_words)
    assert np.array_equal(kept, ref_kept)


def test_split_walk_falls_back_when_a_head_does_not_merge(monkeypatch):
    weight, view, x = _riesz_case()
    monkeypatch.setattr(pathspace, "WINDOW", 1)
    results = _spy_split(monkeypatch)
    words, kept = _walk(weight, view, x, 6000, 32, 8, 10)
    assert len(results) == 1 and results[0] is None
    ref_words, ref_kept = per_step_walk(weight, view, x, 6000, 32, 8, 10)
    assert np.array_equal(words, ref_words)
    assert np.array_equal(kept, ref_kept)


def test_split_walk_raises_what_one_segment_raises(monkeypatch):
    # the Riesz weight scaled by 1 + 1e-6: sup W < 1 still, so the walk splits,
    # and every row sum breaks QMF
    riesz = EXAMPLES["riesz3"].weight
    bad = Weight(riesz.c0 * (1 + 1e-6), riesz.a * (1 + 1e-6), riesz.f)
    view = EXAMPLES["riesz3"].view
    assert pathspace._segment_count(bad, [0.1], 6000, 32) > 1
    with pytest.raises(pathspace.QmfError) as split:
        _walk(bad, view, [0.1], 6000, 32, 4, 0)
    monkeypatch.setattr(pathspace, "WIDTH", 1)
    assert pathspace._segment_count(bad, [0.1], 6000, 32) == 1
    with pytest.raises(pathspace.QmfError) as one:
        _walk(bad, view, [0.1], 6000, 32, 4, 0)
    assert str(split.value) == str(one.value)


@pytest.mark.parametrize("name", [n for n, e in EXAMPLES.items() if e.kind == "affine"])
def test_w_b_walks_keep_one_segment(name):
    # W_B(0) = 1: a W_B walk may be absorbed into a W-cycle, so it never splits
    sys_ = get_system(name)
    weight = weight_from_digits(sys_.B)
    for count, length in [(32, 32_250), (1, 10 ** 6), (6000, 64)]:
        assert pathspace._segment_count(weight, [0.1] * sys_.d, length, count) == 1


def test_riesz_walk_splits_at_the_bench_shape():
    weight, _, x = _riesz_case()
    assert pathspace._segment_count(weight, x, 32_250, 32) == 62
    assert pathspace._segment_count(weight, [np.nan], 32_250, 32) == 1
    assert pathspace._segment_count(weight, x, 32_250, 4096) == 1


def test_riesz_chain_peak_memory():
    # the chain's angles are the walk's state buffer, scaled in place, not a
    # concatenated copy and a scaled one: 17.0 MB before, with the 8 MB
    # states alongside the copies; the walk adds its words and the split's
    # small buffers to the states
    riesz_chain(1000)
    tracemalloc.start()
    try:
        riesz_chain(10 ** 6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17.0e6


# --- retirement: a W_B walk stops once every row is locked in a float W-cycle

W_B_NAMES = ["cantor4", "lambda15", "lambda63", "twindragon", "planar-shear"]


def _spy_periods(monkeypatch):
    """The (step, periods) of every `_periods` call that found every row retired."""
    found, periods = [], pathspace._periods

    def spy(ring, k, *args):
        period = periods(ring, k, *args)
        if period is not None:
            found.append((k, period))
        return period

    monkeypatch.setattr(pathspace, "_periods", spy)
    return found


@pytest.mark.parametrize("stride", [pathspace.RETIRE_STRIDE, 1])
@pytest.mark.parametrize("count,length,keep_from", [
    (32, 4500, 501),  # the stationary run_chain shape
    (6000, 64, 56),  # the harmonic shape: 64 steps, an 8-step tail
])
@pytest.mark.parametrize("name", W_B_NAMES)
def test_retiring_walk_bit_identical_to_per_step_walk(monkeypatch, name, count, length, keep_from,
                                                      stride):
    monkeypatch.setattr(pathspace, "RETIRE_STRIDE", stride)
    found = _spy_periods(monkeypatch)
    weight, view, x = _walk_case(name)
    walk = _walk(weight, view, x, length, count, 29, keep_from)
    ref_words, ref_kept = per_step_walk(weight, view, x, length, count, 29, keep_from)
    assert np.array_equal(walk.words, ref_words)
    assert np.array_equal(walk.kept, ref_kept)
    assert walk.words.flags.c_contiguous and walk.words.tobytes() == ref_words.tobytes()
    assert walk.retired_at == (found[0][0] if found else None)
    if walk.retired_at is not None:
        assert walk.retired_at % stride == 0 and walk.retired_at < length
    if stride == pathspace.RETIRE_STRIDE and length <= stride:
        assert walk.retired_at is None  # a walk of at most one stride takes every step
    if (name, length) in [("cantor4", 4500), ("lambda15", 4500), ("lambda63", 4500)]:
        assert walk.retired_at is not None  # every row underflows onto a W-cycle by ~540 steps


def test_every_stationary_w_b_chain_retires():
    # the bench shape of run_chain on cantor4 and twindragon, at bench-like starts
    for name, x in [("cantor4", [0.3]), ("twindragon", [0.21, -0.3])]:
        sys_ = get_system(name)
        weight = weight_from_digits(sys_.B)
        for seed in range(3):
            chain = run_chain(weight, sys_.l_view, x, 32 * 4000, burn_in=500, seed=seed)
            walk = _walk(weight, sys_.l_view, x, 4500, 32, seed, 501)
            assert chain.retired_at == walk.retired_at is not None
            assert np.array_equal(chain.states, walk.kept.reshape(-1, sys_.d))


@pytest.mark.parametrize("case", ["planar-shear", "riesz3", "riesz3-one-segment"])
def test_walks_that_never_retire(monkeypatch, case):
    # planar-shear: some rows reach a float fixed point, never all of them;
    # riesz3: sup W = 2/3 < 1, so every state has two branches of weight >= 1/6
    if case == "riesz3-one-segment":
        monkeypatch.setattr(pathspace, "WIDTH", 1)
    weight, view, x = _walk_case(case.replace("-one-segment", ""))
    walk = _walk(weight, view, x, 6000, 32, 3, 5999)
    assert walk.retired_at is None
    if case == "planar-shear":
        ens = sample_paths(weight, view, x, 6000, 32, 3)
        assert ens.retired_at is None and np.array_equal(ens.words, walk.words)
    if case == "riesz3":
        assert riesz_chain(20_000, seed=3).retired_at is None


def test_a_repeated_state_with_two_live_branches_does_not_retire(monkeypatch):
    # two equal digits and W = 1/2: every state moves to z/4 whichever branch
    # is drawn, so the states underflow to 0 and repeat, but the words stay
    # a coin toss per step.  sup W < 1 would split the walk, which never
    # retires; one segment is the walk that tests for retirement
    monkeypatch.setattr(pathspace, "_segment_count", lambda *args: 1)
    view = IfsView("L", np.array([[4.0]]), np.array([[1.0], [1.0]]))
    half = Weight(0.5, [], np.empty((0, 1)), "1/2")
    walk = _walk(half, view, [0.3], 1200, 32, 4, 1100)
    ref_words, ref_kept = per_step_walk(half, view, [0.3], 1200, 32, 4, 1100)
    assert walk.retired_at is None
    assert np.array_equal(walk.words, ref_words)
    assert np.array_equal(walk.kept, ref_kept)
    assert np.all(ref_kept == ref_kept[0, -1])  # one float fixed point


@pytest.mark.parametrize("stride", [pathspace.RETIRE_STRIDE, 1])
def test_retirement_on_an_orbit_across_a_uniform_block_boundary(monkeypatch, stride):
    # from x = 1 every lambda63 walk runs the W-cycle 1 -> 16 -> 4 -> 1, whatever
    # its uniforms; with 2114 rows a uniform block is 31 steps, so at the
    # retirement test of step 64 the orbit z_61..z_63 straddles the block that
    # starts at step 62, and the walk stops two steps into that block
    monkeypatch.setattr(pathspace, "RETIRE_STRIDE", stride)
    found = _spy_periods(monkeypatch)
    sys_ = get_system("lambda63")
    weight, view, count = weight_from_digits(sys_.B), sys_.l_view, 2114
    assert UNIFORM_BLOCK // count == 31
    walk = _walk(weight, view, [1.0], 200, count, 6, 0)
    ref_words, ref_kept = per_step_walk(weight, view, [1.0], 200, count, 6, 0)
    assert np.array_equal(walk.words, ref_words)
    assert np.array_equal(walk.kept, ref_kept)
    assert walk.retired_at == (3 if stride == 1 else 64)
    assert np.all(found[0][1] == 3)
    assert set(ref_kept[:, :, 0].ravel()) == {1.0, 16.0, 4.0}


def test_retiring_walk_raises_what_the_walk_of_every_step_raises(monkeypatch):
    # cantor4's W_B scaled by 1 + 1e-6: row sums miss 1 by ~1e-6, so the first
    # uniform block (2048 steps) breaks QMF.  Every row retires inside that
    # block, and the walk raises the block's message and deviation
    w_b = weight_from_digits(get_system("cantor4").B)
    weight = Weight(w_b.c0 * (1 + 1e-6), w_b.a * (1 + 1e-6), w_b.f)
    view, x = get_system("cantor4").l_view, [0.3]
    found = _spy_periods(monkeypatch)
    with pytest.raises(pathspace.QmfError) as retiring:
        _walk(weight, view, x, 4500, 32, 11, 501)
    assert found and found[0][0] < UNIFORM_BLOCK // 32
    monkeypatch.setattr(pathspace, "RETIRE_STRIDE", 10 ** 9)  # no retirement test at all
    with pytest.raises(pathspace.QmfError) as every_step:
        _walk(weight, view, x, 4500, 32, 11, 501)
    assert str(retiring.value) == str(every_step.value)
    assert retiring.value.deviation == every_step.value.deviation > QMF_SAMPLING_TOL


def test_walks_from_far_starts_bit_identical_to_per_step_walk(monkeypatch):
    # the zero cut follows each row's state from |x| = 10^8 down to the
    # attractor: cantor4 retires in one segment, riesz3 splits and merges
    found = _spy_periods(monkeypatch)
    weight, view, _ = _walk_case("cantor4")
    walk = _walk(weight, view, [1e8 + 0.3], 4500, 32, 11, 501)
    ref_words, ref_kept = per_step_walk(weight, view, [1e8 + 0.3], 4500, 32, 11, 501)
    assert walk.retired_at is not None and found[0][0] == walk.retired_at
    assert np.array_equal(walk.words, ref_words)
    assert np.array_equal(walk.kept, ref_kept)
    results = _spy_split(monkeypatch)
    weight, view, _ = _walk_case("riesz3")
    words, kept = _walk(weight, view, [1e6], 20_000, 32, 12, 500)
    ref_words, ref_kept = per_step_walk(weight, view, [1e6], 20_000, 32, 12, 500)
    assert len(results) == 1 and results[0] is not None  # the heads merged
    assert np.array_equal(words, ref_words)
    assert np.array_equal(kept, ref_kept)


# --- the node table: a walk of many rows steps its distinct path-tree nodes

def walk_with_pass_sizes(weight, view, x, length, count, seed, keep_from):
    """`_walk` and the batch size of each of its branch passes in order: the
    node table's size (a table of one node runs as two rows), the row count
    once the walk steps rows, and the rows of each retirement test."""
    sizes = []

    def spy(w, z, view):
        sizes.append(len(z))
        return w
    with pytest.MonkeyPatch.context() as mp:
        patch_branch_pass(mp, spy)
        walk = _walk(weight, view, x, length, count, seed, keep_from)
    return walk, sizes


def assert_table_grows(sizes, count):
    """The node count never exceeds the row count and never falls."""
    assert sizes[0] == 2 and min(sizes) < count  # one node, padded: a node walk
    assert all(a <= b <= count for a, b in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("name,length", [("cantor4", 700), ("lambda63", 700),
                                         ("twindragon", 2300)])
def test_walk_that_may_retire_steps_rows_above_the_row_gate(name, length):
    # above the row gate but longer than RETIRE_STRIDE: the walk steps rows,
    # keeps its ring of row states, and stops with every row locked in a
    # W-cycle (at step 576 on cantor4 and lambda63, 2176 on twindragon)
    weight, view, x = _walk_case(name)
    count = 2 * NODE_ROWS
    ref_words, ref_kept = per_step_walk(weight, view, x, length, count, 17, length - 40)
    walk, sizes = walk_with_pass_sizes(weight, view, x, length, count, 17, length - 40)
    assert np.array_equal(walk.words, ref_words)
    assert np.array_equal(walk.kept, ref_kept)
    assert walk.retired_at is not None and walk.retired_at > pathspace.RETIRE_STRIDE
    assert set(sizes) == {count}


@pytest.mark.parametrize("name", ["twindragon", "planar-shear"])
def test_node_walk_on_a_w_cycle_keeps_one_node(name):
    # from a nonzero W-cycle point one branch survives the cut at every
    # step: the table stays at one node, weighed as two rows and moved as
    # one, and its words and states are those of the 6,000-row walk
    sys_ = get_system(name)
    weight, view = weight_from_digits(sys_.B), sys_.l_view
    points = [x for c in find_w_cycles(sys_, 4) for x in c.points_float if np.any(x)]
    assert points
    for x in points[:4]:
        ref_words, ref_kept = per_step_walk(weight, view, x, 64, 6000, 5, 0)
        walk, sizes = walk_with_pass_sizes(weight, view, x, 64, 6000, 5, 0)
        assert np.array_equal(walk.words, ref_words)
        assert np.array_equal(walk.kept, ref_kept)
        assert sizes == [2] * 64


@pytest.mark.parametrize("x,switches", [
    ([0.3, 0.2], True),  # more than half the rows are nodes after 20 steps
    ([-0.251111, -1.976175], True),  # a bench start: after 21 steps
    ([0.15, 0.05], False),  # 2,931 nodes at the end, just below half
    ([1.059566, -1.119308], False),  # a sparse bench start: 592 nodes at the end
])
def test_planar_shear_node_walk_switches_to_rows(x, switches):
    # the table grows with the walk, and the walk steps rows for good once
    # the table holds more than NODE_SHARE of them
    weight, view, _ = _walk_case("planar-shear")
    ref_words, ref_kept = per_step_walk(weight, view, x, 64, 6000, 41, 56)
    walk, sizes = walk_with_pass_sizes(weight, view, x, 64, 6000, 41, 56)
    assert np.array_equal(walk.words, ref_words)
    assert np.array_equal(walk.kept, ref_kept)
    assert len(sizes) == 64
    assert_table_grows(sizes, 6000)
    nodes = [s for s in sizes if s < 6000]
    assert max(nodes) <= NODE_SHARE * 6000
    assert (len(nodes) < 64) == switches


@pytest.mark.parametrize("start", [3, 9, 30])
def test_qmf_break_in_a_node_walk_raises_the_per_step_message(monkeypatch, start):
    # W = 1/2 on cantor4 doubles the table each step: a break on 8 nodes, on
    # 512, and after the switch to rows at step 11
    monkeypatch.setattr(pathspace, "_segment_count", lambda *args: 1)
    count, length, changes = 4 * NODE_ROWS, 40, {start: 0.5 * (1.0 + 1e-6)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _qmf_outcome(monkeypatch, _walk, changes, count, length)
        ref = _qmf_outcome(monkeypatch, per_step_walk, changes, count, start + 1)
    assert ref is not None and got == ref


@pytest.mark.parametrize("name", ["twindragon", "planar-shear", "riesz3"])
def test_a_lone_state_is_weighed_as_in_a_batch(name):
    # numpy rounds a one-row product otherwise than a batch; the cut pass
    # weighs a lone state as two rows, and its weights are the batch's bits
    weight, view, _ = _walk_case(name)
    lo, hi = view.box()
    z = np.random.default_rng(0).uniform(lo, hi, size=(2048, view.d))
    batch = _cut_pass(weight, view)(z).copy()
    lone = _cut_pass(weight, view)
    alone = np.concatenate([lone(z[i:i + 1]).copy() for i in range(len(z))], axis=1)
    assert alone.shape == batch.shape
    assert np.count_nonzero(alone != batch) == 0
    # the move of a lone state is not padded: it rounds as the batch's move
    inv_t = view.inv.T
    moved = np.concatenate([np.matmul(z[i:i + 1], inv_t) for i in range(len(z))])
    assert np.count_nonzero(moved != np.matmul(z, inv_t)) == 0


@pytest.mark.parametrize("name", ["twindragon", "planar-shear", "riesz3"])
def test_a_one_row_walk_reads_the_weights_of_a_batch(monkeypatch, name):
    # the walk of every step with each lone state weighed in a batch of two
    weight, view, x = _walk_case(name)
    words, kept = _walk(weight, view, x, 300, 1, 13, 0)
    batch_weights = _branch_weights
    monkeypatch.setitem(globals(), "_branch_weights", lambda weight, view, z: batch_weights(
        weight, view, np.repeat(z, 2, axis=0))[:, :1])
    ref_words, ref_kept = per_step_walk(weight, view, x, 300, 1, 13, 0)
    assert np.array_equal(words, ref_words)
    assert np.array_equal(kept, ref_kept)


def test_estimate_h_with_cycles_longer_than_the_paths(twindragon):
    # periods up to 8 on paths of 4 steps: a cycle of period p > length is
    # read at z_0 = x, the others at the largest multiple of p <= length
    cycles = find_w_cycles(twindragon, 8)
    assert max(c.period for c in cycles) == 8
    weight, view = weight_from_digits(twindragon.B), twindragon.l_view
    est = estimate_h(weight, view, [0.2, 0.1], cycles, 4, 100, seed=5)
    assert est.total + est.unclassified == pytest.approx(1.0, abs=1e-12)
    # from a point of a period-8 cycle every path follows the cycle (W = 1 on
    # it), so the start is that cycle's, and z_4 is no other cycle's point
    c8 = next(c for c in cycles if c.period == 8)
    est = estimate_h(weight, view, c8.points_float[0], cycles, 4, 50, seed=5)
    assert est.probabilities[cycles.index(c8)] == 1.0
