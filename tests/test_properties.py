"""Invariants over generated Hadamard triples, not only the registry ones.

d = 1 generator: R = N m, B = m {j + N k_j}, L = {j + N k'_j} for
j = 0..N-1 with k_0 = k'_0 = 0.  Then R^{-1} b l = j j' / N mod 1, so
the duality matrix is the N-point DFT matrix and the triple is Hadamard.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsfourier import (
    AffineSystem,
    check_duality,
    check_qmf,
    find_w_cycles,
    generate_lambda,
    get_system,
    mat_inverse,
    mu_hat_batch,
    mu_hat_detail,
    power_system,
    rational_matrix,
    weight_from_digits,
)
from ifsfourier import pathspace
from ifsfourier.measure import _branch_weights, _float_terms, _tail_depth, _truncated_products
from ifsfourier.spectrum import _closure, lattice_basin_labels
from strategies import conjugate_triple, product_triple
from test_cycles import (
    assert_cycles_match_reference,
    assert_w_verdicts_match_fraction_reference,
    word_sum,
)
from test_measure import (
    assert_batch_matches_complex_reference,
    assert_batch_matches_stepping_reference,
    assert_closed_form_tail_within_eps,
    assert_near_direct_pass,
    assert_scan_matches_loop,
    assert_tail_moves_the_product_by_eps,
    at_images,
    direct_branch_pass,
    reference_tails,
)
from test_pathspace import (
    assert_batch_is_per_cycle,
    assert_closed_forms_match_reference,
    assert_table_grows,
    assert_zeros_cut,
    exponential_branch_weights,
    per_step_walk,
    states_onto_zeros,
    walk_with_pass_sizes,
)
from test_spectrum import (
    assert_closure_labels_match_the_stepper,
    assert_k_points_match_reference,
    assert_lambda_is_rotation_k_points,
    lattice_scale_of,
    rotation_k_points,
    stepper_basin_labels,
)

MAX_WORDS = 125  # words per enumeration, to keep exact arithmetic quick


@st.composite
def hadamard_triples_1d(draw, n_digits=st.integers(2, 5), scale=st.integers(1, 4)):
    n = draw(n_digits)
    m = draw(scale)
    shifts = st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1)
    k = [0] + draw(shifts)
    k_dual = [0] + draw(shifts)
    return AffineSystem.create([[n * m]], [[m * (j + n * k[j])] for j in range(n)],
                               [[j + n * k_dual[j]] for j in range(n)])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d(), seed=st.integers(0, 2 ** 16))
def test_factored_kernel_and_qmf_on_generated_triples(sys_, seed):
    # W_B on the L-view and, by the symmetry of the duality, W_L on the
    # B-view: the cosine kernel against the weight called at the branch
    # images and against the complex exponential kernel it replaced, then QMF
    for view, digits in ((sys_.l_view, sys_.B), (sys_.b_view, sys_.L)):
        weight = weight_from_digits(digits)
        lo, hi = view.box()
        z = np.random.default_rng(seed).uniform(lo, hi, size=(200, 1))
        fast = _branch_weights(weight, view, z)
        ref = at_images(weight, view, z)
        assert fast.shape == (sys_.N, 200) and fast.flags.c_contiguous
        assert np.max(np.abs(fast - ref)) < 1e-12
        assert np.max(np.abs(fast - exponential_branch_weights(digits, view, z)[1])) < 1e-12
        assert np.max(np.abs(fast.sum(axis=0) - 1.0)) < 1e-12
        assert check_qmf(weight, view, n_probe=500, seed=seed) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d(), seed=st.integers(0, 2 ** 16),
       n_samples=st.integers(1, 600), n_streams=st.integers(1, 3))
def test_chaos_game_scan_matches_loop_on_generated_triples(sys_, seed, n_samples, n_streams):
    assert_scan_matches_loop(sys_.b_view, n_samples, seed, n_streams=n_streams)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d())
def test_w_verdicts_match_fraction_reference_on_generated_triples(sys_):
    # 0 is a W-cycle of every generated triple, so some cycle is one
    p_max = max(p for p in range(1, 8) if sys_.N ** p <= MAX_WORDS)
    assert assert_w_verdicts_match_fraction_reference(sys_, p_max)[0] >= 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d())
def test_expansion_paths_agree_on_generated_triples(sys_):
    # the closure, the k-points, the cycle table and the power systems all
    # expand x -> M x + d; each must match its per-word definition
    p_max = max(p for p in range(1, 8) if sys_.N ** p <= MAX_WORDS)
    assert_cycles_match_reference(sys_, p_max)
    cycles = find_w_cycles(sys_, 2)
    assert_k_points_match_reference(sys_, cycles, MAX_WORDS)
    assert assert_lambda_is_rotation_k_points(sys_, cycles, MAX_WORDS)[:2] == [0, 1]
    for cyc in cycles:
        for n in range(4):
            if sys_.N ** n * cyc.period <= MAX_WORDS:
                assert _closure(sys_, cyc.points, n).elements == rotation_k_points(sys_, [cyc], n)
    for p in (2, 3):
        if sys_.N ** p <= MAX_WORDS:
            power = power_system(sys_, p)
            words = list(itertools.product(range(sys_.N), repeat=p))
            assert list(power.B_exact) == [word_sum(sys_.R_exact, sys_.B_exact, w) for w in words]
            assert list(power.L_exact) == [word_sum(sys_.S_exact, sys_.L_exact, w) for w in words]
            assert check_duality(power).passes


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d(), x=st.floats(-3.0, 3.0))
def test_closed_forms_match_reference_on_generated_triples(sys_, x):
    # h_C sums |mu_hat|^2 over the k-points of every rotation of C
    depth = max(d for d in range(1, 8) if sys_.N ** d <= MAX_WORDS)
    p_max = max(p for p in range(1, 4) if sys_.N ** p <= MAX_WORDS)
    assert_closed_forms_match_reference(sys_, [[x]], find_w_cycles(sys_, p_max),
                                        range(1, depth + 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d(), seed=st.integers(0, 2 ** 16))
def test_batch_zero_flags_match_exact_zeros_on_generated_triples(sys_, seed):
    # at rational t the float batch flags a row zero exactly when the exact
    # evaluation finds a vanishing factor.  |t| <= 2 keeps every float phase
    # |b.t_k| below 6, so its rounding stays far under the exact-zero cutoff;
    # for large phases (R = 20, b = 56, t = -131: phase 367) the float batch
    # can miss an exact zero, which is what the exact path is for.  Integers
    # t not divisible by N supply level-1 zeros.
    rng = np.random.default_rng(seed)
    ts = [(Fraction(m),) for m in range(-2, 3)]
    ts += [(Fraction(int(rng.integers(-2 * q, 2 * q + 1)), q),)
           for q in map(int, rng.choice([2, 3, sys_.N, int(sys_.R[0, 0])], size=30))]
    exact = [mu_hat_detail(sys_, t).exact_zero for t in ts]
    batch = mu_hat_batch(sys_, np.array(ts, dtype=float))
    assert list(batch == 0) == exact
    assert any(exact)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d(st.just(2)), seed=st.integers(0, 2 ** 16))
def test_batch_matches_complex_reference_on_generated_two_digit_triples(sys_, seed):
    # the N = 2 cosine form against the complex product, at float t and at
    # rational t of denominators 2, 4 and R, up to |t| = 57
    rng = np.random.default_rng(seed)
    r = int(sys_.R[0, 0])
    assert_batch_matches_complex_reference(sys_, rng.uniform(-57, 57, (300, 1)))
    for q in (2, 4, r):
        assert_batch_matches_complex_reference(sys_, rng.integers(-57 * q, 57 * q + 1, (300, 1)) / q)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.tuples(hadamard_triples_1d(), hadamard_triples_1d()),
       form=st.sampled_from(["triple", "product", "shear", "cat"]),
       seed=st.integers(0, 2 ** 16))
def test_batch_tail_matches_complex_reference_on_generated_triples(pair, form, seed):
    # the closed-form tail on every N, on a triple, a product of two (d = 2)
    # or such a product conjugated by U in GL(2, Z): within the bound of the
    # complex product, within the tail's eps of the per-level product with
    # its zero flags, and the closed form within eps of the factors it
    # replaces, at float t and on the quarter lattice, up to |t| = 57
    sys_ = pair[0] if form == "triple" else product_triple(*pair)
    if form in ("shear", "cat"):
        sys_ = conjugate_triple(sys_, [[1, 1], [0, 1]] if form == "shear" else [[2, 1], [1, 1]])
    rng = np.random.default_rng(seed)
    for ts in (rng.uniform(-57, 57, (300, sys_.d)), rng.integers(-228, 229, (300, sys_.d)) / 4):
        assert_batch_matches_complex_reference(sys_, ts)
        assert_tail_moves_the_product_by_eps(sys_, ts)
        assert_closed_form_tail_within_eps(sys_, ts)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.tuples(hadamard_triples_1d(), hadamard_triples_1d()),
       form=st.sampled_from(["triple", "product", "shear", "cat"]),
       seed=st.integers(0, 2 ** 16))
def test_batch_matches_stepping_reference_on_generated_triples(pair, form, seed):
    # the product along cached phase directions against the product that
    # steps t_k, on digit sets symmetric about their mean (every N = 2 set,
    # B = m {0, .., N - 1}) and asymmetric ones (the complex mean), on a
    # triple, a product of two or such a product conjugated by U in GL(2, Z),
    # at float t and on the quarter lattice, up to |t| = 57
    sys_ = pair[0] if form == "triple" else product_triple(*pair)
    if form in ("shear", "cat"):
        sys_ = conjugate_triple(sys_, [[1, 1], [0, 1]] if form == "shear" else [[2, 1], [1, 1]])
    rng = np.random.default_rng(seed)
    for ts in (rng.uniform(-57, 57, (300, sys_.d)), rng.integers(-228, 229, (300, sys_.d)) / 4):
        assert_batch_matches_stepping_reference(sys_, ts)


LEBESGUE_TRIPLES = hadamard_triples_1d(scale=st.just(1))  # R = N: Lebesgue measure


def assert_closure_labels_on_lebesgue_triple(sys_) -> bool:
    """The closure's labels against the stepper's on a window of about 60
    points a side (d = 1) or 13 (d = 2), with the W-cycles up to the period
    whose words stay within MAX_WORDS; whether labels compared."""
    p_max = max(p for p in range(1, 4) if sys_.N ** p <= MAX_WORDS)
    cycles = find_w_cycles(sys_, p_max)
    q = lattice_scale_of(cycles)
    radius = (30.0 if sys_.d == 1 else 6.0) / q
    labelled = assert_closure_labels_match_the_stepper(sys_, cycles, radius, q)
    if labelled:
        assert (stepper_basin_labels(sys_, cycles, radius, q)[1] >= 0).any()
    return labelled


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=LEBESGUE_TRIPLES)
def test_closure_labels_match_the_stepper_on_generated_triples(sys_):
    # N = R on a triple with m = 1: the backward closure labels each window
    # point as the forward stepper does, unlisted cycles (-1) included
    assert assert_closure_labels_on_lebesgue_triple(sys_)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pair=st.tuples(hadamard_triples_1d(st.integers(2, 3), st.just(1)),
                      hadamard_triples_1d(st.integers(2, 3), st.just(1))))
def test_closure_labels_match_the_stepper_on_generated_product_triples(pair):
    # N = |det R| on a product of two such triples.  One whose cycle points
    # need a q that merges the digits of a factor has no lattice to label:
    # the stepper raises LatticeError, and so does the closure
    assert_closure_labels_on_lebesgue_triple(product_triple(*pair))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.tuples(hadamard_triples_1d(), hadamard_triples_1d()), product=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_float_points_are_exact_on_generated_triples(pair, product, seed):
    # a point is exact: mu_hat_detail of a float t, uniform up to |t| = 10^3
    # or integer-valued, is bit for bit that of its Fractions.  t = 1 is a
    # level-1 zero of every generated triple (N does not divide 1)
    sys_ = product_triple(*pair) if product else pair[0]
    rng = np.random.default_rng(seed)
    ts = np.concatenate([rng.uniform(-1e3, 1e3, (5, sys_.d)),
                         rng.integers(-1000, 1001, (5, sys_.d)).astype(float),
                         np.ones((1, sys_.d))])
    for t in ts:
        assert repr(mu_hat_detail(sys_, t)) == repr(mu_hat_detail(sys_, tuple(map(Fraction, t))))
    assert mu_hat_detail(sys_, ts[-1]).zero_level == 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=st.tuples(hadamard_triples_1d(), hadamard_triples_1d()), product=st.booleans(),
       seed=st.integers(0, 2 ** 16), tail_tol=st.sampled_from([1e-3, 1e-6, 1e-10]))
def test_truncation_depth_bounds_the_tail_on_generated_triples(pair, product, seed, tail_tol):
    # the factors past the depth K move the product by at most
    # sum_{k>K} |1 - m_B(t_k) / sqrt(N)| <= 2 pi max|b| |t| T_K < tail_tol: against
    # the product 50 factors deeper, on a triple or a product of two (d = 2)
    sys_ = product_triple(*pair) if product else pair[0]
    ts = np.random.default_rng(seed).uniform(-50, 50, (200, sys_.d))
    norm = np.linalg.norm(ts, axis=1).max()
    depth = _tail_depth(sys_, norm, tail_tol)
    deeper = _truncated_products(np.full(len(ts), depth + 50), *_float_terms(sys_, ts))[0]
    reach = 2 * np.pi * np.linalg.norm(sys_.B, axis=1).max() * norm * reference_tails(sys_)[0]
    rounding = 4 * np.finfo(float).eps * (depth + 50 + reach)
    assert np.max(np.abs(mu_hat_batch(sys_, ts, tail_tol) - deeper)) <= tail_tol + rounding


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pair=st.tuples(hadamard_triples_1d(), hadamard_triples_1d()), x=st.floats(-3.0, 3.0),
       y=st.floats(-3.0, 3.0))
def test_batched_closed_forms_are_the_per_cycle_calls_on_generated_product_triples(pair, x, y):
    # d = 2: every cycle's sum in the batch is its own call's, bit for bit
    # (the 1-d triples check this in assert_closed_forms_match_reference)
    sys_ = product_triple(*pair)
    p_max = max(p for p in range(1, 4) if sys_.N ** p <= MAX_WORDS)
    depth = max(d for d in range(1, 5) if sys_.N ** d <= MAX_WORDS)
    assert_batch_is_per_cycle(sys_, [[x, y]], find_w_cycles(sys_, p_max), range(1, depth + 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d(), seed=st.integers(0, 2 ** 16))
def test_zeros_of_w_b_are_cut_on_generated_triples(sys_, seed):
    # B = m {j + N k_j} and R = N m: m_B vanishes where m x = r / N, N not | r
    n, m = sys_.N, int(sys_.R[0, 0]) // sys_.N
    z, l = states_onto_zeros(sys_.l_view, [((m,), n, list(range(1, n)))], 2000, seed)
    assert_zeros_cut(weight_from_digits(sys_.B), sys_.l_view, z, l)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d(), seed=st.integers(0, 2 ** 16))
def test_retiring_walk_matches_per_step_walk_on_generated_triples(sys_, seed):
    # W_B walks on the L-view from a point of the box: words and states as
    # the walk of every step, with the retirement test at its stride and at
    # every step.  Each walk here retires (at step 64 to 1088 by the stride:
    # the states reach a float W-cycle, or underflow to 0 at scale 2)
    weight, view = weight_from_digits(sys_.B), sys_.l_view
    lo, hi = view.box()
    x = np.random.default_rng(seed).uniform(lo, hi)
    ref_words, ref_kept = per_step_walk(weight, view, x, 1200, 32, seed, 0)
    for stride in (pathspace.RETIRE_STRIDE, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pathspace, "RETIRE_STRIDE", stride)
            walk = pathspace._walk(weight, view, x, 1200, 32, seed, 0)
        assert np.array_equal(walk.words, ref_words)
        assert np.array_equal(walk.kept, ref_kept)
        assert walk.retired_at is not None


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(sys_=st.one_of(hadamard_triples_1d(),
                      st.tuples(hadamard_triples_1d(st.just(2)), hadamard_triples_1d(st.just(2)))
                      .map(lambda pair: product_triple(*pair))),
       seed=st.integers(0, 2 ** 16))
def test_node_walk_matches_per_step_walk_on_generated_triples(sys_, seed):
    # W_B walks of 6,000 rows step the table of their distinct nodes (or
    # switch to rows when it fills): words and states as the walk of every row
    weight, view = weight_from_digits(sys_.B), sys_.l_view
    lo, hi = view.box()
    x = np.random.default_rng(seed).uniform(lo, hi)
    ref_words, ref_kept = per_step_walk(weight, view, x, 25, 6000, seed, 0)
    walk, sizes = walk_with_pass_sizes(weight, view, x, 25, 6000, seed, 0)
    assert np.array_equal(walk.words, ref_words)
    assert np.array_equal(walk.kept, ref_kept)
    assert_table_grows(sizes, 6000)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(pair=st.tuples(hadamard_triples_1d(st.just(2)), hadamard_triples_1d(st.just(2))),
       seed=st.integers(0, 2 ** 16))
def test_angle_addition_pass_on_generated_product_triples(pair, seed):
    # N = 4 in the plane: W_B has the frequencies (d1, 0) and (0, d2), direct,
    # and (d1, +-d2), derived.  The branch weights stay within the rounding
    # bound of the direct pass: 8 eps does not hold here, as the phases reach
    # a few turns (up to 13 eps for W_B on the L-view at box states in 400
    # such triples).  The walks' words and states are the direct pass's walk's
    sys_ = product_triple(*pair)
    rng = np.random.default_rng(seed)
    for view, digits in ((sys_.l_view, sys_.B), (sys_.b_view, sys_.L)):
        weight = weight_from_digits(digits)
        plan = view.cosine_factors(weight.a, weight.f)[1]
        assert plan.shape == (4, 2) and np.count_nonzero(plan) == 6
        lo, hi = view.box()
        assert_near_direct_pass(weight, view, rng.uniform(lo, hi, size=(1000, 2)))
    weight, view = weight_from_digits(sys_.B), sys_.l_view
    x = rng.uniform(*view.box())
    for count, length in ((2000, 64), (32, 1000)):
        walk = pathspace._walk(weight, view, x, length, count, seed, 0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pathspace, "_branch_pass", direct_branch_pass)
            ref = pathspace._walk(weight, view, x, length, count, seed, 0)
        assert np.array_equal(walk.words, ref.words)
        assert np.array_equal(walk.kept, ref.kept)


@pytest.mark.parametrize("u", [[[1, 1], [0, 1]], [[2, 1], [1, 1]]], ids=["shear", "cat"])
@pytest.mark.parametrize("name,p_max,radius,q", [("twindragon", 8, 6.0, 5),
                                                 ("planar-shear", 4, 10.0, 1)])
def test_conjugation_by_gl2z_maps_mu_hat_cycles_and_basins(name, p_max, radius, q, u):
    # the triple moved by x -> U x (Łaba-Wang, JFA 2002): a Hadamard triple
    # again, mu_hat'(t) = mu_hat(U^T t), W-cycles mapped by U^-T, Lambda
    # mapped as its seeds are (S' = U^-T S U^T, L' = U^-T L), and the basin
    # of each mapped cycle the mapped basin
    sys = get_system(name)
    conj = conjugate_triple(sys, u)
    assert check_duality(conj).passes
    t = 3 * np.random.default_rng(27).standard_normal((200, 2))
    assert np.max(np.abs(mu_hat_batch(conj, t) - mu_hat_batch(sys, t @ np.array(u)))) <= 1e-12
    u_inv_t = mat_inverse(rational_matrix(u)).T
    cycles, conj_cycles = find_w_cycles(sys, p_max), find_w_cycles(conj, p_max)
    conj_sets = [frozenset(c.points) for c in conj_cycles]
    perm = [conj_sets.index(frozenset(tuple(u_inv_t @ np.array(p, dtype=object))
                                      for p in c.points)) for c in cycles]
    assert sorted(perm) == list(range(len(conj_cycles)))
    for levels in range(5):
        spec = generate_lambda(sys, cycles, levels)
        conj_spec = generate_lambda(conj, conj_cycles, levels)
        assert not spec.cap_hit and spec.level == conj_spec.level == levels
        assert conj_spec.elements == {tuple(u_inv_t @ np.array(e, dtype=object))
                                      for e in spec.elements}
    pts, labels = lattice_basin_labels(sys, cycles, radius, q)
    conj_pts, conj_labels = lattice_basin_labels(conj, conj_cycles, radius, q)
    m = int(np.floor(radius * q))
    images = pts @ u_inv_t.astype(np.int64).T
    inside = np.all(np.abs(images) <= m, axis=1)
    at = (images[inside] + m) @ (2 * m + 1) ** np.arange(1, -1, -1)
    assert np.array_equal(conj_pts[at], images[inside])
    assert np.array_equal(conj_labels[at], np.append(perm, -1)[labels[inside]])
    assert inside.mean() > 0.3 and min(labels) >= 0
