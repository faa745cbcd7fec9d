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
    k_point,
    k_points_of_depth,
    mu_hat_batch,
    mu_hat_detail,
    power_system,
    weight_from_digits,
)
from ifsfourier import pathspace
from ifsfourier.measure import _branch_weights, _float_terms, _tail_depth, _truncated_products
from strategies import product_triple
from test_cycles import (
    assert_cycles_match_reference,
    assert_w_verdicts_match_fraction_reference,
    word_sum,
)
from test_measure import (
    assert_batch_matches_complex_reference,
    assert_near_direct_pass,
    assert_scan_matches_loop,
    at_images,
    direct_branch_pass,
    reference_tails,
)
from test_pathspace import (
    assert_zeros_cut,
    exponential_branch_weights,
    per_step_walk,
    states_onto_zeros,
)
from test_spectrum import assert_k_points_match_reference, assert_lambda_is_rotation_k_points

MAX_WORDS = 125  # words per enumeration, to keep exact arithmetic quick


@st.composite
def hadamard_triples_1d(draw, n_digits=st.integers(2, 5)):
    n = draw(n_digits)
    m = draw(st.integers(1, 4))
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
       n_samples=st.integers(1, 600), n_streams=st.integers(1, 3),
       x0=st.one_of(st.none(), st.floats(-50.0, 50.0)))
def test_chaos_game_scan_matches_loop_on_generated_triples(sys_, seed, n_samples,
                                                           n_streams, x0):
    assert_scan_matches_loop(sys_.b_view, n_samples, seed,
                             x0=None if x0 is None else [x0], n_streams=n_streams)


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
        for depth in range(3):
            n = depth * cyc.period
            if sys_.N ** n <= MAX_WORDS:
                words = itertools.product(range(sys_.N), repeat=n)
                assert k_points_of_depth(sys_, cyc, depth) == {k_point(sys_, cyc, w)
                                                               for w in words}
    for p in (2, 3):
        if sys_.N ** p <= MAX_WORDS:
            power = power_system(sys_, p)
            words = list(itertools.product(range(sys_.N), repeat=p))
            assert list(power.B_exact) == [word_sum(sys_.R_exact, sys_.B_exact, w) for w in words]
            assert list(power.L_exact) == [word_sum(sys_.S_exact, sys_.L_exact, w) for w in words]
            assert check_duality(power).passes


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
    deeper = _truncated_products(np.full(len(ts), depth + 50), _float_terms(sys_, ts), False)[0]
    reach = 2 * np.pi * np.linalg.norm(sys_.B, axis=1).max() * norm * reference_tails(sys_)[0]
    rounding = 4 * np.finfo(float).eps * (depth + 50 + reach)
    assert np.max(np.abs(mu_hat_batch(sys_, ts, tail_tol) - deeper)) <= tail_tol + rounding


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
