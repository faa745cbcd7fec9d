"""Invariants over generated Hadamard triples, not only the registry ones.

d = 1 generator: R = N m, B = m {j + N k_j}, L = {j + N k'_j} for
j = 0..N-1 with k_0 = k'_0 = 0.  Then R^{-1} b l = j j' / N mod 1, so
the duality matrix is the N-point DFT matrix and the triple is Hadamard.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ifsfourier import AffineSystem, check_qmf, weight_from_digits
from ifsfourier.measure import _branch_weights
from test_measure import assert_scan_matches_loop


@st.composite
def hadamard_triples_1d(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    shifts = st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1)
    k = [0] + draw(shifts)
    k_dual = [0] + draw(shifts)
    return AffineSystem.create([[n * m]], [[m * (j + n * k[j])] for j in range(n)],
                               [[j + n * k_dual[j]] for j in range(n)])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sys_=hadamard_triples_1d(), seed=st.integers(0, 2 ** 16))
def test_factored_kernel_and_qmf_on_generated_triples(sys_, seed):
    view = sys_.l_view
    weight = weight_from_digits(sys_.B)
    lo, hi = view.box()
    z = np.random.default_rng(seed).uniform(lo, hi, size=(200, 1))
    _, fast = _branch_weights(weight, view, z)
    _, ref = _branch_weights(replace(weight, digits=None), view, z)
    assert np.max(np.abs(fast - ref)) < 1e-12
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
