"""Builders of Hadamard triples with known answers, shared by the tests."""

import itertools
from fractions import Fraction

import numpy as np

from ifsfourier import AffineSystem, mat_inverse, rational_matrix


def product_triple(s1, s2) -> AffineSystem:
    """(R1 + R2, B1 x B2, L1 x L2): block-diagonal R, product digit sets."""
    d1, d2 = s1.d, s2.d
    r = [[Fraction(0)] * (d1 + d2) for _ in range(d1 + d2)]
    for i, j in itertools.product(range(d1), repeat=2):
        r[i][j] = s1.R_exact[i, j]
    for i, j in itertools.product(range(d2), repeat=2):
        r[d1 + i][d1 + j] = s2.R_exact[i, j]
    b = [u + v for u, v in itertools.product(s1.B_exact, s2.B_exact)]
    l_ = [u + v for u, v in itertools.product(s1.L_exact, s2.L_exact)]
    return AffineSystem.create(r, b, l_, name="%s x %s" % (s1.name, s2.name))


def conjugate_triple(sys, u) -> AffineSystem:
    """(U R U^-1, U B, U^-T L) for an integer U with det U = +-1: the triple
    moved by x -> U x.  Its measure is U_* mu_B, so mu_hat'(t) = mu_hat(U^T t),
    and its L-view maps are tau'_l = U^-T tau_l U^T, so its cycles are those
    of sys mapped by U^-T, with the same words."""
    u = rational_matrix(u)
    u_inv = mat_inverse(u)
    b = [tuple(u @ np.array(v, dtype=object)) for v in sys.B_exact]
    l_ = [tuple(u_inv.T @ np.array(v, dtype=object)) for v in sys.L_exact]
    return AffineSystem.create((u @ sys.R_exact @ u_inv).tolist(), b, l_,
                               unitarity_tol=sys.unitarity_tol, tail_tol=sys.tail_tol,
                               name="U %s U^-1" % sys.name)
