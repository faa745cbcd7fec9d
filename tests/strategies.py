"""Builders of Hadamard triples with known answers, shared by the tests."""

import itertools
from fractions import Fraction

from ifsfourier import AffineSystem


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
