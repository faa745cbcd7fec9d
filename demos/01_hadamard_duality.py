#!/usr/bin/env python3
"""Walk through the Hadamard-duality verification of the built-in systems.

A triple (B, L, R) is in duality when R is expansive, the rescaled pair
(R^{-1}B, L) exponentiates to a unitary matrix, and R^n b . l stays
integral.  The scale-3 entry is kept as the deliberate failure: it is
the classic system with no orthogonal Fourier basis.
"""

import numpy as np

from ifsfourier import check_duality, check_pair, get_system
from ifsfourier.hadamard import build_matrix

for name in ("cantor4", "lambda15", "lambda63", "planar-shear", "twindragon", "cantor3"):
    sys = get_system(name)
    rep = check_duality(sys)
    print(
        "%-13s d=%d N=%d  passes=%-5s  unitarity dev %.2e  integrality %s"
        % (name, sys.d, sys.N, rep.passes, rep.unitarity.max_deviation,
           rep.integrality_mode)
    )
    if not rep.passes:
        print("              failed checks: %s" % (rep.failures,))

print()
print("The planar-shear matrix is the 4x4 family member at u = i:")
ps = get_system("planar-shear")
u = build_matrix(ps.B @ np.linalg.inv(ps.R).T, ps.L)
with np.printoptions(precision=2, suppress=True):
    print(2 * u)  # scaled so entries are exactly +-1, +-i

print()
print("Tensor products build bigger Hadamard matrices from small ones:")
f2 = build_matrix([[0], [0.5]], [[0], [1]])
f4 = np.kron(f2, f2)
print("4x4 tensor square is unitary:", check_pair([[0], [0.5]], [[0], [1]]).passes,
      "->", np.allclose(f4.conj().T @ f4, np.eye(4)))
