#!/usr/bin/env python3
"""The scale-3 circle weight and its Riesz-product stationary measure.

W(e^{it}) = (2/3) cos^2 t is QMF-normalized for the cube map, and the
stationary law of the weighted branch walk is the singular Riesz product
with density limit prod_k (1 + cos(2*3^k t)) / 2pi.  The chain's
empirical Fourier coefficients match the product expansion: nu_hat
vanishes off the balanced-ternary frequencies and equals 1/2 at 6.
"""

import numpy as np

from ifsfourier import EXAMPLES, check_qmf
from ifsfourier.invariant import (
    concentration_curve,
    fourier_coefficient,
    riesz_chain,
    riesz_partial_density,
)

# the registry entry holds the walk: x = t / 2 pi on x -> (x + j)/3,
# with W = 1/3 + (1/3) cos(4 pi x)
riesz = EXAMPLES["riesz3"]
print("branch normalization deviation:",
      check_qmf(riesz.weight, riesz.view, n_probe=10_000, seed=0))

m = 3 ** 9
t = np.arange(m) * (2 * np.pi / m)
print("partial densities integrate to 1:",
      [float(np.round(riesz_partial_density(t, k).mean() * 2 * np.pi, 12)) for k in (2, 5, 8)])

chain = riesz_chain(1_000_000, seed=3)
print("\nchain of %d states; empirical Fourier coefficients:" % chain.n)
for freq in (1, 2, 3, 6, 18, 24):
    v, s = fourier_coefficient(chain, freq, angular=True)
    print("  nu_hat(%2d) = %+ .5f%+.5fi  (+- %.5f)" % (freq, v.real, v.imag, s))
print("  balanced-ternary frequencies 2 = 2*3^0, 6 = 2*3, 18 = 2*3^2 carry 1/2,")
print("  24 = 2*3^2 + 2*3 carries 1/4, everything else vanishes: the stationary")
print("  density is the product over k >= 0 (the invariance equation")
print("  rho(u) = 3 W(u) rho(3u) forces the k = 0 factor to be present).")

curve = concentration_curve(chain.states, n_bins=512)
half = curve[np.searchsorted(curve[:, 1], 0.5)]
print("\nmass concentration: half the mass sits in the top %.1f%% of bins"
      % (100 * half[0]))
print("(a qualitative singularity indicator; the uniform measure would need 50%)")
