#!/usr/bin/env python3
"""Enumerate W-cycles exactly and generate the candidate spectra.

Cycle points come from exact rational solves of (S^p - I) x = sum S^j l_j;
a cycle is a W-cycle when the transfer weight equals 1 at every orbit
point.  The spectrum is the closure of the negated cycle points under
x -> S x + l; for the quarter Cantor system that reproduces the familiar
0, 1, 4, 5, 16, 17, 20, 21, 64, 65, ... of base-4 digit-{0,1} numbers.
"""

from ifsfourier import (
    find_w_cycles,
    frac_str,
    generate_lambda,
    get_system,
    verify_orthogonality,
    completeness_sum,
)

for name, p_max in (("cantor4", 6), ("lambda15", 6), ("lambda63", 3), ("twindragon", 8)):
    sys = get_system(name)
    cycles = find_w_cycles(sys, p_max)
    print("%s (p <= %d): %d W-cycles" % (name, p_max, len(cycles)))
    for c in cycles:
        print("   period %d  word %s  points %s"
              % (c.period, "".join(map(str, c.word)), [frac_str(p) for p in c.points]))

print()
c4 = get_system("cantor4")
cycles = find_w_cycles(c4, 6)
spec = generate_lambda(c4, cycles, 5)
print("cantor4 spectrum, smallest 12:", [int(v) for v in spec.smallest_nonnegative_1d(12)])

window = spec.smallest(40)
gram = verify_orthogonality(c4, window)
print("40-element window: max off-diagonal Gram entry = %.2e" % gram.max_offdiag)
for levels in (4, 6, 8):
    s = generate_lambda(c4, cycles, levels)
    print("completeness at x=0.3, levels %d: %.8f"
          % (levels, completeness_sum(c4, s.smallest(), [0.3])))
