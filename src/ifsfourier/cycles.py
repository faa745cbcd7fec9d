"""Exact cycle enumeration for IFS(L) and W-cycle classification.

A length-p word (l_0, ..., l_{p-1}) over the L digits determines the
composition tau_{l_{p-1}} o ... o tau_{l_0} (tau_{l_0} applied first),
whose unique fixed point is

    x_w = (S^p - I)^{-1} (l_0 + S l_1 + ... + S^{p-1} l_{p-1}),

computed exactly over the rationals.  The right-hand side is p steps of
the affine recurrence x -> S x + l from 0, whose one home is
`IfsView.expand`: `enumerate_cycles` keeps every length-p sum as one
table of integer numerators over one denominator (row = the word's
lexicographic rank r = sum_j w_j N^{p-1-j}), and one product with the
numerators of (S^p - I)^{-1} gives the fixed points of all N^p words.
`power_system` builds its compound digits the same way on both views.

The cycle is the forward orbit x_{k+1} = tau_{l_k}(x_k).  Its point x_k
is the fixed point of the k-th left rotation of the word, whose rank is
rot^k(r) with rot(r) = (r mod N^{p-1}) N + r div N^{p-1}, so the orbit
is read off the table; the identity S x_{rot(w)} = x_w + l_{w_0}, checked
exactly on every row, is the p-fold round trip of every orbit at once.
It is a W-cycle when the transfer weight W_B equals 1 at every orbit
point, which reduces to (b - b_ref).x being an integer for every digit
b; every system carries exact data, so that test is always exact, and
`enumerate_cycles` runs it on the integer table, before any Fraction is
formed.

Words are enumerated up to rotation: a rank is kept when it is strictly
below all its nontrivial rotations, which leaves exactly the aperiodic
words that are their own least rotation (Lyndon words), in ascending
rank order.  So each stored cycle has minimal period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratlinalg import (
    _from_common_denominator,
    _over_common_denominator,
    identity_rational,
    mat_inverse,
    mat_pow,
)
from .system import AffineSystem, frac_str

__all__ = [
    "Cycle",
    "enumerate_cycles",
    "find_w_cycles",
    "power_system",
]


@dataclass(frozen=True, eq=False)
class Cycle:
    """A rotation class of aperiodic words with its exact orbit."""

    word: tuple  # canonical (lexicographically least) rotation, L-indices
    period: int
    points: tuple  # p exact points, orbit order, points[0] = fixed point x_0
    is_w_cycle: bool | None = None  # the exact W_B verdict of enumerate_cycles, or None

    @property
    def points_float(self) -> np.ndarray:
        return np.array([[float(c) for c in p] for p in self.points], dtype=float)

    def to_json_dict(self) -> dict:
        return {
            "word": list(self.word),
            "period": self.period,
            "points": [frac_str(pt) for pt in self.points],
            "is_w_cycle": self.is_w_cycle,
        }


def _rotate(ranks, n_letters: int, p: int):
    """Ranks of the left rotations (w_1, ..., w_{p-1}, w_0) of the length-p
    words with ranks `ranks` (rank = sum_j w_j n^{p-1-j})."""
    high = n_letters ** (p - 1)
    return ranks % high * n_letters + ranks // high


def _lyndon_ranks(n_letters: int, p: int) -> np.ndarray:
    """Ascending ranks of the aperiodic length-p words that are their own
    least rotation: the ranks strictly below all p - 1 nontrivial
    rotations (a periodic word equals one of its rotations)."""
    ranks = rot = np.arange(n_letters ** p, dtype=np.int64)
    for _ in range(p - 1):
        rot = _rotate(rot, n_letters, p)
        keep = ranks < rot
        ranks, rot = ranks[keep], rot[keep]
    return ranks


def _words(ranks, n_letters: int, p: int) -> list:
    """The words of the given ranks as tuples of Python ints."""
    letters = np.unravel_index(ranks, (n_letters,) * p)
    return [tuple(w) for w in np.stack(letters, axis=1).tolist()]


def _w_equals_one(rows, q: int, sys: AffineSystem) -> np.ndarray:
    """W_B(x) = 1 at each point x = X / q (rows X of integer numerators):
    all digit phases agree, (b - b_ref).x in Z for every digit b.  With
    B = lam / e over one denominator, that is e q | (lam_b - lam_ref).X,
    so the test runs on integers, with no Fractions."""
    lam, e = sys.b_view._integer_form[2:]
    dots = np.asarray(rows, dtype=object).reshape(-1, sys.d) @ (lam[1:] - lam[0]).T
    return np.all(dots % (e * q) == 0, axis=1)


def enumerate_cycles(sys: AffineSystem, p_max: int, w_only: bool = False) -> list:
    """One Cycle per rotation class of aperiodic words of length <= p_max,
    each with its exact W_B verdict; with w_only, the W-cycles only.

    The length-p table of right-hand sides is one expansion of the
    length-(p-1) table, in integer numerators over one denominator q; the
    fixed points of all N^p words are the rows of one product with the
    numerators of (S^p - I)^{-1}, over Q = q den((S^p - I)^{-1}).  Orbits
    are read off the rotated ranks and checked exactly (module
    docstring), the standing assumption that distinct length-p words have
    distinct fixed points is checked by exact comparison (up to 4^8 words
    per length), and every orbit row is classified on the table
    (`_w_equals_one`).  Fractions are formed only for the returned cycles.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    view, n = sys.l_view, sys.N
    a, den, lam, e = view._integer_form
    rows, q = np.zeros((1, sys.d), dtype=object), 1
    out = []
    for p in range(1, p_max + 1):
        rows, q = view.expand(rows, q)
        m_inv, m_den = _over_common_denominator(
            mat_inverse(mat_pow(sys.S_exact, p) - identity_rational(sys.d)))
        x, x_den = rows @ m_inv.T, q * m_den
        ranks = np.arange(n ** p, dtype=np.int64)
        # S x_rot(w) = x_w + l_{w_0}, times D e x_den
        if not np.array_equal(x[_rotate(ranks, n, p)] @ (e * a).T,
                              den * e * x + den * x_den * lam[ranks // n ** (p - 1)]):
            raise AssertionError("cycle round trip failed at period %d" % p)
        words = _lyndon_ranks(n, p)
        orbits = [words]
        for _ in range(p - 1):
            orbits.append(_rotate(orbits[-1], n, p))
        orbit_rows = x[np.stack(orbits, axis=1).ravel()].tolist()
        if n ** p <= 65536 and len(set(map(tuple, orbit_rows))) != len(orbit_rows):
            raise AssertionError("distinct words share a fixed point at period %d" % p)
        ok = _w_equals_one(orbit_rows, x_den, sys).reshape(-1, p).all(axis=1)
        keep = np.flatnonzero(ok) if w_only else np.arange(len(words))
        out.extend(Cycle(word=w, period=p,
                         points=tuple(_from_common_denominator(orbit_rows[i * p:(i + 1) * p],
                                                               x_den)),
                         is_w_cycle=bool(ok[i]))
                   for i, w in zip(keep, _words(words[keep], n, p)))
    return out


def find_w_cycles(sys: AffineSystem, p_max: int) -> list:
    """The W-cycles of period <= p_max: `enumerate_cycles` with w_only."""
    return enumerate_cycles(sys, p_max, w_only=True)


def power_system(sys: AffineSystem, p: int) -> AffineSystem:
    """(B^(p), L^(p), R^p) with the N^p compound digits

    B^(p) = {b_0 + R b_1 + ... + R^{p-1} b_{p-1}},
    L^(p) = {l_0 + S l_1 + ... + S^{p-1} l_{p-1}},

    enumerated in lexicographic word order.  A p-cycle of the original
    system is a 1-cycle of the power system with the same points.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return sys
    digits = []
    for view in (sys.b_view, sys.l_view):
        rows, q = np.zeros((1, sys.d), dtype=object), 1
        for _ in range(p):
            rows, q = view.expand(rows, q)
        digits.append(_from_common_denominator(rows.tolist(), q))
    return AffineSystem.create(
        mat_pow(sys.R_exact, p), *digits,
        unitarity_tol=sys.unitarity_tol, tail_tol=sys.tail_tol,
        name=(sys.name + "^%d" % p) if sys.name else "",
    )
