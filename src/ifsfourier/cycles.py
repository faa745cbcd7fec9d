"""Exact cycle enumeration for IFS(L) and W-cycle classification.

A length-p word (l_0, ..., l_{p-1}) over the L digits determines the
composition tau_{l_{p-1}} o ... o tau_{l_0} (tau_{l_0} applied first),
whose unique fixed point is

    x_w = (S^p - I)^{-1} (l_0 + S l_1 + ... + S^{p-1} l_{p-1}),

computed exactly.  The right-hand side is p steps of x -> S x + l from 0
(`IfsView.expand`): `enumerate_cycles` keeps every length-p sum as one
integer table over one denominator (row = the word's rank r = sum_j w_j
N^{p-1-j}), and one product with the numerators of (S^p - I)^{-1} gives
the fixed points of all N^p words.  `power_system` builds its compound
digits the same way.

The cycle is the orbit x_{k+1} = tau_{l_k}(x_k); x_k is the fixed point
of the k-th left rotation of the word, of rank rot^k(r), rot(r) = (r mod
N^{p-1}) N + r div N^{p-1}.  The identity S x_{rot(w)} = x_w + l_{w_0},
checked on every row, is the round trip of every orbit at once.  It is a
W-cycle when W_B = 1 at every orbit point, that is (b - b_ref).x in Z for
every digit b: an exact test on the integer table.

A rank is kept when it is below all its nontrivial rotations: the
aperiodic words that are their own least rotation (Lyndon words), in
ascending order, so each cycle has minimal period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratlinalg import (_from_common_denominator, _lex_order, _max_abs, _norm_inf,
                        _over_common_denominator, _table_dtype, identity_rational,
                        mat_inverse, mat_pow)
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


def enumerate_cycles(sys: AffineSystem, p_max: int, w_only: bool = False) -> list:
    """One Cycle per rotation class of aperiodic words of length <= p_max,
    each with its exact W_B verdict; with w_only, the W-cycles only.  The
    table's product with the numerators of (S^p - I)^{-1}, the round trip
    and the W test (e_B Q | (lam_b - lam_0).X for B = lam / e_B) run in the
    `_table_dtype` of one bound; distinct words are checked to have
    distinct fixed points by one sort.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    view, n = sys.l_view, sys.N
    a, den, lam, e = view._integer_form
    lam_b, e_b = sys.b_view._integer_form[2:]
    phases = lam_b[1:] - lam_b[0]
    # |x| |M|, x = rows M^T, times the largest factor a check applies to x
    x_factor = max(e * _norm_inf(a), den * e, _norm_inf(phases))
    rows, q = np.zeros((1, sys.d), dtype=np.int64), 1
    out = []
    for p in range(1, p_max + 1):
        rows, q = view.expand(rows, q)
        m_inv, m_den = _over_common_denominator(
            mat_inverse(mat_pow(sys.S_exact, p) - identity_rational(sys.d)))
        x_den = q * m_den
        dtype = _table_dtype(_max_abs(rows) * _norm_inf(m_inv) * x_factor
                             + x_den * (den * view._expand_bound[1] + e_b))
        x = rows.astype(dtype) @ m_inv.astype(dtype).T
        ranks = np.arange(n ** p, dtype=np.int64)
        # S x_rot(w) = x_w + l_{w_0}, times D e x_den
        if not np.array_equal(x[_rotate(ranks, n, p)] @ (e * a).astype(dtype).T,
                              den * e * x
                              + den * x_den * lam.astype(dtype)[ranks // n ** (p - 1)]):
            raise AssertionError("cycle round trip failed at period %d" % p)
        words = _lyndon_ranks(n, p)
        orbits = [words]
        for _ in range(p - 1):
            orbits.append(_rotate(orbits[-1], n, p))
        orbit_rows = x[np.stack(orbits, axis=1).ravel()]
        if not _lex_order(orbit_rows)[1].all():
            raise AssertionError("distinct words share a fixed point at period %d" % p)
        ok = np.all(orbit_rows @ phases.astype(dtype).T % (e_b * x_den) == 0, axis=1)
        ok = ok.reshape(-1, p).all(axis=1)
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
        rows, q = np.zeros((1, sys.d), dtype=np.int64), 1
        for _ in range(p):
            rows, q = view.expand(rows, q)
        digits.append(_from_common_denominator(rows, q))
    return AffineSystem.create(
        mat_pow(sys.R_exact, p), *digits,
        unitarity_tol=sys.unitarity_tol, tail_tol=sys.tail_tol,
        name=(sys.name + "^%d" % p) if sys.name else "",
    )
