"""Exact rational linear algebra for small matrices (d <= 4 in practice).

Exact matrices and single vectors are numpy object arrays of
``fractions.Fraction``, close to the float path (same indexing, same
``@``) while every operation stays exact; denominators grow like
|det S|^p during cycle searches, which arbitrary precision absorbs.
Batches of exact rows are integer tables inside the package: Python-int
numerators over one denominator (`_over_common_denominator`), made
Fractions (`_from_common_denominator`) only at the public edge:
`Cycle.points`, `SpectrumSet.elements`, `k_points_of_depth`, CLI strings.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "SingularMatrixError",
    "AmbiguousExpansivityError",
    "rational_vector",
    "rational_matrix",
    "identity_rational",
    "mat_pow",
    "mat_inverse",
    "solve_exact",
    "spectral_margin",
    "is_expansive",
]


class SingularMatrixError(ValueError):
    """Raised when an exact solve meets a non-invertible matrix."""


class AmbiguousExpansivityError(ValueError):
    """Raised when an eigenvalue modulus sits inside the safety margin around 1."""


def as_fraction(e) -> Fraction:
    """Fraction with plain Python int internals (numpy scalars normalized;
    a numpy int fed straight to Fraction would keep int64 internals and
    overflow once cycle denominators grow)."""
    if isinstance(e, np.integer):
        return Fraction(int(e))
    if isinstance(e, np.floating):
        return Fraction(float(e))
    return Fraction(e)


def _over_common_denominator(a) -> tuple:
    """(n, q): rationals a (ints, Fractions, numpy integers) as Python-int
    numerators n over their lcd q."""
    a = np.asarray(a, dtype=object)
    fr = [(int(e.numerator), int(e.denominator)) for e in a.flat]
    q = math.lcm(*(d for _, d in fr))
    return np.array([n * (q // d) for n, d in fr], dtype=object).reshape(a.shape), q


def _from_common_denominator(rows, q: int) -> list:
    """Rows of integer numerators over q as tuples of Fractions: the inverse
    of `_over_common_denominator` on a table."""
    return list(map(tuple, [[Fraction(v, q) for v in row] for row in rows]))


def _exp_2pi_i(numerators, q: int) -> np.ndarray:
    """exp(2 pi i n/q) for integers n: n is reduced mod q exactly, so the
    float phase is the correctly rounded n/q mod 1 however large n is."""
    return np.exp(2j * np.pi * (np.asarray(numerators, dtype=object) % q / q).astype(float))


def rational_vector(entries) -> np.ndarray:
    """Build a 1-d object array of Fractions."""
    return np.array([as_fraction(e) for e in entries], dtype=object)


def rational_matrix(rows) -> np.ndarray:
    """Build a square object array of Fractions from nested rows."""
    m = np.array([[as_fraction(e) for e in row] for row in rows], dtype=object)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (m.shape,))
    return m


def identity_rational(d: int) -> np.ndarray:
    return np.array(
        [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)],
        dtype=object,
    )


def mat_pow(m: np.ndarray, p: int) -> np.ndarray:
    """Exact p-th power, p >= 1, by repeated squaring."""
    if p < 1:
        raise ValueError("exponent must be a positive integer")
    result = None
    base = m
    while p:
        if p & 1:
            result = base if result is None else result @ base
        p >>= 1
        if p:
            base = base @ base
    return result


def solve_exact(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Solve m x = v exactly over the rationals: `mat_inverse`(m) @ v.

    Raises SingularMatrixError when m is not invertible.  For the
    cycle-point systems (S^p - I) x = ... this never happens: an expansive
    S has no eigenvalue on the unit circle, so S^p - I is invertible.
    """
    n = m.shape[0]
    if m.shape != (n, n) or v.shape != (n,):
        raise ValueError("shape mismatch: %s vs %s" % (m.shape, v.shape))
    return mat_inverse(m) @ v.astype(object)


def mat_inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse by one Gauss-Jordan elimination of [m | I], with
    partial (first nonzero) pivoting on all n identity columns at once;
    raises SingularMatrixError when no pivot can be found.
    """
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("expected a square matrix, got shape %s" % (m.shape,))
    rows = [[as_fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is not invertible over the rationals")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        piv = rows[col][col]
        pivot = rows[col] = [v / piv for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], pivot)]
    return np.array([row[n:] for row in rows], dtype=object)


def spectral_margin(r) -> float:
    """min |eigenvalue| - 1, computed in floating point."""
    ev = np.linalg.eigvals(np.asarray(r, dtype=float))
    return float(np.min(np.abs(ev))) - 1.0


def is_expansive(r, margin: float = 1e-9) -> bool:
    """True iff every eigenvalue modulus exceeds 1.

    Moduli within `margin` of 1 are rejected as ambiguous rather than
    classified: expansivity is a strict inequality and the float
    eigensolver cannot certify a boundary case.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (r.shape,))
    moduli = np.abs(np.linalg.eigvals(r))
    if np.any(np.abs(moduli - 1.0) < margin):
        raise AmbiguousExpansivityError(
            "eigenvalue modulus within %g of 1; cannot classify" % margin
        )
    return bool(np.all(moduli > 1.0))
