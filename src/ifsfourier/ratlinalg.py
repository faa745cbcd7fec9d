"""Exact rational linear algebra for small matrices (d <= 4 in practice).

Exact matrices and single vectors are numpy object arrays of
``fractions.Fraction``: the float path's indexing and ``@``, exactly.
Batches of exact rows are integer tables inside the package: numerators
over one denominator (`_over_common_denominator`), made Fractions
(`_from_common_denominator`) only at the public edge.  A table is int64
or Python ints by a bound on what it forms (`_table_dtype`): the same code
runs on both, as matmul, %, comparisons and `np.lexsort` work on object
arrays.  Distinct rows come from one sort (`_lex_order`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "SingularMatrixError",
    "AmbiguousExpansivityError",
    "rational_matrix",
    "identity_rational",
    "mat_pow",
    "mat_inverse",
    "spectral_margin",
    "is_expansive",
]

EXPANSIVITY_MARGIN = 1e-9  # eigenvalue moduli this close to 1 are ambiguous


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
    """(n, q): exact numbers a as Python-int numerators n over their lcd q.
    Only an entry without a numerator, such as a float, goes through
    `as_fraction`, so a table of Fractions makes no new one."""
    a = np.asarray(a, dtype=object)
    fr = [(int(e.numerator), int(e.denominator))
          for e in (e if hasattr(e, "numerator") else as_fraction(e) for e in a.flat)]
    q = math.lcm(*(d for _, d in fr))
    return np.array([n * (q // d) for n, d in fr], dtype=object).reshape(a.shape), q


def _from_common_denominator(rows, q: int) -> list:
    """Rows of integer numerators over q as tuples of Fractions (of Python
    ints): the inverse of `_over_common_denominator` on a table."""
    return list(map(tuple, [[Fraction(v, q) for v in row] for row in np.asarray(rows).tolist()]))


def _table_dtype(bound: int):
    """int64 for a table whose entries, and all values formed from them, are
    at most `bound` < 2^62 in absolute value; else Python ints."""
    return np.int64 if bound < 2 ** 62 else object


def _max_abs(table) -> int:
    return int(np.abs(np.asarray(table)).max(initial=0))


def _norm_inf(m) -> int:
    return int(np.abs(m).sum(axis=1).max(initial=0))


def _lex_order(rows) -> tuple:
    """(order, first): `order` sorts an (n, d) table's rows stably, column 0
    first; rows[order[first]] are its distinct rows, ascending."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, first


def _exp_2pi_i(numerators, q: int) -> np.ndarray:
    """exp(2 pi i n/q) for integers n: n is reduced mod q exactly, so the
    float phase is the correctly rounded n/q mod 1 however large n is."""
    return np.exp(2j * np.pi * (np.asarray(numerators, dtype=object) % q / q).astype(float))


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


def mat_inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse by fraction-free (Bareiss) Gauss-Jordan elimination of
    [D m | I], D the lcd of m, first-nonzero pivoting: row r becomes
    (p row_r - a_rc row_c) / p', p the pivot and p' the one before, exactly.
    It ends as [p I | X]: m^{-1} = D X / p, the only Fractions formed.
    Raises SingularMatrixError without a pivot."""
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("expected a square matrix, got shape %s" % (m.shape,))
    num, den = _over_common_denominator(m)
    rows = [row + [int(i == j) for j in range(n)] for i, row in enumerate(num.tolist())]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is not invertible over the rationals")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col]
        piv = pivot[col]
        for r in range(n):
            if r != col:
                factor = rows[r][col]
                rows[r] = [(piv * a - factor * b) // prev for a, b in zip(rows[r], pivot)]
        prev = piv
    return np.array([[Fraction(den * v, prev) for v in row[n:]] for row in rows], dtype=object)


def spectral_margin(r) -> float:
    """min |eigenvalue| - 1, computed in floating point."""
    ev = np.linalg.eigvals(np.asarray(r, dtype=float))
    return float(np.min(np.abs(ev))) - 1.0


def is_expansive(r) -> bool:
    """True iff every eigenvalue modulus exceeds 1.

    Moduli within EXPANSIVITY_MARGIN of 1 are rejected as ambiguous rather
    than classified: expansivity is a strict inequality and the float
    eigensolver cannot certify a boundary case.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (r.shape,))
    moduli = np.abs(np.linalg.eigvals(r))
    if np.any(np.abs(moduli - 1.0) < EXPANSIVITY_MARGIN):
        raise AmbiguousExpansivityError(
            "eigenvalue modulus within %g of 1; cannot classify" % EXPANSIVITY_MARGIN
        )
    return bool(np.all(moduli > 1.0))
