"""Hadamard pairs and duality checks for (B, L, R) systems.

A pair of digit sets (A, B) of common size N is a Hadamard pair when
U = N^{-1/2} (exp(2 pi i a.b))_{a in A, b in B} is unitary.  A duality
system additionally needs R expansive and (R^{-1}B, L) to be a Hadamard
pair, plus the integrality condition R^n b . l in Z for all n >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ratlinalg import _exp_2pi_i, _over_common_denominator, is_expansive, spectral_margin
from .system import AffineSystem

__all__ = [
    "UnitarityReport",
    "DualityReport",
    "build_matrix",
    "check_pair",
    "check_duality",
]

PAIR_TOL = 1e-12  # the largest entry of U*U - I that `check_pair` accepts


@dataclass(frozen=True)
class UnitarityReport:
    passes: bool
    max_deviation: float  # max abs entry of U*U - I
    order: int
    tol: float

    def to_dict(self):
        return {
            "passes": self.passes,
            "max_deviation": self.max_deviation,
            "order": self.order,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class DualityReport:
    passes: bool
    failures: tuple  # names of failed sub-checks
    expansive: bool
    eigenvalue_margin: float
    unitarity: UnitarityReport
    integrality_mode: str  # "structural" or "exact"
    integrality_horizon: int
    integrality_deviation: float

    def to_dict(self):
        return {
            "passes": self.passes,
            "failures": list(self.failures),
            "expansive": self.expansive,
            "eigenvalue_margin": self.eigenvalue_margin,
            "unitarity": self.unitarity.to_dict(),
            "integrality": {
                "mode": self.integrality_mode,
                "horizon": self.integrality_horizon,
                "max_deviation": self.integrality_deviation,
            },
        }


def build_matrix(a_set, b_set) -> np.ndarray:
    """U = N^{-1/2} (e^{2 pi i a.b}), rows indexed by a, columns by b."""
    a = np.atleast_2d(np.asarray(a_set, dtype=float))
    b = np.atleast_2d(np.asarray(b_set, dtype=float))
    if a.shape[0] != b.shape[0]:
        raise ValueError("mismatched cardinalities: %d vs %d" % (a.shape[0], b.shape[0]))
    n = a.shape[0]
    phases = a @ b.T
    return np.exp(2j * np.pi * phases) / np.sqrt(n)


def check_pair(a_set, b_set) -> UnitarityReport:
    """Report whether U*U = I within PAIR_TOL (max abs entry deviation)."""
    return _unitarity(build_matrix(a_set, b_set), PAIR_TOL)


def _unitarity(u: np.ndarray, tol: float) -> UnitarityReport:
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))
    return UnitarityReport(passes=dev < tol, max_deviation=dev, order=len(u), tol=tol)


def check_duality(sys: AffineSystem, integrality_horizon: int = 16) -> DualityReport:
    """Full duality verification: expansivity, unitarity of (R^{-1}B, L),
    and the integrality condition R^n b . l in Z.

    Integrality quantifies over all n >= 0.  For integer-valued data it is
    proven structurally (R^n b stays an integer vector, so every dot with
    an integer l is an integer).  Otherwise it is checked exactly on
    integer tables for n = 0..integrality_horizon, with the horizon
    reported, and the deviation is the largest distance of a dot (R^n b).l
    to the nearest integer.
    """
    failures = []
    margin = spectral_margin(sys.R)
    expansive = is_expansive(sys.R)
    if not expansive:
        failures.append("expansivity")
    # (R^{-1}b).l = b.S^{-1}l, reduced mod 1 exactly
    phases = (np.array(sys.B_exact, dtype=object) @ sys.l_view.inv_exact
              @ np.array(sys.L_exact, dtype=object).T)
    u = _exp_2pi_i(*_over_common_denominator(phases)) / np.sqrt(sys.N)
    unit = _unitarity(u, sys.unitarity_tol)
    if not unit.passes:
        failures.append("unitarity")
    if sys.exact_integer:
        mode, dev = "structural", 0.0
    else:
        # with R = A / D, B = beta / e and L = lam / f (integer numerators),
        # (R^n b).l is entry (b, l) of beta (A^t)^n lam^t over D^n e f
        mode, worst = "exact", Fraction(0)
        a, den, beta, e = sys.b_view._integer_form
        lam, f = sys.l_view._integer_form[2:]
        for n in range(integrality_horizon + 1):
            q = den ** n * e * f
            worst = max([worst] + [Fraction(min(v % q, -v % q), q) for v in (beta @ lam.T).flat])
            beta = beta @ a.T
        dev = float(worst)
        if worst:
            failures.append("integrality")
    return DualityReport(
        passes=not failures,
        failures=tuple(failures),
        expansive=expansive,
        eigenvalue_margin=margin,
        unitarity=unit,
        integrality_mode=mode,
        integrality_horizon=integrality_horizon,
        integrality_deviation=dev,
    )
