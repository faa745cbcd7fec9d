"""Affine Hadamard-duality systems (B, L, R) and their two IFS views.

The triple carries an expansive d x d matrix R, its transpose S = R^t,
and two digit sets B, L of common size N.  The B-side IFS is
tau_b(x) = R^{-1}(x + b); the L-side is tau_l(x) = S^{-1}(x + l).
Everything downstream (weights, cycles, spectra, path measures) is
phrased against one of the two views.  A system always carries its data
exactly, as Fractions beside the float arrays: `AffineSystem.create`
refuses entries that are not finite floats, so every cycle, k-point and
spectrum computation has rationals to work on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ratlinalg import (
    _over_common_denominator,
    as_fraction,
    is_expansive,
    mat_inverse,
    rational_matrix,
)

__all__ = ["IfsView", "AffineSystem", "fvec", "frac_str"]


def fvec(entries) -> tuple:
    """Exact vector as a hashable tuple of Fractions."""
    return tuple(as_fraction(e) for e in entries)


def frac_str(v) -> str:
    """Render an exact scalar or vector as fraction strings."""
    if isinstance(v, (tuple, list, np.ndarray)):
        return "(" + ", ".join(frac_str(c) for c in v) + ")"
    f = as_fraction(v)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def _angle_sums(freqs: np.ndarray) -> tuple:
    """(direct, E): which rows of the (P, d) frequencies f run the trig of a
    cosine pass, and every row in their terms.

    The rows are visited in order of increasing |f_j|_1, ties by row.  A
    row equal to f_a + f_b or f_a - f_b, with a and b rows already direct
    (a = b allowed for the sum), is derived; any other is direct.  A
    derived row never reads another derived row.  `direct` lists the D
    direct rows in row order, and row j of the (P, D) float array E is f_j
    in them: a unit row for a direct f_j, two entries +-1 (or one 2) for a
    derived one.  On planar-shear's W_B, (0, 1) and (3, 0) are direct and
    (3, +-1) derived."""
    terms = {}  # row -> its terms ((row, sign), ...) in direct rows
    sums = {}  # f_a + f_b, f_a - f_b of direct rows a, b -> their terms
    for j in np.argsort(np.abs(freqs).sum(axis=1), kind="stable"):
        f = freqs[j]
        terms[j] = sums.get(tuple(f), ((j, 1),))
        if len(terms[j]) == 1:
            for k in [k for k, t in terms.items() if len(t) == 1]:
                sums.setdefault(tuple(f + freqs[k]), ((j, 1), (k, 1)))
                if k != j:
                    sums.setdefault(tuple(f - freqs[k]), ((j, 1), (k, -1)))
                    sums.setdefault(tuple(freqs[k] - f), ((k, 1), (j, -1)))
    direct = np.array(sorted(j for j, t in terms.items() if len(t) == 1), dtype=np.intp)
    column = {int(j): p for p, j in enumerate(direct)}
    plan = np.zeros((len(freqs), len(direct)))
    for j, t in terms.items():
        for k, sign in t:
            plan[j, column[int(k)]] += sign
    return direct, plan


@dataclass(frozen=True, eq=False)
class IfsView:
    """One of the two IFSs of a duality system: x -> matrix^{-1}(x + digit).

    `matrix` is R for the B-system and S for the L-system.  The exact
    (Fraction) mirrors are always present on the views of an AffineSystem,
    whose data is rational; they are optional only on a bare view built
    from floats, such as the registry's riesz3 circle map.
    """

    label: str
    matrix: np.ndarray
    digits: np.ndarray  # shape (N, d), float
    matrix_exact: np.ndarray | None = None
    digits_exact: tuple | None = None  # tuple of fvec
    _cosine_factors: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_digits(self) -> int:
        return len(self.digits)

    @cached_property
    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    @cached_property
    def inv_exact(self) -> np.ndarray | None:
        if self.matrix_exact is None:
            return None
        return mat_inverse(self.matrix_exact)

    def tau_all(self, points: np.ndarray) -> np.ndarray:
        """All branch images of a batch: shape (N, n_points, d)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (self.digits[:, None] + pts) @ self.inv.T

    @cached_property
    def _integer_form(self) -> tuple:
        """(A, D, lam, e): matrix = A / D and digits = lam / e, with A and
        lam Python-int object arrays and D, e positive ints."""
        a, den = _over_common_denominator(self.matrix_exact)
        lam, e = _over_common_denominator(np.array(self.digits_exact, dtype=object))
        return a, den, lam, e

    def expand(self, numerators, q: int) -> tuple:
        """One exact step of the recurrence x -> matrix x + digit on the (n, d)
        table x = numerators / q of integers over one q > 0: (rows, q'), the
        N rows matrix x + digit_i of each x over q' = lcm(D q, e) (matrix =
        A / D, digits = lam / e), digit-major (row i * n + k comes from x_k).

        n steps from the zero row therefore list every word sum
        sum_j matrix^j digit_{w_j} in lexicographic word order, w_0
        outermost.  Cycle points, k-points, the spectrum closure and the
        power-system digits are all such sums; each forms Fractions only
        for its result."""
        if self.matrix_exact is None:
            raise ValueError("exact expansion needs rational system data")
        a, den, lam, e = self._integer_form
        y = np.asarray(numerators, dtype=object).reshape(-1, self.d) @ a.T
        q_out = math.lcm(den * q, e)
        if q_out != den * q:
            y = y * (q_out // (den * q))
        return (lam[:, None] * (q_out // e) + y).reshape(-1, self.d), q_out

    def cosine_factors(self, coeffs: np.ndarray, freqs: np.ndarray) -> tuple:
        """(G, E, left, right, C) for a cosine polynomial sum_j a_j cos(2 pi f_j.x),
        a and f float arrays of shapes (P,) and (P, d), at the branch images.
        With g_j = matrix^{-t} f_j (in turns), theta_j = 2 pi g_j.z and
        phi_{j,l} = 2 pi g_j.l,

            a_j cos(2 pi f_j.tau_l z) = A_{j,l} cos theta_j + B_{j,l} sin theta_j,
            A_{j,l} = a_j cos phi_{j,l},  B_{j,l} = -a_j sin phi_{j,l}.

        The trig runs on the D direct frequencies of `_angle_sums` only: G
        holds their rows g_j, and E is the (P, D) plan, f_j = sum_p E[j, p]
        f_{direct p}.  A derived theta_j = u theta_a + v theta_b (u, v = +-1)
        takes its cosine and sine from angle addition,

            cos theta_j = c_a c_b - u v s_a s_b,  sin theta_j = u s_a c_b + v c_a s_b,

        so its term is A c_a c_b - u v A s_a s_b + u B s_a c_b + v B c_a s_b.
        The N weights are then C @ T, T = [cos 2 pi G z; sin 2 pi G z; products]:
        product k is T[left[k]] T[right[k]], one per distinct pair of trig rows,
        and C of shape (N, 2D + K) holds A and B of the direct terms and the
        summed coefficients of each product.  When no frequency is derived
        (any P = 1 weight), D = P, K = 0 and C[l] = (A_{., l}, B_{., l}).
        The phases g_j.l are reduced mod 1 before the trig call.  Cached per
        polynomial."""
        key = (coeffs.tobytes(), freqs.tobytes())
        factors = self._cosine_factors.get(key)
        if factors is None:
            direct, plan = _angle_sums(freqs)
            g = freqs @ self.inv
            phi = g @ self.digits.T
            phi = 2.0 * np.pi * (phi - np.rint(phi))
            a = coeffs[:, None]
            big_a, big_b = a * np.cos(phi), -a * np.sin(phi)
            n_direct, products = len(direct), {}  # (row, row) of T -> its coefficients
            for j in np.flatnonzero(np.abs(plan).sum(axis=1) == 2):  # the derived rows
                p, q = np.flatnonzero(plan[j])[[0, -1]]  # p = q for 2 f_p
                u, v = plan[j, [p, q]] if p != q else (1.0, 1.0)
                sp, sq = n_direct + p, n_direct + q  # the sine rows
                for rows, c in (((p, q), big_a[j]), ((sp, sq), -u * v * big_a[j]),
                                ((sp, q), u * big_b[j]), ((p, sq), v * big_b[j])):
                    rows = tuple(sorted(rows))
                    products[rows] = products.get(rows, 0.0) + c
            left, right = np.array(list(products), dtype=np.intp).reshape(-1, 2).T.copy()
            coef = np.concatenate([big_a[direct], big_b[direct]]
                                  + [c[None] for c in products.values()]).T.copy()
            factors = (g[direct], plan, left, right, coef)
            self._cosine_factors[key] = factors
        return factors

    @cached_property
    def _power_norms(self) -> np.ndarray:
        powers = self.inv[None]  # matrix^{-k}, k = 1..h
        while True:
            norms = np.linalg.norm(powers, 2, axis=(1, 2))
            if norms[-1] < np.finfo(float).eps * norms.sum() or len(powers) > 8192:
                break
            powers = np.concatenate([powers, powers @ powers[-1]])
        norms.flags.writeable = False
        return norms

    def power_norms(self) -> np.ndarray:
        """|matrix^{-k}|_2 for k = 1..h, the powers doubled until the last norm
        is below eps of the sum, or h = 2^14: the one measure of how fast the
        inverse shrinks, which needs R expansive, not one step contracting.
        Past h, each block of h norms is at most q = |matrix^{-h}|_2 times the
        block before (`power_tail`).  Cached, read-only."""
        return self._power_norms

    def power_tail(self) -> float:
        """A bound on sum_{k > h} |matrix^{-k}|_2 past the h norms of
        `power_norms`: S_h q / (1 - q), S_h their sum.  Raises OverflowError
        when q >= 1 (a transient longer than 2^14 powers): they bound no tail."""
        norms = self.power_norms()
        q = float(norms[-1])
        if q >= 1.0:
            raise OverflowError("|matrix^{-%d}| = %g >= 1 bounds no tail" % (len(norms), q))
        return float(norms.sum()) * q / (1.0 - q)

    def bounding_radius(self) -> float:
        """max|digit|_2 sum_{k >= 1} |matrix^{-k}|_2: the ball of that radius
        holds every orbit from 0, and so the attractor, though a branch may
        map it out of itself."""
        m = float(np.linalg.norm(self.digits, axis=1).max(initial=0.0))
        return m * (float(self.power_norms().sum()) + self.power_tail())

    def box(self, inflate: float = 1.05) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box for grid work, inflated to absorb interpolation
        stencils.  When c = |matrix^{-1}|_inf < 1 it has half-width
        c max|digit|_inf / (1 - c), and every branch maps it into itself.
        Otherwise it is the box around the `bounding_radius` ball: it holds
        every orbit from 0, but a branch may map it out of itself (grid ops
        check)."""
        c = float(np.linalg.norm(self.inv, np.inf))
        m = float(np.abs(self.digits).max(initial=0.0))
        r = c * m / (1.0 - c) if c < 1.0 else self.bounding_radius()
        r = r * inflate if r > 0 else 1e-3
        return -r * np.ones(self.d), r * np.ones(self.d)


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """The duality triple (B, L, R) with derived S = R^t and tolerances."""

    d: int
    R: np.ndarray
    S: np.ndarray
    B: np.ndarray  # (N, d) float
    L: np.ndarray  # (N, d) float
    N: int
    R_exact: np.ndarray  # (d, d) Fraction object array
    B_exact: tuple  # tuple of fvec
    L_exact: tuple
    unitarity_tol: float = 1e-12
    tail_tol: float = 1e-10
    name: str = ""
    exact_integer: bool = field(default=False)

    @staticmethod
    def create(R, B, L, *, unitarity_tol=1e-12, tail_tol=1e-10, name=""):
        """Validate and build a system from int, Fraction, float or numeric
        string entries.  Every entry must be a finite float (NaN, +-inf and
        numbers beyond the float range raise a ValueError naming R, B or L,
        and so does a digit of B or L whose 2 pi |b| is not finite in floats)
        and is kept exactly, as a Fraction; the float arrays are the
        correctly rounded values of those Fractions.  Each tolerance must be
        a finite positive number (a ValueError names it otherwise)."""
        unitarity_tol = _positive_tolerance(unitarity_tol, "unitarity_tol")
        tail_tol = _positive_tolerance(tail_tol, "tail_tol")
        Rf = np.atleast_2d(_finite_floats(R, "R"))
        d = Rf.shape[0]
        if Rf.shape != (d, d):
            raise ValueError("R must be square, got shape %s" % (Rf.shape,))
        Bf = _digit_array(B, d, "B")
        Lf = _digit_array(L, d, "L")
        if len(Bf) != len(Lf):
            raise ValueError("digit sets must have equal cardinality: #B=%d, #L=%d"
                             % (len(Bf), len(Lf)))
        if len(Bf) < 1:
            raise ValueError("digit sets must be nonempty")
        if not is_expansive(Rf):
            raise ValueError("R is not expansive (an eigenvalue modulus is <= 1)")
        R_exact = rational_matrix(np.atleast_2d(np.asarray(R, dtype=object)))
        B_exact = tuple(fvec(np.atleast_1d(v)) for v in B)
        L_exact = tuple(fvec(np.atleast_1d(v)) for v in L)
        all_int = all(f.denominator == 1 for f in list(R_exact.ravel())
                      + [c for v in B_exact + L_exact for c in v])
        return AffineSystem(
            d=d, R=Rf, S=Rf.T.copy(), B=Bf, L=Lf, N=len(Bf),
            R_exact=R_exact, B_exact=B_exact, L_exact=L_exact,
            unitarity_tol=unitarity_tol, tail_tol=tail_tol,
            name=name, exact_integer=all_int,
        )

    @property
    def S_exact(self) -> np.ndarray:
        return self.R_exact.T.copy()

    @cached_property
    def b_view(self) -> IfsView:
        return IfsView("B", self.R, self.B, self.R_exact, self.B_exact)

    @cached_property
    def l_view(self) -> IfsView:
        return IfsView("L", self.S, self.L, self.S_exact, self.L_exact)

    def zero_in_digits(self) -> bool:
        return any(all(c == 0 for c in v) for v in self.B_exact) and any(
            all(c == 0 for c in v) for v in self.L_exact
        )


def _finite_floats(entries, field_name) -> np.ndarray:
    """entries as a float array, refusing NaN, +-inf and numbers beyond the
    float range (which have no rational value, or no float one)."""
    try:
        arr = np.asarray(entries, dtype=float)
    except OverflowError:
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise ValueError("%s has a non-finite entry (NaN, inf or beyond the float range)"
                         % field_name)
    return arr


def _positive_tolerance(value, field_name) -> float:
    """value as a float, refusing anything but a finite positive number (a
    NaN or infinite tolerance passes or fails every comparison)."""
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("%s must be a finite positive number, got %r" % (field_name, value))
    return tol


def _digit_array(digits, d, field_name) -> np.ndarray:
    arr = _finite_floats([np.atleast_1d(np.asarray(v, dtype=object)) for v in digits],
                         field_name)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError("%s digits must be vectors of dimension %d" % (field_name, d))
    with np.errstate(over="ignore"):
        reach = 2.0 * np.pi * np.linalg.norm(arr, axis=1).max(initial=0.0)
    if not np.isfinite(reach):  # the tail bound of mu_hat scales with it
        raise ValueError("%s has a digit beyond the float range: 2 pi max |%s| is not finite"
                         % (field_name, field_name.lower()))
    return arr

