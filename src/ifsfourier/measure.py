"""The invariant measure mu_B of IFS(B): sampling, symbols, Fourier transform.

m_B(x) = N^{-1/2} sum_b exp(2 pi i b.x) is the exponential symbol of the
digit set; W_B = |m_B|^2 / N is the transfer weight.  The Fourier
transform of mu_B satisfies the refinement identity

    mu_hat(t) = m_B(S^{-1} t) / sqrt(N) * mu_hat(S^{-1} t)

and is evaluated here as the truncated product over k of
m_B(S^{-k} t) / sqrt(N), to a depth from the power norms of S^{-1}
(`_tail_depth`), by `_truncated_products`, the one loop over product
levels.  Orthogonality of Fourier frequencies always comes from one factor
vanishing exactly, so one rule holds: a point is exact, a batch is float.
A single point (`mu_hat_detail`) is read as the rational it is, even a
float one, and carries S^{-k} t as integer numerators;
`ratlinalg._exp_2pi_i` reduces each phase mod 1 exactly before the float
exp, and such zeros are reported as exact.  A batch (`mu_hat_batch`) runs
in floats.  On the float rows of a two-digit system each factor is real up
to a unit phase,

    m_B(t) / sqrt(2) = exp(pi i s.t) cos(pi delta.t),  s = b0 + b1,  delta = b1 - b0,

so mu_hat(t) = exp(pi i s.sum_k t_k) prod_k cos(pi delta.t_k) (Strichartz's
form of the product): one cosine per factor and one complex exp per row.

W_B is also a real cosine polynomial over the difference set B - B,

    W_B(x) = N^{-2} sum_{b, b'} cos(2 pi (b - b').x)
           = c_0 + sum_j a_j cos(2 pi f_j.x),

with one f_j per pair +-delta of nonzero differences, a_j = 2 c_delta / N^2
for c_delta the number of pairs (b, b') with b - b' = delta, and
c_0 = 1/N (plus 2/N^2 per repeated digit pair).  At the N branch images
tau_l z = M^{-1}(z + l) of an affine view, f_j.tau_l z = g_j.z + g_j.l
with g_j = M^{-t} f_j, so every W(tau_l z) comes from the cosines and
sines of 2 pi g_j.z: one trig pass per state for all N branches
(`_branch_pass`, with the per-view factors of `IfsView.cosine_factors`).
The trig runs on the direct frequencies only; a frequency that is the
sum or difference of two direct ones (on planar-shear (3, +-1) =
(3, 0) +- (0, 1)) takes its cosine and sine from theirs by angle
addition, as products folded into the same coefficient matmul, so
planar-shear runs 4 trig evaluations per state instead of 8.  A `Weight`
is such a polynomial, stored as its data (c0, a, f), and calling it runs
the same pass at given points, on the one-branch view x -> x.
A computed W(tau_l z) below the rounding bound of that pass at the state
z (`_zero_cutoff`, a floor plus a term linear in |z|) is an exact zero.
QMF, sum_l W_B(tau_l z) = 1 on the L-view of a Hadamard
triple, is the unitarity of its duality matrix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ratlinalg import _exp_2pi_i, _over_common_denominator
from .system import AffineSystem, IfsView, _positive_tolerance

__all__ = [
    "Weight",
    "weight_from_digits",
    "chaos_game",
    "MuHatResult",
    "mu_hat",
    "mu_hat_detail",
    "mu_hat_batch",
    "empirical_char",
    "points_to_csv",
]

# a truncated-product factor below this magnitude is an exact zero of mu_hat
EXACT_ZERO_CUTOFF = 1e-13
MAX_FACTORS = 10_000  # the most factors a truncated product of mu_hat may take


def _as_rows(x, d: int, caller: str) -> tuple:
    """(rows, one): the points x as (n, d) float rows, and whether x is one
    point.  A flat array is a d-vector when d > 1, one point per entry when
    d = 1; any other shape raises ValueError."""
    xs = np.asarray(x, dtype=float)
    rows = xs.reshape(-1, 1) if d == 1 and xs.ndim <= 1 else np.atleast_2d(xs)
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ValueError("%s takes rows of d = %d coordinates, got shape %s"
                         % (caller, d, xs.shape))
    return rows, xs.ndim == 0 or (xs.ndim == 1 and d > 1)


@dataclass(frozen=True, eq=False)
class Weight:
    """A nonnegative weight W as a real cosine polynomial,

        W(x) = c0 + sum_j a[j] cos(2 pi f[j].x),

    with a of shape (P,) and f of shape (P, d); P = 0 is the constant c0.
    W is always evaluated analytically, never interpolated: its zeros are
    geometrically critical and interpolation would smear them.  Called at
    points x (as `_as_rows` reads them), it runs `_branch_pass` on the
    one-branch view x -> x.  On an affine view tau_l z = M^{-1}(z + l) the
    polynomial gives W at all N branch images from the cosines and sines
    of its direct frequencies at z alone, without forming the images
    (`_branch_pass`).

    A Weight is a value: a and f are read-only float copies (with no -0.0
    entries), and == and hash compare c0, a, f and the description.
    Raises ValueError unless a is 1-d, f is 2-d and len(a) == len(f).
    """

    c0: float
    a: np.ndarray
    f: np.ndarray
    description: str = ""

    def __post_init__(self):
        a, f = (np.array(v, dtype=float) + 0.0 for v in (self.a, self.f))
        if a.ndim != 1 or f.ndim != 2 or len(a) != len(f):
            raise ValueError("a cosine polynomial takes a of shape (P,) and f of shape (P, d), "
                             "got %s and %s" % (a.shape, f.shape))
        a.flags.writeable = f.flags.writeable = False
        object.__setattr__(self, "c0", float(self.c0))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "f", f)

    def _key(self) -> tuple:
        return self.c0, self.a.tobytes(), self.f.shape, self.f.tobytes(), self.description

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Weight) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return Weight, (self.c0, self.a, self.f, self.description)

    @cached_property
    def _points(self) -> IfsView:
        """The one-branch view x -> x: W at points is its branch pass."""
        d = self.f.shape[1]
        return IfsView("x", np.eye(d), np.zeros((1, d)))

    def __call__(self, x):
        pts, one = _as_rows(x, self.f.shape[1], "a Weight")
        w = _branch_pass(self, self._points, len(pts))(pts)[0]
        return w[0] if one else w


def _cosine_terms(g: np.ndarray, z: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """cos(2 pi g_j.z) for the rows g_j of g and z of z, shape (P, n), and
    below them sin(2 pi g_j.z), from the same cosine pass as
    cos(2 pi (g_j.z - 1/4)), written into `turns`, a (2P, n) buffer.  The
    phases are reduced mod 1 first, so the cosine sees arguments in
    [-pi, pi].  The branch pass gives it the direct rows of
    `IfsView.cosine_factors` only."""
    p = len(g)
    np.matmul(g, z.T, out=turns[:p])
    np.subtract(turns[:p], 0.25, out=turns[p:])
    turns -= np.rint(turns)
    turns *= 2.0 * np.pi
    return np.cos(turns, out=turns)


def _branch_pass(weight: Weight, view: IfsView, n: int):
    """The branch-weight pass for batches of n states: a function of an
    (n, d) array z that writes W(tau_l z) for every digit l and row of z
    into one C-ordered (N, n) buffer and returns it, so each call
    overwrites the result of the last.  It needs z alone, without forming
    the images.  With the view's cosine factors (G, E, left, right, C)
    (`IfsView.cosine_factors`) it runs the trig on the D direct rows of G
    only (`_cosine_terms`), gathers the K pair products of a derived
    frequency's angle addition with one `take` pair and one `multiply`,
    and gives all N weights by one (N, 2D + K) x (2D + K, n) product.
    Real ufuncs only: numpy's SIMD complex multiply would round a batch
    unlike one row.  When no frequency is derived, as for every P = 1
    weight, K = 0 and the pass is the P cosines and P sines of every
    term.  The factors and the buffers are fetched once per pass, not
    once per batch."""
    g, _, left, right, coef = view.cosine_factors(weight.a, weight.f)
    p, k, c0 = len(g), len(left), weight.c0
    terms, out = np.empty((2 * p + k, n)), np.empty((view.n_digits, n))
    trig, products, factors = terms[:2 * p], terms[2 * p:], np.empty((k, n))

    def weights_at(z):
        _cosine_terms(g, z, trig)
        if k:
            trig.take(left, axis=0, out=products, mode="clip")
            trig.take(right, axis=0, out=factors, mode="clip")
            np.multiply(products, factors, out=products)
        np.matmul(coef, terms, out=out)
        return np.add(out, c0, out=out)
    return weights_at


def _branch_weights(weight: Weight, view: IfsView, z: np.ndarray) -> np.ndarray:
    """W(tau_l z) for every digit l and row z of an (n, d) batch, as a new
    C-ordered (N, n) array: one run of `_branch_pass`."""
    return _branch_pass(weight, view, len(z))(z)


def _zero_cutoff(weight: Weight, view: IfsView) -> tuple:
    """(floor, s): a computed W(tau_l z) counts as an exact zero when it is
    below floor + sum_i s_i |z_i|, z the state it is weighed from.

    That is the rounding bound of the evaluation of
    c0 + sum_j a_j cos(2 pi theta_j), theta_j = g_j.z + g_j.l, g_j = M^{-t} f_j
    (the phase of `_branch_pass`).  |theta_j| <= |g_j|.|z| + max_l |g_j.l|,
    and the float phase is off by about eps that many turns, which moves
    a_j cos by 2 pi |a_j| times as much.  Each cosine, product and sum term
    adds about eps |a_j|, and c0 adds eps c0.  A derived term (see
    `IfsView.cosine_factors`) reads the phases of its two direct terms a
    and b, so its z-part is off by eps (|g_a| + |g_b|).|z| turns, and each
    of its two trig values adds its own eps |a_j| (the products add no more
    than a direct term's, as |c_a c_b| + |s_a s_b| <= 1 and
    |s_a c_b| + |c_a s_b| <= 1).  With E the plan of `cosine_factors`,
    n_j = sum_p |E[j, p]| (1 direct, 2 derived) and
    h_j = sum_p |E[j, p]| |g_p| (|g_j| direct, |g_a| + |g_b| derived):

        floor = 4 eps (c0 + sum_j |a_j| (n_j + 2 pi max_l |g_j.l|)),
        s = 8 pi eps sum_j |a_j| h_j  (entrywise |g_p|, one entry per coordinate),

    a first-order bound with a factor 4 to spare, still far below any weight
    a walk could plausibly pick; for a constant weight (P = 0) it is 4 eps c0."""
    g, plan = view.cosine_factors(weight.a, weight.f)[:2]
    eps, a, reach = np.finfo(float).eps, np.abs(weight.a), np.abs(plan)
    turns = np.abs((plan @ g) @ view.digits.T).max(axis=1, initial=0.0)
    floor = 4.0 * eps * (weight.c0 + float(a @ (reach.sum(axis=1) + 2.0 * np.pi * turns)))
    return floor, 8.0 * np.pi * eps * ((a @ reach) @ np.abs(g))


def _cosine_polynomial(b: np.ndarray) -> tuple:
    """(c0, a, f) with |sum_b exp(2 pi i b.x)|^2 / K^2 = c0 + sum_j a_j cos(2 pi f_j.x)
    for the K rows b of an array.  The K diagonal pairs give c0 = 1/K; each
    unordered pair of digits adds 2 cos(2 pi (b - b').x) / K^2, to c0 when
    the digits are equal, else to the frequency +-(b - b'), whose sign is
    fixed by its first nonzero coordinate."""
    k = len(b)
    i, j = np.triu_indices(k, 1)
    delta = b[i] - b[j]
    lead = delta[np.arange(len(delta)), np.argmax(delta != 0, axis=1)]
    delta = np.where(lead[:, None] < 0, -delta, delta)
    freqs, pairs = np.unique(delta[lead != 0], axis=0, return_counts=True)
    return (k + 2.0 * np.count_nonzero(lead == 0)) / k ** 2, 2.0 * pairs / k ** 2, freqs


def weight_from_digits(digits) -> Weight:
    """W_B = |m_B|^2 / N for the digit rows B, as its cosine polynomial."""
    b = np.atleast_2d(np.asarray(digits, dtype=float))
    return Weight(*_cosine_polynomial(b), "|m_B|^2/N")


def chaos_game(view: IfsView, n_samples: int, seed: int, n_streams: int = 1) -> np.ndarray:
    """Sample the invariant measure by random backward iteration.

    i.i.d. uniform digits push forward to mu under the symbol map, so the
    empirical measure of the orbit converges weakly to mu.  Deterministic
    given (seed, n_streams): the seed is split into per-stream children
    and the streams' outputs are concatenated in stream order.

    A stream's orbit from x_0 = 0 is the affine recurrence
    x_k = A x_{k-1} + s_k, with A = M^{-1} and s_k = A b for the k-th drawn
    digit b.  It is evaluated by a doubling scan rather than one step at a
    time: row k starts as s_k, and the pass with lag h adds A^h times row
    k - h to row k, for h = 1, 2, 4, ...  After the pass with lag K/2,
    row k holds sum_{j<K} A^j s_{k-j}.  The scan stops once K reaches the
    stream length or ||A^K||_2 <= eps/4.  What it then drops from row
    k >= K is A^K x_{k-K}, with x_{k-K} an exact orbit point from 0,
    within R = `view.bounding_radius()` of 0.  So truncation moves each
    point by at most (eps/4) R, on top of the rounding of the additions.
    There are log2 K passes, K the first power of two with
    ||A^K||_2 <= eps/4 (`IfsView.power_norms`), even where no step
    contracts: 5 on cantor4, 6 on planar-shear, 7 on twindragon.  The
    points agree with step-by-step iteration to a few ulps of R, not bit
    for bit.
    """
    if n_samples < 1 or n_streams < 1:
        raise ValueError("n_samples and n_streams must be >= 1")
    counts = [n_samples // n_streams] * n_streams
    counts[-1] += n_samples - sum(counts)
    children = np.random.SeedSequence(seed).spawn(n_streams)
    inv_t = view.inv.T
    shifts = view.digits @ inv_t  # tau_i(x) = x @ inv_t + shifts[i]
    stop_norm = np.finfo(float).eps / 4
    chunks = []
    for child, count in zip(children, counts):
        rng = np.random.default_rng(child)
        out = shifts[rng.integers(0, view.n_digits, size=count)]
        power, lag = inv_t, 1
        while lag < count and np.linalg.norm(power, 2) > stop_norm:
            out[lag:] += out[:-lag] @ power
            power, lag = power @ power, 2 * lag
        chunks.append(out)
    return np.concatenate(chunks, axis=0)


@dataclass(frozen=True)
class MuHatResult:
    value: complex
    n_factors: int
    exact_zero: bool
    zero_level: int | None  # k of the vanishing factor, if any

    def __complex__(self):
        return complex(self.value)


def _tail_depth(sys: AffineSystem, t_norms, tail_tol: float | None) -> np.ndarray:
    """Per norm |t|, the smallest K >= 1 with 2 pi max|b| |t| T_K < tail_tol
    (0 for t = 0).  T_K bounds sum_{k>K} |S^{-k}|_2: below h it sums the
    `IfsView.power_norms` past K, from h on it is q = |S^{-h}|_2 times T_{K-h}.
    Raises OverflowError when 2 pi max|b| |t| is not finite, when a depth
    exceeds MAX_FACTORS (naming it) or when `IfsView.power_tail` does."""
    tail_tol = sys.tail_tol if tail_tol is None else _positive_tolerance(tail_tol, "tail_tol")
    norms = sys.l_view.power_norms()
    h, q = len(norms), float(norms[-1])
    tails = norms[::-1].cumsum()[::-1] + sys.l_view.power_tail()  # T_K, K = 0..h-1
    max_b = float(np.max(np.linalg.norm(sys.B, axis=1)))
    with np.errstate(over="ignore", invalid="ignore"):
        x = 2.0 * np.pi * max_b * np.asarray(t_norms, dtype=float)
    if not np.all(np.isfinite(x)):
        raise OverflowError("the tail bound 2 pi max|b| |t| of mu_hat overflows the float "
                            "range (max|b| = %g)" % max_b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the first block j whose last bound x q^j T_{h-1} holds: from logs, made exact
        j = np.maximum(np.ceil(np.log(tail_tol / (x * tails[-1])) / np.log(q)), 0.0)
        j += x * q ** j * tails[-1] >= tail_tol
        j -= (j > 0) & (x * q ** (j - 1) * tails[-1] < tail_tol)
        depth = np.maximum(h * j + ((x * q ** j)[..., None] * tails >= tail_tol).sum(axis=-1), 1)
    depth = np.where(x > 0.0, depth, 0)
    if depth.max(initial=0) > MAX_FACTORS:
        raise OverflowError("the tail bound of mu_hat at 2 pi max|b| |t| = %g needs %.0f "
                            "factors, more than %s" % (x.max(), depth.max(), f"{MAX_FACTORS:,}"))
    return depth.astype(np.int64)


def _truncated_products(depth: np.ndarray, terms, scalar: bool) -> tuple:
    """The one loop over truncated-product levels: row i is prod_{k <= depth[i]}
    m_B(t_k) / sqrt(N), t_k = S^{-k} t_i.  `terms(rows, k)` steps its rows to
    level k and returns (factors, turns): the factors m_B(t_k) / sqrt(N), or
    real factors and the turns of the unit phases pulled out of them (else
    None).  Each row's turns are summed, and its phase is applied once, after
    the loop.  A row stops at its depth or at its first factor below the
    exact-zero cutoff, whose k is its zero_level (else 0).  numpy rounds a
    complex multiply of two or more rows (fused SIMD) unlike one row; `scalar`
    multiplies Python complex numbers instead, so that a row's value does not
    depend on its batch."""
    values = np.ones(len(depth), dtype=object if scalar else complex)
    phase, zero_level = np.zeros(len(depth)), np.zeros(len(depth), dtype=np.int64)
    rows, ends = np.flatnonzero(depth > 0), set(depth.tolist())  # ends: levels rows stop at
    k = 0
    while rows.size:
        k += 1
        live = slice(None) if rows.size == len(depth) else rows  # a view while all rows are
        factors, turns = terms(live, k)
        zero = np.abs(factors) < EXACT_ZERO_CUTOFF
        values[live] *= factors.astype(values.dtype, copy=False)
        if turns is not None:
            phase[live] += turns
        if k in ends or zero.any():
            zero_level[rows[zero]] = k
            rows = rows[~zero & (depth[rows] > k)]
    if phase.any():
        phase -= np.rint(phase)
        values *= np.exp(2j * np.pi * phase).astype(values.dtype, copy=False)
    values[zero_level > 0] = 0j
    return values.astype(complex, copy=False), zero_level


def _float_terms(sys: AffineSystem, pts: np.ndarray):
    """`terms` of `_truncated_products` for float rows: t_k = t_{k-1} S^{-t}.

    For N = 2, m_B(t) / sqrt(2) = exp(pi i s.t) cos(pi delta.t) with s = b0 + b1
    and delta = b1 - b0.  Each level then gives the real factor cos(2 pi h),
    h = delta.t_k / 2 reduced mod 1, and the turns s.t_k / 2, also reduced
    mod 1.  For other N the factor is the mean of exp(2 pi i b.t_k) over the
    digits.  Every row is stepped at every level; only the live rows give
    factors."""
    s_inv_t, tk = sys.l_view.inv.T, np.array(pts, dtype=float)
    if sys.N == 2:
        half = np.stack([sys.B[1] - sys.B[0], sys.B[0] + sys.B[1]]) / 2.0

        def cosines(live, k):
            tk[...] = tk @ s_inv_t
            h, turns = ht = half @ tk[live].T
            ht -= np.rint(ht)
            h *= 2.0 * np.pi
            return np.cos(h, out=h), turns
        return cosines
    sqrt_n = np.sqrt(sys.N)

    def terms(live, k):
        tk[...] = tk @ s_inv_t
        return np.exp(2j * np.pi * (tk @ sys.B.T)[live]).sum(axis=1) / sqrt_n / sqrt_n, None
    return terms


def _exact_terms(sys: AffineSystem, num: np.ndarray, q: int):
    """`terms` for an integer table, rows t = n / q, in integers: with
    A = D S^{-1} and b = beta / e integral, b.t_k = (beta A^k).n / (e q D^k)."""
    (adj, dd), (g, e) = map(_over_common_denominator, (sys.l_view.inv_exact, sys.B_exact))
    sqrt_n = np.sqrt(sys.N)

    def terms(live, k):
        nonlocal g
        g = g @ adj  # beta A^k, shared by every row
        return _exp_2pi_i(num[live] @ g.T, e * q * dd ** k).sum(axis=1) / sqrt_n / sqrt_n, None
    return terms


def _mu_hat_rows(sys: AffineSystem, rows, q: int, tail_tol=None) -> tuple:
    """(values, n_factors, zero_level) at the rows of an integer table of
    numerators over q > 0, each row to its own depth: the exact path, and the
    one form of a point inside the package (Fractions only at its edge).  A
    point is exact, a batch is float: float batches take `mu_hat_batch`."""
    rows = np.asarray(rows, dtype=object).reshape(-1, sys.d)
    tf = (rows / q).astype(float)  # int / int: correctly rounded
    with np.errstate(over="ignore"):  # an infinite norm raises in _tail_depth
        norms = np.sqrt((tf * tf).sum(axis=1))  # = norm(tf, axis=1)
    depth = _tail_depth(sys, norms, tail_tol)
    values, zero_level = _truncated_products(depth, _exact_terms(sys, rows, q), scalar=True)
    return values, np.where(zero_level > 0, zero_level, depth), zero_level


def mu_hat_detail(sys: AffineSystem, t, tail_tol: float | None = None) -> MuHatResult:
    """Truncated-product evaluation of mu_hat_B(t) with exact-zero detection.

    One row of `_truncated_products`.  A point is exact, a batch is float:
    every coordinate of t (int, Fraction, numpy integer or float) is read as
    the rational it is (`Fraction(0.3)` is exact), and
    `ratlinalg._exp_2pi_i` reduces each phase b.t_k mod 1 before the exp,
    so a vanishing factor is hit at machine precision and reported as an
    exact zero.  A NaN coordinate raises ValueError and an infinite one
    OverflowError.  mu_hat(0) = 1; |mu_hat| <= 1.
    """
    row = np.asarray([t], dtype=object).reshape(1, sys.d)
    (value,), (n_factors,), (level,) = _mu_hat_rows(sys, *_over_common_denominator(row), tail_tol)
    return MuHatResult(complex(value), int(n_factors), bool(level), int(level) or None)


def mu_hat(sys: AffineSystem, t, tail_tol: float | None = None) -> complex:
    return mu_hat_detail(sys, t, tail_tol).value


def mu_hat_batch(sys: AffineSystem, ts: np.ndarray, tail_tol: float | None = None,
                 spans=None) -> np.ndarray:
    """Vectorized float-path mu_hat over the rows of ts, all to one depth.

    A point is exact, a batch is float: a single point takes `mu_hat_detail`.
    ts is an (n, d) array.  On a d = 1 system a scalar or a 1-d array gives one
    value per entry; on d > 1 a length-d 1-d array is one row.  Any other
    trailing dimension raises ValueError.  Rows where a factor dips below the
    exact-zero cutoff are set to 0.  `spans`, lengths that sum to n, cuts the
    rows into runs of consecutive rows, each taken to the depth of its own
    largest norm (default: one run).  A row's value is then the one it has
    in a batch of its run alone.  A batch of one row runs as two rows, the
    row twice, as numpy rounds a one-row product otherwise than a batch (on
    N >= 3 the phases, a one-row matmul): a row's value does not depend on
    its batch.

    On N = 2 systems the product is real until one phase per row (see
    `_float_terms`): one cosine per factor, and the zero flag |cos| < cutoff
    is the flag |mean of exp(2 pi i b.t_k)| < cutoff of other N.  The phases
    are reduced mod 1 before the trig, so the values are at least as accurate
    as the complex product of the digit exponentials; the two agree to
    2 eps (depth + 2 pi max|b| |t| T), T = sum_k ||S^{-k}||_2 (`power_norms`)
    (at most 6.5e-15 at |t| <= 57 and 2.2e-13 at |t| <= 5000 over
    20,000 uniform rows of cantor4).  Where the float t_k and h are exact,
    as on the lattice windows of twindragon, a flagged row is an exact zero
    of mu_hat at its float t, and the cosine form flags some that the
    exponentials missed (208 more of the 160,801 rows of
    `lattice_basin_labels(twindragon, radius=40, lattice_scale=5)` at
    x = (0.3, -0.7)).
    """
    pts = _as_rows(ts, sys.d, "mu_hat_batch")[0]
    spans = [len(pts)] if spans is None else [int(n) for n in spans]
    if sum(spans) != len(pts) or min(spans, default=0) < 0:
        raise ValueError("spans must be lengths >= 0 that sum to the %d rows" % len(pts))
    one = len(pts) == 1
    if one:
        pts, spans = np.repeat(pts, 2, axis=0), [2]
    with np.errstate(over="ignore"):  # an infinite norm raises in _tail_depth
        norms = np.linalg.norm(pts, axis=1)
    depth = np.repeat(np.array([_tail_depth(sys, run.max(initial=0.0), tail_tol)
                                for run in np.split(norms, np.cumsum(spans)[:-1])],
                               dtype=np.int64), spans)
    values = _truncated_products(depth, _float_terms(sys, pts), scalar=False)[0]
    return values[:1] if one else values


def empirical_char(points: np.ndarray, t) -> complex:
    """Empirical characteristic value mean exp(2 pi i t.x) of a point cloud."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    return complex(np.exp(2j * np.pi * (pts @ tv)).mean())


def points_to_csv(path, points: np.ndarray) -> None:
    """One row per point, d columns, 17 significant digits."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x%d" % i for i in range(pts.shape[1])])
        for row in pts:
            writer.writerow(["%.17g" % v for v in row])
