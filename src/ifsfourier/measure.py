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
in floats, one factor at a time only down to a head level K
(`_head_levels`).  Past K every phase 2 pi (b - bbar).t_k is tiny (bbar the
mean digit), so each factor is exp(2 pi i bbar.t_k - 2 pi^2 t_k.Sigma_B t_k)
up to its first neglected cumulant (Sigma_B the covariance of the digits),
and the factors K+1..D multiply to one Gaussian closed form in t_K,

    exp(2 pi i u_r.t_K - 2 pi^2 t_K.Q_r t_K),  r = D - K,
    u_r = sum_{j<=r} S^{-jt} bbar,  Q_r = sum_{j<=r} S^{-jt} Sigma_B S^{-j},

with u_r and Q_r cached on the system.  K is the least level at which the
closed form moves the product by at most eps, never past the depth D.
No float row steps t_k: (b - bbar).t_k = g.t along the phase direction
g = S^{-kt} (b - bbar), cached on the system per level with u_r and Q_r
(`_tail_level`).  When B is symmetric about bbar (every two-digit set and
every registry system) each factor is real up to a unit phase,

    m_B(t_k) / sqrt(N) = exp(2 pi i bbar.t_k) ((2/N) sum_j cos(2 pi g_{k,j}.t) + n0/N),

over one deviation of each +- pair (n0 the digits equal to bbar), so
mu_hat(t) = exp(2 pi i u_D.t) times a real product (Strichartz's form of
the product, on N = 2 one cosine per factor): the head's turns u_K.t are
taken once per row, and one complex exp per row applies the phase.

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


def _power_tails(view: IfsView) -> np.ndarray:
    """T_K = sum_{k>K} |S^{-k}|_2 for K = 0..h-1, h = len(`IfsView.power_norms`):
    the norms past K plus `IfsView.power_tail`."""
    return view.power_norms()[::-1].cumsum()[::-1] + view.power_tail()


def _tail_depth(sys: AffineSystem, t_norms, tail_tol: float | None) -> np.ndarray:
    """Per norm |t|, the smallest K >= 1 with 2 pi max|b| |t| T_K < tail_tol
    (0 for t = 0).  T_K bounds sum_{k>K} |S^{-k}|_2: below h it sums the
    `IfsView.power_norms` past K, from h on it is q = |S^{-h}|_2 times T_{K-h}.
    Raises OverflowError when 2 pi max|b| |t| is not finite, when a depth
    exceeds MAX_FACTORS (naming it) or when `IfsView.power_tail` does."""
    tail_tol = sys.tail_tol if tail_tol is None else _positive_tolerance(tail_tol, "tail_tol")
    norms = sys.l_view.power_norms()
    h, q = len(norms), float(norms[-1])
    tails = _power_tails(sys.l_view)
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


def _tail_level(sys: AffineSystem, r: int) -> tuple:
    """Entry r, (u_r, Q_r, S^{-r}, G_r), of `AffineSystem._tail_sums`: the
    system's cache extended up to r if it is shorter, in one loop for all
    four.  Each level multiplies by S^{-1} rounded from its Fractions
    (`AffineSystem._tail_steps`; `np.linalg.inv` may miss a dyadic entry by
    an ulp), the directions in the precision of the deviations c
    (`AffineSystem._digit_moments`): where S^{-1} and c are dyadic, as on
    every registry system, the directions stay exact until their bits run
    out."""
    sums = sys._tail_sums
    if len(sums) <= r:
        bbar, cov = sys._digit_moments[:2]
        step, extended = sys._tail_steps[:2]
        u, q, p, g = sums[-1]
        turn = step if g.dtype == float else extended
        while len(sums) <= r:
            p, g = step @ p, g @ turn
            u, q = u + p.T @ bbar, q + p.T @ cov @ p
            sums.append((u, q, p, g))
    return sums[r]


def _head_levels(sys: AffineSystem, t_norms, depth) -> np.ndarray:
    """Per norm |t| with depth D (`_tail_depth`), the head level K <= D of the
    float product: factors 1..K are multiplied one by one, and K+1..D enter
    at once as the closed-form tail (`_gaussian_tail`).

    Write m_B(t_j) / sqrt(N) = exp(2 pi i bbar.t_j) E exp(i Y_j), with
    Y_j = 2 pi (b - bbar).t_j over the digits b.  Past K every |Y_j| is at
    most phi_K = x sup_{j>K} |S^{-j}|_2, x = 2 pi rho |t|
    (`AffineSystem._digit_moments`), and E exp(i Y) is exp(-E Y^2 / 2) up to
    phi^m / 4, m the first neglected cumulant (the third, or on a B
    symmetric about bbar the fourth).  Factors of modulus at most 1 move a
    product by at most the sum of their errors, so the tail is off by at most
    sum_{j>K} phi_j^m / 4 <= phi_K^(m-1) x T_K / 4 (`_power_tails`).  K is
    the least level >= 1 where that is at most eps, and D where no level
    below h = len(`power_norms`) qualifies."""
    rho, m = sys._digit_moments[2:4]
    norms = sys.l_view.power_norms()
    sup = np.maximum(np.maximum.accumulate(norms[::-1])[::-1], sys.l_view.power_tail())
    x = 2.0 * np.pi * rho * np.asarray(t_norms, dtype=float)[..., None]
    with np.errstate(over="ignore"):
        fits = (x * sup) ** (m - 1) * (x * _power_tails(sys.l_view)) <= 4.0 * np.finfo(float).eps
    head = np.where(fits.any(axis=-1), np.maximum(np.argmax(fits, axis=-1), 1), depth)
    return np.minimum(head, depth)


def _truncated_products(depth: np.ndarray, dtype, terms, finish=None) -> tuple:
    """The one loop over truncated-product levels: row i is prod_{k <= depth[i]}
    m_B(t_k) / sqrt(N), t_k = S^{-k} t_i, held in an array of `dtype`.
    `terms(live, k)` gives the level-k factors of the live rows (an index
    array, or a full slice while every row is live): m_B(t_k) / sqrt(N), or
    those factors with a unit phase pulled out, which `finish` then supplies.
    A row stops at its depth or at its first factor below the exact-zero
    cutoff, whose k is its zero_level (else 0); a row that stops at a zero
    costs nothing more.  `finish(at, k)`, if given, takes the rows that
    reach their depth k (an index array, or a full slice) and returns a real
    scale per row (or None for none) and its turns: the scale multiplies the
    real and imaginary parts of the row's value, and the phase of the turns
    is applied once, after the loop (`_float_terms`).  numpy rounds a
    complex multiply of two or more rows (fused SIMD) unlike one row; the
    exact path's dtype object multiplies Python complex numbers instead, so
    that a row's value does not depend on its batch."""
    values = np.ones(len(depth), dtype=dtype)
    phase, zero_level = np.zeros(len(depth)), np.zeros(len(depth), dtype=np.int64)
    rows, ends = np.flatnonzero(depth > 0), set(depth.tolist())  # ends: levels rows stop at
    k, every = 0, slice(None)  # one slice, so that `terms` sees the live rows unchanged
    while rows.size:
        k += 1
        live = every if rows.size == len(depth) else rows  # a view while all rows are
        factors = terms(live, k)
        zero = np.abs(factors) < EXACT_ZERO_CUTOFF
        values[live] *= factors.astype(dtype, copy=False)
        if k in ends or zero.any():
            zero_level[rows[zero]] = k
            rows = rows[~zero]
            end = depth[rows] == k
            if finish is not None and end.any():
                # a view while all rows end here
                at = slice(None) if end.size == len(depth) and end.all() else rows[end]
                scale, turns = finish(at, k)
                if scale is not None:
                    values.view(float).reshape(len(depth), -1)[at] *= scale[:, None]  # (re, im)
                phase[at] += turns
            rows = rows[~end]
    if phase.any():  # one complex array: a real product turns complex here
        phase -= np.rint(phase)
        unit = np.multiply(2j * np.pi, phase)
        values = np.multiply(values, np.exp(unit, out=unit), out=unit)
    values = values.astype(complex, copy=False)
    values[zero_level > 0] = 0j
    return values, zero_level


def _dot(m: np.ndarray, x: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """m @ x into out, for an (r, d) m and points x given as d coordinate rows
    of shape (d, n): one elementwise multiply-add per coordinate (no matmul),
    so that a point's value does not depend on the other points.  spare is
    scratch of out's shape."""
    np.multiply(m[:, :1], x[0], out=out)
    for a in range(1, len(x)):
        out += np.multiply(m[:, a:a + 1], x[a], out=spare)
    return out


def _turns(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """u.x reduced mod 1 to [-1/2, 1/2], as floats, at the points x given as d
    coordinate rows of shape (d, n): summed in long double, elementwise, as
    |u.x| may be far above 1 before it is reduced.  The long doubles are
    formed 8192 points at a time, to bound their memory."""
    out, block = np.empty(x.shape[1]), 8192
    for lo in range(0, x.shape[1], block):
        turns = np.zeros(min(block, x.shape[1] - lo), dtype=np.longdouble)
        for ua, xa in zip(u, x[:, lo:lo + block]):
            turns += xa * ua
        turns -= np.rint(turns)
        out[lo:lo + block] = turns
    return out


def _gaussian_tail(x: np.ndarray, u: np.ndarray, q: np.ndarray, turns=None) -> tuple:
    """(exp(-2 pi^2 x.Q x), u.x) at the points x, given as d coordinate rows
    of shape (d, n), coordinate by coordinate with elementwise ufuncs (no
    matmul), so that a point's value does not depend on the other points.
    Given `turns`, u.x is added into it."""
    quad, term = np.zeros(x.shape[1]), np.empty(x.shape[1])
    turns = np.zeros(x.shape[1]) if turns is None else turns
    for a, xa in enumerate(x):
        turns += np.multiply(xa, u[a], out=term)
        for b, xb in enumerate(x):
            np.multiply(xa, xb, out=term)
            quad += np.multiply(term, q[a, b], out=term)
    quad *= -2.0 * np.pi ** 2
    return np.exp(quad, out=quad), turns


def _float_terms(sys: AffineSystem, pts: np.ndarray, ends=None, rest=None) -> tuple:
    """(dtype, terms, finish) of `_truncated_products` for float rows t.

    With bbar the mean digit, m_B(t_k) / sqrt(N) is exp(2 pi i bbar.t_k) times
    the mean over the digits of exp(2 pi i (b - bbar).t_k), and
    (b - bbar).t_k = g_{k,j}.t along the phase direction g_{k,j} = S^{-kt} c_j
    of each deviation c_j (`AffineSystem._digit_moments`), cached on the
    system (`_tail_level`).  So no row steps t_k: level k gives each live row
    its phases g_{k,j}.t, one elementwise multiply-add per coordinate,
    reduced mod 1 before the cosine.  When B is symmetric about bbar, c holds
    one deviation of each +- pair and the factor is real,

        (2 / N) sum_j cos(2 pi g_{k,j}.t) + n0 / N,  n0 = #{b = bbar},

    so the product stays real (dtype float) until the phase.  Otherwise c
    holds every nonzero deviation, and the factor is the complex mean of
    exp(2 pi i g_{k,j}.t), its sines the cosines of the phases less 1/4.  The
    unit phases of levels 1..K multiply to exp(2 pi i u_K.t): `finish` takes
    those turns once per row, reduced mod 1, where the row reaches its head
    level K, as
    u_K.t = v.t - (S^{-Kt} v).t with v = (S^t - I)^{-1} bbar
    (`AffineSystem._tail_steps`): v.t, which reaches |v| |t| turns before it
    is reduced, in long double (`_turns`), and the small second term in
    floats.

    The rows come in runs, run j ending before row ends[j].  `rest[j]` is the
    number r of factors its rows take in closed form past the head level K
    they are given in `_truncated_products`: the product of
    m_B(S^{-j} t_K) / sqrt(N) over j <= r is
    exp(2 pi i u_r.t_K - 2 pi^2 t_K.Q_r t_K) up to the bound of
    `_head_levels`, a real scale and turns (`_gaussian_tail`), taken at t
    itself: with P = S^{-K}, the cached power, u_r.t_K = (P^t u_r).t and
    t_K.Q_r t_K = t.(P^t Q_r P) t.  Without a positive rest `finish` gives
    no scale."""
    m, n0, c = sys._digit_moments[3], sys._digit_moments[5], sys._tail_sums[0][3]
    symmetric, p, n, extended = m == 4, len(c), len(pts), c.dtype != float
    width = p if symmetric else 2 * p  # the phases, then those of the sines
    weight, base = (2.0 if symmetric else 1.0) / sys.N, n0 / sys.N
    cols = np.array(pts.T, dtype=float)  # the coordinates of t, one row each
    phases, spare = np.empty((width, n), dtype=c.dtype), np.empty((width, n), dtype=c.dtype)
    trigs = np.empty((width, n)) if extended else phases  # long double phases end as floats
    points, last, views = cols.astype(c.dtype, copy=False), None, None
    v = sys._tail_steps[2]

    def total(rows, offset):
        """(offset + rows_0) + rows_1 + ..., summed into rows_0."""
        out = rows[0]
        if offset:
            out += offset
        for row in rows[1:]:
            out += row
        return out

    def terms(live, k):
        nonlocal last, views
        if live is not last:  # the live rows changed: gather them, cut the buffers to them
            cur = points if isinstance(live, slice) else points[:, live]
            size = cur.shape[1]
            turns, scratch, trig = phases[:, :size], spare[:, :size], trigs[:, :size]
            views, last = (cur, turns, scratch, trig, turns[:p], scratch[:p],
                           list(trig[:p]), list(trig[p:])), live
        cur, turns, scratch, trig, phase, spare_p, cosines, sines = views
        _dot(_tail_level(sys, k)[3], cur, phase, spare_p)
        if not symmetric:
            np.subtract(phase, 0.25, out=turns[p:])
        turns -= np.rint(turns, out=scratch)
        if extended:
            trig[...] = turns
        trig *= 2.0 * np.pi
        np.cos(trig, out=trig)
        trig *= weight
        real = total(cosines, base)
        if symmetric:
            return real
        factors = np.empty(len(real), dtype=complex)
        factors.real, factors.imag = real, total(sines, 0.0)
        return factors

    def finish(at, k):
        power = _tail_level(sys, k)[2]
        t = cols if isinstance(at, slice) else cols[:, at]
        turns = _turns(v, t)  # u_K.t = v.t - (S^{-Kt} v).t, the second term small
        turns -= _dot((power.T @ v).astype(float)[None], t, np.empty((1, t.shape[1])),
                      np.empty((1, t.shape[1])))[0]
        turns -= np.rint(turns)
        if rest is None or not rest.any():
            return None, turns
        lengths = (rest if len(rest) == 1 else
                   rest[np.searchsorted(ends, np.arange(n)[at], side="right")])
        scale = np.ones(t.shape[1])
        for r in sorted(set(lengths.tolist()) - {0}):  # np.unique would import numpy.ma
            mine = slice(None) if len(lengths) == 1 else lengths == r
            u_r, q_r = _tail_level(sys, r)[:2]  # in t_K = S^{-K} t, carried to t
            scale[mine], turns[mine] = _gaussian_tail(t[:, mine], power.T @ u_r,
                                                      power.T @ q_r @ power, turns[mine])
        return scale, turns
    return (float if symmetric else complex), terms, finish


def _exact_terms(sys: AffineSystem, num: np.ndarray, q: int) -> tuple:
    """(object, terms) of `_truncated_products` for an integer table, rows
    t = n / q, in integers: with A = D S^{-1} and b = beta / e integral,
    b.t_k = (beta A^k).n / (e q D^k).  The factors are multiplied as Python
    complex numbers."""
    (adj, dd), (g, e) = map(_over_common_denominator, (sys.l_view.inv_exact, sys.B_exact))
    sqrt_n = np.sqrt(sys.N)

    def terms(live, k):
        nonlocal g
        g = g @ adj  # beta A^k, shared by every row
        return _exp_2pi_i(num[live] @ g.T, e * q * dd ** k).sum(axis=1) / sqrt_n / sqrt_n
    return object, terms


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
    values, zero_level = _truncated_products(depth, *_exact_terms(sys, rows, q))
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
    an asymmetric digit set, a complex multiply): a row's value does not
    depend on its batch.

    A run multiplies its factors one by one down to its head level K, the
    least level at which the rest of the product, factors K+1 to the depth,
    is the Gaussian closed form of `_head_levels` to within eps; then it
    multiplies in that form at once.  The closed form has modulus near 1, so
    which rows read 0 is decided by the head factors alone, as in the
    per-level product.  No row steps t_k (see `_float_terms`): each level
    reads the phases of its live rows along the directions cached on the
    system, and rows flagged zero drop out.  On a digit set symmetric about
    its mean the product is real until one phase per row, whose head turns
    are taken once per row: the zero flag is |sum of cosines| < cutoff,
    where other sets flag |mean of exp(2 pi i g.t)| < cutoff.  The phases
    are reduced mod 1 before the trig, so the values are at least as
    accurate as the complex product of the digit exponentials, factor by
    factor to the depth; on every N the two agree to
    2 eps (depth + 2 pi max|b| |t| T), T = sum_k ||S^{-k}||_2 (`power_norms`),
    the tail's eps included (at most 6.6e-15 at |t| <= 57 and 2.9e-13 at
    |t| <= 5000 over 20,000 uniform rows of cantor4, of which the tail moves
    1.5e-15).  Where the float directions are exact, as on the lattice
    windows of twindragon, a flagged row is an exact zero of mu_hat at its
    float t, and the cosine form flags some that the exponentials missed
    (239 more of the 160,801 rows of
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
        tops = [run.max(initial=0.0)
                for run in np.split(np.linalg.norm(pts, axis=1), np.cumsum(spans)[:-1])]
    depth = np.array([_tail_depth(sys, top, tail_tol) for top in tops], dtype=np.int64)
    head = _head_levels(sys, tops, depth)
    terms = _float_terms(sys, pts, np.cumsum(spans), depth - head)
    values = _truncated_products(np.repeat(head, spans), *terms)[0]
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
