"""Per-item references for the package's batched computations.

Each function here computes one item the direct way: one word, one point
or one cycle at a time.  The package computes the same objects in one
batch each (`enumerate_cycles`, `lattice_basin_labels`, the walk of
`pathspace`, `weight_from_digits`), and the tests hold that batch
against these.  `stepping_mu_hat_batch` keeps the float product of
`mu_hat_batch` as it was computed before the phase directions: t_k
stepped level by level.  None of this is shipped in `ifsfourier`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ifsfourier import AffineSystem, Cycle, LatticeError, IfsView, PathEnsemble, Weight
from ifsfourier.cycles import _lyndon_ranks, _words
from ifsfourier.measure import (EXACT_ZERO_CUTOFF, _as_rows, _gaussian_tail, _head_levels,
                                _tail_depth, _tail_level)
from ifsfourier.pathspace import _cut_pass
from ifsfourier.ratlinalg import (_over_common_denominator, as_fraction, identity_rational,
                                  mat_inverse, mat_pow)
from ifsfourier.spectrum import _horner
from ifsfourier.system import frac_str, fvec


# --- exact linear algebra and cycles -------------------------------------------

def tau(view: IfsView, digit_index: int, x) -> tuple:
    """Apply one inverse branch exactly: the point x (a scalar or a d-vector
    of ints, Fractions or floats, each read as the rational it is) maps to
    the tuple of Fractions matrix^{-1}(x + digit), the exact one-point form
    of `IfsView.tau_all`.  Raises ValueError on a view without exact
    mirrors, as `IfsView.expand` does."""
    if view.matrix_exact is None:
        raise ValueError("exact branches need rational view data")
    xe = np.array(fvec(np.ravel(np.asarray(x, dtype=object))), dtype=object)
    de = np.array(view.digits_exact[digit_index], dtype=object)
    return tuple(view.inv_exact @ (xe + de))


def rational_vector(entries) -> np.ndarray:
    """Build a 1-d object array of Fractions."""
    return np.array([as_fraction(e) for e in entries], dtype=object)


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


def aperiodic_necklaces(n_letters: int, p: int):
    """Canonical representatives of rotation classes of aperiodic length-p
    words over {0..n_letters-1}, in lexicographic order: the words of the
    ranks `enumerate_cycles` keeps."""
    yield from _words(_lyndon_ranks(n_letters, p), n_letters, p)


def cycle_from_word(sys: AffineSystem, word) -> Cycle:
    """Exact cycle for one word, the per-word reference of
    `enumerate_cycles`: solves for the fixed point, walks its orbit with
    `tau` and validates the p-fold round trip exactly.  The cycle carries
    no W verdict (is_w_cycle None)."""
    word = tuple(int(i) for i in word)
    m = mat_pow(sys.S_exact, len(word)) - identity_rational(sys.d)
    rhs = np.array(_horner(sys.l_view, word, [Fraction(0)] * sys.d), dtype=object)
    points = [fvec(solve_exact(m, rhs))]
    for idx in word:
        points.append(fvec(tau(sys.l_view, idx, points[-1])))
    if points.pop() != points[0]:
        raise AssertionError("cycle round trip failed for word %s" % (word,))
    return Cycle(word=word, period=len(word), points=tuple(points))


def rotations(cycle: Cycle):
    """All rotations of the cycle's word with matching base points: rotation
    r starts the orbit at points[r]."""
    p = cycle.period
    for r in range(p):
        yield tuple(cycle.word[(r + i) % p] for i in range(p)), cycle.points[r]


# --- the digit symbol and path weights -----------------------------------------

def m_eval(digits, x) -> complex | np.ndarray:
    """Exponential sum N^{-1/2} sum_b exp(2 pi i b.x); |m_eval| <= sqrt(N).

    Vectorized over a batch of points: x may be a scalar or a flat array
    (d = 1), a d-vector, or an (n, d) array (see `measure._as_rows`).
    """
    b = np.atleast_2d(np.asarray(digits, dtype=float))
    pts, one = _as_rows(x, b.shape[1], "m_eval")
    vals = np.exp(2j * np.pi * (pts @ b.T)).sum(axis=1) / np.sqrt(len(b))
    return complex(vals[0]) if one else vals


def stepping_mu_hat_batch(sys: AffineSystem, ts, tail_tol=None) -> np.ndarray:
    """`mu_hat_batch` of one run by stepping t_k = t_{k-1} S^{-t} (`tk @ s_inv_t`)
    at every level down to the head level K of `_head_levels`, then the
    closed-form tail at t_K.  On N = 2 each factor is cos(2 pi h),
    h = delta.t_k / 2 reduced mod 1 (delta = b1 - b0), and the turns
    s.t_k / 2 (s = b0 + b1) of its unit phase, also reduced, are summed per
    row; on other N the factor is the complex mean of exp(2 pi i b.t_k) over
    the digits.  A row stops at its first factor below the exact-zero
    cutoff and is set to 0."""
    pts = np.atleast_2d(np.asarray(ts, dtype=float))
    top = float(np.linalg.norm(pts, axis=1).max(initial=0.0))
    depth = int(_tail_depth(sys, top, tail_tol))
    head = int(_head_levels(sys, top, depth))
    s_inv_t, tk, rows = sys.l_view.inv.T, pts.copy(), np.arange(len(pts))
    sqrt_n = np.sqrt(sys.N)
    values = np.ones(len(pts), dtype=float if sys.N == 2 else complex)
    phase = np.zeros(len(pts))
    half = np.stack([sys.B[1] - sys.B[0], sys.B[0] + sys.B[1]]) / 2.0 if sys.N == 2 else None
    for _ in range(head):
        tk = tk @ s_inv_t
        if half is not None:
            h, turns = ht = half @ tk[rows].T
            ht -= np.rint(ht)
            factors = np.cos(2.0 * np.pi * h)
            phase[rows] += turns
        else:
            factors = np.exp(2j * np.pi * (tk[rows] @ sys.B.T)).sum(axis=1) / sqrt_n / sqrt_n
        values[rows] *= factors
        rows = rows[np.abs(factors) >= EXACT_ZERO_CUTOFF]
    if depth > head:
        scale, turns = _gaussian_tail(tk[rows].T, *_tail_level(sys, depth - head)[:2])
        values[rows] *= scale
        phase[rows] += turns
    values = values * np.exp(2j * np.pi * (phase - np.rint(phase)))
    values[np.isin(np.arange(len(pts)), rows, invert=True)] = 0j
    return values


def _word_weights(weight: Weight, view: IfsView, x, word) -> tuple:
    """(states, w): the states z_1..z_n along a word (digit indices, first
    applied first) and W(z_k), read as the walk reads it at z_{k-1}: its move
    (d_l + z) M^{-t}, then one `_cut_pass` over z_0..z_{n-1}."""
    word = np.asarray(word, dtype=np.intp)
    n, inv_t = len(word), view.inv.T
    z = np.empty((n + 1, view.d))
    z[0] = np.asarray(x, dtype=float).reshape(view.d)
    for k, idx in enumerate(word):
        z[k + 1] = (view.digits[idx] + z[k]) @ inv_t
    return z[1:], _cut_pass(weight, view)(z[:-1])[word, np.arange(n)]


def cylinder_weight(weight: Weight, view: IfsView, x, word) -> float:
    """prod_k W(z_k) along the word; in [0, 1] under QMF; empty word -> 1."""
    return float(np.prod(_word_weights(weight, view, x, list(word))[1]))


def cylinder_frequency(ens: PathEnsemble, word) -> float:
    """Empirical frequency of a prefix cylinder among sampled paths, the
    estimate of `cylinder_weight`."""
    word = np.asarray(list(word), dtype=ens.words.dtype)
    if len(word) > ens.length:
        raise ValueError("cylinder longer than the sampled paths")
    return float(np.mean(np.all(ens.words[:, : len(word)] == word, axis=1)))


def cycle_tail_weight(weight: Weight, view: IfsView, z, cycle: Cycle,
                      tol: float = 1e-12, max_blocks: int = 1024) -> float:
    """prod of W over endless repetitions of the cycle word starting at z.

    Converges because the states spiral into the W-cycle where W = 1;
    iteration stops once the largest |1 - W| of a block, times the
    sum_{j>=0} |M^{-jp}|_2 of `IfsView.power_norms` (p the period), is < tol.
    """
    product = 1.0
    norms = view.power_norms()
    power_sum = 1.0 + float(norms[cycle.period - 1::cycle.period].sum()) + view.power_tail()
    for _ in range(max_blocks):
        states, w = _word_weights(weight, view, z, cycle.word)
        product *= float(np.prod(w))
        if product == 0.0:
            return 0.0
        z = states[-1]
        dev = float(np.max(np.abs(1.0 - w)))
        if dev * power_sum < tol:
            break
    return product


def path_weight_with_tail(weight: Weight, view: IfsView, x, word, cycle: Cycle,
                          tol: float = 1e-12) -> float:
    """P_x of the single infinite path (word, then cycle repeated forever).

    `word` may be any iterable, a one-shot iterator included."""
    word = list(word)
    if not word:
        return cycle_tail_weight(weight, view, x, cycle, tol)
    states, w = _word_weights(weight, view, x, word)
    prefix = float(np.prod(w))
    if prefix == 0.0:
        return 0.0
    return prefix * cycle_tail_weight(weight, view, states[-1], cycle, tol)


# --- lattice basins ------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BasinResult:
    cycle: Cycle | None
    steps: int
    orbit: tuple

    @property
    def found(self) -> bool:
        return self.cycle is not None


def cycle_basin(sys: AffineSystem, x, w_cycles, max_steps: int = 256,
                lattice_scale=None) -> BasinResult:
    """Follow one orbit of the lattice endomorphism R_L(S y - l) = y: the
    per-point reference of `lattice_basin_labels`.

    R_L maps a lattice point z to S^{-1}(z + l) for the unique digit l
    keeping the image on the lattice; the branch map is written out in
    Fractions for every digit.  Orbits are eventually periodic, and the
    result reports which supplied W-cycle the orbit enters, after how many
    moves (or none within max_steps).  The lattice is (1/q) Z^d with q
    inferred from x unless given.  Raises LatticeError at an orbit point
    with no unique lattice image.
    """
    pt = fvec([x] if isinstance(x, (int, float, Fraction)) else x)
    q = _over_common_denominator(pt)[1] if lattice_scale is None else int(lattice_scale)
    s_inv = sys.l_view.inv_exact
    l_vecs = [np.array(l, dtype=object) for l in sys.L_exact]
    point_to_cycle = {p: cyc for cyc in w_cycles for p in cyc.points}
    orbit, current = [pt], pt
    for step in range(max_steps + 1):
        if current in point_to_cycle:
            return BasinResult(point_to_cycle[current], step, tuple(orbit))
        images = [tuple(s_inv @ (np.array(current, dtype=object) + l)) for l in l_vecs]
        candidates = [y for y in images if all((c * q).denominator == 1 for c in y)]
        if len(candidates) != 1:
            raise LatticeError(
                "point %s has %d lattice representations S y - l (expected 1)"
                % (frac_str(current), len(candidates)))
        current = candidates[0]
        orbit.append(current)
    return BasinResult(None, max_steps, tuple(orbit))
