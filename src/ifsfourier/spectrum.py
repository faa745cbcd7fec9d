"""Candidate Fourier spectra for mu_B and their verification.

The candidate spectrum Lambda is the smallest set containing -C for every
W-cycle C and closed under x -> S x + l, l in L.  `_closure` builds it
level-nested, Z_0 = -C and Z_k = Z_{k-1} u expand(Z_{k-1}), with an element
cap and a level cap (both reported).  Lambda_n is also the set of k-points
over W-cycles C (all rotations) and words omega of n letters,

    k(omega) = omega_0 + S omega_1 + ... + S^{n-1} omega_{n-1} - S^n x_C,

since each seed -x_C is the image S(-x_C') + l of the seed of the next
rotation C'.  The closure gives Lambda from all W-cycles
(`generate_lambda`) and Lambda_n(C) from one, the frequencies of the
closed-form h_C of `pathspace`.  Each level is one sorted integer table of
distinct rows over one q, in the dtype of `ratlinalg._table_dtype`.
`k_point` gives one frequency by Horner's rule (`_horner`).

Orthogonality of the e_lambda is certified by an exactly vanishing factor
of mu_hat_B(lambda - lambda'); completeness is probed through Parseval
sums sum_lambda |mu_hat_B(x + lambda)|^2 <= 1 (`_parseval_terms`).

In the Lebesgue case (N = |det S|) the k-points of a W-cycle are the
negated basin of its points under the lattice endomorphism R_L, the one
y -> S^{-1}(y + l) that stays on the lattice (Dutkay-Jorgensen, Fourier
frequencies in affine iterated function systems, JFA 2007): the closure
of the cycle under y -> S y - l, run in int64 by `lattice_basin_labels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cycles import Cycle
from .measure import _mu_hat_rows, mu_hat_batch, mu_hat_detail
from .ratlinalg import (_from_common_denominator, _lex_order, _max_abs,
                        _over_common_denominator, _table_dtype)
from .report import write_csv
from .system import AffineSystem, frac_str, fvec

__all__ = [
    "SpectrumSet",
    "generate_lambda",
    "k_point",
    "GramReport",
    "verify_orthogonality",
    "completeness_sum",
    "GridOrthogonality",
    "grid_orthogonality",
    "LatticeError",
    "lattice_basin_labels",
    "lattice_basin_sums",
]

ELEMENT_CAP = 100_000  # the default cap on the elements of one closure
GRID_DENOM = 4  # `grid_orthogonality` works on the grid (1/GRID_DENOM) Z


@dataclass(frozen=True, eq=False)
class SpectrumSet:
    """Lambda through `level` as its integer table: distinct read-only rows
    over q > 0, ascending, in the dtype of `ratlinalg._table_dtype`.
    Tuples and Fractions are formed only when read."""

    rows: np.ndarray  # (n, d)
    q: int
    level: int
    seed_rows: np.ndarray  # the seeds -x over q
    cap_hit: bool = False

    @cached_property
    def elements(self) -> frozenset:  # of fvec tuples, formed on first read
        return frozenset(_from_common_denominator(self.rows, self.q))

    @cached_property
    def seeds(self) -> frozenset:  # of fvec tuples, formed on first read
        return frozenset(_from_common_denominator(self.seed_rows, self.q))

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def smallest(self, count: int | None = None) -> list:
        """The least `count` >= 0 elements (all for None), ascending, as fvec tuples."""
        if count is not None and count < 0:
            raise ValueError("count must be >= 0")
        return _from_common_denominator(self.rows[:count], self.q)

    def smallest_nonnegative_1d(self, count: int) -> list:
        """The least `count` >= 0 nonnegative elements (d = 1), ascending, as Fractions."""
        if self.d != 1:
            raise ValueError("smallest_nonnegative_1d needs d = 1, got d = %d" % self.d)
        if count < 0:
            raise ValueError("count must be >= 0")
        first = self.rows[:, 0]
        return [Fraction(v, self.q) for v in first[first >= 0][:count].tolist()]

    def to_csv(self, path) -> None:
        write_csv(path, ["l%d" % i for i in range(self.d)],
                  ([v / self.q for v in row] for row in self.rows.tolist()))


def generate_lambda(
    sys: AffineSystem,
    w_cycles,
    levels: int,
    element_cap: int = ELEMENT_CAP,
) -> SpectrumSet:
    """Lambda through `levels`: the closure (`_closure`) of the negated
    points of all W-cycles, with at most `element_cap` elements.  Requires
    0 in B and 0 in L (the standing normalization for the spectral
    pipeline)."""
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if not sys.zero_in_digits():
        raise ValueError("spectrum generation requires 0 in B and 0 in L")
    if not w_cycles:
        raise ValueError("no W-cycles supplied: the seed set is empty")
    return _closure(sys, [pt for cyc in w_cycles for pt in cyc.points], levels, element_cap)


def _closure(sys: AffineSystem, points, levels: int, element_cap: int | None = None) -> SpectrumSet:
    """Closure of Z_0 = {-x : x in points} under x -> S x + l, level-nested:
    Z_k = Z_{k-1} u expand(Z_{k-1}), the union of the first k expansions.
    When a round would pass `element_cap`, only its least new rows that fit
    are kept and the closure stops there, complete through the round before
    (`level`; 0 when the seeds alone fill the cap)."""
    num, q0 = _over_common_denominator(np.array(points, dtype=object).reshape(-1, sys.d))
    num = -num.astype(_table_dtype(_max_abs(num)))
    order, first = _lex_order(num)
    rows = seeds = num[order[first]]
    q = q0
    level, cap_hit = levels, False
    for done in range(levels):
        images, q_next = sys.l_view.expand(rows, q)
        # fits: q_next / q = D scale, D < |A|_inf as S is expansive
        union = np.concatenate([rows.astype(images.dtype) * (q_next // q), images])
        order, first = _lex_order(union)
        kept = order[first]
        if element_cap is not None and len(kept) > element_cap:
            level, cap_hit = done, True
            new = kept >= len(rows)
            kept = kept[~new | (np.cumsum(new) <= element_cap - len(rows))]
        grew = len(kept) > len(rows)
        rows, q = union[kept], q_next
        if cap_hit or not grew:
            break
    seeds = seeds.astype(rows.dtype) * (q // q0)  # rows of the table
    rows.flags.writeable = seeds.flags.writeable = False
    return SpectrumSet(rows=rows, q=q, level=level, seed_rows=seeds, cap_hit=cap_hit)


def _horner(view, word, start) -> tuple:
    """sum_j M^j d_{w_j} + M^{|w|} start for one word on a view (matrix M,
    digits d), exactly: |w| steps of x -> M x + d, last letter first."""
    acc = np.array(start, dtype=object)
    for idx in reversed(word):
        acc = view.matrix_exact @ acc + np.array(view.digits_exact[idx], dtype=object)
    return tuple(acc)


def k_point(sys: AffineSystem, cycle: Cycle, omega) -> tuple:
    """Exact frequency attached to (word omega, infinite cycle repetition):

        k(omega) = sum_j S^j omega_j - S^{|omega|} x_0,

    |omega| a multiple of the cycle period (the empty word gives -x_0).
    """
    omega = tuple(int(i) for i in omega)
    if len(omega) % cycle.period != 0:
        raise ValueError(
            "word length %d is not a multiple of the cycle period %d"
            % (len(omega), cycle.period)
        )
    return _horner(sys.l_view, omega, [-c for c in cycle.points[0]])


@dataclass(frozen=True)
class GramReport:
    max_offdiag: float
    argmax_pair: tuple | None
    n_elements: int


def verify_orthogonality(sys: AffineSystem, lambda_subset, tail_tol=None) -> GramReport:
    """Max |mu_hat_B(lambda - lambda')| over distinct pairs (exact path): each
    distinct difference of the window's integer table is evaluated once, in
    one batch; the pair reported is the first in combinations order at the max."""
    elems = list(lambda_subset)
    rows, q = _over_common_denominator(np.array(elems, dtype=object).reshape(len(elems), sys.d))
    rows = rows.astype(_table_dtype(2 * _max_abs(rows)))
    first, second = np.triu_indices(len(elems), 1)  # combinations order
    diffs = rows[first] - rows[second]
    order, distinct = _lex_order(diffs)
    which = np.empty(len(diffs), dtype=np.intp)
    which[order] = np.cumsum(distinct) - 1
    vals = np.abs(_mu_hat_rows(sys, diffs[order[distinct]], q, tail_tol)[0])[which]
    worst = float(vals.max(initial=0.0))
    at = int(np.argmax(vals)) if worst else None
    pair = None if at is None else (fvec(elems[first[at]]), fvec(elems[second[at]]))
    return GramReport(worst, pair, len(elems))


def _table_floats(rows, q: int, d: int) -> np.ndarray:
    """An integer table over q > 0 as (n, d) floats, each n / q correctly
    rounded: one float division when n and q are exact floats (below 2^53),
    else Python int / int."""
    rows = np.asarray(rows).reshape(-1, d)
    if rows.dtype == np.int64 and q < 2 ** 53 and _max_abs(rows) < 2 ** 53:
        return rows / q
    return (rows.astype(object) / q).astype(float)


def _parseval_terms(sys: AffineSystem, t, x, tail_tol=None) -> np.ndarray:
    """|mu_hat_B(x + t)|^2 at the rows of the float frequencies t (`mu_hat_batch`)."""
    return np.abs(mu_hat_batch(sys, t + np.atleast_1d(np.asarray(x, dtype=float)), tail_tol)) ** 2


def completeness_sum(sys: AffineSystem, lambda_subset, x, tail_tol=None) -> float:
    """Parseval partial sum sum_lambda |mu_hat_B(x + lambda)|^2, on float() of
    each coordinate.  Monotone in the subset; at most 1 (Bessel) up to the
    truncation of the products."""
    points = np.array(list(lambda_subset), dtype=object)
    t = np.array([float(c) for c in points.flat]).reshape(len(points), sys.d)
    return float(np.sum(_parseval_terms(sys, t, x, tail_tol)))


@dataclass(frozen=True)
class GridOrthogonality:
    """Brute-force orthogonality structure of a 1-d frequency grid."""

    clique_size: int
    n_edges: int
    zero_anchored_sum: float  # Bessel sum of the best maximal family through 0
    anchored_partner: tuple | None

    def to_dict(self):
        return {
            "max_orthogonal_clique": self.clique_size,
            "n_orthogonal_pairs": self.n_edges,
            "zero_anchored_completeness": self.zero_anchored_sum,
            "anchored_partner": None if self.anchored_partner is None
            else frac_str(self.anchored_partner),
        }


def grid_orthogonality(sys: AffineSystem, x, span: int = 100) -> GridOrthogonality:
    """Orthogonality graph on the grid {k/4 : |k| <= span} (d = 1).

    Vertices are grid frequencies, edges the pairs with mu_hat_B(difference)
    exactly zero.  Reports the maximum clique size (searched through
    triangles: for the systems here two edges never close one, so it is 2
    whenever an edge exists), and the Bessel sum at x of the best maximal
    orthogonal family through frequency 0.
    """
    if sys.d != 1:
        raise ValueError("grid orthogonality analysis is one-dimensional")
    if not isinstance(span, (int, np.integer)) or span < 0:
        raise ValueError("span must be an integer >= 0")
    xs = np.asarray(x, dtype=float).ravel()
    if len(xs) != 1:
        raise ValueError("x must be one coordinate, got %d" % len(xs))
    # zero_flag[m]: mu_hat(m / 4) vanishes exactly (never at m = 0)
    zero_flag = _mu_hat_rows(sys, np.arange(2 * span + 1), GRID_DENOM)[2] > 0
    ks = range(-span, span + 1)
    adj = zero_flag[np.abs(np.subtract.outer(ks, ks))]
    n_edges = int(adj.sum()) // 2
    has_triangle = bool((adj & ((adj.astype(np.int64) @ adj.astype(np.int64)) > 0)).any())
    if has_triangle:
        clique = 3  # lower bound; not expected for the systems covered here
    else:
        clique = 2 if n_edges else 1
    xf = float(xs[0])
    base = abs(mu_hat_detail(sys, (Fraction(xf).limit_denominator(10**12),)).value) ** 2
    partners = [[k] for k in ks if k != 0 and zero_flag[abs(k)]]
    if partners:
        vals = _parseval_terms(sys, _table_floats(partners, GRID_DENOM, 1), xf)
        best = int(np.argmax(vals))
        return GridOrthogonality(clique, n_edges, base + float(vals[best]),
                                 (Fraction(partners[best][0], GRID_DENOM),))
    return GridOrthogonality(clique, n_edges, base, None)


class LatticeError(ValueError):
    """Raised when a point has no (or no unique) representation S y - l."""


def lattice_basin_labels(sys: AffineSystem, w_cycles, radius: float, lattice_scale: int):
    """Classify the window (1/q) Z^d, max-norm <= radius, by basin.

    R_L (the unique y -> S^{-1}(y + l) staying on the lattice) is a
    function whose preimages of y are the N points S y - l, so the basin of
    a cycle is the backward closure of its points, run breadth first in
    int64: level k holds the points whose orbit first meets the cycle after
    k moves.  Levels are disjoint, so it needs no dedup beyond the cycle's
    own points on its first level.  Every window orbit stays in the ball
    |z|_2 <= P m sqrt(d) + q R_b (m = floor(radius q), P = max(1, max
    |S^{-k}|_2), R_b the L-view's `bounding_radius`): the closure keeps the
    points in it (with a rounding margin) and runs until a level is empty.

    Returns (points (n, d) scaled by q, labels): label i means the orbit
    enters w_cycles[i] under R_L; -1 that it enters no listed cycle.
    Raises LatticeError unless N = |det S| and the digits q l lie in
    distinct classes mod S Z^d: then every lattice point has one
    decomposition S y - l.
    """
    if not sys.exact_integer:
        raise LatticeError("lattice basins need integer system data")
    if lattice_scale < 1:
        raise ValueError("lattice_scale must be >= 1")
    if not 0 <= radius < np.inf:
        raise ValueError("radius must be finite and >= 0")
    q, d = int(lattice_scale), sys.d
    s = np.array(sys.l_view.matrix_exact, dtype=np.int64)
    digits = np.array([[int(c * q) for c in l] for l in sys.L_exact], dtype=np.int64)
    adj, den = _over_common_denominator(sys.l_view.inv_exact)  # S^{-1} = adj / den
    # z + q l is in S Z^d exactly when adj (z + q l) = 0 mod den
    residues = (digits @ adj.astype(np.int64).T) % den
    classes = int(_lex_order(residues)[1].sum())  # np.unique(axis=0) imports numpy.ma
    if sys.N != round(abs(np.linalg.det(sys.S))) or classes < sys.N:
        raise LatticeError("lattice points without a unique S y - l decomposition")
    m = int(np.floor(radius * q))
    mesh = np.meshgrid(*[np.arange(-m, m + 1, dtype=np.int64)] * d, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    place = (2 * m + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)  # window index = place.(z + m)
    reach = max(1.0, float(sys.l_view.power_norms().max())) * m * np.sqrt(d)
    reach = (reach + q * sys.l_view.bounding_radius()) * (1.0 + 1e-9) + 1.0
    label = np.full(len(pts), -1, dtype=np.int64)
    shifts = digits.T[:, :, None]  # (d, N, 1): the levels are (d, n), a coordinate per row
    for ci, cyc in enumerate(w_cycles):
        for p in cyc.points:
            if any((c * q).denominator != 1 for c in p):
                raise LatticeError("cycle point %s is not on the 1/%d lattice"
                                   % (frac_str(p), q))
        level = own = np.array([[int(c * q) for c in p] for p in cyc.points], dtype=np.int64).T
        while level.shape[1]:
            inside = np.all((level >= -m) & (level <= m), axis=0)
            label[place @ (level[:, inside] + m)] = ci
            back = ((s @ level)[:, None] - shifts).reshape(d, -1)
            if level is own:
                back = back[:, ~np.all(back[:, :, None] == own[:, None], axis=0).any(axis=1)]
            level = back[:, (back * back).sum(axis=0) <= reach * reach]
    return pts, label


def lattice_basin_sums(sys: AffineSystem, x, w_cycles, radius: float, lattice_scale: int):
    """Per-cycle Parseval sums over a lattice window, via basin membership.

    In the Lebesgue case the k-points of a W-cycle C are its negated basin,
    so h_C(x) = sum_{y in basin(C)} |mu_hat_B(x - y)|^2, approached as the
    window grows.  Returns (per_cycle_sums, other_mass, coverage): `other`
    is the mass of window points entering no listed cycle, coverage the
    window's total (1 - coverage is the tail when the e_lambda form an ONB).
    """
    pts, label = lattice_basin_labels(sys, w_cycles, radius, lattice_scale)
    weights = _parseval_terms(sys, _table_floats(-pts, int(lattice_scale), sys.d), x)
    per_cycle = [float(weights[label == ci].sum()) for ci in range(len(w_cycles))]
    other = float(weights[label < 0].sum())
    return per_cycle, other, float(weights.sum())
