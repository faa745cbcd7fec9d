"""Candidate Fourier spectra for mu_B and their verification.

The candidate spectrum Lambda is the smallest set containing -C for
every W-cycle C and closed under x -> S x + l, l in L.  It is realized
here as a breadth-first closure with exact elements, an element cap and
a level cap (both reported).  Its level n, Lambda_n, is also the set of
k-points over W-cycles C (all rotations) and words omega of exactly n letters,

    k(omega) = omega_0 + S omega_1 + ... + S^{n-1} omega_{n-1} - S^n x_C,

for every n: each seed -x_C is the image S(-x_C') + l of the seed of
the next rotation C', so n steps from the seeds reach every shorter
closure level.  The one closure (`_closure`) builds Lambda from all
W-cycles (`generate_lambda`) and Lambda_n(C) from one cycle, the
frequencies of the closed-form harmonic function h_C of `pathspace`.  It
runs the recurrence through its one home, `IfsView.expand`, on an integer
table, which Lambda stays (`SpectrumSet.rows` over `q`; Fractions only at
the public edge, by the rule of `ratlinalg`).  `k_point` gives one
frequency k(omega) by Horner's rule (`_horner`).

Orthogonality of the exponentials e_lambda is certified through
mu_hat_B(lambda - lambda') = 0, always via an exactly vanishing product
factor; completeness is probed through Parseval partial sums
sum_lambda |mu_hat_B(x + lambda)|^2 <= 1, whose terms over an integer table
have one home, `_parseval_terms`, on the floats of `_table_floats` (which
the batched closed forms of `pathspace` share).

In the Lebesgue case (N = |det S|) the k-points of a W-cycle are also
the negated basin of its points under the lattice endomorphism R_L, the
one y -> S^{-1}(y + l) that stays on the lattice (Dutkay-Jorgensen,
Fourier frequencies in affine iterated function systems, JFA 2007).
R_L(S y - l) = y, so that basin is the closure of the cycle's points
under y -> S y - l, run backward from the cycle: `lattice_basin_labels`
labels a whole lattice window by one breadth-first closure per cycle in
int64, kept to the ball that holds every orbit from the window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cycles import Cycle
from .measure import _mu_hat_rows, mu_hat_batch, mu_hat_detail
from .ratlinalg import _from_common_denominator, _over_common_denominator
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
    """Lambda through `level` as its integer table: distinct rows over q > 0, ascending."""

    rows: tuple  # of Python-int tuples, numerators over q, in Fraction order
    q: int
    level: int
    seeds: frozenset
    cap_hit: bool = False

    @cached_property
    def elements(self) -> frozenset:  # of fvec tuples, formed on first read
        return frozenset(_from_common_denominator(self.rows, self.q))

    @property
    def d(self) -> int:
        return len(self.rows[0])

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
        return [Fraction(v, self.q) for v in [r[0] for r in self.rows if r[0] >= 0][:count]]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["l%d" % i for i in range(self.d)])
            for row in self.rows:
                writer.writerow(["%.17g" % (v / self.q) for v in row])


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
    """Breadth-first closure of {-x : x in points} under x -> S x + l.

    Applies the maps for all l in L for `levels` rounds with exact dedup.
    When a round would pass `element_cap`, only its least new elements that
    fit are kept and the closure stops there, complete through the round
    before (`level`; 0 when the seeds alone fill the cap).  The rounds run
    on one integer table (`IfsView.expand`).
    """
    seeds = {tuple(-c for c in pt) for pt in points}
    rows, q = _over_common_denominator(np.array(list(seeds), dtype=object))
    frontier = set(map(tuple, rows.tolist()))
    elements = set(frontier)
    level, cap_hit = levels, False
    for done in range(levels):
        rows, q_next = sys.l_view.expand(list(frontier), q)
        if q_next != q:  # a multiple of q
            elements = {tuple(v * (q_next // q) for v in e) for e in elements}
            q = q_next
        frontier = set(map(tuple, rows.tolist())) - elements
        if element_cap is not None and len(elements) + len(frontier) > element_cap:
            level, cap_hit = done, True
            frontier = set(sorted(frontier)[:max(element_cap - len(elements), 0)])
        elements |= frontier
        if cap_hit or not frontier:
            break
    return SpectrumSet(
        rows=tuple(sorted(elements)),
        q=q,
        level=level,
        seeds=frozenset(seeds),
        cap_hit=cap_hit,
    )


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


def _window_table(sys: AffineSystem, points) -> tuple:
    """(points, rows, q): exact points of d entries each, as a list and as
    one integer table over their lcd (`_over_common_denominator`, which
    makes no Fraction for a rational entry)."""
    points = list(points)
    return (points,) + _over_common_denominator(
        np.array(points, dtype=object).reshape(len(points), sys.d))


def verify_orthogonality(sys: AffineSystem, lambda_subset, tail_tol=None) -> GramReport:
    """Max |mu_hat_B(lambda - lambda')| over distinct pairs (exact path).  The
    window is differenced once as an integer table; each distinct difference
    is evaluated once, all in one exact batch; the pair reported is the
    first in `itertools.combinations` order at the max."""
    elems, rows, q = _window_table(sys, lambda_subset)
    first, second = np.triu_indices(len(elems), 1)  # combinations order
    diffs = {}
    which = [diffs.setdefault(row, len(diffs))
             for row in map(tuple, (rows[first] - rows[second]).tolist())]
    vals = np.abs(_mu_hat_rows(sys, list(diffs), q, tail_tol)[0])[which]
    worst = float(vals.max(initial=0.0))
    at = int(np.argmax(vals)) if worst else None
    pair = None if at is None else (fvec(elems[first[at]]), fvec(elems[second[at]]))
    return GramReport(worst, pair, len(elems))


def _table_floats(rows, q: int, d: int) -> np.ndarray:
    """The rows of an integer table over q > 0 as an (n, d) float array: each
    row / q the correctly rounded float that float(Fraction) gives, by
    Python int / int on an object table."""
    return (np.array(rows, dtype=object).reshape(-1, d) / q).astype(float)


def _parseval_terms(sys: AffineSystem, rows, q: int, x, tail_tol=None) -> np.ndarray:
    """|mu_hat_B(x + row / q)|^2 at the rows of an integer table, in order, on
    the float path (`mu_hat_batch`, one depth for the batch)."""
    t = _table_floats(rows, q, sys.d) + np.atleast_1d(np.asarray(x, dtype=float))
    return np.abs(mu_hat_batch(sys, t, tail_tol)) ** 2


def completeness_sum(sys: AffineSystem, lambda_subset, x, tail_tol=None) -> float:
    """Parseval partial sum sum_lambda |mu_hat_B(x + lambda)|^2.

    Monotone nondecreasing in the subset; bounded by 1 (Bessel) up to
    truncation error of the products.
    """
    _, rows, q = _window_table(sys, lambda_subset)
    return float(np.sum(_parseval_terms(sys, rows, q, x, tail_tol)))


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

    Vertices are grid frequencies, edges the pairs with
    mu_hat_B(difference) exactly zero.  Reports the maximum clique size
    (cliques beyond pairs are searched through triangles: for the systems
    here, edge differences have odd numerator scale, so two edges never
    close a triangle and the clique number is 2 whenever an edge exists),
    and the Bessel sum at x of the best maximal orthogonal family through
    frequency 0.
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
        vals = _parseval_terms(sys, partners, GRID_DENOM, xf)
        best = int(np.argmax(vals))
        return GridOrthogonality(clique, n_edges, base + float(vals[best]),
                                 (Fraction(partners[best][0], GRID_DENOM),))
    return GridOrthogonality(clique, n_edges, base, None)


class LatticeError(ValueError):
    """Raised when a point has no (or no unique) representation S y - l."""


def lattice_basin_labels(sys: AffineSystem, w_cycles, radius: float, lattice_scale: int):
    """Classify the window (1/q) Z^d, max-norm <= radius, by basin.

    The lattice endomorphism R_L (the unique y -> S^{-1}(y + l) staying on
    the lattice) is a function, and the N points S y - l are all its
    preimages of y.  So the basin of a cycle is the backward closure of its
    points, and each listed cycle is closed breadth first in int64: level k
    holds the points whose orbit first meets the cycle after k moves.
    Levels are disjoint and distinct points have distinct preimages, so the
    closure needs no dedup; it drops only the cycle's own points, on its
    first level.  Every window orbit stays in the ball |z|_2 <= P m sqrt(d)
    + q R_b (m = floor(radius q), P = max(1, max |S^{-k}|_2) over
    `power_norms`, R_b the L-view's `bounding_radius`), so the closure
    keeps only the points in it (with a margin for rounding), and each
    point it reaches in the window has its label written at its index.
    Disjoint levels in a finite ball run out: the closure runs until they
    do.

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
    if sys.N != round(abs(np.linalg.det(sys.S))) or len(np.unique(residues, axis=0)) < sys.N:
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

    For the Lebesgue-case systems (#digits = |det R|) the k-points of a
    W-cycle C are the negated basin of its base point under the lattice
    endomorphism (the basin is the closure of x_C under y -> S y - l,
    the k-points are sums S^j omega_j - S^n x_C), so

        h_C(x) = sum_{y in basin(C)} |mu_hat_B(x - y)|^2,

    increasing to h_C as the window grows.  Returns (per_cycle_sums,
    other_mass, coverage): `other` collects mass of window points whose
    orbit enters a cycle not in w_cycles, and coverage is the total
    window mass (the out-of-window tail is 1 - coverage when the
    exponentials form an ONB).
    """
    pts, label = lattice_basin_labels(sys, w_cycles, radius, lattice_scale)
    weights = _parseval_terms(sys, -pts, int(lattice_scale), x)
    per_cycle = [float(weights[label == ci].sum()) for ci in range(len(w_cycles))]
    other = float(weights[label < 0].sum())
    return per_cycle, other, float(weights.sum())
