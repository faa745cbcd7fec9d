"""Candidate Fourier spectra for mu_B and their verification.

The candidate spectrum Lambda is the smallest set containing -C for
every W-cycle C and closed under x -> S x + l, l in L.  It is realized
here as a breadth-first closure with exact elements, an element cap and
a level cap (both reported).  Its level n, Lambda_n, is also the set of
k-points over W-cycles C (all rotations) and words omega of exactly n letters,

    k(omega) = omega_0 + S omega_1 + ... + S^{n-1} omega_{n-1} - S^n x_C,

for every n: each seed -x_C is the image S(-x_C') + l of the seed of
the next rotation C', so n steps from the seeds reach every shorter
closure level.  The closure and the k-points of one rotation
(`k_points_of_depth`, words of depth * period letters, where appending
the cycle word leaves k unchanged) both run the recurrence through its
one home, `IfsView.expand`, on an integer table, which Lambda stays
(`SpectrumSet.rows` over `q`; Fractions only at the public edge, by the
rule of `ratlinalg`).  `k_point` is the per-word reference (Horner's
rule, shared with `cycle_from_word`).

Orthogonality of the exponentials e_lambda is certified through
mu_hat_B(lambda - lambda') = 0, always via an exactly vanishing product
factor; completeness is probed through Parseval partial sums
sum_lambda |mu_hat_B(x + lambda)|^2 <= 1.

In the Lebesgue case the k-points of a W-cycle are also the negated
basin of its base point under the lattice endomorphism R_L.
`cycle_basin` follows one orbit in Fractions and is the reference;
`lattice_basin_labels` labels a whole lattice window in int64, each
step moving only the points not yet labelled.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cycles import Cycle, _horner
from .measure import _mu_hat_rows, mu_hat_batch, mu_hat_detail
from .ratlinalg import _from_common_denominator, _over_common_denominator
from .system import AffineSystem, frac_str, fvec

__all__ = [
    "SpectrumSet",
    "generate_lambda",
    "k_point",
    "k_points_of_depth",
    "GramReport",
    "verify_orthogonality",
    "completeness_sum",
    "GridOrthogonality",
    "grid_orthogonality",
    "BasinResult",
    "LatticeError",
    "cycle_basin",
    "lattice_basin_labels",
    "lattice_basin_sums",
]


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
    element_cap: int = 100_000,
) -> SpectrumSet:
    """Breadth-first closure from the negated W-cycle points.

    Start from {-x : x a point of some W-cycle}, apply x -> S x + l for
    all l in L for `levels` rounds with exact dedup.  When a round would
    pass `element_cap`, only its least new elements that fit are kept and
    the closure stops there, complete through the round before (`level`;
    0 when the seeds alone fill the cap).  The rounds run on one integer
    table (`IfsView.expand`).  Requires 0 in B and 0 in L (the standing
    normalization for the spectral pipeline).
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    if not sys.zero_in_digits():
        raise ValueError("spectrum generation requires 0 in B and 0 in L")
    if not w_cycles:
        raise ValueError("no W-cycles supplied: the seed set is empty")
    seeds = set()
    for cyc in w_cycles:
        for pt in cyc.points:
            seeds.add(tuple(-c for c in pt))
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
        if len(elements) + len(frontier) > element_cap:
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


def _cycle_k_points(sys: AffineSystem, cycle: Cycle, depth: int) -> tuple:
    """(rows, q): the k-points of one rotation over all words of
    depth * period letters, as a set of Python-int rows over the one
    denominator q > 0, from that many integer expansions of -x_0."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    rows, q = _over_common_denominator([[-c for c in cycle.points[0]]])
    for _ in range(depth * cycle.period):
        rows, q = sys.l_view.expand(rows, q)
    return set(map(tuple, rows.tolist())), q


def k_points_of_depth(sys: AffineSystem, cycle: Cycle, depth: int) -> set:
    """Distinct k-values over all words of length depth * period for one
    rotation of the cycle; shorter words are absorbed because appending
    the cycle word to omega does not change k."""
    return set(_from_common_denominator(*_cycle_k_points(sys, cycle, depth)))


@dataclass(frozen=True)
class GramReport:
    max_offdiag: float
    argmax_pair: tuple | None
    n_elements: int


def verify_orthogonality(sys: AffineSystem, lambda_subset, tail_tol=None) -> GramReport:
    """Max |mu_hat_B(lambda - lambda')| over distinct pairs (exact path).  The
    window is differenced once as an integer table; each distinct difference
    is evaluated once, all in one exact batch; the pair reported is the
    first in `itertools.combinations` order at the max."""
    elems = [fvec(e) for e in lambda_subset]
    rows, q = _over_common_denominator(np.array(elems, dtype=object).reshape(len(elems), sys.d))
    first, second = np.triu_indices(len(elems), 1)  # combinations order
    diffs = {}
    which = [diffs.setdefault(row, len(diffs))
             for row in map(tuple, (rows[first] - rows[second]).tolist())]
    vals = np.abs(_mu_hat_rows(sys, list(diffs), q, tail_tol)[0])[which]
    worst = float(vals.max(initial=0.0))
    at = int(np.argmax(vals)) if worst else None
    pair = None if at is None else (elems[first[at]], elems[second[at]])
    return GramReport(worst, pair, len(elems))


def completeness_sum(sys: AffineSystem, lambda_subset, x, tail_tol=None) -> float:
    """Parseval partial sum sum_lambda |mu_hat_B(x + lambda)|^2.

    Monotone nondecreasing in the subset; bounded by 1 (Bessel) up to
    truncation error of the products.
    """
    elems = [fvec(e) for e in lambda_subset]
    if not elems:
        return 0.0
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    pts = np.array([[float(c) for c in e] for e in elems]) + xv
    vals = mu_hat_batch(sys, pts, tail_tol)
    return float(np.sum(np.abs(vals) ** 2))


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


def grid_orthogonality(sys: AffineSystem, x, denom: int = 4, span: int = 100,
                       tail_tol: float | None = None) -> GridOrthogonality:
    """Orthogonality graph on the grid {k/denom : |k| <= span} (d = 1).

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
    # zero_flag[m]: mu_hat(m / denom) vanishes exactly (never at m = 0)
    zero_flag = _mu_hat_rows(sys, np.arange(2 * span + 1), denom, tail_tol)[2] > 0
    ks = range(-span, span + 1)
    adj = zero_flag[np.abs(np.subtract.outer(ks, ks))]
    n_edges = int(adj.sum()) // 2
    has_triangle = bool((adj & ((adj.astype(np.int64) @ adj.astype(np.int64)) > 0)).any())
    if has_triangle:
        clique = 3  # lower bound; not expected for the systems covered here
    else:
        clique = 2 if n_edges else 1
    xf = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    base = abs(mu_hat_detail(sys, (Fraction(xf).limit_denominator(10**12),), tail_tol).value) ** 2
    partners = [Fraction(k, denom) for k in ks if k != 0 and zero_flag[abs(k)]]
    if partners:
        pts = np.array([[float(p) + xf] for p in partners])
        vals = np.abs(mu_hat_batch(sys, pts, tail_tol)) ** 2
        best = int(np.argmax(vals))
        return GridOrthogonality(clique, n_edges, base + float(vals[best]),
                                 (partners[best],))
    return GridOrthogonality(clique, n_edges, base, None)


class LatticeError(ValueError):
    """Raised when a point has no (or no unique) representation S y - l."""


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One sortable scalar per int64 row, equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple:
    """(found, at): keys[found] == sorted_keys[at[found]], one binary search each."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool), np.zeros(len(keys), dtype=np.intp)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys, at


def lattice_basin_labels(sys: AffineSystem, w_cycles, radius: float,
                         lattice_scale: int, max_steps: int = 512):
    """Classify the window (1/q) Z^d, max-norm <= radius, by basin.

    Follows the lattice endomorphism R_L (the unique y -> S^{-1}(y + l)
    staying on the lattice) with exact int64 arithmetic, one step at a
    time on the points not yet labelled.  Returns (points (n, d) scaled
    by q, labels): label i means the orbit entered w_cycles[i] within
    max_steps moves (as in `cycle_basin`), -1 that it entered no listed
    cycle.  An orbit that comes back to the state it had at the last
    power-of-two step has closed a cycle it never left unlabelled, so it
    is in an unlisted cycle for good and stops there with -1.
    """
    if not sys.exact_integer:
        raise LatticeError("lattice basins need integer system data")
    if lattice_scale < 1:
        raise ValueError("lattice_scale must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    q = int(lattice_scale)
    adj, den = _over_common_denominator(sys.l_view.inv_exact)  # S^{-1} = adj / den
    adj = adj.astype(np.int64)
    # R_L(z) = adj (z + q l) / den for the digit l with adj (z + q l) = 0 mod den.
    # Writing adj z = den u + r (0 <= r < den), that digit is the one whose
    # shift s_l = adj q l has -s_l = r mod den, and R_L(z) = u + (r + s_l) / den.
    shifts = np.array([[int(c * q) for c in l] for l in sys.L_exact], dtype=np.int64) @ adj.T
    place = den ** np.arange(sys.d, dtype=np.int64)
    residues = (-shifts) % den
    carries = (residues + shifts) // den
    classes, digit_of, counts = np.unique(residues @ place, return_index=True,
                                          return_counts=True)
    classes = classes[counts == 1]  # a class two digits share has no unique step
    digit_of = digit_of[counts == 1]
    m = int(np.floor(radius * q))
    axes = [np.arange(-m, m + 1, dtype=np.int64)] * sys.d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    cycle_of_point = {}
    for ci, cyc in enumerate(w_cycles):
        for p in cyc.points:
            scaled = [c * q for c in p]
            if any(c.denominator != 1 for c in scaled):
                raise LatticeError("cycle point %s is not on the 1/%d lattice"
                                   % (frac_str(p), q))
            cycle_of_point[tuple(int(c) for c in scaled)] = ci
    cycle_keys = _row_keys(np.array(list(cycle_of_point), dtype=np.int64).reshape(-1, sys.d))
    order = np.argsort(cycle_keys)
    cycle_keys = cycle_keys[order]
    cycle_labels = np.array(list(cycle_of_point.values()), dtype=np.int64)[order]
    label = np.full(len(pts), -1, dtype=np.int64)
    active, states = np.arange(len(pts)), pts
    for step in range(max_steps + 1):
        keys = _row_keys(states)
        hit, at = _lookup(cycle_keys, keys)
        label[active[hit]] = cycle_labels[at[hit]]
        keep = ~hit
        if step:
            keep &= keys != mark
        if step == max_steps or not keep.any():
            break
        active, states, keys = active[keep], states[keep], keys[keep]
        mark = keys if step & (step - 1) == 0 else mark[keep]
        num = states @ adj.T
        quot = num // den
        found, at = _lookup(classes, (num - den * quot) @ place)
        if not found.all():
            raise LatticeError("lattice point without a unique S y - l decomposition")
        states = quot + carries[digit_of[at]]
    return pts, label


def lattice_basin_sums(sys: AffineSystem, x, w_cycles, radius: float,
                       lattice_scale: int, max_steps: int = 512,
                       tail_tol: float | None = None):
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
    pts, label = lattice_basin_labels(sys, w_cycles, radius, lattice_scale, max_steps)
    q = int(lattice_scale)
    weights = (
        np.abs(mu_hat_batch(sys, np.atleast_1d(np.asarray(x, dtype=float)) - pts / q,
                            tail_tol)) ** 2
    )
    per_cycle = [float(weights[label == ci].sum()) for ci in range(len(w_cycles))]
    other = float(weights[label < 0].sum())
    return per_cycle, other, float(weights.sum())


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
    """Follow the lattice endomorphism defined by R_L(S y - l) = y.

    R_L maps a lattice point z to S^{-1}(z + l) for the unique digit l
    keeping the image on the lattice; orbits are eventually periodic, and
    the result reports which supplied W-cycle the orbit enters (or none
    within max_steps).  The lattice is (1/q) Z^d with q inferred from x
    unless given.
    """
    pt = fvec([x] if isinstance(x, (int, float, Fraction)) else x)
    q = _over_common_denominator(pt)[1] if lattice_scale is None else int(lattice_scale)
    s_inv = sys.l_view.inv_exact
    l_vecs = [np.array(l, dtype=object) for l in sys.L_exact]
    point_to_cycle = {}
    for cyc in w_cycles:
        for p in cyc.points:
            point_to_cycle[p] = cyc
    orbit = [pt]
    current = pt
    for step in range(max_steps + 1):
        if current in point_to_cycle:
            return BasinResult(point_to_cycle[current], step, tuple(orbit))
        candidates = []
        cur_vec = np.array(current, dtype=object)
        for l in l_vecs:
            y = tuple(s_inv @ (cur_vec + l))
            if all((c * q).denominator == 1 for c in y):
                candidates.append(y)
        if len(candidates) != 1:
            raise LatticeError(
                "point %s has %d lattice representations S y - l (expected 1)"
                % (frac_str(current), len(candidates))
            )
        current = candidates[0]
        orbit.append(current)
    return BasinResult(None, max_steps, tuple(orbit))
