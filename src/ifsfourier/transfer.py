"""The transfer operator R_W on sampled grid functions.

(R_W f)(x) = sum_i W(tau_i x) f(tau_i x), evaluated on an axis-aligned
grid: the weight W is always evaluated analytically (its zeros must not
be smeared), while f is read off the grid by multilinear interpolation
at the branch images from `IfsView.tau_all`.  The weights W(tau_i x)
come from `measure._branch_weights`, which evaluates W's cosine
polynomial from x without forming the images, the same evaluation that
drives the branch walk of `pathspace`: R_W is the walk's one-step
expectation.
Harmonic functions are approached through Cesaro averages
(1/n) sum_{k<n} R_W^k f rather than plain powers.

For a fixed (weight, view, grid), R_W is a fixed stencil: each node x
reads f at the 2^d grid corners around each of its N branch images, with
coefficient W(tau_i x) times the corner's multilinear weight.  The
stencil is built once, as an index array and a coefficient array of
shape (N 2^d, n) for n grid nodes (`_stencil`), and R_W f is then one
gather and one weighted sum over its rows (`_weighted_sum`, which
`GridFunction.eval` runs on the 2^d corners of its points), so `cesaro`
builds it once for all its iterations.  It holds N 2^d n indices and as many
coefficients, 16 bytes an entry: 2.4 MB on a 97 x 97 planar-shear grid,
about 67 MB at the 2-d default of 512 x 512.  The sum runs over all
N 2^d corner terms at once, where the per-branch interpolation summed
each branch's corners first and then weighted the branches, so values
differ from that order by a few ulps.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .measure import Weight, _branch_weights
from .system import IfsView

__all__ = [
    "DomainError",
    "GridFunction",
    "ruelle_apply",
    "cesaro",
    "check_qmf",
    "harmonic_defect",
    "default_grid",
]

DEFAULT_RESOLUTION = {1: 4096, 2: 512}


class DomainError(ValueError):
    """A branch image left the grid box, so f cannot be interpolated."""


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real or complex samples of a function on a box grid (row-major)."""

    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != len(self.lo):
            raise ValueError("values rank must match box dimension")
        if any(r < 2 for r in self.values.shape):
            raise ValueError("resolution must be >= 2 per axis")

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def resolution(self) -> tuple:
        return self.values.shape

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / (np.array(self.values.shape) - 1)

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (n_points, d) array, row-major order."""
        axes = [np.linspace(lo, hi, n) for lo, hi, n in zip(self.lo, self.hi, self.values.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def eval(self, points) -> np.ndarray:
        """Multilinear interpolation at points (n, d) or a single point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.d:
            raise ValueError("point dimension %d != grid dimension %d" % (pts.shape[1], self.d))
        out = _weighted_sum(_corners(self, pts.T.copy()), self.values)
        return out if len(out) > 1 else out[:1].reshape(())

    def to_csv(self, path) -> None:
        """Rows of (coordinates..., value) at 17 significant digits."""
        nodes = self.nodes()
        vals = self.values.ravel()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x%d" % a for a in range(self.d)] + ["value"])
            for node, v in zip(nodes, vals):
                writer.writerow(["%.17g" % c for c in node] + ["%.17g" % np.real_if_close(v)])

    @staticmethod
    def sample(fn, lo, hi, resolution) -> "GridFunction":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        res = (resolution,) * len(lo) if np.isscalar(resolution) else tuple(resolution)
        nodes = GridFunction(lo=lo, hi=hi, values=np.empty(res)).nodes()
        return GridFunction(lo=lo, hi=hi, values=np.asarray(fn(nodes)).reshape(res))


def _weighted_sum(stencil: tuple, values: np.ndarray) -> np.ndarray:
    """sum over the rows of coef * values.ravel()[idx] for a stencil
    (idx, coef) of two (rows, n) arrays: one gather and one pass that
    accumulates the rows in order."""
    idx, coef = stencil
    return np.einsum("ij,ij->j", coef, values.ravel().take(idx))


def _corners(grid: GridFunction, u: np.ndarray) -> tuple:
    """(idx, coef): for each of n points, the flat indices of the 2^d grid
    nodes around it and their multilinear weights, both of shape (2^d, n),
    corners in `itertools.product` order.  Interpolation at the points is
    the sum over the rows of coef * values.ravel()[idx].  The points come
    as the rows of a C-ordered (d, n) array, one row per axis, so every
    elementwise pass runs along n, and the array is overwritten.  Raises
    DomainError when a point lies outside the grid box or has a NaN or
    infinite coordinate, before any coordinate is cast to an index."""
    shape = grid.values.shape
    top = np.array(shape)[:, None] - 1
    u -= grid.lo[:, None]
    u /= grid.spacing[:, None]
    if not np.all((u >= -1e-9) & (u <= top + 1e-9)):  # False at NaN
        if not np.all(np.isfinite(u)):
            raise DomainError("point has a non-finite coordinate")
        worst = float(np.max(np.maximum(-u, u - top)))
        raise DomainError("point outside grid box by %g cells" % worst)
    np.clip(u, 0.0, top, out=u)
    base = u.astype(int)
    np.minimum(base, top - 1, out=base)
    corners = np.array(list(itertools.product((0, 1), repeat=grid.d)))
    flat, offsets = base[0], corners[:, 0]  # row-major flat indices, by Horner's rule
    for a in range(1, grid.d):
        flat, offsets = flat * shape[a] + base[a], offsets * shape[a] + corners[:, a]
    idx = offsets[:, None] + flat
    u -= base  # the fractions
    # the weight of a corner is the product over the axes, in order, of
    # 1 - frac or frac; each axis splits the rows of the axes before it
    coef = np.stack([1.0 - u[0], u[0]])
    for frac in u[1:]:
        coef = (coef[:, None] * np.stack([1.0 - frac, frac])).reshape(-1, u.shape[1])
    return idx, coef


def default_grid(view: IfsView, resolution=None) -> tuple:
    """(lo, hi, resolution) for the view's invariant box, 5% inflated."""
    lo, hi = view.box()
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(view.d, 64)
    return lo, hi, resolution


def _stencil(weight: Weight, view: IfsView, grid: GridFunction) -> tuple:
    """R_W on a grid as (idx, coef), each of shape (N 2^d, n) for the n grid
    nodes: row c N + i holds corner c of branch i, with
    coef = W(tau_i x) times the corner's multilinear weight at tau_i x, so
    (R_W f)(x) is the sum over the rows of coef * f.ravel()[idx].  Raises
    DomainError when a branch image leaves the grid box."""
    nodes = grid.nodes()
    n = len(nodes)
    images = np.moveaxis(view.tau_all(nodes), 2, 0).reshape(view.d, -1)
    idx, coef = _corners(grid, images)
    by_branch = coef.reshape(-1, view.n_digits, n)
    by_branch *= _branch_weights(weight, view, nodes)
    return idx.reshape(-1, n), coef.reshape(-1, n)


def ruelle_apply(weight: Weight, view: IfsView, f: GridFunction) -> GridFunction:
    """(R_W f)(x) = sum_i W(tau_i x) f(tau_i x) on f's own grid.

    Builds the grid's stencil (module docstring), N 2^d n indices and as
    many coefficients for n nodes, and applies it once; `cesaro` applies
    one stencil many times.  The N 2^d corner terms of a node are summed
    in one pass, so values differ by a few ulps of max|f| from summing
    each branch's interpolation first.  Requires every branch image of
    the box to stay inside the box (true for `IfsView.box` whenever
    ||matrix^{-1}||_inf < 1; otherwise the stencil raises DomainError).
    """
    values = _weighted_sum(_stencil(weight, view, f), f.values)
    return GridFunction(lo=f.lo, hi=f.hi, values=values.reshape(f.values.shape))


def cesaro(weight: Weight, view: IfsView, f: GridFunction, n_iter: int) -> GridFunction:
    """(1/n) sum_{k=0..n-1} R_W^k f; the harmonic defect of the average
    shrinks because R_W contracts Lipschitz variation.  One stencil serves
    all n - 1 applications."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    acc = g = f.values.ravel()
    if n_iter > 1:
        stencil = _stencil(weight, view, f)
        for _ in range(n_iter - 1):
            g = _weighted_sum(stencil, g)
            acc = acc + g
    return GridFunction(lo=f.lo, hi=f.hi, values=acc.reshape(f.values.shape) / n_iter)


def check_qmf(weight: Weight, view: IfsView, n_probe: int = 10_000, seed: int = 0) -> float:
    """sup over random probe points of |sum_i W(tau_i x) - 1|."""
    if n_probe < 1:
        raise ValueError("n_probe must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = view.box(inflate=1.0)
    pts = rng.uniform(lo, hi, size=(n_probe, view.d))
    w = _branch_weights(weight, view, pts)
    return float(np.max(np.abs(w.sum(axis=0) - 1.0)))


def harmonic_defect(weight: Weight, view: IfsView, h: GridFunction) -> float:
    """Sup-norm of R_W h - h over the grid interior (outermost layer
    dropped to keep interpolation stencils away from the box edge)."""
    rh = ruelle_apply(weight, view, h)
    diff = np.abs(rh.values - h.values)
    interior = diff[tuple(slice(1, -1) for _ in range(h.d))]
    return float(np.max(interior)) if interior.size else float(np.max(diff))
