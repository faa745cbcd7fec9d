"""The transfer operator R_W on sampled grid functions.

(R_W f)(x) = sum_i W(tau_i x) f(tau_i x), evaluated on an axis-aligned
grid: the weight W is always evaluated analytically (its zeros must not
be smeared), while f is read off the grid by multilinear interpolation
at the branch images from `IfsView.tau_all`.  The weights W(tau_i x)
come from `measure._branch_weights`, the same evaluation that drives the
branch walk of `pathspace`: R_W is the walk's one-step expectation.
Harmonic functions are approached through Cesaro averages
(1/n) sum_{k<n} R_W^k f rather than plain powers.
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
        axes = [
            np.linspace(self.lo[a], self.hi[a], self.values.shape[a])
            for a in range(self.d)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def eval(self, points) -> np.ndarray:
        """Multilinear interpolation at points (n, d) or a single point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.d:
            raise ValueError("point dimension %d != grid dimension %d" % (pts.shape[1], self.d))
        res = np.array(self.values.shape)
        u = (pts - self.lo) / self.spacing
        if np.any(u < -1e-9) or np.any(u > res - 1 + 1e-9):
            worst = float(np.max(np.maximum(-u, u - (res - 1))))
            raise DomainError("point outside grid box by %g cells" % worst)
        u = np.clip(u, 0.0, res - 1)
        base = np.minimum(u.astype(int), res - 2)
        frac = u - base
        out = np.zeros(pts.shape[0], dtype=self.values.dtype)
        flat = self.values.ravel()
        strides = np.cumprod((1,) + self.values.shape[::-1][:-1])[::-1]
        for corner in itertools.product((0, 1), repeat=self.d):
            idx = (base + np.array(corner)) @ strides
            w = np.ones(pts.shape[0])
            for a in range(self.d):
                w = w * (frac[:, a] if corner[a] else 1.0 - frac[:, a])
            out = out + w * flat[idx]
        return out if len(out) > 1 else out[:1].reshape(())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

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
        axes = [np.linspace(lo[a], hi[a], res[a]) for a in range(len(lo))]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.asarray(fn(pts)).reshape(res)
        return GridFunction(lo=lo, hi=hi, values=vals)

    @staticmethod
    def constant(value, lo, hi, resolution) -> "GridFunction":
        dtype = complex if isinstance(value, complex) else float
        return GridFunction.sample(
            lambda pts: np.full(pts.shape[0], value, dtype=dtype),
            lo,
            hi,
            resolution,
        )


def default_grid(view: IfsView, resolution=None) -> tuple:
    """(lo, hi, resolution) for the view's invariant box, 5% inflated."""
    lo, hi = view.box()
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(view.d, 64)
    return lo, hi, resolution


def ruelle_apply(weight: Weight, view: IfsView, f: GridFunction) -> GridFunction:
    """(R_W f)(x) = sum_i W(tau_i x) f(tau_i x) on f's own grid.

    Requires every branch image of the box to stay inside the box (true
    for the invariant box whenever ||matrix^{-1}||_inf < 1; otherwise a
    DomainError propagates from the interpolation).
    """
    nodes = f.nodes()
    images = view.tau_all(nodes)
    w = _branch_weights(weight, view, nodes)
    acc = np.zeros(nodes.shape[0], dtype=f.values.dtype)
    for i in range(view.n_digits):
        acc = acc + w[i] * np.atleast_1d(f.eval(images[i]))
    return GridFunction(lo=f.lo, hi=f.hi, values=acc.reshape(f.values.shape))


def cesaro(weight: Weight, view: IfsView, f: GridFunction, n_iter: int) -> GridFunction:
    """(1/n) sum_{k=0..n-1} R_W^k f; the harmonic defect of the average
    shrinks because R_W contracts Lipschitz variation."""
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    acc = f.values.copy()
    g = f
    for _ in range(n_iter - 1):
        g = ruelle_apply(weight, view, g)
        acc = acc + g.values
    return GridFunction(lo=f.lo, hi=f.hi, values=acc / n_iter)


def check_qmf(weight: Weight, view: IfsView, n_probe: int = 10_000, seed: int = 0) -> float:
    """sup over random probe points of |sum_i W(tau_i x) - 1|."""
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
