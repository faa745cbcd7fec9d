"""Stationary measures of the weighted branch walk, and the Riesz product.

The walk x -> tau_l x with branch probability W(tau_l x) has the
transfer operator as its transition expectation, so its stationary law
nu satisfies nu o R_W = nu.  Existence is guaranteed (the invariant set
is nonempty, convex, weakly compact); uniqueness is not, so the chain
estimates one invariant measure and reports batch-mean uncertainty
rather than certifying extremality.

The chains run the branch walk of `pathspace`, the same walk that
samples the path measures P_x; only the recorded states differ.

The worked circle example: scale 3, W(e^{it}) = (2/3) cos^2 t, whose
stationary measure is the Riesz product
d nu(t) = (1/2 pi) prod_{k>=1} (1 + cos(2 * 3^k t)).  Its chain is that
walk on the registry entry riesz3: the 1-d view x = t / 2 pi,
x -> (x + j)/3 for j in {0, 1, 2}, with the weight as the cosine
polynomial 1/3 + (1/3) cos(4 pi x), so it runs the same branch-weight
kernel as W_B.  Here sup W = 2/3 < 1, so riesz3 has no W-cycle: its
chain forgets its start, and two copies driven by the same uniforms
merge.  That is what lets `_walk` run each chain in segments side by
side (see `pathspace`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .measure import Weight
from .pathspace import _walk
from .registry import EXAMPLES
from .system import IfsView

__all__ = [
    "ChainSample",
    "run_chain",
    "batch_mean_stderr",
    "fourier_coefficient",
    "riesz_partial_density",
    "riesz_chain",
    "concentration_curve",
]

DEFAULT_BURN_IN = 1_000
DEFAULT_BATCHES = 32


@dataclass(frozen=True, eq=False)
class ChainSample:
    """Post-burn-in states of n_chains independent walks, concatenated in
    chain order (chain i occupies the i-th contiguous block)."""

    states: np.ndarray  # (n, d) or (n,) on the circle
    burn_in: int
    seed: int
    n_chains: int
    retired_at: int | None = None  # the step at which the walk retired (`pathspace._walk`), or None

    @property
    def n(self) -> int:
        return self.states.shape[0]


def batch_mean_stderr(values: np.ndarray, n_batches: int = DEFAULT_BATCHES) -> tuple:
    """(mean, stderr) by batch means; robust to chain autocorrelation.
    Needs at least 2 batches and a value for each."""
    vals = np.asarray(values)
    if n_batches < 2 or len(vals) < n_batches:
        raise ValueError("batch means need at least 2 batches and a value per batch, "
                         "got %d values in %d batches" % (len(vals), n_batches))
    batches = np.array_split(vals, n_batches)
    means = np.array([b.mean() for b in batches])
    mean = complex(means.mean()) if np.iscomplexobj(vals) else float(means.mean())
    spread = np.abs(means - means.mean())
    stderr = float(np.sqrt((spread ** 2).mean() / (len(means) - 1)))
    return mean, stderr


def run_chain(weight: Weight, view: IfsView, x0, n: int, burn_in: int = DEFAULT_BURN_IN,
              seed: int = 0, n_chains: int = DEFAULT_BATCHES) -> ChainSample:
    """Sample ~n post-burn-in states of the walk, split over n_chains
    independent chains advanced in lockstep (deterministic given seed)."""
    if n < 1 or n_chains < 1:
        raise ValueError("n and n_chains must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    n_chains = min(n_chains, n)
    counts = np.full(n_chains, n // n_chains)
    counts[-1] += n - int(counts.sum())
    walk = _walk(weight, view, x0, burn_in + int(counts[-1]), n_chains, seed,
                 keep_from=burn_in + 1)
    kept = walk.kept
    if n % n_chains == 0:  # every chain keeps all its states: no copy
        states = kept.reshape(-1, view.d)
    else:
        states = np.concatenate([kept[i, : counts[i]] for i in range(n_chains)], axis=0)
    return ChainSample(states=states, burn_in=burn_in, seed=seed, n_chains=n_chains,
                       retired_at=walk.retired_at)


def fourier_coefficient(sample: ChainSample, freq, angular: bool = False) -> tuple:
    """Empirical nu_hat at a frequency: mean exp(2 pi i t.x) for point
    samples, or mean exp(i n t) for circle samples (angular=True).
    Returns (value, stderr) by batch means over the chains."""
    states = sample.states
    if angular:
        vals = 1j * float(freq) * states.reshape(-1)
    else:
        tv = np.atleast_1d(np.asarray(freq, dtype=float))
        vals = 2j * np.pi * (np.atleast_2d(states) @ tv)
    return batch_mean_stderr(np.exp(vals, out=vals), sample.n_chains)  # in place: one array


# --- the scale-3 Riesz example on the circle -------------------------------

def riesz_partial_density(t, n_factors: int) -> np.ndarray:
    """(1/2 pi) prod_{k=1..K} (1 + cos(2 * 3^k t)) >= 0."""
    if n_factors < 1:
        raise ValueError("n_factors must be >= 1")
    tv = np.asarray(t, dtype=float)
    dens = np.ones_like(tv)
    for k in range(1, n_factors + 1):
        dens = dens * (1.0 + np.cos(2.0 * 3.0 ** k * tv))
    return dens / (2.0 * np.pi)


def riesz_chain(n: int, seed: int = 0, n_chains: int = DEFAULT_BATCHES) -> ChainSample:
    """The circle walk t -> (t + 2 pi j)/3 with probability W((t + 2 pi j)/3),
    from t = 0, after DEFAULT_BURN_IN steps.

    Stationary law: the Riesz product.  Runs as `run_chain` on the view
    x = t / 2 pi; states are angles in [0, 2 pi), shape (n,).
    """
    entry = EXAMPLES["riesz3"]
    sample = run_chain(entry.weight, entry.view, [0.0], n, seed=seed, n_chains=n_chains)
    states = sample.states[:, 0]
    states *= 2.0 * np.pi  # in place: the walk's buffer becomes the angles
    return replace(sample, states=states)


def concentration_curve(states: np.ndarray, n_bins: int = 512) -> np.ndarray:
    """(q, mass) pairs: fraction of sample mass in the heaviest q-fraction
    of equal-width bins.  A qualitative singularity indicator: mass piling
    into few bins as the resolution grows.  Raises ValueError on n_bins < 1
    or no states."""
    states = np.asarray(states, dtype=float)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1, got %d" % n_bins)
    if len(states) == 0:
        raise ValueError("concentration_curve needs at least one state, got none")
    flat = states.reshape(len(states), -1)
    lo, hi = flat.min(axis=0), flat.max(axis=0) + 1e-12
    idx = np.zeros(len(flat), dtype=np.int64)
    for a in range(flat.shape[1]):
        cells = np.minimum(((flat[:, a] - lo[a]) / (hi[a] - lo[a]) * n_bins).astype(int),
                           n_bins - 1)
        idx = idx * n_bins + cells
    _, counts = np.unique(idx, return_counts=True)
    weights = np.sort(counts)[::-1] / len(flat)
    total_bins = n_bins ** flat.shape[1]
    cum = np.cumsum(weights)
    q = (np.arange(1, len(weights) + 1)) / total_bins
    return np.stack([q, cum], axis=1)
