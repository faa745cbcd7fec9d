"""Path-space measures P_x of the weighted branch walk.

A path from x is a digit sequence (omega_1, omega_2, ...) identified
with the states z_k = tau_{omega_k} ... tau_{omega_1} x; the Kolmogorov
measure P_x gives a length-n cylinder the weight

    W(z_1) W(z_2) ... W(z_n),

which is a probability whenever the branch weights sum to one pointwise
(the QMF normalization).  Infinite words ending in an endless repetition
of a cycle word are represented as (prefix, cycle) pairs; for a W-cycle
the repetition factors converge to 1 and the full path weight equals
|mu_hat_B(x + k(prefix))|^2, the identity the closed-form harmonic
estimator is built on.

Monte Carlo sampling runs the one branch walk of the package (`_walk`,
also behind the stationary chains of `invariant`), vectorized across
paths: each step evaluates W at all N branch images at once (from the
state alone, without forming the images: W is a cosine polynomial, see
`measure.Weight`), draws the branch and moves to the chosen image
only.  The branch probabilities W(tau_l z) are exact up to float
rounding, and weights below the rounding bound of their evaluation at
the state they are read from (`measure._zero_cutoff`) are treated as
exactly zero, so paths cannot tunnel through zeros of W, and a walk's
step is one map of its state, the same at every step.

A walk whose weight has sup W < 1 has no W-cycle, and two copies of it
driven by the same uniforms merge (Diaconis-Freedman, Iterated random
functions, SIAM Rev. 1999; Propp-Wilson, coupling from the past, 1996).
Such a walk runs in split time: each walk is cut into segments walked
side by side, and each segment is joined to its predecessor at the first
step where the two float states are equal bit for bit, so the result is
bit-identical to one sequential walk.  W_B walks stay sequential: W_B is
1 on its W-cycles, copies can be absorbed into different ones, and then
they never merge.

A W_B walk retires instead.  Its paths end in an endless repetition of a
W-cycle (Dutkay-Jorgensen, Fourier frequencies in affine iterated
function systems, JFA 2007), and in floats a walk reaches that end
exactly: a state that repeats bit for bit, with one branch carrying the
whole weight at each state of the period, after which the walk reads no
more of its uniforms.  The walk tests for this every RETIRE_STRIDE steps,
stops once every walk has retired, and fills the later steps by
repeating each walk's period; words and states are again bit-identical
to the walk of every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import Cycle
from .measure import Weight, _branch_pass, _zero_cutoff, mu_hat_batch
from .spectrum import _cycle_k_points
from .system import AffineSystem, IfsView

__all__ = [
    "PathEnsemble",
    "HarmonicEstimate",
    "QmfError",
    "cylinder_weight",
    "cycle_tail_weight",
    "path_weight_with_tail",
    "sample_paths",
    "estimate_h",
    "h_closed_form",
]

QMF_SAMPLING_TOL = 1e-9
WORDS_CSV_ROWS = 10_000  # words `PathEnsemble.words_to_csv` writes, at most
UNIFORM_BLOCK = 1 << 16  # uniforms per draw of the walk, over all its walks
WIDTH = 2048  # rows a time-split walk steps at once, over all its segments
WINDOW = 128  # steps a segment's head may take to merge with its speculative steps
RETIRE_STRIDE = 64  # steps between two tests of whether every walk has retired
RING = 16  # the longest float period a walk is tested for when it may retire


class QmfError(ValueError):
    """The branch probabilities at a sampled state sum to 1 only up to
    `deviation`, more than QMF_SAMPLING_TOL: the weight is not
    QMF-normalized there, in exact terms or after rounding."""

    def __init__(self, deviation: float):
        super().__init__("branch probabilities sum to 1 within %g only up to %g; "
                         "is the weight QMF-normalized?" % (QMF_SAMPLING_TOL, deviation))
        self.deviation = float(deviation)


def _cut_pass(weight: Weight, view: IfsView, n: int):
    """The walk's branch pass for batches of n states: `_branch_pass`, with
    each weight below the zero cut at its row's state z, floor + sum_i
    s_i |z_i| (`_zero_cutoff`), set to exactly 0.  The cut is one dot
    product, the floor the coefficient of a row of ones below |z|^t, and
    every buffer is allocated once, so each call overwrites the last."""
    weights_at, (floor, s) = _branch_pass(weight, view, n), _zero_cutoff(weight, view)
    coef, terms, cut = np.append(s, floor), np.ones((view.d + 1, n)), np.empty(n)
    abs_z, zero = terms[:-1], np.empty((view.n_digits, n), dtype=bool)

    def cut_weights_at(z):
        w = weights_at(z)
        np.abs(z.T, out=abs_z)
        np.less(w, np.dot(coef, terms, out=cut), out=zero)
        np.putmask(w, zero, 0.0)
        return w
    return cut_weights_at


def _word_weights(weight: Weight, view: IfsView, x, word) -> tuple:
    """(states, w): the states z_1..z_n along a word (digit indices, first
    applied first) and W(z_k), read as the walk reads it at z_{k-1}: its move
    (d_l + z) M^{-t}, then one `_cut_pass` over z_0..z_{n-1}, of at least two
    rows, as numpy rounds a one-row product otherwise than a batch."""
    word = np.asarray(word, dtype=np.intp)
    n, inv_t = len(word), view.inv.T
    z = np.empty((n + 1, view.d))
    z[0] = np.asarray(x, dtype=float).reshape(view.d)
    for k, idx in enumerate(word):
        z[k + 1] = (view.digits[idx] + z[k]) @ inv_t
    pred = z[:max(2, n)]
    return z[1:], _cut_pass(weight, view, len(pred))(pred)[word, np.arange(n)]


def cylinder_weight(weight: Weight, view: IfsView, x, word) -> float:
    """prod_k W(z_k) along the word; in [0, 1] under QMF; empty word -> 1."""
    return float(np.prod(_word_weights(weight, view, x, list(word))[1]))


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


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Monte Carlo sample of the branch walk from a common start point."""

    start: np.ndarray
    length: int
    words: np.ndarray  # (count, length) int8 digit indices
    seed: int
    final_states: np.ndarray  # (count, d)
    tail_states: np.ndarray  # (count, tail_window + 1, d), last steps
    retired_at: int | None = None  # the step at which the walk retired (`_walk`), or None

    @property
    def count(self) -> int:
        return self.words.shape[0]

    def cylinder_frequency(self, word) -> float:
        """Empirical frequency of a prefix cylinder."""
        word = np.asarray(list(word), dtype=self.words.dtype)
        if len(word) > self.length:
            raise ValueError("cylinder longer than the sampled paths")
        hits = np.all(self.words[:, : len(word)] == word, axis=1)
        return float(np.mean(hits))

    def words_to_csv(self, path) -> None:
        """One sampled word per row, digit indices in step order: the first
        WORDS_CSV_ROWS (10^4) words."""
        with open(path, "w", newline="") as fh:
            fh.write(",".join("w%d" % k for k in range(self.length)) + "\n")
            for row in self.words[:WORDS_CSV_ROWS]:
                fh.write(",".join(str(int(v)) for v in row) + "\n")


def _segment_count(weight: Weight, x, length: int, count: int) -> int:
    """K, the segments each of `count` walks of `length` steps from x is split
    into: 1 unless c0 + sum_j |a_j| < 1, the start is finite and the walk is
    long enough.

    That bound is sup W < 1 (with room for the rounding of the
    coefficients), so the walk has no W-cycle to be absorbed into and two
    copies driven by the same uniforms merge.  W_B is 1 at 0, so its walks
    stay in one segment."""
    sup = weight.c0 + float(np.abs(weight.a).sum())
    if not np.all(np.isfinite(x)) or not sup < 1.0 - 2 * (len(weight.a) + 1) * np.finfo(float).eps:
        return 1
    return max(1, min(WIDTH // count, length // (4 * WINDOW)))


def _stream(rng, skip: int):
    """A generator on a copy of rng's PCG64 state, advanced by skip draws."""
    bits = np.random.PCG64()
    bits.state = rng.bit_generator.state
    return np.random.Generator(bits.advance(skip))


def _steps(weight: Weight, view: IfsView, z, draw, record, n_steps: int, block: int,
           split: bool):
    """Advance the rows of z (n, d) by n_steps steps of the branch walk, in
    lockstep and in place.  Each step moves a row to tau_i z with probability
    W(tau_i z), cut to 0 below the zero cut at z (`_cut_pass`), drawn by one
    uniform per row against the cumulative weights;
    `draw(k)` gives the uniforms of the next k steps as a (k, n) array,
    called every `block` steps, and `record(step, choices, z)` stores each
    step's choices and new states.

    The weights come as a C-ordered (N, n) array, so the per-step reductions
    run along the rows; the choice counts the cumulative rows the uniform
    passes, one row at a time (the last row is 1 up to rounding, and a
    uniform past it takes the last branch either way).  Only the chosen
    image is computed.  A step on a few dozen rows costs numpy's per-call
    overhead more than arithmetic, so the branch-weight pass (`_cut_pass`)
    is set up once, and every step writes into buffers allocated once: the
    weights, the cut and its mask, the choices and the moved states.

    The row sums of all steps of a block go to one buffer, and the QMF check
    runs once per block, at its last step: a walk that breaks QMF raises
    `QmfError` after the rest of its block has run, with the block's worst
    deviation.  The worst is taken with fmax, so a NaN deviation (from a NaN
    weight or start point) cannot hide a break, and the steps after a break
    run with floating-point warnings off.  A `split` pass (see `_walk`)
    raises on a NaN worst too.

    A walk of more than RETIRE_STRIDE steps that is not a split pass keeps
    its states in a ring of RING + 1 buffers (step k writes z_{k+1} into
    slot k + 1 mod RING + 1, so the ring costs no copy) and may retire:
    every RETIRE_STRIDE steps `_periods` tests whether every row has
    retired, and if so the walk runs the QMF check of its partial block and
    stops, with z at its last state.  It then returns (k, period, ring):
    the steps taken, each row's period and the ring, which holds
    z_{k-RING}..z_k; the caller fills the later steps (`_tile`).  Otherwise
    it returns None."""
    rows = len(z)
    weights_at = _cut_pass(weight, view, rows)
    sums = np.empty((min(block, n_steps), rows))
    passed = np.empty(rows, dtype=bool)
    choices = np.empty(rows, dtype=np.intp)
    moved = np.empty_like(z)
    inv_t, digits = view.inv.T, view.digits
    retiring = not split and n_steps > RETIRE_STRIDE
    ring = np.empty((RING + 1,) + z.shape) if retiring else z[None]
    ring[0] = z
    slots, state = list(ring), z

    def check(block_sums):
        block_sums -= 1.0
        worst = np.fmax.reduce(np.abs(block_sums, out=block_sums), axis=None)
        if worst > QMF_SAMPLING_TOL or (split and np.isnan(worst)):
            raise QmfError(worst)

    # ufunc methods with out= rather than their numpy wrappers: a step works
    # on a few dozen numbers, so call overhead is most of its cost
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(n_steps):
            k = step % block
            if k == 0:
                uniforms = draw(min(block, n_steps - step))
            u, row_sums = uniforms[k], sums[k]
            state = slots[step % len(slots)]
            w = weights_at(state)
            np.add.reduce(w, out=row_sums)
            w /= row_sums
            cum = w[0]
            choices[...] = np.greater_equal(u, cum, out=passed)
            for row in w[1:-1]:
                cum += row
                choices += np.greater_equal(u, cum, out=passed)
            digits.take(choices, axis=0, out=moved)
            moved += state
            state = np.matmul(moved, inv_t, out=slots[(step + 1) % len(slots)])
            record(step, choices, state)
            if k == len(uniforms) - 1:
                check(sums[: k + 1])
            done = step + 1
            if retiring and done % RETIRE_STRIDE == 0 and done < n_steps:
                period = _periods(ring, done, weights_at)
                if period is not None:
                    if k < len(uniforms) - 1:
                        check(sums[: k + 1])
                    z[...] = state
                    return done, period, ring
    z[...] = state
    return None


def _periods(ring, k: int, weights_at):
    """Each row's period at step k, if every row has retired, else None.

    A row has retired when z_k equals z_{k-p} bit for bit for some
    p <= min(RING, k), and at each of z_{k-p}..z_{k-1} exactly one branch
    weight is not cut to 0 (`_cut_pass`).  Then that branch takes the whole
    normalized weight, 1.0 exactly, so the choice there is the same whatever
    the uniform, and from z_k on the row repeats z_{k-p}..z_{k-1} and their
    choices forever: a W-cycle reached in floats.  Its later row sums repeat
    sums of steps already taken, so no QMF check it would meet can fail
    where an earlier one passed, nor report another worst deviation.  The
    weights at the ring's states are computed again by the walk's own pass
    on the walk's own buffers, so they are the weights its steps used, bit
    for bit.  The period is the least such p."""
    lags = np.arange(1, min(RING, k) + 1)
    bits = ring.view(np.int64)
    # every slot against z_k, then the rows of the lags: no copy of the states
    same = np.all(bits == bits[k % len(ring)], axis=2)[(k - lags) % len(ring)]
    if not np.all(np.any(same, axis=0)):
        return None
    period = lags[np.argmax(same, axis=0)]
    for lag in range(1, int(period.max()) + 1):
        single = np.count_nonzero(weights_at(ring[(k - lag) % len(ring)]), axis=0) == 1
        if not np.all(single | (period < lag)):
            return None
    return period


def _tile(words, kept, keep_from: int, k: int, period, ring) -> None:
    """Fill the words of steps k.. and the kept states z_{k+1}.. of a walk
    that retired at step k (see `_steps`): row r repeats its last period[r]
    choices and states, z_{k+i+m p} = z_{k-p+i}."""
    first = max(k + 1, keep_from)  # the first state to fill
    for p in range(1, int(period.max()) + 1):
        rows = period == p
        if not rows.any():
            continue
        for i in range(p):
            words[rows, k + i::p] = words[rows, k - p + i, None]
            at = first + (k + i - first) % p  # the first state from `first` on that is z_{k-p+i}
            kept[rows, at - keep_from::p] = ring[(k - p + i) % len(ring), rows, None]


def _split_walk(weight: Weight, view: IfsView, x, length: int, count: int, rng,
                keep_from: int, n_seg: int):
    """`_walk` on n_seg segments per walk, walked side by side; None when a
    head does not merge within WINDOW steps.

    The rows are segment-major (row j count + r is segment j of walk r).
    The first length % n_seg segments have s + 1 steps, the others s; each
    segment draws its uniforms from its own copy of the stream, advanced to
    its first step.  Words and kept states go straight into flat buffers,
    addressed per row; a step outside a row's segment, or a state before
    keep_from, goes to the buffers' last entry, the sink.  Two copies that
    are equal after some step stay equal, so a head has merged within
    WINDOW steps exactly when it equals its speculative state after step
    WINDOW: that state is the one kept for the test."""
    s, extra = divmod(length, n_seg)
    firsts = np.arange(n_seg) * s + np.minimum(np.arange(n_seg), extra)
    width = length + 1 - keep_from
    words = np.empty(count * length + 1, dtype=np.int8)
    kept = np.empty((count * width + 1, view.d))
    if keep_from == 0:
        kept[:-1].reshape(count, width, view.d)[:, 0] = x
    walk, first = np.tile(np.arange(count), n_seg), np.repeat(firsts, count)
    word_at = walk * length + first
    state_at = walk * width + first + 1 - keep_from
    kept_after = keep_from - 1 - first  # the local step from which a row's states are kept
    long_rows = extra * count
    z = np.tile(np.asarray(x, dtype=float).reshape(1, view.d), (n_seg * count, 1))
    ends, at_window = np.empty_like(z), np.empty_like(z)

    def run(segs, z, n_steps, speculative):
        """Walk the rows of segments `segs` from z for n_steps steps; the
        speculative pass keeps its states after step WINDOW in `at_window`
        and those of the rows of s-step segments after step s in `ends`."""
        rows = slice(segs.start * count, segs.stop * count)
        word0, state0, after = word_at[rows], state_at[rows], kept_after[rows]
        done = max(0, long_rows - rows.start)  # the rows from here on have s steps
        n = len(z)
        pw, pk, skip = np.empty(n, np.intp), np.empty(n, np.intp), np.empty(n, dtype=bool)
        streams = [_stream(rng, int(firsts[j]) * count) for j in segs]
        block = max(1, UNIFORM_BLOCK // n)
        drawn = np.empty((len(streams), block * count))
        uniforms = np.empty((block, n))

        def draw(k):
            for stream, chunk in zip(streams, drawn):
                stream.random(out=chunk[: k * count])
            by_step = uniforms[:k].reshape(k, len(streams), count)
            by_step[...] = drawn[:, : k * count].reshape(-1, k, count).transpose(1, 0, 2)
            return uniforms[:k]

        def record(i, choices, z):
            np.add(word0, i, out=pw)
            np.add(state0, i, out=pk)
            np.greater(after, i, out=skip)
            if i == s:
                skip[done:] = True
                pw[done:] = len(words) - 1
            np.putmask(pk, skip, len(kept) - 1)
            words.put(pw, choices)
            kept[pk] = z
            if speculative and i == WINDOW - 1:
                at_window[...] = z
            if speculative and i == s - 1:
                ends[done:] = z[done:]

        _steps(weight, view, z, draw, record, n_steps, block, split=True)

    # the speculative pass: every segment from x
    run(range(n_seg), z, s + (extra > 0), speculative=True)
    ends[:long_rows] = z[:long_rows]
    # the head pass: segments 1.. from the speculative ends of their predecessors
    heads = ends[:-count]
    run(range(1, n_seg), heads, WINDOW, speculative=False)
    if not np.array_equal(heads.view(np.int64), at_window[count:].view(np.int64)):
        return None
    return words[:-1].reshape(count, length), kept[:-1].reshape(count, width, view.d)


@dataclass(frozen=True, eq=False)
class Walk:
    """The result of `_walk`; it unpacks as (words, kept)."""

    words: np.ndarray  # (count, length) int8 digit indices
    kept: np.ndarray  # (count, length + 1 - keep_from, d), the states z_k for k >= keep_from
    retired_at: int | None  # the step at which the walk stopped, every row retired; or None

    def __iter__(self):
        return iter((self.words, self.kept))


def _walk(weight: Weight, view: IfsView, x, length: int, count: int, seed,
          keep_from: int) -> Walk:
    """The branch walk: `count` independent walks of `length` steps from x.
    Returns the words (count, length) and the states z_k for k >= keep_from,
    shape (count, length + 1 - keep_from, d), with z_0 = x.

    The walks run in lockstep (`_steps`) on uniforms from one stream, drawn
    for several steps at once: `default_rng` gives the same stream in
    blocks as in one call per step.  Step k of walk r takes draw k count + r.

    *Split time.*  When the walk has no W-cycle (`_segment_count`), each
    walk is cut into K segments, all walked side by side from x (the
    speculative pass), each on its own draws of the stream.  Segment 0
    starts at the true x, so its steps are the walk's.  Then a head pass
    restarts every later segment from the speculative end of its
    predecessor, on the same draws, for WINDOW steps.  Two copies of a
    walk with sup W < 1 driven by the same uniforms merge: once a head's
    state equals the speculative state bit for bit, every later step of
    the segment is the same as well, so the head's steps up to there and
    the speculative steps after it are the walk's, and by induction over
    the segments the words and states are bit-identical to one segment's.
    A head that does not merge within WINDOW steps, or a QmfError (a NaN
    worst deviation included) in either pass, sends the walk back to one
    segment, which raises what it raises.

    *Retirement.*  A W_B walk is not split: W_B(0) = 1, copies fall into
    different W-cycles and need not merge at all.  Instead it retires: the
    one-segment walk stops once every row is locked in a float W-cycle
    (`_periods`, tested every RETIRE_STRIDE steps), and `_tile` fills each
    row's later words and states by repeating its period.  A live row's
    steps, and so its draws, are the same as without retirement, and the
    words and states are bit-identical to a walk of every step.
    `retired_at` is the step at which the walk stopped, a multiple of
    RETIRE_STRIDE, or None when it took all `length` steps.
    """
    rng = np.random.default_rng(seed)
    n_seg = _segment_count(weight, x, length, count)
    if n_seg > 1:
        try:
            split = _split_walk(weight, view, x, length, count, rng, keep_from, n_seg)
        except QmfError:
            split = None
        if split is not None:
            return Walk(*split, retired_at=None)
    z = np.tile(np.asarray(x, dtype=float).reshape(1, view.d), (count, 1))
    words = np.empty((count, length), dtype=np.int8)
    kept = np.empty((count, length + 1 - keep_from, view.d))
    if keep_from == 0:
        kept[:, 0] = z

    def record(step, choices, z):
        words[:, step] = choices
        if step + 1 >= keep_from:
            kept[:, step + 1 - keep_from] = z

    block = max(1, UNIFORM_BLOCK // count)
    retired = _steps(weight, view, z, lambda k: rng.random(k * count).reshape(-1, count), record,
                     length, block, split=False)
    if retired is None:
        return Walk(words, kept, retired_at=None)
    _tile(words, kept, keep_from, *retired)
    return Walk(words, kept, retired_at=retired[0])


def sample_paths(weight: Weight, view: IfsView, x, length: int, count: int,
                 seed: int, tail_window: int | None = None) -> PathEnsemble:
    """Draw `count` independent paths of `length` steps from x.

    Deterministic given the seed; empirical cylinder frequencies converge
    to the cylinder weights.  tail_window controls how many trailing
    states are retained (for tail classification).
    """
    if length < 1 or count < 1:
        raise ValueError("length and count must be >= 1")
    if tail_window is None:
        tail_window = min(length, 8)
    tail_window = min(tail_window, length)
    walk = _walk(weight, view, x, length, count, seed, length - tail_window)
    return PathEnsemble(
        start=np.asarray(x, dtype=float).reshape(view.d),
        length=length,
        words=walk.words,
        seed=seed,
        final_states=walk.kept[:, -1].copy(),
        tail_states=walk.kept,
        retired_at=walk.retired_at,
    )


@dataclass(frozen=True, eq=False)
class HarmonicEstimate:
    """Monte Carlo estimate of h_C(x) = P_x(paths converging into C), with
    the sampled paths it was read from (not part of `to_dict`)."""

    probabilities: tuple  # one per supplied cycle
    stderrs: tuple
    unclassified: float
    count: int
    radius: float
    paths: PathEnsemble

    @property
    def total(self) -> float:
        return float(sum(self.probabilities))

    def to_dict(self, cycles=None) -> dict:
        rows = []
        for i, (p, s) in enumerate(zip(self.probabilities, self.stderrs)):
            row = {"probability": p, "stderr": s}
            if cycles is not None:
                row["word"] = list(cycles[i].word)
                row["period"] = cycles[i].period
            rows.append(row)
        return {
            "per_cycle": rows,
            "total": self.total,
            "unclassified": self.unclassified,
            "count": self.count,
            "radius": self.radius,
        }


def classification_radius(w_cycles, view: IfsView) -> float:
    """1/8 of the minimum pairwise distance between all W-cycle points;
    falls back to 1/8 of the attractor radius when there is only one
    point in total."""
    pts = np.concatenate([c.points_float for c in w_cycles], axis=0)
    if len(pts) > 1:
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        dist[np.diag_indices(len(pts))] = np.inf
        return float(np.min(dist)) / 8.0
    return max(view.bounding_radius(), 1e-6) / 8.0


def _cycle_labels(ens: PathEnsemble, w_cycles, radius: float) -> np.ndarray:
    """Each path's index in w_cycles, or -1: the cycle whose points its
    last state aligned to that cycle's period is within `radius` of, when
    exactly one cycle's is.  The distances are formed coordinate by
    coordinate, the float operations of `np.linalg.norm` for d < 8 without
    its reduction over an axis of d entries, as (points, paths) arrays, so
    that the test against the radius reduces over whole rows of paths."""
    length, window = ens.length, ens.tail_states.shape[1] - 1
    hits = np.empty((len(w_cycles), ens.count), dtype=bool)
    for ci, cyc in enumerate(w_cycles):
        aligned = (length // cyc.period) * cyc.period  # 0 when p > length: the start x
        states, points = ens.tail_states[:, aligned - (length - window)], cyc.points_float
        dist = np.zeros((len(points), ens.count))
        for i in range(points.shape[1]):
            diff = np.subtract.outer(points[:, i], states[:, i])
            dist += np.multiply(diff, diff, out=diff)
        np.any(np.sqrt(dist, out=dist) < radius, axis=0, out=hits[ci])
    return np.where(np.count_nonzero(hits, axis=0) == 1, np.argmax(hits, axis=0), -1)


def estimate_h(weight: Weight, view: IfsView, x, w_cycles, length: int,
               count: int, seed: int, radius: float | None = None) -> HarmonicEstimate:
    """Classify sampled paths by which W-cycle their tail has entered.

    Classification inspects the last period-aligned state of each path:
    for a cycle of period p the state at the largest multiple of p not
    exceeding the path length must fall within `radius` of one of the
    cycle's points.  Paths near no cycle (or, pathologically, near more
    than one) are reported as unclassified mass, never silently dropped
    (`_cycle_labels`).
    """
    if not w_cycles:
        raise ValueError("at least one W-cycle is required")
    if radius is None:
        radius = classification_radius(w_cycles, view)
    max_period = max(c.period for c in w_cycles)
    ens = sample_paths(weight, view, x, length, count, seed, tail_window=max_period)
    assigned = _cycle_labels(ens, w_cycles, radius)
    probs, errs = [], []
    for ci in range(len(w_cycles)):
        p_hat = float(np.mean(assigned == ci))
        probs.append(p_hat)
        errs.append(float(np.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / count) / count)))
    unclassified = float(np.mean(assigned < 0))
    return HarmonicEstimate(
        probabilities=tuple(probs),
        stderrs=tuple(errs),
        unclassified=unclassified,
        count=count,
        radius=radius,
        paths=ens,
    )


def h_closed_form(sys: AffineSystem, x, cycle: Cycle, depth: int,
                  tail_tol: float | None = None) -> float:
    """Closed-form sum over period-aligned words omega (depth blocks,
    duplicates counted once) of |mu_hat_B(x + k(omega))|^2, k(omega) the
    k-points of one rotation, the one based at cycle.points[0]
    (`k_points_of_depth`).  Nonnegative terms, so the sum increases with
    depth; but it counts only the paths that enter C at points[0].  For
    period 1 that is h_C(x); for period p > 1 it is a part of h_C(x)
    (lambda15 from 0.3 at depth 8: 0.0125 for its 2-cycle, and 0.191 from
    the k-points based at its other point, which this sum leaves out)."""
    rows, q = _cycle_k_points(sys, cycle, depth)
    # int / int is correctly rounded: the same floats as float(Fraction)
    pts = np.array([[v / q for v in row] for row in sorted(rows)])
    pts = pts + np.atleast_1d(np.asarray(x, dtype=float))
    vals = mu_hat_batch(sys, pts, tail_tol)
    return float(np.sum(np.abs(vals) ** 2))
