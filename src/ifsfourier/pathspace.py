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
Such a walk runs in split time: each walk is cut into segments of equal
length, walked side by side, and each segment is joined to its
predecessor at the first step where the two float states are equal bit
for bit, so the result is bit-identical to one sequential walk.  One
driver (`_segments`) runs every walk, on one segment or on many.  W_B
walks stay in one segment: W_B is 1 on its W-cycles, copies can be
absorbed into different ones, and then they never merge.

A W_B walk retires instead.  Its paths end in an endless repetition of a
W-cycle (Dutkay-Jorgensen, Fourier frequencies in affine iterated
function systems, JFA 2007), and in floats a walk reaches that end
exactly: a state that repeats bit for bit, with one branch carrying the
whole weight at each state of the period, after which the walk reads no
more of its uniforms.  The walk tests for this every RETIRE_STRIDE steps,
stops once every walk has retired, and fills the later steps by
repeating each walk's period; words and states are again bit-identical
to the walk of every step.

A walk of many paths steps the nodes of its path tree instead of its
paths.  P_x is a Markov measure on the tree of words from x, and W_B paths
gather on few of its nodes: over the 6,000 paths of 64 steps of the
harmonic benchmark jobs (seed 1, mean over the steps), a step has 7.3
distinct word prefixes on cantor4, 14.4 on lambda15, 518 on twindragon
and 3,801 on planar-shear.  So a one-segment walk of at least NODE_ROWS
paths that does not retire runs its branch pass on a table of the
distinct nodes, each path keeping only its node's index, until the table
holds more than NODE_SHARE of the paths; from then on it steps paths.
Words and states are again bit-identical to the walk of every path
(`_steps`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import Cycle
from .measure import Weight, _branch_pass, _zero_cutoff, mu_hat_batch
from .report import write_csv
from .spectrum import _closure, _table_floats
from .system import AffineSystem, IfsView

__all__ = [
    "PathEnsemble",
    "HarmonicEstimate",
    "QmfError",
    "sample_paths",
    "estimate_h",
    "h_closed_forms",
    "h_closed_form",
]

QMF_SAMPLING_TOL = 1e-9
WORDS_CSV_ROWS = 10_000  # words `PathEnsemble.words_to_csv` writes, at most
UNIFORM_BLOCK = 1 << 16  # uniforms per draw of the walk, over all its walks
WIDTH = 2048  # the most rows a walk of several segments steps at once, over all of them
WINDOW = 128  # steps a segment's head may take to merge with its speculative steps
RETIRE_STRIDE = 64  # steps between two tests of whether every walk has retired
RING = 16  # the longest float period a walk is tested for when it may retire
NODE_ROWS = 512  # the fewest rows a one-segment walk steps as a table of nodes
NODE_SHARE = 0.5  # a node walk steps rows for good once its table holds more of its rows


class QmfError(ValueError):
    """The branch probabilities at a sampled state sum to 1 only up to
    `deviation`, more than QMF_SAMPLING_TOL: the weight is not
    QMF-normalized there, in exact terms or after rounding."""

    def __init__(self, deviation: float):
        super().__init__("branch probabilities sum to 1 within %g only up to %g; "
                         "is the weight QMF-normalized?" % (QMF_SAMPLING_TOL, deviation))
        self.deviation = float(deviation)


def _cut_pass(weight: Weight, view: IfsView):
    """The walk's branch pass for batches of states: `_branch_pass`, with
    each weight below the zero cut at its row's state z,
    floor + sum_i s_i |z_i| (`_zero_cutoff`), set to exactly 0.  The cut is
    one dot product, the floor the coefficient of a row of ones below
    |z|^t.  A `_branch_pass` and the cut's buffers are set up for the size
    of the batch, and again when a batch of another size comes (a node
    walk's table grows, see `_steps`), so each call of the same size
    overwrites the last.  A batch of one state runs as two rows, the state
    twice, as numpy rounds a one-row product otherwise than a batch: a
    state's weights are then the same bits in every batch it is weighed
    in."""
    floor, s = _zero_cutoff(weight, view)
    coef, pair = np.append(s, floor), np.empty((2, view.d))

    def setup(m):
        terms, zero = np.ones((view.d + 1, m)), np.empty((view.n_digits, m), dtype=bool)
        return m, _branch_pass(weight, view, m), terms, terms[:-1], np.empty(m), zero
    held = (None,)

    def cut_weights_at(z):
        nonlocal held
        one = len(z) == 1
        if one:
            pair[...] = z
            z = pair
        if len(z) != held[0]:
            held = None  # freed before the next size is set up
            held = setup(len(z))
        _, weights_at, terms, abs_z, cut, zero = held
        w = weights_at(z)
        np.abs(z.T, out=abs_z)
        np.less(w, np.dot(coef, terms, out=cut), out=zero)
        np.putmask(w, zero, 0.0)
        return w[:, :1] if one else w
    return cut_weights_at


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Monte Carlo sample of the branch walk from a common start point."""

    start: np.ndarray
    length: int
    words: np.ndarray  # (count, length) int8 digit indices
    seed: int
    tail_states: np.ndarray  # (count, tail_window + 1, d), last steps, the final state last
    retired_at: int | None = None  # the step at which the walk retired (`_walk`), or None

    @property
    def count(self) -> int:
        return self.words.shape[0]

    def words_to_csv(self, path) -> None:
        """One sampled word per row, digit indices in step order: the first
        WORDS_CSV_ROWS (10^4) words."""
        write_csv(path, ["w%d" % k for k in range(self.length)],
                  self.words[:WORDS_CSV_ROWS].tolist())


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
    called every `block` steps, and `record(step, choices, table, node)`
    stores each step's choices and new states: the rows' states are
    table[node], or table itself when node is None.

    The weights come as a C-ordered (N, m) array, so the per-step reductions
    run along the rows; the choice counts the cumulative rows the uniform
    passes, one row at a time (the last row is 1 up to rounding, and a
    uniform past it takes the last branch either way).  Only the chosen
    image is computed.  A step on a few dozen rows costs numpy's per-call
    overhead more than arithmetic, so the branch-weight pass (`_cut_pass`)
    is set up once, and every step writes into buffers allocated once: the
    weights, the cut and its mask (again whenever a node table below
    changes size), the choices and the moved states.

    *The node table.*  The rows of a walk that is not `split` all start at
    one state.  Such a walk of at least NODE_ROWS rows that does not retire
    (below) steps the nodes of its path tree, not its rows: `table` holds
    one state per node and `node` each row's index into it.  The pass, the
    row sums, the QMF check (the worst deviation over the nodes is the worst
    over the rows) and the cumulative weights run on the table; per row
    there remain the comparison of the uniform with its node's cumulative
    weights and the word write.  The move keys each row by node N + choice,
    and each occupied key becomes one new node, (d_choice + z_node) M^{-t}:
    rows that share a node and a choice get one state, the bits each of them
    would get alone, so words and states are those of the walk of every row.
    (A table of one node is weighed as two rows, `_cut_pass`; its one-row
    move rounds as a batch's move does.)  Every node has an occupied child,
    so the table never shrinks; once it holds more than NODE_SHARE of the
    rows, the walk steps rows for good.  Measured per step of 64-step walks
    (2-core Xeon VM, numpy 2.4.6, one thread, best of 9): at 32 rows the
    table's bookkeeping makes a cantor4 step 58 us against 41 us on rows,
    and the two break even near 512 rows on every registry system.  At 6,000
    rows a step takes 0.17 ms on nodes against 0.38 ms on rows on cantor4
    (at most 19 nodes), and on planar-shear 0.34 against 0.82 ms from a
    sparse start (606 nodes at the end) and 0.73 against 0.88 ms from a
    dense one, which switches at step 20.  Over the 15 planar-shear starts
    of the harmonic benchmark jobs (seeds 1-3), never switching took 8%
    longer than switching at half the rows, and switching at 0.3 or 0.7 of
    them the same within 2.5%.

    The row sums of all steps of a block go to one buffer, and the QMF check
    runs once per block, at its last step: a walk that breaks QMF raises
    `QmfError` after the rest of its block has run, with the block's worst
    deviation.  The worst is taken with fmax, so a NaN deviation (from a NaN
    weight or start point) cannot hide a break, and the steps after a break
    run with floating-point warnings off.  A `split` pass (see `_walk`)
    raises on a NaN worst too.

    A walk of more than RETIRE_STRIDE steps that is not a split pass keeps
    its states in a ring of RING + 1 buffers (step k writes z_{k+1} into
    slot k + 1 mod RING + 1, so the ring costs no copy) and may retire; it
    steps rows, whatever its row count.  Every RETIRE_STRIDE steps
    `_periods` tests whether every row has retired, and if so the walk runs
    the QMF check of its partial block and stops, with z at its last
    state.  It then returns (k, period, ring): the steps taken, each row's
    period and the ring, which holds z_{k-RING}..z_k; the caller fills the
    later steps (`_tile`).  Otherwise it returns None."""
    rows, n_dig = len(z), view.n_digits
    weights_at = _cut_pass(weight, view)
    sums = np.empty(min(block, n_steps) * rows)
    passed = np.empty(rows, dtype=bool)
    choices = np.empty(rows, dtype=np.intp)
    moved = np.empty_like(z)
    inv_t, digits = view.inv.T, view.digits
    retiring = not split and n_steps > RETIRE_STRIDE
    ring = np.empty((RING + 1,) + z.shape) if retiring else z[None]
    ring[0] = z
    slots, table, node = list(ring), ring[0], None
    if not split and not retiring and rows >= NODE_ROWS:  # every row at z[0]: one node
        table, node, at_rows = z[:1], np.zeros(rows, dtype=np.intp), np.empty(rows)
        key, index = np.empty(rows, dtype=np.intp), np.empty(rows * n_dig, dtype=np.intp)
        occupied = np.empty(rows * n_dig, dtype=bool)

    def at_nodes(cum):  # each row's entry of a per-node array
        return cum.take(node, out=at_rows, mode="clip")

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
                uniforms, filled = draw(min(block, n_steps - step)), 0
            u, m = uniforms[k], len(table)
            w = weights_at(table)
            row_sums = sums[filled:filled + m]
            filled += m
            np.add.reduce(w, out=row_sums)
            w /= row_sums
            cum = w[0]
            choices[...] = np.greater_equal(u, cum if node is None else at_nodes(cum), out=passed)
            for row in w[1:-1]:
                cum += row
                choices += np.greater_equal(u, cum if node is None else at_nodes(cum), out=passed)
            slot = (step + 1) % len(slots)
            if node is None:
                digits.take(choices, axis=0, out=moved)
                moved += table
                table = np.matmul(moved, inv_t, out=slots[slot])
            else:
                np.multiply(node, n_dig, out=key)
                key += choices
                seen = occupied[:m * n_dig]
                seen.fill(False)
                seen[key] = True
                kids = np.flatnonzero(seen)
                index.put(kids, np.arange(len(kids)))
                index.take(key, out=node, mode="clip")
                parent, branch = np.divmod(kids, n_dig)
                new = digits.take(branch, axis=0, out=moved[:len(kids)])
                new += table.take(parent, axis=0)
                table = np.matmul(new, inv_t, out=z[:len(kids)])
                if len(kids) > NODE_SHARE * rows:  # to rows, for good
                    table, node = table.take(node, axis=0), None
                    key = index = occupied = at_rows = None  # freed for the row pass
            record(step, choices, table, node)
            if k == len(uniforms) - 1:
                check(sums[:filled])
            done = step + 1
            if retiring and done % RETIRE_STRIDE == 0 and done < n_steps:
                period = _periods(ring, done, weights_at)
                if period is not None:
                    if k < len(uniforms) - 1:
                        check(sums[:filled])
                    z[...] = table
                    return done, period, ring
    z[...] = table if node is None else table.take(node, axis=0)
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


def _tile(by_step, kept, keep_from: int, k: int, period, ring) -> None:
    """Fill the words of steps k.. (`by_step`, a row per step) and the kept
    states z_{k+1}.. of a walk that retired at step k (see `_steps`): walk r
    repeats its last period[r] choices and states, z_{k+i+m p} = z_{k-p+i}."""
    first = max(k + 1, keep_from)  # the first state to fill
    for p in range(1, int(period.max()) + 1):
        rows = period == p
        if not rows.any():
            continue
        for i in range(p):
            by_step[k + i::p, rows] = by_step[k - p + i, rows]
            at = first + (k + i - first) % p  # the first state from `first` on that is z_{k-p+i}
            kept[rows, at - keep_from::p] = ring[(k - p + i) % len(ring), rows, None]


@dataclass(frozen=True, eq=False)
class Walk:
    """The result of `_walk`; it unpacks as (words, kept)."""

    words: np.ndarray  # (count, length) int8 digit indices
    kept: np.ndarray  # (count, length + 1 - keep_from, d), the states z_k for k >= keep_from
    retired_at: int | None  # the step at which the walk stopped, every row retired; or None

    def __iter__(self):
        return iter((self.words, self.kept))


def _segments(weight: Weight, view: IfsView, x, length: int, count: int, rng,
              keep_from: int, n_seg: int) -> Walk | None:
    """`_walk` on n_seg segments per walk, walked side by side; None when a
    head does not merge within WINDOW steps.

    Each segment has s = ceil(length / n_seg) steps, segment j the steps
    j s .. j s + s - 1, and there are ceil(length / s) of them, so none
    starts past the end; the last one's steps past `length` are dropped.
    The rows are segment-major (row j count + r is segment j of walk r),
    and each segment draws its uniforms from its own copy of the stream,
    advanced to its first step (`_stream`).  The words of step i of every
    segment are one row of `by_step`, transposed once at the end; the
    states after it, z_{j s + i + 1}, are columns s apart of the kept
    states.  Two copies that are equal after some step stay equal, so a
    head has merged within WINDOW steps exactly when it equals its
    speculative state after step WINDOW: that state is the one kept for the
    test.  One segment is the walk of `_steps` alone, which may retire or
    step a node table."""
    s = -(-length // n_seg)
    n_seg = -(-length // s)
    split = n_seg > 1
    by_step = np.empty((s, n_seg * count), dtype=np.int8)  # the words, a contiguous row per step
    kept = np.empty((count, length + 1 - keep_from, view.d))
    z = np.tile(np.asarray(x, dtype=float).reshape(1, view.d), (n_seg * count, 1))
    if keep_from == 0:
        kept[:, 0] = z[:count]
    at_window = np.empty_like(z[count:])

    def run(first, z, n_steps):
        """Walk the rows z of segments first.. for n_steps steps (`_steps`)."""
        streams = [_stream(rng, j * s * count) for j in range(first, n_seg)]
        block = max(1, UNIFORM_BLOCK // len(z))
        if len(streams) == 1:
            def draw(k):
                return streams[0].random(k * count).reshape(k, count)
        else:
            drawn, uniforms = np.empty((len(streams), block * count)), np.empty((block, len(z)))

            def draw(k):
                for stream, chunk in zip(streams, drawn):
                    stream.random(out=chunk[: k * count])
                by_seg = uniforms[:k].reshape(k, len(streams), count)
                by_seg[...] = drawn[:, : k * count].reshape(-1, k, count).transpose(1, 0, 2)
                return uniforms[:k]

        if not split:
            def record(i, choices, table, node):
                by_step[i] = choices
                if i + 1 >= keep_from:
                    kept[:, i + 1 - keep_from] = table if node is None else table.take(node, axis=0)
        else:
            def record(i, choices, table, node):
                by_step[i, first * count:] = choices
                lo = max(first, -((i + 1 - keep_from) // s))  # the first segment whose state is kept
                out = kept[:, lo * s + i + 1 - keep_from::s]
                segs = table.reshape(-1, count, view.d)[lo - first:lo - first + out.shape[1]]
                out[...] = segs.swapaxes(0, 1)
                if first == 0 and i == WINDOW - 1:
                    at_window[...] = table[count:]

        return _steps(weight, view, z, draw, record, n_steps, block, split)

    retired = run(0, z, s)  # one segment: the walk; more: the speculative pass, every one from x
    if split:  # the head pass: segments 1.. from the speculative ends of their predecessors
        heads = z[:-count]
        run(1, heads, WINDOW)
        if not np.array_equal(heads.view(np.int64), at_window.view(np.int64)):
            return None
    elif retired is not None:
        _tile(by_step, kept, keep_from, *retired)
    words = by_step.reshape(s, n_seg, count).transpose(2, 1, 0).reshape(count, -1)[:, :length]
    return Walk(np.ascontiguousarray(words), kept, retired_at=None if retired is None else retired[0])


def _walk(weight: Weight, view: IfsView, x, length: int, count: int, seed,
          keep_from: int) -> Walk:
    """The branch walk: `count` independent walks of `length` steps from x.
    Returns the words (count, length) and the states z_k for k >= keep_from,
    shape (count, length + 1 - keep_from, d), with z_0 = x.

    The walks run in lockstep (`_steps`) on uniforms from one stream, drawn
    for several steps at once: `default_rng` gives the same stream in
    blocks as in one call per step.  Step k of walk r takes draw k count + r.

    *Split time.*  One driver, `_segments`, runs every walk: each walk is
    cut into K segments of ceil(length / K) steps, and K = 1 unless the
    walk has no W-cycle (`_segment_count`).  The K segments are walked
    side by side from x (the speculative pass), each on its own draws of
    the stream.  Segment 0 starts at the true x, so its steps are the
    walk's.  Then a head pass restarts every later segment from the
    speculative end of its predecessor, on the same draws, for WINDOW
    steps.  Two copies of a
    walk with sup W < 1 driven by the same uniforms merge: once a head's
    state equals the speculative state bit for bit, every later step of
    the segment is the same as well, so the head's steps up to there and
    the speculative steps after it are the walk's, and by induction over
    the segments the words and states are bit-identical to one segment's.
    A head that does not merge within WINDOW steps, or a QmfError (a NaN
    worst deviation included) in either pass, sends the walk back to one
    segment (`_segments` with K = 1), which raises what it raises.

    *Retirement.*  A W_B walk is not split: W_B(0) = 1, copies fall into
    different W-cycles and need not merge at all.  Instead it retires: the
    one-segment walk stops once every row is locked in a float W-cycle
    (`_periods`, tested every RETIRE_STRIDE steps), and `_tile` fills each
    row's later words and states by repeating its period.  A live row's
    steps, and so its draws, are the same as without retirement, and the
    words and states are bit-identical to a walk of every step.
    `retired_at` is the step at which the walk stopped, a multiple of
    RETIRE_STRIDE, or None when it took all `length` steps.

    Raises OverflowError when the zero cut at x (`_cut_pass`) reaches 1/N:
    a QMF weight has a branch weight >= 1/N, which survives a lower cut.
    """
    floor, s = _zero_cutoff(weight, view)
    if floor + s @ np.abs(np.asarray(x, dtype=float).reshape(view.d)) >= 1.0 / view.n_digits:
        raise OverflowError("the zero cut %g + %s.|x| at the start reaches 1/N = %g"
                            % (floor, s, 1.0 / view.n_digits))
    rng = np.random.default_rng(seed)
    n_seg = _segment_count(weight, x, length, count)
    if n_seg > 1:
        try:
            walk = _segments(weight, view, x, length, count, rng, keep_from, n_seg)
        except QmfError:
            walk = None
        if walk is not None:
            return walk
    return _segments(weight, view, x, length, count, rng, keep_from, 1)


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
    if tail_window < 0:
        raise ValueError("tail_window must be >= 0")
    tail_window = min(tail_window, length)
    walk = _walk(weight, view, x, length, count, seed, length - tail_window)
    return PathEnsemble(
        start=np.asarray(x, dtype=float).reshape(view.d),
        length=length,
        words=walk.words,
        seed=seed,
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
               count: int, seed: int) -> HarmonicEstimate:
    """Classify sampled paths by which W-cycle their tail has entered.

    Classification inspects the last period-aligned state of each path:
    for a cycle of period p the state at the largest multiple of p not
    exceeding the path length must fall within `classification_radius`
    of one of the cycle's points.  Paths near no cycle (or,
    pathologically, near more than one) are reported as unclassified
    mass, never silently dropped (`_cycle_labels`).
    """
    if not w_cycles:
        raise ValueError("at least one W-cycle is required")
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


def h_closed_forms(sys: AffineSystem, x, cycles, depth: int) -> list:
    """Closed-form partial sums of h_C(x) = sum_{lambda in Lambda(C)}
    |mu_hat_B(x + lambda)|^2, the probability that a path from x ends in
    the cycle C, for every C in `cycles`, in one batch: each sum runs over
    Lambda_n(C), the k-points of all p rotations of C with words of n
    letters (`spectrum._closure` of -C, duplicates counted once).
    n = max(1, depth - m) for m the least integer with N^m >= p, so a cycle
    costs at most N^depth k-points whatever its period, and n = depth for
    fixed points.  Nonnegative terms, so each sum increases with depth.

    Each cycle's table becomes its floats as soon as its closure is built
    (`spectrum._table_floats`, the floats `_parseval_terms` forms), and the
    floats of all cycles take one `mu_hat_batch` call, each cycle's rows a
    run of its spans at that cycle's own depth.  Each cycle's terms are
    summed on their own, so every sum is bit for bit the one of its cycle
    alone (`h_closed_form`)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tables = []
    for cycle in cycles:
        m = 0
        while sys.N ** m < cycle.period:
            m += 1
        spec = _closure(sys, cycle.points, max(1, depth - m))
        tables.append(_table_floats(spec.rows, spec.q, sys.d))
    if not tables:
        return []
    spans = [len(t) for t in tables]
    t = np.concatenate(tables) + np.atleast_1d(np.asarray(x, dtype=float))
    terms = np.abs(mu_hat_batch(sys, t, spans=spans)) ** 2
    return [float(np.sum(part)) for part in np.split(terms, np.cumsum(spans)[:-1])]


def h_closed_form(sys: AffineSystem, x, cycle: Cycle, depth: int) -> float:
    """The closed-form partial sum of h_C(x) of one cycle (`h_closed_forms`)."""
    return h_closed_forms(sys, x, [cycle], depth)[0]
