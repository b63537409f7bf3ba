"""Jump-process simulation under Markov policies, by exact thinning.

While the process sits in state i, candidate event times arrive at the
constant majorant rate q*(i) = max_a |q(i|i,a)|; a candidate at time t is
accepted with probability |q(i|i,a_t)| / q*(i), where a_t is the policy's
action at (i, t) (sampled from the kernel for randomized policies), and an
accepted event jumps to j != i with probability q(j|i,a_t)/|q(i|i,a_t)|.
This is exact for time-inhomogeneous kernels because the majorant does not
depend on time. Paths stop at the horizon; q*(i) = 0 states simply hold.

Cost and rate functionals accrue along a path through their kernel averages
(for a fixed state these are deterministic piecewise-constant functions of
time), so Monte Carlo estimators only need the visited states and sojourns.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .dp import _action_text, _plays, _write_csv
from .model import CtmdpModel, DriftCertificate, MarkovPolicy, _checked_index, _integer

_MAX_ROUNDS_SLACK = 2000  # cap on thinning rounds beyond the expected count


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One simulated path: jump epochs, visited states, sojourn actions.

    ``times[m]`` is the m-th jump epoch (times[0] = 0), ``states[m]`` the
    state held on [times[m], times[m+1]) and ``action_indices[m]`` the local
    action in effect when that sojourn started. The final sojourn runs to the
    horizon.
    """

    horizon: float
    times: np.ndarray
    states: np.ndarray
    action_indices: np.ndarray

    def n_jumps(self) -> int:
        return len(self.times) - 1

    def write_csv(self, model: CtmdpModel, path) -> None:
        """Rows (epoch, state, action components), one per sojourn."""
        states = self.states.tolist()
        names, points = _action_text(model, [model.pair_index(i, a) for i, a in
                                             zip(states, self.action_indices.tolist())])
        _write_csv(path, ["epoch", "state", *names],
                   (f"{t:.17g},{i}{p}\r\n"
                    for t, i, p in zip(self.times.tolist(), states, points)))


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error (sample sd / sqrt(count))."""

    mean: float
    se: float
    count: int

    def within(self, target: float, z: float = 4.0) -> bool:
        return abs(self.mean - target) <= z * self.se


def _estimate(samples: np.ndarray) -> McEstimate:
    n = samples.size
    mean = float(np.mean(samples))  # numpy pairwise summation
    se = float(np.std(samples, ddof=1) / math.sqrt(n))  # _run_batch runs 2 paths or more
    return McEstimate(mean=mean, se=se, count=n)


def _cell_of(t, dt_cells: float, n_cells: int, out: np.ndarray) -> np.ndarray:
    """Policy cell of each time t >= 0 (no lower clip: t / dt_cells >= 0), in
    the int64 buffer out; the unsafe cast truncates as astype does."""
    np.divide(t, dt_cells, out, casting="unsafe")
    return np.minimum(out, n_cells - 1, out=out)


def _max_rounds(model: CtmdpModel) -> int:
    bad = np.flatnonzero(~np.isfinite(model.q_star))
    if bad.size:
        raise ValueError(f"state {bad[0]} has a non-finite exit rate q* = "
                         f"{model.q_star[bad[0]]}; validate the model before simulating it")
    expected = 20 * model.max_q_star * model.horizon
    if not math.isfinite(expected):
        raise ValueError(f"horizon {model.horizon!r} is too long to simulate: "
                         "its thinning round cap overflows")
    return _MAX_ROUNDS_SLACK + int(expected)


def _draw_local(rows: np.ndarray, n_actions, u: np.ndarray) -> np.ndarray:
    """Local action per kernel row: the count of its cumulative masses below u
    times its total, clipped to the row, or its argmax if that action has no mass."""
    u = u * rows.sum(axis=1)
    local = (np.cumsum(rows, axis=1) < u[:, None]).sum(axis=1)
    local = np.minimum(local, n_actions - 1)
    off = rows[np.arange(rows.shape[0]), local] <= 0.0
    if np.any(off):
        local[off] = np.argmax(rows[off], axis=1)
    return local


def simulate(model: CtmdpModel, policy: MarkovPolicy, i0: int, seed) -> Trajectory:
    """Generate one path by thinning. Identical seeds give identical paths;
    actions and jump targets follow the batch engine's rules (_draw_local,
    _jump_targets), so neither lands on an entry of no mass. A faulty policy
    is refused before i0, as in the batch estimators."""
    plays = _plays(model, policy)
    i0 = _checked_index(i0, model.n_states, "i0")
    rng = np.random.default_rng(seed)
    n_cells = policy.n_nodes - 1
    dt_cells = model.horizon / n_cells
    T = model.horizon
    offsets = model.action_offsets
    jumps = _jump_table(model)

    def pair_at(i: int, t: float) -> int:
        cell = min(int(t / dt_cells), n_cells - 1)
        if plays.pairs is not None:
            return int(plays.pairs[cell, i])
        row = plays.weights[cell, offsets[i]:offsets[i + 1]]
        return int(offsets[i] + _draw_local(row[None, :], row.size, rng.random(1))[0])

    times = [0.0]
    states = [i0]
    pairs = [pair_at(i0, 0.0)]
    t, i = 0.0, i0
    for _ in range(_max_rounds(model)):
        qs = float(model.q_star[i])
        if qs <= 0.0:
            break  # absorbing under every action: hold to the horizon
        t = t + rng.exponential(1.0 / qs)
        if t >= T:
            break
        ka = pair_at(i, t)
        if rng.random() * qs >= model.exit_rate[ka]:
            continue  # thinned proposal, clock keeps running
        j = int(_jump_targets(jumps, np.array([ka]), np.array([rng.random()]),
                              np.empty(1, np.int64), np.empty(1, np.int64))[0])
        times.append(t)
        states.append(j)
        pairs.append(pair_at(j, t))
        i = j
    else:
        raise RuntimeError("thinning did not reach the horizon within the round cap")

    states = np.asarray(states, dtype=np.int64)
    return Trajectory(horizon=T, times=np.asarray(times), states=states,
                      action_indices=np.asarray(pairs, dtype=np.int64) - offsets.take(states))


def _integral_fn(table: np.ndarray, dt_cells: float, t_end: float, horizon: float):
    """F(state, u, cell): integral of table(., state) over [0, min(u, t_end)], 0 <= u <= horizon.

    The table is piecewise constant on the cells, so F is a cumulative sum at
    the cell's start plus a partial cell; both are (n_states x n_cells) tables,
    so one flat index, ``state * n_cells + cell``, reads both. ``cell``
    must be ``_cell_of(u)``; capped at the cell of t_end, it is the cell of
    min(u, t_end) (notes/decisions.md). The caps are skipped when neither can
    bind: the end is at or past the horizon and its cell is the last.
    """
    n_cells, n_states = table.shape
    pre = np.zeros((n_states, n_cells))
    pre[:, 1:] = np.cumsum(table.T[:, :-1], axis=1) * dt_cells
    pre, value = pre.ravel(), table.T.ravel()
    end = min(max(t_end, 0.0), n_cells * dt_cells)
    end_cell = min(int(end / dt_cells), n_cells - 1)
    clamp = end < horizon or end_cell < n_cells - 1

    def integral(state, u, cell, at, tmp, out):
        """F into out, with the flat index in the int64 buffer at and tmp as
        float scratch."""
        c = np.minimum(cell, end_cell, out=at) if clamp else cell
        np.multiply(c, dt_cells, tmp)
        if clamp:
            u = np.minimum(u, end, out=out)
        np.subtract(u, tmp, out)
        flat = tmp.view(np.int64)
        np.multiply(state, n_cells, flat)
        np.add(c, flat, at)
        out *= value.take(at, None, tmp, "clip")
        out += pre.take(at, None, tmp, "clip")  # out + pre has the bits of pre + out
        return out

    return integral


_GUIDE = 256  # guide-table buckets per pair; a power of two, so u * _GUIDE is exact
_GUIDE_BLOCK = 64  # pairs whose guide rows _jump_table builds at once


@dataclass(frozen=True, eq=False)
class _JumpTable:
    """Per-pair tables for choosing the target of an accepted jump (_target).

    ``cum[ka]`` is the cumulative off-diagonal row of pair ka over |q(i|i,a)|,
    ``no_mass[ka]`` marks the entries of that row with no mass and
    ``fallback[ka]`` is its argmax. ``guide[ka * (_GUIDE + 1) + b]`` is the
    target of every draw u in [b / _GUIDE, (b + 1) / _GUIDE) when the count is
    the same at both ends of that bucket, else -1; the last bucket of each
    pair (u >= 1) is always -1.
    """

    cum: np.ndarray       # (n_pairs, n_states)
    no_mass: np.ndarray   # (n_pairs, n_states)
    fallback: np.ndarray  # (n_pairs,)
    guide: np.ndarray     # (n_pairs * (_GUIDE + 1),)


_jumps = weakref.WeakKeyDictionary()  # the last model simulated -> its table


def _jump_table(model: CtmdpModel) -> _JumpTable:
    """The model's read-only jump table, built on its first call; simulate and
    _run_batch share it, and _jumps keeps no model alive."""
    jumps = _jumps.get(model)
    if jumps is not None:
        return jumps
    pairs = np.arange(model.n_pairs)
    cum = model.rate_rows.copy()
    cum[pairs, model.pair_state] = 0.0
    cum /= np.where(model.exit_rate > 0.0, model.exit_rate, 1.0)[:, None]  # 0: never jumps
    no_mass, fallback = cum <= 0.0, np.argmax(cum, axis=1)
    np.cumsum(cum, axis=1, out=cum)
    guide = np.full((model.n_pairs, _GUIDE + 1), -1, dtype=np.int64)
    jumps = _JumpTable(cum=cum, no_mass=no_mass, fallback=fallback, guide=guide.ravel())

    # the count and target at every bucket edge b / _GUIDE, a block of pairs at a
    # time: c < edges[b] exactly when searchsorted(edges, c, "right") <= b
    edges = np.arange(_GUIDE + 1) / _GUIDE
    for lo in range(0, model.n_pairs, _GUIDE_BLOCK):
        block = pairs[lo:lo + _GUIDE_BLOCK, None]
        first = np.searchsorted(edges, cum[lo:lo + _GUIDE_BLOCK], "right")
        first += (block - lo) * (_GUIDE + 2)
        count = np.bincount(first.ravel(), minlength=block.size * (_GUIDE + 2))
        count = count.reshape(block.size, _GUIDE + 2).cumsum(axis=1)
        guide[lo:lo + _GUIDE_BLOCK, :-1] = np.where(
            count[:, :_GUIDE] == count[:, 1:-1], _target(jumps, block, count[:, :_GUIDE]), -1)
    for arr in vars(jumps).values():
        arr.flags.writeable = False
    _jumps.clear()
    _jumps[model] = jumps
    return jumps


def _target(jumps: _JumpTable, ka: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Target at a count: clipped to the last state; argmax if that entry has no mass."""
    j = np.minimum(count, jumps.cum.shape[1] - 1)
    return np.where(jumps.no_mass[ka, j], jumps.fallback.take(ka), j)


def _jump_targets(jumps: _JumpTable, ka: np.ndarray, u: np.ndarray, bucket: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Target state of each accepted jump from pair ka at uniform draw u, into
    the int64 buffer out: the guide's, or where it has none, _target of the
    count on the pair's row. bucket is int64 scratch of the same length."""
    np.multiply(u, _GUIDE, bucket, casting="unsafe")  # truncates as astype does
    np.minimum(bucket, _GUIDE, out=bucket)
    bucket += np.multiply(ka, _GUIDE + 1, out)  # out is scratch until the gather
    jumps.guide.take(bucket, None, out, "clip")
    miss = np.flatnonzero(np.less(out, 0, bucket.view(bool)[:out.size]))
    if miss.size:
        ka = ka.take(miss)
        count = (jumps.cum.take(ka, axis=0) < u.take(miss)[:, None]).sum(axis=1)
        out[miss] = _target(jumps, ka, count)
    return out


def _moved(arr: np.ndarray, keep: np.ndarray, out: np.ndarray, free: list) -> np.ndarray:
    """arr.take(keep) into out; arr's buffer goes back to free."""
    arr.take(keep, None, out, "clip")
    free.append(arr.base)
    return out


def _batch_arguments(model: CtmdpModel, policy: MarkovPolicy, n_paths, i0):
    """(plays, n_paths, i0) of a batch, refused in this order: a faulty
    policy, a path count that is not an integer of at least 2, an i0 that is
    not a state index."""
    plays = _plays(model, policy)
    count = _integer(n_paths)
    if count is None or count < 2:
        raise ValueError(f"need at least 2 replicates, as an integer, got {n_paths!r}")
    return plays, count, _checked_index(i0, model.n_states, "i0")


def _run_batch(model: CtmdpModel, policy: MarkovPolicy, i0: int, n_paths: int,
               seed, t_check: float, per_pair=None):
    """Vectorized thinning over a batch of paths: (integral, state at t_check).

    The integral, None without ``per_pair``, is each path's integral over
    [0, t_check] of the kernel average of that per-pair quantity; 0 <
    t_check <= T. _batch_arguments checks the policy, n_paths and i0.
    All randomness is drawn from the single stream ``default_rng(seed)`` with
    a consumption pattern that is a pure function of the seed: each round
    draws the proposal clocks of the live paths in ascending path id, then,
    for those still short of the horizon, the action draws (randomized
    policies) and the acceptance draws, then the target draws of the
    accepted ones.

    Only live paths are held, compacted in path-id order; a path's integral
    is written in the round it reaches the horizon, and its state at t_check
    once: there when t_check = T, else by the capture test. Each round adds
    the integral over its stretch, F at the stretch end minus F at its
    start. Each path's policy cell lives across rounds: it is updated in
    place at each stretch end and shared by the action lookup and the
    integral. Each round writes into buffers the batch owns
    until it ends, and skips, by a choice made once per batch, the work that
    cannot change a value: the +inf clock when no state has q* = 0, and the
    per-round capture test when t_check = T. See notes/decisions.md for why
    this reproduces the full-width loop bit for bit.
    """
    plays, n_paths, i0 = _batch_arguments(model, policy, n_paths, i0)
    rng = np.random.default_rng(seed)
    n_cells = policy.n_nodes - 1
    dt_cells = model.horizon / n_cells
    n_states = model.n_states
    T = model.horizon
    t_check = float(t_check)
    offsets = model.action_offsets
    q_star = model.q_star
    clock_rate = np.where(q_star > 0, q_star, 1.0)
    absorbing = q_star <= 0.0
    any_absorbing = bool(absorbing.any())
    capture_each_round = t_check < T
    # a padding slot (pad_index n_pairs) reads pair 0, then is zeroed: a zero-padded
    # kernel copy would outlive every round (notes/decisions.md)
    padding = model.pad_index == model.n_pairs
    pad, n_actions = np.where(padding, 0, model.pad_index), np.diff(offsets)
    jumps = _jump_table(model)
    F = None if per_pair is None else _integral_fn(plays.average(per_pair), dt_cells,
                                                   t_check, T)

    acc_out = None if F is None else np.zeros(n_paths)
    captured = np.full(n_paths, -1, dtype=np.int64)

    # Three full-width scratch buffers, float64 tmp and int64 at and aux, hold
    # every array that is read only within one step of a round, and two flag
    # rows hold the masks. Every other array is lent from the pool: the
    # full-width float64 buffers not in use, each with its int64 view made once.
    # A lent array is a prefix view of one and goes back by its base after its
    # last read; free is a stack, so the next lend takes the buffer given last
    tmp, (at, aux) = np.empty(n_paths), np.empty((2, n_paths), dtype=np.int64)
    flag, flag2 = np.empty((2, n_paths), dtype=bool)
    free, as_int = [], {}

    def grown():
        buf = np.empty(n_paths)
        as_int[id(buf)] = buf.view(np.int64)
        return buf

    def lend(n):
        return (free.pop() if free else grown())[:n]

    def lend_int(n):
        return as_int[id(free.pop() if free else grown())][:n]

    ids, t, state = lend_int(n_paths), lend(n_paths), lend_int(n_paths)
    ids[:] = np.arange(n_paths)
    t.fill(0.0)
    state.fill(i0)
    cell = _cell_of(t, dt_cells, n_cells, lend_int(n_paths))
    if F is not None:
        acc = lend(n_paths)
        acc.fill(0.0)

    # ids, t, state, cell and acc live across rounds. Indices are in range by
    # construction (notes/decisions.md), so every gather clips, which buffers nothing
    for _ in range(_max_rounds(model)):
        n = ids.size
        if n == 0:
            break
        # the stretch end min(t + E / q*, T), in one buffer; +inf where q* = 0
        hi = rng.standard_exponential(out=lend(n))
        hi /= clock_rate.take(state, None, tmp[:n], "clip")
        hi += t
        if any_absorbing:
            hi[absorbing.take(state, None, flag[:n], "clip")] = np.inf
        np.minimum(hi, T, out=hi)

        if capture_each_round:
            hit = np.flatnonzero(np.logical_and(np.less_equal(t, t_check, flag[:n]),
                                                np.greater(hi, t_check, flag2[:n]), flag[:n]))
            captured[ids.take(hit, None, at[:hit.size], "clip")] = state.take(
                hit, None, aux[:hit.size], "clip")
            del hit
        if F is not None:  # the stretch holds one state: F at its two ends
            start = F(state, t, cell, at[:n], tmp[:n], lend(n))
        free.append(t.base)
        t = hi  # the stretch start is read no more
        _cell_of(t, dt_cells, n_cells, cell)
        if F is not None:
            end = F(state, t, cell, at[:n], tmp[:n], lend(n))
            acc += np.subtract(end, start, end)
            free += start.base, end.base

        done = np.flatnonzero(np.greater_equal(t, T, flag[:n]))
        if done.size:
            keep = np.flatnonzero(np.logical_not(flag[:n], flag[:n]))
            out = ids.take(done, None, at[:done.size], "clip")
            if not capture_each_round:
                captured[out] = state.take(done, None, aux[:done.size], "clip")
            if F is not None:
                acc_out[out] = acc.take(done, None, tmp[:done.size], "clip")
            # each live array moves into the buffer the one before it left
            ids = _moved(ids, keep, lend_int(keep.size), free)
            t = _moved(t, keep, lend(keep.size), free)
            state = _moved(state, keep, lend_int(keep.size), free)
            cell = _moved(cell, keep, lend_int(keep.size), free)
            if F is not None:
                acc = _moved(acc, keep, lend(keep.size), free)
            n = ids.size
            del keep
        del done

        if plays.pairs is None:
            rows = plays.weights.take(pad[state] + (cell * model.n_pairs)[:, None])
            rows[padding[state]] = 0.0
            ka = np.add(offsets[state], _draw_local(rows, n_actions[state], rng.random(n)),
                        aux[:n])
            del rows
        else:
            flat = np.multiply(cell, n_states, at[:n])
            flat += state
            ka = plays.pairs.take(flat, None, aux[:n], "clip")

        u = rng.random(out=lend(n))
        u *= q_star.take(state, None, tmp[:n], "clip")
        jumped = np.flatnonzero(np.less(u, model.exit_rate.take(ka, None, tmp[:n], "clip"),
                                        flag[:n]))
        free.append(u.base)
        k = jumped.size
        kj = ka.take(jumped, None, lend_int(k), "clip")
        j = _jump_targets(jumps, kj, rng.random(out=tmp[:k]), at[:k], aux[:k])
        free.append(kj.base)
        state[jumped] = j
        del jumped
    if ids.size:
        raise RuntimeError("batch thinning did not finish within the round cap")
    return acc_out, captured


def mc_value(model: CtmdpModel, policy: MarkovPolicy, i0: int, cost_index: int,
             replicates: int, seed) -> McEstimate:
    """Monte Carlo estimate of the expected total cost from state i0.

    Each path contributes the integral of the kernel-averaged cost rate over
    its sojourns, clipped at the horizon.
    """
    n = _checked_index(cost_index, model.costs.shape[0], "cost_index", "cost table")
    acc, _ = _run_batch(model, policy, i0, replicates, seed, model.horizon, model.costs[n])
    return _estimate(acc)


@dataclass(frozen=True)
class FlowIdentityCheck:
    """Pathwise residual of the transient-balance identity at one time.

    Per path: indicator(state at t in B) minus indicator(i0 in B) minus the
    integrated kernel-averaged rate into B. Under a correct simulator the
    residual has mean zero.
    """

    residual: float
    se: float
    count: int
    occupancy: float    # estimated P(state at t in B)
    flow_side: float    # indicator(i0 in B) + estimated integrated rate

    def covers_zero(self, z: float = 4.0) -> bool:
        return abs(self.residual) <= z * self.se


def check_forward_kolmogorov(model: CtmdpModel, policy: MarkovPolicy, i0: int,
                             subset, t: float, replicates: int, seed) -> FlowIdentityCheck:
    """Estimate both sides of the transient-balance identity and difference them."""
    if not 0 < t <= model.horizon:
        raise ValueError("need 0 < t <= horizon")
    # the rate into B, q(B|i,a): the diagonal counts whenever i itself lies in B
    indicator = np.zeros(model.n_states)
    for b in subset:
        indicator[_checked_index(b, model.n_states, "subset")] = 1.0
    acc, captured = _run_batch(model, policy, i0, replicates, seed, t,
                               model.rate_rows @ indicator)
    in_b = indicator.take(captured)
    flow = indicator[i0] + acc
    res = _estimate(in_b - flow)
    return FlowIdentityCheck(residual=res.mean, se=res.se, count=res.count,
                             occupancy=float(np.mean(in_b)),
                             flow_side=float(np.mean(flow)))


@dataclass(frozen=True)
class WeightBoundCheck:
    """Estimated mean weight at time t against its certified exponential bound."""

    estimate: McEstimate
    bound: float
    slack: float   # estimate.mean - bound; should not sit above 0 statistically

    def statistically_ok(self, z: float = 4.0) -> bool:
        return self.slack <= z * self.estimate.se


def check_weight_bound(model: CtmdpModel, certificate: DriftCertificate,
                       policy: MarkovPolicy, i0: int, t: float,
                       replicates: int, seed) -> WeightBoundCheck:
    """Monte Carlo check of the mean-weight growth bound at one time point."""
    if not 0 <= t <= model.horizon:
        raise ValueError("need 0 <= t <= horizon")
    if t == 0.0:
        _, count, i0 = _batch_arguments(model, policy, replicates, i0)
        est = McEstimate(mean=float(model.weight[i0]), se=0.0, count=count)
    else:
        _, captured = _run_batch(model, policy, i0, replicates, seed, t)
        est = _estimate(model.weight[captured])
    bound = certificate.weight_bound(float(model.weight[i0]), t)
    return WeightBoundCheck(estimate=est, bound=bound, slack=est.mean - bound)
