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

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import CtmdpModel, DriftCertificate, MarkovPolicy

_MAX_ROUNDS_SLACK = 2000  # cap on thinning rounds beyond the expected count


@dataclass(frozen=True)
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
        dim = model.action_points.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "state"] + [f"a{d}" for d in range(dim)])
            for m in range(len(self.times)):
                point = model.action_points[
                    model.pair_index(int(self.states[m]), int(self.action_indices[m]))]
                writer.writerow([f"{self.times[m]:.17g}", int(self.states[m])]
                                + [f"{x:.17g}" for x in point])


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
    se = float(np.std(samples, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(mean=mean, se=se, count=n)


def _policy_cells(model: CtmdpModel, policy: MarkovPolicy):
    """Kernel per time cell plus the cell width, from a node policy."""
    if policy.n_nodes < 2:
        raise ValueError("policy needs at least 2 nodes")
    kernel = policy.kernel(model)
    n_cells = policy.n_nodes - 1
    return kernel[:n_cells], model.horizon / n_cells


def _cell_of(t, dt_cells: float, n_cells: int):
    return np.clip((t / dt_cells).astype(np.int64), 0, n_cells - 1)


def kernel_cost_cells(model: CtmdpModel, policy: MarkovPolicy, cost_index: int) -> np.ndarray:
    """Kernel-averaged cost rate per (cell, state)."""
    cells, _ = _policy_cells(model, policy)
    return np.add.reduceat(cells * model.costs[cost_index][None, :],
                           model.action_offsets[:-1], axis=1)


def kernel_set_rate_cells(model: CtmdpModel, policy: MarkovPolicy, subset) -> np.ndarray:
    """Kernel-averaged rate into a state subset, q(B|i, .), per (cell, state).

    The diagonal is included whenever i itself lies in B, i.e. this is the
    full signed sum of the rate row over B.
    """
    cells, _ = _policy_cells(model, policy)
    indicator = np.zeros(model.n_states)
    indicator[list(subset)] = 1.0
    per_pair = model.rate_rows @ indicator
    return np.add.reduceat(cells * per_pair[None, :], model.action_offsets[:-1], axis=1)


def simulate(model: CtmdpModel, policy: MarkovPolicy, i0: int, seed) -> Trajectory:
    """Generate one path by thinning. Identical seeds give identical paths;
    actions and jump targets follow the batch engine's rules (_run_batch,
    _jump_targets), so neither lands on an entry of no mass."""
    rng = np.random.default_rng(seed)
    cells, dt_cells = _policy_cells(model, policy)
    n_cells = cells.shape[0]
    T = model.horizon
    offsets = model.action_offsets
    jumps = _jump_table(model)

    def action_at(i: int, t: float) -> int:
        cell = min(int(t / dt_cells), n_cells - 1)
        if policy.kind == "deterministic":
            return int(policy.action_index[cell, i])
        probs = cells[cell, offsets[i]:offsets[i + 1]]
        u = rng.random() * probs.sum()
        a = min(int(np.count_nonzero(np.cumsum(probs) < u)), probs.size - 1)
        return a if probs[a] > 0.0 else int(np.argmax(probs))

    times = [0.0]
    states = [int(i0)]
    actions = [action_at(int(i0), 0.0)]
    t, i = 0.0, int(i0)
    max_rounds = _MAX_ROUNDS_SLACK + int(20 * model.max_q_star * T)
    for _ in range(max_rounds):
        qs = float(model.q_star[i])
        if qs <= 0.0:
            break  # absorbing under every action: hold to the horizon
        t = t + rng.exponential(1.0 / qs)
        if t >= T:
            break
        ka = offsets[i] + action_at(i, t)
        if rng.random() * qs >= model.exit_rate[ka]:
            continue  # thinned proposal, clock keeps running
        j = int(_jump_targets(jumps, np.array([ka]), np.array([rng.random()]))[0])
        times.append(t)
        states.append(j)
        actions.append(action_at(j, t))
        i = j
    else:
        raise RuntimeError("thinning did not reach the horizon within the round cap")

    return Trajectory(horizon=T, times=np.asarray(times),
                      states=np.asarray(states, dtype=np.int64),
                      action_indices=np.asarray(actions, dtype=np.int64))


def _integral_fn(table: np.ndarray, dt_cells: float, t_end: float):
    """F(state, u, cell): integral of table(., state) over [0, min(u, t_end)], u >= 0.

    The table is piecewise constant on the cells, so F is a cumulative sum at
    the cell boundary plus a partial cell. The cumulative sums and the table
    share one (state, cell) layout, so one flat index reads both. ``cell``
    must be ``_cell_of(u)``; capped at the cell of t_end, it is the cell of
    min(u, t_end) (notes/decisions.md).
    """
    n_cells, n_states = table.shape
    pre = np.zeros((n_states, n_cells + 1))
    pre[:, 1:] = np.cumsum(table.T, axis=1) * dt_cells
    value = np.zeros((n_states, n_cells + 1))
    value[:, :n_cells] = table.T
    pre, value = pre.ravel(), value.ravel()
    end = min(max(t_end, 0.0), n_cells * dt_cells)
    end_cell = min(int(end / dt_cells), n_cells - 1)

    def integral(state: np.ndarray, u: np.ndarray, cell: np.ndarray) -> np.ndarray:
        u = np.minimum(u, end)
        cell = np.minimum(cell, end_cell)
        at = state * (n_cells + 1) + cell
        return pre.take(at) + (u - cell * dt_cells) * value.take(at)

    return integral


_GUIDE = 256  # guide-table buckets per pair; a power of two, so u * _GUIDE is exact


@dataclass(frozen=True)
class _JumpTable:
    """Per-pair tables for choosing the target of an accepted jump.

    ``normalized[ka]`` is the off-diagonal row of pair ka divided by
    |q(i|i,a)| and ``fallback[ka]`` its argmax. The cumulative sum of that row
    is flat between nonzero entries, so the count of its entries below u is
    ``lead * (0 < u)`` plus, over the row's nonzero slots s,
    ``width[s] * (cum[s] < u)`` (_slot_count). ``lead`` is the first nonzero
    column, ``width[s]`` the number of columns from slot s up to the next
    slot (or the row end) and ``cum[s]`` the running sum at slot s. Unused
    slots have width 0.

    ``guide[ka * (_GUIDE + 1) + b]`` is the target of every draw u in
    [b / _GUIDE, (b + 1) / _GUIDE) when the count is the same at both ends of
    that bucket, else -1; the last bucket of each pair (u >= 1) is always -1.
    """

    normalized: np.ndarray  # (n_pairs, n_states)
    fallback: np.ndarray    # (n_pairs,)
    lead: np.ndarray        # (n_pairs,)
    cum: np.ndarray         # (n_slots, n_pairs)
    width: np.ndarray       # (n_slots, n_pairs)
    guide: np.ndarray | None = None  # (n_pairs * (_GUIDE + 1),)


def _jump_table(model: CtmdpModel) -> _JumpTable:
    n = model.n_states
    pairs = np.arange(model.n_pairs)
    rows = model.rate_rows.copy()
    rows[pairs, model.pair_state] = 0.0
    rows /= np.where(model.exit_rate > 0.0, model.exit_rate, 1.0)[:, None]  # 0: never jumps
    nonzero = rows != 0.0
    n_slots = int(nonzero.sum(axis=1).max(initial=0))
    # each row's nonzero columns in order, padded with n
    cols = np.argsort(~nonzero, axis=1, kind="stable")[:, :n_slots]
    cols = np.where(np.take_along_axis(nonzero, cols, axis=1), cols, n)
    bounds = np.column_stack([cols, np.full(model.n_pairs, n)])
    cum = np.take_along_axis(np.cumsum(rows, axis=1), np.minimum(cols, n - 1), axis=1)
    jumps = _JumpTable(normalized=rows, fallback=np.argmax(rows, axis=1), lead=bounds[:, 0],
                       cum=np.ascontiguousarray(cum.T),
                       width=np.ascontiguousarray(np.diff(bounds, axis=1).T))

    # the count and target at every bucket edge b / _GUIDE
    count = _slot_count(jumps, pairs[:, None], np.arange(_GUIDE + 1) / _GUIDE)
    target = _target(jumps, pairs[:, None], count[:, :-1])
    guide = np.full((model.n_pairs, _GUIDE + 1), -1, dtype=np.int64)
    guide[:, :-1] = np.where(count[:, :-1] == count[:, 1:], target, -1)
    return replace(jumps, guide=guide.ravel())


def _slot_count(jumps: _JumpTable, ka: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Count of the entries of ``cumsum(normalized[ka])`` below u."""
    count = jumps.lead.take(ka) * (0.0 < u)
    for cum, width in zip(jumps.cum, jumps.width):
        count += (cum.take(ka) < u) * width.take(ka)
    return count


def _target(jumps: _JumpTable, ka: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Target at a slot count: clipped to the last state; argmax if that entry has no mass."""
    n_states = jumps.normalized.shape[1]
    j = np.minimum(count, n_states - 1)
    no_mass = jumps.normalized.take(ka * n_states + j) <= 0.0
    return np.where(no_mass, jumps.fallback.take(ka), j)


def _jump_targets(jumps: _JumpTable, ka: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Target state of each accepted jump from pair ka at uniform draw u.

    The guide table answers most draws; the rest go to _slot_count and _target.
    """
    bucket = (u * _GUIDE).astype(np.int64)
    np.minimum(bucket, _GUIDE, out=bucket)
    j = jumps.guide.take(ka * (_GUIDE + 1) + bucket)
    miss = np.flatnonzero(j < 0)
    if miss.size:
        ka = ka.take(miss)
        j[miss] = _target(jumps, ka, _slot_count(jumps, ka, u.take(miss)))
    return j


def _run_batch(model: CtmdpModel, policy: MarkovPolicy, i0: int, n_paths: int,
               rng, integrands=(), capture_time: float | None = None):
    """Vectorized thinning over a batch of paths.

    integrands: sequence of (table (n_cells, n_states), t_end) pairs whose
    pathwise integrals over [0, min(t_end, T)] are returned, one column each.
    capture_time: if set, also return the state each path holds at that time.
    All randomness is drawn from the single counter-based stream ``rng`` with
    a consumption pattern that is a pure function of the seed: each round
    draws the proposal clocks of the live paths in ascending path id, then,
    for those still short of the horizon, the action draws (randomized
    policies) and the acceptance draws, then the target draws of the
    accepted ones.

    Only live paths are held, compacted in path-id order; a path's outputs
    are written once, in the round it reaches the horizon. Each integrand
    carries its integral up to the start of the current stretch, which is the
    previous round's value at the stretch end unless the path jumped. The
    policy cell of each stretch end is computed once per round and shared by
    the action lookup and every integrand. See
    notes/decisions.md for why this reproduces the full-width loop bit for bit.
    """
    cells, dt_cells = _policy_cells(model, policy)
    n_cells = cells.shape[0]
    n_states = model.n_states
    T = model.horizon
    offsets = model.action_offsets
    q_star = model.q_star
    clock_rate = np.where(q_star > 0, q_star, 1.0)
    absorbing = q_star <= 0.0
    randomized = policy.kind == "randomized"
    pad, mask, n_actions = model.pad_index, model.pad_mask, np.diff(offsets)
    if not randomized:
        pair_at = (offsets[:-1] + policy.action_index[:n_cells]).ravel()
    jumps = _jump_table(model)
    integrals = [_integral_fn(np.asarray(tab), dt_cells, min(float(t_end), T))
                 for tab, t_end in integrands]

    acc_out = np.zeros((n_paths, len(integrands)))
    captured = np.full(n_paths, -1, dtype=np.int64)

    ids = np.arange(n_paths)
    t = np.zeros(n_paths)
    state = np.full(n_paths, int(i0), dtype=np.int64)
    acc = [np.zeros(n_paths) for _ in integrals]
    cell = _cell_of(t, dt_cells, n_cells)
    start = [F(state, t, cell) for F in integrals]

    max_rounds = _MAX_ROUNDS_SLACK + int(20 * model.max_q_star * T)
    for _ in range(max_rounds):
        if ids.size == 0:
            break
        t_new = t + rng.standard_exponential(ids.size) / clock_rate.take(state)
        t_new[absorbing.take(state)] = np.inf

        if capture_time is not None:
            hit = (t <= capture_time) & (capture_time < t_new)
            captured[ids[hit]] = state[hit]

        hi = np.minimum(t_new, T)
        cell = _cell_of(hi, dt_cells, n_cells)
        for m, F in enumerate(integrals):
            end = F(state, hi, cell)
            acc[m] += end - start[m]
            start[m] = end

        finished = t_new >= T
        done = np.flatnonzero(finished)
        if done.size:
            out = ids.take(done)
            for m in range(len(acc)):
                acc_out[out, m] = acc[m].take(done)
            if capture_time is not None:
                held = captured.take(out)
                captured[out] = np.where(held < 0, state.take(done), held)
            keep = np.flatnonzero(~finished)
            ids, t, state, cell = ids.take(keep), hi.take(keep), state.take(keep), cell.take(keep)
            acc = [a.take(keep) for a in acc]
            start = [f.take(keep) for f in start]
            if ids.size == 0:
                break
        else:
            t = hi

        if randomized:
            rows = cells[cell[:, None], pad[state]]
            rows = np.where(mask[state], rows, 0.0)
            u = rng.random(ids.size) * rows.sum(axis=1)
            local = (np.cumsum(rows, axis=1) < u[:, None]).sum(axis=1)
            local = np.minimum(local, n_actions[state] - 1)
            chosen = rows[np.arange(rows.shape[0]), local]
            off = chosen <= 0.0  # boundary draws may land on a zero-mass action
            if np.any(off):
                local[off] = np.argmax(rows[off], axis=1)
            ka = offsets[state] + local
        else:
            ka = pair_at.take(cell * n_states + state)

        accept = rng.random(ids.size) * q_star.take(state) < model.exit_rate.take(ka)
        jumped = np.flatnonzero(accept)
        if jumped.size == 0:
            continue
        j = _jump_targets(jumps, ka.take(jumped), rng.random(jumped.size))
        state[jumped] = j
        t_jump, cell_jump = t.take(jumped), cell.take(jumped)
        for m, F in enumerate(integrals):
            start[m][jumped] = F(j, t_jump, cell_jump)
    if ids.size:
        raise RuntimeError("batch thinning did not finish within the round cap")
    return acc_out, captured


def mc_value(model: CtmdpModel, policy: MarkovPolicy, i0: int, cost_index: int,
             replicates: int, seed) -> McEstimate:
    """Monte Carlo estimate of the expected total cost from state i0.

    Each path contributes the integral of the kernel-averaged cost rate over
    its sojourns, clipped at the horizon.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    rng = np.random.default_rng(seed)
    table = kernel_cost_cells(model, policy, cost_index)
    acc, _ = _run_batch(model, policy, i0, replicates, rng,
                        integrands=[(table, model.horizon)])
    return _estimate(acc[:, 0])


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
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    subset = set(int(b) for b in subset)
    rng = np.random.default_rng(seed)
    table = kernel_set_rate_cells(model, policy, subset) if subset else \
        np.zeros((policy.n_nodes - 1, model.n_states))
    acc, captured = _run_batch(model, policy, i0, replicates, rng,
                               integrands=[(table, t)], capture_time=t)
    in_b = np.isin(captured, sorted(subset)).astype(float)
    start = 1.0 if int(i0) in subset else 0.0
    flow = start + acc[:, 0]
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
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    rng = np.random.default_rng(seed)
    if t == 0.0:
        est = McEstimate(mean=float(model.weight[int(i0)]), se=0.0, count=replicates)
    else:
        _, captured = _run_batch(model, policy, i0, replicates, rng, capture_time=t)
        est = _estimate(model.weight[captured])
    bound = certificate.weight_bound(float(model.weight[int(i0)]), t)
    return WeightBoundCheck(estimate=est, bound=bound, slack=est.mean - bound)
