"""Backward solution of the finite-horizon optimality equation.

The value function g(i, s) satisfies -dg/ds = min_a { c(i,a) + sum_j g(j,s)
q(j|i,a) } with g(., T) = 0. We integrate backward on a uniform node grid
with classic RK4, re-resolving the min at every stage, and read the argmin
off each node to get a deterministic Markov policy. A fixed policy is
evaluated with the min replaced by the policy kernel. One stepper, built by
_stepper once per loop and writing each step into a row of the caller's
table, serves both backward loops and the one forward loop
(occupation._forward), which steps a policy's RK4 measure and the LP's
Euler columns. _runs alone finds where a policy's played pairs change.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .model import CtmdpModel, DriftCertificate, MarkovPolicy, _checked_index, _integer

STABILITY_CAP = 0.5  # dt * max_i q*(i) must stay below this
ENVELOPE_SLACK = 1e-6  # relative slack of the value-envelope check
_ARGMIN_BLOCK = 64  # nodes whose policy argmins solve_backward resolves at once
_AVERAGE_BLOCK = 64  # cells whose randomized kernel average _plays forms at once


class GridStabilityError(RuntimeError):
    """Time step too coarse for the model's fastest exit rate."""

    def __init__(self, n_steps: int, required: int | float):
        self.required_n_steps = required
        advice = (f"use n_steps >= {required}" if required < math.inf
                  else "no finite step count is stable")
        super().__init__(f"n_steps={n_steps} violates the stability cap; {advice}")


class NumericsError(RuntimeError):
    """Non-finite values appeared during integration."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_{n_steps} = T."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if _integer(self.n_steps) is None:
            raise ValueError(f"n_steps must be an integer, got {self.n_steps}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_nodes)

    def required_steps(self, model: CtmdpModel) -> int | float:
        """Fewest stable steps; math.inf when the count overflows a float."""
        steps = self.horizon * model.max_q_star / STABILITY_CAP
        return max(1, math.ceil(steps)) if steps < math.inf else math.inf

    def check_stability(self, model: CtmdpModel) -> None:
        """Refuse a step too coarse for the model, then a horizon not the model's."""
        if self.dt * model.max_q_star > STABILITY_CAP:
            raise GridStabilityError(self.n_steps, self.required_steps(model))
        if self.horizon != model.horizon:
            raise ValueError(f"grid horizon {self.horizon} differs from the model horizon "
                             f"{model.horizon}")


@dataclass(frozen=True, eq=False)
class ValueGrid:
    """Value table g(i, t_k), one row per node."""

    grid: TimeGrid
    values: np.ndarray  # (n_nodes, n_states)

    def at_start(self) -> np.ndarray:
        """g(., 0), the finite-horizon values from time zero."""
        return self.values[0]

    def write_csv(self, path) -> None:
        """Rows (state, t_k, value), state-major, one % call per state column;
        one column at a time is turned into Python floats."""
        _write_csv(path, ["state", "t", "value"],
                   _csv_blocks(map(str, range(self.values.shape[1])),
                               [f",{t}," for t in _node_strings(self.grid)], "%.17g",
                               (column.tolist() for column in self.values.T)))


def _node_strings(grid: TimeGrid) -> list[str]:
    return [f"{t:.12g}" for t in grid.nodes.tolist()]


def _action_text(model: CtmdpModel, pairs=slice(None)) -> tuple[list[str], list[str]]:
    """Action column names a0, a1, ... and each pair's ',x0,x1,...' text, 17 digits."""
    names = [f"a{d}" for d in range(model.action_points.shape[1])]
    return names, ["".join(f",{x:.17g}" for x in p) for p in model.action_points[pairs].tolist()]


def _csv_blocks(keys, rows: list[str], field: str, columns):
    """One CRLF-ended text per block b, by one % call: for each r, the row
    keys[b] + rows[r] + field % columns[b][r]. No key or row text holds a '%'."""
    parts = ["", *(f"{row}{field}\r\n" for row in rows)]
    return (key.join(parts) % tuple(column) for key, column in zip(keys, columns))


def _write_csv(path, header: list[str], texts) -> None:
    """A header row, then the CRLF-ended texts."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(texts)


def write_policy_csv(model: CtmdpModel, grid: TimeGrid, policy: MarkovPolicy, path) -> None:
    """Rows (state, t_k, action components) for a deterministic policy, one
    state column of pairs at a time."""
    if policy.kind != "deterministic":
        raise ValueError("CSV export is for deterministic policies")
    pairs = _plays(model, policy, grid).pairs  # (n_nodes, n_states)
    names, points = _action_text(model)
    _write_csv(path, ["state", "t", *names],
               _csv_blocks(map(str, range(model.n_states)),
                           [f",{t}" for t in _node_strings(grid)], "%s",
                           ([points[ka] for ka in column.tolist()] for column in pairs.T)))


def _stepper(n: int, dt: float, integrator: str):
    """A classic RK4 or Euler step of y' = f(y) on length-n vectors, built
    once per loop: step(f, y, out, k1=None) writes the step from y into out,
    which may be y; k1, if given, is f(y) and is left as it is. f must return
    a new array, which the step may overwrite. The updates are
    y + dt k1 and y + dt/6 (k1 + 2 k2 + 2 k3 + k4), operand by operand, with
    dt, dt/2 and dt/6 held as vectors and 2 k formed as k + k, so every
    result has the bits of the scalar expressions (notes/decisions.md)."""
    if integrator not in ("rk4", "euler"):
        raise ValueError(f"unknown integrator {integrator!r}")
    add, multiply = np.add, np.multiply  # closure cells are read faster than np.add
    full, tmp = np.full(n, dt), np.empty(n)
    if integrator == "euler":
        def step(f, y, out, k1=None):
            if k1 is None:
                k1 = f(y)
            add(y, multiply(full, k1, tmp), out)
        return step
    half, sixth = np.full(n, 0.5 * dt), np.full(n, dt / 6.0)

    def step(f, y, out, k1=None):
        if k1 is None:
            k1 = f(y)
        k2 = f(add(y, multiply(half, k1, tmp), tmp))
        k3 = f(add(y, multiply(half, k2, tmp), tmp))
        k4 = f(add(y, multiply(full, k3, tmp), tmp))
        k2 += k2
        k3 += k3
        add(k1, k2, k2)  # k1 + 2 k2
        add(k2, k3, k3)  # ... + 2 k3
        add(k3, k4, k4)  # ... + k4
        add(y, multiply(sixth, k4, k4), out)
    return step


def _check_finite(g: np.ndarray, dt: float) -> None:
    """NumericsError at the last non-finite node of a backward table: the
    first one its loop produced (notes/decisions.md)."""
    bad = np.flatnonzero(~np.isfinite(g).all(axis=1))
    if bad.size:
        k = int(bad[-1])
        raise NumericsError(f"non-finite value at node {k} (t={k * dt:.6g})")


def scalarize_costs(model: CtmdpModel, cost_weights=None) -> np.ndarray:
    """Combine the cost tables with nonnegative weights (default: c_0 alone)."""
    if cost_weights is None:
        weights = np.zeros(model.costs.shape[0])
        weights[0] = 1.0
    else:
        weights = np.asarray(cost_weights, dtype=float)
        if weights.shape != (model.costs.shape[0],):
            raise ValueError(f"need {model.costs.shape[0]} cost weights")
        if np.any(weights < 0):
            raise ValueError("cost weights must be nonnegative")
    return weights @ model.costs


def solve_backward(model: CtmdpModel, grid: TimeGrid, cost_weights=None,
                   integrator: str = "rk4") -> tuple[ValueGrid, MarkovPolicy]:
    """Integrate the optimality equation backward; return value and argmin policy.

    The min is re-resolved at every RK4 stage, which needs only its value.
    Each node's rate product cbar + R g is formed once: the node's argmin
    (ties break to the lowest action index) and the first stage of the next
    step both come from it. The argmins are taken a block of nodes at a time
    (notes/decisions.md).
    ``integrator='euler'`` switches to a single forward Euler stage per step;
    the occupation-measure LP is the discrete dual of exactly that scheme, so
    its Lagrangian probes use it for a matched pair.
    """
    grid.check_stability(model)
    step = _stepper(model.n_states, grid.dt, integrator)
    cbar = scalarize_costs(model, cost_weights)
    R, starts = model.rate_rows, model.action_offsets[:-1]
    dt = grid.dt

    min_at, dot, add = np.minimum.reduceat, R.dot, np.add  # bound once for the loop

    def f(g: np.ndarray) -> np.ndarray:
        return min_at(cbar + dot(g), starts)

    g = np.zeros((grid.n_nodes, model.n_states))
    policy = np.zeros((grid.n_nodes, model.n_states), dtype=np.int64)
    # node k's rate product sits in row k % _ARGMIN_BLOCK until its block's
    # argmins are resolved together, at the block's lowest node; the block's
    # last column holds the +inf that every padded action slot reads
    block = np.empty((_ARGMIN_BLOCK, model.n_pairs + 1))
    block[:, -1] = np.inf
    rows, block_rows = list(g), list(block[:, :-1])  # row views: a list index is cheaper than g[k]
    n_steps = grid.n_steps
    vals = block_rows[n_steps % _ARGMIN_BLOCK]
    add(cbar, dot(rows[n_steps]), vals)
    mins = block[n_steps % _ARGMIN_BLOCK].take(model.pad_index).min(axis=1)
    if not np.all(np.isfinite(mins)):  # e.g. a state with an empty action set
        state = int(np.argmin(np.isfinite(mins)))
        raise NumericsError(f"non-finite minimum at node {n_steps} "
                            f"(t={n_steps * dt:.6g}) in state {state}")

    with np.errstate(over="ignore", invalid="ignore"):  # caught by _check_finite below
        for k in range(n_steps, -1, -1):
            if k < n_steps:
                # vals holds cbar + R g[k + 1], so its stage min is the first stage
                step(f, rows[k + 1], rows[k], min_at(vals, starts))
                vals = block_rows[k % _ARGMIN_BLOCK]
                add(cbar, dot(rows[k]), vals)
            if k % _ARGMIN_BLOCK == 0:
                top = min(k + _ARGMIN_BLOCK, grid.n_nodes)
                # first minimum: lowest action
                policy[k:top] = block[:top - k].take(model.pad_index, axis=1).argmin(axis=2)
    _check_finite(g, dt)

    return ValueGrid(grid=grid, values=g), MarkovPolicy.deterministic(policy)


_Plays = namedtuple("_Plays", "runs weights average pairs")


def _plays(model: CtmdpModel, policy: MarkovPolicy, grid: TimeGrid | None = None) -> _Plays:
    """A checked policy's cells (its first n_nodes - 1 rows) as played: runs
    (_runs: each run of cells playing the same pairs, with those pairs),
    weights (the kernel) and average (per-state kernel average of a per-pair
    quantity); pairs is a deterministic policy's pair per (node, state), at
    every node, and None for a randomized one. The one place that reads a
    policy's tables. A deterministic policy plays its indexed pairs with
    weight 1: its weights are None and it never forms its one-hot kernel; its
    average keeps the one-hot sums' bits (notes/decisions.md)."""
    if grid is not None and policy.n_nodes != grid.n_nodes:
        raise ValueError(f"policy has {policy.n_nodes} nodes, grid has {grid.n_nodes}")
    policy._refuse_invalid(model)
    n_cells, starts = policy.n_nodes - 1, model.action_offsets[:-1]
    if policy.kind == "randomized":
        kernel = policy.action_probs[:n_cells]

        def average(per_pair):
            # a block of cells' products at a time; each row's sums are its own
            out = np.empty((n_cells, model.n_states))
            for lo in range(0, n_cells, _AVERAGE_BLOCK):
                rows = slice(lo, lo + _AVERAGE_BLOCK)
                np.add.reduceat(kernel[rows] * per_pair, starts, axis=1, out=out[rows])
            return out

        runs = _runs(kernel != 0.0, lambda k: np.flatnonzero(kernel[k]))
        return _Plays(runs, kernel, average, None)
    pairs = starts + policy.action_index
    cells = pairs[:n_cells]

    def average(per_pair):
        # a one-hot sum is its played term x, but -0.0 for x = +-0 only if all terms are
        negative = np.logical_and.reduceat(np.signbit(per_pair), starts)
        return np.where(negative[model.pair_state], per_pair, per_pair + 0.0).take(cells)

    return _Plays(_runs(cells, cells.__getitem__), None, average, pairs)


def _runs(keys: np.ndarray, played) -> list:
    """[(range of cells, played(first cell))], one per maximal run of equal
    rows of keys: a cell's pairs (a deterministic policy or an LP column), or
    the support of its kernel. The one place that finds where the played
    pairs change."""
    firsts = [0, *(np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1).tolist(), len(keys)]
    return [(range(lo, end), played(lo)) for lo, end in zip(firsts, firsts[1:])]


def _played_rows(model: CtmdpModel, s: np.ndarray):
    """Each state's start in the played pairs s, s's states and rate rows."""
    st = model.pair_state.take(s)
    return np.searchsorted(st, np.arange(model.n_states)), st, model.rate_rows.take(s, axis=0)


def evaluate_policy(model: CtmdpModel, grid: TimeGrid, policy: MarkovPolicy,
                    cost_index: int = 0, integrator: str = "rk4") -> ValueGrid:
    """Backward evaluation of a fixed Markov policy for one cost table.

    Same stepping as solve_backward with the min replaced by the policy's
    kernel average; randomized kernels average both cost and generator. A
    step multiplies only the rate rows of the pairs its cell plays, gathered
    once per run of cells playing the same pairs, and averages the products
    per state, so no mean generator is formed (notes/decisions.md). A
    deterministic policy plays one pair per state with weight 1, so its
    stage is the product alone. The policy must live on this grid's nodes.
    """
    grid.check_stability(model)
    step = _stepper(model.n_states, grid.dt, integrator)
    plays = _plays(model, policy, grid)
    cost_index = _checked_index(cost_index, model.costs.shape[0], "cost_index", "cost table")
    costs = plays.average(model.costs[cost_index])
    deterministic = plays.pairs is not None
    if deterministic:
        def f(v):
            return cb + Rs.dot(v)
    else:
        def f(v):
            return cb + np.add.reduceat(w * Rs.dot(v), seg)

    g = np.zeros((grid.n_nodes, model.n_states))
    with np.errstate(over="ignore", invalid="ignore"):  # caught by _check_finite below
        for cells, s in reversed(plays.runs):
            Rs = None  # the last run's rows go before the next run's are gathered
            seg, _, Rs = _played_rows(model, s)
            for k in reversed(cells):
                if not deterministic:
                    w = plays.weights[k].take(s)
                cb = costs[k]
                step(f, g[k + 1], g[k])
    _check_finite(g, grid.dt)
    return ValueGrid(grid=grid, values=g)


@dataclass(frozen=True, eq=False)
class EnvelopeReport:
    """Per-state growth envelope check for a value table."""

    bound: np.ndarray      # (n_states,) envelope M T [e^{rho1 T} w + ...]
    max_ratio: float       # max |g| / bound over all nodes and states
    n_violations: int      # nodes*states where |g| > bound (1 + ENVELOPE_SLACK)

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def value_envelope(model: CtmdpModel, certificate: DriftCertificate) -> np.ndarray:
    """Growth envelope for values of the cost c_0 on this horizon; 0 at M = 0."""
    T = model.horizon
    if certificate.M == 0.0:
        return np.zeros(model.n_states)
    return certificate.M * T * certificate.weight_bound(model.weight, T)


def check_value_envelope(model: CtmdpModel, certificate: DriftCertificate,
                         value_grid: ValueGrid) -> EnvelopeReport:
    """Assert |g(i, t_k)| stays inside the certified envelope at every node."""
    bound = value_envelope(model, certificate)
    magnitude = np.abs(value_grid.values)
    violations = magnitude > bound[None, :] * (1.0 + ENVELOPE_SLACK)
    ratios = magnitude / np.where(bound > 0.0, bound, 1.0)[None, :]
    return EnvelopeReport(bound=bound,
                          max_ratio=float(ratios.max()),
                          n_violations=int(np.count_nonzero(violations)))


def truncation_error_bound(model: CtmdpModel, certificate: DriftCertificate) -> float:
    """Markov-inequality estimate of value mass beyond the truncation level.

    Scales the horizon-T mean-weight envelope by 1/m; reported, not enforced.
    Returns 0 at M = 0, even past exp overflow, and decays like 1/m in m.
    """
    if certificate.M == 0.0:
        return 0.0
    T, m = model.horizon, model.truncation_level
    if m is None:
        m = float(model.weight.max())
    return certificate.M * T * certificate.weight_bound(model.gamma_weight(), T) / m
