"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own integrators: policy
evaluation goes through matrix exponentials (scipy), transient probabilities
through expm as well, and small LPs through brute-force vertex enumeration.
The one-multiplier Lagrangian dual is maximized by bracketed golden section,
the search the library ran before it moved to column generation, over
D(u) from one backward solve per probe (_dual_value_fn).

The rest are the library's earlier formulas, kept as references for the
reassociated ones that replaced them: RK4 policy evaluation and forward
occupation through a dense mean generator per step, the same two through
every state-action rate row at every stage (pair_level_evaluate_policy,
pair_level_occupation_of_policy), stepped by the RK4/Euler step that
returned a new array (_step), the played-rows occupation loop that filled
a (cells x pairs) table (dense_occupation_of_policy), the Euler loop that
built the LP's columns apart from the policy measure's forward loop, with
its own run breaks (euler_forward_masses), the characterization
residual with one tail quadrature per test function, the csv.writer
exports of the value, policy, occupation, dual-sample and trajectory
tables, auto_certificate with its own drift sums (sum_auto_certificate),
the full-width thinning batch that gathers a dense rate row per accepted jump, the per-path
simulate loop that searches one (loop_simulate), the backward DP
that takes the padded argmin at every stage, and the dense simplex on its
engine object (_Simplex, class_simplex_solve_lp) that lp_core's simplex
functions replaced, and the per-pair loops that built the birth-death
preset's tables and model_to_dict's nested lists. default_test_functions
builds the default characterization family as one list of fresh tables, and
full_scan_score scores every table of it, as check_characterization did
before it screened the indicator blocks by their sums, with the library's
chunked inner product.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
from scipy.linalg import expm

from ctmdp.dp import (TimeGrid, ValueGrid, _check_finite, _played_rows, _plays, _stepper,
                      solve_backward)
from ctmdp.lp_core import (DEFAULT_PIVOT_CAP, ENTER_TOL, FEAS_TOL, PIVOT_TOL, _BLAND_AFTER,
                           _REFACTOR_EVERY, LpProblem, LpSolution)
from ctmdp.model import AUTO_RHO, CtmdpModel, DriftCertificate, MarkovPolicy, certify_drift
from ctmdp.occupation import _TIME_BINS, OccupationGrid, _residual_table, _table_dot
from ctmdp.sim import _MAX_ROUNDS_SLACK, Trajectory


def _policy_kernel(model: CtmdpModel, grid, policy: MarkovPolicy) -> np.ndarray:
    """The policy's (n_nodes, n_pairs) kernel, once its nodes are grid's."""
    if policy.n_nodes != grid.n_nodes:
        raise ValueError(f"policy has {policy.n_nodes} nodes, grid has {grid.n_nodes}")
    return policy.kernel(model)


def kernel_tables(model: CtmdpModel, kernel_row: np.ndarray, cost_row: np.ndarray):
    """Mean cost vector and mean generator of one kernel row."""
    starts = model.action_offsets[:-1]
    cb = np.add.reduceat(kernel_row * cost_row, starts)
    Qb = np.add.reduceat(kernel_row[:, None] * model.rate_rows, starts, axis=0)
    return cb, Qb


def expm_policy_value(model: CtmdpModel, policy: MarkovPolicy,
                      cost_index: int = 0) -> np.ndarray:
    """Exact backward evaluation of a piecewise-constant Markov policy.

    Propagates v(t_k) = (e^{M dt} [v(t_{k+1}); 1])[:n] cell by cell with the
    augmented generator M = [[Q, c], [0, 0]], caching the exponential per
    distinct kernel row. Returns values on the nodes, shape (n_nodes, n_s).
    """
    kernel = policy.kernel(model)
    n_nodes = policy.n_nodes
    n_cells = n_nodes - 1
    dt = model.horizon / n_cells
    n = model.n_states
    cost_row = model.costs[cost_index]

    cache: dict[bytes, np.ndarray] = {}
    values = np.zeros((n_nodes, n))
    z = np.zeros(n + 1)
    z[n] = 1.0
    for k in range(n_cells - 1, -1, -1):
        key = kernel[k].tobytes()
        if key not in cache:
            cb, Qb = kernel_tables(model, kernel[k], cost_row)
            M = np.zeros((n + 1, n + 1))
            M[:n, :n] = Qb
            M[:n, n] = cb
            cache[key] = expm(M * dt)
        z[:n] = values[k + 1]
        values[k] = (cache[key] @ z)[:n]
    return values


def expm_transient(Q: np.ndarray, p0: np.ndarray, t: float) -> np.ndarray:
    """State distribution at time t of a homogeneous chain: p0^T e^{Qt}."""
    return np.asarray(p0) @ expm(np.asarray(Q) * t)


def lp_vertex_optimum(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, tol=1e-9):
    """Brute-force LP minimum over basic feasible solutions.

    Only for tiny instances: slacks are appended for the inequality block and
    every basis (column subset of size m) is solved and screened. Returns
    (status, objective, x) with status in {"optimal", "infeasible",
    "unbounded_or_infeasible"}; unboundedness is not distinguished here, the
    tests only feed bounded-or-infeasible instances.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    ae = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    be = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    au = np.zeros((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    bu = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    m_ub = bu.size
    A = np.vstack([np.hstack([ae, np.zeros((be.size, m_ub))]),
                   np.hstack([au, np.eye(m_ub)])])
    b = np.concatenate([be, bu])
    c_std = np.concatenate([c, np.zeros(m_ub)])
    m, n_std = A.shape

    best = None
    best_x = None
    for cols in itertools.combinations(range(n_std), m):
        B = A[:, cols]
        try:
            xb = np.linalg.solve(B, b)
        except np.linalg.LinAlgError:
            continue
        if np.min(xb) < -tol:
            continue
        x = np.zeros(n_std)
        x[list(cols)] = xb
        obj = float(c_std @ x)
        if best is None or obj < best - tol:
            best = obj
            best_x = x[:n]
    if best is None:
        return "infeasible", None, None
    return "optimal", best, best_x


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    """Maximizer of a unimodal f on [lo, hi] to within tol."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return x1 if f1 >= f2 else x2


def golden_dual_max(D, u_max: float = 1.0, expansion: float = 4.0,
                    tol: float = 1e-10) -> tuple[float, float]:
    """Maximize a concave function of one multiplier u >= 0.

    The bracket [0, hi] grows until D no longer rises towards hi, then golden
    section closes it; u = 0 wins when nothing beats it (slack constraint).
    Returns (u*, D(u*)).
    """
    hi = u_max
    for _ in range(60):
        if D(hi) <= D(_GOLDEN * hi):
            break
        hi *= expansion
    u = golden_section_max(D, 0.0, hi, tol * max(1.0, hi))
    return (u, D(u)) if D(u) > D(0.0) else (0.0, D(0.0))


def _dual_value_fn(model: CtmdpModel, grid: TimeGrid, integrator: str):
    gamma = model.initial_dist
    d = model.constraint_bounds

    def D(u: np.ndarray) -> float:
        weights = np.concatenate([[1.0], u])
        vg, _ = solve_backward(model, grid, cost_weights=weights, integrator=integrator)
        return float(gamma @ vg.at_start() - u @ d)

    return D


def random_instance(rng: np.random.Generator, max_states: int = 6,
                    max_actions: int = 3, rate_scale: float = 2.0,
                    n_costs: int = 1, horizon=None) -> CtmdpModel:
    """Random small conservative CTMDP with bounded rates and costs."""
    n = int(rng.integers(2, max_states + 1))
    n_actions = [int(rng.integers(1, max_actions + 1)) for _ in range(n)]
    actions = [[(float(a),) for a in range(k)] for k in n_actions]
    rates = []
    for i in range(n):
        per_state = []
        for _ in range(n_actions[i]):
            row = rng.uniform(0.0, rate_scale / max(1, n - 1), size=n)
            row[i] = 0.0
            row[i] = -row.sum()
            per_state.append(row)
        rates.append(per_state)
    costs = [[[float(rng.uniform(-1.0, 1.0)) for _ in range(n_actions[i])]
              for i in range(n)] for _ in range(n_costs)]
    T = float(rng.uniform(0.5, 1.5)) if horizon is None else float(horizon)
    gamma = rng.uniform(0.1, 1.0, size=n)
    gamma /= gamma.sum()
    weight = 1.0 + 0.4 * np.arange(n)
    bounds = [10.0] * (n_costs - 1)  # loose enough never to bind
    return CtmdpModel.from_tables(actions, rates, costs, horizon=T,
                                  initial_dist=gamma, weight=weight,
                                  constraint_bounds=bounds)


def random_policy(rng: np.random.Generator, model: CtmdpModel,
                  n_nodes: int, randomized: bool = False) -> MarkovPolicy:
    """Random Markov policy on the node grid."""
    if not randomized:
        counts = np.diff(model.action_offsets)
        idx = np.stack([rng.integers(0, counts) for _ in range(n_nodes)])
        return MarkovPolicy.deterministic(idx)
    probs = np.zeros((n_nodes, model.n_pairs))
    for k in range(n_nodes):
        raw = rng.uniform(0.05, 1.0, size=model.n_pairs)
        sums = np.add.reduceat(raw, model.action_offsets[:-1])
        probs[k] = raw / sums[model.pair_state]
    return MarkovPolicy.randomized(probs)


def euler_masses_of_kernel(model: CtmdpModel, n_cells: int,
                           kernel: np.ndarray) -> np.ndarray:
    """Forward-Euler cell masses of a kernel, matching the LP's flow rows."""
    dt = model.horizon / n_cells
    starts = model.action_offsets[:-1]
    p = model.initial_dist.astype(float).copy()
    y = np.zeros((n_cells, model.n_pairs))
    for k in range(n_cells):
        y[k] = p[model.pair_state] * kernel[k]
        Qb = np.add.reduceat(kernel[k][:, None] * model.rate_rows, starts, axis=0)
        p = p + dt * (Qb.T @ p)
    return y


def dense_policy_value(model: CtmdpModel, grid, policy: MarkovPolicy,
                       cost_index: int = 0, integrator: str = "rk4") -> np.ndarray:
    """Backward RK4 (or Euler) evaluation through the mean generator Qb of each
    cell's kernel row. Returns values on the nodes, shape (n_nodes, n_s)."""
    kernel = policy.kernel(model)
    dt = grid.dt
    g = np.zeros((grid.n_nodes, model.n_states))
    for k in range(grid.n_steps - 1, -1, -1):
        cb, Qb = kernel_tables(model, kernel[k], model.costs[cost_index])
        y = g[k + 1]
        if integrator == "euler":
            g[k] = y + dt * (cb + Qb @ y)
            continue
        k1 = cb + Qb @ y
        k2 = cb + Qb @ (y + 0.5 * dt * k1)
        k3 = cb + Qb @ (y + 0.5 * dt * k2)
        k4 = cb + Qb @ (y + dt * k3)
        g[k] = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return g


def dense_occupation_masses(model: CtmdpModel, grid, policy: MarkovPolicy) -> np.ndarray:
    """Forward RK4 cell masses p(i, t_k) kernel(a | i, t_k) through Qb^T,
    clipped and renormalized per step like the library."""
    kernel = policy.kernel(model)
    dt = grid.dt
    p = model.initial_dist.astype(float).copy()
    y = np.zeros((grid.n_steps, model.n_pairs))
    for k in range(grid.n_steps):
        y[k] = p[model.pair_state] * kernel[k]
        QbT = kernel_tables(model, kernel[k], model.costs[0])[1].T
        k1 = QbT @ p
        k2 = QbT @ (p + 0.5 * dt * k1)
        k3 = QbT @ (p + 0.5 * dt * k2)
        k4 = QbT @ (p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.maximum(p, 0.0, out=p)
        p /= p.sum()
    return y


def _step(f, y: np.ndarray, dt: float, integrator: str, k1=None) -> np.ndarray:
    """One classic RK4 or Euler step of y' = f(y); k1, if given, is f(y): the
    library's stepper before dp._stepper held its constants as vectors and
    wrote into the caller's table."""
    if k1 is None:
        k1 = f(y)
    if integrator == "euler":
        return y + dt * k1
    if integrator != "rk4":
        raise ValueError(f"unknown integrator {integrator!r}")
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def pair_level_evaluate_policy(model: CtmdpModel, grid: TimeGrid, policy: MarkovPolicy,
                               cost_index: int = 0, integrator: str = "rk4") -> ValueGrid:
    """Backward evaluation of a fixed Markov policy for one cost table.

    Same stepping as solve_backward with the min replaced by the policy's
    kernel average; randomized kernels average both cost and generator. The
    average is taken after the pair-level mat-vec R @ y, so no mean generator
    is formed. The policy must live on this grid's nodes.
    """
    grid.check_stability(model)
    kernel = _policy_kernel(model, grid, policy)
    if not 0 <= cost_index < model.costs.shape[0]:
        raise ValueError(f"no cost table {cost_index}")
    starts = model.action_offsets[:-1]
    costs = np.add.reduceat(kernel * model.costs[cost_index], starts, axis=1)
    R = model.rate_rows
    dt = grid.dt

    g = np.zeros((grid.n_nodes, model.n_states))
    with np.errstate(over="ignore", invalid="ignore"):  # caught by _check_finite below
        for k in range(grid.n_steps - 1, -1, -1):
            row, cb = kernel[k], costs[k]

            def f(v):
                return cb + np.add.reduceat(row * R.dot(v), starts)

            g[k] = _step(f, g[k + 1], dt, integrator)
    _check_finite(g, dt)
    return ValueGrid(grid=grid, values=g)


def pair_level_occupation_of_policy(model: CtmdpModel, grid: TimeGrid,
                                    policy: MarkovPolicy) -> OccupationGrid:
    """Discretized occupation measure of a Markov policy.

    Integrates the forward equation p' = Qbar(t)^T p from the initial
    distribution with RK4 (kernel frozen per cell) and sets
    y(k, i, a) = p(i, t_k) * kernel(a | i, t_k).
    """
    grid.check_stability(model)
    kernel = _policy_kernel(model, grid, policy)
    R = model.rate_rows
    dt = grid.dt

    p = model.initial_dist.astype(float).copy()
    y = np.zeros((grid.n_steps, model.n_pairs))
    for k in range(grid.n_steps):
        row = kernel[k]
        y[k] = p[model.pair_state] * row

        def f(v):  # Qbar^T v, spread over the pairs and pushed through R
            return (v[model.pair_state] * row) @ R

        p = _step(f, p, dt, "rk4")
        np.maximum(p, 0.0, out=p)
        p /= p.sum()
    return OccupationGrid(grid=grid, masses=y)


def dense_occupation_of_policy(model: CtmdpModel, grid: TimeGrid,
                               policy: MarkovPolicy) -> OccupationGrid:
    """occupation_of_policy as it was while it filled the (cells x pairs)
    table: y(k, s) = p.take(st) * kernel(s) on the pairs cell k plays, one
    run of played rows at a time, and 0 elsewhere."""
    grid.check_stability(model)
    step = _stepper(model.n_states, grid.dt, "rk4")
    plays = _plays(model, policy, grid)
    deterministic = plays.pairs is not None
    if deterministic:
        def f(v):
            return v @ Rs
    else:
        def f(v):
            return (v.take(st) * w) @ Rs

    p = model.initial_dist.astype(float)
    y = np.zeros((grid.n_steps, model.n_pairs))
    for cells, s in plays.runs:
        Rs = None
        _, st, Rs = _played_rows(model, s)
        for k in cells:
            if deterministic:
                y[k, s] = p
            else:
                w = plays.weights[k].take(s)
                y[k, s] = p.take(st) * w
            step(f, p, p)
            np.maximum(p, 0.0, out=p)
            p /= p.sum()
    return OccupationGrid(grid=grid, masses=y)


def euler_forward_masses(model: CtmdpModel, grid: TimeGrid, action_index: np.ndarray):
    """(pairs, held) of an LP column: a deterministic Markov policy's pair
    per (cell, state), cell k playing action_index[k], and the state masses
    it holds there under the LP's own Euler flow, the rows gathered where
    the pairs change, found here and not by dp._runs."""
    pairs = model.action_offsets[:-1] + action_index  # (n_cells, n_states)
    changes = np.any(pairs[1:] != pairs[:-1], axis=1)
    step = _stepper(model.n_states, grid.dt, "euler")
    held = np.empty(pairs.shape)  # p at each cell's start; no step leaves the last cell
    held[0] = model.initial_dist
    rows, changes = list(held), changes.tolist()

    def f(v):  # v Q_k: the rows cell k plays, weighted by v
        return v.dot(Rk)

    for k in range(grid.n_steps - 1):
        if k == 0 or changes[k - 1]:
            Rk = None
            Rk = model.rate_rows[pairs[k]]
        step(f, rows[k], rows[k + 1])
    return pairs, held


def default_test_functions(model: CtmdpModel, grid) -> list[np.ndarray]:
    """Indicators of (state, time-bin) cells plus the weight and its square,
    the family check_characterization scores, each held as its own table."""
    shape = (grid.n_steps, model.n_states)
    edges = np.linspace(0, grid.n_steps, _TIME_BINS + 1).astype(int)
    tables = []
    for i in range(model.n_states):
        for b in range(_TIME_BINS):
            g = np.zeros(shape)
            g[edges[b]:edges[b + 1], i] = 1.0
            tables.append(g)
    return tables + [np.tile(model.weight ** p, (grid.n_steps, 1)) for p in (1, 2)]


def full_scan_score(W: np.ndarray, weight: np.ndarray) -> float:
    """The default family's score before its block screen: |<g, W>| for
    every indicator of a (state, time-bin) block, each set and cleared in one
    buffer, then for the tables of w and w**2; the largest, or 0.0. Each
    inner product is the library's _table_dot, so the two sum alike."""
    edges = np.linspace(0, len(W), _TIME_BINS + 1).astype(int)
    g = np.zeros(W.shape)
    worst = 0.0
    for i in range(W.shape[1]):
        for b in range(_TIME_BINS):
            g[edges[b]:edges[b + 1], i] = 1.0
            worst = max(worst, abs(_table_dot(g, W)))
            g[edges[b]:edges[b + 1], i] = 0.0
    for w in (weight, weight ** 2):
        worst = max(worst, abs(_table_dot(np.tile(w, (len(W), 1)), W)))
    return worst


def full_scan_characterization(model: CtmdpModel, grid, eta: OccupationGrid) -> float:
    """check_characterization scored by full_scan_score."""
    return full_scan_score(_residual_table(model, grid, eta), model.weight)


def tail_characterization_scores(model: CtmdpModel, grid, masses: np.ndarray,
                                 test_functions) -> list[float]:
    """Per test table g, |generator side - marginal side| with the tail
    quadrature G(., t_k) = dt sum_{l >= k} g(., t_l) formed for each g; the
    generator side is the inner product of G with masses @ R, formed once."""
    dt = grid.dt
    flow = masses @ model.rate_rows
    marginal = np.add.reduceat(masses, model.action_offsets[:-1], axis=1)
    scores = []
    for g in test_functions:
        tail = dt * np.flip(np.cumsum(np.flip(g, axis=0), axis=0), axis=0)
        lhs = dt * float(np.vdot(tail, flow))
        rhs = dt * float(np.vdot(g, marginal)) - float(model.initial_dist @ (dt * g.sum(axis=0)))
        scores.append(abs(lhs - rhs))
    return scores


def csv_writer_value_table(value_grid, path) -> None:
    """value.csv through csv.writer: header, then state-major rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "t", "value"])
        nodes = value_grid.grid.nodes
        for i in range(value_grid.values.shape[1]):
            for k in range(value_grid.values.shape[0]):
                writer.writerow([i, f"{nodes[k]:.12g}", f"{value_grid.values[k, i]:.17g}"])


def csv_writer_policy_table(model: CtmdpModel, grid, policy: MarkovPolicy, path) -> None:
    """policy.csv through csv.writer: one row of action components per node."""
    dim = model.action_points.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "t"] + [f"a{d}" for d in range(dim)])
        nodes = grid.nodes
        for i in range(model.n_states):
            for k in range(policy.n_nodes):
                point = model.action_points[model.pair_index(i, int(policy.action_index[k, i]))]
                writer.writerow([i, f"{nodes[k]:.12g}"] + [f"{x:.17g}" for x in point])


def csv_writer_occupation_table(occupation, model: CtmdpModel, path) -> None:
    """occupation.csv through csv.writer: one row per (cell, state-action pair)."""
    dim = model.action_points.shape[1]
    nodes = occupation.grid.nodes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "t", "state"] + [f"a{d}" for d in range(dim)] + ["mass"])
        for k in range(occupation.n_cells):
            for ka in range(model.n_pairs):
                writer.writerow(
                    [k, f"{nodes[k]:.12g}", int(model.pair_state[ka])]
                    + [f"{x:.17g}" for x in model.action_points[ka]]
                    + [f"{occupation.masses[k, ka]:.17g}"])


def csv_writer_samples_table(certificate, path) -> None:
    """dual_samples.csv through csv.writer: iterate, u_1..u_N, D(u), master objective."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iterate", *(f"u{n}" for n in range(1, len(certificate.multipliers) + 1)),
                         "dual", "master_objective"])
        for t, (u, dual, master) in enumerate(certificate.samples):
            writer.writerow([t, *(f"{x:.17g}" for x in (*u, dual, master))])


def csv_writer_trajectory_table(path_: Trajectory, model: CtmdpModel, path) -> None:
    """trajectory.csv through csv.writer: one row per sojourn."""
    dim = model.action_points.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "state"] + [f"a{d}" for d in range(dim)])
        for m in range(len(path_.times)):
            point = model.action_points[
                model.pair_index(int(path_.states[m]), int(path_.action_indices[m]))]
            writer.writerow([f"{path_.times[m]:.17g}", int(path_.states[m])]
                            + [f"{x:.17g}" for x in point])


def sum_auto_certificate(model: CtmdpModel) -> DriftCertificate:
    """auto_certificate as it was: offsets from drift sums formed outside
    certify_drift, L and M from their own maxima, then one certify_drift."""
    w = model.weight
    ws = w[model.pair_state]

    def offset(p):
        return float(max(0.0, np.max(model.rate_rows @ (w ** p) - AUTO_RHO * ws ** p)))

    with np.errstate(over="ignore", invalid="ignore"):
        L = float(max(AUTO_RHO, np.max(model.exit_rate / ws)))
        M = float(max(1e-300, np.max(np.abs(model.costs) / ws)))
        cand = DriftCertificate(rho1=AUTO_RHO, b1=offset(1), rho2=AUTO_RHO, b2=offset(2),
                                rho3=AUTO_RHO, b3=offset(3), L=L, M=M)
    return certify_drift(model, cand)


def _prefix_integral(table: np.ndarray, dt_cells: float):
    """Cumulative integral of a piecewise-constant (cell, state) table."""
    n_cells, n_states = table.shape
    pre = np.zeros((n_states, n_cells + 1))
    pre[:, 1:] = np.cumsum(table.T, axis=1) * dt_cells
    return pre


def _integral_to(pre: np.ndarray, table: np.ndarray, dt_cells: float,
                 state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Integral of table(., state) from 0 to u along constant-state stretches."""
    n_cells = table.shape[0]
    u = np.clip(u, 0.0, n_cells * dt_cells)
    cell = np.clip((u / dt_cells).astype(np.int64), 0, n_cells - 1)
    return pre[state, cell] + (u - cell * dt_cells) * table[cell, state]


def _cell_of(t, dt_cells: float, n_cells: int):
    """Policy cell of each time t, clipped to [0, n_cells - 1]: the batch
    engine's cell index before it dropped the lower clip."""
    return np.clip((t / dt_cells).astype(np.int64), 0, n_cells - 1)


def _policy_cells(model: CtmdpModel, policy: MarkovPolicy):
    """Checked one-hot or randomized kernel per time cell plus the cell width,
    from a node policy: the thinning engines' policy reader before dp._plays."""
    kernel = policy.kernel(model)
    n_cells = policy.n_nodes - 1
    return kernel[:n_cells], model.horizon / n_cells


def kernel_average_cells(model: CtmdpModel, policy: MarkovPolicy, per_pair) -> np.ndarray:
    """Kernel average of a per-pair quantity per (cell, state): the reduceat
    of each cell's one-hot or randomized kernel row times the quantity."""
    cells, _ = _policy_cells(model, policy)
    return np.add.reduceat(cells * per_pair, model.action_offsets[:-1], axis=1)


def dense_run_batch(model: CtmdpModel, policy: MarkovPolicy, i0: int, n_paths: int,
                    rng, integrands=(), capture_time: float | None = None):
    """Vectorized thinning over a batch of paths.

    integrands: sequence of (table (n_cells, n_states), t_end) pairs whose
    pathwise integrals over [0, min(t_end, T)] are returned, one column each.
    capture_time: if set, also return the state each path holds at that time.
    All randomness is drawn from the single counter-based stream ``rng`` with
    a consumption pattern that is a pure function of the seed.
    """
    cells, dt_cells = _policy_cells(model, policy)
    n_cells = cells.shape[0]
    T = model.horizon
    R = model.rate_rows
    offsets = model.action_offsets
    q_star = model.q_star
    randomized = policy.kind == "randomized"
    mask = model.pad_index < model.n_pairs
    pad = np.where(mask, model.pad_index, 0)  # padding slots read pair 0, then masked

    tables = [np.ascontiguousarray(tab) for tab, _ in integrands]
    ends = [min(float(t_end), T) for _, t_end in integrands]
    prefixes = [_prefix_integral(tab, dt_cells) for tab in tables]

    t = np.zeros(n_paths)
    state = np.full(n_paths, int(i0), dtype=np.int64)
    done = np.zeros(n_paths, dtype=bool)
    captured = np.full(n_paths, -1, dtype=np.int64)
    acc = np.zeros((n_paths, len(integrands)))

    max_rounds = _MAX_ROUNDS_SLACK + int(20 * model.max_q_star * T)
    for _ in range(max_rounds):
        idx = np.flatnonzero(~done)
        if idx.size == 0:
            break
        s = state[idx]
        qs = q_star[s]
        draws = rng.exponential(1.0, size=idx.size)
        with np.errstate(divide="ignore"):
            t_new = np.where(qs > 0.0, t[idx] + draws / np.where(qs > 0, qs, 1.0), np.inf)

        if capture_time is not None:
            hit = (captured[idx] < 0) & (t[idx] <= capture_time) & (capture_time < t_new)
            captured[idx[hit]] = s[hit]

        hi = np.minimum(t_new, T)
        for m, (pre, tab, t_end) in enumerate(zip(prefixes, tables, ends)):
            lo_m = np.minimum(t[idx], t_end)
            hi_m = np.minimum(hi, t_end)
            acc[idx, m] += (_integral_to(pre, tab, dt_cells, s, hi_m)
                            - _integral_to(pre, tab, dt_cells, s, lo_m))

        finished = t_new >= T
        done[idx[finished]] = True
        t[idx] = hi

        live = idx[~finished]
        if live.size == 0:
            continue
        s_live = state[live]
        t_live = t[live]
        cell = _cell_of(t_live, dt_cells, n_cells)
        if randomized:
            rows = cells[cell[:, None], pad[s_live]]
            rows = np.where(mask[s_live], rows, 0.0)
            u = rng.random(live.size) * rows.sum(axis=1)
            local = (np.cumsum(rows, axis=1) < u[:, None]).sum(axis=1)
            local = np.minimum(local, np.diff(offsets)[s_live] - 1)
            chosen = rows[np.arange(rows.shape[0]), local]
            off = chosen <= 0.0  # boundary draws may land on a zero-mass action
            if np.any(off):
                local[off] = np.argmax(rows[off], axis=1)
        else:
            local = policy.action_index[cell, s_live]
        ka = offsets[s_live] + local

        diag = np.abs(R[ka, s_live])
        accept = rng.random(live.size) * q_star[s_live] < diag
        if not np.any(accept):
            continue
        jump_from = live[accept]
        rows = R[ka[accept]].copy()
        rows[np.arange(rows.shape[0]), state[jump_from]] = 0.0
        rows /= diag[accept][:, None]
        u2 = rng.random(rows.shape[0])
        j = (np.cumsum(rows, axis=1) < u2[:, None]).sum(axis=1)
        j = np.minimum(j, model.n_states - 1)
        bad = rows[np.arange(rows.shape[0]), j] <= 0.0
        if np.any(bad):
            j[bad] = np.argmax(rows[bad], axis=1)
        state[jump_from] = j
    if not done.all():
        raise RuntimeError("batch thinning did not finish within the round cap")

    if capture_time is not None:
        remaining = captured < 0
        captured[remaining] = state[remaining]
    return acc, captured


def loop_simulate(model: CtmdpModel, policy: MarkovPolicy, i0: int, seed) -> Trajectory:
    """Generate one path by thinning. Identical seeds give identical paths.

    The per-path loop that ``ctmdp.sim.simulate`` replaced: one row copy,
    cumsum and searchsorted per accepted jump.
    """
    rng = np.random.default_rng(seed)
    cells, dt_cells = _policy_cells(model, policy)
    n_cells = cells.shape[0]
    T = model.horizon
    R = model.rate_rows
    offsets = model.action_offsets

    def action_at(i: int, t: float) -> int:
        cell = min(int(t / dt_cells), n_cells - 1)
        if policy.kind == "deterministic":
            return int(policy.action_index[cell, i])
        probs = cells[cell, offsets[i]:offsets[i + 1]]
        return int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))

    times = [0.0]
    states = [int(i0)]
    actions = [min(action_at(int(i0), 0.0), model.n_actions(int(i0)) - 1)]
    t, i = 0.0, int(i0)
    max_rounds = _MAX_ROUNDS_SLACK + int(20 * model.max_q_star * T)
    for _ in range(max_rounds):
        qs = float(model.q_star[i])
        if qs <= 0.0:
            break  # absorbing under every action: hold to the horizon
        t = t + rng.exponential(1.0 / qs)
        if t >= T:
            break
        a = min(action_at(i, t), model.n_actions(i) - 1)
        ka = offsets[i] + a
        diag = abs(float(R[ka, i]))
        if rng.random() * qs >= diag:
            continue  # thinned proposal, clock keeps running
        row = R[ka].copy()
        row[i] = 0.0
        cum = np.cumsum(row / diag)
        j = int(np.searchsorted(cum, rng.random(), side="right"))
        j = min(j, model.n_states - 1)
        if row[j] <= 0.0:
            j = int(np.argmax(row))
        times.append(t)
        states.append(j)
        actions.append(min(action_at(j, t), model.n_actions(j) - 1))
        i = j
    else:
        raise RuntimeError("thinning did not reach the horizon within the round cap")

    return Trajectory(horizon=T, times=np.asarray(times),
                      states=np.asarray(states, dtype=np.int64),
                      action_indices=np.asarray(actions, dtype=np.int64))


def _min_operator(model: CtmdpModel, cbar: np.ndarray):
    """Return f(g) -> per-state min of c(i,a) + q(.|i,a) . g, plus argmins."""
    R = model.rate_rows
    mask = model.pad_index < model.n_pairs
    pad = np.where(mask, model.pad_index, 0)  # padding slots read pair 0, then masked

    def f(g: np.ndarray):
        vals = cbar + R @ g
        padded = np.where(mask, vals[pad], np.inf)
        local = np.argmin(padded, axis=1)  # first minimum: lowest action index
        idx = np.arange(padded.shape[0])
        return padded[idx, local], local

    return f


def argmin_stage_solve_backward(model: CtmdpModel, grid, cost_weights=None,
                                integrator: str = "rk4"):
    """Backward DP whose RK4/Euler stages take the padded argmin as well as
    the min; returns (values (n_nodes, n_s), node policy (n_nodes, n_s))."""
    from ctmdp.dp import scalarize_costs
    f = _min_operator(model, scalarize_costs(model, cost_weights))
    dt = grid.dt
    g = np.zeros((grid.n_nodes, model.n_states))
    policy = np.zeros((grid.n_nodes, model.n_states), dtype=np.int64)
    _, policy[grid.n_steps] = f(g[grid.n_steps])
    for k in range(grid.n_steps - 1, -1, -1):
        y = g[k + 1]
        if integrator == "rk4":
            k1, _ = f(y)
            k2, _ = f(y + 0.5 * dt * k1)
            k3, _ = f(y + 0.5 * dt * k2)
            k4, _ = f(y + dt * k3)
            g[k] = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            k1, _ = f(y)
            g[k] = y + dt * k1
        _, policy[k] = f(g[k])
    return g, policy


class _Simplex:
    """Revised simplex with a dense maintained inverse on fixed (A, b)."""

    def __init__(self, A, b, pivot_cap):
        self.A = A
        self.b = b
        self.m = A.shape[0]
        self.pivots = 0
        self.cap = pivot_cap

    def run(self, c, basis, Binv):
        """Minimize c over the current polyhedron from a feasible basis.

        Returns (status, basis, Binv, x_B) with status in
        {"optimal", "unbounded", "pivot_limit"}.
        """
        A, b, m = self.A, self.b, self.m
        x_B = Binv @ b
        np.maximum(x_B, 0.0, out=x_B)
        scale_c = 1.0 + float(np.max(np.abs(c))) if c.size else 1.0
        degenerate_run = 0
        bland = False

        while True:
            if self.pivots >= self.cap:
                return "pivot_limit", basis, Binv, x_B
            y = c[basis] @ Binv
            reduced = c - y @ A
            reduced[basis] = 0.0
            candidates = np.flatnonzero(reduced < -ENTER_TOL * scale_c)
            if candidates.size == 0:
                return "optimal", basis, Binv, x_B
            if bland:
                j = int(candidates[0])
            else:
                j = int(candidates[np.argmin(reduced[candidates])])

            d = Binv @ A[:, j]
            pos = d > PIVOT_TOL
            if not np.any(pos):
                return "unbounded", basis, Binv, x_B
            ratios = np.full(m, np.inf)
            ratios[pos] = x_B[pos] / d[pos]
            theta = float(ratios.min())
            near = np.flatnonzero(ratios <= theta + PIVOT_TOL * (1.0 + abs(theta)))
            if bland:
                r = int(near[np.argmin(basis[near])])
            else:
                r = int(near[np.argmax(np.abs(d[near]))])

            # pivot: j enters, basis[r] leaves
            x_B -= theta * d
            np.maximum(x_B, 0.0, out=x_B)
            x_B[r] = theta
            basis[r] = j
            piv_row = Binv[r] / d[r]
            Binv -= np.outer(d, piv_row)
            Binv[r] = piv_row
            self.pivots += 1

            if theta <= PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run >= _BLAND_AFTER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False

            if self.pivots % _REFACTOR_EVERY == 0:
                Binv = np.linalg.inv(A[:, basis])
                x_B = Binv @ b
                np.maximum(x_B, 0.0, out=x_B)
        # unreachable


def class_simplex_solve_lp(problem: LpProblem, pivot_cap: int = DEFAULT_PIVOT_CAP) -> LpSolution:
    """lp_core.solve_lp as it was on the _Simplex engine object. The answers
    are the same bit for bit, with two exceptions. At a pivot_cap equal to
    the pivots a solve needs, this version reports pivot_limit. With no
    rows, it reports a cost in [-ENTER_TOL * scale, 0) as unbounded."""
    n = problem.n_vars
    m_eq = problem.b_eq.size
    m_ub = problem.b_ub.size
    m = m_eq + m_ub
    n_std = n + m_ub

    if m == 0:
        if np.all(problem.c >= 0):
            x = np.zeros(n)
            return LpSolution("optimal", x, np.zeros(0), 0.0, 0, 0.0, 0.0, 0.0)
        return LpSolution("unbounded", None, None, None, 0)

    A = np.zeros((m, n_std))
    A[:m_eq, :n] = problem.A_eq
    A[m_eq:, :n] = problem.A_ub
    if m_ub:
        A[m_eq:, n:] = np.eye(m_ub)
    b = np.concatenate([problem.b_eq, problem.b_ub])

    # row equilibration, then flip signs so b >= 0
    scale = np.max(np.abs(A), axis=1)
    scale[scale <= 0.0] = 1.0
    A /= scale[:, None]
    b = b / scale
    flip = np.where(b < 0.0, -1.0, 1.0)
    A *= flip[:, None]
    b *= flip

    c_std = np.concatenate([problem.c, np.zeros(m_ub)])
    engine = _Simplex(A, b, pivot_cap)

    # Phase 1: artificial identity basis, minimize total infeasibility
    A_art = np.concatenate([A, np.eye(m)], axis=1)
    c1 = np.concatenate([np.zeros(n_std), np.ones(m)])
    basis = np.arange(n_std, n_std + m, dtype=np.int64)
    engine.A = A_art
    status, basis, Binv, x_B = engine.run(c1, basis, np.eye(m))
    if status == "pivot_limit":
        return LpSolution("pivot_limit", None, None, None, engine.pivots)
    infeas = float(x_B[basis >= n_std].sum()) if np.any(basis >= n_std) else 0.0
    if infeas > FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
        return LpSolution("infeasible", None, None, None, engine.pivots)

    # pivot out any zero-level artificials; drop rows that turn out redundant
    drop_rows: list[int] = []
    for r in np.flatnonzero(basis >= n_std):
        u = Binv[r] @ A
        pool = np.flatnonzero(np.abs(u) > FEAS_TOL)
        pool = pool[~np.isin(pool, basis)]
        if pool.size:
            j = int(pool[0])
            d = Binv @ A_art[:, j]
            piv_row = Binv[r] / d[r]
            Binv -= np.outer(d, piv_row)
            Binv[r] = piv_row
            basis[r] = j
        else:
            drop_rows.append(int(r))
    if drop_rows:
        keep = np.setdiff1d(np.arange(m), drop_rows)
        A = A[keep]
        b = b[keep]
        scale = scale[keep]
        flip = flip[keep]
        basis = basis[keep]
        m = keep.size
        Binv = np.linalg.inv(A[:, basis])
    engine.A = A
    engine.b = b
    engine.m = m

    status, basis, Binv, x_B = engine.run(c_std, basis, Binv)
    if status in ("pivot_limit", "unbounded"):
        return LpSolution(status, None, None, None, engine.pivots)

    x_std = np.zeros(n_std)
    x_std[basis] = np.maximum(x_B, 0.0)
    x = x_std[:n]
    y_scaled = c_std[basis] @ Binv
    y_rows = y_scaled * flip / scale
    # rows may have been dropped as redundant; report duals on surviving rows
    objective = float(problem.c @ x)

    res_eq = float(np.max(np.abs(problem.A_eq @ x - problem.b_eq), initial=0.0)) if m_eq else 0.0
    res_ub = float(np.max(problem.A_ub @ x - problem.b_ub, initial=0.0)) if m_ub else 0.0
    primal_residual = max(res_eq, max(res_ub, 0.0), float(np.max(-x, initial=0.0)))

    if y_rows.size == m_eq + m_ub:
        y_full = y_rows
    else:  # redundant equality rows dropped: they carry zero multipliers
        y_full = np.zeros(m_eq + m_ub)
        kept = np.setdiff1d(np.arange(m_eq + m_ub), drop_rows)
        y_full[kept] = y_rows
    dual_obj = float(problem.b_eq @ y_full[:m_eq] + problem.b_ub @ y_full[m_eq:])
    duality_gap = abs(objective - dual_obj)

    red = problem.c - problem.A_eq.T @ y_full[:m_eq] - \
        (problem.A_ub.T @ y_full[m_eq:] if m_ub else 0.0)
    comp = float(np.max(np.abs(red * x), initial=0.0))
    if m_ub:
        slack_ub = problem.b_ub - problem.A_ub @ x
        comp = max(comp, float(np.max(np.abs(slack_ub * y_full[m_eq:]), initial=0.0)))

    return LpSolution("optimal", x, y_full, objective, engine.pivots,
                      primal_residual, duality_gap, comp)


def loop_birth_death_tables(lam: float, mu: float, m: int, grid: int, cost_fns):
    """(offsets, points, rates, costs) of the birth-death preset, built one
    state-action pair at a time as make_birth_death did before its pair arrays."""
    a1_pts = np.linspace(-lam, lam, grid)
    a2_pts = np.linspace(-mu, mu, grid)
    offsets = np.zeros(m + 1, dtype=np.int64)
    points: list[tuple[float, float]] = []
    for i in range(m):
        acts = [(a1, 0.0) for a1 in a1_pts] if i == 0 else \
               [(a1, a2) for a1, a2 in itertools.product(a1_pts, a2_pts)]
        offsets[i + 1] = offsets[i] + len(acts)
        points.extend(acts)
    rates = np.zeros((len(points), m))
    for ka, (a1, a2) in enumerate(points):
        i = int(np.searchsorted(offsets, ka, side="right") - 1)
        if i == 0:
            birth = lam + a1
            rates[ka, 1] = birth
            rates[ka, 0] = -birth
        else:
            birth = lam * i + a1
            death = mu * i + a2
            rates[ka, i - 1] = death
            if i < m - 1:
                rates[ka, i + 1] = birth
                rates[ka, i] = -(birth + death)
            else:
                rates[ka, i] = -death
    costs = np.array([[fn(int(np.searchsorted(offsets, ka, side="right") - 1), a1, a2)
                       for ka, (a1, a2) in enumerate(points)] for fn in cost_fns])
    return offsets, np.array(points), rates, costs


def loop_model_to_dict(model: CtmdpModel) -> dict:
    """model_to_dict as it was, with one pair_index lookup per table entry."""
    acts = [[list(map(float, vec)) for vec in model.actions(i)] for i in range(model.n_states)]
    rates = [[list(map(float, model.rate_rows[model.pair_index(i, a)]))
              for a in range(model.n_actions(i))] for i in range(model.n_states)]
    costs = [[[float(model.costs[n, model.pair_index(i, a)])
               for a in range(model.n_actions(i))] for i in range(model.n_states)]
             for n in range(model.costs.shape[0])]
    doc = {
        "states": model.n_states,
        "actions_per_state": acts,
        "rates": rates,
        "costs": costs,
        "horizon": model.horizon,
        "constraint_bounds": list(map(float, model.constraint_bounds)),
        "initial_dist": list(map(float, model.initial_dist)),
        "weight": list(map(float, model.weight)),
    }
    if model.truncation_level is not None:
        doc["truncation_level"] = model.truncation_level
    return doc
