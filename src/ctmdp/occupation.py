"""Occupation measures, the constrained LP, and its Lagrangian dual.

The time-state-action measure of a Markov policy is discretized to cell
masses y(k, i, a) >= 0 with unit total per time cell, so that expected costs
are dt * sum c y. Feasible measures of the constrained problem are exactly
the solutions of an LP whose flow rows are the explicit-Euler forward
equation of a discrete-time chain, so its optimum mixes at most N+1
deterministic Markov policies. Column generation finds them: a master LP
with N+1 rows mixes the policies found so far, and an Euler backward solve
prices the next. The master's duals maximize the concave Lagrangian dual,
whose value from that solve certifies the optimum. The assembled LP
(build_constrained_lp) is the reference the tests solve by dense simplex.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dp import (_AVERAGE_BLOCK, TimeGrid, ValueGrid, _action_text, _csv_blocks, _node_strings,
                 _played_rows, _plays, _stepper, _write_csv, scalarize_costs, solve_backward)
from .model import CtmdpModel, MarkovPolicy, _checked_index
from . import lp_core

MASS_EPS = 1e-12       # cells below this total mass disintegrate to uniform
_TIME_BINS = 4         # time bins per state among the default test tables


class OccupationGrid:
    """Nonnegative mass per (time cell, state-action pair), unit per cell.

    The continuous measure of a cell is mass * dt / T; expected costs over
    the full horizon are therefore dt * sum_k sum_ka c[ka] y[k, ka].
    OccupationGrid(grid, masses) holds the (n_cells, n_pairs) table it is
    given. A Markov policy's measure (occupation_of_policy) holds the state
    masses p(i, t_k) at each cell start beside the pairs each run of cells
    plays, or the kernel of a randomized policy; masses forms its table
    afresh on each access, and the readers form it a block of cells at a
    time (notes/decisions.md). Records compare by identity.
    """

    def __init__(self, grid: TimeGrid, masses: np.ndarray | None):
        self.grid, self._table = grid, masses
        self._held = self._pair_state = self._runs = self._kernel = None

    @classmethod
    def _of_policy(cls, grid: TimeGrid, held: np.ndarray, pair_state: np.ndarray,
                   runs: list | None, kernel: np.ndarray | None) -> OccupationGrid:
        """held[k] = p(., t_k); a deterministic policy's runs, [(range of cells,
        pair per state)], or a randomized policy's (n_cells, n_pairs) kernel."""
        eta = cls(grid, None)
        eta._held, eta._pair_state, eta._runs, eta._kernel = held, pair_state, runs, kernel
        return eta

    @property
    def n_cells(self) -> int:
        return len(self._held if self._table is None else self._table)

    @property
    def masses(self) -> np.ndarray:
        """The (n_cells, n_pairs) table; a policy's measure forms a new one."""
        if self._table is not None:
            return self._table
        y = np.empty((self.n_cells, len(self._pair_state)))
        for rows, block in self._cell_blocks():
            y[rows] = block
        return y

    def _cell_blocks(self):
        """(rows, masses) for blocks of at most _AVERAGE_BLOCK cells: views of
        a dense table, or, for a policy's measure, rows formed in one buffer
        that the next block overwrites. Row sums and reduceat keep their bits
        under this split (notes/decisions.md)."""
        if self._table is not None:
            for rows in _blocks(range(self.n_cells)):
                yield rows, self._table[rows]
            return
        buffer = np.empty((min(_AVERAGE_BLOCK, self.n_cells), len(self._pair_state)))
        if self._kernel is None:  # p(i) on state i's played pair, +0.0 elsewhere
            for cells, s in self._runs:
                for rows in _blocks(cells):
                    block = buffer[:rows.stop - rows.start]
                    block.fill(0.0)
                    block[:, s] = self._held[rows]
                    yield rows, block
            return
        for rows in _blocks(range(self.n_cells)):  # p(i) kernel(a | i) where played, +0.0 elsewhere
            block, kernel = buffer[:rows.stop - rows.start], self._kernel[rows]
            np.take(self._held[rows], self._pair_state, axis=1, out=block, mode="clip")
            block *= kernel
            block[kernel == 0.0] = 0.0
            yield rows, block

    def _rate_product(self, rate_rows: np.ndarray) -> np.ndarray:
        """masses @ rate_rows, or @ a cost column: one product of a dense
        table, whose bits a block of rows would not keep; a randomized
        policy's measure multiplies a block of cells at a time, and a
        deterministic one each cell's held row by the rows its run plays (its
        first RK4 stage's product, which runs on one BLAS thread)."""
        if self._table is not None:
            return self._table @ rate_rows
        out = np.empty((self.n_cells, rate_rows.shape[1]))
        if self._kernel is not None:
            for rows, block in self._cell_blocks():
                out[rows] = block @ rate_rows
            return out
        for cells, s in self._runs:
            Rs = None  # the last run's rows go before the next run's are gathered
            Rs = rate_rows.take(s, axis=0)
            for k in cells:
                np.dot(self._held[k], Rs, out[k])
        return out

    def _marginal_blocks(self, model: CtmdpModel):
        """(rows, the state marginal of those cells), a block of cells at a time."""
        for rows, block in self._cell_blocks():
            yield rows, np.add.reduceat(block, model.action_offsets[:-1], axis=1)

    def state_marginal(self, model: CtmdpModel) -> np.ndarray:
        out = np.empty((self.n_cells, model.n_states))
        for rows, marginal in self._marginal_blocks(model):
            out[rows] = marginal
        return out

    def expected_cost(self, model: CtmdpModel, cost_index: int) -> float:
        """dt * sum_k c . y(k): a first-order left-point sum in time, whatever
        integrated the masses; evaluate_policy scores continuous-time costs."""
        n = _checked_index(cost_index, model.costs.shape[0], "cost_index", "cost table")
        return float(self.grid.dt * np.sum(self._rate_product(model.costs[n][:, None])))

    def max_cell_norm_error(self) -> float:
        sums = np.empty(self.n_cells)
        for rows, block in self._cell_blocks():
            block.sum(axis=1, out=sums[rows])
        return float(np.max(np.abs(sums - 1.0)))

    def write_csv(self, model: CtmdpModel, path) -> None:
        """Rows (cell, t_k, state, action components, mass), cell-major."""
        heads = [f"{k},{t}" for k, t in enumerate(_node_strings(self.grid))]
        names, points = _action_text(model)
        pairs = [f",{i}{point}," for i, point in zip(model.pair_state.tolist(), points)]
        _write_csv(path, ["cell", "t", "state", *names, "mass"],
                   _csv_blocks(heads, pairs, "%.17g",
                               (row.tolist() for _, block in self._cell_blocks() for row in block)))


def _blocks(cells: range) -> list[slice]:
    """cells in slices of at most _AVERAGE_BLOCK."""
    return [slice(lo, min(lo + _AVERAGE_BLOCK, cells.stop))
            for lo in range(cells.start, cells.stop, _AVERAGE_BLOCK)]


def occupation_of_policy(model: CtmdpModel, grid: TimeGrid,
                         policy: MarkovPolicy) -> OccupationGrid:
    """Discretized occupation measure of a Markov policy.

    Integrates the forward equation p' = Qbar(t)^T p from the initial
    distribution with RK4 (kernel frozen per cell); the measure is
    y(k, i, a) = p(i, t_k) * kernel(a | i, t_k) on the pairs cell k plays, 0
    elsewhere, held as p at each cell start beside the played pairs and the
    kernel, without a (cells x pairs) table. Steps weight those pairs' rate
    rows, as evaluate_policy does; a deterministic policy's rows, one per
    state with weight 1, are its Qbar.
    """
    grid.check_stability(model)
    step = _stepper(model.n_states, grid.dt, "rk4")
    plays = _plays(model, policy, grid)
    firsts = [0, *(np.flatnonzero(plays.changes) + 1).tolist(), grid.n_steps]
    runs = [(range(lo, end), plays.played(lo).copy()) for lo, end in zip(firsts, firsts[1:])]
    kernel = plays.weights  # None for a deterministic policy
    del plays  # with the copies above, a deterministic policy's pair table goes before held
    if kernel is None:
        def f(v):
            return v @ Rs
    else:
        def f(v):  # Qbar^T v: the played pairs' rows weighted by v(i) kernel(a | i)
            return (v.take(st) * w) @ Rs

    p = model.initial_dist.astype(float)
    held = np.empty((grid.n_steps, model.n_states))
    for cells, s in runs:
        Rs = None  # the last run's rows go before the next run's are gathered
        _, _, st, Rs = _played_rows(model, s)
        for k in cells:
            held[k] = p
            if kernel is not None:
                w = kernel[k].take(s)
            step(f, p, p)
            np.maximum(p, 0.0, out=p)
            p /= p.sum()
    return OccupationGrid._of_policy(grid, held, model.pair_state,
                                     runs if kernel is None else None, kernel)


@np.errstate(over="ignore", invalid="ignore")  # a mass that is not finite scores NaN
def _residual_table(model: CtmdpModel, grid: TimeGrid, eta: OccupationGrid) -> np.ndarray:
    """W with <g, W> = L(g) - M(g) for every test table g (notes/decisions.md)."""
    if eta.grid != grid or eta.n_cells != grid.n_steps:
        raise ValueError("occupation grid does not match the time grid")
    dt = grid.dt
    W = np.cumsum(eta._rate_product(model.rate_rows), axis=0)
    W *= dt * dt
    for rows, marginal in eta._marginal_blocks(model):
        marginal *= dt
        W[rows] -= marginal
    W += dt * model.initial_dist
    return W


# OpenBLAS splits a ddot of more than 10 000 entries across threads, whose
# partial sums make the result depend on the thread count. A chunk of 8192 runs
# on one thread and holds whole the residual tables of the small CLI runs
# (800-2000 entries), whose digests record one whole-table vdot.
_DOT_CHUNK = 8192


def _table_dot(g: np.ndarray, W: np.ndarray) -> float:
    """<g, W>: np.vdot of consecutive _DOT_CHUNK-entry chunks, summed in order."""
    g, W = g.ravel(), W.ravel()
    total = 0.0
    for lo in range(0, W.size, _DOT_CHUNK):
        total += float(np.vdot(g[lo:lo + _DOT_CHUNK], W[lo:lo + _DOT_CHUNK]))
    return total


def _default_family_score(W: np.ndarray, weight: np.ndarray) -> float:
    """max |_table_dot(g, W)| over the tables of w and w**2 and the indicators of
    (state, time-bin) blocks; NaN if W is not finite. Every summation order of
    a block lies within 4 N eps sum|block| (N = W.size) of its reduceat sum, so
    only blocks whose bound exceeds the best lower bound are scored, each on
    one indicator table set and cleared in turn (notes/decisions.md)."""
    if not np.isfinite(W).all():
        return np.nan
    worst = max(abs(_table_dot(np.tile(w, (len(W), 1)), W)) for w in (weight, weight ** 2))
    edges = np.linspace(0, len(W), _TIME_BINS + 1).astype(int)
    starts, ends = edges[:-1], edges[1:]
    sums = np.abs(np.add.reduceat(W, starts, axis=0))
    slack = np.add.reduceat(np.abs(W), starts, axis=0) * (4 * W.size * np.finfo(float).eps)
    sums[starts == ends] = slack[starts == ends] = 0.0  # reduceat reads one row of an empty bin
    best = max(worst, float(np.max(sums - slack)))
    g = np.zeros(W.shape)
    for b, i in np.argwhere(sums + slack > best):
        g[starts[b]:ends[b], i] = 1.0
        worst = max(worst, abs(_table_dot(g, W)))
        g[starts[b]:ends[b], i] = 0.0
    return worst


def check_characterization(model: CtmdpModel, grid: TimeGrid, eta: OccupationGrid) -> float:
    """Max absolute residual of the occupation-measure balance identity.

    For each test table g(i, t) the generator side
    dt * sum_k sum_(i,a) [sum_j G(j,t_k) q(j|i,a)] y(k,i,a), with G the
    tail quadrature of g, must match the marginal side
    dt * sum_k sum_i g(i,t_k) ybar(k,i) - sum_i gamma(i) int g(i,.) dt.
    Measures produced by a consistent forward solve leave O(dt); measures
    that ignore the dynamics do not. The tables are the indicators of each
    state on each of 4 time bins, w and w**2; a mass that is not finite, or
    one that overflows, gives NaN. eta must be a measure on grid.
    """
    return _default_family_score(_residual_table(model, grid, eta), model.weight)


def uniform_occupation(model: CtmdpModel, grid: TimeGrid) -> OccupationGrid:
    """Dynamics-blind uniform mass over every pair: a deliberate counterexample."""
    y = np.full((grid.n_steps, model.n_pairs), 1.0 / model.n_pairs)
    return OccupationGrid(grid=grid, masses=y)


# -- constrained linear program ----------------------------------------------


def build_constrained_lp(model: CtmdpModel, grid: TimeGrid) -> lp_core.LpProblem:
    """Assemble the constrained problem as a dense equality-form LP.

    Variables: y(k, i, a) >= 0 cell-major, then one slack per constraint.
    Rows: initial marginal sum_a y(0,i,a) = gamma(i); flow rows
    sum_a y(k+1,j,a) = sum_a y(k,j,a) + dt sum_(i,a) q(j|i,a) y(k,i,a);
    cost rows dt * sum c_n y + x_n = d_n. Objective dt * sum c_0 y.
    solve_constrained reaches the same optimum without assembling this
    matrix; the assembled form is the reference it is tested against.
    """
    if model.n_constraints < 1:
        raise ValueError("constrained LP needs at least one constraint cost")
    grid.check_stability(model)
    n_cells = grid.n_steps
    n_pairs = model.n_pairs
    n_s = model.n_states
    N = model.n_constraints
    dt = grid.dt

    n_cols = n_cells * n_pairs + N
    n_rows = n_cells * n_s + N
    A = np.zeros((n_rows, n_cols))
    b = np.zeros(n_rows)

    # one-hot pair->state map and the one-step Euler kernel delta + dt q
    E = np.zeros((n_s, n_pairs))
    E[model.pair_state, np.arange(n_pairs)] = 1.0
    C = E + dt * model.rate_rows.T  # (n_s, n_pairs): nonneg under the stability cap

    A[:n_s, :n_pairs] = E
    b[:n_s] = model.initial_dist
    for k in range(n_cells - 1):
        rows = slice(n_s + k * n_s, n_s + (k + 1) * n_s)
        A[rows, k * n_pairs:(k + 1) * n_pairs] = -C
        A[rows, (k + 1) * n_pairs:(k + 2) * n_pairs] = E

    for n in range(N):
        r = n_cells * n_s + n
        A[r, :n_cells * n_pairs] = dt * np.tile(model.costs[n + 1], n_cells)
        A[r, n_cells * n_pairs + n] = 1.0
        b[r] = model.constraint_bounds[n]

    c = np.concatenate([dt * np.tile(model.costs[0], n_cells), np.zeros(N)])
    return lp_core.LpProblem(c=c, A_eq=A, b_eq=b)


def _euler_forward_masses(model: CtmdpModel, grid: TimeGrid, action_index: np.ndarray):
    """(pairs, held): a deterministic Markov policy's pair per (cell, state),
    cell k playing action_index[k], and the state masses it holds there under
    the LP's own Euler flow. Its mass table is held at pairs and 0 elsewhere;
    the LP's flow rows hold with equality."""
    pairs = model.action_offsets[:-1] + action_index  # (n_cells, n_states)
    changes = np.any(pairs[1:] != pairs[:-1], axis=1)
    step = _stepper(model.n_states, grid.dt, "euler")
    held = np.empty(pairs.shape)  # p at each cell's start; no step leaves the last cell
    held[0] = model.initial_dist
    rows, changes = list(held), changes.tolist()  # a list index is cheaper than an array's

    def f(v):  # v Q_k: the rows cell k plays, weighted by v
        return v.dot(Rk)

    for k in range(grid.n_steps - 1):
        if k == 0 or changes[k - 1]:
            Rk = None  # the last run's rows go before the next run's are gathered
            Rk = model.rate_rows[pairs[k]]
        step(f, rows[k], rows[k + 1])
    return pairs, held


# -- column generation over deterministic Markov policies ---------------------

CG_TOL = 1e-10    # stop once gamma.g_u(0) >= v - CG_TOL * (1 + |v|)
MAX_SOLVES = 400  # pricing (backward) solves per column-generation run


class _ColumnGeneration(NamedTuple):
    status: str                   # optimal, infeasible, budget_exhausted, pivot_limit
    masses: np.ndarray | None     # mixed masses of the last feasible master
    multipliers: np.ndarray       # u of the last master
    values: ValueGrid | None      # Euler value table of the last pricing solve
    samples: tuple                # (u, D(u), objective of the master that gave u)
    n_solves: int
    n_columns: int
    n_pivots: int


def _column_generation(model: CtmdpModel, grid: TimeGrid) -> _ColumnGeneration:
    """Dantzig-Wolfe solve of the constrained LP over deterministic Markov policies.

    The LP's feasible set is the convex hull of the Euler masses of such
    policies. Each round reads the convexity dual v and the multipliers u
    off the restricted master and prices one policy with an Euler backward
    solve, weights (1, u) in phase 2 and (0, u) in phase 1. Cell k plays the
    argmin recorded at node k + 1, the action of the Euler step from k + 1
    to k. The loop stops once gamma.g_u(0) >= v - tol: optimal within tol in
    phase 2, infeasible in phase 1. At most MAX_SOLVES pricing solves and
    lp_core.DEFAULT_PIVOT_CAP master pivots summed over rounds are spent.
    See notes/decisions.md.
    """
    if model.n_constraints < 1:
        raise ValueError("constrained LP needs at least one constraint cost")
    gamma, bounds = model.initial_dist, model.constraint_bounds
    u = np.zeros(model.n_constraints)
    v, theta, values, phase1 = None, None, None, False
    objective = np.inf  # of the master that produced u; no master yet
    columns, spent, samples, seen = [], [], [], set()  # (pairs, held); dt * costs . masses
    pivots = solves = 0
    status = "budget_exhausted"
    while solves < MAX_SOLVES:
        weights = np.concatenate([[0.0 if phase1 else 1.0], u])
        values, policy = solve_backward(model, grid, cost_weights=weights,
                                        integrator="euler")
        solves += 1
        price = float(gamma @ values.at_start())
        if not phase1:
            samples.append((tuple(map(float, u)), price - float(u @ bounds), objective))
        actions = policy.action_index[1:]
        if v is not None and (price >= v - CG_TOL * (1.0 + abs(v))
                              or actions.tobytes() in seen):
            status = "infeasible" if phase1 else "optimal"
            break
        seen.add(actions.tobytes())
        pairs, held = _euler_forward_masses(model, grid, actions)
        columns.append((pairs, held))
        spent.append(grid.dt * (model.costs @ np.bincount(pairs.ravel(), held.ravel(),
                                                           model.n_pairs)))

        # restricted master: convexity row plus one row per constraint; if the
        # columns cannot meet the bounds, phase 1 minimizes the summed violation
        table = np.array(spent).T
        K, N = table.shape[1], bounds.size
        for phase1 in (False, True):
            extra = N if phase1 else 0
            sol = lp_core.solve_lp(lp_core.LpProblem(
                c=np.concatenate([np.zeros(K), np.ones(N)]) if phase1 else table[0],
                A_eq=np.concatenate([np.ones(K), np.zeros(extra)])[None, :], b_eq=[1.0],
                A_ub=np.hstack([table[1:], -np.eye(N)[:, :extra]]), b_ub=bounds),
                pivot_cap=lp_core.DEFAULT_PIVOT_CAP - pivots)
            pivots += sol.n_pivots
            if sol.status != "infeasible":
                break
        if sol.status != "optimal":
            status = sol.status
            break
        v, u = float(sol.y[0]), np.maximum(-sol.y[1:], 0.0)
        if not phase1:
            objective, theta = sol.objective, sol.x
    masses = None
    if theta is not None:
        masses, cells = np.zeros((grid.n_steps, model.n_pairs)), np.arange(grid.n_steps)[:, None]
        for t, (pairs, held) in zip(theta, columns):
            if t > 0:
                masses[cells, pairs] += t * held
    return _ColumnGeneration(status, masses, u, values, tuple(samples),
                             solves, len(columns), pivots)


# Handoff of a column-generation run from solve_constrained to the next
# lagrangian_dual on the same problem: model -> (grid, run), at most one
# entry. Emptied by every lagrangian_dual, never read by solve_constrained;
# see notes/decisions.md.
_handoff = weakref.WeakKeyDictionary()


class ConstrainedResult(NamedTuple):
    solution: lp_core.LpSolution
    occupation: OccupationGrid | None
    policy: MarkovPolicy | None
    n_columns: int


def disintegrate(model: CtmdpModel, grid: TimeGrid, masses: np.ndarray) -> MarkovPolicy:
    """Conditional action kernel of a mass table; uniform off the support."""
    n_cells = masses.shape[0]
    marginal = np.add.reduceat(masses, model.action_offsets[:-1], axis=1)
    denom = marginal[:, model.pair_state]
    fallback = MarkovPolicy.uniform(model, n_cells).action_probs
    probs = np.where(denom > MASS_EPS, masses / np.where(denom > 0, denom, 1.0), fallback)
    probs = np.vstack([probs, probs[-1]])  # final node repeats the last cell
    # re-normalize exactly so the kernel invariant holds to float precision
    sums = np.add.reduceat(probs, model.action_offsets[:-1], axis=1)
    probs = probs / sums[:, model.pair_state]
    return MarkovPolicy.randomized(probs)


def _lp_solution(model: CtmdpModel, grid: TimeGrid, cg: _ColumnGeneration) -> lp_core.LpSolution:
    """The full LP's solution from a converged column generation, unassembled.

    x is the mixed masses plus slacks; y is the final Lagrangian's Euler value
    table on cells 0..n-1, then -u. Residuals come from the Euler flow
    recurrence and the reduced costs dt (c_0 + u.c) + (I + dt q) g(k+1) - g(k).
    """
    dt, R, u, y = grid.dt, model.rate_rows, cg.multipliers, cg.masses
    bounds = model.constraint_bounds
    spent = dt * (model.costs[1:] @ y.sum(axis=0))
    slack = np.maximum(bounds - spent, 0.0)
    x = np.concatenate([y.ravel(), slack])
    eta = OccupationGrid(grid, y)
    objective = eta.expected_cost(model, 0)

    marginal = eta.state_marginal(model)
    flow = marginal[:-1] + dt * (y[:-1] @ R)
    primal_residual = max(float(np.max(np.abs(marginal[0] - model.initial_dist))),
                          float(np.max(np.abs(marginal[1:] - flow), initial=0.0)),
                          float(np.max(np.abs(spent + slack - bounds))),
                          float(np.max(-x)))

    g = cg.values.values
    cbar = scalarize_costs(model, np.concatenate([[1.0], u]))
    reduced = dt * cbar + g[1:, model.pair_state] + dt * (g[1:] @ R.T) - g[:-1, model.pair_state]
    dual_objective = float(model.initial_dist @ g[0] - u @ bounds)
    complementarity = max(float(np.max(np.abs(reduced * y))), float(np.max(u * slack)))
    return lp_core.LpSolution(
        "optimal", x, np.concatenate([g[:-1].ravel(), -u]), objective, cg.n_pivots,
        primal_residual, abs(objective - dual_objective), complementarity)


def solve_constrained(model: CtmdpModel, grid: TimeGrid) -> ConstrainedResult:
    """Solve the constrained LP by column generation and disintegrate the optimum.

    The LpSolution is that of the full LP (build_constrained_lp), which is
    never assembled; its n_pivots sums the master pivots over rounds.
    Non-optimal statuses (infeasible, budget_exhausted, pivot_limit) are
    passed through with empty occupation and policy.

    The loop always runs here. The finished run, with its arrays made
    read-only, is left for the next lagrangian_dual on the same model object
    and grid, which certifies it without repeating the loop.
    """
    cg = _column_generation(model, grid)
    for arr in (cg.masses, cg.multipliers, None if cg.values is None else cg.values.values):
        if arr is not None:
            arr.flags.writeable = False
    _handoff.clear()
    _handoff[model] = (grid, cg)
    if cg.status != "optimal":
        sol = lp_core.LpSolution(cg.status, None, None, None, cg.n_pivots)
        return ConstrainedResult(sol, None, None, cg.n_columns)
    return ConstrainedResult(_lp_solution(model, grid, cg), OccupationGrid(grid, cg.masses),
                             disintegrate(model, grid, cg.masses), cg.n_columns)


# -- Lagrangian dual ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Outcome of the dual maximization, with the duality gap report.

    dual_value is D(u) = gamma.g_u(0) - u.d from an Euler pricing solve, the
    scheme the LP's flow rows encode, so weak duality against the LP optimum
    holds by construction and gap measures only the column-generation stop.
    dual_value_continuum re-evaluates the maximizer with the RK4 stepping;
    gap_continuum therefore carries the O(dt) discretization of the LP and
    shrinks under grid refinement. samples holds, per phase-2 pricing solve,
    (u, D(u), objective of the master that produced u; inf before the first).
    h_grid is the dual variable reconstructed from the scalarized solve: the
    per-state minimum over actions of T (cbar + R g) at every node.
    feasibility_min_slack is the least of those values minus h_grid, so it
    is exactly 0.0 and feasibility_ok holds for every finite input; neither
    can fail, so neither is a check of the dual (notes/decisions.md).
    """

    multipliers: np.ndarray
    dual_value: float
    dual_value_continuum: float
    primal_value: float | None
    gap: float | None
    gap_continuum: float | None
    samples: tuple
    h_grid: np.ndarray
    h_w2_norm: float
    feasibility_min_slack: float
    feasibility_ok: bool
    status: str
    n_solves: int

    def write_samples_csv(self, path) -> None:
        """One row per sample: iterate, u_1..u_N, D(u), master objective."""
        _write_csv(path, ["iterate", *(f"u{n}" for n in range(1, len(self.multipliers) + 1)),
                          "dual", "master_objective"],
                   (f"{t}" + "".join(f",{x:.17g}" for x in (*u, dual, master)) + "\r\n"
                    for t, (u, dual, master) in enumerate(self.samples)))


def lagrangian_dual(model: CtmdpModel, grid: TimeGrid,
                    primal_value: float | None = None) -> DualCertificate:
    """Maximize the concave dual over nonnegative multipliers.

    The multipliers are the column-generation master's duals, which maximize
    D once pricing finds no improving policy. The iterate with the largest
    D(u) is reported, with status "budget_exhausted" if MAX_SOLVES pricing
    solves ran out first. The primal value is the master's objective unless
    supplied by the caller.

    Right after solve_constrained on the same model object and grid, the run
    that call finished is taken over instead of repeated; the result is the
    same bit for bit, and n_solves counts the pricing solves of that run. Any
    other call runs the loop afresh.
    """
    left = _handoff.pop(model, None)
    _handoff.clear()
    cg = left[1] if left is not None and left[0] == grid else _column_generation(model, grid)
    if cg.status == "infeasible":
        raise RuntimeError("constrained LP is infeasible; no primal value to certify against")
    u_best, dual_value, _ = max(cg.samples, key=lambda s: s[1])
    u = np.array(u_best)
    if primal_value is None and cg.masses is not None:
        primal_value = OccupationGrid(grid, cg.masses).expected_cost(model, 0)

    weights = np.concatenate([[1.0], u])
    vg, _ = solve_backward(model, grid, cost_weights=weights, integrator="rk4")
    dual_continuum = float(model.initial_dist @ vg.at_start()
                           - u @ model.constraint_bounds)

    # reconstruct the dual variable from the scalarized solve; the slack of the
    # dual program's pointwise inequality is 0.0 at each node's argmin by construction
    cbar = scalarize_costs(model, weights)
    drift = vg.values @ model.rate_rows.T        # (n_nodes, n_pairs)
    vals = model.horizon * (cbar[None, :] + drift)
    h_grid = np.minimum.reduceat(vals, model.action_offsets[:-1], axis=1)  # T * min_a {...}
    slack = vals - h_grid[:, model.pair_state]
    w2 = model.weight ** 2
    min_slack = float(np.min(slack + 1e-6 * w2[model.pair_state]))  # >= 0: every point passes
    h_w2_norm = float(np.max(np.abs(h_grid) / w2[None, :]))

    return DualCertificate(
        multipliers=u,
        dual_value=dual_value,
        dual_value_continuum=dual_continuum,
        primal_value=primal_value,
        gap=None if primal_value is None else primal_value - dual_value,
        gap_continuum=None if primal_value is None else primal_value - dual_continuum,
        samples=cg.samples,
        h_grid=h_grid,
        h_w2_norm=h_w2_norm,
        feasibility_min_slack=float(np.min(slack)),
        feasibility_ok=min_slack >= 0.0,
        status="converged" if cg.status == "optimal" else cg.status,
        n_solves=cg.n_solves)
