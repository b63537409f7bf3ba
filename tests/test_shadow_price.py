"""The constraint's multiplier is the slope of the optimal value (LP
sensitivity), under the Euler route: on the criterion-7 model at 500 cells,
and for the sweep and two-bound tests also on its costs at m = 20 started at
state 5. The tolerances are derived in notes/decisions.md ("The shadow
price as a slope")."""

import numpy as np
import pytest

from ctmdp.dp import TimeGrid, _runs, solve_backward
from ctmdp.lp_core import FEAS_TOL
from ctmdp.model import make_birth_death
from ctmdp.occupation import CG_TOL, _forward, lagrangian_dual, solve_constrained

GRID = TimeGrid(1.0, 500)
H = 1e-5
SWEEP = [0.1 * j for j in range(1, 10)]
EPS = np.finfo(float).eps

# objective -i; birth effort (a1 + lambda) / (2 lambda) <= d1; and, with a
# second bound, service withheld (mu - a2) / (2 mu) <= d2 (lambda = 1, mu = 2)
COSTS = [lambda i, a1, a2: -float(i), lambda i, a1, a2: (a1 + 1.0) / 2.0,
         lambda i, a1, a2: (2.0 - a2) / 4.0]


def criterion7(d):
    """Birth-death lambda=1, mu=2, m=2, grid 5; objective -i, constraint cost
    (a1 + lambda) / (2 lambda) <= d."""
    return make_birth_death(1.0, 2.0, m=2, grid=5, cost_fns=COSTS[:2], horizon=1.0,
                            constraint_bounds=[d])


def case_model(case, bounds):
    """(model, grid): the criterion-7 model, or its costs on m = 20, grid 3,
    started at state 5, at the least stable step count (114 cells)."""
    if case == "criterion7":
        m, points, start, grid = 2, 5, None, GRID
    else:
        m, points, start, grid = 20, 3, np.eye(20)[5], TimeGrid(1.0, 114)
    return make_birth_death(1.0, 2.0, m=m, grid=points, cost_fns=COSTS[:1 + len(bounds)],
                            horizon=1.0, initial_dist=start,
                            constraint_bounds=list(bounds)), grid


def rounding(grid, value):
    """Rounding allowed on a reported primal or dual value: n Euler steps,
    each rounding every entry a few times (notes/decisions.md)."""
    return 8 * grid.n_steps * EPS * (1 + abs(value))


def run(model, grid):
    """(primal V, the certificate's multipliers u, its gap V - D(u), support
    of the mixed masses)."""
    res = solve_constrained(model, grid)
    assert res.solution.status == "optimal"
    cert = lagrangian_dual(model, grid)
    value = res.solution.objective
    return value, cert.multipliers, value - cert.dual_value, res.occupation.masses > 0


def solved(d):
    """(primal V, certificate, last master's u, support of the mixed masses)."""
    model = criterion7(d)
    res = solve_constrained(model, GRID)
    assert res.solution.status == "optimal"
    cert = lagrangian_dual(model, GRID)
    return res.solution.objective, cert, -res.solution.y[-1], res.occupation.masses > 0


@pytest.mark.parametrize("d", [0.1, 0.2, 0.3])
def test_central_difference_of_the_value_is_minus_the_multiplier(d):
    runs = {x: solved(x) for x in (d - H, d, d + H)}
    support = runs[d][3]
    assert all(np.array_equal(run[3], support) for run in runs.values())  # the same columns mix
    slope = (runs[d + H][0] - runs[d - H][0]) / (2 * H)
    tol = 0.0
    for x, (value, cert, u_last, _) in runs.items():
        # the last pricing solve ran at the last master's u, and the stop
        # certified D(u) >= V - CG_TOL (1 + |v|), v = V + u d the convexity dual
        assert cert.samples[-1][0] == (u_last,)
        v = value + u_last * x
        assert value - cert.samples[-1][1] <= CG_TOL * (1 + abs(v))
        assert cert.gap <= value - cert.samples[-1][1]
        tol = max(tol, CG_TOL * (1 + abs(v)) / (2 * H))
    _, cert, u_last, _ = runs[d]
    assert abs(slope + cert.multipliers[0]) <= tol
    assert abs(slope + u_last) <= tol


def test_slack_bound_has_a_zero_multiplier_and_the_unconstrained_value():
    model = criterion7(1.0)
    values, policy = solve_backward(model, GRID, integrator="euler")
    free = float(model.initial_dist @ values.at_start())
    pairs = model.action_offsets[:-1] + policy.action_index[1:]
    held = _forward(model, GRID, _runs(pairs, pairs.__getitem__), "euler")
    cost1 = float(GRID.dt * (model.costs[1] @ np.bincount(pairs.ravel(), held.ravel(),
                                                           model.n_pairs)))
    for d in (cost1, cost1 + 0.1, 1.0):
        value, cert, u_last, _ = solved(d)
        assert cert.multipliers[0] == u_last == 0.0
        assert abs(value - free) <= CG_TOL * (1 + abs(free))


def test_bound_below_the_least_constraint_cost_is_infeasible():
    # the master's phase 1 accepts a summed violation up to FEAS_TOL, so the
    # bounds sit 10 FEAS_TOL either side of the least cost
    model = criterion7(1.0)
    values, _ = solve_backward(model, GRID, cost_weights=np.array([0.0, 1.0]),
                               integrator="euler")
    least = float(model.initial_dist @ values.at_start())
    below = solve_constrained(criterion7(least - 10 * FEAS_TOL), GRID)
    above = solve_constrained(criterion7(least + 10 * FEAS_TOL), GRID)
    assert below.solution.status == "infeasible"
    assert above.solution.status == "optimal"


@pytest.mark.parametrize("case", ["criterion7", "m20_start5"])
def test_value_is_convex_and_the_multiplier_falls_over_a_sweep(case):
    grid = case_model(case, [0.5])[1]
    value, u, gap = (np.array(column) for column in
                     zip(*(run(*case_model(case, [d]))[:3] for d in SWEEP)))
    u, delta = u[:, 0], max(rounding(grid, v) for v in value)
    assert np.all(gap >= -2 * delta)  # weak duality
    assert value[-1] < value[0] and u[0] > 0  # the bound binds at the low end
    # V(d -+ step) >= D_d(u_d) +- u_d step for each neighbour, by weak duality
    assert np.all(value[:-2] - 2 * value[1:-1] + value[2:] >= -2 * gap[1:-1] - 8 * delta)
    assert np.all((u[1:] - u[:-1]) * 0.1 <= gap[:-1] + gap[1:] + 8 * delta)


@pytest.mark.parametrize("case, bounds", [("criterion7", (0.3, 0.6)), ("m20_start5", (0.2, 0.4))])
def test_partial_differences_of_the_value_are_minus_the_multipliers(case, bounds):
    model, grid = case_model(case, bounds)
    value, u, gap, support = run(model, grid)
    assert np.all(u > 0)  # both bounds bind
    assert gap >= -rounding(grid, value)  # weak duality, up to two summation orders
    for n, step in enumerate(H * np.eye(2)):
        up, down = (run(*case_model(case, np.add(bounds, sign * step))) for sign in (1, -1))
        assert np.array_equal(up[3], support) and np.array_equal(down[3], support)
        slope = (up[0] - down[0]) / (2 * H)
        delta = max(rounding(grid, x[0]) for x in (up, down))
        # the run at each end bounds the value at the other end by weak duality
        assert -down[1][n] - (down[2] + 4 * delta) / (2 * H) <= slope
        assert slope <= -up[1][n] + (up[2] + 4 * delta) / (2 * H)
        assert abs(slope + u[n]) <= (max(gap, up[2], down[2]) + 4 * delta) / (2 * H)
