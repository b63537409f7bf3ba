"""The constraint's multiplier is the slope of the optimal value (LP
sensitivity), on the criterion-7 model under the Euler route at 500 cells.
The tolerances are derived in notes/decisions.md ("The shadow price as a
slope")."""

import numpy as np
import pytest

from ctmdp.dp import TimeGrid, solve_backward
from ctmdp.lp_core import FEAS_TOL
from ctmdp.model import make_birth_death
from ctmdp.occupation import (CG_TOL, _euler_forward_masses, lagrangian_dual,
                              solve_constrained)

GRID = TimeGrid(1.0, 500)
H = 1e-5


def criterion7(d):
    """Birth-death lambda=1, mu=2, m=2, grid 5; objective -i, constraint cost
    (a1 + lambda) / (2 lambda) <= d."""
    return make_birth_death(1.0, 2.0, m=2, grid=5,
                            cost_fns=[lambda i, a1, a2: -float(i),
                                      lambda i, a1, a2: (a1 + 1.0) / 2.0],
                            horizon=1.0, constraint_bounds=[d])


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
    pairs, held = _euler_forward_masses(model, GRID, policy.action_index[1:])
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
