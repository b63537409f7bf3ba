"""Corner actions suffice when rates and costs are affine in the action.

On the birth-death preset an interior grid point's rate row and costs are a
convex combination of the corners'. So a minimum over actions is attained at
a corner, and neither the unconstrained value nor the constrained optimum
depends on a grid that holds the corners: every grid of G >= 2 points per
axis must give the 2-point grid's values, up to rounding. The grids share
their corners and q*, so one time grid serves them all.
"""

import numpy as np
import pytest

from ctmdp.dp import TimeGrid, solve_backward
from ctmdp.model import linear_cost, make_birth_death
from ctmdp.occupation import CG_TOL, lagrangian_dual, solve_constrained

SEEDS = range(6)


def affine_family(seed):
    """(make, costs, constrained) of one seed. make(G, cost_fns, **kw) builds
    the seeded preset, m in 3..8 and lam, mu in [0.5, 2], on a G-point grid;
    costs are two random affine costs with coefficients in [-1, 1]."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 9))
    lam, mu = rng.uniform(0.5, 2.0, 2)
    costs = [linear_cost(*rng.uniform(-1.0, 1.0, 4)) for _ in range(2)]

    def make(G, cost_fns, **kw):
        return make_birth_death(lam, mu, m, G, cost_fns=cost_fns, **kw)

    def constrained(G):
        """The first cost bounded by (a1 + lam) / (2 lam) <= 0.4, uniform start."""
        return make(G, [costs[0], linear_cost(0.5, 0.0, 0.5 / lam, 0.0)],
                    initial_dist=np.full(m, 1.0 / m), constraint_bounds=[0.4])

    return make, costs, constrained


def time_grid(model):
    return TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))


@pytest.mark.parametrize("seed", SEEDS)
def test_backward_values_do_not_depend_on_the_grid(seed):
    make, costs, _ = affine_family(seed)
    for n, cost in enumerate(costs):
        corners = make(2, [cost])
        grid = time_grid(corners)
        for integrator in ("rk4", "euler"):
            ref = solve_backward(corners, grid, integrator=integrator)[0].values
            tol = 1e-13 * max(1.0, float(np.max(np.abs(ref))))
            for G in range(3, 10):
                got = solve_backward(make(G, [cost]), grid, integrator=integrator)[0].values
                err = float(np.max(np.abs(got - ref)))
                assert err <= tol, f"G={G} {integrator} cost {n}: {err} > {tol}"


@pytest.mark.parametrize("seed", SEEDS)
def test_constrained_primal_and_dual_do_not_depend_on_the_grid(seed):
    _, _, constrained = affine_family(seed)
    corners = constrained(2)
    grid = time_grid(corners)
    sol = solve_constrained(corners, grid).solution
    assert sol.status == "optimal"
    primal, dual = sol.objective, lagrangian_dual(corners, grid).dual_value
    for G in (3, 5, 9):
        model = constrained(G)
        sol = solve_constrained(model, grid).solution
        assert sol.status == "optimal", G
        assert abs(sol.objective - primal) <= CG_TOL * (1.0 + abs(primal)), G
        got = lagrangian_dual(model, grid).dual_value
        assert abs(got - dual) <= CG_TOL * (1.0 + abs(dual)), G
