"""Property test: column generation reaches the dense simplex's status and
optimum on fuzzed small constrained models, feasible and infeasible."""

import dataclasses

import pytest

from ctmdp.lp_core import solve_lp
from ctmdp.occupation import build_constrained_lp, solve_constrained
from test_occupation import random_constrained

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# random_constrained's exit rates stay at or below 2 and its horizon is 1, so
# every grid of 4 or more steps is stable. Its bounds are the uniform policy's
# costs; shifted by -2 they lie below every cost reachable with costs in
# [-1, 1], which makes the instance infeasible.
@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n_constraints=st.sampled_from([1, 2]),
                  n_steps=st.integers(4, 12), shift=st.sampled_from([0.0, -2.0]))
def test_column_generation_matches_the_dense_simplex(seed, n_constraints, n_steps, shift):
    model, grid = random_constrained(seed, n_constraints, n_steps)
    model = dataclasses.replace(model, constraint_bounds=model.constraint_bounds + shift)
    ref = solve_lp(build_constrained_lp(model, grid))
    sol = solve_constrained(model, grid).solution
    assert sol.status == ref.status
    if ref.status == "optimal":
        assert abs(sol.objective - ref.objective) <= 1e-9 * (1.0 + abs(ref.objective))
