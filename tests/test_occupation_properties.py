"""Property tests: column generation reaches the dense simplex's status and
optimum on fuzzed small constrained models, feasible and infeasible, and
check_characterization's block screen returns the full scan's float."""

import dataclasses

import numpy as np
import pytest

from ctmdp.dp import TimeGrid, solve_backward
from ctmdp.lp_core import solve_lp
from ctmdp.occupation import (OccupationGrid, _default_family_score, _residual_table,
                              build_constrained_lp, check_characterization, occupation_of_policy,
                              solve_constrained, uniform_occupation)
from oracles import full_scan_characterization, full_scan_score, random_instance
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


def mirrored(model):
    """Two unlinked copies of model, each started with half its mass, so that
    each state's blocks tie with its copy's."""
    n, n_pairs = model.n_states, model.n_pairs
    rates = np.zeros((2 * n_pairs, 2 * n))
    rates[:n_pairs, :n] = rates[n_pairs:, n:] = model.rate_rows
    return dataclasses.replace(
        model, n_states=2 * n, rate_rows=rates,
        action_offsets=np.concatenate([model.action_offsets, n_pairs + model.action_offsets[1:]]),
        action_points=np.vstack([model.action_points] * 2), costs=np.hstack([model.costs] * 2),
        initial_dist=np.tile(model.initial_dist / 2, 2), weight=np.tile(model.weight, 2))


# random_instance's exit rates stay at or below 2, so a horizon of at most
# n_steps / 4 keeps the grid stable; below 4 steps some time bins are empty.
@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 60),
                  measure=st.sampled_from(["optimal", "uniform", "zero"]), mirror=st.booleans())
def test_check_characterization_equals_the_full_scan(seed, n_steps, measure, mirror):
    model = random_instance(np.random.default_rng(seed), horizon=min(1.5, n_steps / 4))
    model = mirrored(model) if mirror else model
    grid = TimeGrid(model.horizon, n_steps)
    if measure == "optimal":
        eta = occupation_of_policy(model, grid, solve_backward(model, grid)[1])
    elif measure == "uniform":
        eta = uniform_occupation(model, grid)
    else:
        eta = OccupationGrid(grid, np.zeros((n_steps, model.n_pairs)))
    assert check_characterization(model, grid, eta) == full_scan_characterization(model, grid, eta)
    # the weight tables mostly carry the maximum; with weights 0 the blocks decide
    W, zero = _residual_table(model, grid, eta), np.zeros(model.n_states)
    assert _default_family_score(W, zero) == full_scan_score(W, zero)
