import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ctmdp import lp_core, occupation
from ctmdp.dp import TimeGrid, _runs, solve_backward
from ctmdp.lp_core import solve_lp
from ctmdp.model import CtmdpModel, MarkovPolicy, make_birth_death, model_from_dict
from ctmdp.occupation import (CG_TOL, OccupationGrid, build_constrained_lp, check_characterization,
                              disintegrate, lagrangian_dual, occupation_of_policy,
                              solve_constrained, uniform_occupation)
from ctmdp.sim import mc_value
from oracles import (_dual_value_fn, csv_writer_occupation_table, csv_writer_samples_table,
                     default_test_functions, dense_occupation_masses, dense_occupation_of_policy,
                     euler_forward_masses, euler_masses_of_kernel, expm_transient,
                     full_scan_characterization, full_scan_score, golden_dual_max,
                     pair_level_occupation_of_policy, random_instance, random_policy,
                     tail_characterization_scores)
from test_acceptance import slater_birth_death
from test_dp import (DETERMINISTIC_CASES, PLAYED_SET_CASES, REASSOCIATION_CASES, played_set_case,
                     reassociation_case, tiny_and_negative_model, traced_peak)
from test_scripts import cli_digest
from test_shadow_price import case_model


def two_state_chain(horizon=1.0):
    return CtmdpModel.from_tables(
        actions_per_state=[[0.0], [0.0]],
        rates=[[[-1.0, 1.0]], [[1.0, -1.0]]],
        costs=[[[0.0], [1.0]]],
        horizon=horizon, weight=[1.0, 2.0])


def one_state_mixing(d1=1.0):
    """One state, two actions: c0 = (1, 0), c1 = (0, 2), bound d1."""
    return CtmdpModel.from_tables(
        actions_per_state=[[0.0, 1.0]],
        rates=[[[0.0], [0.0]]],
        costs=[[[1.0, 0.0]], [[0.0, 2.0]]],
        horizon=1.0, constraint_bounds=[d1])


def random_constrained(seed, n_constraints, n_steps):
    """Seeded random instance bounded by the uniform policy's constraint costs,
    which makes it feasible; whether a bound binds depends on the seed."""
    rng = np.random.default_rng(seed)
    base = random_instance(rng, max_states=4, max_actions=3,
                           n_costs=n_constraints + 1, horizon=1.0)
    grid = TimeGrid(1.0, n_steps)
    kernel = MarkovPolicy.uniform(base, grid.n_nodes).kernel(base)
    y = euler_masses_of_kernel(base, grid.n_steps, kernel)
    bounds = grid.dt * (base.costs[1:] @ y.sum(axis=0))
    return dataclasses.replace(base, constraint_bounds=bounds), grid


# under seed 7 every bound binds, for one constraint and for two
CG_CASES = {
    "criterion7": lambda: (slater_birth_death(), TimeGrid(1.0, 250)),
    "random_n1": lambda: random_constrained(7, 1, 60),
    "random_n2": lambda: random_constrained(7, 2, 60),
}


def table_scores(model, grid, eta, tables):
    """The residual |<g, W>| of each test table g, summed as the library sums."""
    W = occupation._residual_table(model, grid, eta)
    return [abs(occupation._table_dot(g, W)) for g in tables]


def characterization_case(case):
    """(model, grid, measure): the criterion-7 LP optimum or the uniform
    policy's measure on birth-death m=60 at its minimum stable step count."""
    if case == "criterion7":
        model, grid = slater_birth_death(), TimeGrid(1.0, 500)
        return model, grid, solve_constrained(model, grid).occupation
    model = make_birth_death(1.0, 2.0, m=60, grid=3)
    grid = TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))
    return model, grid, occupation_of_policy(
        model, grid, MarkovPolicy.uniform(model, grid.n_nodes))


class TestOccupationOfPolicy:
    def test_single_state_is_all_mass(self):
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[1.0]]], horizon=1.0)
        grid = TimeGrid(1.0, 10)
        eta = occupation_of_policy(model, grid, MarkovPolicy.constant(model, 0, grid.n_nodes))
        assert np.allclose(eta.masses, 1.0)

    def test_two_state_transient_closed_form(self):
        model = two_state_chain()
        grid = TimeGrid(1.0, 1000)
        pol = MarkovPolicy.constant(model, 0, grid.n_nodes)
        eta = occupation_of_policy(model, grid, pol)
        marginal = eta.state_marginal(model)
        exact = (1.0 - np.exp(-2.0 * grid.nodes[:-1])) / 2.0
        assert np.abs(marginal[:, 1] - exact).max() < 1e-6
        # independent matrix-exponential check at a few nodes
        Q = np.array([[-1.0, 1.0], [1.0, -1.0]])
        for k in (0, 250, 999):
            p = expm_transient(Q, model.initial_dist, grid.nodes[k])
            assert np.abs(marginal[k] - p).max() < 1e-6

    def test_cells_stay_normalized(self):
        rng = np.random.default_rng(8)
        model = random_instance(rng, max_states=5, max_actions=3)
        grid = TimeGrid(model.horizon, 150)
        pol = random_policy(rng, model, grid.n_nodes, randomized=True)
        eta = occupation_of_policy(model, grid, pol)
        assert eta.max_cell_norm_error() < 1e-9
        assert np.all(eta.masses >= 0.0)

    def test_expected_cost_matches_monte_carlo(self):
        rng = np.random.default_rng(15)
        for _ in range(3):
            model = random_instance(rng, max_states=4, max_actions=3, horizon=1.0)
            grid = TimeGrid(model.horizon, 400)
            pol = random_policy(rng, model, grid.n_nodes, randomized=True)
            eta = occupation_of_policy(model, grid, pol)
            i0 = int(np.argmax(model.initial_dist))
            delta = np.zeros(model.n_states)
            delta[i0] = 1.0
            pinned = CtmdpModel.from_tables(
                [list(map(tuple, model.actions(i))) for i in range(model.n_states)],
                [[model.rate_rows[model.pair_index(i, a)]
                  for a in range(model.n_actions(i))] for i in range(model.n_states)],
                [[[model.cost(0, i, a) for a in range(model.n_actions(i))]
                  for i in range(model.n_states)]],
                horizon=model.horizon, initial_dist=delta, weight=model.weight)
            eta_pinned = occupation_of_policy(pinned, grid, pol)
            est = mc_value(pinned, pol, i0, 0, 30_000, seed=77)
            assert abs(eta_pinned.expected_cost(pinned, 0) - est.mean) \
                <= 4.0 * est.se + 5e-3

    @pytest.mark.parametrize("case", REASSOCIATION_CASES)
    def test_matches_the_dense_generator_oracle(self, case):
        model, grid, policy = reassociation_case(case)
        got = occupation_of_policy(model, grid, policy).masses
        assert np.max(np.abs(got - dense_occupation_masses(model, grid, policy))) <= 1e-13

    @pytest.mark.parametrize("case", PLAYED_SET_CASES)
    def test_matches_the_pair_level_oracle(self, case):
        model, grid, policy = played_set_case(case)
        got = occupation_of_policy(model, grid, policy).masses
        want = pair_level_occupation_of_policy(model, grid, policy).masses
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("case", PLAYED_SET_CASES)
    def test_matches_the_dense_table_oracle(self, case):
        # the state masses rebuild the table bit for bit; the row-wise readers
        # keep their bits under the cell blocks, for a dense table too, while
        # the rate product of the played rows moves the residual by rounding
        model, grid, policy = played_set_case(case)
        eta = occupation_of_policy(model, grid, policy)
        want = dense_occupation_of_policy(model, grid, policy).masses
        dense = OccupationGrid(grid, want)
        assert np.array_equal(eta.masses, want)
        assert np.array_equal(np.signbit(eta.masses), np.signbit(want))
        marginal = np.add.reduceat(want, model.action_offsets[:-1], axis=1)
        assert np.array_equal(dense.state_marginal(model), marginal)
        assert np.array_equal(eta.state_marginal(model), marginal)
        norm_error = float(np.max(np.abs(want.sum(axis=1) - 1.0)))
        assert eta.max_cell_norm_error() == dense.max_cell_norm_error() == norm_error
        residual = check_characterization(model, grid, dense)
        assert abs(check_characterization(model, grid, eta) - residual) <= \
            1e-12 * max(1.0, abs(residual))
        for n in range(model.costs.shape[0]):
            cost = dense.expected_cost(model, n)
            assert abs(eta.expected_cost(model, n) - cost) <= 1e-12 * abs(cost)

    @pytest.mark.parametrize("case", DETERMINISTIC_CASES)
    def test_deterministic_masses_have_the_one_hot_bits(self, case):
        model, grid, policy = played_set_case(case)
        assert policy.kind == "deterministic"
        got = occupation_of_policy(model, grid, policy).masses
        want = occupation_of_policy(model, grid,
                                    MarkovPolicy.randomized(policy.kernel(model))).masses
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_holds_one_run_of_rows_at_a_time(self):
        # a run's rows are (states x states), more than the pair-length
        # vectors the pair-level loop holds, so the bound allows one run
        model, grid, policy = played_set_case("birth_death60_alternating")
        run_bytes = model.n_states * model.n_states * 8
        peak = traced_peak(occupation_of_policy, model, grid, policy)
        pair_level = traced_peak(pair_level_occupation_of_policy, model, grid, policy)
        assert peak - pair_level < 1.5 * run_bytes, \
            f"peak {peak} B, pair-level oracle {pair_level} B, one run's rows {run_bytes} B"

    def test_deterministic_policy_peak_stays_near_its_output(self):
        # the measure holds (cells x states) masses beside the played pairs, about
        # a sixth of one (cells x pairs) table; the bound is 1.25 such tables
        model, grid, policy = played_set_case("birth_death60_optimal")
        table_bytes = grid.n_steps * model.n_pairs * 8
        peak = traced_peak(occupation_of_policy, model, grid, policy)
        assert peak < 1.25 * table_bytes, \
            f"peak {peak} B, one (cells x pairs) table {table_bytes} B"

    def test_truncation_route_holds_under_half_a_cell_by_pair_table(self):
        # the measure holds state masses, and its readers form a block of
        # cells at a time, so the route never holds a (cells x pairs) table
        model, grid, policy = played_set_case("birth_death60_optimal")

        def route():
            eta = occupation_of_policy(model, grid, policy)
            check_characterization(model, grid, eta)
            eta.max_cell_norm_error()

        bound = grid.n_steps * model.n_pairs * 8 // 2
        peak = traced_peak(route)
        assert peak < bound, f"peak {peak} B, half a (cells x pairs) table {bound} B"

    @pytest.mark.parametrize("policy", ["optimal", "uniform"])
    def test_expected_cost_holds_under_half_a_cell_by_pair_table(self, policy):
        # one float from the rate product of a cost column, not from the table
        model, grid, played = played_set_case("birth_death60_optimal")
        if policy == "uniform":
            played = MarkovPolicy.uniform(model, grid.n_nodes)
        eta = occupation_of_policy(model, grid, played)
        bound = grid.n_steps * model.n_pairs * 8 // 2
        peak = traced_peak(eta.expected_cost, model, 0)
        assert peak < bound, f"peak {peak} B, half a (cells x pairs) table {bound} B"

    @pytest.mark.parametrize("case", [c for c in PLAYED_SET_CASES
                                      if c.startswith("birth_death") or c.endswith("deterministic")])
    def test_euler_masses_match_the_mean_generator_oracle(self, case):
        model, grid, policy = played_set_case(case)
        actions = policy.action_index[:grid.n_steps]
        pairs = model.action_offsets[:-1] + actions
        held = occupation._forward(model, grid, _runs(pairs, pairs.__getitem__), "euler")
        got = np.zeros((grid.n_steps, model.n_pairs))
        np.put_along_axis(got, pairs, held, axis=1)
        kernel = MarkovPolicy.deterministic(actions).kernel(model)
        assert np.max(np.abs(got - euler_masses_of_kernel(model, grid.n_steps, kernel))) <= 1e-13

    @pytest.mark.parametrize("case", DETERMINISTIC_CASES)
    def test_euler_masses_have_the_replaced_loop_bits(self, case):
        model, grid, policy = played_set_case(case)
        actions = policy.action_index[:grid.n_steps]
        pairs = model.action_offsets[:-1] + actions
        got = occupation._forward(model, grid, _runs(pairs, pairs.__getitem__), "euler")
        want_pairs, want = euler_forward_masses(model, grid, actions)
        assert np.array_equal(pairs, want_pairs)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("case", ["criterion7", "m60_start5"])
    def test_every_lp_column_has_the_replaced_loop_bits(self, monkeypatch, case):
        # each column's actions are read off the pricing solve that found it,
        # so the oracle finds the runs of its pairs on its own
        if case == "criterion7":
            model, grid = slater_birth_death(), TimeGrid(1.0, 500)
        else:
            model, grid = model_from_dict(cli_digest.CRITERION7_M60_START5)[0], TimeGrid(1.0, 400)
        priced, held, loop = [], [], occupation._forward

        def pricing(*args, **kwargs):
            values, policy = solve_backward(*args, **kwargs)
            priced.append(policy.action_index[1:])
            return values, policy

        def forward(*args):
            held.append(loop(*args))
            return held[-1]

        monkeypatch.setattr(occupation, "solve_backward", pricing)
        monkeypatch.setattr(occupation, "_forward", forward)
        result = solve_constrained(model, grid)
        assert result.solution.status == "optimal"
        assert len(held) == result.n_columns > 1
        for actions, got in zip(priced, held):
            _, want = euler_forward_masses(model, grid, actions)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCharacterization:
    def test_occupation_grid_of_another_grid_rejected(self):
        model = two_state_chain()
        eta = uniform_occupation(model, TimeGrid(1.0, 10))
        with pytest.raises(ValueError, match="occupation grid does not match the time grid"):
            check_characterization(model, TimeGrid(1.0, 20), eta)
        # the same cell count on twice the horizon was scored with twice the step
        with pytest.raises(ValueError, match="occupation grid does not match the time grid"):
            check_characterization(model, TimeGrid(2.0, 10), eta)

    @pytest.mark.parametrize("case", REASSOCIATION_CASES)
    def test_matches_the_tail_quadrature_oracle(self, case):
        model, grid, policy = reassociation_case(case)
        rng = np.random.default_rng(11)
        shape = (grid.n_steps, model.n_states)
        tables = [rng.normal(size=shape), rng.uniform(-1.0, 1.0, size=shape) ** 3,
                  np.outer(np.linspace(1.0, 0.0, grid.n_steps), model.weight)]
        for eta in (occupation_of_policy(model, grid, policy), uniform_occupation(model, grid)):
            maxima = []
            for tests in (default_test_functions(model, grid), tables):
                got = table_scores(model, grid, eta, tests)
                want = tail_characterization_scores(model, grid, eta.masses, tests)
                assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * max(want)
                maxima.append(max(got))
            assert check_characterization(model, grid, eta) == maxima[0]

    def test_constant_test_function_balances_exactly(self):
        model = two_state_chain()
        grid = TimeGrid(1.0, 200)
        eta = occupation_of_policy(model, grid, MarkovPolicy.constant(model, 0, grid.n_nodes))
        const = np.full((grid.n_steps, model.n_states), 3.7)
        assert table_scores(model, grid, eta, [const])[0] < 1e-12

    def test_weight_test_function_residual_small(self):
        model = two_state_chain()
        grid = TimeGrid(1.0, 1000)
        eta = occupation_of_policy(model, grid, MarkovPolicy.constant(model, 0, grid.n_nodes))
        w_table = np.tile(model.weight, (grid.n_steps, 1))
        assert table_scores(model, grid, eta, [w_table])[0] < 1e-3

    def test_residual_halves_under_refinement(self):
        model = two_state_chain()
        residuals = {}
        for n in (1000, 2000):
            grid = TimeGrid(1.0, n)
            eta = occupation_of_policy(model, grid,
                                       MarkovPolicy.constant(model, 0, grid.n_nodes))
            residuals[n] = check_characterization(model, grid, eta)
        assert residuals[2000] <= 0.6 * residuals[1000]

    def test_adversarial_uniform_measure_is_flagged(self):
        model = two_state_chain()
        grid = TimeGrid(1.0, 1000)
        eta = occupation_of_policy(model, grid, MarkovPolicy.constant(model, 0, grid.n_nodes))
        compliant = check_characterization(model, grid, eta)
        adversarial = check_characterization(model, grid, uniform_occupation(model, grid))
        assert adversarial > 0.05
        assert adversarial > 10.0 * compliant

    def test_lp_measure_residual_shrinks_with_dt(self):
        lam, mu = 1.0, 2.0
        model = make_birth_death(lam, mu, m=2, grid=3,
                                 cost_fns=[lambda i, a1, a2: -float(i),
                                           lambda i, a1, a2: (a1 + lam) / (2 * lam)],
                                 constraint_bounds=[0.3])
        residuals = {}
        for n in (100, 200):
            grid = TimeGrid(1.0, n)
            res = solve_constrained(model, grid)
            assert res.solution.status == "optimal"
            residuals[n] = check_characterization(model, grid, res.occupation)
        assert residuals[100] <= 5.0 * (1.0 / 100)  # residual <= C dt, C ~ O(1)
        assert residuals[200] <= 0.8 * residuals[100]

    @pytest.mark.parametrize("case", ["criterion7", "birth_death_m60"])
    def test_default_family_equals_the_full_scan(self, case):
        # the screen returns the full scan's float, and the full scan's one
        # buffer, set and cleared, scores as fresh tables do
        model, grid, eta = characterization_case(case)
        fresh = max(table_scores(model, grid, eta, default_test_functions(model, grid)))
        assert check_characterization(model, grid, eta) == \
            full_scan_characterization(model, grid, eta) == fresh

    @pytest.mark.parametrize("bad, mass", [("all", np.nan), ("one", np.nan),
                                           ("one", math.inf), ("one", 1e308)],
                             ids=["all", "one", "inf", "overflow"])
    def test_nan_measure_scores_nan(self, bad, mass):
        # max() over the scores dropped NaN: an all-NaN grid scored 0.0 and
        # one NaN mass left a finite residual; inf times a zero rate and 1e308
        # times a rate raised numpy's RuntimeWarning, an error under the
        # warnings filter
        model = make_birth_death(1.0, 2.0, m=4, grid=2)
        grid = TimeGrid(1.0, 40)
        masses = uniform_occupation(model, grid).masses
        if bad == "all":
            masses[:] = mass
        else:
            masses[17, 3] = mass
        assert math.isnan(check_characterization(model, grid, OccupationGrid(grid, masses)))

    def test_screen_keeps_every_block_vdot_may_rank_first(self):
        # entries of +-1e16 swamp 1, 3, -2 and 0.5, so a block's sum in row
        # order and its vdot differ by units; on some tables the block that
        # row order ranks first is not the maximum, and only the slack keeps
        # the block that is. Weights 0 leave the blocks alone to decide.
        rng = np.random.default_rng(2024)
        values = np.array([1e16, -1e16, 1.0, 3.0, -2.0, 0.5])
        zero = np.zeros(2)
        reranked = 0
        for _ in range(2000):
            W = rng.choice(values, size=(16, 2))
            want = full_scan_score(W, zero)
            assert occupation._default_family_score(W, zero) == want
            first = np.unravel_index(np.argmax(np.abs(np.add.reduceat(W, [0, 4, 8, 12]))), (4, 2))
            g = np.zeros(W.shape)
            g[4 * first[0]:4 * first[0] + 4, first[1]] = 1.0
            reranked += abs(float(np.vdot(g, W))) != want
        assert reranked > 0

    def test_two_candidates_in_one_state_are_scored_apart(self):
        # time bins 1 and 2 of state 1 tie at the maximum; an indicator left
        # set would score the second as the sum of both blocks
        W = np.zeros((8, 3))
        W[2:6, 1] = 1.5
        assert occupation._default_family_score(W, np.zeros(3)) == \
            full_scan_score(W, np.zeros(3)) == 3.0

    def test_default_family_peak_memory_stays_under_four_tables(self):
        model, grid, eta = characterization_case("birth_death_m60")
        table_bytes = grid.n_steps * model.n_states * 8
        tracemalloc.start()
        try:
            check_characterization(model, grid, eta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * table_bytes, f"peak {peak} B, one table {table_bytes} B"

    def test_default_family_covers_states_and_weights(self):
        model = two_state_chain()
        grid = TimeGrid(1.0, 40)
        fams = default_test_functions(model, grid)
        assert len(fams) == 4 * model.n_states + 2


class TestConstrainedLp:
    def test_lp_without_a_constraint_rejected(self):
        with pytest.raises(ValueError, match="needs at least one constraint cost"):
            build_constrained_lp(two_state_chain(), TimeGrid(1.0, 10))

    @pytest.mark.parametrize("cost_index", [-1, 2])
    def test_expected_cost_index_out_of_range(self, cost_index):
        model = one_state_mixing(d1=1.0)
        eta = uniform_occupation(model, TimeGrid(1.0, 8))
        assert eta.expected_cost(model, 1) == pytest.approx(1.0)
        with pytest.raises(ValueError,
                           match=f"cost_index {cost_index} is not a cost table index in 0..1"):
            eta.expected_cost(model, cost_index)

    def test_one_state_mixing_optimum(self):
        # brute force over the mixing probability p of the free action:
        # constraint 2p <= 1 forces p <= 1/2, objective 1 - p is minimal at 1/2
        model = one_state_mixing(d1=1.0)
        grid = TimeGrid(1.0, 64)
        res = solve_constrained(model, grid)
        assert res.solution.status == "optimal"
        assert res.solution.objective == pytest.approx(0.5, abs=1e-9)
        assert res.occupation.expected_cost(model, 1) == pytest.approx(1.0, abs=1e-9)
        # aggregate action mixture is the brute-force mix (1/2, 1/2); the
        # simplex returns an optimal switching vertex with that aggregate
        mix = res.occupation.masses.mean(axis=0)
        assert np.allclose(mix, [0.5, 0.5], atol=1e-9)

    def test_slack_bound_recovers_unconstrained_value(self):
        model = make_birth_death(1.0, 2.0, m=3, grid=3,
                                 cost_fns=[lambda i, a1, a2: float(i),
                                           lambda i, a1, a2: (a1 + 1.0) / 2.0],
                                 constraint_bounds=[100.0])
        grid = TimeGrid(1.0, 120)
        res = solve_constrained(model, grid)
        euler, _ = solve_backward(model, grid, integrator="euler")
        rk4, _ = solve_backward(model, grid)
        assert res.solution.status == "optimal"
        discrete = float(model.initial_dist @ euler.at_start())
        assert res.solution.objective == pytest.approx(discrete, abs=1e-8)
        assert res.solution.objective == pytest.approx(
            float(model.initial_dist @ rk4.at_start()), abs=5e-3)

    def test_unattainable_bound_is_infeasible(self):
        model = one_state_mixing(d1=-0.1)  # c1 >= 0, so d1 < 0 empties the set
        res = solve_constrained(model, TimeGrid(1.0, 16))
        assert res.solution.status == "infeasible"
        assert res.occupation is None and res.policy is None

    def test_zero_objective_cost(self):
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0, 1.0]],
            rates=[[[0.0], [0.0]]],
            costs=[[[0.0, 0.0]], [[0.0, 2.0]]],
            horizon=1.0, constraint_bounds=[1.0])
        res = solve_constrained(model, TimeGrid(1.0, 16))
        assert res.solution.objective == pytest.approx(0.0, abs=1e-12)

    def test_flow_rows_encode_euler_propagation(self):
        rng = np.random.default_rng(4)
        model = random_instance(rng, max_states=4, max_actions=2, n_costs=2,
                                horizon=1.0)
        grid = TimeGrid(1.0, 30)
        problem = build_constrained_lp(model, grid)
        kernel = random_policy(rng, model, grid.n_nodes, randomized=True).kernel(model)
        y = euler_masses_of_kernel(model, grid.n_steps, kernel)
        slack = model.constraint_bounds[0] - grid.dt * float((y * model.costs[1]).sum())
        x = np.concatenate([y.ravel(), [slack]])
        assert np.abs(problem.A_eq @ x - problem.b_eq).max() < 1e-10

    def test_feasible_set_is_convex(self):
        model = one_state_mixing(d1=1.5)
        grid = TimeGrid(1.0, 12)
        problem = build_constrained_lp(model, grid)
        pol_a = MarkovPolicy.constant(model, 0, grid.n_nodes).kernel(model)
        pol_b = MarkovPolicy.uniform(model, grid.n_nodes).kernel(model)
        points = []
        for kernel in (pol_a, pol_b):
            y = euler_masses_of_kernel(model, grid.n_steps, kernel)
            slack = 1.5 - grid.dt * float((y * model.costs[1]).sum())
            assert slack >= 0
            points.append(np.concatenate([y.ravel(), [slack]]))
        for lam in (0.0, 0.3, 0.7, 1.0):
            z = lam * points[0] + (1 - lam) * points[1]
            assert np.abs(problem.A_eq @ z - problem.b_eq).max() < 1e-12
            assert np.all(z >= 0)


class TestDisintegration:
    def test_kernel_reproduces_the_lp_point_exactly(self):
        model = one_state_mixing(d1=1.0)
        grid = TimeGrid(1.0, 48)
        res = solve_constrained(model, grid)
        kernel = res.policy.kernel(model)
        y = euler_masses_of_kernel(model, grid.n_steps, kernel)
        assert np.abs(y - res.occupation.masses).max() < 1e-9
        for n in range(model.costs.shape[0]):
            lp_cost = res.occupation.expected_cost(model, n)
            re_cost = grid.dt * float((y * model.costs[n]).sum())
            assert re_cost == pytest.approx(lp_cost, abs=1e-9)

    def test_markov_kernel_reproduces_constraint_costs_on_birth_death(self):
        lam, mu = 1.0, 2.0
        model = make_birth_death(lam, mu, m=3, grid=3,
                                 cost_fns=[lambda i, a1, a2: -float(i),
                                           lambda i, a1, a2: (a1 + lam) / (2 * lam)],
                                 constraint_bounds=[0.3])
        grid = TimeGrid(1.0, 100)
        res = solve_constrained(model, grid)
        assert res.solution.status == "optimal"
        kernel = res.policy.kernel(model)
        y = euler_masses_of_kernel(model, grid.n_steps, kernel)
        for n in range(2):
            assert grid.dt * float((y * model.costs[n]).sum()) == pytest.approx(
                res.occupation.expected_cost(model, n), abs=1e-8)

    def test_rk4_reevaluation_matches_lp_objective_to_first_order(self):
        model = one_state_mixing(d1=1.0)
        grid = TimeGrid(1.0, 200)
        res = solve_constrained(model, grid)
        eta = occupation_of_policy(model, grid, res.policy)
        assert eta.expected_cost(model, 0) == pytest.approx(
            res.solution.objective, abs=2e-2)

    def test_uniform_off_support(self):
        masses = np.zeros((2, 2))
        masses[:, 0] = 1.0  # all mass on action 0, none on action 1's state? one state
        model = one_state_mixing()
        pol = disintegrate(model, TimeGrid(1.0, 2), masses)
        assert np.allclose(pol.action_probs[:2], [[1.0, 0.0], [1.0, 0.0]])
        empty = disintegrate(model, TimeGrid(1.0, 2), np.zeros((2, 2)))
        assert np.allclose(empty.action_probs, 0.5)

    def test_concentrates_on_the_dp_argmin_when_unconstrained(self):
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0, 1.0], [0.0]],
            rates=[[[-1.0, 1.0], [-1.0, 1.0]], [[1.0, -1.0]]],
            costs=[[[1.0, 0.3], [0.0]], [[0.0, 0.0], [0.0]]],
            horizon=1.0, constraint_bounds=[10.0])
        grid = TimeGrid(1.0, 60)
        res = solve_constrained(model, grid)
        _, policy = solve_backward(model, grid)
        kernel = res.policy.kernel(model)
        marginal = res.occupation.state_marginal(model)
        agree = 0.0
        total = 0.0
        for k in range(grid.n_steps):
            for i in range(model.n_states):
                best = model.pair_index(i, int(policy.action_index[k, i]))
                mass = marginal[k, i]
                total += mass
                if kernel[k, best] > 0.99:
                    agree += mass
        assert agree / total >= 0.99


class TestLagrangianDual:
    def test_one_state_golden_section(self):
        # D(u) = min(1, 2u) - u peaks at u = 1/2 with value 1/2
        model = one_state_mixing(d1=1.0)
        grid = TimeGrid(1.0, 64)
        cert = lagrangian_dual(model, grid)
        assert cert.multipliers[0] == pytest.approx(0.5, abs=1e-6)
        assert cert.dual_value == pytest.approx(0.5, abs=1e-9)
        assert cert.primal_value == pytest.approx(0.5, abs=1e-9)
        assert abs(cert.gap) <= 1e-6
        assert cert.status == "converged"
        assert cert.feasibility_ok

    def test_slack_constraints_zero_multiplier(self):
        model = make_birth_death(1.0, 2.0, m=3, grid=3,
                                 cost_fns=[lambda i, a1, a2: float(i),
                                           lambda i, a1, a2: (a1 + 1.0) / 2.0],
                                 constraint_bounds=[50.0])
        grid = TimeGrid(1.0, 100)
        cert = lagrangian_dual(model, grid)
        assert np.all(cert.multipliers == 0.0)
        euler, _ = solve_backward(model, grid, integrator="euler")
        assert cert.dual_value == pytest.approx(
            float(model.initial_dist @ euler.at_start()), abs=1e-12)
        rk4, _ = solve_backward(model, grid)
        assert cert.dual_value_continuum == pytest.approx(
            float(model.initial_dist @ rk4.at_start()), abs=1e-12)

    def test_lp_certificates_on_the_occupation_program(self):
        lam, mu = 1.0, 2.0
        model = make_birth_death(lam, mu, m=2, grid=3,
                                 cost_fns=[lambda i, a1, a2: -float(i),
                                           lambda i, a1, a2: (a1 + lam) / (2 * lam)],
                                 constraint_bounds=[0.3])
        res = solve_constrained(model, TimeGrid(1.0, 150))
        sol = res.solution
        assert sol.primal_residual <= 1e-7
        assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective))
        assert sol.complementarity <= 1e-7

    def test_primal_dual_agreement_on_a_random_instance(self):
        rng = np.random.default_rng(618)
        base = random_instance(rng, max_states=3, max_actions=2, n_costs=2,
                               horizon=1.0)
        grid = TimeGrid(1.0, 120)
        # pull the bound between the cheapest achievable constraint cost and
        # a loose level so the constraint is feasible and plausibly active
        floor_vg, _ = solve_backward(base, grid, cost_weights=[0.0, 1.0],
                                     integrator="euler")
        floor = float(base.initial_dist @ floor_vg.at_start())
        model = CtmdpModel.from_tables(
            [list(map(tuple, base.actions(i))) for i in range(base.n_states)],
            [[base.rate_rows[base.pair_index(i, a)]
              for a in range(base.n_actions(i))] for i in range(base.n_states)],
            [[[base.cost(n, i, a) for a in range(base.n_actions(i))]
              for i in range(base.n_states)] for n in range(2)],
            horizon=1.0, initial_dist=base.initial_dist, weight=base.weight,
            constraint_bounds=[floor + 0.15])
        res = solve_constrained(model, grid)
        assert res.solution.status == "optimal"
        cert = lagrangian_dual(model, grid, primal_value=res.solution.objective)
        assert cert.gap >= -1e-6
        assert abs(cert.gap) <= 1e-5 * (1.0 + abs(res.solution.objective))

    def test_weak_duality_both_routes(self):
        lam, mu = 1.0, 2.0
        model = make_birth_death(lam, mu, m=2, grid=3,
                                 cost_fns=[lambda i, a1, a2: -float(i),
                                           lambda i, a1, a2: (a1 + lam) / (2 * lam)],
                                 constraint_bounds=[0.3])
        grid = TimeGrid(1.0, 150)
        res = solve_constrained(model, grid)
        cert = lagrangian_dual(model, grid, primal_value=res.solution.objective)
        assert cert.gap >= -1e-6
        assert cert.gap <= 1e-5          # discrete strong duality
        assert cert.gap_continuum >= -1e-6
        assert cert.multipliers[0] > 0.0  # the constraint binds here

    def test_dual_function_is_concave_along_samples(self):
        model = one_state_mixing(d1=1.0)
        grid = TimeGrid(1.0, 32)
        D = _dual_value_fn(model, grid, "euler")
        us = np.linspace(0.0, 2.0, 9)
        vals = np.array([D(np.array([u])) for u in us])
        for a in range(len(us)):
            for b in range(a + 2, len(us)):
                for mid in range(a + 1, b):
                    lam = (us[b] - us[mid]) / (us[b] - us[a])
                    chord = lam * vals[a] + (1 - lam) * vals[b]
                    assert vals[mid] >= chord - 1e-9

    def test_budget_exhaustion_reports_best_found(self, monkeypatch):
        model = one_state_mixing(d1=1.0)
        grid = TimeGrid(1.0, 32)
        # column generation certifies this instance in three pricing solves
        # (two columns, then the certificate), so two stop it short
        monkeypatch.setattr(occupation, "MAX_SOLVES", 2)
        cert = lagrangian_dual(model, grid)
        assert cert.status == "budget_exhausted"
        assert cert.n_solves <= 7  # the few probes it was allowed

    def test_two_constraints_coordinate_ascent(self):
        # two independent mixing knobs; both constraints bind symmetrically
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0, 1.0, 2.0]],
            rates=[[[0.0], [0.0], [0.0]]],
            costs=[[[1.0, 0.0, 0.0]], [[0.0, 2.0, 0.0]], [[0.0, 0.0, 2.0]]],
            horizon=1.0, constraint_bounds=[0.5, 0.5])
        grid = TimeGrid(1.0, 32)
        res = solve_constrained(model, grid)
        cert = lagrangian_dual(model, grid, primal_value=res.solution.objective)
        assert res.solution.objective == pytest.approx(0.5, abs=1e-9)
        assert abs(cert.gap) <= 1e-5

    def test_h_grid_feasibility_and_growth(self):
        lam, mu = 1.0, 2.0
        model = make_birth_death(lam, mu, m=4, grid=3,
                                 cost_fns=[lambda i, a1, a2: -float(i),
                                           lambda i, a1, a2: (a1 + lam) / (2 * lam)],
                                 constraint_bounds=[0.3])
        grid = TimeGrid(1.0, 200)
        cert = lagrangian_dual(model, grid)
        assert cert.feasibility_ok
        assert cert.feasibility_min_slack >= -1e-6 * float((model.weight ** 2).max())
        assert np.isfinite(cert.h_w2_norm)
        assert cert.h_grid.shape == (grid.n_nodes, model.n_states)

    def test_needs_a_constraint(self):
        model = two_state_chain()
        with pytest.raises(ValueError):
            lagrangian_dual(model, TimeGrid(1.0, 8))
        with pytest.raises(ValueError):
            solve_constrained(model, TimeGrid(1.0, 8))

    def test_infeasible_primal_is_an_error_without_a_value(self):
        model = one_state_mixing(d1=-0.1)
        with pytest.raises(RuntimeError, match="infeasible"):
            lagrangian_dual(model, TimeGrid(1.0, 8))


def m40_start5():
    """(model, grid, bytes of one cells x pairs table): the criterion-7 costs
    on the m = 40, grid-5 preset from state 5, at the least stable step count."""
    init = np.zeros(40)
    init[5] = 1.0
    model = make_birth_death(1.0, 2.0, m=40, grid=5, initial_dist=init,
                             cost_fns=[lambda i, a1, a2: -float(i),
                                       lambda i, a1, a2: (a1 + 1.0) / 2.0],
                             constraint_bounds=[0.3])
    grid = TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))
    return model, grid, grid.n_steps * model.n_pairs * 8


class TestColumnGeneration:
    @pytest.mark.parametrize("case", sorted(CG_CASES))
    def test_matches_the_dense_simplex(self, case):
        model, grid = CG_CASES[case]()
        problem = build_constrained_lp(model, grid)
        ref = solve_lp(problem)
        res = solve_constrained(model, grid)
        assert ref.status == res.solution.status == "optimal"
        assert res.solution.objective == pytest.approx(ref.objective, abs=1e-9)
        n = grid.n_steps * model.n_pairs
        ref_masses = ref.x[:n].reshape(grid.n_steps, model.n_pairs)
        for k in range(1, model.n_constraints + 1):
            assert res.occupation.expected_cost(model, k) == pytest.approx(
                grid.dt * float(np.sum(ref_masses @ model.costs[k])), abs=1e-9)
        x, y = res.solution.x, res.solution.y
        assert np.abs(problem.A_eq @ x - problem.b_eq).max() <= 1e-10
        assert np.all(x >= 0.0)
        # y is dual feasible for the assembled LP and closes the gap
        assert np.min(problem.c - problem.A_eq.T @ y) >= -1e-9
        assert float(problem.b_eq @ y) == pytest.approx(res.solution.objective, abs=1e-9)

    @pytest.mark.parametrize("case", ["one_state", "criterion7", "random_n1"])
    def test_multiplier_matches_golden_section(self, case):
        model, grid = {
            "one_state": lambda: (one_state_mixing(d1=1.0), TimeGrid(1.0, 64)),
            "criterion7": lambda: (slater_birth_death(), TimeGrid(1.0, 120)),
            "random_n1": CG_CASES["random_n1"],
        }[case]()
        D = _dual_value_fn(model, grid, "euler")
        u_ref, d_ref = golden_dual_max(lambda u: D(np.array([u])))
        cert = lagrangian_dual(model, grid)
        assert cert.status == "converged"
        assert cert.multipliers[0] == pytest.approx(u_ref, abs=1e-6)
        assert cert.dual_value == pytest.approx(d_ref, abs=1e-9)

    @pytest.mark.parametrize("case", sorted(CG_CASES))
    def test_a_cap_of_the_pivots_it_needs_stays_optimal(self, case, monkeypatch):
        model, grid = CG_CASES[case]()
        free = solve_constrained(model, grid).solution
        monkeypatch.setattr(lp_core, "DEFAULT_PIVOT_CAP", free.n_pivots)
        capped = solve_constrained(model, grid).solution
        assert capped.status == "optimal"
        assert capped.n_pivots == free.n_pivots
        assert np.array_equal(capped.x, free.x) and capped.objective == free.objective
        monkeypatch.setattr(lp_core, "DEFAULT_PIVOT_CAP", free.n_pivots - 1)
        short = solve_constrained(model, grid).solution
        assert (short.status, short.n_pivots) == ("pivot_limit", free.n_pivots - 1)

    @pytest.mark.usefixtures("empty_handoff")
    def test_no_column_is_held_as_a_mass_table(self):
        # criterion-7 costs at m = 40 from state 5 price ten columns; held as
        # (cells x pairs) mass tables they alone would take ten tables
        model, grid, table_bytes = m40_start5()
        peak = traced_peak(solve_constrained, model, grid)
        assert solve_constrained(model, grid).n_columns == 10
        assert peak < 10 * table_bytes, f"peak {peak} B, one mass table {table_bytes} B"

    @pytest.mark.usefixtures("empty_handoff")
    def test_the_mix_and_its_kernel_hold_one_table_each(self):
        # the mix is added into the LP's x and disintegrated a block of cells
        # at a time: x and the kernel are one table each, beside small blocks
        model, grid, table_bytes = m40_start5()
        peak = traced_peak(solve_constrained, model, grid)
        assert peak < 4 * table_bytes, f"peak {peak} B, one mass table {table_bytes} B"
        masses = solve_constrained(model, grid).occupation.masses
        peak = traced_peak(disintegrate, model, grid, masses)
        assert peak < 2.5 * table_bytes, f"peak {peak} B, one mass table {table_bytes} B"

    @pytest.mark.usefixtures("empty_handoff")
    def test_a_repeated_policy_stops_the_loop(self):
        # on this model the pricing solve after the eleventh column returns a
        # policy already among the columns while the price test is unmet
        model, grid = case_model("m20_start5", [0.5])
        res = solve_constrained(model, grid)
        cert = lagrangian_dual(model, grid)  # takes over the run
        assert res.solution.status == "optimal"
        assert (cert.n_solves, res.n_columns) == (12, 11)
        u, dual, _ = cert.samples[-1]
        v = res.solution.objective + float(np.dot(u, model.constraint_bounds))
        price = dual + float(np.dot(u, model.constraint_bounds))
        assert price < v - CG_TOL * (1.0 + abs(v))

    @pytest.mark.parametrize("case", ["criterion7", "random_n2"])
    def test_iterates_keep_weak_duality_and_master_descent(self, case):
        model, grid = CG_CASES[case]()
        cert = lagrangian_dual(model, grid)
        D = _dual_value_fn(model, grid, "euler")
        masters = [master for _, _, master in cert.samples]
        assert masters[0] == math.inf  # u = 0 is priced before any master exists
        assert all(b <= a for a, b in zip(masters, masters[1:]))
        for u, dual, _ in cert.samples:
            assert dual <= cert.primal_value + 1e-12
            assert dual == pytest.approx(D(np.array(u)), abs=1e-12)
        assert cert.n_solves >= len(cert.samples)


@pytest.fixture
def empty_handoff():
    occupation._handoff.clear()
    yield
    occupation._handoff.clear()


@pytest.fixture
def counted_solves(monkeypatch):
    """Counts the backward solves the occupation module makes."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("integrator", "rk4"))
        return solve_backward(*args, **kwargs)

    monkeypatch.setattr(occupation, "solve_backward", counting)
    return calls


@pytest.mark.usefixtures("empty_handoff")
class TestColumnGenerationHandoff:
    """solve_constrained leaves its run for the next lagrangian_dual on the
    same problem; every other call runs the loop itself."""

    def test_dual_after_solve_takes_the_run(self, counted_solves):
        model, grid = CG_CASES["random_n1"]()
        solve_constrained(model, grid)
        n_solves = len(counted_solves)
        cert = lagrangian_dual(model, grid)
        assert cert.n_solves == n_solves
        assert len(counted_solves) == n_solves + 1  # the RK4 re-evaluation only
        assert counted_solves[-1] == "rk4"
        assert not occupation._handoff

    def test_second_solve_reruns_the_loop(self, counted_solves):
        model, grid = CG_CASES["random_n1"]()
        solve_constrained(model, grid)
        n_solves = len(counted_solves)
        solve_constrained(model, grid)
        assert len(counted_solves) == 2 * n_solves

    def test_the_slot_is_emptied_on_use(self, counted_solves):
        model, grid = CG_CASES["random_n1"]()
        solve_constrained(model, grid)
        n_solves = len(counted_solves)
        lagrangian_dual(model, grid)
        lagrangian_dual(model, grid)
        assert len(counted_solves) == 2 * n_solves + 2

    @pytest.mark.parametrize("change", ["model", "grid"])
    def test_a_different_key_reruns_the_loop(self, counted_solves, change):
        model, grid = CG_CASES["random_n1"]()
        dual_model, dual_grid = model, grid
        if change == "model":
            dual_model = dataclasses.replace(model)  # equal tables, another object
        else:
            dual_grid = TimeGrid(grid.horizon, grid.n_steps + 2)
        solve_constrained(model, grid)
        n_solves = len(counted_solves)
        cert = lagrangian_dual(dual_model, dual_grid)
        assert len(counted_solves) == n_solves + cert.n_solves + 1
        assert cert.n_solves > 0

    @pytest.mark.parametrize("case", ["criterion7", "random_n2"])
    def test_handed_over_certificate_equals_a_fresh_one(self, case):
        model, grid = CG_CASES[case]()
        fresh = lagrangian_dual(model, grid)
        result = solve_constrained(model, grid)
        handed = lagrangian_dual(model, grid, primal_value=result.solution.objective)
        assert np.array_equal(handed.multipliers, fresh.multipliers)
        assert handed.samples == fresh.samples  # exact float equality, inf included
        assert handed.dual_value == fresh.dual_value
        assert handed.dual_value_continuum == fresh.dual_value_continuum
        assert np.array_equal(handed.h_grid, fresh.h_grid)
        assert (handed.n_solves, handed.status) == (fresh.n_solves, fresh.status)
        assert handed.primal_value == fresh.primal_value

    def test_handed_out_arrays_are_read_only(self):
        model, grid = CG_CASES["random_n1"]()
        result = solve_constrained(model, grid)
        cg = occupation._handoff[model][1]
        for arr in (cg.masses, cg.multipliers, cg.values.values, result.occupation.masses,
                    result.solution.x):
            assert not arr.flags.writeable
        assert np.shares_memory(result.solution.x, result.occupation.masses)
        with pytest.raises(ValueError):
            cg.masses[0, 0] = 1.0

    def test_the_slot_keeps_no_model_alive(self):
        model, grid = CG_CASES["random_n1"]()
        solve_constrained(model, grid)
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None
        assert not occupation._handoff  # the run went with its model


class TestSamplesCsvByteIdentity:
    """The string-joined dual-sample writer emits the bytes csv.writer does."""

    @pytest.mark.parametrize("case", ["criterion7", "two_bounds"])
    def test_write_samples_csv_matches_csv_writer(self, tmp_path, case):
        if case == "criterion7":
            model, grid = slater_birth_death(), TimeGrid(1.0, 500)
        else:
            model = make_birth_death(1.0, 2.0, m=4, grid=3,
                                     cost_fns=[lambda i, a1, a2: i,
                                               lambda i, a1, a2: (a1 + 1.0) / 2.0,
                                               lambda i, a1, a2: (2.0 - a2) / 4.0],
                                     constraint_bounds=[0.5, 0.4])
            grid = TimeGrid(1.0, 200)
        cert = lagrangian_dual(model, grid)
        assert math.isinf(cert.samples[0][2]) and len(cert.samples) >= 2
        cert.write_samples_csv(tmp_path / "dual_samples.csv")
        csv_writer_samples_table(cert, tmp_path / "dual_samples_ref.csv")
        assert ((tmp_path / "dual_samples.csv").read_bytes()
                == (tmp_path / "dual_samples_ref.csv").read_bytes())


class TestOccupationCsvByteIdentity:
    """The string-joined occupation writer emits the bytes csv.writer does."""

    @pytest.mark.parametrize("case", ["criterion7", "birth_death_2d", "tiny_negative"])
    def test_write_csv_matches_csv_writer(self, tmp_path, case):
        if case == "criterion7":
            model, grid = slater_birth_death(), TimeGrid(1.0, 500)
            eta = solve_constrained(model, grid).occupation
        elif case == "birth_death_2d":
            model = make_birth_death(1.0, 2.0, m=6, grid=3, horizon=0.7)
            grid = TimeGrid(0.7, 30)
            eta = occupation_of_policy(model, grid, MarkovPolicy.uniform(model, grid.n_nodes))
        else:
            model = tiny_and_negative_model(1.0)
            grid = TimeGrid(1.0, 16)
            masses = occupation_of_policy(
                model, grid, MarkovPolicy.uniform(model, grid.n_nodes)).masses.copy()
            masses[0] = [-0.0, 5e-324, -1.25]   # signed zero, subnormal, negative
            masses[-1] = [-3e-310, 0.0, 1e300]
            eta = OccupationGrid(grid, masses)
        assert model.action_points.shape[1] == 2
        eta.write_csv(model, tmp_path / "occupation.csv")
        csv_writer_occupation_table(eta, model, tmp_path / "occupation_ref.csv")
        assert ((tmp_path / "occupation.csv").read_bytes()
                == (tmp_path / "occupation_ref.csv").read_bytes())
