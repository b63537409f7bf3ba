import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ctmdp import dp
from ctmdp.dp import (GridStabilityError, NumericsError, TimeGrid, ValueGrid,
                      check_value_envelope, evaluate_policy, scalarize_costs,
                      solve_backward, truncation_error_bound, value_envelope,
                      write_policy_csv)
from ctmdp.model import (CtmdpModel, DriftCertificate, MarkovPolicy, ModelFormatError,
                         auto_certificate, birth_death_certificate, cost_bound_from_tables,
                         certify_drift, make_birth_death)
from ctmdp.occupation import build_constrained_lp, occupation_of_policy
from ctmdp.sim import check_forward_kolmogorov, check_weight_bound, mc_value, simulate
from oracles import (argmin_stage_solve_backward, csv_writer_policy_table,
                     csv_writer_value_table, dense_policy_value, expm_policy_value,
                     kernel_average_cells, pair_level_evaluate_policy, random_instance,
                     random_policy)

TWO_STATE_EXACT = 0.5 - (1.0 - math.exp(-2.0)) / 4.0  # integral of (1-e^{-2t})/2


def two_state_chain():
    return CtmdpModel.from_tables(
        actions_per_state=[[0.0], [0.0]],
        rates=[[[-1.0, 1.0]], [[1.0, -1.0]]],
        costs=[[[0.0], [1.0]]],
        horizon=1.0, weight=[1.0, 2.0])


def reassociation_case(name):
    """(model, grid, policy) on which a reassociated formula meets its dense
    oracle: seeded random instances under randomized kernels, and birth-death
    m=20 under its optimal policy and under a randomized kernel."""
    if name.startswith("random"):
        rng = np.random.default_rng(int(name[len("random"):]))
        model = random_instance(rng, max_states=6, max_actions=3, n_costs=2)
        grid = TimeGrid(model.horizon, 60)
        return model, grid, random_policy(rng, model, grid.n_nodes, randomized=True)
    model = make_birth_death(1.0, 2.0, m=20, grid=3, initial_dist=np.full(20, 0.05))
    grid = TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))
    if name == "birth_death20_optimal":
        return model, grid, solve_backward(model, grid)[1]
    return model, grid, random_policy(np.random.default_rng(3), model, grid.n_nodes,
                                      randomized=True)


REASSOCIATION_CASES = ["random0", "random1", "random2", "random3",
                       "birth_death20_optimal", "birth_death20_random"]


def played_set_case(name):
    """(model, grid, policy) for the played-row stepping. Deterministic:
    random policies on random instances, and on birth-death m=20, 60 or 150
    the optimal policy or a policy whose played set never changes, changes
    once or changes every cell. Randomized (``*_sparse``): valid kernels
    whose support changes every cell, because the last state's first pair
    weighs 0 in even cells and -1e-13 in odd ones, while every state plays
    its last pair and the other entries are zero at random; and a two-state
    chain whose fast pair weighs -1e-13, where dropping that entry moves the
    value by about 2e-8."""
    if name == "two_state_negative":
        model = CtmdpModel.from_tables([[0.0, 1.0], [0.0]],
                                       [[[0.0, 0.0], [-400.0, 400.0]], [[0.0, 0.0]]],
                                       [[[0.0, 0.0], [1e3]]], horizon=1.0, initial_dist=[1.0, 0.0])
        grid = TimeGrid(1.0, 800)
        return model, grid, MarkovPolicy.randomized(
            np.tile([1.0 + 1e-13, -1e-13, 1.0], (grid.n_nodes, 1)))
    if name.startswith("random"):
        seed, kind = name[len("random"):].split("_")
        rng = np.random.default_rng(int(seed))
        model = random_instance(rng, max_states=6, max_actions=3, n_costs=2)
        grid = TimeGrid(model.horizon, 60)
        if kind == "deterministic":
            return model, grid, random_policy(rng, model, grid.n_nodes)
        kernel = rng.uniform(0.05, 1.0, size=(grid.n_nodes, model.n_pairs))
        kernel[rng.random(kernel.shape) < 0.4] = 0.0
        kernel[:, model.action_offsets[1:] - 1] = rng.uniform(0.05, 1.0, (grid.n_nodes,
                                                                           model.n_states))
        first = model.action_offsets[-2]  # the last state has 2 or 3 actions here
        kernel[:, first] = 0.0
        kernel /= np.add.reduceat(kernel, model.action_offsets[:-1], axis=1)[:, model.pair_state]
        kernel[1::2, first] = -1e-13
        kernel[1::2, first + 1:] *= 1.0 + 1e-13
        return model, grid, MarkovPolicy.randomized(kernel)
    m, kind = name[len("birth_death"):].split("_")
    model = make_birth_death(1.0, 2.0, m=int(m), grid=3, initial_dist=np.full(int(m), 1 / int(m)))
    grid = TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))
    if kind == "optimal":
        return model, grid, solve_backward(model, grid)[1]
    index = np.zeros((grid.n_nodes, model.n_states), dtype=np.int64)
    if kind == "once":
        index[grid.n_nodes // 2:] = 1
    elif kind == "alternating":
        index[1::2] = 1
    return model, grid, MarkovPolicy.deterministic(index)


PLAYED_SET_CASES = ["random0_deterministic", "random1_deterministic", "random2_sparse",
                    "random3_sparse", "birth_death20_optimal", "birth_death20_constant",
                    "birth_death20_once", "birth_death20_alternating", "birth_death150_optimal",
                    "two_state_negative"]
DETERMINISTIC_CASES = [c for c in PLAYED_SET_CASES
                       if c.endswith(("deterministic", "optimal", "constant", "once", "alternating"))]


def traced_peak(fn, *args) -> int:
    """Peak traced bytes of fn(*args), after one untraced call has paid the
    one-time allocations."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScalarizeCosts:
    @pytest.mark.parametrize("weights, message", [([1.0], "need 2 cost weights"),
                                                  ([1.0, -0.5], "must be nonnegative")],
                             ids=["count", "sign"])
    def test_bad_weights_rejected(self, weights, message):
        model = make_birth_death(1.0, 2.0, m=4, grid=2, cost_fns=[lambda i, a1, a2: i,
                                                                  lambda i, a1, a2: a1],
                                 constraint_bounds=[0.5])
        with pytest.raises(ValueError, match=message):
            scalarize_costs(model, weights)


class TestTimeGrid:
    def test_nodes_and_dt(self):
        grid = TimeGrid(2.0, 4)
        assert grid.dt == 0.5
        assert np.allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_stability_cap_refuses_with_required_steps(self):
        model = make_birth_death(3.0, 3.0, m=20, grid=3)  # q* up to 6*20
        grid = TimeGrid(1.0, 10)
        with pytest.raises(GridStabilityError) as err:
            solve_backward(model, grid)
        required = err.value.required_n_steps
        assert TimeGrid(1.0, required).dt * model.max_q_star <= 0.5 + 1e-12
        solve_backward(model, TimeGrid(1.0, required))  # now passes

    def test_required_steps_is_infinite_when_no_count_is_stable(self):
        model = two_state_chain()
        assert TimeGrid(1.0, 1).required_steps(model) == 2  # q* = 1, cap 0.5
        assert isinstance(TimeGrid(1e300, 1).required_steps(model), int)
        assert TimeGrid(1e308, 1).required_steps(model) == math.inf
        with pytest.raises(GridStabilityError, match="no finite step count is stable"):
            solve_backward(model, TimeGrid(1e308, 10))

    @pytest.mark.parametrize("route", ["solve_backward", "evaluate_policy",
                                       "occupation_of_policy", "build_constrained_lp"])
    def test_grid_of_another_horizon_rejected(self, route):
        # a horizon-1 model on a horizon-2 grid gave horizon-2 values, while
        # the simulator and the value envelope read the model's horizon
        model = make_birth_death(1.0, 2.0, m=4, grid=2,
                                 cost_fns=[lambda i, a1, a2: i, lambda i, a1, a2: a1],
                                 constraint_bounds=[0.5])
        grid = TimeGrid(2.0, 80)
        policy = MarkovPolicy.uniform(model, grid.n_nodes)
        calls = {"solve_backward": lambda: solve_backward(model, grid),
                 "evaluate_policy": lambda: evaluate_policy(model, grid, policy),
                 "occupation_of_policy": lambda: occupation_of_policy(model, grid, policy),
                 "build_constrained_lp": lambda: build_constrained_lp(model, grid)}
        message = r"grid horizon 2\.0 differs from the model horizon 1\.0"
        with pytest.raises(ValueError, match=message):
            calls[route]()

    def test_step_count_must_be_an_integer(self):
        # 2.5 read as "use n_steps >= 24"; 240.5 passed the stability check
        # and failed in np.zeros
        for n_steps in (2.5, 240.5, 240.0, True):
            with pytest.raises(ValueError, match=f"^n_steps must be an integer, got {n_steps}$"):
                TimeGrid(1.0, n_steps)
        assert TimeGrid(1.0, np.int64(240)).n_nodes == 241

    def test_grid_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 10)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_grid_rejects_a_horizon_that_is_not_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            TimeGrid(horizon, 10)


class TestSolveBackward:
    def test_zero_cost_gives_zero_value(self):
        model = make_birth_death(1.0, 2.0, m=6, grid=3,
                                 cost_fns=[lambda i, a1, a2: 0.0])
        values, _ = solve_backward(model, TimeGrid(1.0, 100))
        assert np.all(values.values == 0.0)

    def test_terminal_condition_exact(self):
        model = make_birth_death(1.0, 2.0, m=6, grid=3)
        values, _ = solve_backward(model, TimeGrid(1.0, 50))
        assert np.all(values.values[-1] == 0.0)

    def test_single_state_constant_cost(self):
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[2.5]]], horizon=2.0)
        grid = TimeGrid(2.0, 16)
        values, _ = solve_backward(model, grid)
        assert np.allclose(values.values[:, 0], 2.5 * (2.0 - grid.nodes), atol=1e-12)

    def test_two_state_closed_form(self):
        values, _ = solve_backward(two_state_chain(), TimeGrid(1.0, 2000))
        assert values.at_start()[0] == pytest.approx(TWO_STATE_EXACT, abs=1e-6)

    def test_matches_expm_oracle_on_two_state(self):
        model = two_state_chain()
        grid = TimeGrid(1.0, 500)
        values, policy = solve_backward(model, grid)
        oracle = expm_policy_value(model, policy)
        assert oracle[0, 0] == pytest.approx(TWO_STATE_EXACT, abs=1e-12)
        assert np.abs(values.values - oracle).max() < 1e-9

    def test_birth_death_self_convergence(self):
        model = make_birth_death(1.0, 2.0, m=20, grid=3)
        coarse, _ = solve_backward(model, TimeGrid(1.0, 1000))
        fine, _ = solve_backward(model, TimeGrid(1.0, 2000))
        assert abs(coarse.at_start() @ model.initial_dist
                   - fine.at_start() @ model.initial_dist) < 1e-4

    def test_grid_convergence_is_first_order_or_better(self):
        rng = np.random.default_rng(11)
        model = random_instance(rng, max_states=4, max_actions=3)
        vals = {}
        for n in (200, 400, 800):
            vg, _ = solve_backward(model, TimeGrid(model.horizon, n))
            vals[n] = vg.at_start()
        ref, _ = solve_backward(model, TimeGrid(model.horizon, 6400))
        err = {n: np.abs(vals[n] - ref.at_start()).max() for n in vals}
        assert err[400] <= 0.55 * err[200] + 1e-13
        assert err[800] <= 0.55 * err[400] + 1e-13

    def test_cost_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            model = random_instance(rng, max_states=5, max_actions=3)
            grid = TimeGrid(model.horizon, 200)
            lo, _ = solve_backward(model, grid)
            bumped = CtmdpModel.from_tables(
                [list(map(tuple, model.actions(i))) for i in range(model.n_states)],
                [[model.rate_rows[model.pair_index(i, a)]
                  for a in range(model.n_actions(i))] for i in range(model.n_states)],
                [[[model.cost(0, i, a) + rng.uniform(0.0, 0.5)
                   for a in range(model.n_actions(i))] for i in range(model.n_states)]],
                horizon=model.horizon, initial_dist=model.initial_dist,
                weight=model.weight)
            hi, _ = solve_backward(bumped, grid)
            assert np.all(hi.values >= lo.values - 1e-10)

    def test_argmin_prefers_lowest_index_on_ties(self):
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0, 1.0, 2.0]],
            rates=[[[0.0], [0.0], [0.0]]],
            costs=[[[1.0, 1.0, 1.0]]], horizon=1.0)
        _, policy = solve_backward(model, TimeGrid(1.0, 10))
        assert np.all(policy.action_index == 0)

    def test_overflowing_values_abort_with_diagnostic(self):
        from ctmdp.dp import NumericsError
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[1e308]]], horizon=4.0)
        with pytest.raises(NumericsError, match="node"):
            solve_backward(model, TimeGrid(4.0, 8))

    def test_euler_mode_consistent_with_rk4(self):
        model = two_state_chain()
        rk4, _ = solve_backward(model, TimeGrid(1.0, 400))
        eul, _ = solve_backward(model, TimeGrid(1.0, 400), integrator="euler")
        assert np.abs(rk4.values - eul.values).max() < 5e-3
        with pytest.raises(ValueError):
            solve_backward(model, TimeGrid(1.0, 400), integrator="heun")

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("case", ["random0", "random1", "random2", "two-costs",
                                      "birth-death", "ties"])
    def test_stage_min_matches_the_argmin_oracle(self, case, integrator):
        weights = None
        if case.startswith("random"):
            model = random_instance(np.random.default_rng(40 + int(case[-1])))
        elif case == "two-costs":
            model = random_instance(np.random.default_rng(7), n_costs=2)
            weights = (1.0, 0.75)
        elif case == "birth-death":
            model = make_birth_death(1.0, 2.0, m=20, grid=3)
        else:
            model = CtmdpModel.from_tables(
                actions_per_state=[[0.0, 1.0, 2.0], [0.0, 1.0]],
                rates=[[[-1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, -2.0]]],
                costs=[[[0.0, 0.0, 0.0], [0.0, -0.0]]], horizon=1.0)
        grid = TimeGrid(model.horizon, 2 * TimeGrid(model.horizon, 1).required_steps(model))
        values, policy = solve_backward(model, grid, cost_weights=weights, integrator=integrator)
        g, nodes = argmin_stage_solve_backward(model, grid, weights, integrator)
        assert np.array_equal(values.values, g)
        assert np.array_equal(np.signbit(values.values), np.signbit(g))
        assert np.array_equal(policy.action_index, nodes)

    @pytest.mark.parametrize("case, n_steps", [("ties", 1), ("ties", 63), ("ties", 64),
                                               ("ties", 65), ("ties", 894),
                                               ("birth-death-m150", 894)])
    def test_block_argmins_match_the_argmin_oracle(self, case, n_steps):
        if case == "ties":
            # state 0 leaves (action 1) near the horizon and waits (actions 0
            # and 2, tied) earlier on; state 1's two actions tie; q* = 2
            model = CtmdpModel.from_tables(
                actions_per_state=[[0.0, 1.0, 2.0], [0.0, 1.0]],
                rates=[[[0.0, 0.0], [-2.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                costs=[[[1.0, 0.0, 1.0], [5.0, 5.0]]], horizon=0.25)
        else:
            model = make_birth_death(1.0, 2.0, m=150, grid=3)
        grid = TimeGrid(model.horizon, n_steps)
        values, policy = solve_backward(model, grid)
        g, nodes = argmin_stage_solve_backward(model, grid)
        assert np.array_equal(values.values, g)
        assert np.array_equal(policy.action_index, nodes)

    def test_never_holds_a_node_by_pair_table(self):
        import tracemalloc
        model = make_birth_death(1.0, 2.0, m=150, grid=3)
        grid = TimeGrid(model.horizon, 894)
        tracemalloc.start()
        try:
            solve_backward(model, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.n_nodes * model.n_pairs * 8

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_rate_table_of_any_layout_matches_the_argmin_oracle(self, layout):
        base = make_birth_death(1.0, 2.0, m=20, grid=3)
        rates = np.array(base.rate_rows)
        rates = (np.asfortranarray(rates) if layout == "fortran"
                 else np.repeat(rates, 2, axis=1)[:, ::2])
        assert not rates.flags.c_contiguous
        model = dataclasses.replace(base, rate_rows=rates)
        assert model.rate_rows.flags.c_contiguous
        grid = TimeGrid(model.horizon, 2 * TimeGrid(model.horizon, 1).required_steps(model))
        values, policy = solve_backward(model, grid)
        g, nodes = argmin_stage_solve_backward(model, grid)
        assert np.array_equal(values.values, g)
        assert np.array_equal(policy.action_index, nodes)

    def test_empty_action_set_aborts_with_diagnostic(self):
        from ctmdp.dp import NumericsError
        model = CtmdpModel(n_states=2, action_offsets=[0, 1, 1], action_points=[[0.0]],
                           rate_rows=[[0.0, 0.0]], costs=[[1.0]], constraint_bounds=[],
                           horizon=1.0, initial_dist=[1.0, 0.0], weight=[1.0, 1.0])
        with pytest.raises(NumericsError, match="node"):
            solve_backward(model, TimeGrid(1.0, 4))


class TestEvaluatePolicy:
    def test_reevaluating_the_optimal_policy_matches(self):
        model = two_state_chain()
        grid = TimeGrid(1.0, 1000)
        values, policy = solve_backward(model, grid)
        again = evaluate_policy(model, grid, policy, 0)
        assert np.abs(values.values - again.values).max() < 1e-6

    def test_uniform_mix_of_constant_costs(self):
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0, 1.0]],
            rates=[[[0.0], [0.0]]],
            costs=[[[1.0, 0.0]]], horizon=1.0)
        grid = TimeGrid(1.0, 20)
        value = evaluate_policy(model, grid, MarkovPolicy.uniform(model, grid.n_nodes), 0)
        assert value.at_start()[0] == pytest.approx(0.5, abs=1e-12)

    def test_free_action_has_zero_value(self):
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0, 1.0]],
            rates=[[[0.0], [0.0]]],
            costs=[[[1.0, 0.0]]], horizon=1.0)
        grid = TimeGrid(1.0, 20)
        pol = MarkovPolicy.constant(model, 1, n_nodes=grid.n_nodes)
        value = evaluate_policy(model, grid, pol, 0)
        assert value.at_start()[0] == 0.0

    def test_no_policy_beats_the_solver(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            model = random_instance(rng, max_states=5, max_actions=3)
            grid = TimeGrid(model.horizon, 500)
            best, _ = solve_backward(model, grid)
            slack = 1e-8 + 50.0 * grid.dt ** 2
            for k in range(20):
                pol = random_policy(rng, model, grid.n_nodes, randomized=bool(k % 2))
                val = evaluate_policy(model, grid, pol, 0)
                assert np.all(val.values >= best.values - slack)

    def test_constraint_cost_index(self):
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0, 1.0]],
            rates=[[[0.0], [0.0]]],
            costs=[[[1.0, 0.0]], [[0.0, 2.0]]],
            horizon=1.0, constraint_bounds=[1.0])
        grid = TimeGrid(1.0, 10)
        val = evaluate_policy(model, grid, MarkovPolicy.uniform(model, grid.n_nodes),
                              cost_index=1)
        assert val.at_start()[0] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="cost table"):
            evaluate_policy(model, grid, MarkovPolicy.uniform(model, grid.n_nodes),
                            cost_index=5)

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("case", REASSOCIATION_CASES)
    def test_matches_the_dense_generator_oracle(self, case, integrator):
        model, grid, policy = reassociation_case(case)
        for cost_index in range(model.costs.shape[0]):
            got = evaluate_policy(model, grid, policy, cost_index, integrator).values
            want = dense_policy_value(model, grid, policy, cost_index, integrator)
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("case", PLAYED_SET_CASES)
    def test_matches_the_pair_level_oracle(self, case, integrator):
        # dropping a pair of weight exactly 0 drops a +-0.0 term of each
        # state's sum, so deterministic values are bit for bit the oracle's
        model, grid, policy = played_set_case(case)
        for cost_index in range(model.costs.shape[0]):
            got = evaluate_policy(model, grid, policy, cost_index, integrator).values
            want = pair_level_evaluate_policy(model, grid, policy, cost_index, integrator).values
            if policy.kind == "deterministic":
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("integrator", ["rk4", "euler"])
    @pytest.mark.parametrize("case", DETERMINISTIC_CASES)
    def test_deterministic_stage_has_the_one_hot_stage_bits(self, case, integrator):
        # the one-hot kernel plays the same pairs with weight 1.0, one per
        # state: x * 1.0 and a one-element sum are x, whatever x is
        model, grid, policy = played_set_case(case)
        assert policy.kind == "deterministic"
        one_hot = MarkovPolicy.randomized(policy.kernel(model))
        for cost_index in range(model.costs.shape[0]):
            got = evaluate_policy(model, grid, policy, cost_index, integrator).values
            want = evaluate_policy(model, grid, one_hot, cost_index, integrator).values
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("case", ["random2_sparse", "random3_sparse"])
    def test_sparse_kernels_are_valid_and_change_support_every_cell(self, case):
        model, grid, policy = played_set_case(case)
        kernel = policy.action_probs
        assert policy.validate(model) == []
        sums = np.add.reduceat(kernel, model.action_offsets[:-1], axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        support = kernel != 0.0
        assert np.all(np.any(support[1:] != support[:-1], axis=1))
        assert np.all(kernel[1::2, model.action_offsets[-2]] == -1e-13)

    @pytest.mark.parametrize("case", ["random2_sparse", "random3_sparse"])
    def test_kernel_with_an_empty_state_row_refused(self, case):
        # state 0 plays no pair in every other cell: not a probability kernel
        model, grid, policy = played_set_case(case)
        kernel = policy.action_probs.copy()
        kernel[::2, :model.action_offsets[1]] = 0.0
        empty = MarkovPolicy.randomized(kernel)
        for route in (evaluate_policy, occupation_of_policy):
            with pytest.raises(ModelFormatError,
                               match=r"kernel row \(node 0, state 0\) sums to 0.0"):
                route(model, grid, empty)

    def test_cost_index_out_of_range_names_the_argument(self):
        model = two_state_chain()
        grid = TimeGrid(1.0, 10)
        policy = MarkovPolicy.constant(model, 0, grid.n_nodes)
        for n in (-1, 1):
            with pytest.raises(ValueError, match=f"cost_index {n} is not a cost table index"):
                evaluate_policy(model, grid, policy, n)

    def test_holds_one_run_of_rows_at_a_time(self):
        model, grid, policy = played_set_case("birth_death60_alternating")
        run_bytes = model.n_states * model.n_states * 8  # the rows one run plays
        peak = traced_peak(evaluate_policy, model, grid, policy)
        pair_level = traced_peak(pair_level_evaluate_policy, model, grid, policy)
        assert peak - pair_level < 1.5 * run_bytes, \
            f"peak {peak} B, pair-level oracle {pair_level} B, one run's rows {run_bytes} B"

    def test_policy_grid_mismatch_rejected(self):
        model = two_state_chain()
        _, policy = solve_backward(model, TimeGrid(1.0, 10))
        with pytest.raises(ValueError, match="nodes"):
            evaluate_policy(model, TimeGrid(1.0, 20), policy, 0)

    def test_deterministic_policy_holds_no_node_by_pair_table(self):
        # the policy plays its indexed pairs; its one-hot kernel is never formed
        model, grid, policy = played_set_case("birth_death60_optimal")
        table_bytes = grid.n_nodes * model.n_pairs * 8
        peak = traced_peak(evaluate_policy, model, grid, policy)
        assert peak < table_bytes, f"peak {peak} B, one (nodes x pairs) table {table_bytes} B"

    @pytest.mark.parametrize("route", ["mc_value", "check_forward_kolmogorov", "simulate"])
    def test_monte_carlo_routes_hold_no_node_by_pair_table(self, route):
        # the thinning engines look a deterministic policy's pairs up by index
        model, grid, policy = played_set_case("birth_death60_optimal")
        run = {"mc_value": lambda: mc_value(model, policy, 30, 0, 200, seed=1),
               "check_forward_kolmogorov": lambda: check_forward_kolmogorov(
                   model, policy, 30, [29, 30], 0.5, 200, seed=1),
               "simulate": lambda: simulate(model, policy, 30, seed=1)}[route]
        table_bytes = grid.n_nodes * model.n_pairs * 8
        peak = traced_peak(run)
        assert peak < table_bytes, f"peak {peak} B, one (nodes x pairs) table {table_bytes} B"

    @pytest.mark.parametrize("route", ["mc_value", "check_forward_kolmogorov",
                                       "check_weight_bound"])
    def test_randomized_monte_carlo_routes_read_the_kernel_in_place(self, route):
        # the kernel average forms its product a block of cells at a time, so
        # no batch holds half a (nodes x pairs) kernel; the draws copy no kernel
        model, grid, _ = played_set_case("birth_death60_optimal")
        policy = MarkovPolicy.uniform(model, grid.n_nodes)
        cert = birth_death_certificate(1.0, 2.0)
        run = {"mc_value": lambda: mc_value(model, policy, 30, 0, 200, seed=1),
               "check_forward_kolmogorov": lambda: check_forward_kolmogorov(
                   model, policy, 30, [29, 30], 0.5, 200, seed=1),
               "check_weight_bound": lambda: check_weight_bound(
                   model, cert, policy, 30, 0.5, 200, seed=1)}[route]
        kernel_bytes = grid.n_nodes * model.n_pairs * 8
        bound = kernel_bytes // 2
        peak = traced_peak(run)
        assert peak < bound, f"peak {peak} B, bound {bound} B (kernel {kernel_bytes} B)"


class TestRandomizedKernelAverage:
    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_the_cell_block_changes_no_bit(self, monkeypatch, block):
        # 150 cells: the blocks of 7 and of 64 leave a short last block
        monkeypatch.setattr(dp, "_AVERAGE_BLOCK", block)
        rng = np.random.default_rng(3)
        model = make_birth_death(1.0, 2.0, m=8, grid=3)
        kernel = rng.uniform(0.0, 1.0, size=(151, model.n_pairs))
        kernel[rng.random(kernel.shape) < 0.3] = 0.0
        kernel[:, model.action_offsets[1:] - 1] += 0.1
        kernel /= np.add.reduceat(kernel, model.action_offsets[:-1], axis=1)[:, model.pair_state]
        policy = MarkovPolicy.randomized(kernel)
        signed = rng.choice([0.0, -0.0, 5e-324, -1.5, 1.0 / 3.0, 1e308], size=model.n_pairs)
        for per_pair in (model.costs[0], model.rate_rows[:, 3], signed):
            want = kernel_average_cells(model, policy, per_pair)
            assert dp._plays(model, policy).average(per_pair).tobytes() == want.tobytes()


class TestPolicyRule:
    """Every route that plays a policy refuses one that is not a Markov
    kernel on the model's action sets, instead of returning a number."""

    @staticmethod
    def bad_policies(model, grid):
        index = np.zeros((grid.n_nodes, model.n_states), dtype=np.int64)
        index[:, 0] = 3  # state 0 has 2 actions
        uniform = MarkovPolicy.uniform(model, grid.n_nodes).action_probs
        return {"action 3 in state 0": MarkovPolicy.deterministic(index),
                "rows summing to 1.4": MarkovPolicy.randomized(1.4 * uniform)}

    @pytest.mark.parametrize("route", ["evaluate_policy", "occupation_of_policy", "mc_value",
                                       "simulate", "check_weight_bound_at_0"])
    def test_routes_refuse_a_policy_off_the_action_sets(self, route):
        model = make_birth_death(1, 2, 3, 2)
        grid = TimeGrid(1.0, 20)
        cert = birth_death_certificate(1.0, 2.0)
        run = {"evaluate_policy": lambda pol: evaluate_policy(model, grid, pol),
               "occupation_of_policy": lambda pol: occupation_of_policy(model, grid, pol),
               "mc_value": lambda pol: mc_value(model, pol, 0, 0, 100, seed=1),
               "simulate": lambda pol: simulate(model, pol, 0, seed=1),
               # t = 0 needs no path, but the policy rule still holds
               "check_weight_bound_at_0": lambda pol: check_weight_bound(
                   model, cert, pol, 0, 0.0, 100, seed=1)}[route]
        messages = {"action 3 in state 0": "action index 3 out of range at node 0, state 0",
                    "rows summing to 1.4": r"kernel row \(node 0, state 0\) sums to 1.4"}
        for name, policy in self.bad_policies(model, grid).items():
            with pytest.raises(ModelFormatError, match=f"invalid policy: {messages[name]}"):
                run(policy)


class TestNumericsDiagnostics:
    """Overflow is reported at the first node the backward loop made non-finite."""

    @staticmethod
    def overflowing_model():
        return CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[1e308]]], horizon=4.0)

    @pytest.mark.parametrize("integrator, where", [("rk4", "node 7 (t=3.5)"),
                                                   ("euler", "node 4 (t=2)")])
    @pytest.mark.parametrize("route", ["solve_backward", "evaluate_policy"])
    def test_overflow_names_the_node(self, route, integrator, where):
        model, grid = self.overflowing_model(), TimeGrid(4.0, 8)
        with pytest.raises(NumericsError) as err:
            if route == "solve_backward":
                solve_backward(model, grid, integrator=integrator)
            else:
                evaluate_policy(model, grid, MarkovPolicy.constant(model, 0, grid.n_nodes),
                                0, integrator)
        assert str(err.value) == f"non-finite value at {where}"

    def test_evaluate_policy_rejects_an_unknown_integrator(self):
        model = two_state_chain()
        grid = TimeGrid(1.0, 10)
        with pytest.raises(ValueError, match="unknown integrator 'heun'"):
            evaluate_policy(model, grid, MarkovPolicy.uniform(model, grid.n_nodes), 0,
                            integrator="heun")


class TestEnvelope:
    def test_envelope_holds_on_certified_instances(self):
        model = make_birth_death(1.0, 2.0, m=20, grid=3)
        cert = certify_drift(model, birth_death_certificate(
            1.0, 2.0, cost_bound_from_tables(model)))
        values, _ = solve_backward(model, TimeGrid(1.0, 500))
        report = check_value_envelope(model, cert, values)
        assert report.ok and report.max_ratio <= 1.0

    def test_envelope_holds_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            model = random_instance(rng)
            cert = auto_certificate(model)
            values, _ = solve_backward(model, TimeGrid(model.horizon, 300))
            assert check_value_envelope(model, cert, values).ok

    def test_truncation_bound_scales_inversely_with_m(self):
        cert = birth_death_certificate(1.0, 2.0, cost_bound=1.0)
        bounds = [truncation_error_bound(make_birth_death(1.0, 2.0, m=m, grid=2), cert)
                  for m in (10, 20, 40)]
        assert bounds[0] == pytest.approx(2 * bounds[1], rel=1e-12)
        assert bounds[1] == pytest.approx(2 * bounds[2], rel=1e-12)

    def test_zero_rho1_bounds_are_the_linear_limit(self):
        model = make_birth_death(1.0, 2.0, m=10, grid=2, horizon=2.0)
        cert = DriftCertificate(rho1=0.0, b1=0.5, M=3.0)
        assert truncation_error_bound(model, cert) == 3.0 * 2.0 * (1.0 + 0.5 * 2.0) / 10.0
        assert np.array_equal(value_envelope(model, cert),
                              3.0 * 2.0 * (model.weight + 0.5 * 2.0))

    def test_zero_cost_bound_is_zero(self):
        model = make_birth_death(1.0, 2.0, m=10, grid=2,
                                 cost_fns=[lambda i, a1, a2: 0.0])
        cert = birth_death_certificate(1.0, 2.0, cost_bound=0.0)
        assert truncation_error_bound(model, cert) == 0.0


class TestCsvExports:
    def test_value_and_policy_files(self, tmp_path):
        model = two_state_chain()
        grid = TimeGrid(1.0, 4)
        values, policy = solve_backward(model, grid)
        vpath = tmp_path / "value.csv"
        values.write_csv(vpath)
        lines = vpath.read_text().strip().splitlines()
        assert lines[0] == "state,t,value"
        assert len(lines) == 1 + 2 * grid.n_nodes
        ppath = tmp_path / "policy.csv"
        write_policy_csv(model, grid, policy, ppath)
        assert ppath.read_text().startswith("state,t,a0")

    def test_writers_turn_one_state_column_at_a_time_into_text(self, tmp_path):
        # the whole (nodes x states) table as Python objects would peak at
        # 4.45 MB (values) and 5.62 MB (policy) traced
        model, grid, policy = played_set_case("birth_death150_optimal")
        assert grid.n_steps == 894
        values, _ = solve_backward(model, grid)
        value_peak = traced_peak(values.write_csv, tmp_path / "value.csv")
        policy_peak = traced_peak(write_policy_csv, model, grid, policy, tmp_path / "policy.csv")
        assert value_peak <= 0.5e6, f"value writer peak {value_peak} B"
        assert policy_peak <= 2e6, f"policy writer peak {policy_peak} B"

    def test_randomized_policy_csv_refused(self, tmp_path):
        model = two_state_chain()
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError, match="CSV export is for deterministic policies"):
            write_policy_csv(model, grid, MarkovPolicy.uniform(model, grid.n_nodes),
                             tmp_path / "policy.csv")
        assert not (tmp_path / "policy.csv").exists()


def tiny_and_negative_model(horizon):
    """Two states whose costs and action points are negative, subnormal or
    signed zeros, so the exported values and components are too."""
    return CtmdpModel.from_tables(
        actions_per_state=[[(-1e-300, 2.5e-17), (-0.0, -3.25)], [(5e-324, 0.1)]],
        rates=[[[-1.0, 1.0], [-0.5, 0.5]], [[2.0, -2.0]]],
        costs=[[[-1e-300, -7.125], [3e-310]]],
        horizon=horizon)


class TestCsvByteIdentity:
    """The string-joined writers emit the bytes csv.writer does."""

    @pytest.mark.parametrize("case", ["birth_death_2d", "tiny_negative", "horizon_0.7"])
    def test_value_and_policy_match_csv_writer(self, tmp_path, case):
        if case == "birth_death_2d":
            model = make_birth_death(1.0, 2.0, m=6, grid=3)
            grid = TimeGrid(1.0, 40)
        elif case == "tiny_negative":
            model = tiny_and_negative_model(1.0)
            grid = TimeGrid(1.0, 16)
        else:
            model = make_birth_death(1.0, 2.0, m=4, grid=2, horizon=0.7)
            grid = TimeGrid(0.7, 30)
        values, policy = solve_backward(model, grid)
        if case == "tiny_negative":
            # a subnormal and a signed zero in the table, both actions of state 0
            table = values.values.copy()
            table[-1] = [-0.0, 5e-324]
            values = ValueGrid(grid, table)
            assert np.min(values.values) < 0.0
            policy = MarkovPolicy.deterministic(
                np.stack([np.arange(grid.n_nodes) % 2, np.zeros(grid.n_nodes, int)], axis=1))
        values.write_csv(tmp_path / "value.csv")
        csv_writer_value_table(values, tmp_path / "value_ref.csv")
        write_policy_csv(model, grid, policy, tmp_path / "policy.csv")
        csv_writer_policy_table(model, grid, policy, tmp_path / "policy_ref.csv")
        assert (tmp_path / "value.csv").read_bytes() == (tmp_path / "value_ref.csv").read_bytes()
        assert (tmp_path / "policy.csv").read_bytes() == (tmp_path / "policy_ref.csv").read_bytes()

    def test_value_table_of_special_floats_matches_csv_writer(self, tmp_path):
        specials = [math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0,
                    1.0 / 3.0, -2.5e-17, 123456789.0]
        grid = TimeGrid(0.7, 5)
        values = ValueGrid(grid, np.array(specials).reshape(grid.n_nodes, 2))
        values.write_csv(tmp_path / "value.csv")
        csv_writer_value_table(values, tmp_path / "value_ref.csv")
        text = (tmp_path / "value.csv").read_bytes()
        assert text == (tmp_path / "value_ref.csv").read_bytes()
        for word in (b",inf\r\n", b",-inf\r\n", b",nan\r\n", b",1e+308\r\n", b",-0\r\n",
                     b",4.9406564584124654e-324\r\n"):
            assert word in text

    def test_out_of_range_action_index_rejected(self, tmp_path):
        model = two_state_chain()
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ModelFormatError,
                           match="action index 1 out of range at node 0, state 0"):
            write_policy_csv(model, grid, MarkovPolicy.constant(model, 1, grid.n_nodes),
                             tmp_path / "policy.csv")

    @pytest.mark.parametrize("shape, error, message", [
        ((3, 3), ValueError, "policy has 3 nodes, grid has 13"),
        ((13, 4), ModelFormatError, "invalid policy: policy table has 4 columns, expected 3")],
        ids=["nodes", "width"])
    def test_policy_off_the_grid_or_model_refused(self, tmp_path, shape, error, message):
        # the policy rule, not a truncated file or a broadcast error
        model = make_birth_death(1.0, 2.0, m=3, grid=2)
        policy = MarkovPolicy.deterministic(np.zeros(shape, dtype=np.int64))
        with pytest.raises(error, match=message):
            write_policy_csv(model, TimeGrid(1.0, 12), policy, tmp_path / "policy.csv")
        assert not (tmp_path / "policy.csv").exists()
