import gc
import math
import weakref

import numpy as np
import pytest

from ctmdp import sim
from ctmdp.dp import TimeGrid, solve_backward
from ctmdp.model import (CtmdpModel, MarkovPolicy, birth_death_certificate,
                         cost_bound_from_tables, certify_drift, make_birth_death)
from ctmdp.sim import (_GUIDE, _draw_local, _jump_table, _jump_targets, _run_batch,
                       check_forward_kolmogorov, check_weight_bound, mc_value, simulate)
from oracles import (csv_writer_trajectory_table, dense_run_batch, kernel_average_cells,
                     loop_simulate, random_instance, random_policy)
from test_dp import tiny_and_negative_model, traced_peak

TWO_STATE_EXACT = 0.5 - (1.0 - math.exp(-2.0)) / 4.0


def two_state_chain(horizon=1.0):
    return CtmdpModel.from_tables(
        actions_per_state=[[0.0], [0.0]],
        rates=[[[-1.0, 1.0]], [[1.0, -1.0]]],
        costs=[[[0.0], [1.0]]],
        horizon=horizon, weight=[1.0, 2.0])


def still_policy(model, n_nodes=2):
    return MarkovPolicy.constant(model, 0, n_nodes=n_nodes)


class TestSimulate:
    def test_absorbing_state_never_jumps(self):
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[1.0]]], horizon=2.0)
        path = simulate(model, still_policy(model), 0, seed=1)
        assert path.n_jumps() == 0
        assert path.times[0] == 0.0 and path.states[0] == 0

    def test_identical_seeds_are_bitwise_identical(self):
        model = make_birth_death(1.0, 2.0, m=8, grid=3)
        pol = MarkovPolicy.uniform(model, n_nodes=11)
        a = simulate(model, pol, 2, seed=99)
        b = simulate(model, pol, 2, seed=99)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.action_indices, b.action_indices)
        c = simulate(model, pol, 2, seed=100)
        assert not (np.array_equal(a.times, c.times) and np.array_equal(a.states, c.states))

    def test_epochs_increase_and_jumps_move(self):
        model = make_birth_death(2.0, 1.0, m=6, grid=3)
        pol = MarkovPolicy.uniform(model, n_nodes=21)
        for seed in range(10):
            path = simulate(model, pol, 0, seed=seed)
            assert np.all(np.diff(path.times) > 0)
            assert np.all(path.times <= model.horizon)
            assert np.all(path.states[1:] != path.states[:-1])
            assert np.all((0 <= path.states) & (path.states < model.n_states))

    def test_suppressed_birth_freezes_state_zero(self):
        model = make_birth_death(1.0, 2.0, m=5, grid=3)
        a_min = list(map(tuple, model.actions(0))).index((-1.0, 0.0))
        pol = MarkovPolicy.constant(model, [a_min, 0, 0, 0, 0], n_nodes=2)
        for seed in range(5):
            assert simulate(model, pol, 0, seed=seed).n_jumps() == 0

    def test_first_holding_time_is_exponential(self):
        # rate-1 symmetric chain on a long horizon: the first sojourn is
        # Exp(1) truncated at T; the truncation bias e^{-T} is << the se
        model = two_state_chain(horizon=8.0)
        pol = still_policy(model)
        holds = []
        for seed in range(20000):
            path = simulate(model, pol, 0, seed=(7, seed))
            holds.append(path.times[1] if path.n_jumps() else model.horizon)
        holds = np.asarray(holds)
        se = holds.std(ddof=1) / math.sqrt(len(holds))
        assert abs(holds.mean() - 1.0) <= 3.0 * se + 1e-3

    def test_empirical_generator_matches_rates(self):
        # single-action two-state chain with asymmetric rates: occupation-time
        # weighted jump counts estimate the off-diagonal rates
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0], [0.0]],
            rates=[[[-1.4, 1.4]], [[0.6, -0.6]]],
            costs=[[[0.0], [0.0]]], horizon=4.0)
        pol = still_policy(model)
        time_in = np.zeros(2)
        jumps_out = np.zeros(2)
        for seed in range(4000):
            path = simulate(model, pol, 0, seed=(101, seed))
            bounds = np.append(path.times, model.horizon)
            for m in range(len(path.states)):
                time_in[path.states[m]] += bounds[m + 1] - bounds[m]
                if m + 1 < len(path.states):
                    jumps_out[path.states[m]] += 1
        for i, rate in enumerate((1.4, 0.6)):
            est = jumps_out[i] / time_in[i]
            se = math.sqrt(jumps_out[i]) / time_in[i]
            assert abs(est - rate) <= 4.0 * se

    def test_per_path_and_batch_engines_agree(self):
        # accrue the pathwise cost by hand from simulate()'s sojourns and
        # compare against the vectorized estimator on the same model
        model = two_state_chain()
        pol = still_policy(model)
        n_paths = 4000
        totals = np.zeros(n_paths)
        for seed in range(n_paths):
            path = simulate(model, pol, 0, seed=(55, seed))
            bounds = np.append(path.times, model.horizon)
            in_state_1 = path.states == 1
            totals[seed] = np.sum((bounds[1:] - bounds[:-1])[in_state_1])
        mean_a = totals.mean()
        se_a = totals.std(ddof=1) / math.sqrt(n_paths)
        est = mc_value(model, pol, 0, 0, n_paths, seed=56)
        assert abs(mean_a - est.mean) <= 4.0 * math.hypot(se_a, est.se)

    def test_top_draw_never_plays_an_action_of_zero_mass(self):
        class TopDraw(np.random.Generator):
            def random(self, *args, **kwargs):
                return 1.0 - 2.0 ** -53

        # the kernel's cumsum ends at 0.9999999999999999, not above the top draw
        model = CtmdpModel.from_tables(actions_per_state=[list(range(11))],
                                       rates=[[[0.0]] * 11], costs=[[[0.0] * 11]],
                                       horizon=1.0)
        policy = MarkovPolicy.randomized(np.array([[0.1] * 10 + [0.0]] * 2))
        path = simulate(model, policy, 0, seed=TopDraw(np.random.PCG64(0)))
        assert path.action_indices.tolist() == [9]

    def test_csv_export(self, tmp_path):
        model = make_birth_death(1.0, 2.0, m=5, grid=3)
        pol = MarkovPolicy.uniform(model, n_nodes=6)
        path = simulate(model, pol, 0, seed=4)
        out = tmp_path / "trajectory.csv"
        path.write_csv(model, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epoch,state,a0,a1"
        assert len(lines) == 1 + len(path.times)


class TestTrajectoryCsvByteIdentity:
    """The string-joined trajectory writer emits the bytes csv.writer does."""

    @pytest.mark.parametrize("case", ["birth_death_uniform", "tiny_negative"])
    def test_write_csv_matches_csv_writer(self, tmp_path, case):
        if case == "birth_death_uniform":
            model = make_birth_death(1.0, 2.0, m=5, grid=3)
            path = simulate(model, MarkovPolicy.uniform(model, n_nodes=6), 2, seed=4)
        else:
            # negative, subnormal and signed-zero action components and epochs
            model = tiny_and_negative_model(1.0)
            path = sim.Trajectory(1.0, np.array([0.0, 5e-324, 0.5]), np.array([0, 1, 0]),
                                  np.array([1, 0, 0]))
        assert path.n_jumps() >= 2
        path.write_csv(model, tmp_path / "trajectory.csv")
        csv_writer_trajectory_table(path, model, tmp_path / "trajectory_ref.csv")
        assert ((tmp_path / "trajectory.csv").read_bytes()
                == (tmp_path / "trajectory_ref.csv").read_bytes())


class TestIndexArguments:
    """State and cost indices outside the model, or not integers, are refused
    by name, not wrapped round to the last state or the constraint table, nor
    rounded to an index. So are replicate counts that are not integers."""

    @staticmethod
    def setup():
        model = make_birth_death(1.0, 2.0, m=4, grid=2,
                                 cost_fns=[lambda i, a1, a2: i, lambda i, a1, a2: 1.0],
                                 constraint_bounds=[2.0])
        _, policy = solve_backward(model, TimeGrid(1.0, 40))
        cert = birth_death_certificate(1.0, 2.0, cost_bound_from_tables(model))
        return model, policy, cert

    @pytest.mark.parametrize("i0", [-1, 4, 2.7, True, 1.0])
    def test_initial_state(self, i0):
        model, policy, cert = self.setup()
        calls = [lambda: mc_value(model, policy, i0, 0, 100, seed=1),
                 lambda: check_forward_kolmogorov(model, policy, i0, {1}, 1.0, 100, seed=1),
                 lambda: check_weight_bound(model, cert, policy, i0, 1.0, 100, seed=1),
                 lambda: check_weight_bound(model, cert, policy, i0, 0.0, 100, seed=1),
                 lambda: simulate(model, policy, i0, seed=1)]
        for call in calls:
            with pytest.raises(ValueError, match=f"i0 {i0} is not a state index in 0..3"):
                call()

    def test_subset_state(self):
        model, policy, _ = self.setup()
        with pytest.raises(ValueError, match="subset -1 is not a state index in 0..3"):
            check_forward_kolmogorov(model, policy, 0, {1, -1}, 1.0, 100, seed=1)

    @pytest.mark.parametrize("cost_index", [-1, 2, True, 1.0])
    def test_cost_index(self, cost_index):
        model, policy, _ = self.setup()
        with pytest.raises(ValueError,
                           match=f"cost_index {cost_index} is not a cost table index in 0..1"):
            mc_value(model, policy, 0, cost_index, 100, seed=1)

    def test_subset_state_that_is_not_an_integer(self):
        # int(b) read 1.5 as state 1
        model, policy, _ = self.setup()
        for b in (1.5, True):
            with pytest.raises(ValueError, match=f"subset {b} is not a state index in 0..3"):
                check_forward_kolmogorov(model, policy, 0, [1, b], 1.0, 100, seed=1)
        want = check_forward_kolmogorov(model, policy, 3, [3], 1.0, 100, seed=1).residual
        for three in (np.int64(3), np.array(3)):  # numpy integers are indices
            got = check_forward_kolmogorov(model, policy, three, [three], 1.0, 100, seed=1)
            assert got.residual == want

    @pytest.mark.parametrize("replicates", [2.5, 50.5, 100.0, True])
    def test_replicate_count_that_is_not_an_integer(self, replicates):
        # check_weight_bound at t = 0 returned a count of 50.5; the batches
        # ended in numpy TypeErrors
        model, policy, cert = self.setup()
        calls = [lambda: mc_value(model, policy, 0, 0, replicates, seed=1),
                 lambda: check_forward_kolmogorov(model, policy, 0, {1}, 1.0, replicates, 1),
                 lambda: check_weight_bound(model, cert, policy, 0, 1.0, replicates, seed=1),
                 lambda: check_weight_bound(model, cert, policy, 0, 0.0, replicates, seed=1)]
        message = f"need at least 2 replicates, as an integer, got {replicates}"
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()

    def test_numpy_integer_replicate_count(self):
        model, policy, cert = self.setup()
        n = np.int64(100)
        assert mc_value(model, policy, 0, 0, n, seed=1) == mc_value(model, policy, 0, 0, 100, 1)
        est = check_weight_bound(model, cert, policy, 0, 0.0, n, seed=1).estimate
        assert est.count == 100 and type(est.count) is int

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_policy_then_replicates_then_initial_state(self, t):
        model, policy, cert = self.setup()
        one_node = MarkovPolicy.deterministic(np.zeros((1, 4)))
        with pytest.raises(ValueError, match="policy needs at least 2 time nodes"):
            check_weight_bound(model, cert, one_node, 9, t, 1, seed=1)
        with pytest.raises(ValueError, match="need at least 2 replicates, as an integer, got 1"):
            check_weight_bound(model, cert, policy, 9, t, 1, seed=1)

    def test_simulate_refuses_the_policy_before_the_initial_state(self):
        model, _, _ = self.setup()
        one_node = MarkovPolicy.deterministic(np.zeros((1, 4)))
        for call in (lambda: simulate(model, one_node, 9, seed=1),
                     lambda: mc_value(model, one_node, 9, 0, 100, seed=1)):
            with pytest.raises(ValueError, match="policy needs at least 2 time nodes"):
                call()


class TestRoundCap:
    """A path still short of the horizon when the round cap is spent is an
    error, in both engines."""

    def test_simulate(self, monkeypatch):
        model = two_state_chain()
        monkeypatch.setattr(sim, "_max_rounds", lambda model: 0)
        with pytest.raises(RuntimeError, match="thinning did not reach the horizon"):
            simulate(model, still_policy(model), 0, seed=0)

    def test_batch(self, monkeypatch):
        model = two_state_chain()
        monkeypatch.setattr(sim, "_max_rounds", lambda model: 1)
        with pytest.raises(RuntimeError, match="batch thinning did not finish"):
            mc_value(model, still_policy(model), 0, 0, 1000, seed=0)

    @pytest.mark.parametrize("diagonal, shown", [(math.nan, "nan"), (-math.inf, "inf")])
    def test_a_non_finite_exit_rate_is_named_not_the_horizon(self, diagonal, shown):
        # an unvalidated model: state 1's diagonal is not a finite rate
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0], [0.0], [0.0]],
            rates=[[[-1.0, 0.5, 0.5]], [[1.0, diagonal, 0.0]], [[0.0, 1.0, -1.0]]],
            costs=[[[0.0], [1.0], [0.0]]], horizon=1.0)
        pol = still_policy(model)
        for call in (lambda: simulate(model, pol, 0, seed=1),
                     lambda: mc_value(model, pol, 0, 0, 100, seed=1)):
            with pytest.raises(ValueError,
                               match=rf"^state 1 has a non-finite exit rate q\* = {shown};"):
                call()


class TestMcValue:
    def test_zero_cost_is_exactly_zero(self):
        model = make_birth_death(1.0, 2.0, m=6, grid=3,
                                 cost_fns=[lambda i, a1, a2: 0.0])
        est = mc_value(model, MarkovPolicy.uniform(model, 3), 0, 0, 500, seed=0)
        assert est.mean == 0.0 and est.se == 0.0

    def test_constant_cost_has_zero_variance(self):
        model = make_birth_death(1.0, 2.0, m=6, grid=3,
                                 cost_fns=[lambda i, a1, a2: 2.0])
        est = mc_value(model, MarkovPolicy.uniform(model, 3), 0, 0, 500, seed=0)
        assert est.mean == pytest.approx(2.0 * model.horizon, abs=1e-12)
        assert est.se < 1e-13

    def test_two_state_value_within_three_se(self):
        model = two_state_chain()
        est = mc_value(model, still_policy(model), 0, 0, 100_000, seed=42)
        assert est.within(TWO_STATE_EXACT, z=3.0)
        assert est.se < 2e-3

    def test_estimates_are_reproducible(self):
        model = make_birth_death(1.0, 2.0, m=8, grid=3)
        pol = MarkovPolicy.uniform(model, n_nodes=5)
        a = mc_value(model, pol, 0, 0, 2000, seed=5)
        b = mc_value(model, pol, 0, 0, 2000, seed=5)
        assert a == b

    def test_dp_policy_value_matches_mc(self):
        model = make_birth_death(1.0, 2.0, m=10, grid=3)
        grid = TimeGrid(model.horizon, 200)
        values, policy = solve_backward(model, grid)
        est = mc_value(model, policy, 0, 0, 50_000, seed=9)
        assert abs(est.mean - values.at_start()[0]) <= 4.0 * est.se + 1e-3

    def test_replicate_floor(self):
        model = two_state_chain()
        with pytest.raises(ValueError):
            mc_value(model, still_policy(model), 0, 0, 1, seed=0)


class TestForwardKolmogorov:
    def test_full_set_balances_exactly(self):
        model = two_state_chain()
        fk = check_forward_kolmogorov(model, still_policy(model), 0, {0, 1}, 1.0,
                                      2000, seed=1)
        assert fk.residual == 0.0 and fk.se == 0.0
        assert fk.occupancy == 1.0 and fk.flow_side == 1.0

    def test_empty_set_balances_exactly(self):
        model = two_state_chain()
        fk = check_forward_kolmogorov(model, still_policy(model), 0, set(), 1.0,
                                      2000, seed=1)
        assert fk.residual == 0.0 and fk.se == 0.0

    def test_two_state_residual_covers_zero(self):
        model = two_state_chain()
        fk = check_forward_kolmogorov(model, still_policy(model), 0, {1}, 1.0,
                                      100_000, seed=3)
        assert fk.covers_zero(z=4.0)
        # the occupancy side alone should be near the transient closed form
        assert fk.occupancy == pytest.approx((1 - math.exp(-2.0)) / 2, abs=0.01)

    def test_birth_death_residual_covers_zero(self):
        model = make_birth_death(1.0, 2.0, m=8, grid=3)
        pol = MarkovPolicy.uniform(model, n_nodes=41)
        fk = check_forward_kolmogorov(model, pol, 0, {0, 1, 2}, 0.8, 50_000, seed=11)
        assert fk.covers_zero(z=4.0)

    def test_time_bounds_enforced(self):
        model = two_state_chain()
        with pytest.raises(ValueError):
            check_forward_kolmogorov(model, still_policy(model), 0, {1}, 1.5, 100, seed=0)

    @pytest.mark.parametrize("replicates", [0, 1])
    def test_replicate_floor(self, replicates):
        model = two_state_chain()
        with pytest.raises(ValueError, match="need at least 2 replicates"):
            check_forward_kolmogorov(model, still_policy(model), 0, {1}, 1.0, replicates,
                                     seed=0)


class TestWeightBound:
    def test_absorbing_model_slack_negative(self):
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[0.0]]],
                                       horizon=1.0, weight=[2.0])
        cert = certify_drift(model, birth_death_certificate(1.0, 1.0, 1.0))
        wb = check_weight_bound(model, cert, still_policy(model), 0, 1.0, 100, seed=0)
        assert wb.estimate.mean == 2.0
        assert wb.slack < 0 and wb.statistically_ok()

    @pytest.mark.parametrize("t", [-0.1, 1.5])
    def test_time_bounds_enforced(self, t):
        model = two_state_chain()
        cert = certify_drift(model, birth_death_certificate(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="need 0 <= t <= horizon"):
            check_weight_bound(model, cert, still_policy(model), 0, t, 100, seed=0)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_replicate_floor(self, t):
        model = two_state_chain()
        cert = certify_drift(model, birth_death_certificate(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="need at least 2 replicates"):
            check_weight_bound(model, cert, still_policy(model), 0, t, 1, seed=0)

    def test_time_zero_collapses_to_weight(self):
        model = two_state_chain()
        cert = certify_drift(model, birth_death_certificate(1.0, 1.0, 1.0))
        wb = check_weight_bound(model, cert, still_policy(model), 0, 0.0, 100, seed=0)
        assert wb.estimate.mean == 1.0 and wb.estimate.se == 0.0
        assert wb.slack == pytest.approx(0.0, abs=1e-12)
        assert wb.statistically_ok()

    def test_birth_death_bound_holds_statistically(self):
        model = make_birth_death(1.0, 2.0, m=20, grid=3)
        cert = certify_drift(model, birth_death_certificate(
            1.0, 2.0, cost_bound_from_tables(model)))
        a_mid = list(map(tuple, model.actions(1))).index((0.0, 0.0))
        idx = [0] * model.n_states
        for i in range(1, model.n_states):
            idx[i] = a_mid
        idx[0] = list(map(tuple, model.actions(0))).index((0.0, 0.0))
        pol = MarkovPolicy.constant(model, idx, n_nodes=2)
        wb = check_weight_bound(model, cert, pol, 0, 1.0, 100_000, seed=21)
        assert wb.statistically_ok(z=4.0)
        assert wb.bound == pytest.approx(math.exp(3.0) + (math.exp(3.0) - 1) / 3.0,
                                         rel=1e-12)
        # the actual mean weight sits far below the certificate envelope
        assert wb.estimate.mean < 3.0

    def test_paths_never_leave_the_truncation(self):
        model = make_birth_death(3.0, 0.5, m=4, grid=3)  # strong upward drift
        pol = MarkovPolicy.uniform(model, n_nodes=9)
        for seed in range(20):
            path = simulate(model, pol, 3, seed=seed)
            assert path.states.max() <= model.n_states - 1


def assert_batch_matches_dense(model, policy, i0, n_paths, seed, t_check, per_pair=None):
    """The compacted batch and the full-width oracle, whose integrand is the
    oracle's own kernel average: equal arrays, equal random-stream position
    afterwards."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    acc_a, cap_a = _run_batch(model, policy, i0, n_paths, rng_a, t_check, per_pair)
    integrands = ([] if per_pair is None
                  else [(kernel_average_cells(model, policy, per_pair), t_check)])
    acc_b, cap_b = dense_run_batch(model, policy, i0, n_paths, rng_b, integrands, t_check)
    if per_pair is None:
        assert acc_a is None
    else:
        assert acc_a.dtype == acc_b.dtype and np.array_equal(acc_a, acc_b[:, 0])
    assert cap_a.dtype == cap_b.dtype and np.array_equal(cap_a, cap_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def rate_into(model, subset):
    """Per-pair rate into a state subset, the diagonal included."""
    indicator = np.zeros(model.n_states)
    indicator[list(subset)] = 1.0
    return model.rate_rows @ indicator


def absorbing_model():
    # state 2 has q* = 0; state 1 holds one zero-rate action next to a fast one
    return CtmdpModel.from_tables(
        actions_per_state=[[0.0, 1.0], [0.0, 1.0], [0.0]],
        rates=[[[-2.0, 1.5, 0.5], [-0.5, 0.0, 0.5]],
               [[0.0, 0.0, 0.0], [3.0, -4.0, 1.0]],
               [[0.0, 0.0, 0.0]]],
        costs=[[[1.0, 0.5], [2.0, -1.0], [0.25]]], horizon=1.5)


def batch_cases():
    cases = []
    for seed in range(4):
        rng = np.random.default_rng(300 + seed)
        model = random_instance(rng)
        cases.append((f"random{seed}-det", model, random_policy(rng, model, 9)))
        cases.append((f"random{seed}-rand", model, random_policy(rng, model, 9, randomized=True)))
    model = absorbing_model()
    cases.append(("absorbing-det", model, MarkovPolicy.constant(model, [0, 0, 0], n_nodes=5)))
    cases.append(("absorbing-rand", model, MarkovPolicy.uniform(model, n_nodes=7)))
    model = make_birth_death(1.0, 2.0, m=20, grid=3)
    _, optimal = solve_backward(model, TimeGrid(model.horizon, 200))
    cases.append(("birth-death-optimal", model, optimal))
    cases.append(("birth-death-uniform", model, MarkovPolicy.uniform(model, n_nodes=11)))
    return cases


class TestBatchMatchesDenseOracle:
    CASES = [pytest.param(model, policy, id=name) for name, model, policy in batch_cases()]

    @pytest.mark.parametrize("model,policy", CASES)
    def test_cost_integral_to_the_horizon(self, model, policy):
        assert_batch_matches_dense(model, policy, 0, 3000, 17, model.horizon, model.costs[0])

    @pytest.mark.parametrize("model,policy", CASES)
    def test_interior_rate_integral_and_capture(self, model, policy):
        rates = rate_into(model, {0, model.n_states - 1})
        for i0 in (0, model.n_states - 1):
            assert_batch_matches_dense(model, policy, i0, 2000, (23, i0),
                                       0.4 * model.horizon, rates)

    @pytest.mark.parametrize("model,policy", CASES)
    def test_interior_capture_only(self, model, policy):
        for i0 in (0, model.n_states - 1):
            assert_batch_matches_dense(model, policy, i0, 2000, (23, i0), 0.6 * model.horizon)

    @pytest.mark.parametrize("model,policy", CASES)
    def test_capture_at_the_horizon_only(self, model, policy):
        assert_batch_matches_dense(model, policy, 1, 2000, 29, model.horizon)

    def test_absorbing_start_holds(self):
        model = absorbing_model()
        pol = MarkovPolicy.uniform(model, n_nodes=3)
        acc, cap = _run_batch(model, pol, 2, 50, np.random.default_rng(0), 1.0, model.costs[0])
        assert np.all(cap == 2) and np.all(acc == acc[0])
        assert_batch_matches_dense(model, pol, 2, 50, 0, 1.0, model.costs[0])


class TestBatchEdgesMatchTheDenseOracle:
    """The buffer plan at its edges: a batch of two paths, and a batch whose
    every path reaches the horizon in its first round, so the action,
    acceptance and target steps run on empty prefixes. Each runs an
    integrand and a capture at t_check < T, so the integral's caps apply."""

    @staticmethod
    def policy(model, kind):
        if kind == "uniform":
            return MarkovPolicy.uniform(model, n_nodes=11)
        return solve_backward(model, TimeGrid(model.horizon, 200))[1]

    @pytest.mark.parametrize("kind", ["optimal", "uniform"])
    def test_two_paths(self, kind):
        model = make_birth_death(1.0, 2.0, m=20, grid=3)
        policy = self.policy(model, kind)
        for seed in range(10):
            assert_batch_matches_dense(model, policy, 10, 2, seed, 0.4, rate_into(model, {9, 10}))
            assert_batch_matches_dense(model, policy, 10, 2, seed, 1.0, model.costs[0])

    @pytest.mark.parametrize("kind", ["optimal", "uniform"])
    def test_every_path_finishes_in_its_first_round(self, kind):
        model = make_birth_death(1.0, 2.0, m=20, grid=3, horizon=1e-3)
        policy = self.policy(model, kind)
        i0, n, seed = 10, 100, 24
        clocks = np.random.default_rng(seed).standard_exponential(n) / model.q_star[i0]
        assert clocks.min() >= model.horizon  # no proposal falls before the horizon
        assert_batch_matches_dense(model, policy, i0, n, seed, 0.5 * model.horizon,
                                   rate_into(model, {9, 10}))

    def test_a_fortran_ordered_kernel_is_stored_c_contiguous(self):
        # the batch gathers kernel rows by flat index, which would copy a
        # non-contiguous kernel every round
        model = make_birth_death(1.0, 2.0, m=20, grid=3)
        kernel = np.asfortranarray(self.policy(model, "uniform").action_probs)
        policy = MarkovPolicy.randomized(kernel)
        assert policy.action_probs.flags.c_contiguous
        assert_batch_matches_dense(model, policy, 10, 200, 3, 0.4, rate_into(model, {9, 10}))


def dense_jump_count(model, ka, u):
    """The full-row target choice: count of cumsum(row / diag) entries below u,
    clipped to the last state, argmax where the chosen entry has no mass."""
    i = model.pair_state[ka]
    rows = model.rate_rows[ka].copy()
    rows[np.arange(rows.shape[0]), i] = 0.0
    rows /= np.abs(model.rate_rows[ka, i])[:, None]
    j = (np.cumsum(rows, axis=1) < u[:, None]).sum(axis=1)
    j = np.minimum(j, model.n_states - 1)
    bad = rows[np.arange(rows.shape[0]), j] <= 0.0
    j[bad] = np.argmax(rows[bad], axis=1)
    return j


def jump_targets(jumps, ka, u):
    """sim._jump_targets into fresh buffers."""
    return _jump_targets(jumps, ka, u, np.empty(ka.size, np.int64), np.empty(ka.size, np.int64))


def slot_search_models():
    rng = np.random.default_rng(5)
    yield make_birth_death(1.0, 2.0, m=20, grid=3)
    yield absorbing_model()
    for _ in range(3):
        yield random_instance(rng)
    # state 0's normalized row sums to 0.9999999999999997, below the largest
    # uniform draw; state 1 has a row with negative off-diagonal entries
    yield CtmdpModel.from_tables(
        actions_per_state=[[0.0], [0.0, 1.0], [0.0], [0.0], [0.0], [0.0]],
        rates=[[[-(0.1 + 0.9 + 0.1 + 0.1 + 0.1), 0.1, 0.9, 0.1, 0.1, 0.1]],
               [[0.0, -1.0, 0.0, 0.0, 0.0, 1.0], [2.0, -1.0, -0.5, -0.5, 0.0, 0.0]],
               [[0.0, 0.0, -1.0, 1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0, -1.0, 0.0, 0.0]],
               [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 3.0, 0.0, 0.0, -3.0]]],
        costs=[[[0.0], [0.0, 0.0], [0.0], [0.0], [0.0], [0.0]]], horizon=1.0)


def signed_entry_model():
    """Rows with a NaN off-diagonal entry under a finite exit rate, -0.0
    entries and -1e-12 entries, in leading, middle and last columns."""
    return CtmdpModel.from_tables(
        actions_per_state=[[0.0], [0.0, 1.0], [0.0], [0.0]],
        rates=[[[-1.0, math.nan, 0.5, -0.0]],
               [[-0.0, -2.0, -1e-12, 1.0], [0.5, -0.5, -0.0, 0.0]],
               [[0.25, 0.25, -1.0, 0.5]], [[-1e-12, 0.5, math.nan, -1.0]]],
        costs=[[[0.0], [0.0, 0.0], [0.0], [0.0]]], horizon=1.0)


def edge_model():
    """State 0's normalized row has its breakpoints 0.25 and 0.75 exactly on
    bucket edges and a zero first column; state 1 holds a zero-rate pair next
    to a row whose first column is nonzero, with the same breakpoints."""
    return CtmdpModel.from_tables(
        actions_per_state=[[0.0], [0.0, 1.0], [0.0], [0.0]],
        rates=[[[-1.0, 0.25, 0.5, 0.25]],
               [[0.0, 0.0, 0.0, 0.0], [1.0, -4.0, 2.0, 1.0]],
               [[0.0, 1.0, -1.0, 0.0]], [[0.5, 0.0, 0.0, -0.5]]],
        costs=[[[0.0], [0.0, 0.0], [0.0], [0.0]]], horizon=1.0)


class TestDrawLocal:
    """The randomized action rule both thinning engines apply."""

    def test_a_draw_at_the_row_total_takes_the_last_action_with_mass(self):
        rows = np.array([[0.25, 0.75, 0.0]])
        assert _draw_local(rows, 3, np.array([1.0])).tolist() == [1]

    def test_a_draw_above_the_row_total_clips_then_takes_the_argmax(self):
        # row 0 ends in a zero-mass action; row 1 has one padding column
        rows = np.array([[0.25, 0.75, 0.0], [0.5, 0.0, 0.0]])
        u = np.array([1.5, np.nextafter(1.0, 2.0)])
        assert _draw_local(rows, np.array([3, 2]), u).tolist() == [1, 0]

    def test_a_zero_draw_on_a_zero_mass_first_action_takes_the_argmax(self):
        rows = np.array([[0.0, 0.25, 0.75]])
        assert _draw_local(rows, 3, np.array([0.0])).tolist() == [2]


class TestRunBatchSeed:
    def test_a_seed_and_its_generator_give_the_same_batch(self):
        model = make_birth_death(1.0, 2.0, m=5, grid=3)
        pol = MarkovPolicy.uniform(model, n_nodes=5)
        cost = model.costs[0]
        acc_a, cap_a = _run_batch(model, pol, 0, 300, 8, 0.5, cost)
        acc_b, cap_b = _run_batch(model, pol, 0, 300, np.random.default_rng(8), 0.5, cost)
        assert np.array_equal(acc_a, acc_b) and np.array_equal(cap_a, cap_b)
        assert not np.array_equal(acc_a, _run_batch(model, pol, 0, 300, 9, 0.5, cost)[0])


class TestJumpTableReuse:
    def test_simulate_and_the_batch_engine_share_one_table(self, monkeypatch):
        model = two_state_chain(horizon=8.0)
        pol = still_policy(model)
        table = _jump_table(model)

        def no_build(**fields):
            raise AssertionError("a second jump table was built for the model")

        monkeypatch.setattr(sim, "_JumpTable", no_build)
        for seed in range(3):
            simulate(model, pol, 0, seed=seed)
        mc_value(model, pol, 0, 0, 200, seed=4)
        assert _jump_table(model) is table
        assert not any(arr.flags.writeable for arr in vars(table).values())

    def test_the_table_keeps_no_model_alive(self):
        model = two_state_chain()
        simulate(model, still_policy(model), 0, seed=1)
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None
        assert not sim._jumps  # the table went with its model

    def test_a_new_model_gets_its_own_table(self):
        a, b = two_state_chain(), make_birth_death(1.0, 2.0, m=4, grid=2)
        table_a = _jump_table(a)
        assert _jump_table(b).cum.shape == (b.n_pairs, b.n_states)
        assert _jump_table(a) is not table_a
        assert np.array_equal(_jump_table(a).cum, table_a.cum)


class TestGuideBuild:
    @pytest.mark.parametrize("block", [1, 7, 64, 10**6])
    def test_equals_an_unblocked_build(self, monkeypatch, block):
        # birth-death m = 60 has 534 pairs, so the blocks of 7 and of 64 leave
        # a short last block
        monkeypatch.setattr(sim, "_GUIDE_BLOCK", block)
        edges = np.arange(_GUIDE + 1) / _GUIDE
        for model in [make_birth_death(1.0, 2.0, m=60, grid=3), *slot_search_models(),
                      edge_model(), signed_entry_model()]:
            jumps = _jump_table(model)
            pairs = np.arange(model.n_pairs)[:, None]
            count = (jumps.cum[:, None, :] < edges[:, None]).sum(axis=2)  # the dense count
            want = np.full((model.n_pairs, _GUIDE + 1), -1, dtype=np.int64)
            want[:, :-1] = np.where(count[:, :-1] == count[:, 1:],
                                    sim._target(jumps, pairs, count[:, :-1]), -1)
            assert np.array_equal(jumps.guide, want.ravel())

    def test_build_peak_is_below_twice_the_table(self):
        # (pairs x 257) temporaries formed for every pair at once would peak
        # at 4.87 MB traced for a 1.38 MB table
        model = make_birth_death(1.0, 2.0, m=60, grid=3)

        def build():
            sim._jumps.clear()
            return _jump_table(model)

        kept = sum(arr.nbytes for arr in vars(build()).values())
        peak = traced_peak(build)
        assert peak < 2 * kept, f"build peak {peak} B, table {kept} B"


class TestBatchWorkingSet:
    """A batch holds its outputs, its scratch buffers and a pool as deep as
    its busiest step. Measured on a deterministic policy: 14.0 eight-byte
    numbers per path for mc_value and check_forward_kolmogorov, and 10.8 for
    check_weight_bound."""

    @pytest.mark.parametrize("route, numbers", [("mc_value", 16), ("check_weight_bound", 12),
                                                ("check_forward_kolmogorov", 16)])
    def test_peak_per_path(self, route, numbers):
        model = make_birth_death(1.0, 2.0, m=20, grid=3)
        _, policy = solve_backward(model, TimeGrid(1.0, 120))
        cert, n = birth_death_certificate(1.0, 2.0), 20000
        run = {"mc_value": lambda: mc_value(model, policy, 10, 0, n, seed=1),
               "check_weight_bound": lambda: check_weight_bound(
                   model, cert, policy, 10, 0.5, n, seed=1),
               "check_forward_kolmogorov": lambda: check_forward_kolmogorov(
                   model, policy, 10, [9, 10], 0.5, n, seed=1)}[route]
        peak = traced_peak(run)
        assert peak < 8 * numbers * n, f"peak {peak / n:.1f} B per path"


class TestJumpSlotSearch:
    @pytest.mark.parametrize("model", list(slot_search_models()),
                             ids=["birth-death", "absorbing", "random0", "random1",
                                  "random2", "handmade"])
    def test_equals_the_dense_count(self, model):
        jumps = _jump_table(model)
        ka_all = np.flatnonzero(model.exit_rate > 0.0)
        for ka in ka_all:
            row = jumps.cum[ka]
            us = np.concatenate([[0.0, np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0)],
                                 row, np.nextafter(row, -np.inf), np.nextafter(row, np.inf)])
            us = us[(us >= 0.0) & (us < 1.0)]
            kas = np.full(us.size, ka)
            assert np.array_equal(jump_targets(jumps, kas, us), dense_jump_count(model, kas, us))

    def test_zero_draw_and_draw_above_the_row_sum(self):
        model = list(slot_search_models())[-1]
        jumps = _jump_table(model)
        for ka in np.flatnonzero(model.exit_rate > 0.0):
            total = jumps.cum[ka, -1]
            us = np.array([0.0, np.nextafter(total, np.inf), 2.0])
            kas = np.full(3, ka)
            assert np.array_equal(jump_targets(jumps, kas, us), dense_jump_count(model, kas, us))
        # pair 0's row sums below one, so a draw in [0, 1) can pass its end
        total = jumps.cum[0, -1]
        assert total < 1.0
        u = np.array([np.nextafter(total, np.inf)])
        assert u[0] < 1.0
        assert jump_targets(jumps, np.array([0]), u)[0] == model.n_states - 1

    @pytest.mark.parametrize("model", [*slot_search_models(), edge_model(),
                                       signed_entry_model()],
                             ids=["birth-death", "absorbing", "random0", "random1",
                                  "random2", "handmade", "edges", "signed-entries"])
    def test_equals_the_dense_count_at_every_bucket_edge(self, model):
        jumps = _jump_table(model)
        edges = np.arange(_GUIDE + 1) / _GUIDE
        us = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                             [2.0]])
        us = us[us >= 0.0]
        # every pair, zero-rate ones included; their dense rows are 0 / 0
        with np.errstate(divide="ignore", invalid="ignore"):
            for ka in range(model.n_pairs):
                kas = np.full(us.size, ka)
                assert np.array_equal(jump_targets(jumps, kas, us),
                                      dense_jump_count(model, kas, us))

    def test_only_buckets_holding_a_breakpoint_are_searched(self):
        model = edge_model()
        guide = _jump_table(model).guide.reshape(model.n_pairs, _GUIDE + 1)
        # pair 0: lead column 1, so the count steps in bucket 0 as well as at
        # 0.25 and 0.75; the last column (u >= 1) always goes to the search
        assert np.flatnonzero(guide[0] < 0).tolist() == [0, 64, 192, _GUIDE]
        # pair 2 (state 1, action 1): first column nonzero, so bucket 0 is resolved
        assert np.flatnonzero(guide[2] < 0).tolist() == [64, 192, _GUIDE]
        assert guide[2, 0] == 0 and guide[2, 100] == 2 and guide[2, 255] == 3


def sparse_instance(rng):
    """Random 2-6 state model whose rows keep about half their off-diagonal
    entries; about one pair in five has no exit rate at all."""
    n = int(rng.integers(2, 7))
    actions, rates = [], []
    for i in range(n):
        k = int(rng.integers(1, 4))
        rows = rng.uniform(0.0, 3.0, size=(k, n)) * (rng.random((k, n)) < 0.5)
        rows[rng.random(k) < 0.2] = 0.0
        rows[:, i] = 0.0
        rows[:, i] = -rows.sum(axis=1)
        actions.append([float(a) for a in range(k)])
        rates.append(rows.tolist())
    costs = [[[0.0] * len(acts) for acts in actions]]
    return CtmdpModel.from_tables(actions, rates, costs, horizon=float(rng.uniform(0.5, 2.0)))


def loop_oracle_cases():
    rng = np.random.default_rng(41)
    cases = []
    for r in range(6):
        model = sparse_instance(rng)
        cases.append((f"sparse{r}-det", model, random_policy(rng, model, 7)))
        cases.append((f"sparse{r}-uniform", model, MarkovPolicy.uniform(model, n_nodes=5)))
    model = list(slot_search_models())[-1]
    cases.append(("handmade-det", model, MarkovPolicy.constant(model, [0, 1, 0, 0, 0, 0])))
    cases.append(("handmade-uniform", model, MarkovPolicy.uniform(model, n_nodes=3)))
    for m in (5, 20, 60):
        model = make_birth_death(1.0, 2.0, m=m, grid=3)
        cases.append((f"birth-death-m{m}-det", model, random_policy(rng, model, 11)))
        cases.append((f"birth-death-m{m}-uniform", model, MarkovPolicy.uniform(model, n_nodes=11)))
    return cases


class TestSimulateMatchesLoopOracle:
    @pytest.mark.parametrize("model,policy",
                             [pytest.param(m, p, id=name) for name, m, p in loop_oracle_cases()])
    def test_same_path_for_every_seed(self, model, policy):
        for seed in range(12):
            for i0 in sorted({0, model.n_states // 2, model.n_states - 1}):
                a = simulate(model, policy, i0, seed=(seed, i0))
                b = loop_simulate(model, policy, i0, seed=(seed, i0))
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.states, b.states)
                assert np.array_equal(a.action_indices, b.action_indices)
