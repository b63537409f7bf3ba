import math

import numpy as np
import pytest

from ctmdp.dp import TimeGrid, solve_backward
from ctmdp.model import (CtmdpModel, MarkovPolicy, birth_death_certificate,
                         cost_bound_from_tables, certify_drift, make_birth_death)
from ctmdp.sim import (_GUIDE, _jump_table, _jump_targets, _run_batch, check_forward_kolmogorov,
                       check_weight_bound, kernel_cost_cells, kernel_set_rate_cells,
                       mc_value, simulate)
from oracles import dense_run_batch, loop_simulate, random_instance, random_policy

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


class TestWeightBound:
    def test_absorbing_model_slack_negative(self):
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[0.0]]],
                                       horizon=1.0, weight=[2.0])
        cert = certify_drift(model, birth_death_certificate(1.0, 1.0, 1.0))
        wb = check_weight_bound(model, cert, still_policy(model), 0, 1.0, 100, seed=0)
        assert wb.estimate.mean == 2.0
        assert wb.slack < 0 and wb.statistically_ok()

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


def assert_batch_matches_dense(model, policy, i0, n_paths, seed, integrands=(),
                               capture_time=None):
    """The compacted batch and the full-width oracle: equal arrays, equal
    random-stream position afterwards."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    acc_a, cap_a = _run_batch(model, policy, i0, n_paths, rng_a, integrands, capture_time)
    acc_b, cap_b = dense_run_batch(model, policy, i0, n_paths, rng_b, integrands, capture_time)
    assert acc_a.dtype == acc_b.dtype and cap_a.dtype == cap_b.dtype
    assert np.array_equal(acc_a, acc_b)
    assert np.array_equal(cap_a, cap_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


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
        table = kernel_cost_cells(model, policy, 0)
        assert_batch_matches_dense(model, policy, 0, 3000, 17,
                                   integrands=[(table, model.horizon)])

    @pytest.mark.parametrize("model,policy", CASES)
    def test_early_end_and_interior_capture(self, model, policy):
        T = model.horizon
        rates = kernel_set_rate_cells(model, policy, {0, model.n_states - 1})
        costs = kernel_cost_cells(model, policy, 0)
        for i0 in (0, model.n_states - 1):
            assert_batch_matches_dense(model, policy, i0, 2000, (23, i0),
                                       integrands=[(rates, 0.4 * T), (costs, T)],
                                       capture_time=0.6 * T)

    @pytest.mark.parametrize("model,policy", CASES)
    def test_capture_at_the_horizon_only(self, model, policy):
        assert_batch_matches_dense(model, policy, 1, 2000, 29, capture_time=model.horizon)

    def test_absorbing_start_holds(self):
        model = absorbing_model()
        pol = MarkovPolicy.uniform(model, n_nodes=3)
        table = kernel_cost_cells(model, pol, 0)
        acc, cap = _run_batch(model, pol, 2, 50, np.random.default_rng(0),
                              [(table, model.horizon)], capture_time=1.0)
        assert np.all(cap == 2) and np.all(acc[:, 0] == acc[0, 0])
        assert_batch_matches_dense(model, pol, 2, 50, 0, [(table, model.horizon)], 1.0)


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


class TestJumpSlotSearch:
    @pytest.mark.parametrize("model", list(slot_search_models()),
                             ids=["birth-death", "absorbing", "random0", "random1",
                                  "random2", "handmade"])
    def test_equals_the_dense_count(self, model):
        jumps = _jump_table(model)
        ka_all = np.flatnonzero(model.exit_rate > 0.0)
        for ka in ka_all:
            row = np.cumsum(jumps.normalized[ka])
            us = np.concatenate([[0.0, np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0)],
                                 row, np.nextafter(row, -np.inf), np.nextafter(row, np.inf)])
            us = us[(us >= 0.0) & (us < 1.0)]
            kas = np.full(us.size, ka)
            assert np.array_equal(_jump_targets(jumps, kas, us), dense_jump_count(model, kas, us))

    def test_zero_draw_and_draw_above_the_row_sum(self):
        model = list(slot_search_models())[-1]
        jumps = _jump_table(model)
        for ka in np.flatnonzero(model.exit_rate > 0.0):
            total = np.cumsum(jumps.normalized[ka])[-1]
            us = np.array([0.0, np.nextafter(total, np.inf), 2.0])
            kas = np.full(3, ka)
            assert np.array_equal(_jump_targets(jumps, kas, us), dense_jump_count(model, kas, us))
        # pair 0's row sums below one, so a draw in [0, 1) can pass its end
        total = np.cumsum(jumps.normalized[0])[-1]
        assert total < 1.0
        u = np.array([np.nextafter(total, np.inf)])
        assert u[0] < 1.0
        assert _jump_targets(jumps, np.array([0]), u)[0] == model.n_states - 1

    @pytest.mark.parametrize("model", list(slot_search_models()) + [edge_model()],
                             ids=["birth-death", "absorbing", "random0", "random1",
                                  "random2", "handmade", "edges"])
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
                assert np.array_equal(_jump_targets(jumps, kas, us),
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
