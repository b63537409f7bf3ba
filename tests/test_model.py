import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from ctmdp.dp import TimeGrid, check_value_envelope, solve_backward
from ctmdp.lp_core import LpProblem, solve_lp
from ctmdp.model import (CtmdpModel, DriftCertificate, MarkovPolicy,
                         ModelFormatError, auto_certificate,
                         birth_death_certificate, certify_drift,
                         cost_bound_from_tables, load_model, make_birth_death,
                         linear_cost, model_from_dict, model_to_dict, validate_model)
from ctmdp.occupation import lagrangian_dual, occupation_of_policy
from ctmdp.sim import _jump_table, simulate
from oracles import (loop_birth_death_tables, loop_model_to_dict, random_instance,
                     sum_auto_certificate)


def two_state_chain(horizon=1.0):
    return CtmdpModel.from_tables(
        actions_per_state=[[0.0], [0.0]],
        rates=[[[-1.0, 1.0]], [[1.0, -1.0]]],
        costs=[[[0.0], [1.0]]],
        horizon=horizon, weight=[1.0, 2.0])


class TestValidate:
    def test_birth_death_preset_is_clean(self):
        model = make_birth_death(1.0, 2.0, m=10, grid=3)
        assert validate_model(model) == []

    def test_row_sum_defect_reported_with_residual(self):
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0], [0.0]],
            rates=[[[-0.5, 1.0]], [[0.0, 0.0]]],
            costs=[[[0.0], [0.0]]], horizon=1.0)
        violations = validate_model(model)
        assert len(violations) == 1
        v = violations[0]
        assert v.code == "row_sum" and v.state == 0 and v.action == 0
        assert v.residual == pytest.approx(0.5, abs=1e-15)

    def test_zero_generator_is_conservative(self):
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[0.0]]], horizon=1.0)
        assert validate_model(model) == []

    def test_negative_offdiagonal_flagged(self):
        model = CtmdpModel.from_tables(
            actions_per_state=[[0.0], [0.0]],
            rates=[[[1.0, -1.0]], [[1.0, -1.0]]],
            costs=[[[0.0], [0.0]]], horizon=1.0)
        codes = {v.code for v in validate_model(model)}
        assert "negative_rate" in codes

    def test_bad_initial_dist_flagged(self):
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[0.0]]],
                                       horizon=1.0, initial_dist=[0.7])
        assert any(v.code == "initial_dist" for v in validate_model(model))

    def test_weight_below_one_flagged(self):
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[0.0]]],
                                       horizon=1.0, weight=[0.5])
        assert any(v.code == "weight" for v in validate_model(model))

    def test_state_without_actions_flagged(self):
        # equal offsets 1, 1: state 1 owns no pair
        model = CtmdpModel(n_states=2, action_offsets=[0, 1, 1], action_points=np.zeros((1, 1)),
                           rate_rows=np.zeros((1, 2)), costs=np.zeros((1, 1)),
                           constraint_bounds=[], horizon=1.0, initial_dist=[1.0, 0.0],
                           weight=np.ones(2))
        empty = [v for v in validate_model(model) if v.code == "empty_actions"]
        assert [v.state for v in empty] == [1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field, code", [("costs", "nonfinite_cost"),
                                             ("weight", "nonfinite_weight"),
                                             ("initial_dist", "initial_dist")])
    def test_non_finite_entry_flagged(self, field, code, bad):
        tables = {"costs": [[[0.0], [1.0]]], "weight": [1.0, 2.0], "initial_dist": [0.0, 1.0]}
        tables[field] = [[[0.0], [bad]]] if field == "costs" else [0.0, bad]
        model = CtmdpModel.from_tables([[0.0], [0.0]], [[[-1.0, 1.0]], [[1.0, -1.0]]],
                                       horizon=1.0, **tables)
        flagged = [v for v in validate_model(model) if v.code == code]
        assert flagged and flagged[0].state in (1, None)


class TestConstruction:
    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(ModelFormatError, match="horizon must be finite and positive"):
            two_state_chain(horizon=horizon)

    @pytest.mark.parametrize("level", [0.0, -3.0, math.inf, math.nan])
    def test_truncation_level_must_be_finite_and_positive(self, level):
        with pytest.raises(ModelFormatError,
                           match="truncation_level must be finite and positive"):
            CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[0.0]]], horizon=1.0,
                                   truncation_level=level)

    @pytest.mark.parametrize("change, message", [
        ({"action_offsets": [0, 2, 1]}, "action_offsets must be a nondecreasing"),
        ({"action_offsets": [1, 2, 3]}, "action_offsets must be a nondecreasing"),
        ({"action_points": np.zeros((3, 1))}, "action_points has 3 rows, expected 2"),
        ({"rate_rows": np.zeros((2, 3))}, r"rate_rows shape \(2, 3\), expected \(2, 2\)"),
        ({"costs": np.zeros((1, 3))}, r"costs shape \(1, 3\), expected \(\*, 2\)"),
        ({"constraint_bounds": [1.0]}, "1 constraint bounds for 1 cost tables"),
        ({"constraint_bounds": [math.nan], "costs": np.zeros((2, 2))},
         "constraint_bounds must be finite"),
        ({"initial_dist": [1.0]}, "initial_dist and weight must have one entry per state"),
        ({"weight": [1.0, 1.0, 1.0]}, "initial_dist and weight must have one entry per state"),
    ], ids=["offsets-decrease", "offsets-start", "points", "rates", "costs", "bound-count",
            "bound-nan", "initial-dist", "weight"])
    def test_shape_errors_name_the_field(self, change, message):
        fields = dict(n_states=2, action_offsets=[0, 1, 2], action_points=np.zeros((2, 1)),
                      rate_rows=np.zeros((2, 2)), costs=np.zeros((1, 2)), constraint_bounds=[],
                      horizon=1.0, initial_dist=[1.0, 0.0], weight=[1.0, 1.0])
        with pytest.raises(ModelFormatError, match=message):
            CtmdpModel(**{**fields, **change})

    def test_pair_index_out_of_range(self):
        model = make_birth_death(1.0, 2.0, m=3, grid=2)
        assert model.pair_index(1, 3) == 2 + 3
        for a in (-1, 4):
            with pytest.raises(IndexError, match=f"state 1 has 4 actions, asked for {a}"):
                model.pair_index(1, a)

    @pytest.mark.parametrize("offsets", [[0, 2, 2, 3], [0, 1, 4, 4], [0, 0, 0, 0], [0]])
    def test_padded_pair_maps_match_a_per_state_fill(self, offsets):
        n, n_pairs = len(offsets) - 1, offsets[-1]
        model = CtmdpModel(n_states=n, action_offsets=offsets,
                           action_points=np.zeros((n_pairs, 1)),
                           rate_rows=np.zeros((n_pairs, n)), costs=np.zeros((1, n_pairs)),
                           constraint_bounds=[], horizon=1.0,
                           initial_dist=np.full(n, 1.0 / max(n, 1)), weight=np.ones(n))
        n_max = max(int(np.diff(offsets).max(initial=0)), 1)
        index = np.full((n, n_max), n_pairs, dtype=np.int64)  # padding: one past every pair
        for i in range(n):
            index[i, :offsets[i + 1] - offsets[i]] = np.arange(offsets[i], offsets[i + 1])
        assert model.pad_index.dtype == np.int64
        assert np.array_equal(model.pad_index, index)


class TestBirthDeathPreset:
    def test_interior_rates_match_the_table(self):
        model = make_birth_death(1.0, 2.0, m=10, grid=3)
        # action (0,0) at state 1 is local index 4 of the 3x3 grid
        a = list(map(tuple, model.actions(1))).index((0.0, 0.0))
        assert model.rate(1, a, 2) == pytest.approx(1.0)
        assert model.rate(1, a, 0) == pytest.approx(2.0)
        assert model.rate(1, a, 1) == pytest.approx(-3.0)

    def test_minimal_birth_control_absorbs_state_zero(self):
        model = make_birth_death(1.0, 2.0, m=5, grid=3)
        a = list(map(tuple, model.actions(0))).index((-1.0, 0.0))
        assert model.rate(0, a, 1) == 0.0
        assert model.q_star[0] > 0  # other actions still move

    def test_boundary_rows_stay_conservative(self):
        model = make_birth_death(1.3, 0.7, m=6, grid=4)
        i = 5
        for a in range(model.n_actions(i)):
            row = model.rate_rows[model.pair_index(i, a)]
            assert abs(row.sum()) < 1e-12
            assert row[i - 1] >= 0 and np.all(row[i + 1:] == 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelFormatError):
            make_birth_death(0.0, 1.0, m=5, grid=3)
        with pytest.raises(ModelFormatError):
            make_birth_death(1.0, -1.0, m=5, grid=3)
        with pytest.raises(ModelFormatError):
            make_birth_death(1.0, 1.0, m=1, grid=3)
        with pytest.raises(ModelFormatError):
            make_birth_death(1.0, 1.0, m=5, grid=1)
        with pytest.raises(ModelFormatError, match="one constraint bound per cost table"):
            make_birth_death(1.0, 1.0, m=5, grid=2, constraint_bounds=[0.5])

    def test_state_and_grid_counts_are_integers(self):
        # a float count ended in a numpy TypeError
        for name, counts in (("m", dict(m=5.0, grid=2)), ("m", dict(m=True, grid=2)),
                             ("grid", dict(m=5, grid=2.5)), ("grid", dict(m=5, grid=2.0))):
            with pytest.raises(ModelFormatError, match=f"{name} must be an integer, got "):
                make_birth_death(1.0, 2.0, **counts)
        assert make_birth_death(1.0, 2.0, m=np.int64(5), grid=np.int64(2)).n_pairs == 2 + 4 * 4

    def test_default_start_is_a_point_mass_at_zero(self):
        for model in (make_birth_death(1.0, 2.0, m=4, grid=2), two_state_chain()):
            assert model.initial_dist.tolist() == [1.0] + [0.0] * (model.n_states - 1)

    @pytest.mark.parametrize("lam, mu, m, grid", [(1.0, 2.0, 2, 5), (1.3, 0.7, 6, 4),
                                                  (0.3, 2.9, 20, 2), (2, 1, 7, 3)])
    def test_pair_arrays_match_the_per_pair_loop(self, lam, mu, m, grid):
        cost_fns = [lambda i, a1, a2: float(i), linear_cost(-1.0, 0.5, 0.25, -0.75)]
        model = make_birth_death(lam, mu, m, grid, cost_fns=cost_fns, constraint_bounds=[0.3])
        offsets, points, rates, costs = loop_birth_death_tables(lam, mu, m, grid, cost_fns)
        for got, want in ((model.action_offsets, offsets), (model.action_points, points),
                          (model.rate_rows, rates), (model.costs, costs)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_preset_always_validates(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            lam, mu = rng.uniform(0.2, 3.0, size=2)
            model = make_birth_death(lam, mu, m=int(rng.integers(2, 12)),
                                     grid=int(rng.integers(2, 6)))
            assert validate_model(model) == []


class TestDriftClosedForms:
    """Interior drift sums of the preset admit exact polynomial forms."""

    @pytest.mark.parametrize("lam,mu", [(1.0, 2.0), (2.0, 1.0), (0.7, 0.7)])
    def test_three_drift_sums_interior(self, lam, mu):
        model = make_birth_death(lam, mu, m=12, grid=5)
        w = model.weight
        for i in range(1, 11):
            for a in range(model.n_actions(i)):
                ka = model.pair_index(i, a)
                a1, a2 = model.action_points[ka]
                row = model.rate_rows[ka]
                assert row @ w == pytest.approx((lam - mu) * i + a1 - a2, abs=1e-12)
                assert row @ w**2 == pytest.approx(
                    2 * (lam - mu) * i**2 + (3 * lam - mu + 2 * a1 - 2 * a2) * i
                    + 3 * a1 - a2, abs=1e-12)
                assert row @ w**3 == pytest.approx(
                    3 * (lam - mu) * i**3 + (9 * lam - 3 * mu + 3 * a1 - 3 * a2) * i**2
                    + (7 * lam - mu + 9 * a1 - 3 * a2) * i + 7 * a1 - a2, abs=1e-11)

    def test_specific_substitution(self):
        # i=3, a=(0.5, -1) with lam=1, mu=2: w-drift = (lam-mu)*3 + 0.5 + 1 = -1.5
        model = make_birth_death(1.0, 2.0, m=12, grid=5)
        a = list(map(tuple, model.actions(3))).index((0.5, -1.0))
        assert model.rate_rows[model.pair_index(3, a)] @ model.weight == \
            pytest.approx(-1.5, abs=1e-12)


class TestWeightBound:
    def test_zero_rho1_is_the_linear_limit(self):
        cert = DriftCertificate(rho1=0.0, b1=1.5)
        assert cert.weight_bound(2.0, 3.0) == 2.0 + 1.5 * 3.0
        near = DriftCertificate(rho1=1e-9, b1=1.5).weight_bound(2.0, 3.0)
        assert near == pytest.approx(6.5, rel=1e-8)

    def test_matches_the_closed_form(self):
        cert = DriftCertificate(rho1=3.0, b1=1.0)
        w = np.array([1.0, 2.0])
        expected = math.exp(1.5) * w + (1.0 / 3.0) * (math.exp(1.5) - 1.0)
        assert np.array_equal(cert.weight_bound(w, 0.5), expected)

    def test_overflowing_exponential_is_an_infinite_bound(self):
        cert = DriftCertificate(rho1=1000.0, b1=0.0)
        assert cert.weight_bound(2.0, 1.0) == math.inf
        assert np.all(cert.weight_bound(np.array([1.0, 2.0]), 1.0) == math.inf)


class TestCertifyDrift:
    def test_reference_constants_certify(self):
        for m in (5, 20, 100):
            model = make_birth_death(1.0, 2.0, m=m, grid=3)
            cand = birth_death_certificate(1.0, 2.0, cost_bound_from_tables(model))
            cert = certify_drift(model, cand)
            assert cert.all_satisfied, cert.worst_violation
            assert all(v <= 0.0 for v in cert.worst_violation.values())

    def test_zero_generator_slack(self):
        model = CtmdpModel.from_tables([[0.0]], [[[0.0]]], [[[2.0]]],
                                       horizon=1.0, weight=[3.0])
        cert = certify_drift(model, DriftCertificate(rho1=1.0, b1=0.0, rho2=1.0,
                                                     rho3=1.0, L=1.0, M=2.0 / 3.0))
        assert cert.satisfied["w_drift"]
        # all drift sums are 0, so the slack is exactly -rho1 * w
        assert cert.worst_violation["w_drift"] == pytest.approx(-3.0)

    def test_monotone_in_constants(self):
        rng = np.random.default_rng(7)
        model = make_birth_death(1.5, 0.8, m=8, grid=3)
        base = certify_drift(model, birth_death_certificate(
            1.5, 0.8, cost_bound_from_tables(model)))
        for _ in range(20):
            bumped = DriftCertificate(
                rho1=base.rho1 + rng.uniform(0, 2), b1=base.b1 + rng.uniform(0, 2),
                rho2=base.rho2 + rng.uniform(0, 2), b2=base.b2 + rng.uniform(0, 2),
                rho3=base.rho3 + rng.uniform(0, 2), b3=base.b3 + rng.uniform(0, 2),
                L=base.L + rng.uniform(0, 2), M=base.M + rng.uniform(0, 2))
            cert = certify_drift(model, bumped)
            for key, ok in base.satisfied.items():
                assert not ok or cert.satisfied[key]

    def test_violation_reports_site(self):
        # a certificate tight enough to fail flags the maximizing state-action
        model = make_birth_death(1.0, 2.0, m=10, grid=3)
        cert = certify_drift(model, DriftCertificate(rho1=0.05, b1=0.0, rho2=17.0,
                                                     b2=5.0, rho3=57.0, b3=9.0,
                                                     L=4.0, M=1.0))
        assert not cert.satisfied["w_drift"]
        i, a = cert.worst_site["w_drift"]
        assert 0 <= i < 10 and 0 <= a < model.n_actions(i)
        assert cert.worst_violation["w_drift"] > 0

    def test_auto_certificate_always_satisfied(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_instance(rng)
            assert auto_certificate(model).all_satisfied

    def test_auto_certificate_matches_its_own_drift_sums(self):
        # two certify_drift calls give the constants, slacks and sites of the
        # offsets computed from drift sums formed outside it, bit for bit
        rng = np.random.default_rng(8)
        models = [random_instance(rng, n_costs=2) for _ in range(40)]
        models += [make_birth_death(1.0, 2.0, m=m, grid=3) for m in (2, 20, 150)]
        models.append(CtmdpModel.from_tables([[0.0], [0.0, 1.0]],
                                             [[[0.0, 0.0]], [[0.0, 0.0], [2.0, -2.0]]],
                                             [[[0.0], [0.0, 0.0]]], horizon=1.0))
        for model in models:
            got, want = auto_certificate(model), sum_auto_certificate(model)
            assert got == want

    def test_auto_certificate_on_a_huge_weight_warns_nothing(self):
        # w^3 overflows; certify_drift reads the inf slack as a failure
        model = CtmdpModel.from_tables([[0.0], [0.0]], [[[-1.0, 1.0]], [[1.0, -1.0]]],
                                       [[[0.0], [1.0]]], horizon=1.0, weight=[1.0, 1e150])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = auto_certificate(model)
        assert cert.b1 == 1e150 - 2.0 and cert.b3 == math.inf
        assert not cert.satisfied["w3_drift"] and cert.satisfied["w_drift"]


class TestMarkovPolicy:
    def test_deterministic_kernel_is_one_hot(self):
        model = make_birth_death(1.0, 1.0, m=4, grid=2)
        pol = MarkovPolicy.constant(model, 0, n_nodes=3)
        kernel = pol.kernel(model)
        sums = np.add.reduceat(kernel, model.action_offsets[:-1], axis=1)
        assert np.allclose(sums, 1.0)
        assert set(np.unique(kernel)) <= {0.0, 1.0}

    def test_uniform_policy_normalized(self):
        model = make_birth_death(1.0, 1.0, m=4, grid=3)
        pol = MarkovPolicy.uniform(model, n_nodes=5)
        assert pol.validate(model) == []

    def test_unnormalized_kernel_flagged(self):
        model = make_birth_death(1.0, 1.0, m=3, grid=2)
        probs = MarkovPolicy.uniform(model, n_nodes=2).action_probs.copy()
        probs[0, 0] += 0.25
        bad = MarkovPolicy.randomized(probs)
        assert any(v.code == "policy_norm" for v in bad.validate(model))

    def test_out_of_range_index_flagged(self):
        model = make_birth_death(1.0, 1.0, m=3, grid=2)
        pol = MarkovPolicy.deterministic(np.full((2, 3), 99))
        assert any(v.code == "policy_range" for v in pol.validate(model))

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "greedy", "action_index": np.zeros((2, 3))}, "unknown policy kind 'greedy'"),
        ({"kind": "randomized", "action_index": np.zeros((2, 3))}, "policy table missing"),
        ({"kind": "deterministic", "action_index": [0, 1, 0]}, "must be 2-d"),
    ], ids=["unknown-kind", "missing-table", "1-d-table"])
    def test_construction_errors(self, kwargs, message):
        with pytest.raises(ModelFormatError, match=message):
            MarkovPolicy(**kwargs)

    def test_single_node_flagged(self):
        model = make_birth_death(1.0, 1.0, m=3, grid=2)
        pol = MarkovPolicy.constant(model, 0, n_nodes=1)
        assert [v.code for v in pol.validate(model)] == ["policy_nodes"]

    def test_kernel_of_the_wrong_width_flagged(self):
        model = make_birth_death(1.0, 1.0, m=3, grid=2)
        pol = MarkovPolicy.randomized(np.ones((2, model.n_pairs + 1)))
        assert [v.code for v in pol.validate(model)] == ["policy_shape"]

    def test_nan_kernel_flagged(self):
        model = make_birth_death(1.0, 1.0, m=3, grid=2)
        probs = MarkovPolicy.uniform(model, n_nodes=2).action_probs.copy()
        probs[1, 2] = math.nan
        bad = MarkovPolicy.randomized(probs).validate(model)
        assert [(v.code, v.state) for v in bad] == [("policy_norm", 1)]

    def test_deterministic_table_of_the_wrong_width_flagged(self):
        model = make_birth_death(1.0, 1.0, m=3, grid=2)
        pol = MarkovPolicy.deterministic(np.zeros((2, 4), dtype=int))
        assert [v.code for v in pol.validate(model)] == ["policy_shape"]

    @pytest.mark.parametrize("kind, message", [
        ("range", "action index 3 out of range at node 0, state 0, which has 2 actions"),
        ("norm", r"kernel row \(node 0, state 0\) sums to 1.4"),
        ("negative", "negative kernel mass -1.0 at node 1, state 0"),
        ("nodes", "policy needs at least 2 time nodes"),
        ("shape", "policy table has 9 columns, expected 10")])
    def test_kernel_refuses_what_validate_flags(self, kind, message):
        model = make_birth_death(1.0, 2.0, m=3, grid=2)
        probs = MarkovPolicy.uniform(model, n_nodes=2).action_probs.copy()
        if kind == "range":
            pol = MarkovPolicy.deterministic([[3, 0, 0], [0, 0, 0]])
        elif kind == "norm":
            pol = MarkovPolicy.randomized(1.4 * probs)
        elif kind == "negative":
            probs[1, :2] = [-1.0, 2.0]
            pol = MarkovPolicy.randomized(probs)
        elif kind == "nodes":
            pol = MarkovPolicy.constant(model, 0, n_nodes=1)
        else:
            pol = MarkovPolicy.randomized(probs[:, 1:])
        assert pol.validate(model)
        with pytest.raises(ModelFormatError, match=f"invalid policy: {message}"):
            pol.kernel(model)

    def test_negative_kernel_mass_flagged(self):
        model = make_birth_death(1.0, 1.0, m=3, grid=2)
        probs = MarkovPolicy.uniform(model, n_nodes=2).action_probs.copy()
        probs[1, 0] -= 1.0  # state 0's row keeps its sum of 1
        probs[1, 1] += 1.0
        codes = [v.code for v in MarkovPolicy.randomized(probs).validate(model)]
        assert codes == ["policy_negative"]


class TestModelFiles:
    def test_preset_document_round_trip(self, tmp_path):
        doc = {"preset": "birth_death", "lambda": 1.0, "mu": 2.0, "m": 6,
               "grid": 3, "horizon": 1.5,
               "costs": [{"i": 1.0}, {"const": 0.5, "a1": 0.5}],
               "constraint_bounds": [0.4]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        model, cert = load_model(path)
        assert model.n_states == 6 and model.n_constraints == 1
        assert model.horizon == 1.5
        assert cert is not None and certify_drift(model, cert).all_satisfied

    def test_explicit_document_round_trip(self):
        model = two_state_chain()
        doc = model_to_dict(model)
        again, cert = model_from_dict(doc)
        assert cert is None
        assert np.allclose(again.rate_rows, model.rate_rows)
        assert np.allclose(again.costs, model.costs)
        assert np.allclose(again.weight, model.weight)

    def test_model_to_dict_matches_the_per_entry_loop(self):
        rng = np.random.default_rng(5)
        models = [random_instance(rng, n_costs=2) for _ in range(5)]
        models.append(make_birth_death(1.0, 2.0, m=6, grid=3))
        for model in models:
            assert json.dumps(model_to_dict(model)) == json.dumps(loop_model_to_dict(model))

    def test_unknown_field_rejected(self):
        doc = model_to_dict(two_state_chain())
        doc["surprise"] = 1
        with pytest.raises(ModelFormatError, match="unknown field"):
            model_from_dict(doc)

    def test_unknown_cost_term_rejected(self):
        doc = {"preset": "birth_death", "lambda": 1.0, "mu": 1.0, "m": 3,
               "costs": [{"i2": 1.0}]}
        with pytest.raises(ModelFormatError, match="unknown field"):
            model_from_dict(doc)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ModelFormatError, match="preset"):
            model_from_dict({"preset": "mm1"})

    def test_initial_state_is_a_point_mass(self):
        doc = {**model_to_dict(two_state_chain()), "initial_state": 1}
        del doc["initial_dist"]
        model, _ = model_from_dict(doc)
        assert model.initial_dist.tolist() == [0.0, 1.0]

    def test_initial_dist_and_initial_state_together_rejected(self):
        doc = {**model_to_dict(two_state_chain()), "initial_state": 1}
        with pytest.raises(ModelFormatError, match="give initial_dist or initial_state, not both"):
            model_from_dict(doc)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model(path)


class TestTruncationExample:
    def test_tail_bound_arithmetic(self):
        # lam=1, mu=2, T=1, M=1, gamma=delta_0, m=20:
        # (e^3 * 1 + (1/3)(e^3 - 1)) / 20, evaluated independently here
        model = make_birth_death(1.0, 2.0, m=20, grid=3)
        cert = birth_death_certificate(1.0, 2.0, cost_bound=1.0)
        from ctmdp.dp import truncation_error_bound
        expected = (math.exp(3.0) + (1.0 / 3.0) * (math.exp(3.0) - 1.0)) / 20.0
        assert truncation_error_bound(model, cert) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.32237, abs=5e-6)


@pytest.fixture(scope="module")
def records():
    """One instance of each frozen record that holds arrays, on a small
    constrained birth-death model."""
    model = make_birth_death(1.0, 2.0, m=3, grid=2,
                             cost_fns=[lambda i, a1, a2: i, lambda i, a1, a2: a1],
                             constraint_bounds=[1.0])
    grid = TimeGrid(1.0, 20)
    values, policy = solve_backward(model, grid)
    problem = LpProblem(c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
    return {"MarkovPolicy": policy, "ValueGrid": values,
            "EnvelopeReport": check_value_envelope(model, auto_certificate(model), values),
            "OccupationGrid": occupation_of_policy(model, grid, policy),
            "DualCertificate": lagrangian_dual(model, grid),
            "Trajectory": simulate(model, policy, 0, seed=1),
            "_JumpTable": _jump_table(model),
            "LpProblem": problem, "LpSolution": solve_lp(problem)}


class TestIdentity:
    """Models and the records that hold arrays compare and hash by identity;
    comparing their arrays field by field raised ValueError."""

    def test_a_model_is_a_set_member_and_a_dict_key(self):
        model = two_state_chain()
        assert model in {model}
        assert {model: 1}[model] == 1

    def test_an_equal_model_is_another_key(self):
        model = two_state_chain()
        assert model not in [dataclasses.replace(model)]  # equal tables, another object

    @pytest.mark.parametrize("name", ["MarkovPolicy", "ValueGrid", "EnvelopeReport",
                                      "OccupationGrid", "DualCertificate", "Trajectory",
                                      "_JumpTable", "LpProblem", "LpSolution"])
    def test_a_record_is_not_its_copy(self, records, name):
        record = records[name]
        twin = copy.copy(record)
        assert record not in [twin]
        assert len({record, twin}) == 2
