import json
import math
import warnings
from pathlib import Path

import pytest

from ctmdp.cli import main


def preset_args(*extra, out):
    return ["--preset", "birth-death", "--lam", "1.0", "--mu", "2.0", "--m", "5",
            "--out", str(out), *extra]


TWO_STATE = {"states": 2, "actions_per_state": [[[0.0]], [[0.0]]],
             "rates": [[[-1.0, 1.0]], [[1.0, -1.0]]], "costs": [[[0.0], [1.0]]],
             "horizon": 1.0, "weight": [1.0, 2.0]}


def model_file(tmp_path, text: str) -> str:
    path = tmp_path / "model.json"
    path.write_text(text)
    return str(path)


def read_all_outputs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def exit_code(argv) -> int:
    """The exit code of a run, whether main returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    def test_validate_preset_ok(self, tmp_path, capsys):
        assert main(["validate", *preset_args(out=tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "rho1=3" in text and "b1=1" in text and "L=4" in text
        assert "violations=0" in text

    def test_lambda_spelling_accepted(self, tmp_path):
        assert main(["validate", "--preset", "birth-death", "--lambda", "1.0",
                     "--mu", "2.0", "--m", "4", "--out", str(tmp_path)]) == 0

    def test_validate_broken_model_fails(self, tmp_path):
        doc = {"states": 1, "actions_per_state": [[[0.0]]],
               "rates": [[[0.5]]], "costs": [[[1.0]]], "horizon": 1.0}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(path), "--out", str(tmp_path)]) == 1

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["validate", "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_malformed_json_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["solve", "--model", str(path), "--out", str(tmp_path)]) == 2

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--frobnicate", "--out", str(tmp_path)])
        assert err.value.code == 2

    @pytest.mark.parametrize("command, extra, flags", [
        ("solve", ["--steps", "25000000000000000"], "--m, --agrid or --steps"),
        ("simulate", ["--replicates", "125000000000000000"],
         "--m, --agrid, --steps or --replicates")], ids=["steps", "replicates"])
    def test_oversized_problem_is_usage_error(self, tmp_path, capsys, command, extra, flags):
        # the first large array is 888 PiB, which no address space holds
        code = main([command, *preset_args(*extra, out=tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: the problem is too large to hold in memory (Unable to allocate" in err
        assert err.endswith(f"; reduce {flags}\n")
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())  # nothing written before the refusal

    @pytest.mark.parametrize("command, from_file, flags", [
        ("validate", False, "--m or --agrid"),
        ("simulate", False, "--m, --agrid, --steps or --replicates"),
        ("validate", True, "the model in {model}"),
        ("simulate", True, "the model in {model}, --steps or --replicates")],
        ids=["validate", "simulate", "validate-model-file", "simulate-model-file"])
    def test_out_of_memory_advice_names_the_flags_of_its_command(
            self, tmp_path, capsys, monkeypatch, command, from_file, flags):
        # validate was told to reduce --steps and --replicates, which it does not take,
        # and an error without a message printed "()"
        def out_of_memory(model):
            raise MemoryError()
        monkeypatch.setattr("ctmdp.cli.validate_model", out_of_memory)
        path = model_file(tmp_path, json.dumps(TWO_STATE))
        args = ["--model", path, "--out", str(tmp_path)] if from_file else preset_args(
            out=tmp_path)
        assert main([command, *args]) == 2
        assert capsys.readouterr().err == ("error: the problem is too large to hold in memory; "
                                           f"reduce {flags.format(model=path)}\n")

    @pytest.mark.parametrize("command, extra", [("solve", []), ("constrain", ["--d", "1=0.5"]),
                                                ("simulate", [])],
                             ids=["solve", "constrain", "simulate"])
    def test_stability_violation_reports_required_steps(self, tmp_path, capsys,
                                                        command, extra):
        code = main([command, *preset_args("--steps", "3", *extra, out=tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "n_steps=3 violates the stability cap; use n_steps >=" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, extra", [("validate", []), ("solve", []),
                                                ("constrain", ["--d", "1=0.5"]),
                                                ("simulate", [])],
                             ids=["validate", "solve", "constrain", "simulate"])
    def test_infinite_horizon_flag_is_usage_error(self, tmp_path, capsys, command, extra):
        code = main([command, *preset_args("--horizon", "inf", *extra, out=tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "horizon must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("preset", [True, False], ids=["preset", "explicit"])
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_infinite_horizon_in_model_file_is_usage_error(self, tmp_path, capsys,
                                                           preset, command):
        path = tmp_path / "model.json"
        if preset:
            path.write_text('{"preset": "birth_death", "lambda": 1.0, "mu": 2.0, "m": 4, '
                            '"horizon": Infinity}')
        else:
            path.write_text('{"states": 1, "actions_per_state": [[[0.0]]], '
                            '"rates": [[[0.0]]], "costs": [[[1.0]]], "horizon": Infinity}')
        code = main([command, "--model", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "horizon must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_horizon_too_long_for_any_step_count_fails_cleanly(self, tmp_path, capsys,
                                                              command):
        code = main([command, *preset_args("--horizon", "1e308", out=tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "no finite step count is stable" in err and "Traceback" not in err

    def test_horizon_too_long_to_simulate_is_usage_error(self, tmp_path, capsys):
        # the uniform policy needs no stable step count, so the round cap overflows
        code = main(["simulate", "--preset", "birth-death", "--lam", "1", "--mu", "2",
                     "--m", "3", "--horizon", "1e308", "--policy", "uniform",
                     "--replicates", "2", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: horizon 1e+308 is too long to simulate" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source, named", [
        (["--lam", "nan", "--mu", "2"], "lambda"),
        (["--lam", "1", "--mu", "inf"], "mu"),
        ('{"preset": "birth_death", "lambda": NaN, "mu": 2.0, "m": 4}', "lambda"),
    ], ids=["lam-nan-flag", "mu-inf-flag", "lambda-NaN-literal"])
    def test_non_finite_preset_rate_is_usage_error(self, tmp_path, capsys, source, named):
        if isinstance(source, str):
            args = ["--model", model_file(tmp_path, source), "--out", str(tmp_path)]
        else:
            args = ["--preset", "birth-death", *source, "--m", "5", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", *args])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{named} must be" in err and "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("missing", ["rho1", "b1"])
    def test_certificate_missing_constant_is_usage_error(self, tmp_path, capsys, missing):
        cert = {"rho1": 1.0, "b1": 1.0}
        del cert[missing]
        path = model_file(tmp_path, json.dumps({**TWO_STATE, "drift_certificate": cert}))
        assert main(["solve", "--model", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"missing required field 'drift_certificate.{missing}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, extra", [("solve", []),
                                                ("simulate", ["--replicates", "200"])])
    def test_zero_rho1_certificate_uses_the_linear_bound(self, tmp_path, command, extra):
        cert = {"rho1": 0.0, "b1": 1.0, "L": 5.0, "M": 5.0}
        path = model_file(tmp_path, json.dumps({**TWO_STATE, "drift_certificate": cert}))
        assert main([command, "--model", path, "--steps", "50", *extra,
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report.txt").read_text()
        if command == "solve":  # M T (gamma.w + b1 T) / max w = 5 * 1 * (1 + 1) / 2
            assert "truncation_error_bound=5\n" in report
        else:  # the bound at t = T from i0 = 0: w(0) + b1 T
            assert "wb_bound=2\n" in report

    @pytest.mark.parametrize("level", [0, -2])
    def test_truncation_level_not_positive_is_usage_error(self, tmp_path, capsys, level):
        path = model_file(tmp_path, json.dumps({**TWO_STATE, "truncation_level": level}))
        assert main(["solve", "--model", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "truncation_level must be finite and positive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "solve", "simulate"])
    @pytest.mark.parametrize("field, text, named", [
        ("costs", "[[[NaN], [1.0]]]", "non-finite cost c_0(0,0)"),
        ("weight", "[1.0, NaN]", "non-finite weight[1]"),
    ], ids=["cost-NaN", "weight-NaN"])
    def test_non_finite_table_entry_fails_validation(self, tmp_path, capsys, command,
                                                     field, text, named):
        doc = json.dumps({**TWO_STATE, field: "@"}).replace('"@"', text)
        steps = [] if command == "validate" else ["--steps", "50"]
        code = main([command, "--model", model_file(tmp_path, doc), *steps,
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert (named if command == "validate" else "model fails validation") in err
        assert "Traceback" not in err

    def test_overflowing_values_are_a_domain_failure(self, tmp_path, capsys):
        doc = {**TWO_STATE, "costs": [[[1e308], [1.0]]], "horizon": 4.0}
        path = model_file(tmp_path, json.dumps(doc))
        assert main(["solve", "--model", path, "--steps", "8", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "non-finite value at node" in err and "Traceback" not in err

    @pytest.mark.parametrize("cert", [None, {"rho1": 1.0, "b1": 1e150}], ids=["auto", "declared"])
    def test_weight_too_large_to_certify_is_usage_error(self, tmp_path, capsys, cert):
        # a valid model whose w^3 drift sums overflow: no finite offset b3 fits
        doc = {**TWO_STATE, "weight": [1.0, 1e150]}
        if cert is not None:
            doc["drift_certificate"] = cert
        path = model_file(tmp_path, json.dumps(doc))
        assert main(["validate", "--model", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "weight up to 1e+150" in err and "w3_drift" in err and "Traceback" not in err

    def test_solve_needs_no_w3_certificate(self, tmp_path):
        # solve's envelope uses the w drift alone, which stays finite here
        path = model_file(tmp_path, json.dumps({**TWO_STATE, "weight": [1.0, 1e150]}))
        assert main(["solve", "--model", path, "--steps", "8", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command, source", [
        ("solve", {**TWO_STATE, "costs": [[[1e308], [1.0]]], "horizon": 4.0}),
        ("validate", json.dumps({**TWO_STATE, "weight": [1.0, math.inf]})),
        ("validate", ["--preset", "birth-death", "--lam", "1e308", "--mu", "2", "--m", "5"]),
    ], ids=["cost-1e308", "weight-Infinity", "lam-1e308"])
    def test_extreme_accepted_tables_warn_nothing(self, tmp_path, capsys, command, source):
        if isinstance(source, list):
            args = source
        else:
            text = source if isinstance(source, str) else json.dumps(source)
            args = ["--model", model_file(tmp_path, text)]
        steps = ["--steps", "8"] if command == "solve" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, *args, *steps, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert caught == [] and "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("rho1", [1000.0, 1.0])
    def test_zero_cost_bound_is_a_zero_envelope(self, tmp_path, capsys, rho1):
        # no M: the envelope and the truncation bound are 0 even where
        # e^{rho1 T} overflows, so the nonzero values violate the envelope
        cert = {"rho1": rho1, "b1": 0.0}
        path = model_file(tmp_path, json.dumps({**TWO_STATE, "drift_certificate": cert}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--model", path, "--steps", "50",
                         "--out", str(tmp_path)]) == 1
        report = (tmp_path / "report.txt").read_text()
        assert "truncation_error_bound=0\n" in report and "nan" not in report
        assert "envelope_violations=0" not in report

    @pytest.mark.parametrize("doc", [
        {**TWO_STATE, "costs": []},
        {"preset": "birth_death", "lambda": 1.0, "mu": 2.0, "m": 2, "costs": []},
    ], ids=["explicit", "preset"])
    def test_empty_costs_is_usage_error(self, tmp_path, capsys, doc):
        path = model_file(tmp_path, json.dumps(doc))
        assert main(["solve", "--model", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "costs must hold at least one cost table" in err and "Traceback" not in err

    @pytest.mark.parametrize("entry", [None, "x", {}, True], ids=["null", "str", "obj", "bool"])
    @pytest.mark.parametrize("field, table", [
        ("actions_per_state", [[["@"]], [[0.0]]]), ("rates", [[["@", 1.0]], [[1.0, -1.0]]]),
        ("costs", [[["@"], [1.0]]]), ("weight", [1.0, "@"]), ("initial_dist", ["@", 1.0]),
    ])
    def test_non_numeric_table_entry_is_usage_error(self, tmp_path, capsys, field, table,
                                                    entry):
        doc = json.dumps({**TWO_STATE, field: table}).replace('"@"', json.dumps(entry))
        assert main(["validate", "--model", model_file(tmp_path, doc),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be a list" in err and "of numbers" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, table", [
        ("actions_per_state", [[[[0.0]]], [[0.0]]]), ("costs", [[[[0.0]], [1.0]]]),
        ("weight", [[1.0], 2.0]), ("constraint_bounds", [[0.5]]),
    ])
    def test_table_nested_too_deep_is_usage_error(self, tmp_path, capsys, field, table):
        doc = {**TWO_STATE, "costs": [[[0.0], [1.0]], [[0.0], [1.0]]],
               "constraint_bounds": [0.5], field: table}
        path = model_file(tmp_path, json.dumps(doc))
        assert main(["validate", "--model", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be a list" in err and "Traceback" not in err

    @pytest.mark.parametrize("depth", [400, 5000])
    def test_deeply_nested_json_is_usage_error(self, tmp_path, capsys, depth):
        doc = json.dumps({**TWO_STATE, "weight": "@"}).replace(
            '"@"', "[" * depth + "1.0" + "]" * depth)
        assert main(["validate", "--model", model_file(tmp_path, doc),
                     "--out", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_infeasible_bound_fails(self, tmp_path):
        code = main(["constrain", *preset_args("--d", "1=-5", "--steps", "50",
                                               out=tmp_path)])
        assert code == 1
        assert "lp_status=infeasible" in (tmp_path / "report.txt").read_text()

    def test_constrain_without_constraints_is_usage_error(self, tmp_path):
        assert main(["constrain", *preset_args("--steps", "50", out=tmp_path)]) == 2

    @pytest.mark.parametrize("entry", ["1=nan", "1=inf"])
    def test_non_finite_bound_flag_is_usage_error(self, tmp_path, capsys, entry):
        code = main(["constrain", *preset_args("--d", entry, "--steps", "50",
                                               out=tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--d" in err and "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("bound", ["NaN", "Infinity"])
    def test_non_finite_bound_in_model_file_is_usage_error(self, tmp_path, capsys, bound):
        path = tmp_path / "model.json"
        path.write_text('{"states": 1, "actions_per_state": [[[0.0], [1.0]]], '
                        '"rates": [[[0.0], [0.0]]], "costs": [[[1.0, 0.0]], [[0.0, 2.0]]], '
                        f'"horizon": 1.0, "constraint_bounds": [{bound}]}}')
        code = main(["constrain", "--model", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "constraint_bounds" in err and "finite" in err

    @pytest.mark.parametrize("flags", [["--i0", "99"], ["--i0", "-1"], ["--subset", "0,99"],
                                       ["--subset", "-1"], ["--subset", "0,x"]])
    def test_state_flag_out_of_range_is_usage_error(self, tmp_path, capsys, flags):
        code = main(["simulate", *preset_args("--steps", "50", "--replicates", "100",
                                              *flags, out=tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("state", ["5", "-1", "1.5", "true"])
    def test_initial_state_out_of_range_is_usage_error(self, tmp_path, capsys, state):
        path = tmp_path / "model.json"
        path.write_text('{"states": 2, "actions_per_state": [[[0.0]], [[0.0]]], '
                        '"rates": [[[-1.0, 1.0]], [[1.0, -1.0]]], "costs": [[[0.0], [1.0]]], '
                        f'"horizon": 1.0, "initial_state": {state}}}')
        code = main(["simulate", "--model", str(path), "--steps", "50",
                     "--replicates", "100", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "initial_state" in err and "Traceback" not in err

    def test_rates_shorter_than_states_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"states": 2, "actions_per_state": [[[0.0]], [[0.0]]], '
                        '"rates": [[[-1.0, 1.0]]], "costs": [[[0.0], [1.0]]], "horizon": 1.0}')
        assert main(["validate", "--model", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "rates" in err and "state 1" in err

    def test_rate_row_of_wrong_width_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"states": 2, "actions_per_state": [[[0.0]], [[0.0]]], '
                        '"rates": [[[-1.0, 1.0, 0.0]], [[1.0, -1.0]]], '
                        '"costs": [[[0.0], [1.0]]], "horizon": 1.0}')
        assert main(["validate", "--model", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "rates" in err and "state 0" in err and "reshape" not in err

    @pytest.mark.parametrize("costs, named", [
        ([[[0.0, 5.0], []]], "costs[0] for state 0"),
        ([[[0.0], [1.0]], [[0.0], [1.0, 2.0]]], "costs[1] for state 1"),
        ([[]], "costs[0] has 0 entries for 2 states"),
        ([[[0.0]]], "costs[0] has 1 entries for 2 states"),
    ], ids=["shifted", "ragged", "empty", "short"])
    def test_cost_table_not_one_entry_per_action_is_usage_error(self, tmp_path, capsys,
                                                                costs, named):
        path = model_file(tmp_path, json.dumps({**TWO_STATE, "costs": costs}))
        assert main(["solve", "--model", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("rates", 5), ("costs", 3),
                                              ("actions_per_state", 7)])
    def test_non_list_table_field_is_usage_error(self, tmp_path, capsys, field, value):
        doc = {"states": 2, "actions_per_state": [[[0.0]], [[0.0]]],
               "rates": [[[-1.0, 1.0]], [[1.0, -1.0]]], "costs": [[[0.0], [1.0]]],
               "horizon": 1.0}
        doc[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{field} must be a list" in err and "Traceback" not in err

    @pytest.mark.parametrize("preset, field, value, named", [
        (False, "states", [2], "states"),
        (False, "states", 2.5, "states"),
        (False, "horizon", [1.0], "horizon"),
        (False, "horizon", True, "horizon"),
        (False, "truncation_level", "x", "truncation_level"),
        (False, "drift_certificate", {"rho1": [1.0], "b1": 1.0, "rho2": 1.0, "b2": 1.0,
                                      "rho3": 1.0, "b3": 1.0, "L": 1.0, "M": 1.0},
         "drift_certificate.rho1"),
        (True, "lambda", [1.0], "lambda"),
        (True, "m", [4], "m"),
        (True, "m", True, "m"),
        (True, "grid", [3], "grid"),
        (True, "costs", [{"i": [1.0]}], "cost term i"),
    ], ids=["states-list", "states-float", "horizon-list", "horizon-bool",
            "truncation_level-str", "drift_certificate-list", "lambda-list", "m-list",
            "m-bool", "grid-list", "cost-term-list"])
    def test_scalar_field_of_wrong_type_is_usage_error(self, tmp_path, capsys, preset,
                                                       field, value, named):
        if preset:
            doc = {"preset": "birth_death", "lambda": 1.0, "mu": 2.0, "m": 4}
        else:
            doc = {"states": 2, "actions_per_state": [[[0.0]], [[0.0]]],
                   "rates": [[[-1.0, 1.0]], [[1.0, -1.0]]], "costs": [[[0.0], [1.0]]],
                   "horizon": 1.0}
        doc[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"{named} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["lambda", "mu", "m"])
    def test_preset_missing_field_is_usage_error(self, tmp_path, capsys, field):
        doc = {"preset": "birth_death", "lambda": 1.0, "mu": 2.0, "m": 4}
        del doc[field]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"missing required field {field!r}" in err and "Traceback" not in err

    def test_initial_state_in_range_is_a_point_mass(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"preset": "birth_death", "lambda": 1.0, "mu": 2.0, "m": 4, '
                        '"initial_state": 3}')
        assert main(["solve", "--model", str(path), "--steps", "100",
                     "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report.txt").read_text()
        values = (tmp_path / "value.csv").read_text().splitlines()
        g3 = next(line for line in values if line.startswith("3,0,")).split(",")[2]
        assert f"value_initial_dist={g3}\n" in report


class TestFlagChecks:
    """Out-of-range flag values are usage errors that name the flag."""

    @pytest.mark.parametrize("z", ["-1", "0", "nan", "inf"])
    def test_z_width_must_be_finite_and_positive(self, tmp_path, capsys, z):
        code = exit_code(["simulate", *preset_args("--steps", "50", "--replicates", "100",
                                                   "--z", z, out=tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--z" in err and "finite and positive" in err and "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("command, flags", [
        ("solve", ["--steps", "0"]),
        ("constrain", ["--steps", "0", "--d", "1=0.5"]),
        ("simulate", ["--steps", "0"]),
        ("simulate", ["--replicates", "1"]),
        ("simulate", ["--t-check", "5"]),
        ("simulate", ["--t-check", "0"]),
        ("simulate", ["--seed", "-1"]),
        ("validate", ["--agrid", "1"]),
        ("simulate", ["--agrid", "1"]),
        ("validate", ["--m", "1"]),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_out_of_range_flag_is_named(self, tmp_path, capsys, command, flags):
        code = exit_code([command, *preset_args(*flags, out=tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flags[0]} " in err or f"{flags[0]}:" in err
        assert "out of range" in err and "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()

    def test_in_range_flags_still_run(self, tmp_path):
        assert main(["simulate", *preset_args("--steps", "50", "--replicates", "2",
                                              "--agrid", "2", "--t-check", "1",
                                              "--z", "1e300", out=tmp_path)]) in (0, 1)
        assert (tmp_path / "report.txt").exists()


class TestUsagePaths:
    """Command-line paths that end in a usage or domain failure, without a traceback."""

    @pytest.mark.parametrize("entries, named", [
        (["--d", "1"], "want n=value"),
        (["--d", "0=0.5"], "constraint indices start at 1"),
        (["--d", "2=0.5"], "missing --d entries for constraints [1]"),
    ], ids=["no-equals", "index-0", "gap"])
    def test_bad_bound_entries(self, tmp_path, capsys, entries, named):
        assert main(["constrain", *preset_args("--steps", "50", *entries, out=tmp_path)]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("entries", [["--d", "1=0.3", "--d", "1=0.4"],
                                         ["--d", "1=0.3", "--d", "01=0.3"]],
                             ids=["different-bounds", "same-bound"])
    def test_repeated_bound_index_is_refused(self, tmp_path, capsys, entries):
        assert main(["constrain", *preset_args("--steps", "50", *entries, out=tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--d 1 " in err and "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("subset", ["", ","])
    def test_empty_subset_is_refused(self, tmp_path, capsys, subset):
        code = main(["simulate", *preset_args("--steps", "50", "--replicates", "100",
                                              "--subset", subset, out=tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--subset" in err and "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()

    def test_model_and_preset_together(self, tmp_path, capsys):
        path = model_file(tmp_path, json.dumps(TWO_STATE))
        assert main(["validate", "--model", path, *preset_args(out=tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "give --model or --preset, not both" in err and "Traceback" not in err

    def test_preset_flags_with_a_model_file_are_named(self, tmp_path, capsys):
        path = model_file(tmp_path, json.dumps(TWO_STATE))
        assert main(["solve", "--model", path, "--horizon", "5", "--lam", "3", "--m", "9",
                     "--agrid", "4", "--d", "1=0.2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--model files set the model; drop --lam, --m, --agrid, --horizon, --d\n" in err
        assert "Traceback" not in err and not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("flag, value", [("--mu", "2"), ("--agrid", "3"),
                                             ("--horizon", "1.0")])
    def test_a_preset_default_given_with_a_model_file_is_named(self, tmp_path, capsys,
                                                               flag, value):
        path = model_file(tmp_path, json.dumps(TWO_STATE))
        assert main(["validate", "--model", path, flag, value, "--out", str(tmp_path)]) == 2
        assert f"--model files set the model; drop {flag}\n" in capsys.readouterr().err

    def test_neither_model_nor_preset(self, tmp_path, capsys):
        assert main(["validate", "--lam", "1", "--mu", "2", "--m", "3",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "supported preset: birth-death" in err and "Traceback" not in err

    def test_three_bounds_on_the_preset(self, tmp_path, capsys):
        assert main(["constrain", *preset_args("--d", "1=0.5", "--d", "2=0.5", "--d", "3=0.5",
                                               out=tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "at most two constraint costs" in err and "Traceback" not in err

    def test_preset_without_truncation_level(self, tmp_path, capsys):
        assert main(["validate", "--preset", "birth-death", "--lam", "1", "--mu", "2",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "needs --lam, --mu and --m" in err and "Traceback" not in err

    def test_constrain_on_an_invalid_model(self, tmp_path, capsys):
        doc = {**TWO_STATE, "rates": [[[-0.5, 1.0]], [[1.0, -1.0]]],  # row 0 sums to 0.5
               "costs": [[[0.0], [1.0]], [[0.5], [0.5]]], "constraint_bounds": [1.0]}
        path = model_file(tmp_path, json.dumps(doc))
        assert main(["constrain", "--model", path, "--steps", "50",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "model fails validation" in err and "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()

    def test_simulate_uniform_policy(self, tmp_path, capsys):
        code = main(["simulate", *preset_args("--steps", "50", "--replicates", "2000",
                                              "--policy", "uniform", out=tmp_path)])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        report = (tmp_path / "report.txt").read_text()
        assert "policy=uniform\n" in report and "fk_covers_zero=True\n" in report
        assert (tmp_path / "trajectory.csv").exists()


class TestOutputs:
    def test_solve_writes_value_policy_and_report(self, tmp_path, capsys):
        assert main(["solve", *preset_args("--steps", "200", out=tmp_path)]) == 0
        assert (tmp_path / "value.csv").exists()
        assert (tmp_path / "policy.csv").exists()
        report = (tmp_path / "report.txt").read_text()
        assert "envelope_violations=0" in report
        assert "truncation_error_bound=" in report

    def test_zero_cost_model_yields_zero_csv(self, tmp_path):
        doc = {"states": 1, "actions_per_state": [[[0.0]]],
               "rates": [[[0.0]]], "costs": [[[0.0]]], "horizon": 1.0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["solve", "--model", str(path), "--steps", "10",
                     "--out", str(out)]) == 0
        rows = (out / "value.csv").read_text().strip().splitlines()[1:]
        assert all(row.rsplit(",", 1)[1] == "0" for row in rows)

    def test_solve_two_state_matches_closed_form(self, tmp_path):
        import math
        doc = {"states": 2, "actions_per_state": [[[0.0]], [[0.0]]],
               "rates": [[[-1.0, 1.0]], [[1.0, -1.0]]],
               "costs": [[[0.0], [1.0]]], "horizon": 1.0}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["solve", "--model", str(path), "--steps", "2000",
                     "--out", str(out)]) == 0
        rows = (out / "value.csv").read_text().strip().splitlines()[1:]
        g00 = next(float(r.split(",")[2]) for r in rows
                   if r.startswith("0,0,"))
        assert abs(g00 - (0.5 - (1 - math.exp(-2.0)) / 4.0)) < 1e-6

    def test_constrain_reports_duality(self, tmp_path):
        out = tmp_path / "run"
        assert main(["constrain", *preset_args("--d", "1=0.4", "--steps", "60",
                                               out=out)]) == 0
        report = dict(line.split("=", 1) for line in
                      (out / "report.txt").read_text().splitlines())
        assert report["lp_status"] == "optimal"
        assert float(report["gap"]) <= 1e-3
        assert (out / "occupation.csv").exists()

    def test_constrain_writes_dual_counters_and_samples(self, tmp_path):
        # one state, c0 = (1, 0), c1 = (0, 2), d1 = 1: the unconstrained
        # column, the constraint-only column, then the certifying solve
        doc = {"states": 1, "actions_per_state": [[[0.0], [1.0]]],
               "rates": [[[0.0], [0.0]]], "costs": [[[1.0, 0.0]], [[0.0, 2.0]]],
               "horizon": 1.0, "constraint_bounds": [1.0]}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["constrain", "--model", str(path), "--steps", "32",
                     "--out", str(out)]) == 0
        report = dict(line.split("=", 1) for line in
                      (out / "report.txt").read_text().splitlines())
        assert report["dual_solves"] == "3"
        assert report["cg_columns"] == "2"
        rows = (out / "dual_samples.csv").read_text().splitlines()
        assert rows[0] == "iterate,u1,dual,master_objective"
        assert rows[1:] == ["0,0,0,inf", f"1,0.5,{report['dual']},{report['primal']}"]

    def test_simulate_writes_estimates(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", *preset_args("--steps", "50", "--replicates",
                                              "4000", "--seed", "11", out=out)]) == 0
        report = (out / "report.txt").read_text()
        assert "mc_mean=" in report and "fk_covers_zero=True" in report
        assert (out / "trajectory.csv").exists()


class TestDeterminism:
    @pytest.mark.parametrize("command", ["validate", "solve", "constrain", "simulate"])
    def test_identical_runs_are_byte_identical(self, tmp_path, command):
        extra = {
            "validate": [],
            "solve": ["--steps", "100"],
            "constrain": ["--d", "1=0.4", "--steps", "40"],
            "simulate": ["--steps", "40", "--replicates", "2000", "--seed", "7"],
        }[command]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([command, *preset_args(*extra, out=out_a)]) == 0
        assert main([command, *preset_args(*extra, out=out_b)]) == 0
        files_a, files_b = read_all_outputs(out_a), read_all_outputs(out_b)
        assert files_a.keys() == files_b.keys()
        for name in files_a:
            assert files_a[name] == files_b[name], f"{command}/{name} differs"
