import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_prefix = load("cli_prefix")
cli_digest = load("cli_digest")

REPORT = b"lp_status=optimal\nprimal=-3.5\nlp_pivots=12\n"
CSV = b"cell,t,state,a0,mass\r\n0,0,0,1,0.5\r\n"


def write_runs(root: Path, report: bytes = REPORT, csv: bytes | None = CSV) -> Path:
    """One kept run as cli_digest --keep leaves it: report, stdout, a CSV."""
    run = root / "constrain-criterion7"
    run.mkdir(parents=True)
    (run / "report.txt").write_bytes(report)
    (run / "stdout.txt").write_bytes(report)
    if csv is not None:
        (run / "occupation.csv").write_bytes(csv)
    (root / "model.json").write_bytes(b"{}")
    return root


class TestCliPrefix:
    def test_appended_keys_pass_and_are_printed(self, tmp_path, capsys):
        parent = write_runs(tmp_path / "parent")
        change = write_runs(tmp_path / "change", REPORT + b"primal_markov=-3.4\ncost1_markov=0.3\n")
        (change / "constrain-criterion7" / "dual_samples.csv").write_bytes(b"new file\r\n")
        assert cli_prefix.main([str(parent), str(change)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"constrain-criterion7/{name}: primal_markov cost1_markov"
                       for name in ("report.txt", "stdout.txt")]

    def test_identical_trees_pass_silently(self, tmp_path, capsys):
        parent, change = write_runs(tmp_path / "parent"), write_runs(tmp_path / "change")
        assert cli_prefix.main([str(parent), str(change)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("report, csv, reason", [
        (b"lp_status=optimal\nprimal=-3.25\nlp_pivots=12\n", CSV, "not a prefix"),
        (b"lp_status=optimal\nlp_pivots=12\nprimal=-3.5\n", CSV, "not a prefix"),
        (REPORT, None, "occupation.csv: missing from the change"),
        (REPORT, CSV + b"1,0.1,0,1,0.5\r\n", "occupation.csv: bytes differ"),
        (REPORT + b"dual feasible\n", CSV, "is not key=value"),
        (REPORT + b"primal=-3.4\n", CSV, "key 'primal' is already in the file"),
    ], ids=["changed-value", "reordered-key", "removed-file", "changed-csv",
            "line-without-equals", "repeated-key"])
    def test_each_other_difference_fails(self, tmp_path, capsys, report, csv, reason):
        parent = write_runs(tmp_path / "parent")
        change = write_runs(tmp_path / "change", report, csv)
        assert cli_prefix.main([str(parent), str(change)]) == 1
        assert reason in capsys.readouterr().err


def test_cli_digest_refuses_an_existing_keep_directory(tmp_path, capsys):
    assert cli_digest.main(["--keep", str(tmp_path)]) == 2
    assert "already exists" in capsys.readouterr().err
