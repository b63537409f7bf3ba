"""Property tests of the input boundary: a valid model document with one
field or table entry broken, and any mix of valid and garbage flag values,
only ever give exit code 0, 1 or 2 and no traceback; explicit model
documents round-trip bit for bit.

Sizes stay at 6 states, m = 6 and grid 6 or below: the dense rate table
has (pairs x states) entries, so larger fuzzed sizes could exhaust memory.
For the same reason fuzzed runs take at most 400 steps and 2000 replicates.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

from ctmdp.cli import main
from ctmdp.model import CtmdpModel, model_from_dict, model_to_dict

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRESET_DOC = {
    "preset": "birth_death", "lambda": 1.0, "mu": 2.0, "m": 3, "grid": 2, "horizon": 1.0,
    "costs": [{"const": 0.5, "i": 1.0}, {"a1": 0.5, "a2": 0.25}],
    "constraint_bounds": [0.4], "initial_state": 0,
    "drift_certificate": {"rho1": 3.0, "b1": 1.0, "rho2": 17.0, "b2": 5.0,
                          "rho3": 57.0, "b3": 9.0, "L": 4.0, "M": 2.0},
}
EXPLICIT_DOC = {
    "states": 2, "actions_per_state": [[[0.0], [1.0]], [[0.0]]],
    "rates": [[[-1.0, 1.0], [-2.0, 2.0]], [[1.0, -1.0]]],
    "costs": [[[0.0, 0.5], [1.0]], [[1.0, 0.0], [0.0]]], "constraint_bounds": [0.5],
    "horizon": 1.0, "initial_dist": [0.5, 0.5], "weight": [1.0, 2.0],
    "truncation_level": 2.0, "drift_certificate": {"rho1": 1.0, "b1": 2.0},
}


def paths_in(value, prefix: tuple = ()) -> list[tuple]:
    """Key paths of every field and list entry nested in value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [path for key, sub in items
            for path in [prefix + (key,)] + paths_in(sub, prefix + (key,))]


def at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


# values of every other kind: numbers that are not finite or not positive,
# booleans, null, strings, lists and objects
OTHER_KINDS = [math.nan, math.inf, -math.inf, True, False, None, "x", [], [1.0], {},
               {"x": 1.0}, 0, 0.0, -1, -2.5]
DOCS = (PRESET_DOC, EXPLICIT_DOC)
MUTATIONS = ([("replace", doc, path, value) for doc in DOCS for path in paths_in(doc)
              for value in OTHER_KINDS]
             + [("delete", doc, path, None) for doc in DOCS for path in paths_in(doc)]
             + [("add", doc, path, None) for doc in DOCS
                for path in [()] + paths_in(doc) if isinstance(at(doc, path), dict)])


def mutated(op: str, doc: dict, path: tuple, value) -> dict:
    """A copy of doc with the entry at path replaced or deleted, or with an
    unknown field added to the object at path."""
    doc = copy.deepcopy(doc)
    if op == "add":
        at(doc, path)["surprise"] = 1.0
    elif op == "delete":
        del at(doc, path[:-1])[path[-1]]
    else:
        at(doc, path[:-1])[path[-1]] = copy.deepcopy(value)
    return doc


def run_cli(argv: list[str]) -> tuple[int, str]:
    """The exit code of a run, whether main returns it or argparse exits with
    it, and what the run wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(mutation=st.sampled_from(MUTATIONS))
def test_one_broken_entry_never_escapes_as_a_traceback(mutation):
    doc = mutated(*mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["validate"], ["solve", "--steps", "50"]):
            code, err = run_cli([*argv, "--model", path, "--out", tmp])
            assert code in (0, 1, 2), err
            assert "Traceback" not in err


# flag text that no parser accepts, or that parses to a value out of range
GARBAGE = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "-1", "0", "-0", "1.5",
                           "0x3", "1e-320", "1e308", "-2.5", "1", "1,x", "--m"])


def integers(low: int, high: int) -> st.SearchStrategy:
    return st.integers(low, high).map(str)


def reals(low: float, high: float) -> st.SearchStrategy:
    return st.floats(low, high).map(repr)


# values in range for each flag; "--d" takes a list of entries
VALID = {"--lam": reals(0.1, 3.0), "--mu": reals(0.1, 3.0), "--m": integers(2, 6),
         "--agrid": integers(2, 6), "--horizon": reals(0.05, 1.0), "--steps": integers(1, 400)}
COMMANDS = {
    "solve": {},
    "constrain": {"--d": st.sampled_from([["1=0.3"], ["1=0.9"], ["1=-5"], ["1=0.3", "2=0.5"],
                                          ["2=0.5", "1=0.6"]])},
    "simulate": {"--replicates": integers(2, 2000), "--seed": integers(0, 99),
                 "--i0": integers(0, 1), "--policy": st.sampled_from(["optimal", "uniform"]),
                 "--subset": st.sampled_from(["0", "0,1", "1,0"]),
                 "--t-check": reals(0.01, 1.0), "--z": reals(0.5, 6.0)},
}
# flags given unless broken: the preset needs --lam, --mu and --m, constrain
# needs --d, and the defaults of --steps and --replicates exceed the caps
ALWAYS = {"--lam", "--mu", "--m", "--steps", "--replicates", "--d"}


@st.composite
def command_lines(draw) -> list[str]:
    """A preset command line whose flags are in range or, if optional, left
    out, except for up to two flags whose value is garbage or left out."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = {**VALID, **COMMANDS[command]}
    broken = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command, "--preset", "birth-death"]
    for name, values in flags.items():
        if name not in broken:
            value = draw(values if name in ALWAYS else st.none() | values)
        else:
            value = draw(GARBAGE if name in ALWAYS else st.none() | GARBAGE)
        for entry in (value if isinstance(value, list) else [value]):
            if entry is not None:
                argv.append(f"{name}={entry}")
    return argv


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(argv=command_lines())
def test_no_flag_value_escapes_as_a_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_cli([*argv, "--out", tmp])
    assert code in (0, 1, 2), err
    assert "Traceback" not in err


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def table_models(draw) -> CtmdpModel:
    n = draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    n_costs = draw(st.integers(1, 3))

    def floats(size):
        return draw(st.lists(FINITE, min_size=size, max_size=size))

    return CtmdpModel.from_tables(
        actions_per_state=[[floats(draw(st.integers(1, 2))) for _ in range(k)] for k in counts],
        rates=[[floats(n) for _ in range(k)] for k in counts],
        costs=[[floats(k) for k in counts] for _ in range(n_costs)],
        horizon=draw(st.floats(min_value=1e-3, max_value=1e3)),
        initial_dist=floats(n), weight=floats(n), constraint_bounds=floats(n_costs - 1),
        truncation_level=draw(st.none() | st.floats(min_value=1e-3, max_value=1e6)))


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(model=table_models())
def test_model_documents_round_trip_bit_for_bit(model):
    again, cert = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert cert is None
    assert (again.n_states, again.horizon, again.truncation_level) == \
        (model.n_states, model.horizon, model.truncation_level)
    for name in ("action_offsets", "action_points", "rate_rows", "costs",
                 "constraint_bounds", "initial_dist", "weight"):
        got, want = getattr(again, name), getattr(model, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert np.array_equal(again.pair_state, model.pair_state)
