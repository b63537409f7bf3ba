"""SHA-256 digests of every file the sixteen standard CLI runs write.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 scripts/cli_digest.py [--keep DIR]

The ``ctmdp`` package is imported from ``PYTHONPATH``, so running this on two
trees and diffing the outputs shows whether a change altered any CLI byte.
Each run writes into its own directory under a temporary directory, or under
DIR, which must not exist yet and is kept, when ``--keep DIR`` is given; its
stdout is kept as ``stdout.txt`` beside the files it wrote. One line
``<sha256>  <run>/<file>`` is printed per file, sorted by path, with or
without ``--keep``. Two kept directories can be compared with
``scripts/cli_prefix.py``, which tells a report key appended by a change from
a changed byte. The script exits 1, printing the run's stderr, if a run exits
with neither 0 nor 1, prints a traceback, or writes no ``report.txt`` (for
instance when ``ctmdp`` cannot be imported), and 2 if DIR exists. It uses the
standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile

# Criterion-7 Slater model: birth-death lambda=1, mu=2, m=2, grid 5,
# objective -i, constraint cost (a1 + lambda) / (2 lambda) <= 0.3.
CRITERION7 = {"preset": "birth_death", "lambda": 1.0, "mu": 2.0, "m": 2, "grid": 5,
              "horizon": 1.0, "costs": [{"i": -1.0}, {"const": 0.5, "a1": 0.5}],
              "constraint_bounds": [0.3]}

# The same model with the constraint cost scaled by 10 and bound 3.0: its
# expected constraint costs exceed 1, so lp_core's row equilibration rescales
# the master's constraint rows (on CRITERION7 every row scale is exactly 1).
CRITERION7_SCALED = {**CRITERION7, "costs": [{"i": -1.0}, {"const": 5.0, "a1": 5.0}],
                     "constraint_bounds": [3.0]}

# An explicit-table model with an interior initial_state and no drift
# certificate, so validate and solve fit one with auto_certificate; the
# weight makes every drift offset positive.
EXPLICIT = {"states": 3, "actions_per_state": [[[0.0]], [[0.0], [1.0]], [[0.0], [1.0]]],
            "rates": [[[-1.0, 1.0, 0.0]], [[1.0, -2.0, 1.0], [0.5, -0.5, 0.0]],
                      [[0.0, 2.0, -2.0], [0.0, 3.0, -3.0]]],
            "costs": [[[0.0], [1.0, 1.5], [2.0, 1.0]]], "horizon": 2.0,
            "weight": [1.0, 3.0, 4.0], "initial_state": 1}

# Two unlinked copies of a two-state chain, each started with half the mass
# and unit weights: the weight tables score about 0, and the largest
# characterization residual is tied between a state's block and its copy's.
MIRRORED = {"states": 4,
            "actions_per_state": [[[0.0], [1.0]], [[0.0]], [[0.0], [1.0]], [[0.0]]],
            "rates": [[[-0.5, 0.5, 0.0, 0.0], [-2.0, 2.0, 0.0, 0.0]], [[1.0, -1.0, 0.0, 0.0]],
                      [[0.0, 0.0, -0.5, 0.5], [0.0, 0.0, -2.0, 2.0]], [[0.0, 0.0, 1.0, -1.0]]],
            "costs": [[[1.0, 1.0], [0.0], [1.0, 1.0], [0.0]],
                      [[0.0, 1.0], [0.0], [0.0, 1.0], [0.0]]],
            "constraint_bounds": [0.3], "horizon": 1.0, "initial_dist": [0.5, 0.0, 0.5, 0.0]}

# An explicit-table model whose state 2 is absorbing (q* = 0 under its one
# action), so thinning clocks meet the +inf stretch end; played with a
# randomized policy and a check time below the horizon.
ABSORBING = {"states": 3, "actions_per_state": [[[0.0], [1.0]], [[0.0], [1.0]], [[0.0]]],
             "rates": [[[-1.0, 1.0, 0.0], [-3.0, 2.0, 1.0]],
                       [[0.5, -1.5, 1.0], [0.0, -2.0, 2.0]], [[0.0, 0.0, 0.0]]],
             "costs": [[[1.0, 2.0], [0.5, 1.5], [0.0]]], "horizon": 1.0,
             "weight": [1.0, 2.0, 3.0], "initial_state": 0}

# The criterion-7 costs on the m = 60 truncation, started at state 5: its
# characterization residual table has 24 000 entries, more than one chunk of
# occupation._table_dot, so the run pins the chunked sum's bits.
CRITERION7_M60_START5 = {**CRITERION7, "m": 60, "grid": 3, "initial_state": 5}

PRESET = ["--preset", "birth-death", "--lam", "1", "--mu", "2"]

RUNS = {
    "constrain-criterion7": ["constrain", "--model", "{model}", "--steps", "500"],
    "constrain-criterion7-scaled": ["constrain", "--model", "{scaled}", "--steps", "500"],
    "constrain-mirrored-tie": ["constrain", "--model", "{mirrored}", "--steps", "500"],
    "constrain-m60-start5": ["constrain", "--model", "{m60}", "--steps", "400"],
    "constrain-m4-two-bounds": ["constrain", *PRESET, "--m", "4",
                                "--d", "1=0.5", "--d", "2=0.4"],
    "solve-m150": ["solve", *PRESET, "--m", "150", "--steps", "894"],
    "solve-m20-agrid4": ["solve", *PRESET, "--m", "20", "--agrid", "4", "--horizon", "0.7"],
    "simulate-m20": ["simulate", *PRESET, "--m", "20", "--replicates", "20000",
                     "--subset", "0,3"],
    "simulate-m20-tcheck": ["simulate", *PRESET, "--m", "20", "--replicates", "20000",
                            "--t-check", "0.4", "--subset", "0,3"],
    "simulate-m20-uniform": ["simulate", *PRESET, "--m", "20", "--replicates", "20000",
                             "--policy", "uniform"],
    # a repeated subset member, i0 = 0 outside the subset, randomized draws 16 slots wide
    "simulate-m20-subset-repeat": ["simulate", *PRESET, "--m", "20", "--agrid", "4",
                                   "--policy", "uniform", "--replicates", "20000",
                                   "--subset", "5,2,5"],
    "validate-m20": ["validate", *PRESET, "--m", "20"],
    "validate-explicit": ["validate", "--model", "{explicit}"],
    "solve-explicit": ["solve", "--model", "{explicit}", "--steps", "400"],
    "simulate-explicit-uniform": ["simulate", "--model", "{explicit}", "--policy", "uniform",
                                  "--i0", "1", "--subset", "1,2", "--replicates", "20000"],
    "simulate-absorbing-tcheck": ["simulate", "--model", "{absorbing}", "--policy", "uniform",
                                  "--t-check", "0.5", "--subset", "1,2",
                                  "--replicates", "20000"],
}

MAIN = "import sys; from ctmdp.cli import main; sys.exit(main(sys.argv[1:]))"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="SHA-256 digests of the standard CLI runs.")
    parser.add_argument("--keep", metavar="DIR",
                        help="write the runs under DIR, which must not exist, and keep them")
    keep = parser.parse_args(argv).keep
    if keep is not None:
        try:
            os.makedirs(keep)
        except FileExistsError:
            print(f"--keep {keep}: already exists", file=sys.stderr)
            return 2
    with (tempfile.TemporaryDirectory() if keep is None else contextlib.nullcontext(keep)) as tmp:
        models = {}
        for key, doc in (("model", CRITERION7), ("scaled", CRITERION7_SCALED),
                         ("m60", CRITERION7_M60_START5), ("explicit", EXPLICIT),
                         ("mirrored", MIRRORED), ("absorbing", ABSORBING)):
            models[key] = os.path.join(tmp, f"{key}.json")
            with open(models[key], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        lines = []
        for name, argv in RUNS.items():
            out = os.path.join(tmp, name)
            os.mkdir(out)
            args = [a.format(**models) for a in argv] + ["--out", out]
            proc = subprocess.run([sys.executable, "-c", MAIN, *args],
                                  capture_output=True)
            # exit 1 is a legitimate verdict (a failed check), but a run that
            # crashed, or never got as far as its report, digests nothing
            crashed = b"Traceback" in proc.stderr
            if proc.returncode not in (0, 1) or crashed or \
                    not os.path.exists(os.path.join(out, "report.txt")):
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                print(f"{name}: exit {proc.returncode}", file=sys.stderr)
                return 1
            with open(os.path.join(out, "stdout.txt"), "wb") as fh:
                fh.write(proc.stdout)
            for file in sorted(os.listdir(out)):
                with open(os.path.join(out, file), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                lines.append(f"{digest}  {name}/{file}")
        print("\n".join(sorted(lines, key=lambda s: s.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
