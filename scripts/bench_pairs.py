"""Alternating parent/change benchmark pairs, written as one bench record.

Usage (from anywhere):

    python3 scripts/bench_pairs.py PARENT CHANGE WORKLOADS PAIRS > BENCH_<pr>.json

PARENT and CHANGE are source checkouts, each with its own ``perfbench/`` and
``BENCHMARK.json``. WORKLOADS is one ``perfbench`` workload name, or several
joined by commas. For each workload, pair i (from 0) runs the benchmark
command of the change's ``BENCHMARK.json`` once in each checkout with seed
i + 1, for the ``run_seconds`` it declares, untraced; the parent runs first in
even pairs and the change first in odd ones. Runs are sequential.

The record holds the metric names, units and directions of the end-to-end
metrics in ``BENCHMARK.json``; the provenance each run printed (its commit,
numpy, BLAS and core count); the seeds and run order; every run's metric
values and verdict; and per metric the median and quartiles of each side,
the change's wins (ties count for neither side) and whether the claim rule
holds: wins in at least nine tenths of the pairs and a median gap wider than
the parent's interquartile range. Each run also records its minor page
faults, the ``getrusage(RUSAGE_CHILDREN)`` count taken across the child, and
each workload the median of those counts per side.
Progress goes to stderr. The script uses the standard library only; it exits
1 if a run prints no result.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds) -> dict:
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    provenance = next((json.loads(line[len("provenance "):]) for line in lines
                       if line.startswith("provenance ")), {})
    return {"provenance": provenance, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"], "minor_faults": faults,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list, metrics: list) -> dict:
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        before, after = summary(parent), summary(change)
        gap = before["median"] - after["median"] if lower else after["median"] - before["median"]
        out[name] = {"parent": before, "change": after, "wins": wins, "ties": ties,
                     "claim_holds": wins >= 0.9 * len(pairs) and gap > before["q3"] - before["q1"]}
    return out


def main(argv: list) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workloads, n_pairs = argv[2].split(","), int(argv[3])
    bench = json.loads((change / "BENCHMARK.json").read_text())
    command = [sys.executable if part == "python3" else part for part in bench["command"]]
    metrics = [{k: m[k] for k in ("name", "unit", "better")} for m in bench["end_to_end"]]
    record = {"command": bench["command"], "run_seconds": bench["run_seconds"],
              "metrics": metrics, "workloads": {}}
    for workload in workloads:
        pairs = []
        for i in range(n_pairs):
            seed, sides = i + 1, (("parent", parent), ("change", change))
            pair = {"seed": seed, "first": sides[i % 2][0]}
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                pair[side] = run_once(checkout, command, workload, seed, bench["run_seconds"])
                print(f"{workload} pair {i} {side}: route_p50_s="
                      f"{pair[side]['metrics'].get('route_p50_s')} minor_faults="
                      f"{pair[side]['minor_faults']}", file=sys.stderr)
            pairs.append(pair)
        faults = {side: statistics.median(p[side]["minor_faults"] for p in pairs)
                  for side in ("parent", "change")}
        record["workloads"][workload] = {"pairs": pairs, "comparison": compare(pairs, metrics),
                                         "median_minor_faults": faults}
    json.dump(record, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
