"""Wall time, process CPU time and traced peak memory of the truncation
layers as m grows.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 scripts/scale_probe.py [M ...]

For each truncation level M (default 100 300 600) the script builds the
birth-death preset (lambda=1, mu=2, grid 3, horizon 1, uniform start) at its
minimum stable step count and runs five layers in route order:
``solve_backward``, ``evaluate_policy`` of the optimal policy,
``occupation_of_policy`` of that policy, ``check_characterization`` of
the resulting measure and its ``expected_cost`` of cost 0. Each layer runs
three times untraced, for the best wall time and the process CPU time of
that run, and once more under ``tracemalloc``, for the peak it allocates
beyond its inputs. CPU time counts every thread of the process, so a layer
whose BLAS calls wake a second thread shows CPU above wall. One markdown
table row is printed per M. The ``ctmdp`` package is imported from
``PYTHONPATH``, so running this on two trees compares them. At the largest
default level (m=600: 3594 cells, 5394 pairs) the rate table alone is 26 MB,
and ``evaluate_policy`` peaks at about 57 MB traced, the most of the five
layers.
"""

from __future__ import annotations

import math
import sys
import time
import tracemalloc

import numpy as np

from ctmdp.dp import TimeGrid, evaluate_policy, solve_backward
from ctmdp.model import make_birth_death
from ctmdp.occupation import check_characterization, occupation_of_policy


def measured(fn, *args, repeats: int = 3):
    """(result, best wall seconds of ``repeats`` runs, process CPU seconds of
    that run, traced peak bytes of one more run) of fn(*args)."""
    seconds = cpu = math.inf
    for _ in range(repeats):
        start, cpu_start = time.perf_counter(), time.process_time()
        fn(*args)
        wall = time.perf_counter() - start
        if wall < seconds:
            seconds, cpu = wall, time.process_time() - cpu_start
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, seconds, cpu, peak


def cost_cells(seconds: float, cpu: float, peak: int) -> list[str]:
    return [f"{seconds:.3f} s", f"{cpu:.3f} s", f"{peak / 1e6:.0f} MB"]


def row(m: int) -> str:
    model = make_birth_death(1.0, 2.0, m=m, grid=3, initial_dist=np.full(m, 1.0 / m))
    grid = TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))
    cells = [str(m), str(model.n_pairs), str(grid.n_steps)]
    (_, policy), *cost = measured(solve_backward, model, grid)
    cells += cost_cells(*cost)
    _, *cost = measured(evaluate_policy, model, grid, policy)
    cells += cost_cells(*cost)
    eta, *cost = measured(occupation_of_policy, model, grid, policy)
    cells += cost_cells(*cost)
    _, *cost = measured(check_characterization, model, grid, eta)
    cells += cost_cells(*cost)
    _, *cost = measured(eta.expected_cost, model, 0)
    cells += cost_cells(*cost)
    return "| " + " | ".join(cells) + " |"


def main(argv: list[str]) -> int:
    levels = [int(a) for a in argv] or [100, 300, 600]
    layers = ["solve_backward", "evaluate_policy", "occupation_of_policy",
              "check_characterization", "expected_cost"]
    head = ["m", "Pairs", "Steps"] + [f"{name} {what}" for name in layers
                                      for what in ("time", "cpu", "peak")]
    print("| " + " | ".join(head) + " |")
    print("|" + " --- |" * len(head))
    for m in levels:
        print(row(m), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
