"""Wall time, process CPU time and traced peak memory of the truncation
layers and of the constrained route as m grows.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 scripts/scale_probe.py [M ...] [--constrained M [M ...]]

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

A second table follows at the levels given after ``--constrained``
(default m = 20, 40 and 80): the criterion-7 costs (objective -i,
constraint (a1 + lambda) / (2 lambda) <= 0.3) on the same preset, started
at state 5, at its minimum stable step count. It times
``solve_constrained`` and then ``lagrangian_dual`` on an equal model built
apart, so every dual call runs its own column generation rather than
taking over the primal's run. At m = 320 (1914 cells, 2874 pairs) one
cells x pairs table is 44 MB.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import tracemalloc

import numpy as np

from ctmdp.dp import TimeGrid, evaluate_policy, solve_backward
from ctmdp.model import make_birth_death
from ctmdp.occupation import (check_characterization, lagrangian_dual, occupation_of_policy,
                              solve_constrained)

CONSTRAINED_LEVELS = (20, 40, 80)


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


def constrained_model(m: int):
    """The criterion-7 costs on the m-state preset, started at state 5."""
    return make_birth_death(1.0, 2.0, m=m, grid=3, initial_dist=np.eye(m)[5],
                            cost_fns=[lambda i, a1, a2: -float(i),
                                      lambda i, a1, a2: (a1 + 1.0) / 2.0],
                            constraint_bounds=[0.3])


def constrained_row(m: int) -> str:
    model = constrained_model(m)
    grid = TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))
    cells = [str(m), str(model.n_pairs), str(grid.n_steps)]
    _, *cost = measured(solve_constrained, model, grid)
    cells += cost_cells(*cost)
    _, *cost = measured(lagrangian_dual, constrained_model(m), grid)
    cells += cost_cells(*cost)
    return "| " + " | ".join(cells) + " |"


def table(layers: list[str], rows) -> None:
    head = ["m", "Pairs", "Steps"] + [f"{name} {what}" for name in layers
                                      for what in ("time", "cpu", "peak")]
    print("| " + " | ".join(head) + " |")
    print("|" + " --- |" * len(head))
    for line in rows:
        print(line, flush=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time and trace the layers as m grows.")
    parser.add_argument("levels", nargs="*", type=int, default=[100, 300, 600], metavar="M",
                        help="truncation levels of the first table (default 100 300 600)")
    parser.add_argument("--constrained", nargs="+", type=int, default=list(CONSTRAINED_LEVELS),
                        metavar="M", help="levels of the constrained table (default 20 40 80)")
    args = parser.parse_args(argv)
    table(["solve_backward", "evaluate_policy", "occupation_of_policy",
           "check_characterization", "expected_cost"], map(row, args.levels))
    print()
    table(["solve_constrained", "lagrangian_dual"], map(constrained_row, args.constrained))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
