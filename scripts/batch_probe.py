"""Wall time and traced peak memory of the Monte Carlo batches.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 scripts/batch_probe.py [M ...]

For each truncation level M (default 60 150) the script builds the
birth-death preset (lambda=1, mu=2, grid 3, horizon 1, uniform start) at its
minimum stable step count and plays two policies from state M // 2 with
20000 paths and seed 1: the uniform randomized policy and the deterministic
optimal policy of ``solve_backward``. Each policy runs through three batch
estimators: ``mc_value`` of cost 0, ``check_forward_kolmogorov`` of the
subset {M // 2 - 1, M // 2} at t = 0.5 and ``check_weight_bound`` at
t = 0.5. Each runs three times untraced, for the best wall time, and once
more under ``tracemalloc``, for the peak it allocates beyond its inputs. The
thinning jump table's build, ``sim._jump_table``, is measured the same way,
each call on a fresh shallow copy of the model, which the table map has not
seen. Small batches are measured at a fixed size, whatever M is given: the
optimal policy on the same preset at m = 6, from state 3 with the subset
{2, 3}, 2000 paths, seed 1, through the same three estimators, taking the
best of 200 interleaved calls of each (one call of each per pass) and the
traced peak of one more. One JSON object is printed, keyed
``m<M>-jump_table``, ``m<M>-<policy>-<estimator>`` with policy ``uniform``
or ``optimal``, and ``small-m6-optimal-<estimator>``, each value [seconds,
peak bytes]. The ``ctmdp`` package is imported from ``PYTHONPATH``, so
running this on two trees compares them.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import time

import numpy as np

from scale_probe import measured

from ctmdp.dp import TimeGrid, solve_backward
from ctmdp.model import MarkovPolicy, birth_death_certificate, make_birth_death
from ctmdp.sim import _jump_table, check_forward_kolmogorov, check_weight_bound, mc_value

PATHS = 20000
SMALL_M, SMALL_PATHS, SMALL_CALLS = 6, 2000, 200


def estimators(model, policy, paths: int) -> dict:
    """The three batch estimators of policy from state m // 2, by name."""
    cert, i0 = birth_death_certificate(1.0, 2.0), model.n_states // 2
    return {"mc_value": lambda: mc_value(model, policy, i0, 0, paths, 1),
            "check_forward_kolmogorov": lambda: check_forward_kolmogorov(
                model, policy, i0, [i0 - 1, i0], 0.5, paths, 1),
            "check_weight_bound": lambda: check_weight_bound(
                model, cert, policy, i0, 0.5, paths, 1)}


def small_batches() -> dict:
    """[best seconds of SMALL_CALLS interleaved calls, traced peak of one
    more] per estimator, on the m = SMALL_M preset's optimal policy."""
    model = make_birth_death(1.0, 2.0, m=SMALL_M, grid=3,
                             initial_dist=np.full(SMALL_M, 1.0 / SMALL_M))
    grid = TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))
    runs = estimators(model, solve_backward(model, grid)[1], SMALL_PATHS)
    best = dict.fromkeys(runs, math.inf)
    for _ in range(SMALL_CALLS):
        for name, run in runs.items():
            start = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - start)
    return {f"small-m{SMALL_M}-optimal-{name}": [best[name], measured(run, repeats=0)[2]]
            for name, run in runs.items()}


def main(argv: list[str]) -> int:
    out = {}
    for m in [int(a) for a in argv] or [60, 150]:
        model = make_birth_death(1.0, 2.0, m=m, grid=3, initial_dist=np.full(m, 1.0 / m))
        grid = TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))
        _, seconds, peak = measured(lambda: _jump_table(copy.copy(model)))
        out[f"m{m}-jump_table"] = [seconds, peak]
        policies = {"uniform": MarkovPolicy.uniform(model, grid.n_nodes),
                    "optimal": solve_backward(model, grid)[1]}
        for kind, policy in policies.items():
            for name, run in estimators(model, policy, PATHS).items():
                _, seconds, peak = measured(run)
                out[f"m{m}-{kind}-{name}"] = [seconds, peak]
    out.update(small_batches())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
