"""check_characterization and a constrained CLI run give the same bits on one
BLAS thread as on two (notes/decisions.md, "BLAS calls that stay on one
thread")."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ctmdp.dp import TimeGrid, solve_backward
from ctmdp.model import make_birth_death
from ctmdp.occupation import occupation_of_policy
from test_scripts import cli_digest

SRC = Path(__file__).resolve().parents[1] / "src"

# prints repr(check_characterization) of the m = 150 optimal measure, then
# runs `ctmdp constrain` on the model file argv[1] into the directory argv[2],
# as the constrain-m60-start5 digest run does
CHILD = """
import sys
from ctmdp.cli import main
from ctmdp.occupation import check_characterization
sys.path.insert(0, sys.argv[3])
from test_blas_threads import truncation_measure
model, grid, eta = truncation_measure()
print(repr(check_characterization(model, grid, eta)), flush=True)
main(["constrain", "--model", sys.argv[1], "--steps", "400", "--out", sys.argv[2]])
"""


def truncation_measure():
    """(model, grid, measure): the truncation workload's m = 150 optimal
    policy on the birth-death preset, from a uniform start."""
    m = 150
    model = make_birth_death(1.0, 2.0, m=m, grid=3, initial_dist=np.full(m, 1.0 / m))
    grid = TimeGrid(1.0, TimeGrid(1.0, 1).required_steps(model))
    return model, grid, occupation_of_policy(model, grid, solve_backward(model, grid)[1])


def test_residuals_do_not_depend_on_the_thread_count(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(cli_digest.CRITERION7_M60_START5))
    children = {}
    for threads in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": str(SRC)}
        out = tmp_path / f"threads{threads}"
        children[threads] = (out, subprocess.Popen(
            [sys.executable, "-c", CHILD, str(model_path), str(out), str(Path(__file__).parent)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    results = {}
    for threads, (out, child) in children.items():
        stdout, stderr = child.communicate(timeout=60)
        assert child.returncode == 0, stderr
        results[threads] = (stdout.splitlines()[0], (out / "report.txt").read_bytes())
    assert results[1] == results[2]


def test_deterministic_rate_product_is_each_cells_row_vector_product():
    # the first RK4 stage occupation_of_policy forms at the cell, bit for bit
    model, grid, eta = truncation_measure()
    product = eta._rate_product(model.rate_rows)
    for cells, s in eta._runs:
        Rs = model.rate_rows[s]
        for k in cells:
            assert np.array_equal(product[k], eta._held[k] @ Rs)
