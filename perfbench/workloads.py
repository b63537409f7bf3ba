"""The three benchmark routes.

A route makes the same public calls, in the same order, as the matching
``ctmdp`` subcommand, plus the library cross-checks the tests use. Each
workload object is built in set-up (model build, validation, instance pool)
and then runs its route any number of times; every route returns the values
the subcommand would put in ``report.txt``, its exact counts, and the list of
checks it failed. See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np


class SetupError(RuntimeError):
    """The workload's inputs could not be built or do not validate."""


def fmt(value) -> str:
    """A report value as the CLI writes it to report.txt."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def read_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def run_cli(pkg, argv, out_dir, expected: dict) -> list[str]:
    """Run one subcommand in-process and compare report.txt with ``expected``."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = pkg.cli.main([*argv, "--out", out_dir])
    if code != 0:
        return [f"cli {argv[0]} exited {code}: {sink.getvalue()[-300:]!r}"]
    got = read_report(os.path.join(out_dir, "report.txt"))
    return [f"cli {argv[0]} {key}={got.get(key)!r}, library gives {fmt(val)!r}"
            for key, val in expected.items() if got.get(key) != fmt(val)]


def write_model(pkg, model, path, certificate=None) -> str:
    doc = pkg.model.model_to_dict(model)
    if certificate is not None:
        doc["drift_certificate"] = {k: getattr(certificate, k) for k in
                                    ("rho1", "b1", "rho2", "b2", "rho3", "b3", "L", "M")}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _validated(pkg, model):
    violations = pkg.model.validate_model(model)
    if violations:
        raise SetupError(f"model fails validation: {violations[0].message}")
    return model


class ConstrainedDuality:
    """Criterion-7 Slater birth-death model through the ``constrain`` route."""

    name = "constrained-duality"
    LAM, MU, D1 = 1.0, 2.0, 0.3

    def __init__(self, pkg, seed: int, small: bool = False):
        # the model is fixed; the seed changes no input of this workload
        self.pkg = pkg
        lam = self.LAM
        self.model = _validated(pkg, pkg.model.make_birth_death(
            lam, self.MU, m=2, grid=5,
            cost_fns=[lambda i, a1, a2: -float(i),
                      lambda i, a1, a2: (a1 + lam) / (2.0 * lam)],
            horizon=1.0, constraint_bounds=[self.D1]))
        self.grid = pkg.dp.TimeGrid(1.0, 50 if small else 500)
        self.grid.check_stability(self.model)

    def computed_bytes(self) -> dict:
        m, n = self.model, self.grid.n_steps
        rows = n * m.n_states + m.n_constraints
        cols = n * m.n_pairs + m.n_constraints
        return {"occupation.lp_matrix_bytes": rows * cols * 8,
                "dp.rate_table_bytes": m.rate_rows.nbytes}

    def route(self, out_dir):
        occ_mod, model, grid = self.pkg.occupation, self.model, self.grid
        result = occ_mod.solve_constrained(model, grid)
        sol = result.solution
        counts = {"lp_core.pivots": sol.n_pivots}
        if sol.status != "optimal":
            return {"lp_status": sol.status}, counts, [f"LP status {sol.status}"]
        cert = occ_mod.lagrangian_dual(model, grid, primal_value=sol.objective)
        result.occupation.write_csv(model, os.path.join(out_dir, "occupation.csv"))
        residual = occ_mod.check_characterization(model, grid, result.occupation)
        cost1 = result.occupation.expected_cost(model, 1)
        counts["occupation.lagrangian_dual.solves"] = cert.n_solves
        report = {
            "lp_status": sol.status, "primal": sol.objective,
            "dual": cert.dual_value, "dual_continuum": cert.dual_value_continuum,
            "gap": cert.gap, "gap_continuum": cert.gap_continuum,
            "lp_pivots": sol.n_pivots, "lp_primal_residual": sol.primal_residual,
            "characterization_residual": residual,
            "dual_feasibility_min_slack": cert.feasibility_min_slack,
            "dual_feasibility_ok": cert.feasibility_ok, "dual_status": cert.status,
            "n_steps": grid.n_steps, "u1": float(cert.multipliers[0]), "cost1": cost1,
            "d1": float(model.constraint_bounds[0]),
        }
        failures = []
        if not abs(sol.objective - cert.dual_value) <= 1e-6:
            failures.append(f"|primal - dual| = {abs(sol.objective - cert.dual_value):.3g}")
        if not cert.multipliers[0] > 0.0:
            failures.append("constraint does not bind (u1 <= 0)")
        if not cert.feasibility_ok:
            failures.append(f"dual infeasible, min slack {cert.feasibility_min_slack:.3g}")
        if not cost1 <= self.D1 + 1e-7:
            failures.append(f"constraint cost {cost1!r} exceeds d1 = {self.D1}")
        return report, counts, failures

    def run_checks(self) -> list[str]:
        return []

    def parity(self, report, out_dir) -> list[str]:
        path = write_model(self.pkg, self.model, os.path.join(out_dir, "model.json"))
        return run_cli(self.pkg, ["constrain", "--model", path,
                                  "--steps", str(self.grid.n_steps)], out_dir, report)


class Truncation:
    """Birth-death preset at m=150 through the ``solve`` route plus the
    policy-evaluation and occupation cross-checks, at the minimum stable
    step count."""

    name = "truncation"
    LAM, MU = 1.0, 2.0

    def __init__(self, pkg, seed: int, small: bool = False):
        # the model is fixed; the seed changes no input of this workload
        self.pkg = pkg
        m = 20 if small else 150
        # uniform start: a point mass at 0 never moves under the optimal
        # policy, which would make the occupation checks vacuous
        self.model = _validated(pkg, pkg.model.make_birth_death(
            self.LAM, self.MU, m=m, grid=3, initial_dist=np.full(m, 1.0 / m)))
        self.grid = pkg.dp.TimeGrid(1.0, pkg.dp.TimeGrid(1.0, 1).required_steps(self.model))
        self.declared = pkg.model.birth_death_certificate(
            self.LAM, self.MU, pkg.model.cost_bound_from_tables(self.model))

    def computed_bytes(self) -> dict:
        return {"dp.rate_table_bytes": self.model.rate_rows.nbytes}

    def route(self, out_dir):
        pkg, model, grid = self.pkg, self.model, self.grid
        dp, occ_mod = pkg.dp, pkg.occupation
        cert = pkg.model.certify_drift(model, self.declared)
        values, policy = dp.solve_backward(model, grid)
        value_csv = os.path.join(out_dir, "value.csv")
        policy_csv = os.path.join(out_dir, "policy.csv")
        values.write_csv(value_csv)
        dp.write_policy_csv(model, grid, policy, policy_csv)
        envelope = dp.check_value_envelope(model, cert, values)
        bound = dp.truncation_error_bound(model, cert)
        evaluated = dp.evaluate_policy(model, grid, policy)
        eta = occ_mod.occupation_of_policy(model, grid, policy)
        residual = occ_mod.check_characterization(model, grid, eta)
        report = {
            "value_initial_dist": float(model.initial_dist @ values.at_start()),
            "value_min": float(values.values.min()),
            "value_max": float(values.values.max()),
            "envelope_max_ratio": envelope.max_ratio,
            "envelope_violations": envelope.n_violations,
            "truncation_error_bound": bound,
            "certificate_source": "declared",
            "n_steps": grid.n_steps,
        }
        counts = {"dp.csv_bytes": os.path.getsize(value_csv) + os.path.getsize(policy_csv)}
        self.last_residual = residual  # compared once per run in run_checks
        failures = []
        if not cert.all_satisfied:
            failures.append(f"drift certificate violated: {cert.violated_keys()}")
        if envelope.n_violations:
            failures.append(f"{envelope.n_violations} value envelope violations")
        diff = float(np.max(np.abs(evaluated.values - values.values)))
        if not diff <= 1e-9 * (1.0 + float(np.max(np.abs(values.values)))):
            failures.append(f"evaluate_policy differs from solve_backward by {diff:.3g}")
        if not eta.max_cell_norm_error() <= 1e-9:
            failures.append(f"cell-norm error {eta.max_cell_norm_error():.3g}")
        return report, counts, failures

    def run_checks(self) -> list[str]:
        occ_mod = self.pkg.occupation
        blind = occ_mod.check_characterization(
            self.model, self.grid, occ_mod.uniform_occupation(self.model, self.grid))
        if blind >= 10.0 * self.last_residual:
            return []
        return [f"characterization residual {self.last_residual:.4g} is not 10x below "
                f"the dynamics-blind {blind:.4g}"]

    def parity(self, report, out_dir) -> list[str]:
        path = write_model(self.pkg, self.model, os.path.join(out_dir, "model.json"),
                           certificate=self.declared)
        return run_cli(self.pkg, ["solve", "--model", path,
                                  "--steps", str(self.grid.n_steps)], out_dir, report)


POOL_SEED = 20240817   # fixes the instance pool, so every seed does the same work
MC_SEED_BASE = 1000    # instance j simulates with seed 1000 + j (the CLI adds 1, 2)


def random_instance(pkg, rng: np.random.Generator):
    """Random conservative CTMDP: 2-6 states, 1-3 actions, off-diagonal rates
    up to 20/(n-1), costs in [-1, 1], horizon 1."""
    n = int(rng.integers(2, 7))
    n_actions = [int(rng.integers(1, 4)) for _ in range(n)]
    rates = []
    for i in range(n):
        per_state = []
        for _ in range(n_actions[i]):
            row = rng.uniform(0.0, 20.0 / (n - 1), size=n)
            row[i] = 0.0
            row[i] = -row.sum()
            per_state.append(row)
        rates.append(per_state)
    costs = [[[float(rng.uniform(-1.0, 1.0)) for _ in range(k)] for k in n_actions]]
    gamma = rng.uniform(0.1, 1.0, size=n)
    return pkg.model.CtmdpModel.from_tables(
        [[(float(a),) for a in range(k)] for k in n_actions], rates, costs,
        horizon=1.0, initial_dist=gamma / gamma.sum(), weight=1.0 + 0.4 * np.arange(n))


def random_kernel(pkg, rng: np.random.Generator, model, n_nodes: int):
    raw = rng.uniform(0.05, 1.0, size=(n_nodes, model.n_pairs))
    sums = np.add.reduceat(raw, model.action_offsets[:-1], axis=1)
    return pkg.model.MarkovPolicy.randomized(raw / sums[:, model.pair_state])


class OracleTriangle:
    """A fixed pool of 8 small random CTMDPs through the ``simulate`` route
    (DP, thinning Monte Carlo, flow and weight checks), plus a seeded random
    policy that must not beat the solver."""

    name = "oracle-triangle"
    POOL = 8

    def __init__(self, pkg, seed: int, small: bool = False):
        self.pkg, self.seed = pkg, seed
        pool_rng = np.random.default_rng(POOL_SEED)
        self.models = [_validated(pkg, random_instance(pkg, pool_rng))
                       for _ in range(self.POOL)]
        self.grid = pkg.dp.TimeGrid(1.0, 200 if small else 2000)
        self.replicates = 2000 if small else 100_000
        policy_rng = np.random.default_rng(seed)
        self.random_policies = [random_kernel(pkg, policy_rng, m, self.grid.n_nodes)
                                for m in self.models]
        for m in self.models:
            self.grid.check_stability(m)

    def computed_bytes(self) -> dict:
        return {"dp.rate_table_bytes": sum(m.rate_rows.nbytes for m in self.models)}

    def _instance(self, j, out_dir):
        pkg, grid, n, model = self.pkg, self.grid, self.replicates, self.models[j]
        sim, T = pkg.sim, model.horizon
        cert = pkg.model.auto_certificate(model)
        values, policy = pkg.dp.solve_backward(model, grid)
        i0, seed = int(np.argmax(model.initial_dist)), MC_SEED_BASE + j
        path = sim.simulate(model, policy, i0, seed)
        path.write_csv(model, os.path.join(out_dir, f"trajectory{j}.csv"))
        est = sim.mc_value(model, policy, i0, 0, n, seed)
        fk = sim.check_forward_kolmogorov(model, policy, i0, [i0], T, n, seed + 1)
        wb = sim.check_weight_bound(model, cert, policy, i0, T, n, seed + 2)
        rand = pkg.dp.evaluate_policy(model, grid, self.random_policies[j], 0)
        report = {
            "mc_mean": est.mean, "mc_se": est.se, "replicates": est.count,
            "fk_residual": fk.residual, "fk_se": fk.se,
            "fk_covers_zero": fk.covers_zero(4.0),
            "wb_mean": wb.estimate.mean, "wb_se": wb.estimate.se,
            "wb_bound": wb.bound, "wb_slack": wb.slack,
            "wb_ok": wb.statistically_ok(4.0),
            "trajectory_jumps": path.n_jumps(),
            "certificate_source": "auto", "policy": "optimal", "seed": seed,
        }
        failures = []
        if not est.within(float(values.at_start()[i0]), 4.0):
            failures.append(f"instance {j}: MC value {est.mean:.6g} +- {est.se:.2g} "
                            f"misses DP value {values.at_start()[i0]:.6g}")
        if not fk.covers_zero(4.0):
            failures.append(f"instance {j}: flow residual {fk.residual:.3g} +- {fk.se:.2g}")
        if not wb.statistically_ok(4.0):
            failures.append(f"instance {j}: weight bound slack {wb.slack:.3g}")
        excess = float(np.max(values.values - rand.values))
        if not excess <= 1e-8 + 50.0 * grid.dt ** 2:
            failures.append(f"instance {j}: random policy beats the solver by {excess:.3g}")
        return report, failures

    def route(self, out_dir):
        reports, failures = {}, []
        for j in range(self.POOL):
            reports[j], fails = self._instance(j, out_dir)
            failures += fails
        paths = sum(r["replicates"] * 3 + 1 for r in reports.values())
        return reports, {"sim.paths": paths}, failures

    def run_checks(self) -> list[str]:
        return []

    def parity(self, report, out_dir) -> list[str]:
        # one instance per run, chosen by the seed, keeps the pass short;
        # consecutive seeds cover the whole pool
        j = self.seed % self.POOL
        model = self.models[j]
        path = write_model(self.pkg, model, os.path.join(out_dir, "model.json"))
        return run_cli(self.pkg, [
            "simulate", "--model", path, "--steps", str(self.grid.n_steps),
            "--replicates", str(self.replicates), "--seed", str(report[j]["seed"]),
            "--i0", str(int(np.argmax(model.initial_dist))), "--z", "4"],
            out_dir, report[j])


WORKLOADS = {cls.name: cls for cls in (ConstrainedDuality, Truncation, OracleTriangle)}
