"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 8 is split: 8a (reference constants certify) and 8b (a perturbed
rho1 must be flagged). 8b is asserted exactly as stated and is expected to
fail: with w(i) = i+1 the worst drift slack at lam=1, mu=2 is -1.99 under
rho1 = lam+mu-0.01, b1 = lam, so no violation exists to report; see the
assertion message for the arithmetic.
"""

import math
import time

import numpy as np

from ctmdp.cli import main
from ctmdp.dp import TimeGrid, check_value_envelope, evaluate_policy, solve_backward
from ctmdp.model import (CtmdpModel, DriftCertificate, MarkovPolicy,
                         auto_certificate, birth_death_certificate,
                         certify_drift, cost_bound_from_tables, make_birth_death)
from ctmdp.occupation import (check_characterization, lagrangian_dual,
                              occupation_of_policy, solve_constrained,
                              uniform_occupation)
from ctmdp.sim import check_forward_kolmogorov, mc_value
from oracles import expm_policy_value, random_instance, random_policy

TWO_STATE_EXACT = 0.5 - (1.0 - math.exp(-2.0)) / 4.0


def two_state_chain():
    return CtmdpModel.from_tables(
        actions_per_state=[[0.0], [0.0]],
        rates=[[[-1.0, 1.0]], [[1.0, -1.0]]],
        costs=[[[0.0], [1.0]]],
        horizon=1.0, weight=[1.0, 2.0])


def slater_birth_death():
    """Birth-death preset with an active, strictly satisfiable constraint.

    The objective rewards occupancy of the high state while the constraint
    prices birth-control effort; the no-effort policy has constraint cost 0,
    strictly below the bound at every state and time, so the strict
    feasibility condition holds with margin d1 = 0.3.
    """
    lam, mu = 1.0, 2.0
    return make_birth_death(
        lam, mu, m=2, grid=5,
        cost_fns=[lambda i, a1, a2: -float(i),
                  lambda i, a1, a2: (a1 + lam) / (2.0 * lam)],
        horizon=1.0, constraint_bounds=[0.3])


def verdict(tag: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))


def test_criterion_01_closed_form_two_state_value():
    model = two_state_chain()
    start = time.perf_counter()
    values, _ = solve_backward(model, TimeGrid(1.0, 2000))
    elapsed = time.perf_counter() - start
    err = abs(values.at_start()[0] - TWO_STATE_EXACT)
    ok = err < 1e-6 and elapsed < 1.0
    verdict("1", ok, f"|err|={err:.2e}, {elapsed:.3f}s")
    assert err < 1e-6
    assert elapsed < 1.0


def test_criterion_02_oracle_triangle_on_random_instances():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    worst_expm = 0.0
    worst_z = 0.0
    for trial in range(10):
        model = random_instance(rng, max_states=6, max_actions=3, horizon=1.0)
        grid = TimeGrid(model.horizon, 2000)
        values, policy = solve_backward(model, grid)
        oracle = expm_policy_value(model, policy)
        diff = float(np.abs(values.at_start() - oracle[0]).max())
        worst_expm = max(worst_expm, diff)
        assert diff <= 1e-5, f"instance {trial}: dp vs expm {diff:.2e}"
        i0 = int(np.argmax(model.initial_dist))
        est = mc_value(model, policy, i0, 0, 100_000, seed=1000 + trial)
        gap = abs(est.mean - values.at_start()[i0])
        worst_z = max(worst_z, gap / max(est.se, 1e-300))
        assert gap <= 4.0 * est.se, f"instance {trial}: mc gap {gap:.2e} vs se {est.se:.2e}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    verdict("2", ok, f"max|dp-expm|={worst_expm:.2e}, max z={worst_z:.2f}, {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_03_value_envelope_every_node():
    instances = []
    chain = two_state_chain()
    instances.append((chain, auto_certificate(chain), TimeGrid(1.0, 500)))
    for m in (5, 20):
        model = make_birth_death(1.0, 2.0, m=m, grid=3)
        cert = certify_drift(model, birth_death_certificate(
            1.0, 2.0, cost_bound_from_tables(model)))
        assert cert.all_satisfied
        instances.append((model, cert, TimeGrid(1.0, 500)))
    rng = np.random.default_rng(31)
    for _ in range(3):
        model = random_instance(rng)
        instances.append((model, auto_certificate(model),
                          TimeGrid(model.horizon, 400)))
    worst = 0.0
    for model, cert, grid in instances:
        values, _ = solve_backward(model, grid)
        report = check_value_envelope(model, cert, values)
        worst = max(worst, report.max_ratio)
        assert report.n_violations == 0
    verdict("3", True, f"max |g|/bound = {worst:.3f} over {len(instances)} instances")


def test_criterion_04_forward_kolmogorov_ci_covers_zero():
    model = two_state_chain()
    pol = MarkovPolicy.constant(model, 0, n_nodes=2)
    fk1 = check_forward_kolmogorov(model, pol, 0, {1}, 1.0, 100_000, seed=404)
    bd = make_birth_death(1.0, 2.0, m=20, grid=3)
    policy = MarkovPolicy.uniform(bd, n_nodes=201)  # keeps the chain moving
    fk2 = check_forward_kolmogorov(bd, policy, 0, {0, 1, 2}, 0.75, 100_000, seed=405)
    ok = fk1.covers_zero(4.0) and fk2.covers_zero(4.0)
    verdict("4", ok, f"two-state z={abs(fk1.residual) / max(fk1.se, 1e-300):.2f}, "
                     f"birth-death z={abs(fk2.residual) / max(fk2.se, 1e-300):.2f}")
    assert fk1.covers_zero(4.0)
    assert fk2.covers_zero(4.0)


def test_criterion_05_characterization_residual_and_refinement():
    model = two_state_chain()
    residuals = {}
    for n in (1000, 2000):
        grid = TimeGrid(1.0, n)
        pol = MarkovPolicy.constant(model, 0, grid.n_nodes)
        eta = occupation_of_policy(model, grid, pol)
        residuals[n] = check_characterization(model, grid, eta)
    c_constant = residuals[1000] / TimeGrid(1.0, 1000).dt
    grid = TimeGrid(1.0, 1000)
    adversarial = check_characterization(model, grid, uniform_occupation(model, grid))
    shrink = residuals[2000] <= 0.6 * residuals[1000]
    rejected = adversarial > 10.0 * residuals[1000]
    verdict("5", shrink and rejected,
            f"residual(1000)={residuals[1000]:.2e} (C={c_constant:.2f}), "
            f"residual(2000)={residuals[2000]:.2e}, adversarial={adversarial:.3f}")
    assert shrink
    assert rejected


def test_criterion_06_one_state_constrained_optimum():
    model = CtmdpModel.from_tables(
        actions_per_state=[[0.0, 1.0]],
        rates=[[[0.0], [0.0]]],
        costs=[[[1.0, 0.0]], [[0.0, 2.0]]],
        horizon=1.0, constraint_bounds=[1.0])
    grid = TimeGrid(1.0, 64)
    res = solve_constrained(model, grid)
    cert = lagrangian_dual(model, grid, primal_value=res.solution.objective)
    p_err = abs(res.solution.objective - 0.5)
    d_err = abs(cert.dual_value - 0.5)
    ok = p_err <= 1e-6 and d_err <= 1e-6
    verdict("6", ok, f"primal err={p_err:.2e}, dual err={d_err:.2e}, "
                     f"u*={cert.multipliers[0]:.6f}")
    assert p_err <= 1e-6
    assert d_err <= 1e-6


def test_criterion_07_strong_duality_with_slater_margin():
    model = slater_birth_death()
    # strict feasibility: the minimal-effort kernel has constraint cost 0 < d1
    assert float(np.min(model.costs[1])) == 0.0 < model.constraint_bounds[0]
    gaps = {}
    gaps_cont = {}
    for n in (250, 500, 1000):
        grid = TimeGrid(model.horizon, n)
        res = solve_constrained(model, grid)
        assert res.solution.status == "optimal"
        cert = lagrangian_dual(model, grid, primal_value=res.solution.objective)
        assert cert.multipliers[0] > 0.0  # the constraint binds
        gaps[n] = abs(cert.gap)
        gaps_cont[n] = abs(cert.gap_continuum)
    ok = gaps[1000] <= 1e-3 and gaps_cont[1000] <= 1e-3 \
        and gaps_cont[250] > gaps_cont[500] > gaps_cont[1000]
    verdict("7", ok, f"gap(1000)={gaps[1000]:.2e}, "
                     f"continuum gaps {gaps_cont[250]:.2e} -> {gaps_cont[500]:.2e} "
                     f"-> {gaps_cont[1000]:.2e}")
    assert gaps[1000] <= 1e-3
    assert gaps_cont[1000] <= 1e-3
    assert gaps_cont[250] > gaps_cont[500] > gaps_cont[1000]


def test_criterion_08a_reference_constants_certify_all_truncations():
    worst = -math.inf
    for m in (5, 20, 100):
        model = make_birth_death(1.0, 2.0, m=m, grid=3)
        cert = certify_drift(model, birth_death_certificate(
            1.0, 2.0, cost_bound_from_tables(model)))
        worst = max(worst, max(cert.worst_violation.values()))
        assert cert.all_satisfied, (m, cert.worst_violation)
    verdict("8a", True, f"worst slack {worst:.3f} over m in (5, 20, 100)")


def test_criterion_08b_perturbed_rho1_reports_interior_violation():
    lam, mu = 1.0, 2.0
    model = make_birth_death(lam, mu, m=20, grid=3)
    reference = birth_death_certificate(lam, mu, cost_bound_from_tables(model))
    perturbed = DriftCertificate(
        rho1=lam + mu - 0.01, b1=lam,
        rho2=reference.rho2, b2=reference.b2,
        rho3=reference.rho3, b3=reference.b3,
        L=reference.L, M=reference.M)
    cert = certify_drift(model, perturbed)
    violated = not cert.satisfied["w_drift"]
    interior = violated and 1 <= cert.worst_site["w_drift"][0] <= model.n_states - 2
    verdict("8b", interior,
            f"w-drift slack={cert.worst_violation['w_drift']:.3f} "
            f"at state {cert.worst_site['w_drift'][0]}")
    assert interior, (
        "no violation exists to report: the w-drift sum is at most "
        "(lam-mu)*i + lam + mu = 3 - i for interior i and lam + a1 <= 2 at "
        "state 0, while the perturbed bound is 2.99*(i+1) + 1 >= 3.99 "
        f"everywhere, leaving worst slack {cert.worst_violation['w_drift']:.3f} "
        "< 0; see notes/decisions.md for the full analysis")


def test_criterion_09_random_policies_never_beat_the_solver():
    rng = np.random.default_rng(909)
    worst = -math.inf
    for _ in range(5):
        model = random_instance(rng, max_states=6, max_actions=3)
        grid = TimeGrid(model.horizon, 1000)
        best, _ = solve_backward(model, grid)
        slack = 1e-8 + 50.0 * grid.dt ** 2
        for k in range(20):
            pol = random_policy(rng, model, grid.n_nodes, randomized=bool(k % 2))
            val = evaluate_policy(model, grid, pol, 0)
            gap = float((best.values - val.values).max())
            worst = max(worst, gap)
            assert gap <= slack
    verdict("9", True, f"worst (solver - policy) excess = {worst:.2e}")


def test_criterion_10_cli_byte_determinism(tmp_path):
    preset = ["--preset", "birth-death", "--lam", "1.0", "--mu", "2.0", "--m", "4"]
    runs = {
        "validate": preset,
        "solve": [*preset, "--steps", "100"],
        "constrain": [*preset, "--d", "1=0.4", "--steps", "50"],
        "simulate": [*preset, "--steps", "50", "--replicates", "3000", "--seed", "3"],
    }
    all_ok = True
    for command, args in runs.items():
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert main([command, *args, "--out", str(out_a)]) == 0
        assert main([command, *args, "--out", str(out_b)]) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
            all_ok = all_ok and same
            assert same, f"{command}/{name} differs between identical runs"
    verdict("10", all_ok, "validate/solve/constrain/simulate all byte-identical")
