"""Command-line front end.

Subcommands: validate, solve, constrain, simulate. Models come from a JSON
file (--model) or from the built-in birth-death preset (--preset birth-death
--lam --mu --m). Outputs are CSV files plus a key=value report.txt in the
output directory; identical configurations and seeds produce byte-identical
files. Exit codes: 0 all checks pass, 1 domain failure (invalid model,
infeasible program, violated bound), 2 usage or parse failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import dp, occupation, sim
from .model import (CtmdpModel, DriftCertificate, MarkovPolicy, ModelFormatError,
                    _checked_index, auto_certificate, birth_death_certificate, certify_drift,
                    cost_bound_from_tables, load_model,
                    make_birth_death, validate_model, CERT_KEYS)

USAGE_ERROR = 2
DOMAIN_ERROR = 1


def _preset_cost_fns(lam: float, mu: float, n_constraints: int):
    """Preset cost tables: holding cost c_0 = i, then normalized control
    efforts c_1 = (a1+lam)/(2 lam) and c_2 = (mu-a2)/(2 mu), both in [0,1]."""
    fns = [lambda i, a1, a2: float(i)]
    if n_constraints >= 1:
        fns.append(lambda i, a1, a2: (a1 + lam) / (2.0 * lam))
    if n_constraints >= 2:
        fns.append(lambda i, a1, a2: (mu - a2) / (2.0 * mu))
    if n_constraints > 2:
        raise ModelFormatError("the preset defines at most two constraint costs")
    return fns


def _parse_bounds(entries):
    """--d n=value entries into a dense bound list d_1..d_N."""
    pairs = {}
    for entry in entries or ():
        try:
            key, value = entry.split("=", 1)
            n, bound = int(key), float(value)
        except ValueError as exc:
            raise ModelFormatError(f"bad --d entry {entry!r}, want n=value") from exc
        if not math.isfinite(bound):
            raise ModelFormatError(f"bad --d entry {entry!r}, the bound must be finite")
        if n in pairs:
            raise ModelFormatError(f"--d {n} is given more than once")
        pairs[n] = bound
    if not pairs:
        return []
    n_max = max(pairs)
    if min(pairs) < 1:
        raise ModelFormatError("constraint indices start at 1")
    missing = [n for n in range(1, n_max + 1) if n not in pairs]
    if missing:
        raise ModelFormatError(f"missing --d entries for constraints {missing}")
    return [pairs[n] for n in range(1, n_max + 1)]


def _checked(convert, ok, want: str):
    """An argparse type: convert the flag's text, then require ok(value), so
    argparse reports a bad value as a usage error that names the flag."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is out of range; {want}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _state_flag(model: CtmdpModel, flag: str, value) -> int:
    """A state index given on the command line, range-checked."""
    try:
        state = int(value)
    except ValueError as exc:
        raise ModelFormatError(f"{flag} {value!r} is not a state index") from exc
    return _checked_index(state, model.n_states, flag)


def _resolve_model(args) -> tuple[CtmdpModel, DriftCertificate | None]:
    if args.model and args.preset:
        raise ModelFormatError("give --model or --preset, not both")
    if args.model:
        dropped = [f"--{name}" for name in ("lam", "mu", "m", "agrid", "horizon", "d")
                   if getattr(args, name) is not None]
        if dropped:
            raise ModelFormatError(f"--model files set the model; drop {', '.join(dropped)}")
        return load_model(args.model)
    if args.preset != "birth-death":
        raise ModelFormatError("supported preset: birth-death (with --lam --mu --m)")
    if args.lam is None or args.mu is None or args.m is None:
        raise ModelFormatError("--preset birth-death needs --lam, --mu and --m")
    bounds = _parse_bounds(args.d)
    model = make_birth_death(
        lam=args.lam, mu=args.mu, m=args.m, grid=3 if args.agrid is None else args.agrid,
        cost_fns=_preset_cost_fns(args.lam, args.mu, len(bounds)),
        horizon=1.0 if args.horizon is None else args.horizon, constraint_bounds=bounds)
    cert = birth_death_certificate(args.lam, args.mu, cost_bound_from_tables(model))
    return model, cert


def _ensure_certificate(model, cert):
    if cert is None:
        return auto_certificate(model), "auto"
    return certify_drift(model, cert), "declared"


def _fails_validation(model: CtmdpModel) -> bool:
    """True, after saying so on stderr, if the model breaks an invariant."""
    if validate_model(model):
        print("model fails validation; run the validate subcommand", file=sys.stderr)
        return True
    return False


def _report(out_dir: str, lines: dict) -> None:
    """Print the key=value lines and write the same text to report.txt."""
    text = "".join(f"{key}={value:.17g}\n" if isinstance(value, float) else f"{key}={value}\n"
                   for key, value in lines.items())
    sys.stdout.write(text)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_validate(args) -> int:
    model, cert = _resolve_model(args)
    violations = validate_model(model)
    cert, source = _ensure_certificate(model, cert)
    overflow = [k for k in CERT_KEYS[:3] if not cert.worst_violation[k] < math.inf]
    if overflow and not violations:  # NaN or +inf: no finite offset can hold
        raise ModelFormatError(f"weight up to {float(model.weight.max())!r} is too large "
                               f"to certify: its {overflow[0]} sums overflow")
    lines = {"violations": len(violations), "certificate_source": source,
             "rho1": cert.rho1, "b1": cert.b1, "rho2": cert.rho2, "b2": cert.b2,
             "rho3": cert.rho3, "b3": cert.b3, "L": cert.L, "M": cert.M}
    for key in CERT_KEYS:
        lines[f"cert_{key}_ok"] = cert.satisfied[key]
        lines[f"cert_{key}_slack"] = cert.worst_violation[key]
    for v in violations[:20]:
        print(f"violation: {v.message}", file=sys.stderr)
    _report(args.out, lines)
    return 0 if not violations and cert.all_satisfied else DOMAIN_ERROR


def cmd_solve(args) -> int:
    model, cert = _resolve_model(args)
    if _fails_validation(model):
        return DOMAIN_ERROR
    cert, source = _ensure_certificate(model, cert)
    grid = dp.TimeGrid(model.horizon, args.steps)
    values, policy = dp.solve_backward(model, grid)
    values.write_csv(os.path.join(args.out, "value.csv"))
    dp.write_policy_csv(model, grid, policy, os.path.join(args.out, "policy.csv"))
    envelope = dp.check_value_envelope(model, cert, values)
    lines = {
        "value_initial_dist": float(model.initial_dist @ values.at_start()),
        "value_min": float(values.values.min()),
        "value_max": float(values.values.max()),
        "envelope_max_ratio": envelope.max_ratio,
        "envelope_violations": envelope.n_violations,
        "truncation_error_bound": dp.truncation_error_bound(model, cert),
        "certificate_source": source,
        "n_steps": args.steps,
    }
    _report(args.out, lines)
    return 0 if envelope.ok else DOMAIN_ERROR


def cmd_constrain(args) -> int:
    model, cert = _resolve_model(args)
    if model.n_constraints < 1:
        print("model declares no constraint costs; nothing to constrain",
              file=sys.stderr)
        return USAGE_ERROR
    if _fails_validation(model):
        return DOMAIN_ERROR
    grid = dp.TimeGrid(model.horizon, args.steps)
    result = occupation.solve_constrained(model, grid)
    if result.solution.status != "optimal":
        lines = {"lp_status": result.solution.status, "n_pivots": result.solution.n_pivots}
        _report(args.out, lines)
        return DOMAIN_ERROR
    certificate = occupation.lagrangian_dual(
        model, grid, primal_value=result.solution.objective)
    result.occupation.write_csv(model, os.path.join(args.out, "occupation.csv"))
    certificate.write_samples_csv(os.path.join(args.out, "dual_samples.csv"))
    residual = occupation.check_characterization(model, grid, result.occupation)
    lines = {
        "lp_status": result.solution.status,
        "primal": result.solution.objective,
        "dual": certificate.dual_value,
        "dual_continuum": certificate.dual_value_continuum,
        "gap": certificate.gap,
        "gap_continuum": certificate.gap_continuum,
        "lp_pivots": result.solution.n_pivots,
        "dual_solves": certificate.n_solves,
        "cg_columns": result.n_columns,
        "lp_primal_residual": result.solution.primal_residual,
        "characterization_residual": residual,
        "dual_feasibility_min_slack": certificate.feasibility_min_slack,
        "dual_feasibility_ok": certificate.feasibility_ok,
        "dual_status": certificate.status,
        "n_steps": args.steps,
    }
    for n, u in enumerate(certificate.multipliers, start=1):
        lines[f"u{n}"] = float(u)
    for n in range(1, model.n_constraints + 1):
        lines[f"cost{n}"] = result.occupation.expected_cost(model, n)
        lines[f"d{n}"] = float(model.constraint_bounds[n - 1])
    _report(args.out, lines)
    return 0


def cmd_simulate(args) -> int:
    model, cert = _resolve_model(args)
    i0 = _state_flag(model, "--i0", args.i0)
    subset = ([_state_flag(model, "--subset", s) for s in args.subset.split(",")]
              if args.subset is not None else [i0])
    t_check = args.t_check if args.t_check is not None else model.horizon
    if not 0 < t_check <= model.horizon:
        raise ModelFormatError(f"--t-check {t_check} is out of range; need 0 < t <= "
                               f"horizon {model.horizon}")
    if _fails_validation(model):
        return DOMAIN_ERROR
    cert, source = _ensure_certificate(model, cert)
    grid = dp.TimeGrid(model.horizon, args.steps)
    if args.policy == "optimal":
        _, policy = dp.solve_backward(model, grid)
    else:
        policy = MarkovPolicy.uniform(model, grid.n_nodes)

    path = sim.simulate(model, policy, i0, args.seed)
    estimate = sim.mc_value(model, policy, i0, 0, args.replicates, args.seed)
    fk = sim.check_forward_kolmogorov(model, policy, i0, subset, t_check,
                                      args.replicates, args.seed + 1)
    wb = sim.check_weight_bound(model, cert, policy, i0, t_check,
                                args.replicates, args.seed + 2)
    path.write_csv(model, os.path.join(args.out, "trajectory.csv"))
    lines = {
        "mc_mean": estimate.mean, "mc_se": estimate.se, "replicates": estimate.count,
        "fk_residual": fk.residual, "fk_se": fk.se,
        "fk_covers_zero": fk.covers_zero(args.z),
        "wb_mean": wb.estimate.mean, "wb_se": wb.estimate.se,
        "wb_bound": wb.bound, "wb_slack": wb.slack,
        "wb_ok": wb.statistically_ok(args.z),
        "trajectory_jumps": path.n_jumps(),
        "certificate_source": source,
        "policy": args.policy, "seed": args.seed,
    }
    _report(args.out, lines)
    return 0 if fk.covers_zero(args.z) and wb.statistically_ok(args.z) else DOMAIN_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmdp",
        description="Finite-horizon CTMDP solver, simulator and constrained-LP pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    steps = _checked(int, lambda n: n >= 1, "need at least 1 step")
    at_least_2 = _checked(int, lambda n: n >= 2, "need at least 2")

    def add_model_args(p):
        p.add_argument("--model", help="model JSON file")
        p.add_argument("--preset", choices=["birth-death"], help="built-in model family")
        p.add_argument("--lambda", "--lam", dest="lam", type=float,
                       help="preset birth rate")
        p.add_argument("--mu", type=float, help="preset death rate")
        p.add_argument("--m", type=at_least_2, help="preset truncation level (state count)")
        p.add_argument("--agrid", type=at_least_2, help="preset action grid per axis (default 3)")
        p.add_argument("--horizon", type=float, help="preset horizon T (default 1)")
        p.add_argument("--d", action="append", metavar="N=VALUE",
                       help="preset constraint bound d_N (repeatable)")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("validate", help="model invariants and drift certificate")
    add_model_args(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="backward value solve and policy extraction")
    add_model_args(p)
    p.add_argument("--steps", type=steps, default=1000, help="time grid steps")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("constrain", help="occupation LP, disintegration and duality")
    add_model_args(p)
    p.add_argument("--steps", type=steps, default=200, help="time grid steps")
    p.set_defaults(func=cmd_constrain)

    p = sub.add_parser("simulate", help="Monte Carlo estimators and identity checks")
    add_model_args(p)
    p.add_argument("--steps", type=steps, default=200, help="policy grid steps")
    p.add_argument("--replicates", type=at_least_2, default=10000)
    p.add_argument("--seed", type=_checked(int, lambda n: n >= 0, "need at least 0"), default=0)
    p.add_argument("--i0", type=int, default=0, help="initial state")
    p.add_argument("--policy", choices=["optimal", "uniform"], default="optimal")
    p.add_argument("--subset", help="comma-separated states for the flow check")
    p.add_argument("--t-check", type=float, default=None,
                   help="time point for the flow and weight checks (default T)")
    p.add_argument("--z", type=_checked(float, lambda z: 0 < z < math.inf,
                                        "a z-width must be finite and positive"),
                   default=4.0, help="CI width in standard errors")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except (ModelFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        sizes = [f"the model in {args.model}"] if args.model else ["--m", "--agrid"]
        sizes += [flag for flag in ("--steps", "--replicates") if hasattr(args, flag[2:])]
        *rest, last = sizes
        named = f"{', '.join(rest)} or {last}" if rest else last
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: the problem is too large to hold in memory{detail}; reduce {named}",
              file=sys.stderr)
        return USAGE_ERROR
    except (dp.GridStabilityError, dp.NumericsError) as exc:
        print(f"{exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
