"""Route benchmark for ctmdp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports ``ctmdp`` from
``src/`` and exits with code 2 when it is not there. It sets up the workload
(import, model build and validation, instance pool, a warm-up route on a
small copy; the set-up is repeated and its median reported), then runs
routes back to back for ``--seconds`` seconds, then makes the once-per-run
checks and the CLI parity pass. Every route's outputs are checked; a route
that raises or fails a check counts as failed. The last line of stdout is
one JSON object. With ``--trace 0`` it holds the end-to-end metrics; with
``--trace 1`` routes alternate between untraced and traced and it holds the
per-layer metrics, and the spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import ctmdp, ctmdp.cli; print(time.perf_counter() - t)")


def import_ctmdp():
    """Import ctmdp from the checkout's src/ only; None when it is absent."""
    src = ROOT / "src"
    if not (src / "ctmdp" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import ctmdp
    import ctmdp.cli  # noqa: F401  (the package does not import the CLI itself)
    if Path(ctmdp.__file__).resolve().parent != (src / "ctmdp").resolve():
        return None
    return ctmdp


def import_seconds() -> float:
    """Median wall time to import ctmdp in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                               capture_output=True, text=True, timeout=60, check=True)
        times.append(float(probe.stdout))
    return statistics.median(times)


def blas_info() -> dict:
    """BLAS library, version and thread count of the numpy in use."""
    import ctypes
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas_name=blas.get("name"), blas_version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (checkout is not a git repository)"


class Route(NamedTuple):
    rid: str
    traced: bool
    wall: float
    cpu: float
    report: dict | None
    counts: dict
    failures: list


def time_route(workload, work_dir, rid: str, traced: bool) -> Route:
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        report, counts, failures = workload.route(work_dir)
    except Exception:  # a raising route is a failed route, not a crashed run
        report, counts, failures = None, {}, [traceback.format_exc()]
    return Route(rid, traced, time.perf_counter() - t0, time.process_time() - cpu0,
                 report, counts, failures)


def guarded(check, *args) -> list[str]:
    """Failures of a once-per-run check; an exception is one failure."""
    try:
        return check(*args)
    except Exception:
        return [traceback.format_exc()]


def layer_metrics(tracer, traced, untraced_walls, counts, workload):
    """Per-layer metrics from the spans of the traced routes and set-ups."""
    from spans import self_times
    spans, own = tracer.spans, self_times(tracer.spans)
    route_ids = {rid for rid, _ in traced}
    n = len(traced)
    per = {}    # span name -> [self seconds, inclusive seconds, calls] over routes
    setup = {}  # span name -> self seconds over the traced set-ups
    steps = 0
    cli_s = 0.0
    for s, self_s in zip(spans, own):
        if s.route in route_ids:
            acc = per.setdefault(s.name, [0.0, 0.0, 0])
            acc[0] += self_s
            acc[1] += s.end - s.start
            acc[2] += 1
            if s.name in ("dp.solve_backward", "dp.evaluate_policy"):
                steps += s.n_steps
        elif s.route == "setup":
            setup[s.name] = setup.get(s.name, 0.0) + self_s
        elif s.route == "cli" and s.name == "cli.main":
            cli_s += s.end - s.start

    def self_per_route(*names):
        return sum(per.get(name, [0.0])[0] for name in names) / n

    top = {rid: 0.0 for rid in route_ids}
    for s in spans:
        if s.route in route_ids and s.parent is None:
            top[s.route] += s.end - s.start
    shares = [top[rid] / wall for rid, wall in traced]

    lp_s = self_per_route("lp_core.solve_lp")
    pivots = counts.get("lp_core.pivots", 0)
    mc_names = ("sim.mc_value", "sim.check_forward_kolmogorov", "sim.check_weight_bound")
    mc_incl = sum(per.get(name, [0.0, 0.0])[1] for name in mc_names) / n
    paths = counts.get("sim.paths", 0)
    computed = workload.computed_bytes()
    traced_p50 = statistics.median(wall for _, wall in traced)
    values = {
        "lp_core.solve_lp.s": (lp_s, "s"),
        "lp_core.pivots": (pivots, "count"),
        "lp_core.ms_per_pivot": (1e3 * lp_s / pivots if pivots else 0.0, "ms"),
        "occupation.solve_constrained.self_s": (self_per_route("occupation.solve_constrained"), "s"),
        "occupation.lagrangian_dual.self_s": (self_per_route("occupation.lagrangian_dual"), "s"),
        "occupation.lagrangian_dual.solves": (counts.get("occupation.lagrangian_dual.solves", 0), "count"),
        "occupation.lp_matrix_bytes": (computed.get("occupation.lp_matrix_bytes", 0), "B"),
        "dp.solve_backward.s": (self_per_route("dp.solve_backward"), "s"),
        "dp.solve_backward.calls": (per.get("dp.solve_backward", [0, 0, 0])[2] // n, "count"),
        "dp.steps": (steps // n, "count"),
        "dp.evaluate_policy.s": (self_per_route("dp.evaluate_policy"), "s"),
        "dp.check_value_envelope.s": (self_per_route("dp.check_value_envelope"), "s"),
        "dp.rate_table_bytes": (computed["dp.rate_table_bytes"], "B"),
        "occupation.occupation_of_policy.s": (self_per_route("occupation.occupation_of_policy"), "s"),
        "occupation.check_characterization.s": (self_per_route("occupation.check_characterization"), "s"),
        "dp.write_csv.s": (self_per_route("dp.ValueGrid.write_csv", "dp.write_policy_csv"), "s"),
        "occupation.write_csv.s": (self_per_route("occupation.OccupationGrid.write_csv"), "s"),
        "sim.write_csv.s": (self_per_route("sim.Trajectory.write_csv"), "s"),
        "dp.csv_bytes": (counts.get("dp.csv_bytes", 0), "B"),
        "sim.simulate.s": (self_per_route("sim.simulate"), "s"),
        "sim.mc_value.s": (self_per_route("sim.mc_value"), "s"),
        "sim.check_forward_kolmogorov.s": (self_per_route("sim.check_forward_kolmogorov"), "s"),
        "sim.check_weight_bound.s": (self_per_route("sim.check_weight_bound"), "s"),
        "sim.paths": (paths, "count"),
        "sim.paths_per_s": (paths / mc_incl if mc_incl else 0.0, "1/s"),
        "cli.main.s": (cli_s, "s"),
        "trace.overhead_ratio": (traced_p50 / statistics.median(untraced_walls), "ratio"),
        "trace.top_level_share": (min(shares), "ratio"),
    }
    for name in ("make_birth_death", "validate_model", "certify_drift", "auto_certificate"):
        values[f"model.{name}.s"] = (setup.get(f"model.{name}", 0.0) / SETUP_REPS, "s")
    ranking = sorted(((self_per_route(k), k) for k in per), reverse=True)
    return values, ranking, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_ctmdp()
    if pkg is None:
        print(f"error: no ctmdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    out_root = ROOT / ".perfbench_out"
    work_dir = out_root / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(pkg) if args.trace else None
    try:
        # -- set-up, repeated; the warm-up route runs on a small copy
        import_s = import_seconds()
        setup_walls = []
        for _ in range(SETUP_REPS):
            if tracer:
                tracer.route = "setup"
                tracer.install()
            t0 = time.perf_counter()
            workload = spec(pkg, args.seed)
            spec(pkg, args.seed, small=True).route(str(work_dir))
            setup_walls.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
        setup_s = import_s + statistics.median(setup_walls)

        # -- timed routes; in a traced run every second route is traced
        routes = []
        t_start = time.perf_counter()
        while True:
            traced = bool(tracer) and len(routes) % 2 == 1
            rid = f"route{len(routes)}"
            if traced:
                tracer.route = rid
                tracer.install()
            route = time_route(workload, str(work_dir), rid, traced)
            if traced:
                tracer.uninstall()
            routes.append(route)
            for failure in route.failures:
                print(f"{rid} failed: {failure}", file=sys.stderr)
            if (time.perf_counter() - t_start >= args.seconds
                    and (not tracer or len(routes) >= 2)):
                break
        loop_wall = time.perf_counter() - t_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # -- once-per-run checks, outside the timed routes
        run_failures = []
        good = [r for r in routes if not r.failures]
        if good:
            first = good[0]
            for r in good[1:]:
                if r.report != first.report:
                    run_failures.append(f"{r.rid} report differs from {first.rid}")
                if r.counts != first.counts:
                    run_failures.append(f"{r.rid} counts {r.counts} differ from {first.counts}")
            run_failures += guarded(workload.run_checks)
            if tracer:
                tracer.route = "cli"
                tracer.install()
            run_failures += guarded(workload.parity, first.report, str(work_dir))
            if tracer:
                tracer.uninstall()
        else:
            run_failures.append("no route passed its checks")
        for failure in run_failures:
            print(f"run check failed: {failure}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(routes)
    failed = sum(1 for r in routes if r.failures)
    provenance = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "commit": commit_id(), "nproc": os.cpu_count(),
                  "python": platform.python_version(), **blas_info()}
    print("provenance " + json.dumps(provenance, sort_keys=True))

    if not tracer:
        walls = [r.wall for r in routes]
        metrics = {
            "route_p50_s": (statistics.median(walls), "s"),
            "routes_per_s": (attempted / loop_wall, "1/s"),
            "cpu_s_per_route": (statistics.median(r.cpu for r in routes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        print(f"routes={attempted} failed={failed} failed_ratio={failed / attempted:.6g} "
              f"import_s={import_s:.4f} setup_walls="
              + ",".join(f"{w:.4f}" for w in setup_walls))
        print("route walls: " + ", ".join(f"{w:.4f}" for w in walls))
    else:
        traced = [(r.rid, r.wall) for r in routes if r.traced]
        untraced = [r.wall for r in routes if not r.traced]
        counts = good[0].counts if good else {}
        metrics, ranking, shares = layer_metrics(tracer, traced, untraced, counts, workload)
        print(f"traced routes={len(traced)} untraced routes={len(untraced)} "
              f"top-level span share per traced route: "
              + ", ".join(f"{s:.4f}" for s in shares))
        print("self seconds per traced route: "
              + ", ".join(f"{k}={v:.4g}" for v, k in ranking[:8]))
        spans_path = out_root / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": provenance,
                       "fields": ["name", "start", "end", "parent", "route", "n_steps"],
                       "spans": [[s.name, s.start, s.end, s.parent, s.route, s.n_steps]
                                 for s in tracer.spans]}, fh)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not run_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
