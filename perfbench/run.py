"""The ginprod benchmark: run one workload, check its outputs, print metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``. A run repeats its workload's
invocations (each ``ginprod.cli.main`` in a fresh interpreter, as a CLI
user pays for it) until ``--seconds`` is spent, with at least three
repetitions (two of each kind with ``--trace 1``), and reports medians
over the repetitions. Every output is
checked; an invocation that exits non-zero or fails its check counts as
failed.

``--trace 0`` prints the end-to-end metrics, with times in seconds of a
reference host: after every repetition the run times ``calibrate.py``, a
fresh interpreter that imports numpy and runs a fixed loop, none of it
ginprod code. It scales the repetition's set-up times by
``STARTUP_REFERENCE_S`` over the script's start-up time and, on the
interpreter-bound workloads (``workloads.HOST_SCALED``), its wall and CPU
times by ``CALIBRATION_REFERENCE_S`` over the script's whole time. A
phase in which the shared host runs slow moves the script and the
workload alike and cancels; the unscaled medians are printed next to
them as ``raw_setup_s``, ``raw_wall_s`` and ``raw_cpu_s``.

``--trace 1`` alternates untraced repetitions with traced ones, where
``spans.py`` wraps every public function of each layer from outside, and
prints the per-layer metrics.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (environment fingerprint, per-repetition values, output digests
and failures). The exit status is 0 when every output checked out, 1
when one did not, 2 when the program cannot be run.

BLAS and OpenMP thread counts are pinned to the number of usable CPUs,
the value OpenBLAS would pick on its own, so both sides of a comparison
run with the same setting and it is recorded. ``GINPROD_WORKERS`` is
removed from the environment; every invocation passes ``--workers``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: No single invocation may take longer than this.
INVOCATION_TIMEOUT_S = 150.0
#: Stop starting repetitions past this point, to end well inside 180 s.
RUN_CAP_S = 120.0
CALIBRATE = HERE / "calibrate.py"
#: About the seconds ``calibrate.py`` takes to import numpy, and to run
#: start to exit, on a lightly loaded 2-vCPU Xeon VM. Fixed scales, the
#: same on both sides of every comparison: they set the unit of the scaled
#: times and nothing else.
STARTUP_REFERENCE_S = 0.12
CALIBRATION_REFERENCE_S = 0.3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end metrics but not gated. raw_* are the
#: unscaled medians, which swing with the shared host's load (see
#: calibrate.py); calibration_startup_s and calibration_s are the median
#: start-up and whole times of the calibration script. replicates_per_s is
#: replicates / raw_wall_s for a fixed replicate count, and failed_fraction
#: is the failed / attempted pair of the result line.
END_TO_END_INFO = {
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "raw_cpu_s": "s",
    "calibration_startup_s": "s",
    "calibration_s": "s",
    "replicates_per_s": "1/s",
    "failed_fraction": "1",
}

_CALLS_SELF = (
    "combinatorics.stirling2",
    "beta_poly.compute_beta",
    "beta_poly.beta_bounds_check",
    "moment_engine.moment_gamma_sum",
    "moment_engine.moment_falling_sum",
    "moment_engine.moment_stirling_beta",
    "edge_analysis.dominance_report",
    "edge_analysis.tail_summand",
    "edge_analysis.beta_leading_asymptotic",
    "montecarlo.replicate_rng",
    "montecarlo.draw_factors",
    "montecarlo.sample_product",
)
VERIFY_SUITES = ("cross_formula", "beta_bounds", "stirling", "dominance", "asymptotic")

# Which end-to-end metric each layer metric should move, and where:
#   exact engine (combinatorics, beta_poly, moment_engine, edge_analysis,
#   verify suites) .......................... exact_chain wall_s
#   replicate_rng, moments_from_spectra, edge_from_values
#   ......................................... mc_bridge_small_n wall_s
#   draw_factors ............................ mc_edge_grid wall_s, peak_rss_mb
#   sample_product .......................... mc_edge_grid, mc_spectra_parallel wall_s
#   collect_spectra, pool_efficiency ........ mc_spectra_parallel wall_s, cpu_s
#   cli.main self time, cli.output_bytes .... mc_spectra_parallel wall_s
# Call counts, verify.checks and computed bytes and flops repeat exactly
# for a given seed; only cli.output_bytes depends on the seed, through the
# printed width of sampled floats. It leaves out verify's timed report.
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in _CALLS_SELF for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "moment_engine.moment_cross_check.self_s": "s",
    **{f"verify.{suite}.s": "s" for suite in VERIFY_SUITES},
    "verify.checks": "count",
    "montecarlo.draw_factors.bytes_computed": "bytes",
    "montecarlo.sample_product.p50_ms": "ms",
    "montecarlo.sample_product.p99_ms": "ms",
    "montecarlo.sample_product.matmul_gflop_computed": "GFLOP",
    "montecarlo.collect_spectra.wall_s": "s",
    "montecarlo.pool_efficiency": "ratio",
    "montecarlo.moments_from_spectra.self_s": "s",
    "montecarlo.edge_from_values.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.untraced_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class CallResult:
    """What one invocation cost and whether its output checked out."""

    label: str
    setup_s: float = 0.0
    wall_s: float = 0.0
    exit_s: float = 0.0  # ready -> exit as seen by the parent
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    digest: str = ""
    spans: dict | None = None
    verify_suites: dict = field(default_factory=dict)
    verify_checks: int = 0
    problem: str | None = None


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "GINPROD_WORKERS")}
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    env.update(PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC), PYTHONHASHSEED="0")
    return env


_FINGERPRINT = """
import json, platform, sys
import numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": np.__version__,
    "blas": {"name": blas.get("name"), "version": blas.get("version"),
             "config": blas.get("openblas configuration")},
    "platform": platform.platform(),
    "machine": platform.machine(),
}))
"""


def fingerprint(env: dict) -> dict:
    out = subprocess.run([sys.executable, "-c", _FINGERPRINT], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    info = json.loads(out.stdout)
    info["threads"] = {var: env[var] for var in THREAD_VARS}
    info["nproc"] = os.cpu_count()
    info["usable_cpus"] = len(os.sched_getaffinity(0))
    info["GINPROD_WORKERS"] = os.environ.get("GINPROD_WORKERS", "unset") + " (removed for the run)"
    return info


def calibrate(env: dict, work: Path) -> tuple[float, float]:
    """Seconds ``calibrate.py`` takes now in a fresh interpreter to import
    numpy, and to run start to exit."""
    # One BLAS thread, so the script is the same whatever threads the run pins.
    cal_env = {**env, **{var: "1" for var in THREAD_VARS}}
    spawn = time.perf_counter()
    out = subprocess.run([sys.executable, str(CALIBRATE)], env=cal_env, cwd=work, stdout=subprocess.PIPE,
                         text=True, timeout=60, check=True)
    exited = time.perf_counter()
    return json.loads(out.stdout)["ready"] - spawn, exited - spawn


def _file_bytes_and_digest(paths: list[Path], hasher) -> int:
    total = 0
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            data = f.read_bytes()
            total += len(data)
            hasher.update(f.name.encode())
            hasher.update(data)
    return total


def run_call(inv: workloads.Invocation, work: Path, env: dict, trace: bool, reference: dict) -> CallResult:
    res = CallResult(inv.label)
    outputs = [work / name for name in inv.files]
    for path in outputs:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
    result_path = work / "result.json"
    stdout_path = work / "stdout.txt"
    stderr_path = work / "stderr.txt"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), "1" if trace else "0", "--", *inv.argv]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        try:
            status = proc.wait(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            res.problem = f"timed out after {INVOCATION_TIMEOUT_S} s"
            return res
        exited = time.perf_counter()
    stdout = stdout_path.read_bytes()
    if status != 0 or not result_path.exists():
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
        res.problem = f"exit status {status}: {tail.strip()}"
        return res
    record = json.loads(result_path.read_text(encoding="utf-8"))
    res.setup_s = record["ready"] - spawn
    res.wall_s = record["done"] - record["ready"]
    res.exit_s = exited - record["ready"]
    res.cpu_s = record["cpu_s"]
    res.peak_rss_mb = record["peak_rss_mb"]
    res.spans = record.get("spans")
    if record.get("left_wrapped"):
        res.problem = f"span wrappers not restored: {record['left_wrapped']}"
        return res
    hasher = hashlib.sha256(stdout)
    file_bytes = _file_bytes_and_digest([p for p in outputs if p.exists()], hasher)
    res.digest = hasher.hexdigest()[:16]
    # verify's report carries its own timings, so its size varies run to run.
    res.output_bytes = 0 if inv.argv[0] == "verify" else len(stdout) + file_bytes
    try:
        text = stdout.decode("utf-8")
        inv.check(workloads.Output(stdout=text, work=work, reference=reference))
        if inv.argv[0] == "verify":
            report = json.loads(text)
            res.verify_suites = {s["name"]: s["seconds"] for s in report["suites"]}
            res.verify_checks = report["checks"]
    except (workloads.CheckError, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        res.problem = f"output check failed: {type(exc).__name__}: {exc}"
    return res


def _major_spans(spans: dict) -> dict:
    """Inclusive time of each span name that took at least a millisecond."""
    return {name: t for name, t in spans["total_s"].items() if t >= 1e-3}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(reps: list[list[CallResult]], calibration: list[tuple[float, float]],
               host_scaled: bool) -> tuple[dict, dict]:
    """The gated metrics, scaled to the reference host, and the unscaled
    ones, from untraced repetitions and the calibration (start-up seconds,
    whole seconds) taken after each. Wall and CPU times are scaled only if
    ``host_scaled``."""
    setup = [[c.setup_s for c in rep] for rep in reps]
    wall = [sum(c.wall_s for c in rep) for rep in reps]
    cpu = [sum(c.cpu_s for c in rep) for rep in reps]
    setup_scale = [STARTUP_REFERENCE_S / startup for startup, _ in calibration]
    scale = [CALIBRATION_REFERENCE_S / whole if host_scaled else 1.0 for _, whole in calibration]
    gated = {
        "setup_s": statistics.median(t * k for ts, k in zip(setup, setup_scale) for t in ts),
        "wall_s": statistics.median(t * k for t, k in zip(wall, scale)),
        "cpu_s": statistics.median(t * k for t, k in zip(cpu, scale)),
        "peak_rss_mb": statistics.median(max(c.peak_rss_mb for c in rep) for rep in reps),
    }
    raw = {
        "raw_setup_s": statistics.median(t for ts in setup for t in ts),
        "raw_wall_s": statistics.median(wall),
        "raw_cpu_s": statistics.median(cpu),
        "calibration_startup_s": statistics.median(startup for startup, _ in calibration),
        "calibration_s": statistics.median(whole for _, whole in calibration),
    }
    return gated, raw


def layer_metrics(rep: list[CallResult]) -> dict:
    """Per-layer values of one traced repetition (sums over its calls)."""
    calls: dict = {}
    self_s: dict = {}
    total_s: dict = {}
    counters: dict = {}
    sample_ms: list = []
    for c in rep:
        if c.spans is None:  # the call failed before its spans were read
            continue
        for agg, key in ((calls, "calls"), (self_s, "self_s"), (total_s, "total_s"), (counters, "counters")):
            for name, value in c.spans[key].items():
                agg[name] = agg.get(name, 0) + value
        sample_ms += c.spans["sample_product_ms"]
    out = {}
    for name in _CALLS_SELF:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["moment_engine.moment_cross_check.self_s"] = self_s.get("moment_engine.moment_cross_check", 0.0)
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.s"] = sum(c.verify_suites.get(suite, 0.0) for c in rep)
    out["verify.checks"] = sum(c.verify_checks for c in rep)
    out["montecarlo.draw_factors.bytes_computed"] = counters.get("montecarlo.draw_factors.bytes", 0)
    out["montecarlo.sample_product.p50_ms"] = _percentile(sample_ms, 50) if sample_ms else 0.0
    out["montecarlo.sample_product.p99_ms"] = _percentile(sample_ms, 99) if sample_ms else 0.0
    out["montecarlo.sample_product.matmul_gflop_computed"] = counters.get("montecarlo.sample_product.flop", 0) / 1e9
    out["montecarlo.collect_spectra.wall_s"] = total_s.get("montecarlo.collect_spectra", 0.0)
    busy = total_s.get("montecarlo.replicate_rng", 0.0) + total_s.get("montecarlo.sample_product", 0.0)
    capacity = counters.get("montecarlo.collect_spectra.capacity_s", 0.0)
    out["montecarlo.pool_efficiency"] = busy / capacity if capacity else 0.0
    out["montecarlo.moments_from_spectra.self_s"] = self_s.get("montecarlo.moments_from_spectra", 0.0)
    out["montecarlo.edge_from_values.self_s"] = self_s.get("montecarlo.edge_from_values", 0.0)
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    out["cli.output_bytes"] = sum(c.output_bytes for c in rep)
    out["trace.untraced_s"] = sum(c.exit_s for c in rep) - total_s.get("cli.main", 0.0)
    return out


def per_layer(reps: list[list[CallResult]], traced: list[bool]) -> dict:
    traced_reps = [rep for rep, t in zip(reps, traced) if t]
    per_rep = [layer_metrics(rep) for rep in traced_reps]
    metrics = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
    untraced_wall = statistics.median(sum(c.wall_s for c in rep) for rep, t in zip(reps, traced) if not t)
    traced_wall = statistics.median(sum(c.wall_s for c in rep) for rep in traced_reps)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ginprod" / "cli.py").is_file():
        print(f"perfbench: no ginprod sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        env_info = fingerprint(env)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot start the interpreter with numpy: {exc}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    trace = bool(args.trace)
    calls = workloads.build(args.workload, args.seed, with_probe=trace)
    # A traced run interleaves untraced repetitions, so it needs fewer pairs.
    min_reps = max(1, workloads.FULL["min_reps"] - trace)

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    reps: list[list[CallResult]] = []
    traced: list[bool] = []
    calibration: list[tuple[float, float]] = []
    try:
        start = time.perf_counter()
        longest = 0.0
        while True:
            rep_start = time.perf_counter()
            for is_traced in ((False, True) if trace else (False,)):
                reps.append([run_call(inv, work, env, is_traced, reference) for inv in calls])
                traced.append(is_traced)
            if not trace:
                calibration.append(calibrate(env, work))
            longest = max(longest, time.perf_counter() - rep_start)
            # Start another repetition only if it should end inside the run.
            elapsed = time.perf_counter() - start
            if traced.count(False) >= min_reps and elapsed + longest > min(args.seconds, RUN_CAP_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only if no other run is using it
        except OSError:
            pass

    results = [c for rep in reps for c in rep]
    failures = [f"rep {i} {c.label}: {c.problem}" for i, rep in enumerate(reps) for c in rep if c.problem]
    attempted, failed = len(results), len(failures)
    correct = failed == 0
    replicates = sum(inv.replicates for inv in calls if not inv.label.startswith("probe-"))

    info: dict = {}
    if trace:
        metrics = per_layer(reps, traced)
        metrics = {name: metrics[name] for name in PER_LAYER}
    else:
        metrics, info = end_to_end(reps, calibration, args.workload in workloads.HOST_SCALED)
        if replicates:
            info["replicates_per_s"] = replicates / info["raw_wall_s"]
        info["failed_fraction"] = failed / attempted
    units = PER_LAYER if trace else {**END_TO_END, **END_TO_END_INFO}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  invocations {attempted}  replicates/repetition {replicates}")
    for name, value in {**metrics, **info}.items():
        print(f"  {name:<52} {value:>16.6g} {units[name]}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env_info,
        "invocations": [" ".join(inv.argv) for inv in calls],
        "repetitions": [
            {"traced": t, "wall_s": sum(c.wall_s for c in rep), "cpu_s": sum(c.cpu_s for c in rep),
             **({"calibration_startup_s": calibration[i][0], "calibration_s": calibration[i][1]}
                if not trace else {}),
             "calls": [{"label": c.label, "setup_s": c.setup_s, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                        **({"verify_suites": c.verify_suites} if c.verify_suites else {}),
                        **({"span_total_s": _major_spans(c.spans)} if c.spans else {})}
                       for c in rep]}
            for i, (rep, t) in enumerate(zip(reps, traced))
        ],
        "digests": {c.label: c.digest for c in reps[0]},
        "digests_repeat": all([c.digest for c in rep] == [c.digest for c in reps[0]] for rep in reps),
        "failures": failures,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
