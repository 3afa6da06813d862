"""zmclab benchmark: run one workload for a fixed time and print one JSON line.

    python3 bench/run.py --workload {certify,evolve,ode} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory, in this one process, with BLAS/OpenMP threads pinned to 1.

--trace 0 times whole passes untraced and reports the end-to-end metrics:
pass_s (median time of a pass), work_per_s (median of work over pass time),
setup_s (median over fresh processes of importing zmclab and building the
inputs) and peak_rss_mb.

Times are wall times rescaled to a fixed machine speed by the timings of a
fixed kernel taken between and during operations (see speed.py); the raw
wall times are kept in the report file.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics: calls, busy and self time of zmclab's public functions, taken from
spans recorded by wrappers installed from outside the package, plus
trace_overhead_s (traced minus untraced pass_s).

Every pass checks its outputs against exact references. The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the line before it
describes the environment. Outputs, a full report and the spans land in
.bench_out/ under the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from speed import CALIBRATION_S, SpeedProbe
from tracing import (
    LayerTotals,
    Tracer,
    counting_wrapper,
    median_over_passes,
    patched,
    totals_by_pass,
    write_spans,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# traced layers: qualname relative to zmclab
TRACED = (
    "closedform.evaluate_jet_extended",
    "closedform.evaluate_jet",
    "residuals.sweep_residual",
    "audit.run_audit",
    "evolution.run_evolution",
    "evolution.characteristic_speeds",
    "evolution.initial_state_from_solution",
    "numerics.rk4_step",
    "numerics.rk4_adaptive_step",
    "numerics.rk4_integrate",
    "conserved.momentum_density",
    "conserved.momentum_flux",
    "conserved.measure_scaling_exponent",
    "profiles.shoot_profile",
    "similarity.steady_ode_integrate",
    "stability.mode_growth_probe",
    "reporting.write_csv",
    "reporting.dumps_json",
    "cli.main",
    "cli.parse_config_text",
)
# counters read from a wrapped function's arguments and result; the tracer
# records them per span, and a workload's work meter sums one of them
COUNTERS = {
    "residuals.sweep_residual": lambda a, k, r: {"points": r.n_points},
    "evolution.run_evolution": lambda a, k, r: {
        "steps": r.n_steps,
        "node_steps": int(r.active_nodes[:-1].sum()),
    },
    "numerics.rk4_adaptive_step": lambda a, k, r: {"accepted": 1},
    "profiles.shoot_profile": lambda a, k, r: {"steps": int(r.rhos.size) - 1},
    "similarity.steady_ode_integrate": lambda a, k, r: {"steps": int(r.rhos.size) - 1},
    "reporting.write_csv": lambda a, k, r: {"bytes": os.path.getsize(a[0] if a else k["path"])},
}
# operation labels of the full-size evolve workload
EVOLVE_STEP_LABELS = ("string-n400", "string-n800", "string-n1600", "membrane-n800")


def prepare_import() -> None:
    """Pin native thread pools to one thread and import zmclab from this
    checkout's src. Raises ImportError when the checkout has no package."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import zmclab

    found = Path(zmclab.__file__).resolve()
    if src.resolve() not in found.parents:
        raise ImportError(f"zmclab imported from {found}, not from {src}")


class PassResult(NamedTuple):
    seconds: float  # at the reference speed
    wall_seconds: float
    kernel_seconds: float  # median speed-probe kernel time
    work: int
    attempted: int
    errors: dict  # op label -> list of messages; empty lists mean passed


def run_pass(workload, tracer=None) -> PassResult:
    """Run every operation once; time the operations only, then check."""
    sink: dict = {}
    hooks = {
        name: counting_wrapper(sink, lambda a, k, r, name=name, key=key: {
            "work": COUNTERS[name](a, k, r)[key]})
        for name, key in workload.work_source.items()
    }
    traced = {} if tracer is None else {
        name: tracer.wrapper(COUNTERS.get(name)) for name in TRACED
    }
    results, errors = {}, {}
    probe, rescaled, wall = SpeedProbe(), [], []
    with patched(hooks), patched(traced):
        for op in workload.ops:
            try:
                with probe.timed(rescaled, wall):
                    if tracer is None:
                        results[op.label] = op.run()
                    else:
                        tracer.label = op.label
                        with tracer.span("bench.op"):
                            results[op.label] = op.run()
            except Exception:  # a crashing operation is a failed operation
                errors[op.label] = [traceback.format_exc()]
    try:
        for label, errs in workload.check(results).items():
            errors.setdefault(label, []).extend(errs)
    except Exception:  # output the gates could not read fails the pass
        errors["check"] = [traceback.format_exc()]
    return PassResult(sum(rescaled), sum(wall), statistics.median(probe.samples),
                      sink.get("work", 0), len(workload.ops), errors)


def failures(passes) -> list:
    """(label, messages) for every failed operation of every pass."""
    return [(label, errs) for p in passes for label, errs in p.errors.items() if errs]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Times, at the reference speed, of fresh processes that import zmclab
    and build the inputs."""
    probe, times = SpeedProbe(), []
    for _ in range(SETUP_PROBES):
        before = probe.kernel()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        wall = time.perf_counter() - start
        times.append(wall * CALIBRATION_S / (0.5 * (before + probe.kernel())))
    return times


def layer_metrics(spans, untraced_s, traced_s) -> dict:
    """Per-layer metrics, each a median over traced passes."""
    per_pass = totals_by_pass([s for s in spans if s.name != "bench.op"])
    empty = LayerTotals(0, 0, 0, {})

    def stat(name, value):
        return median_over_passes(per_pass, lambda totals: value(totals.get(name, empty)))

    def calls(name):
        return stat(name, lambda row: row.calls)

    def busy(name):
        return stat(name, lambda row: row.busy_ns * 1e-9)

    def self_s(name):
        return stat(name, lambda row: row.self_ns * 1e-9)

    def count(name, key):
        return stat(name, lambda row: row.counts.get(key, 0))

    def us_per(name, key=None):
        def ratio(row):
            n = row.calls if key is None else row.counts.get(key, 0)
            return row.busy_ns * 1e-3 / n if n else 0.0
        return stat(name, ratio)

    m = {}
    for name in ("closedform.evaluate_jet_extended", "closedform.evaluate_jet",
                 "numerics.rk4_step"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
        m[f"{name}.us_per_call"] = (us_per(name), "us")
    sweep = "residuals.sweep_residual"
    m[f"{sweep}.calls"] = (calls(sweep), "count")
    m[f"{sweep}.points"] = (count(sweep, "points"), "count")
    m[f"{sweep}.busy_s"] = (busy(sweep), "s")
    m[f"{sweep}.self_s"] = (self_s(sweep), "s")
    m[f"{sweep}.us_per_point"] = (us_per(sweep, "points"), "us")
    m["audit.run_audit.busy_s"] = (busy("audit.run_audit"), "s")
    m["audit.run_audit.self_s"] = (self_s("audit.run_audit"), "s")

    evo = "evolution.run_evolution"
    m[f"{evo}.calls"] = (calls(evo), "count")
    m[f"{evo}.busy_s"] = (busy(evo), "s")
    m[f"{evo}.self_s"] = (self_s(evo), "s")
    m["evolution.steps"] = (count(evo, "steps"), "count")
    m["evolution.node_steps"] = (count(evo, "node_steps"), "count")
    for label in EVOLVE_STEP_LABELS:
        per_step = [
            s.duration_ns * 1e-3 / s.counts["steps"]
            for s in spans
            if s.name == evo and s.label == label and s.counts and s.counts["steps"]
        ]
        m[f"evolution.us_per_step.{label}"] = (
            statistics.median(per_step) if per_step else 0.0, "us")
    speeds = "evolution.characteristic_speeds"
    m[f"{speeds}.calls"] = (calls(speeds), "count")
    m[f"{speeds}.busy_s"] = (busy(speeds), "s")
    m["evolution.initial_state_from_solution.busy_s"] = (
        busy("evolution.initial_state_from_solution"), "s")

    # an adaptive call makes up to three rk4_step calls per attempted full
    # step (full, then two halves); it returns once, on the accepted attempt
    adaptive = "numerics.rk4_adaptive_step"
    rk4_children = Counter(s.parent for s in spans if s.name == "numerics.rk4_step")
    adaptive_spans = [s for s in spans if s.name == adaptive]
    attempts = sum(math.ceil(rk4_children[s.id] / 3) for s in adaptive_spans)
    accepted = sum(1 for s in adaptive_spans if s.counts)
    m[f"{adaptive}.calls"] = (calls(adaptive), "count")
    m[f"{adaptive}.accept_ratio"] = (accepted / attempts if attempts else 0.0, "ratio")
    m["numerics.rk4_integrate.busy_s"] = (busy("numerics.rk4_integrate"), "s")

    for name in ("conserved.momentum_density", "conserved.momentum_flux"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.busy_s"] = (busy(name), "s")
    m["conserved.measure_scaling_exponent.busy_s"] = (
        busy("conserved.measure_scaling_exponent"), "s")
    shoot = "profiles.shoot_profile"
    m[f"{shoot}.calls"] = (calls(shoot), "count")
    m[f"{shoot}.busy_s"] = (busy(shoot), "s")
    m[f"{shoot}.steps"] = (count(shoot, "steps"), "count")
    steady = "similarity.steady_ode_integrate"
    m[f"{steady}.calls"] = (calls(steady), "count")
    m[f"{steady}.busy_s"] = (busy(steady), "s")
    m["stability.mode_growth_probe.busy_s"] = (busy("stability.mode_growth_probe"), "s")
    write = "reporting.write_csv"
    m[f"{write}.calls"] = (calls(write), "count")
    m[f"{write}.busy_s"] = (busy(write), "s")
    m[f"{write}.bytes"] = (count(write, "bytes"), "B")
    m["reporting.dumps_json.busy_s"] = (busy("reporting.dumps_json"), "s")
    m["cli.main.calls"] = (calls("cli.main"), "count")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.parse_config_text.busy_s"] = (busy("cli.parse_config_text"), "s")
    # passes alternate, so pairing neighbours cancels most of the drift
    m["trace_overhead_s"] = (
        statistics.median(t - u for u, t in zip(untraced_s, traced_s)), "s")
    return m


def environment() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": nproc,
        "cpu_model": cpu,
        "git_commit": commit,
        "src_lines": src_lines,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(workload, seconds: float, trace: bool, setup_times) -> tuple[dict, list]:
    """Warm up, then run passes for `seconds`; return (metrics, passes)."""
    workload.prepare()
    passes = [run_pass(workload)]  # fills caches and lazy imports; checked, not timed
    deadline = time.perf_counter() + seconds
    if not trace:
        timed = []
        while time.perf_counter() < deadline or len(timed) < MIN_PASSES:
            timed.append(run_pass(workload))
        passes += timed
        metrics = {
            "pass_s": (statistics.median(p.seconds for p in timed), "s"),
            "work_per_s": (statistics.median(p.work / p.seconds for p in timed), "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return metrics, passes

    tracer = Tracer()
    untraced, traced = [], []
    while time.perf_counter() < deadline or len(traced) < MIN_TRACED_PASSES:
        untraced.append(run_pass(workload))
        tracer.pass_id = len(traced)
        traced.append(run_pass(workload, tracer))
    passes += untraced + traced
    metrics = layer_metrics(
        tracer.spans, [p.seconds for p in untraced], [p.seconds for p in traced])
    attempted = sum(p.attempted for p in passes)
    metrics["fail_ratio"] = (len(failures(passes)) / attempted, "ratio")
    metrics["sup_error"] = (workload.findings.get("sup_error", 0.0), "1")
    metrics["closure_gap"] = (workload.findings.get("closure_gap", 0.0), "1")
    write_spans(OUT_DIR / f"spans-{workload.name}.csv", tracer.spans)
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "evolve", "ode"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import zmclab and build the inputs (times setup_s)")
    args = parser.parse_args(argv)

    try:
        prepare_import()
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import zmclab from {ROOT / 'src'}: {exc}\n")
        return 2
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    out_dir = OUT_DIR / args.workload
    if args.setup_probe:
        WORKLOADS[args.workload](args.seed, out_dir)
        return 0

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    metrics, passes = measure(workload, args.seconds, bool(args.trace), setup_times)

    failed = failures(passes)
    for label, errs in failed[:20]:
        sys.stderr.write(f"FAILED {label}: {errs[0].strip()}\n")
    env = environment()
    result = {
        "correct": not failed,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup_times,
        "pass_s": [p.seconds for p in passes],
        "pass_wall_s": [p.wall_seconds for p in passes],
        "kernel_s": [p.kernel_seconds for p in passes], "work": [p.work for p in passes],
        "failures": failed, **result,
    }
    with open(OUT_DIR / f"report-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
