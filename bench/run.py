#!/usr/bin/env python3
"""Seeded benchmark of the cvactivation toolkit, one workload per call.

Run from the repository root:

    python3 bench/run.py --workload loss-threshold --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md): ``loss-threshold``, ``hierarchy``,
``gkp-ec``.  The package is imported from ``src/`` of this checkout.

``--trace 0`` sets the workload up in three fresh processes (``setup_s`` is
the median) and measures in the last one, untraced, single client, closed
loop: whole passes over the workload's fixed input set until ``--seconds``
have passed.  Each timed metric is taken over the inputs' median times, so
the number of passes changes the noise, not what is measured.
``--trace 1`` runs one pass under the tracer and reports per-layer
metrics.  Each worker is pinned to one CPU, BLAS to one thread and glibc's
mmap threshold to its starting value.

Standard output ends with two JSON lines: a full report (machine block,
all eight end-to-end metrics with units, tail percentile, per-op records),
then the result ``{"correct", "attempted", "failed", "metrics"}``.  The
report is also written to ``.bench_out/``.  Timed metrics are calibrated
to the CPU's nominal speed (speed.py); the report keeps ``cpu_*`` (thread
CPU time) and ``wall_*`` twins.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("loss-threshold", "hierarchy", "gkp-ec")
SETUP_RUNS = 3
# the worker is pinned to one CPU, so BLAS gets one thread
BLAS_THREADS = 1
# glibc's starting mmap threshold, fixed: left dynamic, it rises as large
# arrays are freed, and the heap's peak then depends on the order of past
# allocations (one gkp-ec seed in fifteen peaked at 325 MiB, not 276 MiB)
MMAP_THRESHOLD = 128 * 1024
DEADLINE_S = 170.0
# end-to-end metrics carried on the result line; BENCHMARK.json lists the same
RESULT_METRICS = ("ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mib")


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    return env


def run_worker(args, phase: str, index: int, deadline: float) -> dict:
    result = OUT / f"{args.workload}-seed{args.seed}-{phase}{index}-{os.getpid()}.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size,
        "--phase", phase, "--result", str(result),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=pinned_env(), stdout=sys.stderr,
            timeout=max(1.0, deadline - time.monotonic()),
        )  # fmt: skip
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{phase} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} worker exited with code {proc.returncode}")
    try:
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink(missing_ok=True)


def per_input(ops: list[dict], key: str) -> list[float]:
    """Each input's median op time over the passes that ran it."""
    times: dict[int, list[float]] = {}
    for op in ops:
        times.setdefault(op["index"], []).append(op[key])
    return [statistics.median(t) for _, t in sorted(times.items())]


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it.

    Below 20 samples no percentile above the median has ten beyond it, and
    the maximum (100th percentile, none beyond) stands in.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n >= 20 else n
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n, "beyond": n - rank, "samples": n}


def machine(seed: int, versions: dict) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(), "affinity": affinity, "blas_threads": BLAS_THREADS,
        "malloc_mmap_threshold": MMAP_THRESHOLD, "seed": seed, **versions,
    }  # fmt: skip


def end_to_end(setups: list[dict], measured: dict) -> tuple[dict, dict]:
    """The eight end-to-end metrics, plus CPU- and wall-time twins of the timed ones."""
    ops = measured["ops"]
    attempted = len(ops)
    completed = sum(op["ok"] for op in ops)
    inputs = len({op["index"] for op in ops})
    ref_errors = [op["ref_error"] for op in ops if op.get("ref_error") is not None]
    metrics, extra = {}, {}
    timings = (("", "cal_seconds", "cal_total_s"), ("cpu_", "cpu_seconds", "cpu_total_s"), ("wall_", "seconds", "total_s"))
    for prefix, key, setup_key in timings:
        times = per_input(ops, key)
        t = tail(times)
        metrics[prefix + "ops_per_s"] = (len(times) / sum(times), "op/s")
        metrics[prefix + "op_p50_s"] = (statistics.median(times), "s")
        metrics[prefix + "op_tail_s"] = (t["value"], "s")
        metrics[prefix + "setup_s"] = (statistics.median(s[setup_key] for s in setups), "s")
        extra[prefix + "op_tail"] = t
    metrics.update({
        "peak_rss_mib": (measured["peak_rss_mib"], "MiB"),
        "failed_ratio": ((attempted - completed) / attempted, "fraction"),
        "ref_error_max": (max(ref_errors, default=0.0), "dimensionless"),
        # one pass: the bounds the input set yields, whatever the pass count
        "certified_total": (sum(op.get("certified", 0.0) for op in ops[:inputs] if op["ok"]), "dimensionless"),
    })
    extra.update({
        "passes": attempted // inputs,
        "wall_s": measured["wall_s"],
        "median_slowdown": statistics.median(op["slowdown"] for op in ops),
        "setup_runs": [{k: v for k, v in s.items() if k not in ("warmup_op", "versions")} for s in setups],
    })
    return metrics, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Seeded cvactivation benchmark (one workload per call)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cvactivation" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        print("error: --seconds must be a positive number", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            traced = run_worker(args, "trace", 0, deadline)
            setups, ops = [traced["setup"]], traced["ops"]
            metrics = traced["layers"]
            extra = {"module_shares": traced["module_shares"], "replayed_ops": traced["replayed"]}
        else:
            runs = [run_worker(args, "setup", k, deadline) for k in range(SETUP_RUNS - 1)]
            measured = run_worker(args, "measure", SETUP_RUNS - 1, deadline)
            setups, ops = [r["setup"] for r in runs] + [measured["setup"]], measured["ops"]
            metrics, extra = end_to_end(setups, measured)
            if "infidelity_slope_per_db" in measured:
                extra["infidelity_slope_per_db"] = measured["infidelity_slope_per_db"]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    warm_ok = all(s["warmup_op"]["ok"] for s in setups)
    correct = attempted >= 1 and failed == 0 and warm_ok
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": machine(args.seed, setups[-1]["versions"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "checks_run": attempted + len(setups),
        "warmup_ops": [s["warmup_op"] for s in setups],
        "ops": ops,
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )
    shown = metrics if args.trace else {k: metrics[k] for k in RESULT_METRICS}
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
