"""One workload process: set up, then measure, trace or stop.

Started by ``run.py`` with BLAS pinned to one thread in its environment;
the process pins itself to one CPU.  Phases:

* ``setup``   import the package, build the inputs, run one warm-up op;
* ``measure`` setup, then a closed loop of ops, untraced, in whole passes
  over the workload's fixed input set until ``--seconds`` have passed;
* ``trace``   setup, then one pass over the input set under the tracer,
  then its search ops again untraced to price the tracing.

A speed sampler (speed.py) runs from the start, so set-up and each
measured op also get a calibrated time.  The result is written as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
# start no further pass this long after the process started, whatever --seconds says
HARD_STOP_S = 140.0


def import_package():
    """The package and its modules, imported from this checkout's ``src/``.

    Modules are returned by name because the package namespace re-exports
    functions that shadow some of them (``cvactivation.fock`` is a state
    factory there).
    """
    import importlib
    import types

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("cvactivation")
    if Path(package.__file__).resolve().parent.parent != src:
        raise ImportError(f"cvactivation imported from {package.__file__}, not from {src}")
    modules = {name: importlib.import_module(f"cvactivation.{name}") for name in tracer.MODULES}
    return types.SimpleNamespace(package=package, **modules)


def versions() -> dict:
    import platform

    import numpy
    import scipy

    info = {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def execute(wl, inp, index: int = -1) -> dict:
    """Run one op, time it, check it; an op that raises is a failed op."""
    start, cpu = time.perf_counter(), time.thread_time()
    checked, error = None, ""
    try:
        raw = wl.run(inp)
    except Exception:
        elapsed, cpu = time.perf_counter() - start, time.thread_time() - cpu
        error = traceback.format_exc(limit=3)
    else:
        elapsed, cpu = time.perf_counter() - start, time.thread_time() - cpu
        try:
            checked = wl.check(inp, raw)
            error = checked.message
        except Exception:
            error = traceback.format_exc(limit=3)
    entry = {
        "index": index, "label": inp.label, "start": start,
        "seconds": elapsed, "cpu_seconds": cpu, "ok": bool(checked and checked.ok),
    }  # fmt: skip
    if checked is not None:
        entry.update(certified=checked.certified, ref_error=checked.ref_error, record=checked.record)
    if error:
        entry["error"] = error
    return entry


def setup(args, workdir: Path, t_start: float, cpu_start: float, sampler) -> tuple:
    pkg = import_package()
    t_import = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload](pkg, args.size, workdir)
    inputs = wl.make_inputs(args.seed)
    t_inputs = time.perf_counter()
    warm = execute(wl, wl.warmup_input(inputs))
    t_warm = time.perf_counter()
    info = {
        "import_s": t_import - t_start,
        "inputs_s": t_inputs - t_import,
        "warmup_s": t_warm - t_inputs,
        "total_s": t_warm - t_start,
        "cpu_total_s": time.thread_time() - cpu_start,
        "cal_total_s": (t_warm - t_start) / sampler.slowdown(t_start, t_warm),
        "warmup_op": warm,
        "versions": versions(),
    }
    return pkg, workloads, wl, inputs, info


def measure(wl, inputs, seconds: float, t_start: float, sampler) -> dict:
    """Closed loop, one op at a time, in whole passes until ``seconds`` have passed."""
    ops = []
    loop_start = time.perf_counter()
    while True:
        ops += [execute(wl, inp, i) for i, inp in enumerate(inputs)]
        now = time.perf_counter()
        if now - loop_start >= seconds or now - t_start > HARD_STOP_S:
            break
    wall = time.perf_counter() - loop_start
    for op in ops:
        op["slowdown"] = sampler.slowdown(op["start"], op["start"] + op["seconds"])
        op["cal_seconds"] = op["seconds"] / op["slowdown"]
    return {"ops": ops, "wall_s": wall}


def trace(pkg, wl, inputs) -> dict:
    spans = tracer.Tracer(pkg)
    spans.install()
    try:
        ops = [execute(wl, inp, i) for i, inp in enumerate(inputs)]
    finally:
        spans.uninstall()
    # price the tracing: replay the search ops untraced, until the replay
    # has taken a quarter of the traced time
    op_s = sum(op["seconds"] for op in ops)
    replay, untraced = [], []
    for j, inp in enumerate(inputs):
        if inp.odd:
            continue
        replay.append(j)
        untraced.append(execute(wl, inp, j)["seconds"])
        if sum(untraced) >= 0.25 * op_s:
            break
    traced_s = sum(ops[j]["seconds"] for j in replay)
    search_ops = sum(1 for inp in inputs if wl.search_path and not inp.odd)
    layers = tracer.layer_metrics(spans, search_ops)
    layers["trace_coverage"] = (spans.root_s / op_s if op_s else 0.0, "fraction")
    layers["trace_overhead_ratio"] = (traced_s / sum(untraced), "ratio")
    shares = {m: s / op_s for m, s in spans.module_self_s().items()} if op_s else {}
    return {"ops": ops, "layers": layers, "module_shares": shares, "replayed": len(replay)}


def main(argv=None) -> int:
    t_start, cpu_start = time.perf_counter(), time.thread_time()
    # one CPU, so the speed sampler times the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    import speed  # imports numpy, after the CPU pinning above

    out_dir = Path(args.result).parent
    with tempfile.TemporaryDirectory(prefix="ops-", dir=out_dir) as tmp, speed.SpeedSampler() as sampler:
        pkg, workloads, wl, inputs, setup_info = setup(args, Path(tmp), t_start, cpu_start, sampler)
        result = {"setup": setup_info}
        if args.phase == "measure":
            result.update(measure(wl, inputs, args.seconds, t_start, sampler))
            if wl.name == "gkp-ec":
                records = [op["record"] for op in result["ops"] if "record" in op]
                result["infidelity_slope_per_db"] = workloads.infidelity_slopes(records)
        elif args.phase == "trace":
            sampler.stop()  # per-layer times are taken as they come
            result.update(trace(pkg, wl, inputs))
        result["speed_samples"] = len(sampler.samples)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
