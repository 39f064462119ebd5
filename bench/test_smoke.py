"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q

Each run must print every metric BENCHMARK.json names, with its unit, on
the result line; all eight end-to-end metrics on the report line; and a
correct result from checks that actually ran.  Without the package source
the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = {
    "ops_per_s": "op/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "failed_ratio": "fraction",
    "ref_error_max": "dimensionless",
    "certified_total": "dimensionless",
}


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]  # fmt: skip
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))

    assert report["checks_run"] >= result["attempted"] + 1
    assert all(op["ok"] and "record" in op for op in report["ops"])
    assert {"nproc", "python", "numpy", "scipy", "blas", "blas_threads", "seed"} <= set(report["machine"])
    if not trace:
        for name, unit in REPORTED.items():
            assert report["metrics"][name]["unit"] == unit
        assert report["metrics"]["failed_ratio"]["value"] == 0.0


def test_fails_without_package_source():
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "loss-threshold", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
