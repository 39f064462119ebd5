#!/usr/bin/env python3
"""Run all eight CLI subcommands at their default configs into one directory.

Usage: python scripts/snapshot_defaults.py <dir> [<baseline dir>]

Each subcommand writes one fixed relative ``--out`` name inside ``<dir>``.
The ``out`` path is part of the config hashed into every output's metadata,
so absolute paths would make two identical runs look different; with
relative names, the directories written from two checkouts compare file
by file.  Each subcommand's wall time (one ``time.perf_counter`` run, in
this process, so the first run also pays the package's lazy set-up) is
printed next to its output name.  Given a baseline directory (one written
by this script from another checkout), every output is compared with the
baseline's byte for byte, each file that differs is named and followed
by its unified diff against the baseline, and the exit code is 1 if any
differs.  The package is imported from the ``src/`` of the checkout that
holds this script.
"""

import difflib
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cvactivation.cli import main  # noqa: E402  (after the path insert)

OUTPUTS = {
    "wigner": "wigner.csv",
    "negativity-depth": "negativity_depth.json",
    "loss-sweep": "loss_sweep.csv",
    "gkp-sweep": "gkp_sweep.csv",
    "pure-bounds": "pure_bounds.json",
    "activate": "activate.json",
    "boundary-mix": "boundary_mix.csv",
    "property-suite": "property_suite.json",
}


def snapshot(out_dir: str) -> int:
    """Exit code 0 when every subcommand exited 0, else 1."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    os.chdir(path)
    failed = []
    for command, out in OUTPUTS.items():
        start = time.perf_counter()
        if main([command, "--out", out]) != 0:
            failed.append(command)
        print(f"{out}: {time.perf_counter() - start:.3f} s")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"wrote {len(OUTPUTS)} outputs to {path}")
    return 0


def differing(out_dir: Path, baseline: Path) -> list[str]:
    """The outputs whose bytes differ from the baseline's, or that it lacks."""
    return [
        name
        for name in OUTPUTS.values()
        if not (baseline / name).is_file()
        or (out_dir / name).read_bytes() != (baseline / name).read_bytes()
    ]


def report(out_dir: Path, baseline: Path) -> int:
    """Print each output that differs from the baseline's with its unified
    diff (a missing baseline file diffs as empty); 1 if any differs, else 0."""
    differ = differing(out_dir, baseline)
    for name in differ:
        print(f"differs from {baseline}: {name}")
        old = (baseline / name).read_text().splitlines() if (baseline / name).is_file() else []
        new = (out_dir / name).read_text().splitlines()
        for line in difflib.unified_diff(old, new, str(baseline / name), str(out_dir / name), lineterm=""):
            print(line)
    print(f"{len(OUTPUTS) - len(differ)} of {len(OUTPUTS)} outputs byte-identical to the baseline")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__.split("\n\n")[1])
    out_dir, *baseline = (Path(arg).resolve() for arg in sys.argv[1:])
    code = snapshot(str(out_dir))
    if code == 0 and baseline:
        code = report(out_dir, baseline[0])
    raise SystemExit(code)
