#!/usr/bin/env python3
"""Run all eight CLI subcommands at their default configs into one directory.

Usage: python scripts/snapshot_defaults.py <dir>

Each subcommand writes one fixed relative ``--out`` name inside ``<dir>``.
The ``out`` path is part of the config hashed into every output's metadata,
so absolute paths would make two identical runs look different; with
relative names, one ``diff -r`` between the directories written from two
checkouts lists every change in a default output.  The package is imported
from the ``src/`` of the checkout that holds this script.
"""

import os
import sys
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
    failed = [command for command, out in OUTPUTS.items() if main([command, "--out", out]) != 0]
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"wrote {len(OUTPUTS)} outputs to {path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    raise SystemExit(snapshot(sys.argv[1]))
