#!/usr/bin/env python3
"""Write the ``repr`` of every bound of the shared corpora into one directory.

Usage: python scripts/snapshot_bounds.py <dir> [<baseline dir>]

The corpora are those of ``tests/corpora.py``, each searched with the
acceptance criteria's family search, one output file per corpus:

* ``pure_bounds.txt``: acceptance 08's ``pure_state_bounds``;
* ``hierarchy.txt``: acceptance 09's ``hierarchy_check`` triples;
* ``property_suite.txt``: acceptance 12's property report;
* ``parity_stop.txt``: the ``hierarchy_check`` triples of the states on both
  sides of the level where the parity witness beats every projector.

Each line is a state's label and the ``repr`` of its result, arrays
printed in full with every float's shortest round-trip digits, so a float
that moves by one ulp shows.  Given a baseline directory (one written by
this script from another checkout), every output is compared with the
baseline's byte for byte, each file that differs is named and followed by
its unified diff against the baseline, and the exit code is 1 if any
differs.  The package is imported from the ``src/`` of the checkout that
holds this script, the corpora from its ``tests/``.
"""

import difflib
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpora import (  # noqa: E402  (after the path insert)
    ACCEPTANCE_SEARCH,
    hierarchy_corpus,
    parity_stop_corpus,
    property_corpus,
    pure_bounds_corpus,
)
from cvactivation.monotones import hierarchy_check, property_suite, pure_state_bounds  # noqa: E402


def _lines(corpus, bound) -> list[str]:
    return [f"{label}: {bound(state)!r}" for label, state in corpus]


OUTPUTS = {
    "pure_bounds.txt": lambda: _lines(pure_bounds_corpus(), pure_state_bounds),
    "hierarchy.txt": lambda: _lines(hierarchy_corpus(), lambda rho: hierarchy_check(rho, cfg=ACCEPTANCE_SEARCH)),
    "property_suite.txt": lambda: [repr(property_suite(*property_corpus(), cfg=ACCEPTANCE_SEARCH))],
    "parity_stop.txt": lambda: _lines(parity_stop_corpus(), lambda rho: hierarchy_check(rho, cfg=ACCEPTANCE_SEARCH)),
}


def snapshot(out_dir: Path) -> None:
    np.set_printoptions(floatmode="unique", threshold=sys.maxsize)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in OUTPUTS.items():
        start = time.perf_counter()
        (out_dir / name).write_text("\n".join(lines()) + "\n")
        print(f"{name}: {time.perf_counter() - start:.3f} s")
    print(f"wrote {len(OUTPUTS)} outputs to {out_dir}")


def report(out_dir: Path, baseline: Path) -> int:
    """Print each output that differs from the baseline's with its unified
    diff (a missing baseline file diffs as empty); 1 if any differs, else 0."""
    differ = 0
    for name in OUTPUTS:
        old = (baseline / name).read_text().splitlines() if (baseline / name).is_file() else []
        new = (out_dir / name).read_text().splitlines()
        if old != new:
            differ += 1
            print(f"differs from {baseline}: {name}")
            for line in difflib.unified_diff(old, new, str(baseline / name), str(out_dir / name), lineterm=""):
                print(line)
    print(f"{len(OUTPUTS) - differ} of {len(OUTPUTS)} outputs identical to the baseline")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__.split("\n\n")[1])
    out_dir, *baseline = (Path(arg).resolve() for arg in sys.argv[1:])
    snapshot(out_dir)
    raise SystemExit(report(out_dir, baseline[0]) if baseline else 0)
