"""Source rules: the package builds no product-space operator and no matrix
exponential, and importing it does not load the optimizer."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cvactivation"
# the two-qubit algebra of the 4x4 Werner output is the one product space needed
ALLOWED = {("activation.py", "proj = np.kron((np.eye(2) + s * sig) / 2.0, np.eye(2))")}


def test_no_kron_or_expm_under_src():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in paths
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if ("expm" in line or "kron(" in line) and (path.name, line.strip()) not in ALLOWED
    ]
    assert not found, "\n".join(found)


def test_cli_import_does_not_load_scipy_optimize():
    # scipy.optimize is imported inside the two Nelder-Mead sites, so runs
    # that never fit do not pay its import time and memory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, cvactivation.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
