"""Source rules: the package builds no product-space operator and no matrix exponential."""

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
