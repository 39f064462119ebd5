"""Source rules: the package builds no product-space operator and no matrix
exponential, imports no scipy anywhere (its optimizer and special functions
are numpy and math code, with scipy kept as the test oracle) and builds no
dense displacement operator (that one is a test oracle).
Witness algebra lives in witnesses.py alone, with one projector family and
no norm-bound rescale; monotones.py evaluates witnesses only through it.
A witness is built only as WitnessSpec(family, box): the spec factories are
gone, and the min(n, m) rule that fits a family into its box is written in
witnesses.py alone.
A state's dimension is its array's: no cutoff wrapper or parameter wrapper
type is left, nor the utilities no computation calls.  Wigner values come
from one Hermite-product coefficient matrix: the Clenshaw evaluator is
gone, as are the comb's pairwise tables, and wigner.py calls neither
np.linalg nor np.unique.  The package has at most 47 settable values
(scripts/count_settable_values.py).
Importing the package, or running the default loss sweep, the default
Wigner grid, a small amplified grid-code sweep or a small Gaussian fit,
loads no scipy module and no numpy.polynomial module (whose import alone
raises a grid-code sweep's peak memory)."""

import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cvactivation"
# an expression, run in the subprocess, that is True once any scipy module is loaded
SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
POLYNOMIAL_LOADED = "any(m.startswith('numpy.polynomial') for m in sys.modules)"


def _lines():
    """(module name, location tag, line) for every line under src/."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield path.name, f"{path.name}:{lineno}: {line.strip()}", line


def test_no_kron_or_expm_under_src():
    found = [where for _, where, line in _lines() if "expm" in line or "kron(" in line]
    assert not found, "\n".join(found)


def test_no_scipy_under_src():
    found = [where for _, where, line in _lines() if "scipy" in line]
    assert not found, "\n".join(found)


def test_scipy_optimize_only_in_the_gaussian_fit():
    # the Gaussian fit's Nelder-Mead is now in-package, so scipy.optimize
    # appears nowhere and the one optimizer stays in witnesses.py
    found = [
        where
        for name, where, line in _lines()
        if re.search(r"scipy\.optimize|from scipy import .*optimize", line)
        or ("_nelder_mead" in line and name != "witnesses.py")
    ]
    assert not found, "\n".join(found)


def test_no_scipy_special_under_src():
    found = [
        where
        for _, where, line in _lines()
        if re.search(r"scipy\.special|from scipy import .*special", line)
    ]
    assert not found, "\n".join(found)


def test_displacement_op_called_only_in_fock():
    # the dense displacement is a test oracle in conftest.py now, so no
    # module names it, fock.py and the package's re-export included, and
    # none builds a displacement operator
    found = [where for _, where, line in _lines() if "displacement_op" in line]
    assert not found, "\n".join(found)


def test_one_witness_algebra():
    # the projector is one family with a copy count, a witness's free set is
    # its family's, and no norm-bound rescale is left
    retired = ("rescale_to_box", "norm_bound", "PureProjector", "TwoCopyProjector")
    found = [where for _, where, line in _lines() if any(name in line for name in retired)]
    found += [where for name, where, line in _lines() if name == "monotones.py" and "np.vdot" in line]
    assert not found, "\n".join(found)


def test_monotones_evaluates_witnesses_through_witnesses_py():
    # no Wigner batch, dense operator or trace of its own: values come from
    # violation, boxes from check_box
    banned = ("wigner_batch", "OperatorMatrix", "np.trace")
    found = [
        where
        for name, where, line in _lines()
        if name == "monotones.py" and any(word in line for word in banned)
    ]
    assert not found, "\n".join(found)


def test_retired_names_are_gone():
    # the dimension is the array's, a cutoff a plain int and a channel's
    # parameter a plain number; the uncalled utilities are deleted
    retired = (
        "FockCutoff",
        "as_cutoff",
        "LossParams",
        "GaussNoiseParams",
        "sigma2_from_db",
        "ladder_ops",
        "apply_pure",
        "_psd_sqrt",
        # the Laguerre Clenshaw evaluator, replaced by the Hermite-product form
        "_clenshaw_orders",
        "_wigner_points",
        "_wigner_stack",
        "_LOCKSTEP_ENTRIES",
        "_jet_stack",
        "_hermitian_parts",
        # the comb's pairwise tables, replaced by its product form
        "_comb_pairs",
        # the spec factories, replaced by WitnessSpec(family, box)
        "displaced_parity_spec",
        "pure_projector_spec",
        "two_copy_projector_spec",
        "explicit_spec",
        # the Gaussian fit's tail tolerance, replaced by the exact fidelity
        "FIT_TAIL_TOL",
        "_sq_norm",
        # code only tests called, now their oracles in conftest.py: the
        # materialised POVM and the discord threshold (the dense displacement
        # has its own rule above)
        "povm_from_witness",
        "discord_certificate",
        # the comb's one-line wrappers (the name covers wigner_pure_comb_jet),
        # replaced by the public comb_evaluators pair
        "wigner_pure_comb",
        "_comb_evaluators",
    )
    found = [where for _, where, line in _lines() if any(name in line for name in retired)]
    assert not found, "\n".join(found)


def test_wigner_py_calls_no_linalg_and_no_unique():
    # the coefficients come from a recursion, not an eigensolver (whose
    # LAPACK load alone raises a run's peak memory), and the grid scans take
    # their axis, so no point set is reduced to its distinct values
    found = [
        where
        for name, where, line in _lines()
        if name == "wigner.py" and ("np.linalg" in line or "np.unique" in line)
    ]
    assert not found, "\n".join(found)


def test_box_scale_rule_only_in_witnesses_py():
    # WitnessSpec.scale owns how a family meets its box; no caller keeps a
    # copy of the min(n, m) factor
    pattern = re.compile(r"min\(\s*[\w.]*\bbox\.[nm]\s*,\s*[\w.]*\bbox\.[nm]\s*\)")
    found = [
        where
        for name, where, line in _lines()
        if name != "witnesses.py" and pattern.search(line)
    ]
    assert not found, "\n".join(found)


def test_settable_values_at_most_47():
    script = SRC.parent.parent / "scripts" / "count_settable_values.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True)
    assert int(out.stdout.split()[-1]) <= 47


def test_cli_runs_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = f"import sys, cvactivation.cli; print({SCIPY_LOADED})"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
    runs = [
        ["loss-sweep"],
        ["wigner"],
        # amplified, so that the sweep runs the Gaussian noise channel
        ["gkp-sweep", "--cutoff", "14", "--config", str(tmp_path / "gkp.json")],
        # the Gaussian fit, the package's one optimizer
        ["pure-bounds", "--cutoff", "12"],
    ]
    (tmp_path / "gkp.json").write_text('{"squeezing_db": [6.0], "loss_model": "amplified", "quad_order": 5}')
    for args in runs:
        out = str(tmp_path / f"{args[0]}.out")
        code = (
            "import sys; from cvactivation import cli; "
            f"code = cli.main({args + ['--out', out]!r}); "
            f"print(code, {SCIPY_LOADED}, {POLYNOMIAL_LOADED})"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split()[-3:] == ["0", "False", "False"], (args, out.stdout)
