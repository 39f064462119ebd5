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
gone, as are the comb's pairwise tables; wigner.py calls no np.linalg, and
no module calls np.unique.  The depth search and the Gaussian fit share one
trust-region descent, descent.py's.  The package has at most 44 settable
values and its CLI at most 45 config keys (scripts/count_settable_values.py).
The Gaussian fit runs in the Bargmann chart: witnesses.py names no r clamp
and no cosh or sinh, and the squeezed-coherent route is gone.
No module under src/, tests/ or scripts/ imports a name it never uses.
Four functions under src/ are memoised, each a table that depends on a
dimension, a count or nothing: the CLI parser, the quadrature eigensystem,
the kept beam-splitter blocks and the Gaussian fit's seeded draws; any other
functools.cache or lru_cache fails.
Importing the package, or running the default loss sweep, the default
Wigner grid, a small amplified grid-code sweep or a small Gaussian fit,
loads no scipy module and no numpy.polynomial module (whose import alone
raises a grid-code sweep's peak memory)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cvactivation"
ROOT = SRC.parent.parent
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
    # the Gaussian fit is a lockstep trust-region Newton on exact jets: no
    # scipy.optimize and no Nelder-Mead, by any spelling, anywhere under src/
    found = [
        where
        for _, where, line in _lines()
        if re.search(r"scipy\.optimize|from scipy import .*optimize", line) or "nelder" in line.lower()
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
        # the squeezed-coherent route of the Gaussian fit and its phase
        # reduction, replaced by the Bargmann chart (b, t)
        "_squeezed_coherent_steps",
        "squeezed_coherent_mass",
        "squeezed_coherent_amps",
        "_TWO_PI",
        # the simplex's stopping tolerances, gone with the simplex
        "FIT_FATOL",
        "FIT_XATOL",
        # the fit's second scorer and the batched recurrence's rounding
        # emulation: the jet's value is the score, and arrays run on numpy
        "_fit_objective",
        "_gaussian_amps_batch",
        "full_cutoff_objective",
        # the depth search's own descent and its lowest-grid-point seeds, and
        # the fit's copy of the descent: both searches run descent.py's
        "_refine",
        "_trust_step",
        "_lowest",
        "_lockstep_newton",
        "_FIT_GRAD_TOL",
        "_FIT_MIN_RADIUS",
        "_FIT_RADIUS",
        "_FIT_ACCEPT",
        "_FIT_NUDGE",
        # the descent's simplex-sized move off a zero of the overlap: a start
        # valued +inf moves out to the trust radius
        "_NUDGE",
        # the Wigner grid's displacement-tail guard: the grid keeps every
        # point, since its values are exact for the truncated state
        "dropped_points",
        # the property suite's pooled bound, now its local helper
        "_pooled_parity_bound",
    )
    found = [where for _, where, line in _lines() if any(name in line for name in retired)]
    assert not found, "\n".join(found)
    # the oracle of the deleted scorer is gone from the tests too
    assert "full_cutoff_objective" not in (ROOT / "tests" / "conftest.py").read_text(encoding="utf-8")


def test_gaussian_fit_uses_no_r_clamp_and_no_hyperbolic_functions():
    # the fit runs in the chart (b, w) with t = w / sqrt(1 + |w|^2), which
    # reaches every pure Gaussian: no code in witnesses.py names the r clamp
    # or a cosh or sinh (its docstrings may still name the clamp)
    tree = ast.parse((SRC / "witnesses.py").read_text(encoding="utf-8"))
    names = [
        (node.lineno, name)
        for node in ast.walk(tree)
        for name in (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [alias.asname or alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
    ]
    assert len(names) > 100
    found = [
        f"witnesses.py:{lineno}: {name}"
        for lineno, name in names
        if name == "DEFAULT_R_MAX" or "cosh" in name or "sinh" in name
    ]
    assert not found, "\n".join(found)


def test_one_trust_region_step_solver():
    # the depth search and the Gaussian fit share one descent: the one
    # function under src/ named for a trust-region step, and the one named
    # for a Newton loop, are descent.py's
    defined = [
        (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and re.search("trust|newton", node.name.lower())
    ]
    assert sorted(defined) == [("descent.py", "lockstep_newton"), ("descent.py", "trust_steps")], defined


def test_wigner_py_calls_no_linalg_and_no_unique():
    # the coefficients come from a recursion, not an eigensolver (whose
    # LAPACK load alone raises a run's peak memory), and the grid scans take
    # their axis, so no point set anywhere is reduced to its distinct values
    found = [
        where
        for name, where, line in _lines()
        if (name == "wigner.py" and "np.linalg" in line) or "np.unique" in line
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


_MEMOISERS = ("cache", "lru_cache", "cached_property")


def _is_memoiser(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id in _MEMOISERS) or (
        isinstance(node, ast.Attribute)
        and node.attr in _MEMOISERS
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    )


def test_only_the_listed_functions_are_memoised():
    # a memoised result is a caching layer, retired; the listed ones are
    # fixed tables (the parser, the eigensystem of the truncated quadratures,
    # the beam-splitter blocks of a dimension and the fit's seeded draws of a
    # count), so a new cache needs an edit here
    memoised, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    if any(_is_memoiser(sub) for sub in ast.walk(decorator)):
                        memoised.add((path.name, node.name))
                        decorators |= {id(sub) for sub in ast.walk(decorator)}
        # a memoiser met anywhere but in a decorator, say f = lru_cache()(g)
        stray += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_memoiser(node) and id(node) not in decorators
        ]
    assert not stray, stray
    assert memoised == {
        ("cli.py", "_parser"),
        ("fock.py", "_quadrature_eigensystem"),
        ("wigner.py", "_retained_blocks"),
        ("witnesses.py", "_seeded_draws"),
    }


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never uses: no Name node loads them and no
    attribute chain starts from them.  A name listed in ``__all__`` is a
    re-export, and ``from __future__ import annotations`` binds nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [
        f"{path.relative_to(ROOT)}:{lineno}: {name}"
        for name, lineno in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_no_unused_imports():
    paths = [path for folder in ("src", "tests", "scripts") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > 20
    found = [where for path in paths for where in _unused_imports(path)]
    assert not found, "\n".join(found)


def test_settable_values_at_most_44():
    script = ROOT / "scripts" / "count_settable_values.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True)
    assert int(out.stdout.split()[-1]) <= 44


def test_cli_config_keys_at_most_45():
    # the keys of the subcommands' config tables, counted apart from the
    # settable values: 7 + 6 + 5 + 11 + 3 + 5 + 4 + 4
    script = ROOT / "scripts" / "count_settable_values.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True)
    (line,) = [line for line in out.stdout.splitlines() if line.startswith("cli config keys:")]
    assert 0 < int(line.split()[-1]) <= 45


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
