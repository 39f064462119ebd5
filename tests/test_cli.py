import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvactivation import cli, wigner
from cvactivation.cli import main
from cvactivation.fock import DISPLACEMENT_TAIL_TOL, coherent_tail_mass
from cvactivation.states import GkpParams, fock
from cvactivation.witnesses import GaussianFitConfig, gaussian_fidelity


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, val = line[2:].split(": ", 1)
            meta[key] = json.loads(val)
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, columns, rows


def test_wigner_command(tmp_path):
    out = tmp_path / "wigner.csv"
    assert run(["wigner", "--out", out]) == 0
    meta, columns, rows = read_csv(out)
    assert columns == ["re_alpha", "im_alpha", "w_value"]
    assert meta["tool_version"]
    assert meta["config_hash"]
    assert "max_leakage" in meta
    values = np.array([[float(x) for x in row] for row in rows])
    # the single-photon grid dips to -2/pi at the origin
    assert values[:, 2].min() == pytest.approx(-2.0 / math.pi, abs=1e-4)


def test_wigner_vacuum_nonnegative(tmp_path, capsys):
    out = tmp_path / "wigner.csv"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"state": {"kind": "fock", "n": 0}}))
    assert run(["wigner", "--config", cfgfile, "--out", out]) == 0
    _, _, rows = read_csv(out)
    assert min(float(r[2]) for r in rows) >= -1e-12
    # a codeword damped beyond the float range of cosh and sinh is the vacuum
    for eps in (1000.0, 1e300):
        cfgfile.write_text(json.dumps({"state": {"kind": "gkp", "epsilon": eps}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["wigner", "--config", cfgfile, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        values = np.array([float(r[2]) for r in read_csv(out)[2]])
        assert np.max(np.abs(values - [float(r[2]) for r in rows])) <= 1e-12


def test_negativity_depth_command(tmp_path):
    out = tmp_path / "depth.json"
    assert run(["negativity-depth", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["depth"] == pytest.approx(2.0 / math.pi, abs=1e-6)
    assert doc["metadata"]["config"]["state"] == {"kind": "fock", "n": 1}


def test_loss_sweep_command(tmp_path):
    out = tmp_path / "loss.csv"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"etas": [0.0, 0.5, 0.75, 1.0], "cutoff": 25}))
    assert run(["loss-sweep", "--config", cfgfile, "--out", out]) == 0
    meta, columns, rows = read_csv(out)
    assert columns == [
        "eta",
        "parity_expectation",
        "wn_lower_bound",
        "activated_E",
        "activated_S",
        "classification",
    ]
    table = {float(r[0]): r for r in rows}
    assert float(table[0.5][2]) == pytest.approx(0.0, abs=1e-9)
    assert float(table[1.0][2]) == pytest.approx(1.0, abs=1e-9)
    assert float(table[1.0][3]) == pytest.approx(0.5, abs=1e-9)
    assert float(table[1.0][4]) == pytest.approx(1.0, abs=1e-9)
    assert float(table[0.75][3]) == pytest.approx(0.25, abs=1e-6)


def test_loss_sweep_where_the_loss_factor_underflows(tmp_path):
    # (1 - eta)^k / k! leaves the normal float range from k = 160 at eta = 0.3
    out = tmp_path / "loss.csv"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"etas": [0.3], "cutoff": 161}))
    assert run(["loss-sweep", "--config", cfgfile, "--out", out]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0][1]) == pytest.approx(0.4, abs=1e-12)  # parity 1 - 2 eta


def test_loss_sweep_even_fock_reports_grid_bound(tmp_path):
    out = tmp_path / "loss2.csv"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"etas": [1.0], "fock_n": 2, "cutoff": 25}))
    assert run(["loss-sweep", "--config", cfgfile, "--out", out]) == 0
    _, _, rows = read_csv(out)
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)  # parity +1
    assert float(rows[0][2]) > 0.3  # displaced witnesses still detect |2>


def test_pure_bounds_command(tmp_path):
    out = tmp_path / "pure.json"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"state": {"kind": "coherent", "alpha": [1.0, 0.0]}}))
    assert run(["pure-bounds", "--config", cfgfile, "--out", out]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["gng_lower"] == pytest.approx(0.0, abs=1e-6)
    assert res["sng_lower"] == pytest.approx(0.0, abs=1e-6)
    assert res["activated_steering_floor_sng"] == res["sng_lower"]
    # the fit reports its lockstep Newton steps, at most the default maxiter
    assert 0 < res["gaussian_fit"]["steps"] <= GaussianFitConfig().maxiter


def test_activate_command(tmp_path):
    out = tmp_path / "act.json"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(
        json.dumps(
            {
                "state": {"kind": "fock", "n": 1},
                "channel": {"kind": "loss", "eta": 0.6},
                "witness": {"family": "parity"},
            }
        )
    )
    assert run(["activate", "--config", cfgfile, "--out", out]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["steering_channel"]["q"] == pytest.approx(0.6, abs=1e-9)
    assert res["steering_channel"]["classification"] == "steerable_chsh_local"
    assert res["entanglement_channel"]["E"] == pytest.approx(0.1, abs=1e-9)


def test_boundary_mix_command(tmp_path):
    out = tmp_path / "bm.csv"
    assert run(["boundary-mix", "--out", out]) == 0
    _, _, rows = read_csv(out)
    for row in rows:
        assert float(row[1]) == float(row[0])
        assert float(row[2]) >= float(row[0]) - 1e-6


def test_property_suite_command(tmp_path):
    out = tmp_path / "suite.json"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cutoff": 20, "resolution": 25}))
    assert run(["property-suite", "--config", cfgfile, "--out", out]) == 0
    res = json.loads(out.read_text())["result"]
    assert res["all_passed"]


def test_gkp_sweep_small(tmp_path):
    out = tmp_path / "gkp.csv"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(
        json.dumps(
            {
                "squeezing_db": [5.0, 7.0],
                "cutoff": 20,
                "depth_resolution": 25,
                "eta": 0.9,
            }
        )
    )
    assert run(["gkp-sweep", "--config", cfgfile, "--out", out]) == 0
    meta, columns, rows = read_csv(out)
    assert columns == [
        "squeezing_db",
        "epsilon",
        "e_in",
        "e_out",
        "infidelity",
        "codeword_leakage",
    ]
    assert len(rows) == 2
    for row in rows:
        assert float(row[3]) <= float(row[2])  # e_out <= e_in


def test_gkp_sweep_identity_pipeline(tmp_path):
    out = tmp_path / "gkp_id.csv"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(
        json.dumps(
            {
                "squeezing_db": [6.0],
                "eta": 1.0,
                "ec": False,
                "cutoff": 24,
                "depth_resolution": 30,
            }
        )
    )
    assert run(["gkp-sweep", "--config", cfgfile, "--out", out]) == 0
    _, _, rows = read_csv(out)
    (row,) = rows
    assert float(row[4]) == pytest.approx(0.0, abs=1e-9)  # infidelity
    assert float(row[3]) == pytest.approx(float(row[2]), abs=2e-3)  # e_out vs e_in


def test_byte_identical_reruns(tmp_path):
    out = tmp_path / "a.csv"
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"etas": [0.5, 0.9], "cutoff": 20}))
    assert run(["loss-sweep", "--config", cfgfile, "--out", out]) == 0
    first = out.read_bytes()
    assert run(["loss-sweep", "--config", cfgfile, "--out", out]) == 0
    assert out.read_bytes() == first


def test_config_error_exit_code(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"no_such_key": 1}))
    assert run(["loss-sweep", "--config", cfgfile, "--out", tmp_path / "x.csv"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["wigner", "--config", bad, "--out", tmp_path / "y.csv"]) == 2


def test_truncation_error_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    # |alpha|^2 of the second overflows to inf, whose tail is all of the state;
    # the cats' amplitudes do not yet underflow (a config error, from 38.6 on);
    # the thermal state leaks 0.905 above cutoff 10
    for state in (
        {"kind": "coherent", "alpha": [4.0, 0.0]},
        {"kind": "coherent", "alpha": 1e200},
        {"kind": "cat", "alpha": 20, "sign": 1},
        {"kind": "cat", "alpha": 30, "sign": 1},
        {"kind": "thermal", "nbar": 100},
    ):
        cfgfile.write_text(json.dumps({"state": state, "cutoff": 10}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["wigner", "--config", cfgfile, "--out", tmp_path / "w.csv"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("truncation error:") and len(err.splitlines()) == 1
    out = tmp_path / "d.json"
    assert run(["negativity-depth", "--config", cfgfile, "--out", out]) == 3
    assert capsys.readouterr().err.startswith("truncation error: thermal leaks")


def test_overflowing_gaussian_exits_3(tmp_path, capsys):
    # its closed-form mass overflows, which gaussian_pure refuses before it
    # builds any amplitude
    cfgfile = tmp_path / "cfg.json"
    state = {"kind": "gaussian", "alpha": 1e6}
    cfgfile.write_text(json.dumps({"cutoff": 10, "resolution": 4, "state": state}))
    assert run(["negativity-depth", "--config", cfgfile, "--out", tmp_path / "d.json"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("truncation error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "d.json").exists()


def test_overflowing_gaussian_exits_3_without_a_warning(tmp_path, capsys):
    # main turns an exception into an exit code but lets a numpy warning
    # through to stderr, so the exit-code fuzz cannot see one
    cfgfile = tmp_path / "cfg.json"
    state = {"kind": "gaussian", "alpha": 1e308, "r": 0.2, "phi": 0.1}
    cfgfile.write_text(json.dumps({"cutoff": 10, "state": state}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["wigner", "--config", cfgfile, "--out", tmp_path / "w.csv"]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith("truncation error:")


def test_vanishing_grid_code_squeezing_exits_2_without_a_warning(tmp_path):
    # 10 ** (-dB / 10) rounds to 1 for these, whose arctanh is inf; a fresh
    # interpreter prints any numpy warning to stderr
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cfgfile = tmp_path / "cfg.json"
    for command, cfg in (
        ("wigner", {"state": {"kind": "gkp", "squeezing_db": 1e-300}}),
        ("gkp-sweep", {"ancilla_db": 1e-17}),
    ):
        cfgfile.write_text(json.dumps(cfg))
        args = [command, "--config", str(cfgfile), "--out", str(tmp_path / "out")]
        res = subprocess.run(
            [sys.executable, "-m", "cvactivation.cli", *args], env=env, capture_output=True, text=True
        )
        assert res.returncode == 2, (command, res.stderr)
        assert res.stderr.startswith("config error:") and "Warning" not in res.stderr, res.stderr


def test_write_csv_writes_numpy_scalars_as_their_numbers(tmp_path):
    # repr of a numpy 2 float64 is "np.float64(0.5)"; str is "0.5", as for a float
    out = tmp_path / "row.csv"
    cli.write_csv(out, ("x", "n", "flag"), [(np.float64(0.5), np.int64(3), True)], {})
    assert out.read_text().splitlines() == ["x,n,flag", "0.5,3,True"]


def test_gkp_sweep_ec_needs_cutoff_14(tmp_path):
    # the ancilla check reads the translation by i sqrt(pi/2), which leaks
    # above the displacement tolerance at every cutoff up to 13
    cfgfile = tmp_path / "cfg.json"
    for cutoff, code in ((13, 3), (14, 0)):
        cfgfile.write_text(json.dumps({"cutoff": cutoff, "squeezing_db": [6.0], "depth_resolution": 6}))
        assert run(["gkp-sweep", "--config", cfgfile, "--out", tmp_path / "g.csv"]) == code


def test_invariant_failure_exit_code(tmp_path):
    # a disc too small to integrate the marginal trips the grid validation
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(
        json.dumps(
            {
                "state": {"kind": "gkp", "epsilon": 0.25},
                "cutoff": 50,
                "radius": 1.2,
                "resolution": 30,
            }
        )
    )
    assert run(["wigner", "--config", cfgfile, "--out", tmp_path / "w.csv"]) == 4


@pytest.mark.parametrize("cutoff", [30, 60])
def test_coarse_grid_fails_the_marginal_check_at_every_cutoff(tmp_path, cutoff):
    # 11 x 11 points over Fock 1's radius-5 square cannot integrate its
    # marginal; every column is checked, whatever the cutoff
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cutoff": cutoff, "resolution": 5}))
    assert run(["wigner", "--config", cfgfile, "--out", tmp_path / "w.csv"]) == 4
    assert not (tmp_path / "w.csv").exists()


def test_seed_list_flag(tmp_path, capsys):
    # the fit's seeds are fixed: no flag sets them, and a seeds key, even at
    # the fixed value, is an unknown key
    out, cfgfile = tmp_path / "out.json", tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seeds": [0, 1, 2, 3]}))
    for command in ("pure-bounds", "activate"):
        assert run([command, "--config", cfgfile, "--out", out]) == 2
        assert "seeds" in capsys.readouterr().err
    assert not out.exists()


def test_seed_and_budget_rejected_where_ignored(tmp_path):
    # --seed-list and --budget are no options of any subcommand: argparse exits 2
    for command, name, flag in (
        ("wigner", "w.csv", "--seed-list"),
        ("loss-sweep", "l.csv", "--budget"),
        ("gkp-sweep", "g.csv", "--budget"),
        ("activate", "a.json", "--budget"),
    ):
        with pytest.raises(SystemExit) as exc:
            run([command, "--out", tmp_path / name, flag, "1"])
        assert exc.value.code == 2
    assert not any((tmp_path / name).exists() for name in ("w.csv", "l.csv", "g.csv", "a.json"))


@pytest.mark.parametrize("bad", [{"ancilla_db": -3}, {"squeezing_db": [0]}])
def test_gkp_sweep_rejects_bad_squeezing(tmp_path, bad):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(bad))
    assert run(["gkp-sweep", "--config", cfgfile, "--out", tmp_path / "g.csv"]) == 2
    assert not (tmp_path / "g.csv").exists()


def _gkp_state(**keys):
    return {"kind": "gkp", "tail_tol": 1.0, **keys}


_DAMP_ALL = {"kind": "damping", "epsilon": 1e6}
_SUBTRACTED = {"kind": "photon_subtracted_squeezed"}


def _projector(family, lam):
    return {"family": family, "state": {"kind": "fock", "n": 1}, "lambda": lam}


@pytest.mark.parametrize(
    "command, bad",
    [
        ("negativity-depth", {"resolution": -3, "cutoff": 10}),
        ("wigner", {"resolution": -3, "cutoff": 10}),
        ("negativity-depth", {"state": {"kind": "thermal", "nbar": "nan"}, "cutoff": 10}),
        ("loss-sweep", {"etas": ["abc"], "cutoff": 10}),
        ("activate", {"witness": {"family": "parity", "alpha": [0, "x"]}, "cutoff": 10}),
        ("activate", {"channel": {"kind": "loss", "eta": "nan"}, "cutoff": 10}),
        ("boundary-mix", {"t_grid": [2], "cutoff": 10}),
        ("activate", {"witness": _projector("pure_projector", 1.5), "cutoff": 10}),
        ("activate", {"witness": _projector("pure_projector", "nan"), "cutoff": 10}),
        ("activate", {"witness": _projector("two_copy_projector", -0.2), "cutoff": 10}),
        ("activate", {"witness": _projector("two_copy_projector", 1.5), "cutoff": 66}),
        ("gkp-sweep", {"eta": "x", "cutoff": 10}),
        ("gkp-sweep", {"tail_tol_two": "x", "cutoff": 10}),
        ("gkp-sweep", {"quad_order": "x", "loss_model": "amplified", "cutoff": 10}),
        ("gkp-sweep", {"eta": 0.0, "loss_model": "amplified", "cutoff": 10}),
        ("loss-sweep", {"fock_n": "x", "cutoff": 10}),
        ("loss-sweep", {"fock_n": -1, "cutoff": 10}),
        ("loss-sweep", {"cutoff": 1}),
        ("activate", {"cutoff": "x"}),
        ("pure-bounds", {"seeds": "x", "cutoff": 10}),
        ("pure-bounds", {"seeds": [-1], "cutoff": 10}),
        ("property-suite", {"states": 5, "cutoff": 10}),
        ("wigner", {"validate_marginal": "false", "cutoff": 10}),
        ("wigner", {"validate_marginal": 1, "cutoff": 10}),
        ("gkp-sweep", {"ec": "false", "cutoff": 10}),
        ("gkp-sweep", {"ec": None, "cutoff": 10}),
        ("gkp-sweep", {"quad_order": 0, "cutoff": 10}),
        ("activate", {"channel": {"kind": "loss", "etaa": 0.3}, "cutoff": 10}),
        ("wigner", {"state": {"kind": "fock", "nn": 1}, "cutoff": 10}),
        ("negativity-depth", {"state": {"kind": "cat", "alpah": 2}, "cutoff": 10}),
        ("activate", {"witness": {"family": "parity", "alfa": [1, 0]}, "cutoff": 10}),
        ("activate", {"witness": _projector("pure_projector", 0.5) | {"lam": 1}, "cutoff": 10}),
        ("wigner", {"state": _gkp_state(epsilon=0.3, squeezing_db=8), "cutoff": 10}),
        # a damping channel that zeroes the state
        ("wigner", {"channel": _DAMP_ALL, "cutoff": 8}),
        ("negativity-depth", {"channel": _DAMP_ALL, "cutoff": 8}),
        ("activate", {"channel": _DAMP_ALL, "cutoff": 8}),
        # sizes far above their caps
        ("loss-sweep", {"cutoff": 1e308}),
        ("gkp-sweep", {"cutoff": 1e308}),
        ("boundary-mix", {"cutoff": 1e308}),
        ("property-suite", {"cutoff": 1e308}),
        ("wigner", {"resolution": 1e308, "cutoff": 8}),
        ("negativity-depth", {"resolution": 1e308, "cutoff": 8}),
        ("loss-sweep", {"resolution": 1e308, "cutoff": 8}),
        ("gkp-sweep", {"depth_resolution": 1e308, "cutoff": 8}),
        ("boundary-mix", {"resolution": 1e308, "cutoff": 8}),
        ("wigner", {"state": {"kind": "gkp", "squeezing_db": 300}, "cutoff": 8}),
        ("gkp-sweep", {"squeezing_db": [300], "cutoff": 8}),
        ("gkp-sweep", {"ancilla_db": 300, "cutoff": 8}),
        # a spec typo is reported even where the build it skews would truncate
        ("wigner", {"state": {"kind": "gkp", "epsilon": 0.3, "squeezing_db": 8}, "cutoff": 10}),
        # radii far above their cap
        ("wigner", {"radius": 1e308, "resolution": 4, "cutoff": 8}),
        ("negativity-depth", {"radius": 1e308, "resolution": 4, "cutoff": 8}),
        ("gkp-sweep", {"depth_radius": 1e308, "depth_resolution": 4, "ec": False}),
        # truncation tolerances outside [0, 1]
        ("gkp-sweep", {"tail_tol_two": math.nan, "cutoff": 10}),
        ("gkp-sweep", {"tail_tol_two": -1e-6, "cutoff": 10}),
        ("gkp-sweep", {"tail_tol_two": math.inf, "cutoff": 10}),
        ("gkp-sweep", {"tail_tol_two": 1.5, "cutoff": 10}),
        ("wigner", {"state": _gkp_state(squeezing_db=8) | {"tail_tol": math.nan}, "cutoff": 10}),
        ("wigner", {"state": _gkp_state(squeezing_db=8) | {"tail_tol": -1.0}, "cutoff": 10}),
        # squeezing the amplitude recurrence cannot take
        ("pure-bounds", {"state": _SUBTRACTED | {"r": math.nan}, "cutoff": 10}),
        ("pure-bounds", {"state": _SUBTRACTED | {"r": 1e6}, "cutoff": 10}),
        # Fock and logical indices that are not whole numbers
        ("loss-sweep", {"fock_n": 1.7, "cutoff": 10}),
        ("loss-sweep", {"fock_n": True, "cutoff": 10}),
        ("wigner", {"state": {"kind": "fock", "n": 2.9}, "cutoff": 10}),
        ("negativity-depth", {"state": {"kind": "fock", "n": False}, "cutoff": 10}),
        ("wigner", {"state": _gkp_state(squeezing_db=8, logical=0.5), "cutoff": 10}),
        ("wigner", {"state": _gkp_state(squeezing_db=8, logical=True), "cutoff": 10}),
        # a cat sign other than the whole number +1 or -1
        ("wigner", {"state": {"kind": "cat", "alpha": 1.0, "sign": 1.7}, "cutoff": 10}),
        ("wigner", {"state": {"kind": "cat", "alpha": 1.0, "sign": True}, "cutoff": 10}),
        ("wigner", {"state": {"kind": "cat", "alpha": 1.0, "sign": 0}, "cutoff": 10}),
        # JSON true and false where a number is read
        ("activate", {"channel": {"kind": "loss", "eta": True}, "cutoff": 10}),
        ("wigner", {"state": {"kind": "coherent", "alpha": True}, "cutoff": 10}),
        ("wigner", {"state": {"kind": "coherent", "alpha": [0.5, False]}, "cutoff": 10}),
        ("wigner", {"state": {"kind": "thermal", "nbar": True}, "cutoff": 10}),
        ("gkp-sweep", {"eta": True, "cutoff": 10}),
        ("loss-sweep", {"etas": [0.5, True], "cutoff": 10}),
        ("boundary-mix", {"t_grid": [0.0, True], "cutoff": 10}),
        ("activate", {"witness": _projector("pure_projector", True), "cutoff": 10}),
        ("pure-bounds", {"seeds": [0, True], "cutoff": 10}),
        # a damping rate whose product with the level index overflows
        ("activate", {"channel": {"kind": "damping", "epsilon": 1e308}, "cutoff": 8}),
        # cat amplitudes whose e^(-|alpha|^2/2) underflows, or whose |alpha|^2 overflows
        ("wigner", {"state": {"kind": "cat", "alpha": 40, "sign": 1}, "cutoff": 10}),
        ("wigner", {"state": {"kind": "cat", "alpha": 1e200, "sign": 1}, "cutoff": 10}),
        # a subnormal e^(-|alpha|^2/2), whose squared amplitudes all underflow
        ("wigner", {"state": {"kind": "cat", "alpha": 38.6, "sign": 1}, "cutoff": 10}),
        # a parity displacement whose |2 alpha|^2 overflows in the Wigner value
        ("activate", {"witness": {"family": "parity", "alpha": -1e308}, "cutoff": 10}),
        ("activate", {"witness": {"family": "parity", "alpha": [0, 1e154]}, "cutoff": 10}),
        # the noise channel is exact: its spec has no quadrature order
        ("activate", {"channel": {"kind": "gaussian_noise", "quad_order": 5}, "cutoff": 10}),
        ("wigner", {"channel": {"kind": "gaussian_noise", "quad_order": 30}, "cutoff": 10}),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, command, bad):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(bad))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([command, "--config", cfgfile, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    if bad.get("state", {}).get("kind") == "photon_subtracted_squeezed":
        assert "squeezing r=" in err
    if bad.get("state", {}).get("alpha") in (40, 1e200, 38.6):
        assert "cat alpha=" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, bad, message",
    [
        ("loss-sweep", {"cutoff": 1}, "cutoff dim must be an integer >= 2, got 1"),
        ("activate", {"cutoff": 1.5}, "must be a whole number in [1, 200]"),
        ("loss-sweep", {"etas": [0.5, 1.2]}, "transmissivity must lie in [0, 1], got 1.2"),
        ("gkp-sweep", {"eta": 1.2}, "transmissivity must lie in [0, 1], got 1.2"),
        ("activate", {"channel": {"kind": "loss", "eta": 1.2}}, "got 1.2"),
        (
            "activate",
            {"channel": {"kind": "gaussian_noise", "sigma2": 0}},
            "sigma2 must be finite and positive, got 0.0",
        ),
        ("activate", {"channel": {"kind": "gaussian_noise", "sigma2": -0.5}}, "positive, got -0.5"),
        ("activate", {"channel": {"kind": "gaussian_noise", "sigma2": "inf"}}, "positive, got inf"),
        ("activate", {"channel": {"kind": "gaussian_noise", "sigma2": "nan"}}, "positive, got nan"),
    ],
)
def test_bad_cutoff_eta_and_sigma2_exit_2_with_the_library_message(
    tmp_path, capsys, command, bad, message
):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(bad))
    assert run([command, "--config", cfgfile, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, bad",
    [
        ("negativity-depth", {"resolution": 4, "cutoff": 8}),
        ("gkp-sweep", {"depth_resolution": 4, "squeezing_db": [6.0], "ec": False}),
    ],
)
def test_non_finite_wigner_values_exit_4(tmp_path, capsys, monkeypatch, command, bad):
    # no config within the caps yields a non-finite Wigner value, so the
    # search grid is made to hold one, as an overflowing radius once did
    monkeypatch.setattr(wigner, "_square_axis", lambda radius, resolution: np.array([np.nan, 0.0]))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(bad))
    assert run([command, "--config", cfgfile, "--out", tmp_path / "out"]) == 4
    assert "not finite" in capsys.readouterr().err


def _lambda_run(tmp_path, family, lam):
    """activate on a coherent input with a Fock 1 projector of the given lambda."""
    cfg = {
        "cutoff": 25,
        "state": {"kind": "coherent", "alpha": 1.0},
        "witness": {"family": family, "state": {"kind": "fock", "n": 1}, "lambda": lam},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return run(["activate", "--config", tmp_path / "cfg.json", "--out", tmp_path / "out.json"])


def _fitted_fock1_lambda():
    return gaussian_fidelity(fock(1, 25)).max_fidelity


def test_projector_lambda_below_the_fit_exits_2(tmp_path, capsys):
    # Fock 1's fitted maximal Gaussian fidelity is 0.4779, so lambda 0.1 is not
    # a feasible witness; taken unchecked, it gave the coherent input E = 0.134
    assert _lambda_run(tmp_path, "pure_projector", 0.1) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "lambda 0.1 is below" in err and repr(_fitted_fock1_lambda()) in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("family", ["pure_projector", "two_copy_projector"])
@pytest.mark.parametrize("at_fit", [True, False])
def test_projector_lambda_at_or_above_the_fit_runs(tmp_path, family, at_fit):
    # the fitted lambda itself, and the fuzz table's 0.48 just above it
    lam = _fitted_fock1_lambda() if at_fit else 0.48
    assert _lambda_run(tmp_path, family, lam) == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["result"]["entanglement_channel"]["witness"]["lambda"] == lam


# (command, config at a size cap, the same config one step above it)
_CAPS = [
    ("wigner", {"cutoff": cli.MAX_CUTOFF}, {"cutoff": cli.MAX_CUTOFF + 1}),
    ("wigner", {"resolution": cli.MAX_RESOLUTION}, {"resolution": cli.MAX_RESOLUTION + 1}),
    (
        "gkp-sweep",
        {"depth_resolution": cli.MAX_RESOLUTION},
        {"depth_resolution": cli.MAX_RESOLUTION + 1},
    ),
    ("gkp-sweep", {"quad_order": cli.MAX_QUAD_ORDER}, {"quad_order": cli.MAX_QUAD_ORDER + 1}),
    (
        "gkp-sweep",
        {"quad_order": cli.MAX_QUAD_ORDER, "loss_model": "amplified", "eta": 0.999},
        {"quad_order": cli.MAX_QUAD_ORDER + 1, "loss_model": "amplified", "eta": 0.999},
    ),
    (
        "activate",
        {"cutoff": cli.MAX_CUTOFF, "channel": {"kind": "gaussian_noise", "sigma2": 1e-3}},
        {"cutoff": cli.MAX_CUTOFF + 1},
    ),
    (
        "wigner",
        {"state": _gkp_state(squeezing_db=10.0, peak_window=cli.MAX_PEAK_WINDOW)},
        {"state": _gkp_state(squeezing_db=10.0, peak_window=cli.MAX_PEAK_WINDOW + 1)},
    ),
    (
        "gkp-sweep",
        {"squeezing_db": [cli.MAX_SQUEEZING_DB], "ancilla_db": cli.MAX_SQUEEZING_DB},
        {"squeezing_db": [cli.MAX_SQUEEZING_DB + 1]},
    ),
    ("gkp-sweep", {"ancilla_db": cli.MAX_SQUEEZING_DB}, {"ancilla_db": cli.MAX_SQUEEZING_DB + 1}),
    (
        "wigner",
        {"state": _gkp_state(squeezing_db=cli.MAX_SQUEEZING_DB)},
        {"state": _gkp_state(squeezing_db=cli.MAX_SQUEEZING_DB + 1)},
    ),
    (
        "wigner",
        {"state": _gkp_state(epsilon=GkpParams.from_db(cli.MAX_SQUEEZING_DB).epsilon)},
        {"state": _gkp_state(epsilon=GkpParams.from_db(cli.MAX_SQUEEZING_DB + 1).epsilon)},
    ),
    ("wigner", {"radius": cli.MAX_RADIUS}, {"radius": cli.MAX_RADIUS + 1e-9}),
    ("negativity-depth", {"radius": cli.MAX_RADIUS}, {"radius": cli.MAX_RADIUS + 1e-9}),
    ("gkp-sweep", {"depth_radius": cli.MAX_RADIUS}, {"depth_radius": cli.MAX_RADIUS + 1e-9}),
    (
        "activate",
        {"witness": {"family": "parity", "alpha": [0, -cli.MAX_RADIUS]}},
        {"witness": {"family": "parity", "alpha": [0, -cli.MAX_RADIUS - 1e-9]}},
    ),
]


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for name in ("a.json", "b.json"):
        assert run(["activate", "--cutoff", 10, "--out", tmp_path / name]) == 0
    assert built == [1]
    assert cli._parser().format_help() == build().format_help()


def test_radius_cap_is_the_edge_of_the_largest_cutoff():
    # up to the cap a coherent state fits MAX_CUTOFF levels; a little beyond, it does not
    assert coherent_tail_mass(cli.MAX_RADIUS, cli.MAX_CUTOFF) <= DISPLACEMENT_TAIL_TOL
    assert coherent_tail_mass(cli.MAX_RADIUS + 0.05, cli.MAX_CUTOFF) > DISPLACEMENT_TAIL_TOL


def test_size_caps_are_the_documented_ones():
    caps = (cli.MAX_CUTOFF, cli.MAX_RESOLUTION, cli.MAX_QUAD_ORDER, cli.MAX_PEAK_WINDOW)
    assert caps == (200, 400, 30, 100)
    assert cli.MAX_SQUEEZING_DB == 30.0


@pytest.mark.parametrize("command, at_cap, _", _CAPS)
def test_size_at_its_cap_parses(tmp_path, command, at_cap, _):
    # parsed only: a run at a cap can be large
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cutoff": 10} | at_cap))
    args = cli.build_parser().parse_args([command, "--config", str(cfgfile)])
    _, table = cli._COMMANDS[command]
    cfg, opts = cli._resolve(args, table)
    assert set(opts) == set(cfg) == set(table)


@pytest.mark.parametrize("command, _, above_cap", _CAPS)
def test_size_above_its_cap_exits_2(tmp_path, capsys, command, _, above_cap):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"cutoff": 10} | above_cap))
    assert run([command, "--config", cfgfile, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "cap" in err or "whole number in [1, " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", [5, "", None, ["a.json"]])
def test_bad_out_path_exits_2_before_running(tmp_path, capsys, monkeypatch, out):
    def must_not_run(cfg):
        raise AssertionError("the subcommand ran before its out path was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli._COMMANDS, "activate", (must_not_run, cli._COMMANDS["activate"][1]))
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"out": out, "cutoff": 10}))
    assert run(["activate", "--config", cfgfile]) == 2
    assert capsys.readouterr().err.startswith("config error: bad out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_validate_marginal_false_skips_the_check(tmp_path):
    # the config of test_invariant_failure_exit_code, with the check switched off
    cfg = {
        "state": {"kind": "gkp", "epsilon": 0.25},
        "cutoff": 50,
        "radius": 1.2,
        "resolution": 30,
        "validate_marginal": False,
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    assert run(["wigner", "--config", cfgfile, "--out", tmp_path / "w.csv"]) == 0
    meta, _, _ = read_csv(tmp_path / "w.csv")
    assert meta["config"]["validate_marginal"] is False


# -- exit-code fuzz -----------------------------------------------------------

# configs from each subcommand's key table, shrunk so that every run is small
_SMALL = {
    "cutoff": 10,
    "resolution": 4,
    "depth_resolution": 4,
    "squeezing_db": [6.0],
    "ec": False,
    "etas": [0.3, 0.8],
    "t_grid": [0.0, 1.0],
}
_SPECS = {
    "state": [
        {"kind": "fock", "n": 1},
        {"kind": "coherent", "alpha": [0.5, 0.2]},
        {"kind": "cat", "alpha": 1.0, "sign": -1},
        {"kind": "thermal", "nbar": 0.3},
        {"kind": "gaussian", "alpha": 0.3, "r": 0.2, "phi": 0.1},
        {"kind": "photon_subtracted_squeezed", "r": 0.3},
        {"kind": "gkp", "squeezing_db": 8.0, "tail_tol": 1.0},
    ],
    "channel": [
        {"kind": "loss", "eta": 0.6},
        {"kind": "gaussian_noise", "sigma2": 0.05},
        {"kind": "damping", "epsilon": 0.1},
    ],
    "witness": [
        {"family": "parity", "alpha": [0.1, 0.0]},
        {"family": "pure_projector", "state": {"kind": "fock", "n": 1}, "lambda": 0.48},
        {"family": "two_copy_projector", "state": {"kind": "fock", "n": 1}, "lambda": 0.48},
    ],
}
# type swaps, NaN and inf, negatives, empty lists, and plausible values
_VALUES = [
    "x", "", "nan", "3", [], {}, None, True, False, -1, 0, 0.5, 1, 2, 3, 2.5, 1e6,
    -1e308, 1e308, math.nan, math.inf, -math.inf, [0.5], [1, 2], ["x"], {"kind": "x"},
]  # fmt: skip


@st.composite
def _fuzzed_config(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    cfg = {
        key: _SMALL.get(key, default)
        for key, (default, _) in cli._COMMANDS[command][1].items()
        if key != "out"  # --out is always given
    }
    for key in set(cfg) & set(_SPECS):
        cfg[key] = copy.deepcopy(draw(st.sampled_from([cfg[key], *_SPECS[key]])))
    for _ in range(draw(st.integers(1, 2))):
        nested = [key for key in cfg if isinstance(cfg[key], dict)]
        target = cfg
        if nested and draw(st.booleans()):
            target = cfg[draw(st.sampled_from(sorted(nested)))]
        key = draw(st.sampled_from(sorted(target) + ["zz_unknown"]))
        target[key] = copy.deepcopy(draw(st.sampled_from(_VALUES)))
    return command, cfg


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=_fuzzed_config())
def test_exit_code_fuzz(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfgfile.write_text(json.dumps(cfg))
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                rc = run([command, "--config", cfgfile, "--out", out])
        except Exception as exc:  # the contract: nothing escapes main
            raise AssertionError(f"{command} {cfg} raised {exc!r}") from exc
        assert rc in (0, 2, 3, 4), (command, cfg, rc)
        if rc == 2:
            assert not out.exists(), (command, cfg)
        if "zz_unknown" in json.dumps(cfg):
            assert rc != 0, (command, cfg)  # an unknown key never yields a result


def test_snapshot_baseline_lists_the_differing_outputs(tmp_path, capsys):
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "snapshot_defaults.py"
    spec = importlib.util.spec_from_file_location("snapshot_defaults", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    new, base = tmp_path / "new", tmp_path / "base"
    for out_dir in (new, base):
        out_dir.mkdir()
        for name in snapshot.OUTPUTS.values():
            (out_dir / name).write_bytes(b"0.3999999999999999\n")
    assert snapshot.differing(new, base) == []
    (new / "loss_sweep.csv").write_bytes(b"0.3999999999999998\n")
    (base / "wigner.csv").unlink()
    assert snapshot.differing(new, base) == ["wigner.csv", "loss_sweep.csv"]
    # each differing output is named, then its diff against the baseline
    capsys.readouterr()
    assert snapshot.report(new, base) == 1
    lines = capsys.readouterr().out.splitlines()
    moved = lines.index(f"differs from {base}: loss_sweep.csv")
    assert lines[moved + 1 :].index("-0.3999999999999999") < lines[moved + 1 :].index("+0.3999999999999998")
    assert "+0.3999999999999999" in lines[: moved]  # wigner.csv, absent from the baseline
    assert lines[-1] == "6 of 8 outputs byte-identical to the baseline"
