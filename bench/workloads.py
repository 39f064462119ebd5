"""The benchmark's three workloads: seeded inputs, one op each, and its checks.

Every workload builds a fixed set of ``count`` inputs from the seed (below
/ above eta = 1/2, bare / amplified loss model, search / odd-parity states
in a fixed mix).  A run times whole passes over the set, so the inputs it
measures never depend on how fast the program is.

Continuous parameters are drawn by stratified sampling: the range is cut
into equal strata, visited in bit-reversed order and jittered by the seed,
so every set spans the whole range.

The program is reached only through module attributes looked up at call
time (``self.cli.main``, ``self.monotones.hierarchy_check``), so the traced
run sees every call after it rebinds those names.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# dense-grid oracle for the maximal Gaussian fidelity of |1>
FOCK1_GAUSSIAN_FIDELITY = 0.4778894120


@dataclass(frozen=True)
class Checked:
    """What the checks made of one op's output."""

    ok: bool
    certified: float
    ref_error: float | None
    record: dict
    message: str = ""


@dataclass(frozen=True)
class Input:
    label: str
    params: dict
    payload: object = None  # argv of a CLI op, or the state of a hierarchy op
    odd: bool = False
    out: Path | None = None  # where a CLI op writes its CSV


def bit_reversed(n: int) -> list[int]:
    """0..n-1 in bit-reversed order (n a power of two)."""
    bits = n.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


def stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """n jittered stratum draws from [lo, hi], in bit-reversed stratum order."""
    width = (hi - lo) / n
    return [lo + (s + float(rng.uniform())) * width for s in bit_reversed(n)]


def _read_csv_row(path: Path) -> dict:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row in {path.name}, got {len(rows)}")
    return rows[0]


class CliWorkload:
    """An op is one in-process ``cli.main`` call on a pre-written config."""

    subcommand = ""

    def __init__(self, pkg, size: str, workdir: Path):
        self.cli = pkg.cli
        self.size = size
        self.workdir = workdir

    def config(self, params: dict) -> dict:
        raise NotImplementedError

    def _input(self, i: int, label: str, params: dict) -> Input:
        cfg_path = self.workdir / f"op{i}.json"
        cfg_path.write_text(json.dumps(self.config(params)), encoding="utf-8")
        out_path = self.workdir / f"op{i}.csv"
        argv = [self.subcommand, "--config", str(cfg_path), "--out", str(out_path)]
        return Input(label, params, payload=argv, out=out_path)

    def warmup_input(self, inputs: list[Input]) -> Input:
        return inputs[0]

    def run(self, inp: Input):
        return self.cli.main(inp.payload)


class LossThreshold(CliWorkload):
    """Lossy single photon: one ``loss-sweep`` call at a single eta.

    Ops alternate between eta below and above 1/2; the certified bound must
    equal max(0, 2 eta - 1) with E = bound / 2 and S = bound.
    """

    name = "loss-threshold"
    subcommand = "loss-sweep"
    count = 8
    search_path = True

    def config(self, params: dict) -> dict:
        cfg = {"etas": [params["eta"]]}
        if self.size == "tiny":
            cfg.update(cutoff=12, resolution=10)
        return cfg

    def make_inputs(self, seed: int) -> list[Input]:
        rng = np.random.default_rng([seed, 1])
        below = stratified(rng, 0.05, 0.45, self.count // 2)
        above = stratified(rng, 0.55, 0.95, self.count // 2)
        etas = [eta for pair in zip(below, above) for eta in pair]
        return [
            self._input(i, "below" if eta < 0.5 else "above", {"eta": eta})
            for i, eta in enumerate(etas)
        ]

    def check(self, inp: Input, rc) -> Checked:
        eta = inp.params["eta"]
        if rc != 0:
            return Checked(False, 0.0, None, {"eta": eta}, f"exit code {rc}")
        row = _read_csv_row(inp.out)
        bound = float(row["wn_lower_bound"])
        ent = float(row["activated_E"])
        steer = float(row["activated_S"])
        expected = max(0.0, 2.0 * eta - 1.0)
        err = max(abs(bound - expected), abs(ent - expected / 2.0), abs(steer - expected))
        ok = float(row["eta"]) == eta and err <= 1e-6
        record = {"eta": eta, "wn": bound, "E": ent, "S": steer}
        message = "" if ok else f"eta={eta}: bound {bound}, E {ent}, S {steer} vs {expected}"
        return Checked(ok, bound, err, record, message)


class GkpEc(CliWorkload):
    """Grid code under loss plus one EC round: one ``gkp-sweep`` call at one dB.

    Ops alternate between the bare and the amplified loss model.  Per model
    the set holds a seeded draw from [6, 15] dB and the top of the range,
    16.5 dB.  Peak memory steps up above about 15.5 dB, so a drawn level up
    there would make it depend on the seed; the fixed top input sets it the
    same way in every run.  Checked: e_out <= e_in + 1e-9 and an
    infidelity in [0, 1].  The infidelity trend over squeezing (a known
    open defect) is recorded, not gated.
    """

    name = "gkp-ec"
    subcommand = "gkp-sweep"
    count = 4
    search_path = False

    def config(self, params: dict) -> dict:
        cfg = {"squeezing_db": [params["db"]], "loss_model": params["loss_model"]}
        if self.size == "tiny":
            cfg.update(cutoff=14, depth_resolution=8, quad_order=5)
        return cfg

    def make_inputs(self, seed: int) -> list[Input]:
        rng = np.random.default_rng([seed, 2])
        drawn = self.count // 2 - 1
        bare = stratified(rng, 6.0, 15.0, drawn) + [16.5]
        amplified = stratified(rng, 6.0, 15.0, drawn) + [16.5]
        inputs = []
        for k, (db_b, db_a) in enumerate(zip(bare, amplified)):
            for j, (db, model) in enumerate(((db_b, "bare"), (db_a, "amplified"))):
                inputs.append(self._input(2 * k + j, model, {"db": db, "loss_model": model}))
        return inputs

    def check(self, inp: Input, rc) -> Checked:
        params = dict(inp.params)
        if rc != 0:
            return Checked(False, 0.0, None, params, f"exit code {rc}")
        row = _read_csv_row(inp.out)
        e_in = float(row["e_in"])
        e_out = float(row["e_out"])
        infid = float(row["infidelity"])
        ok = e_out <= e_in + 1e-9 and 0.0 <= infid <= 1.0
        record = {**params, "e_in": e_in, "e_out": e_out, "infidelity": infid}
        message = "" if ok else f"{params}: e_in {e_in}, e_out {e_out}, infidelity {infid}"
        return Checked(ok, e_in + e_out, max(0.0, e_out - e_in), record, message)


def infidelity_slopes(records: list[dict]) -> dict:
    """Least-squares slope of infidelity against dB, per loss model.

    A positive slope is the known red trend (infidelity rising with
    squeezing); it is reported, never gated.
    """
    out = {}
    for model in ("bare", "amplified"):
        pts = [(r["db"], r["infidelity"]) for r in records if r.get("loss_model") == model and "infidelity" in r]
        if len(pts) >= 2 and len({db for db, _ in pts}) >= 2:
            x, y = np.array(pts).T
            out[model] = float(np.polyfit(x, y, 1)[0])
        else:
            out[model] = None
    return out


class Hierarchy:
    """One ``monotones.hierarchy_check`` call on a seeded state at cutoff 30.

    Depth resolution 30, refine_top 3 and the default Gaussian fit, as in
    acceptance criterion 09.  The set is one state of each path, from the
    acceptance-09 families: a lossy photon (seeded eta) and Fock 2 take the
    full witness-family search, an odd cat (seeded alpha) the exact short
    path, so the odd-parity share is fixed at 1/3.  The other families cost
    10-20 s each at cutoff 30 and are left out to keep a run short.  Fock 2
    has no parameter, so the dearest op times the search itself rather than
    a seed-dependent optimizer path.  Fock 1 (exact path) is the warm-up op.
    """

    name = "hierarchy"
    count = 3
    search_path = True

    def __init__(self, pkg, size: str, workdir: Path):
        self.pkg = pkg
        self.monotones = pkg.monotones
        self.cutoff = 20 if size == "tiny" else 30
        wigner, witnesses = pkg.wigner, pkg.witnesses
        if size == "tiny":
            depth = wigner.DepthSearchConfig(resolution=8, refine_top=1)
            fit = witnesses.GaussianFitConfig(n_starts=2, maxiter=40)
        else:
            depth = wigner.DepthSearchConfig(resolution=30, refine_top=3)
            fit = witnesses.GaussianFitConfig()
        self.cfg = pkg.monotones.FamilySearchConfig(depth=depth, gaussian=fit)

    def _dm(self, n: int):
        return self.pkg.states.fock(n, self.cutoff).to_density()

    def make_inputs(self, seed: int) -> list[Input]:
        rng = np.random.default_rng([seed, 3])
        eta, alpha = float(rng.uniform(0.55, 0.95)), float(rng.uniform(1.0, 2.0))
        lossy = self.pkg.channels.pure_loss(eta, self.cutoff).apply(self._dm(1))
        odd_cat = self.pkg.states.cat(alpha, -1, self.cutoff).to_density()
        return [
            Input("lossy_photon", {"eta": eta}, payload=lossy),
            Input("odd_cat", {"alpha": alpha}, payload=odd_cat, odd=True),
            Input("fock2", {}, payload=self._dm(2)),
        ]

    def warmup_input(self, inputs: list[Input]) -> Input:
        # hierarchy_check fills no lazy cache, so the cheap exact path warms it
        return Input("fock1", {}, payload=self._dm(1), odd=True)

    def run(self, inp: Input):
        return self.monotones.hierarchy_check(inp.payload, cfg=self.cfg)

    def check(self, inp: Input, result) -> Checked:
        wn, gng, sng = (b.lower for b in result)
        record = {"state": inp.label, **inp.params, "wn": wn, "gng": gng, "sng": sng}
        problems = []
        if not (wn <= gng + 1e-9 <= sng + 2e-9):
            problems.append("chain wn <= gng <= sng broken")
        ref_error = None
        if inp.odd:
            ref_error = max(abs(x - 1.0) for x in (wn, gng, sng))
            if ref_error > 1e-12 or not all(b.exact for b in result):
                problems.append("odd-parity state not exact at 1")
        if inp.label == "fock1" and gng < 1.0 - FOCK1_GAUSSIAN_FIDELITY - 1e-4:
            problems.append("Fock 1 below the Gaussian-fidelity oracle")
        if inp.label == "lossy_photon":
            ref_error = abs(wn - max(0.0, 2.0 * inp.params["eta"] - 1.0))
        message = f"{inp.label} {inp.params}: " + "; ".join(problems) if problems else ""
        return Checked(not problems, wn + gng + sng, ref_error, record, message)


WORKLOADS = {cls.name: cls for cls in (LossThreshold, Hierarchy, GkpEc)}
