"""Command-line drivers that emit machine-readable sweep and analysis data.

Subcommands: wigner, negativity-depth, loss-sweep, gkp-sweep, pure-bounds,
activate, boundary-mix, property-suite.  Every output embeds the resolved
configuration, its hash, the cutoff and the maximal truncation leakage, so
identical configurations reproduce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 truncation error (the
cutoff cannot support a requested object), 4 invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .activation import activate_entanglement, activate_steering
from .channels import (
    GaussNoiseParams,
    LossParams,
    damping,
    gaussian_noise,
    gkp_ec_round,
    pure_loss,
)
from .errors import ConfigError, InvariantError, TruncationError
from .fock import (
    DensityMatrix,
    FockCutoff,
    PureState,
    parity_op,
    pure_fidelity,
)
from .monotones import (
    FamilySearchConfig,
    exact_boundary_mixture,
    lower_bound,
    property_suite,
    pure_state_bounds,
)
from .states import (
    GaussianPureParams,
    GkpParams,
    cat,
    coherent,
    fock,
    gaussian_pure,
    gkp_comb,
    gkp_damped,
    photon_subtracted_squeezed,
    thermal,
)
from .wigner import (
    DepthSearchConfig,
    negativity_depth,
    negativity_depth_fn,
    wigner_grid,
    wigner_pure_comb,
    wigner_pure_comb_jet,
)
from .witnesses import (
    FreeSet,
    GaussianFitConfig,
    WitnessSpec,
    displaced_parity_spec,
    gaussian_fidelity,
    pure_projector_spec,
    two_copy_projector_spec,
)

TOOL_VERSION = __version__


# ---------------------------------------------------------------------------
# configuration plumbing


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(_canonical(cfg).encode()).hexdigest()[:16]


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


@contextmanager
def _spec_guard(what: str, spec):
    """Report a ValueError, TypeError or OverflowError raised while parsing as exit 2."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad {what} {spec}: {exc}") from exc


def _read(cfg: dict, key: str, parse=float):
    """cfg[key] converted by ``parse``; a value it rejects exits 2."""
    with _spec_guard(key, cfg[key]):
        return parse(cfg[key])


def _cutoff(cfg: dict) -> int:
    return _read(cfg, "cutoff", lambda v: FockCutoff(int(v)).dim)


def _fit_config(cfg: dict) -> GaussianFitConfig:
    return _read(cfg, "seeds", lambda seeds: GaussianFitConfig(seeds=seeds))


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("must be a JSON boolean (true or false)")
    return value


def _out_path(value) -> str:
    if not isinstance(value, str) or not value:
        raise TypeError("must be a non-empty path string")
    return value


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    cfg.update(_load_config(args.config))
    if args.cutoff is not None:
        cfg["cutoff"] = args.cutoff
    if args.out is not None:
        cfg["out"] = args.out
    if args.seed_list is not None:
        with _spec_guard("--seed-list", args.seed_list):
            cfg["seeds"] = [int(s) for s in args.seed_list.split(",") if s.strip()]
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # checked before any computation, so a bad path wastes no run
    _read(cfg, "out", _out_path)
    return cfg


def _metadata(cfg: dict, max_leakage: float) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "config_hash": _config_hash(cfg),
        "config": cfg,
        "cutoff": cfg.get("cutoff"),
        "max_leakage": float(max_leakage),
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, columns, rows, metadata: dict) -> None:
    lines = [f"# {key}: {_canonical(val)}" for key, val in sorted(metadata.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: str, payload: dict, metadata: dict) -> None:
    doc = {"metadata": metadata, "result": payload}
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# spec parsing


def _parse_pure_state(spec, cutoff: int) -> PureState:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"bad state spec: {spec}")
    kind = spec["kind"]
    with _spec_guard("state spec", spec):
        if kind == "fock":
            return fock(int(spec.get("n", 0)), cutoff)
        if kind == "coherent":
            return coherent(_parse_complex(spec.get("alpha", 0)), cutoff)
        if kind == "cat":
            return cat(
                _parse_complex(spec.get("alpha", 1.0)), int(spec.get("sign", -1)), cutoff
            )
        if kind == "photon_subtracted_squeezed":
            return photon_subtracted_squeezed(float(spec.get("r", 0.5)), cutoff)
        if kind == "gaussian":
            return gaussian_pure(
                GaussianPureParams(
                    _parse_complex(spec.get("alpha", 0)),
                    float(spec.get("r", 0.0)),
                    float(spec.get("phi", 0.0)),
                ),
                cutoff,
            )
        if kind == "gkp":
            return gkp_damped(_parse_gkp(spec), cutoff, tail_tol=float(spec.get("tail_tol", 1e-6)))
    raise ConfigError(f"unknown pure-state kind: {kind}")


def _parse_gkp(spec: dict) -> GkpParams:
    logical = int(spec.get("logical", 0))
    window = spec.get("peak_window")
    if "squeezing_db" in spec:
        return GkpParams.from_db(float(spec["squeezing_db"]), logical, window)
    return GkpParams(float(spec.get("epsilon", 0.2)), logical, window)


def _parse_complex(val) -> complex:
    if isinstance(val, (list, tuple)) and len(val) == 2:
        val = complex(float(val[0]), float(val[1]))
    if isinstance(val, (int, float, complex)) and np.isfinite(val):
        return complex(val)
    raise ConfigError(f"bad complex literal: {val}")


def _parse_state(spec, cutoff: int) -> DensityMatrix:
    if isinstance(spec, dict) and spec.get("kind") == "thermal":
        with _spec_guard("state spec", spec):
            return thermal(float(spec.get("nbar", 1.0)), cutoff)
    return _parse_pure_state(spec, cutoff).to_density()


def _depth_config(resolution, radius=None) -> DepthSearchConfig:
    with _spec_guard("depth search settings", {"radius": radius, "resolution": resolution}):
        return DepthSearchConfig(
            radius=None if radius is None else float(radius), resolution=int(resolution)
        )


def _parse_channel(spec, cutoff: int):
    if spec is None:
        return None
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"bad channel spec: {spec}")
    kind = spec["kind"]
    with _spec_guard("channel spec", spec):
        if kind == "loss":
            return pure_loss(float(spec.get("eta", 1.0)), cutoff).apply
        if kind == "gaussian_noise":
            return gaussian_noise(
                GaussNoiseParams(float(spec.get("sigma2", 0.05)), int(spec.get("quad_order", 15))),
                cutoff,
            ).apply
        if kind == "damping":
            return damping(float(spec.get("epsilon", 0.1)), cutoff).apply
    raise ConfigError(f"unknown channel kind: {kind}")


def _parse_witness(spec, cutoff: int, fit_cfg: GaussianFitConfig) -> WitnessSpec:
    if not isinstance(spec, dict) or "family" not in spec:
        raise ConfigError(f"bad witness spec: {spec}")
    family = spec["family"]
    with _spec_guard("witness spec", spec):
        if family in ("parity", "displaced_parity"):
            return displaced_parity_spec(_parse_complex(spec.get("alpha", 0)))
        if family in ("pure_projector", "two_copy_projector"):
            psi = _parse_pure_state(spec.get("state"), cutoff)
            lam = spec.get("lambda")
            if lam is None:
                lam = gaussian_fidelity(psi, fit_cfg).max_fidelity
            if family == "pure_projector":
                return pure_projector_spec(psi, float(lam))
            return two_copy_projector_spec(psi, float(lam))
    raise ConfigError(f"unknown witness family: {family}")


# ---------------------------------------------------------------------------
# subcommands


def run_wigner(cfg: dict) -> int:
    cutoff = _cutoff(cfg)
    rho = _parse_state(cfg["state"], cutoff)
    channel = _parse_channel(cfg.get("channel"), cutoff)
    if channel is not None:
        rho = channel(rho)
    # the same square grid as the depth search scans, validated the same way
    grid_cfg = _depth_config(cfg["resolution"], cfg.get("radius"))
    grid = wigner_grid(
        rho,
        radius=grid_cfg.radius,
        resolution=grid_cfg.resolution,
        validate_marginal=_read(cfg, "validate_marginal", _flag),
    )
    meta = _metadata(cfg, grid.leakage)
    meta["dropped_points"] = int(grid.dropped.size)
    write_csv(cfg["out"], ("re_alpha", "im_alpha", "w_value"), grid.to_rows(), meta)
    return 0


def run_negativity_depth(cfg: dict) -> int:
    cutoff = _cutoff(cfg)
    rho = _parse_state(cfg["state"], cutoff)
    channel = _parse_channel(cfg.get("channel"), cutoff)
    if channel is not None:
        rho = channel(rho)
    res = negativity_depth(rho, _depth_config(cfg["resolution"], cfg.get("radius")))
    write_json(
        cfg["out"],
        {
            "depth": res.depth,
            "argmin_alpha": [res.argmin_alpha.real, res.argmin_alpha.imag],
            "refinement_converged": res.refinement_converged,
        },
        _metadata(cfg, rho.leakage),
    )
    return 0


def run_loss_sweep(cfg: dict) -> int:
    cutoff = _cutoff(cfg)
    pi = parity_op(cutoff)
    input_state = _read(cfg, "fock_n", lambda n: fock(int(n), cutoff).to_density())
    etas = _read(cfg, "etas", lambda es: sorted(LossParams(float(e)).eta for e in es))
    search_cfg = FamilySearchConfig(depth=_depth_config(cfg["resolution"]))
    rows = []
    max_leak = 0.0
    for eta in etas:
        rho = pure_loss(eta, cutoff).apply(input_state)
        max_leak = max(max_leak, rho.leakage)
        parity_exp = float(np.real(rho.expectation(pi)))
        bound = lower_bound(rho, FreeSet.WIGNER_POSITIVE, cfg=search_cfg)
        ent = activate_entanglement(rho, bound.witness)
        steer = activate_steering(rho, bound.witness)
        rows.append(
            (
                eta,
                parity_exp,
                bound.lower,
                ent.entanglement,
                steer.steering,
                steer.classification.value,
            )
        )
    write_csv(
        cfg["out"],
        ("eta", "parity_expectation", "wn_lower_bound", "activated_E", "activated_S", "classification"),
        rows,
        _metadata(cfg, max_leak),
    )
    return 0


def _gkp_input_activation(params: GkpParams, depth_cfg: DepthSearchConfig) -> float:
    """Best displaced-parity activation on the exact (untruncated) codeword."""
    centers, envelope, sigma2 = gkp_comb(params)
    res = negativity_depth_fn(
        lambda pts: wigner_pure_comb(centers, envelope, sigma2, pts),
        lambda pts: wigner_pure_comb_jet(centers, envelope, sigma2, pts),
        depth_cfg.radius,
        depth_cfg,
    )
    return (math.pi / 4.0) * res.depth


def run_gkp_sweep(cfg: dict) -> int:
    eta = _read(cfg, "eta")
    if not 0.0 <= eta <= 1.0:
        raise ConfigError("eta must lie in [0, 1]")
    cutoff = _cutoff(cfg)
    depth_cfg = _depth_config(cfg["depth_resolution"], cfg["depth_radius"])
    if depth_cfg.radius is None:
        raise ConfigError("depth_radius must be a number")
    loss_model = cfg["loss_model"]
    if loss_model not in ("bare", "amplified"):
        raise ConfigError("loss_model must be 'bare' or 'amplified'")
    if loss_model == "amplified" and eta == 0.0:
        raise ConfigError("amplified loss needs eta > 0 (the gain is 1/eta)")
    ec_on = _read(cfg, "ec", _flag)
    tail_tol = _read(cfg, "tail_tol_two")
    with _spec_guard("squeezing levels", [cfg["squeezing_db"], cfg["ancilla_db"]]):
        dbs = sorted(float(d) for d in cfg["squeezing_db"])
        codes = [GkpParams.from_db(db) for db in dbs]
        anc_db = cfg["ancilla_db"]
        anc_fixed = None if anc_db is None else GkpParams.from_db(float(anc_db))

    if loss_model == "bare" or eta == 1.0:
        loss_apply = None if eta == 1.0 else pure_loss(eta, cutoff).apply
    else:
        sigma2 = (1.0 - eta) / eta  # loss followed by gain-1/eta amplification
        noise = _read(cfg, "quad_order", lambda k: GaussNoiseParams(sigma2, int(k)))
        loss_apply = gaussian_noise(noise, cutoff).apply

    rows = []
    max_leak = 0.0
    for db, params in zip(dbs, codes):
        e_in = _gkp_input_activation(params, depth_cfg)
        code = gkp_damped(params, cutoff, tail_tol=tail_tol)
        state = code.to_density()
        if loss_apply is not None:
            state = loss_apply(state)
        if ec_on:
            anc_params = params if anc_fixed is None else anc_fixed
            ancilla = gkp_damped(anc_params, cutoff, tail_tol=tail_tol)
            state = gkp_ec_round(state, ancilla)
        max_leak = max(max_leak, code.leakage, state.leakage)
        d_out = negativity_depth(state, depth_cfg)
        e_out = (math.pi / 4.0) * d_out.depth
        infid = 1.0 - pure_fidelity(code, state)
        rows.append((db, params.epsilon, e_in, e_out, infid, code.leakage))
    write_csv(
        cfg["out"],
        ("squeezing_db", "epsilon", "e_in", "e_out", "infidelity", "codeword_leakage"),
        rows,
        _metadata(cfg, max_leak),
    )
    return 0


def run_pure_bounds(cfg: dict) -> int:
    psi = _parse_pure_state(cfg["state"], _cutoff(cfg))
    bounds = pure_state_bounds(psi, _fit_config(cfg))
    payload = bounds.to_dict()
    payload["activated_entanglement_floor_gng"] = bounds.gng_lower / 2.0
    payload["activated_entanglement_floor_sng"] = bounds.sng_lower / 2.0
    payload["activated_steering_floor_gng"] = bounds.gng_lower
    payload["activated_steering_floor_sng"] = bounds.sng_lower
    write_json(cfg["out"], payload, _metadata(cfg, psi.leakage))
    return 0


def run_activate(cfg: dict) -> int:
    cutoff = _cutoff(cfg)
    rho = _parse_state(cfg["state"], cutoff)
    channel = _parse_channel(cfg.get("channel"), cutoff)
    if channel is not None:
        rho = channel(rho)
    spec = _parse_witness(cfg["witness"], cutoff, _fit_config(cfg))
    ent = activate_entanglement(rho, spec)
    steer = activate_steering(rho, spec)
    write_json(
        cfg["out"],
        {"entanglement_channel": ent.to_dict(), "steering_channel": steer.to_dict()},
        _metadata(cfg, rho.leakage),
    )
    return 0


def run_boundary_mix(cfg: dict) -> int:
    cutoff = _cutoff(cfg)
    vac = fock(0, cutoff).to_density()
    one = fock(1, cutoff).to_density()
    sigma = DensityMatrix(0.5 * (vac.matrix + one.matrix), FockCutoff(cutoff))
    with _spec_guard("t_grid", cfg["t_grid"]):
        t_grid = [float(t) for t in cfg["t_grid"]]
        if not all(0.0 <= t <= 1.0 for t in t_grid):
            raise ValueError("mixture weights must lie in [0, 1]")
    rows = exact_boundary_mixture(
        sigma,
        one,
        parity_op(cutoff),
        t_grid,
        cfg=FamilySearchConfig(depth=_depth_config(cfg["resolution"])),
    )
    write_csv(
        cfg["out"],
        ("t", "exact_value", "searched_lower"),
        [(r.t, r.exact_value, r.searched_lower) for r in rows],
        _metadata(cfg, 0.0),
    )
    return 0


def _default_corpus(cutoff: int):
    vac = fock(0, cutoff).to_density()
    one = fock(1, cutoff).to_density()
    return [
        ("lossy_photon_0.85", pure_loss(0.85, cutoff).apply(one)),
        ("lossy_photon_0.6", pure_loss(0.6, cutoff).apply(one)),
        ("odd_cat_1.2", cat(1.2, -1, cutoff).to_density()),
        ("vacuum", vac),
        ("photon_vacuum_mix", DensityMatrix(0.5 * (one.matrix + vac.matrix), FockCutoff(cutoff))),
    ]


def run_property_suite(cfg: dict) -> int:
    cutoff = _cutoff(cfg)
    specs = _read(cfg, "states", lambda v: list(v or ()))
    if specs:
        states = [(f"state_{i}", _parse_state(s, cutoff)) for i, s in enumerate(specs)]
    else:
        states = _default_corpus(cutoff)
    from .channels import apply_unitary, phase_rotation

    rot = phase_rotation(0.7, cutoff)
    channels = [
        ("loss_0.9", pure_loss(0.9, cutoff).apply),
        ("gaussian_noise_0.05", gaussian_noise(GaussNoiseParams(0.05, 12), cutoff).apply),
        ("phase_rotation_0.7", lambda rho: apply_unitary(rot, rho)),
    ]
    report = property_suite(
        states,
        channels,
        cfg=FamilySearchConfig(depth=_depth_config(cfg["resolution"])),
    )
    max_leak = max(rho.leakage for _, rho in states)
    write_json(cfg["out"], report.to_dict(), _metadata(cfg, max_leak))
    if not report.all_passed:
        raise InvariantError(
            f"{len(report.failures)} property checks failed; see {cfg['out']}"
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_DEFAULTS = {
    "wigner": {
        "state": {"kind": "fock", "n": 1},
        "channel": None,
        "cutoff": 30,
        "radius": None,
        "resolution": 60,
        "validate_marginal": True,
        "out": "wigner.csv",
    },
    "negativity-depth": {
        "state": {"kind": "fock", "n": 1},
        "channel": None,
        "cutoff": 30,
        "radius": None,
        "resolution": 40,
        "out": "negativity_depth.json",
    },
    "loss-sweep": {
        "etas": [round(0.1 * k, 1) for k in range(11)],
        "fock_n": 1,
        "cutoff": 25,
        "resolution": 40,
        "out": "loss_sweep.csv",
    },
    "gkp-sweep": {
        "squeezing_db": [6.0, 8.0, 10.0, 12.0, 14.0, 16.5],
        "eta": 0.9,
        "cutoff": 30,
        "ec": True,
        "loss_model": "bare",
        "quad_order": 15,
        "ancilla_db": None,
        "depth_radius": 2.8,
        "depth_resolution": 35,
        "tail_tol_two": 1.0,
        "out": "gkp_sweep.csv",
    },
    "pure-bounds": {
        "state": {"kind": "fock", "n": 1},
        "cutoff": 40,
        "out": "pure_bounds.json",
        "seeds": [0, 1, 2, 3],
    },
    "activate": {
        "state": {"kind": "fock", "n": 1},
        "channel": None,
        "witness": {"family": "parity"},
        "cutoff": 25,
        "out": "activate.json",
        "seeds": [0, 1, 2, 3],
    },
    "boundary-mix": {
        "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
        "cutoff": 25,
        "resolution": 40,
        "out": "boundary_mix.csv",
    },
    "property-suite": {
        "states": None,
        "cutoff": 25,
        "resolution": 35,
        "out": "property_suite.json",
    },
}

_RUNNERS = {
    "wigner": run_wigner,
    "negativity-depth": run_negativity_depth,
    "loss-sweep": run_loss_sweep,
    "gkp-sweep": run_gkp_sweep,
    "pure-bounds": run_pure_bounds,
    "activate": run_activate,
    "boundary-mix": run_boundary_mix,
    "property-suite": run_property_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvactivation",
        description="Witness-based quantification and activation of CV nonclassicality",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--cutoff", type=int, help="Fock-space cutoff override")
        p.add_argument("--out", help="output path override")
        p.add_argument("--seed-list", help="comma-separated fit seeds (pure-bounds, activate)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, _DEFAULTS[args.command])
        return _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
