"""Command-line drivers that emit machine-readable sweep and analysis data.

Subcommands: wigner, negativity-depth, loss-sweep, gkp-sweep, pure-bounds,
activate, boundary-mix, property-suite.  Every output embeds the resolved
configuration, its hash, the cutoff and the maximal truncation leakage, so
identical configurations reproduce byte-identical files.

Each subcommand has one table of its config keys with their defaults and
parsers.  Every key, down to the keys of state, channel and witness specs,
is parsed and checked before the run, and every size key has a cap.

Exit codes: 0 success, 2 configuration error, 3 truncation error (the
cutoff cannot support a requested object), 4 invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .activation import activate
from .channels import (
    _transmissivity,
    apply_unitary,
    damping,
    gaussian_noise,
    gkp_ec_round,
    phase_rotation,
    pure_loss,
)
from .errors import ConfigError, InvariantError, TruncationError
from .fock import DensityMatrix, PureState, _dim, parity_op, pure_fidelity
from .monotones import (
    FamilySearchConfig,
    exact_boundary_mixture,
    lower_bound,
    property_suite,
    pure_state_bounds,
)
from .states import (
    STATE_TAIL_TOL,
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
    comb_evaluators,
    negativity_depth,
    negativity_depth_fn,
    wigner_grid,
)
from .witnesses import (
    DisplacedParity,
    FreeSet,
    Projector,
    WitnessSpec,
    gaussian_fidelity,
)

TOOL_VERSION = __version__

# size caps: a larger value exits 2 before any array is built
MAX_CUTOFF = 200
MAX_RESOLUTION = 400  # resolution and depth_resolution
# the gkp-sweep quad_order key: still parsed and capped, but the exact noise
# map uses no quadrature, so it selects nothing
MAX_QUAD_ORDER = 30
MAX_PEAK_WINDOW = 100  # lattice peaks each side of a grid codeword
MAX_SQUEEZING_DB = 30.0  # grid codewords; the comb window grows as 10^(dB/20)
# radius, depth_radius and a parity witness's |alpha|: the disc that MAX_CUTOFF
# levels resolve, as a coherent state of |alpha| 11.42 leaks DISPLACEMENT_TAIL_TOL
# above them (and from |alpha| ~ 1e154 on, |2 alpha|^2 overflows in the Wigner value)
MAX_RADIUS = 11.4


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


def _flag(value, opts) -> bool:
    if not isinstance(value, bool):
        raise TypeError("must be a JSON boolean (true or false)")
    return value


def _out_path(value, opts) -> str:
    if not isinstance(value, str) or not value:
        raise TypeError("must be a non-empty path string")
    return value


def _resolve(args: argparse.Namespace, table: dict) -> tuple[dict, dict]:
    """The merged raw config and its options, parsed key by key in table order.

    Each parser gets the raw value and the options parsed above it; a
    ValueError, TypeError or OverflowError it raises exits 2.
    """
    cfg = {key: default for key, (default, _) in table.items()}
    cfg.update(_load_config(args.config))
    if args.cutoff is not None:
        cfg["cutoff"] = args.cutoff
    if args.out is not None:
        cfg["out"] = args.out
    unknown = set(cfg) - set(table)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    opts = {}
    for key, (_, parse) in table.items():
        try:
            opts[key] = parse(cfg[key], opts)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad {key} {cfg[key]}: {exc}") from exc
    return cfg, opts


def _metadata(cfg: dict, max_leakage: float) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "config_hash": _config_hash(cfg),
        "config": cfg,
        "cutoff": cfg.get("cutoff"),
        "max_leakage": float(max_leakage),
    }


def write_csv(path: str, columns, rows, metadata: dict) -> None:
    lines = [f"# {key}: {_canonical(val)}" for key, val in sorted(metadata.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(map(str, row)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: str, payload: dict, metadata: dict) -> None:
    doc = {"metadata": metadata, "result": payload}
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# spec parsing: a spec is a JSON object whose tag key ("kind" or "family")
# names a builder; builders read their keys with ``spec.get``


def _number(value) -> float:
    """float(value), with JSON true and false refused (float() takes them)."""
    if isinstance(value, bool):
        raise TypeError("must be a number, not true or false")
    return float(value)


def _parse_complex(val) -> complex:
    if isinstance(val, (list, tuple)) and len(val) == 2:
        val = complex(_number(val[0]), _number(val[1]))
    if isinstance(val, (int, float, complex)) and not isinstance(val, bool) and np.isfinite(val):
        return complex(val)
    raise ValueError(f"bad complex literal: {val}")


class _Spec(dict):
    """A spec that records which keys were read, so the rest can be rejected."""

    def __init__(self, raw):
        super().__init__(raw)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _parse_spec(raw, what: str, tag: str, builders: dict, *args):
    """Build a spec with the builder its tag names; a key the builder never read is an error."""
    if not isinstance(raw, dict):
        raise TypeError(f"{what} spec must be a JSON object")
    spec = _Spec(raw)
    build = builders.get(spec.get(tag))
    if build is None:
        raise ValueError(f"unknown {what} {tag}: {raw.get(tag)}")
    try:
        value = build(spec, *args)
    except TruncationError:
        # builders read every key before they build, so a key still unread
        # is a typo, and it outranks the truncation: exit 2, not 3
        if set(spec) <= spec.read:
            raise
    unread = set(spec) - spec.read
    if unread:
        raise ValueError(f"unknown {what} keys: {sorted(unread)}")
    return value


def _radius(value) -> float | None:
    """A search radius, None for the state's default, else at most MAX_RADIUS."""
    if value is None:
        return None
    radius = _number(value)
    if radius > MAX_RADIUS:
        raise ValueError(f"{radius} is above the cap of {MAX_RADIUS}")
    return radius


def _tolerance(value) -> float:
    """A truncation tolerance: a finite number in [0, 1]."""
    tol = _number(value)
    if not 0.0 <= tol <= 1.0:
        raise ValueError("must be a number in [0, 1]")
    return tol


def _size(value, cap: int, low: int = 1) -> int:
    """A whole number in [low, cap]."""
    n = _number(value)
    if not (n.is_integer() and low <= n <= cap):
        raise ValueError(f"must be a whole number in [{low}, {cap}]")
    return int(n)


def _index(value) -> int:
    """A Fock or logical index: a whole number from 0."""
    return _size(value, MAX_CUTOFF, low=0)


def _codeword(params: GkpParams) -> GkpParams:
    if params.squeezing_db > MAX_SQUEEZING_DB:
        raise ValueError(f"{params.squeezing_db} dB is above the cap of {MAX_SQUEEZING_DB} dB")
    return params


def _gkp_state(spec, cutoff: int) -> PureState:
    logical = _index(spec.get("logical", 0))
    window = spec.get("peak_window")
    window = None if window is None else _size(window, MAX_PEAK_WINDOW)
    if "squeezing_db" in spec:
        params = GkpParams.from_db(_number(spec.get("squeezing_db")), logical, window)
    else:
        params = GkpParams(_number(spec.get("epsilon", 0.2)), logical, window)
    return gkp_damped(
        _codeword(params), cutoff, tail_tol=_tolerance(spec.get("tail_tol", STATE_TAIL_TOL))
    )


_PURE_STATES = {
    "fock": lambda s, dim: fock(_index(s.get("n", 0)), dim),
    "coherent": lambda s, dim: coherent(_parse_complex(s.get("alpha", 0)), dim),
    # cat itself refuses a sign other than +1 or -1
    "cat": lambda s, dim: cat(_parse_complex(s.get("alpha", 1.0)), _number(s.get("sign", -1)), dim),
    "photon_subtracted_squeezed": lambda s, dim: photon_subtracted_squeezed(
        _number(s.get("r", 0.5)), dim
    ),
    "gaussian": lambda s, dim: gaussian_pure(
        GaussianPureParams(
            _parse_complex(s.get("alpha", 0)), _number(s.get("r", 0.0)), _number(s.get("phi", 0.0))
        ),
        dim,
    ),
    "gkp": _gkp_state,
}
_STATES = {**_PURE_STATES, "thermal": lambda s, dim: thermal(_number(s.get("nbar", 1.0)), dim)}


def _parse_pure_state(spec, cutoff: int) -> PureState:
    return _parse_spec(spec, "state", "kind", _PURE_STATES, cutoff)


def _parse_state(spec, cutoff: int) -> DensityMatrix:
    state = _parse_spec(spec, "state", "kind", _STATES, cutoff)
    return state if isinstance(state, DensityMatrix) else state.to_density()


_CHANNELS = {
    "loss": lambda s, dim: pure_loss(_number(s.get("eta", 1.0)), dim).apply,
    "gaussian_noise": lambda s, dim: gaussian_noise(_number(s.get("sigma2", 0.05)), dim).apply,
    "damping": lambda s, dim: damping(_number(s.get("epsilon", 0.1)), dim).apply,
}


def _projector(spec, cutoff: int, two_copy: bool) -> WitnessSpec:
    """The projector witness with the fitted lambda, or with a given one at or above it:
    below the maximal Gaussian fidelity the witness is not feasible."""
    lam = spec.get("lambda")
    psi = _parse_pure_state(spec.get("state"), cutoff)
    fitted = gaussian_fidelity(psi).max_fidelity
    lam = fitted if lam is None else _number(lam)
    if lam < fitted:
        raise ValueError(f"lambda {lam} is below the fitted maximal Gaussian fidelity {fitted}")
    return WitnessSpec(Projector(psi, lam, 2 if two_copy else 1))


def _parity(spec, cutoff: int) -> WitnessSpec:
    alpha = _parse_complex(spec.get("alpha", 0))
    _radius(abs(alpha))
    return WitnessSpec(DisplacedParity(alpha))


_WITNESSES = {
    "parity": _parity,
    "pure_projector": lambda s, dim: _projector(s, dim, two_copy=False),
    "two_copy_projector": lambda s, dim: _projector(s, dim, two_copy=True),
}
_WITNESSES["displaced_parity"] = _WITNESSES["parity"]


# ---------------------------------------------------------------------------
# config keys: each parser maps (raw value, options parsed above) to an option


def _depth(resolution, radius=None) -> DepthSearchConfig:
    return DepthSearchConfig(radius=radius, resolution=_size(resolution, MAX_RESOLUTION))


def _channel(value, opts) -> DensityMatrix:
    """The parsed input state with this channel (None: none) applied."""
    if value is None:
        return opts["state"]
    return _parse_spec(value, "channel", "kind", _CHANNELS, opts["cutoff"])(opts["state"])


def _loss_map(value, opts):
    """The gkp-sweep loss as a map on density matrices; None for eta = 1."""
    eta, cutoff = opts["eta"], opts["cutoff"]
    if value not in ("bare", "amplified"):
        raise ValueError("loss_model must be 'bare' or 'amplified'")
    if eta == 1.0:
        return None
    if value == "bare":
        return pure_loss(eta, cutoff).apply
    if eta == 0.0:
        raise ValueError("amplified loss needs eta > 0 (the gain is 1/eta)")
    sigma2 = (1.0 - eta) / eta  # loss followed by gain-1/eta amplification
    return gaussian_noise(sigma2, cutoff).apply


def _codes(value, opts) -> list[tuple[float, GkpParams]]:
    return [(db, _codeword(GkpParams.from_db(db))) for db in sorted(_number(d) for d in value)]


def _ancilla(value, opts) -> GkpParams | None:
    return None if value is None else _codeword(GkpParams.from_db(_number(value)))


def _t_grid(value, opts) -> list[float]:
    t_grid = [_number(t) for t in value]
    if not all(0.0 <= t <= 1.0 for t in t_grid):
        raise ValueError("mixture weights must lie in [0, 1]")
    return t_grid


def _corpus(value, opts):
    """Labelled density matrices: the given state specs, or the default corpus."""
    cutoff = opts["cutoff"]
    specs = list(value or ())
    if specs:
        return [(f"state_{i}", _parse_state(s, cutoff)) for i, s in enumerate(specs)]
    vac = fock(0, cutoff).to_density()
    one = fock(1, cutoff).to_density()
    return [
        ("lossy_photon_0.85", pure_loss(0.85, cutoff).apply(one)),
        ("lossy_photon_0.6", pure_loss(0.6, cutoff).apply(one)),
        ("odd_cat_1.2", cat(1.2, -1, cutoff).to_density()),
        ("vacuum", vac),
        ("photon_vacuum_mix", DensityMatrix(0.5 * (one.matrix + vac.matrix))),
    ]


def _cutoff(value, opts) -> int:
    return _dim(_size(value, MAX_CUTOFF))




# ---------------------------------------------------------------------------
# subcommands: each receives the raw config (for the metadata only) and its
# parsed options


def run_wigner(cfg: dict, opts: dict) -> int:
    grid_cfg = opts["resolution"]  # the same square grid as the depth search scans
    grid = wigner_grid(
        opts["channel"],
        radius=grid_cfg.radius,
        resolution=grid_cfg.resolution,
        validate_marginal=opts["validate_marginal"],
    )
    meta = _metadata(cfg, grid.leakage)
    write_csv(opts["out"], ("re_alpha", "im_alpha", "w_value"), grid.to_rows(), meta)
    return 0


def run_negativity_depth(cfg: dict, opts: dict) -> int:
    rho = opts["channel"]
    res = negativity_depth(rho, opts["resolution"])
    write_json(
        opts["out"],
        {
            "depth": res.depth,
            "argmin_alpha": [res.argmin_alpha.real, res.argmin_alpha.imag],
            "refinement_converged": res.refinement_converged,
        },
        _metadata(cfg, rho.leakage),
    )
    return 0


def run_loss_sweep(cfg: dict, opts: dict) -> int:
    cutoff = opts["cutoff"]
    pi = parity_op(cutoff)
    rows = []
    max_leak = 0.0
    for eta in opts["etas"]:
        rho = pure_loss(eta, cutoff).apply(opts["fock_n"])
        max_leak = max(max_leak, rho.leakage)
        parity_exp = float(np.real(rho.expectation(pi)))
        bound = lower_bound(rho, FreeSet.WIGNER_POSITIVE, cfg=opts["resolution"])
        ent, steer = activate(rho, bound.witness)
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
        opts["out"],
        ("eta", "parity_expectation", "wn_lower_bound", "activated_E", "activated_S", "classification"),
        rows,
        _metadata(cfg, max_leak),
    )
    return 0


def _gkp_input_activation(params: GkpParams, depth_cfg: DepthSearchConfig) -> float:
    """Best displaced-parity activation on the exact (untruncated) codeword; the
    comb's coefficient matrix is built once for the whole depth search."""
    value_fn, jet_fn = comb_evaluators(*gkp_comb(params))
    res = negativity_depth_fn(value_fn, jet_fn, depth_cfg.radius, depth_cfg)
    return (math.pi / 4.0) * res.depth


def run_gkp_sweep(cfg: dict, opts: dict) -> int:
    cutoff, tail_tol = opts["cutoff"], opts["tail_tol_two"]
    depth_cfg, loss_map = opts["depth_resolution"], opts["loss_model"]
    rows = []
    max_leak = 0.0
    for db, params in opts["squeezing_db"]:
        e_in = _gkp_input_activation(params, depth_cfg)
        code = gkp_damped(params, cutoff, tail_tol=tail_tol)
        state = code.to_density()
        if loss_map is not None:
            state = loss_map(state)
        if opts["ec"]:
            anc_params = opts["ancilla_db"]  # None: the codeword itself
            ancilla = code if anc_params is None else gkp_damped(anc_params, cutoff, tail_tol)
            state = gkp_ec_round(state, ancilla)
        max_leak = max(max_leak, code.leakage, state.leakage)
        d_out = negativity_depth(state, depth_cfg)
        e_out = (math.pi / 4.0) * d_out.depth
        infid = 1.0 - pure_fidelity(code, state)
        rows.append((db, params.epsilon, e_in, e_out, infid, code.leakage))
    write_csv(
        opts["out"],
        ("squeezing_db", "epsilon", "e_in", "e_out", "infidelity", "codeword_leakage"),
        rows,
        _metadata(cfg, max_leak),
    )
    return 0


def run_pure_bounds(cfg: dict, opts: dict) -> int:
    psi = opts["state"]
    bounds = pure_state_bounds(psi)
    payload = bounds.to_dict()
    payload["activated_entanglement_floor_gng"] = bounds.gng_lower / 2.0
    payload["activated_entanglement_floor_sng"] = bounds.sng_lower / 2.0
    payload["activated_steering_floor_gng"] = bounds.gng_lower
    payload["activated_steering_floor_sng"] = bounds.sng_lower
    write_json(opts["out"], payload, _metadata(cfg, psi.leakage))
    return 0


def run_activate(cfg: dict, opts: dict) -> int:
    rho, spec = opts["channel"], opts["witness"]
    ent, steer = activate(rho, spec)
    write_json(
        opts["out"],
        {"entanglement_channel": ent.to_dict(), "steering_channel": steer.to_dict()},
        _metadata(cfg, rho.leakage),
    )
    return 0


def run_boundary_mix(cfg: dict, opts: dict) -> int:
    cutoff = opts["cutoff"]
    vac = fock(0, cutoff).to_density()
    one = fock(1, cutoff).to_density()
    sigma = DensityMatrix(0.5 * (vac.matrix + one.matrix))
    rows = exact_boundary_mixture(
        sigma, one, DisplacedParity(0), opts["t_grid"], cfg=opts["resolution"]
    )
    write_csv(
        opts["out"],
        ("t", "exact_value", "searched_lower"),
        [(r.t, r.exact_value, r.searched_lower) for r in rows],
        _metadata(cfg, 0.0),
    )
    return 0


def run_property_suite(cfg: dict, opts: dict) -> int:
    cutoff, states = opts["cutoff"], opts["states"]
    rot = phase_rotation(0.7, cutoff)
    channels = [
        ("loss_0.9", pure_loss(0.9, cutoff).apply),
        ("gaussian_noise_0.05", gaussian_noise(0.05, cutoff).apply),
        ("phase_rotation_0.7", lambda rho: apply_unitary(rot, rho)),
    ]
    report = property_suite(states, channels, cfg=opts["resolution"])
    max_leak = max(rho.leakage for _, rho in states)
    write_json(opts["out"], report.to_dict(), _metadata(cfg, max_leak))
    if not report.all_passed:
        raise InvariantError(
            f"{len(report.failures)} property checks failed; see {opts['out']}"
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing: one registry, subcommand -> (runner, key table); each
# table maps key -> (default, parser) in parse order; out first, so a bad
# path wastes no run, then cutoff

_COMMANDS = {
    "wigner": (run_wigner, {
        "out": ("wigner.csv", _out_path),
        "cutoff": (30, _cutoff),
        "state": ({"kind": "fock", "n": 1}, lambda v, o: _parse_state(v, o["cutoff"])),
        "channel": (None, _channel),
        "radius": (None, lambda v, o: _radius(v)),
        "resolution": (60, lambda v, o: _depth(v, o["radius"])),
        "validate_marginal": (True, _flag),
    }),
    "negativity-depth": (run_negativity_depth, {
        "out": ("negativity_depth.json", _out_path),
        "cutoff": (30, _cutoff),
        "state": ({"kind": "fock", "n": 1}, lambda v, o: _parse_state(v, o["cutoff"])),
        "channel": (None, _channel),
        "radius": (None, lambda v, o: _radius(v)),
        "resolution": (40, lambda v, o: _depth(v, o["radius"])),
    }),
    "loss-sweep": (run_loss_sweep, {
        "out": ("loss_sweep.csv", _out_path),
        "cutoff": (25, _cutoff),
        "fock_n": (1, lambda v, o: fock(_index(v), o["cutoff"]).to_density()),
        "etas": (
            [round(0.1 * k, 1) for k in range(11)],
            lambda v, o: sorted(_transmissivity(_number(e)) for e in v),
        ),
        "resolution": (40, lambda v, o: FamilySearchConfig(depth=_depth(v))),
    }),
    "gkp-sweep": (run_gkp_sweep, {
        "out": ("gkp_sweep.csv", _out_path),
        "cutoff": (30, _cutoff),
        "eta": (0.9, lambda v, o: _transmissivity(_number(v))),
        # selects nothing; it goes with bench v2 (ROADMAP item 9), whose tiny config sets it
        "quad_order": (15, lambda v, o: _size(v, MAX_QUAD_ORDER)),
        "loss_model": ("bare", _loss_map),
        "ec": (True, _flag),
        "tail_tol_two": (1.0, lambda v, o: _tolerance(v)),
        "squeezing_db": ([6.0, 8.0, 10.0, 12.0, 14.0, 16.5], _codes),
        "ancilla_db": (None, _ancilla),
        "depth_radius": (2.8, lambda v, o: _radius(_number(v))),  # a number, unlike radius
        "depth_resolution": (35, lambda v, o: _depth(v, o["depth_radius"])),
    }),
    "pure-bounds": (run_pure_bounds, {
        "out": ("pure_bounds.json", _out_path),
        "cutoff": (40, _cutoff),
        "state": ({"kind": "fock", "n": 1}, lambda v, o: _parse_pure_state(v, o["cutoff"])),
    }),
    "activate": (run_activate, {
        "out": ("activate.json", _out_path),
        "cutoff": (25, _cutoff),
        "state": ({"kind": "fock", "n": 1}, lambda v, o: _parse_state(v, o["cutoff"])),
        "channel": (None, _channel),
        "witness": (
            {"family": "parity"},
            lambda v, o: _parse_spec(v, "witness", "family", _WITNESSES, o["cutoff"]),
        ),
    }),
    "boundary-mix": (run_boundary_mix, {
        "out": ("boundary_mix.csv", _out_path),
        "cutoff": (25, _cutoff),
        "t_grid": ([0.0, 0.25, 0.5, 0.75, 1.0], _t_grid),
        "resolution": (40, lambda v, o: FamilySearchConfig(depth=_depth(v))),
    }),
    "property-suite": (run_property_suite, {
        "out": ("property_suite.json", _out_path),
        "cutoff": (25, _cutoff),
        "states": (None, _corpus),
        "resolution": (35, lambda v, o: FamilySearchConfig(depth=_depth(v))),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvactivation",
        description="Witness-based quantification and activation of CV nonclassicality",
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--cutoff", type=int, help="Fock-space cutoff override")
        p.add_argument("--out", help="output path override")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call of :func:`main`,
    so that importing this module for its functions builds none."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        run, table = _COMMANDS[args.command]
        return run(*_resolve(args, table))
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
