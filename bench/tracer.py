"""Span tracer that rebinds the package's public names from outside it.

``Tracer.install`` wraps every public function defined in each package
module, plus ``DensityMatrix.__post_init__`` (validation) and
``KrausChannel.apply``, and rebinds each wrapper wherever a module of the
package holds the original object.  ``uninstall`` puts the originals back.
Nothing under ``src/`` changes; the untraced run never installs a tracer.

A span's self time is its duration minus the time spent in the spans it
called.  Counters that need the call's arguments or result (points per
Wigner batch, optimizer convergence) are taken in per-name hooks.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

MODULES = ("fock", "states", "channels", "wigner", "witnesses", "monotones", "activation", "cli")
ACTIVATION_SPANS = ("activation.activate_entanglement", "activation.activate_steering")


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    # name-specific counters filled by hooks
    points: int = 0
    converged: int = 0
    starts: int = 0
    nested: int = 0


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.stats: dict[str, SpanStats] = {}
        self.root_s = 0.0  # time inside outermost spans
        self._stack: list[list] = []  # [name, time in child spans]
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "wigner.wigner_batch": self._count_points,
            "wigner.negativity_depth_fn": self._count_depth_convergence,
            "witnesses.gaussian_fidelity": self._count_fit_convergence,
            "witnesses.witness_matrix": self._count_nested_in(ACTIVATION_SPANS),
            "wigner.negativity_depth": self._count_nested_in(("monotones.",)),
        }
        self._default_starts = pkg.witnesses.GaussianFitConfig().n_starts

    # -- hooks -----------------------------------------------------------

    @staticmethod
    def _count_points(st, args, kwargs, result):
        st.points += int(getattr(result, "size", 1))

    @staticmethod
    def _count_depth_convergence(st, args, kwargs, result):
        st.converged += bool(result.refinement_converged)

    def _count_fit_convergence(self, st, args, kwargs, result):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        st.converged += int(result.n_converged)
        st.starts += cfg.n_starts if cfg is not None else self._default_starts

    def _count_nested_in(self, prefixes):
        def hook(st, args, kwargs, result):
            if any(frame[0].startswith(prefixes) for frame in self._stack):
                st.nested += 1

        return hook

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result

        return span

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = self.pkg
        modules = [getattr(pkg, m) for m in MODULES]
        wrappers = {}
        for mod_name, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{mod_name}.{attr}", obj))
        for mod in [pkg.package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._set(mod, attr, wrappers[id(obj)][1])
        density = pkg.fock.DensityMatrix
        self._set(density, "__post_init__", self._wrap("fock.DensityMatrix", density.__post_init__))
        kraus = pkg.channels.KrausChannel
        self._set(kraus, "apply", self._wrap("channels.KrausChannel.apply", kraus.apply))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, search_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    ``search_ops`` is the number of traced ops that reached the
    witness-family search (odd-parity states take an exact short path).
    """
    g = tracer.get
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (g(name).calls, "count")

    def self_s(name):
        out[f"{name}.self_s"] = (g(name).self_s, "s")

    for name in ("wigner.wigner_batch", "wigner.negativity_depth_fn", "wigner.wigner_pure_comb"):
        calls(name)
        self_s(name)
    batch = g("wigner.wigner_batch")
    out["wigner.wigner_batch.points"] = (batch.points, "count")
    out["wigner.wigner_batch.points_per_call"] = (_ratio(batch.points, batch.calls), "points/call")
    depth = g("wigner.negativity_depth_fn")
    out["wigner.negativity_depth_fn.converged_ratio"] = (_ratio(depth.converged, depth.calls), "fraction")

    for name in ("states.gaussian_pure", "states.gkp_damped"):
        calls(name)
        self_s(name)
    pure = g("states.gaussian_pure")
    out["states.gaussian_pure.reject_ratio"] = (_ratio(pure.errors, pure.calls), "fraction")
    self_s("states.squeezed_coherent_amps")

    for name in ("witnesses.gaussian_fidelity", "witnesses.witness_matrix"):
        calls(name)
        self_s(name)
    fit = g("witnesses.gaussian_fidelity")
    out["witnesses.gaussian_fidelity.converged_ratio"] = (_ratio(fit.converged, fit.starts), "fraction")
    calls("witnesses.witness_value")

    calls("monotones.lower_bound")
    self_s("monotones.lower_bound")
    self_s("monotones.hierarchy_check")
    searches = g("wigner.negativity_depth").nested
    fits = g("witnesses.gaussian_fidelity").calls
    out["monotones.family_searches_per_op"] = (_ratio(searches, search_ops), "count/op")
    out["monotones.gaussian_fits_per_op"] = (_ratio(fits, search_ops), "count/op")

    for name in ("channels.gkp_ec_round", "channels.KrausChannel.apply"):
        calls(name)
        self_s(name)
    self_s("channels.pure_loss")
    self_s("channels.gaussian_noise")

    for name in ("fock.displacement_op", "fock.DensityMatrix"):
        calls(name)
        self_s(name)

    act_calls = sum(g(n).calls for n in ACTIVATION_SPANS)
    out["activation.activate.calls"] = (act_calls, "count")
    out["activation.activate.self_s"] = (sum(g(n).self_s for n in ACTIVATION_SPANS), "s")
    out["activation.witness_builds_per_activation"] = (
        _ratio(g("witnesses.witness_matrix").nested, act_calls),
        "count/call",
    )
    self_s("cli.main")
    return out
