"""Feasible witness families and the free set each one fixes.

A witness is a bounded Hermitian operator with nonnegative expectation on
every free state; inside the box -n I <= W <= m I it certifies a lower bound
on the corresponding resource monotone through its negative expectation
value.  Which free set a witness is feasible for is fixed by its family
(:attr:`WitnessSpec.free_set`):

* displaced parity, feasible against Wigner-positive states;
* projector witnesses lam^k I - |psi><psi|^(xk), k = 1 or 2 copies, with
  lam the maximal Gaussian fidelity of psi: one copy is feasible against
  the convex Gaussian hull, the two-copy lift against convex mixtures of
  identical Gaussian pairs;
* explicit caller-supplied operators, feasible for the set the caller
  declares with a certificate tag (the engine verifies the box, never
  feasibility).

A witness is built only as :class:`WitnessSpec` (family, box), and the spec
owns how its family meets the box: it is scale times the family, scale =
min(n, m) for a built-in (unit-box) family and 1 for an explicit operator.
:func:`witness_value` checks the scaled witness against the box.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import TruncationError
from .fock import DensityMatrix, OperatorMatrix, PureState, _whole_fields
from .states import GaussianPureParams, from_chart, gaussian_amps, gaussian_mass, to_chart
from .wigner import wigner_batch

BOX_TOL = 1e-9
# _nelder_mead stops once the simplex spans at most these in value and in parameters.
FIT_FATOL = 1e-12
FIT_XATOL = 1e-8


class FreeSet(str, Enum):
    WIGNER_POSITIVE = "wigner_positive"
    GAUSSIAN_HULL = "gaussian_hull"
    GAUSSIAN_TWO_COPY = "gaussian_two_copy"


@dataclass(frozen=True)
class WitnessBox:
    """Operator interval -n I <= W <= m I."""

    n: float = 1.0
    m: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.n) and math.isfinite(self.m)):
            raise ValueError(f"box bounds must be finite, got [{self.n}, {self.m}]")
        if self.n <= 0 or self.m <= 0:
            raise ValueError("box bounds must be positive")


@dataclass(frozen=True)
class DisplacedParity:
    alpha: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"parity displacement must be finite, got {self.alpha}")


@dataclass(frozen=True)
class Projector:
    """lam^k I - |psi><psi|^(xk) on k = ``copies`` copies, with lam the maximal
    Gaussian fidelity of psi."""

    psi: PureState
    lam: float
    copies: int

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        if not (math.isfinite(self.lam) and 0.0 <= self.lam <= 1.0):
            raise ValueError(f"projector lambda must be a fidelity in [0, 1], got {self.lam}")
        if self.copies not in (1, 2) or isinstance(self.copies, bool):
            raise ValueError(f"projector copies must be 1 or 2, got {self.copies}")
        object.__setattr__(self, "copies", int(self.copies))


@dataclass(frozen=True)
class ExplicitWitness:
    """A caller's operator: its certificate tag travels with every result, so
    the bounds are labeled conditional on the caller's feasibility claim."""

    operator: OperatorMatrix
    free_set: FreeSet
    certificate: str


Family = DisplacedParity | Projector | ExplicitWitness


@dataclass(frozen=True)
class WitnessSpec:
    """A member of a feasible witness family with its box."""

    family: Family
    box: WitnessBox = WitnessBox()

    @property
    def scale(self) -> float:
        """Factor taking the family into the box: min(n, m) for a unit-box built-in
        family, 1 for an explicit operator."""
        if isinstance(self.family, ExplicitWitness):
            return 1.0
        return min(self.box.n, self.box.m)

    @property
    def free_set(self) -> FreeSet:
        """The smallest free set the family is feasible for."""
        fam = self.family
        if isinstance(fam, DisplacedParity):
            return FreeSet.WIGNER_POSITIVE
        if isinstance(fam, Projector):
            return (FreeSet.GAUSSIAN_HULL, FreeSet.GAUSSIAN_TWO_COPY)[fam.copies - 1]
        return fam.free_set

    def describe(self) -> dict:
        fam = self.family
        if isinstance(fam, DisplacedParity):
            detail = {
                "family": "displaced_parity",
                "alpha": [fam.alpha.real, fam.alpha.imag],
            }
        elif isinstance(fam, Projector):
            name = ("pure_projector", "two_copy_projector")[fam.copies - 1]
            detail = {"family": name, "lambda": fam.lam}
        else:
            detail = {"family": "explicit", "certificate": fam.certificate}
        detail["free_set"] = self.free_set.value
        detail["box"] = [self.box.n, self.box.m]
        return detail


def check_box(witness: Family | OperatorMatrix, box: WitnessBox = WitnessBox()) -> tuple[float, float]:
    """Ends (lowest, highest) of the witness spectrum, asserted inside the box."""
    return _scaled_ends(witness, 1.0, box)


def _scaled_ends(witness: Family | OperatorMatrix, scale: float, box: WitnessBox) -> tuple[float, float]:
    """Ends of the spectrum of scale * witness, asserted inside the box.

    Built-in families have closed-form spectra: displaced parity lies in
    [-1, 1] (the compression of a unitary involution), a k-copy projector
    witness has {lam^k - 1, lam^k}.  Only an explicit operator is
    diagonalised.
    """
    if isinstance(witness, ExplicitWitness):
        witness = witness.operator
    if isinstance(witness, OperatorMatrix):
        vals = np.linalg.eigvalsh(witness.matrix)
        lo, hi = float(vals[0]), float(vals[-1])
    elif isinstance(witness, DisplacedParity):
        lo, hi = -1.0, 1.0
    else:
        lo, hi = witness.lam**witness.copies - 1.0, witness.lam**witness.copies
    lo, hi = scale * lo, scale * hi
    if lo < -box.n - BOX_TOL or hi > box.m + BOX_TOL:
        raise ValueError(
            f"witness spectrum [{lo:.6f}, {hi:.6f}] outside box [-{box.n}, {box.m}]"
        )
    return lo, hi


def violation(witness: Family, rho: DensityMatrix) -> float:
    """Signed violation -Tr(W rho) of a family member, its box unchecked.

    Displaced parity is evaluated as -(pi/2) W(alpha) from
    :func:`wigner_batch`, exact for the truncated state.  A k-copy projector
    takes the overlap <psi|rho|psi> to the k-th power (rho^(xk) against
    |psi><psi|^(xk)), so only an explicit operator is ever a matrix.
    """
    if isinstance(witness, DisplacedParity):
        return _parity_violation(float(wigner_batch(rho, witness.alpha)[0]))
    if isinstance(witness, ExplicitWitness):
        if witness.operator.dim != rho.dim:
            raise ValueError("witness dimension mismatch")
        val = rho.expectation(witness.operator)
        if abs(val.imag) > 1e-10:
            raise ValueError(f"witness expectation has imaginary part {val.imag:.3e}")
        return -val.real
    if witness.psi.dim != rho.dim:
        raise ValueError("projector state cutoff mismatch")
    overlap = float(np.real(np.vdot(witness.psi.amplitudes, rho.matrix @ witness.psi.amplitudes)))
    return overlap**witness.copies - witness.lam**witness.copies


def _parity_violation(wigner: float) -> float:
    """-Tr(Pi(alpha) rho) from the Wigner value W(alpha) = (2/pi) Tr(Pi(alpha) rho)."""
    return -(math.pi / 2.0) * wigner


def witness_value(spec: WitnessSpec, rho: DensityMatrix) -> float:
    """Signed violation -Tr(W rho) of the spec's witness W = scale * family,
    positive iff W detects rho, once W's spectrum is asserted inside the box."""
    _scaled_ends(spec.family, spec.scale, spec.box)
    return spec.scale * violation(spec.family, rho)


def _parity_witness_value(spec: WitnessSpec, wigner: float) -> float:
    """:func:`witness_value` of a displaced-parity spec from rho's Wigner value
    at its displacement, for a caller that already holds that value."""
    _scaled_ends(spec.family, spec.scale, spec.box)
    return spec.scale * _parity_violation(wigner)


@dataclass(frozen=True)
class GaussianFitConfig:
    """Multistart Nelder-Mead settings for the Gaussian-fidelity search."""

    n_starts: int = 16
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    maxiter: int = 400

    def __post_init__(self):
        _whole_fields(self, "n_starts", "maxiter")
        seeds = tuple(operator.index(s) for s in self.seeds)
        if min(seeds, default=0) < 0 or any(isinstance(s, bool) for s in self.seeds):
            raise ValueError(f"seeds must be nonnegative integers, got {self.seeds}")
        object.__setattr__(self, "seeds", seeds)


@dataclass(frozen=True)
class GaussianFidelityResult:
    """Best found fidelity sup |<psi|D(a)S(r e^{i phi})|0>|^2 with provenance."""

    max_fidelity: float
    argmax: GaussianPureParams
    multistart_spread: float
    n_converged: int

    def __post_init__(self):
        if not 0.0 <= self.max_fidelity <= 1.0 + 1e-12:
            raise ValueError("fidelity outside [0, 1]")
        object.__setattr__(self, "max_fidelity", min(float(self.max_fidelity), 1.0))

    def to_dict(self) -> dict:
        return {
            "max_gaussian_fidelity": self.max_fidelity,
            "argmax": {
                "alpha": [self.argmax.alpha.real, self.argmax.alpha.imag],
                "r": self.argmax.r,
                "phi": self.argmax.phi,
            },
            "multistart_spread": self.multistart_spread,
            "n_converged": self.n_converged,
        }


def _informed_starts(psi: PureState, cfg: GaussianFitConfig) -> list[np.ndarray]:
    """Starts (Re alpha, Im alpha, r, phi) near psi's mean displacement, then
    seeded draws, each mapped to the fit's chart (:func:`_chart_point`)."""
    amps = psi.amplitudes
    dim = psi.dim
    idx = np.arange(dim)
    a_mean = complex(np.vdot(amps[:-1], np.sqrt(idx[1:]) * amps[1:]))
    starts = [
        (a_mean.real, a_mean.imag, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (a_mean.real, a_mean.imag, 0.4, 0.0),
        (a_mean.real, a_mean.imag, 0.4, np.pi),
        (a_mean.real, a_mean.imag, 0.4, np.pi / 2),
        (abs(a_mean) + 0.5, 0.0, 0.2, 0.0),
    ]
    rngs = [np.random.default_rng(seed) for seed in cfg.seeds] or [
        np.random.default_rng(0)
    ]
    i = 0
    while len(starts) < cfg.n_starts:
        rng = rngs[i % len(rngs)]
        i += 1
        starts.append(
            (
                a_mean.real + rng.normal(0.0, 0.7),
                a_mean.imag + rng.normal(0.0, 0.7),
                rng.uniform(0.0, 1.2),
                rng.uniform(0.0, 2.0 * np.pi),
            )
        )
    return [
        _chart_point(GaussianPureParams(complex(re, im), r, phi))
        for re, im, r, phi in starts[: cfg.n_starts]
    ]


def _chart_point(params: GaussianPureParams) -> np.ndarray:
    """(Re b, Im b, Re w, Im w) of a pure Gaussian, with (b, t) its chart point
    (:func:`~cvactivation.states.to_chart`) and w = t / sqrt(1 - |t|^2)."""
    b, t = to_chart(params)
    w = t / math.sqrt(1.0 - abs(t) ** 2)
    return np.array([b.real, b.imag, w.real, w.imag])


def _fit_objective(psi: PureState):
    """-|<psi|G>|^2 over (Re b, Im b, Re w, Im w), G the pure Gaussian at the
    chart point (b, t) with t = w / sqrt(1 + |w|^2).

    Every w in the plane is a point t of the open unit disk, and
    1 - |t|^2 = 1/(1 + |w|^2) is formed without a subtraction, so every
    pure Gaussian is reachable and none needs a clamp.

    The exact fidelity with the untruncated G: the overlap needs G's
    amplitudes c_n (c_0 = 1) only where psi is nonzero, so the recurrence
    (:func:`~cvactivation.states.gaussian_amps`) runs to psi's top occupied
    level k (at least to c_1), into a buffer whose levels above are zeros.
    The buffer keeps the cutoff's length and so the dot product's summation
    order; G's amplitudes are finite wherever its mass is, so every score
    equals the one with all d amplitudes bit for bit.  Their total mass
    sum_n |c_n|^2 is closed-form
    (:func:`~cvactivation.states.gaussian_mass`).  No tail is cut and
    nothing is renormalised, so the score does not depend on the cutoff.
    A candidate whose mass overflows (or whose overlap is not finite)
    scores 0, and a non-finite parameter is a ValueError.
    """
    amps = psi.amplitudes
    levels = max(2, int(np.flatnonzero(amps)[-1]) + 1)
    head = np.zeros(psi.dim, dtype=complex)

    def objective(params) -> float:
        re_b, im_b, re_w, im_w = params
        b, w = complex(re_b, im_b), complex(re_w, im_w)
        if not (cmath.isfinite(b) and cmath.isfinite(w)):
            raise ValueError(f"Gaussian chart parameters must be finite, got {b}, {w}")
        mu2 = 1.0 + (re_w * re_w + im_w * im_w)
        t = w / math.sqrt(mu2)
        # c_0 .. c_{levels - 1}; the levels above stay 0
        head[:levels] = gaussian_amps(b, t, levels)
        overlap = abs(np.vdot(amps, head)) ** 2
        mass = gaussian_mass(b, t, mu2)
        return -overlap / mass if overlap < math.inf and mass < math.inf else 0.0

    return objective


def _nelder_mead(objective, x0: np.ndarray, maxiter: int) -> tuple[np.ndarray, float, bool, int]:
    """Minimise ``objective`` from ``x0`` by the simplex method of Nelder and
    Mead (Comput. J. 7, 308 (1965)).

    The non-adaptive, unbounded method with no limit on evaluations.  It does
    the arithmetic of the reference implementation the tests hold as its
    oracle, in the same order, so its results are bit-identical to that
    one's for a float64 start.  The simplex is kept as Python lists of
    floats, and each point is passed to ``objective`` as a fresh list.  The
    centroid adds the vertices row by row, as numpy's reduction over the
    simplex's rows does (``sum`` would not: its leading 0 turns a -0.0 into
    0.0).  The ranking is np.argsort's.  Python's ``sorted`` gives the same
    order when the values are distinct; on a tie (the overflow plateau,
    where every value is 0, or -0.0 against 0.0) or a NaN the ranking is
    np.argsort itself, whose SIMD sort is not stable and so orders equal
    values its own way.

    Reflection 1, expansion 2, contraction and shrink 1/2; the first simplex
    steps 5 % along each coordinate (0.00025 from zero).  It stops once the
    simplex spans at most ``FIT_XATOL`` in every parameter and ``FIT_FATOL``
    in value.  Returns the best vertex, its value, whether the run stopped
    before ``maxiter`` iterations, and the number of evaluations.
    """
    nfev = 0

    def f(x: list[float]) -> float:
        nonlocal nfev
        nfev += 1
        return float(objective(x))

    def ranked(sim: list[list[float]], fsim: list[float]) -> tuple[list[list[float]], list[float]]:
        order = sorted(range(len(fsim)), key=fsim.__getitem__)
        values = [fsim[i] for i in order]
        if not all(map(operator.lt, values, values[1:])):  # a tie or a NaN
            order = np.argsort(fsim).tolist()
            values = [fsim[i] for i in order]
        return [sim[i] for i in order], values

    start = np.asarray(x0, dtype=float).tolist()
    n = len(start)
    sim = [start]
    for k in range(n):
        y = list(start)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(vertex) for vertex in sim]
    sim, fsim = ranked(*ranked(sim, fsim))  # twice, as the reference does: ties may move
    iterations = 1
    while iterations < maxiter and not (
        all(abs(v - w) <= FIT_XATOL for vertex in sim[1:] for v, w in zip(vertex, sim[0]))
        and all(abs(fsim[0] - fv) <= FIT_FATOL for fv in fsim[1:])
    ):
        total = sim[0]
        for vertex in sim[1:-1]:
            total = [t + v for t, v in zip(total, vertex)]
        xbar = [t / n for t in total]
        worst = sim[-1]
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (v - b) for b, v in zip(sim[0], sim[j])]
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = ranked(sim, fsim)
    return np.array(sim[0]), np.min(fsim), iterations < maxiter, nfev


def gaussian_fidelity(
    psi: PureState, cfg: GaussianFitConfig | None = None
) -> GaussianFidelityResult:
    """Maximal fidelity of psi with a pure Gaussian state.

    Pure candidates suffice: the fidelity is linear in the Gaussian state
    and every mixed Gaussian is a mixture of pure ones.  Deterministic
    multistart :func:`_nelder_mead` in the chart (Re b, Im b, Re w, Im w)
    of :func:`_fit_objective`, where every pure Gaussian is a point; the
    spread between converged starts is reported so optimizer traps are
    visible.  A start counts as converged only at a fidelity above 0: a run
    that never left the overflow plateau, where every candidate's mass
    overflows and scores 0, found nothing.  A start whose bytes repeat an
    earlier one's (the first two, whenever <a> = 0) reuses that run and is
    counted again.

    Each candidate is scored by its exact fidelity with the untruncated
    Gaussian (:func:`_fit_objective`): one amplitude recurrence to psi's
    top occupied level, padded with zeros to the cutoff d, divided by the
    closed-form total mass of the amplitudes
    (:func:`~cvactivation.states.gaussian_mass`).  No tail tolerance
    rejects a candidate.  The best point is converted back to
    (alpha, r, phi) once (:func:`~cvactivation.states.from_chart`).  Its r
    may exceed ``states.DEFAULT_R_MAX``, the largest squeezing
    :func:`~cvactivation.states.gaussian_pure` builds.
    """
    if cfg is None:
        cfg = GaussianFitConfig()
    if psi.tail_mass(psi.dim - max(2, psi.dim // 10)) > 1e-4:
        raise TruncationError(
            "state occupies the top Fock levels; raise the cutoff before "
            "optimizing the Gaussian fidelity"
        )
    objective = _fit_objective(psi)
    best: tuple[float, np.ndarray] | None = None
    converged_vals = []
    runs = {}  # start bytes -> run: a repeated start reruns nothing
    for start in _informed_starts(psi, cfg):
        if start.tobytes() not in runs:
            runs[start.tobytes()] = _nelder_mead(objective, start, cfg.maxiter)
        x, fun, converged, _ = runs[start.tobytes()]
        fid = -float(fun)
        if converged and fid > 0.0:
            converged_vals.append(fid)
        if best is None or fid > best[0]:
            best = (fid, x)
    assert best is not None
    fid, x = best
    spread = float(max(converged_vals) - min(converged_vals)) if converged_vals else 0.0
    t = complex(x[2], x[3]) / math.sqrt(1.0 + (x[2] * x[2] + x[3] * x[3]))
    return GaussianFidelityResult(
        max_fidelity=max(0.0, min(fid, 1.0)),
        argmax=from_chart(complex(x[0], x[1]), t),
        multistart_spread=spread,
        n_converged=len(converged_vals),
    )
