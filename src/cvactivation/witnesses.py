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
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .descent import lockstep_newton
from .errors import TruncationError
from .fock import DensityMatrix, OperatorMatrix, PureState, _overlap, _whole_fields
from .states import GaussianPureParams, from_chart, gaussian_amps
from .wigner import wigner_batch

BOX_TOL = 1e-9


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
    return _overlap(witness.psi, rho) ** witness.copies - witness.lam**witness.copies


def _parity_violation(wigner: float) -> float:
    """-Tr(Pi(alpha) rho) from the Wigner value W(alpha) = (2/pi) Tr(Pi(alpha) rho)."""
    return -(math.pi / 2.0) * wigner


def witness_value(spec: WitnessSpec, rho: DensityMatrix) -> float:
    """Signed violation -Tr(W rho) of the spec's witness W = scale * family,
    positive iff W detects rho, once W's spectrum is asserted inside the box."""
    _scaled_ends(spec.family, spec.scale, spec.box)
    return spec.scale * violation(spec.family, rho)


def _parity_witness_value(spec: WitnessSpec, wigner_at) -> float:
    """:func:`witness_value` of a displaced-parity spec from an evaluator of
    rho's Wigner values (``NegativityDepthResult.wigner_at``), for a caller
    that already holds rho's coefficient matrix: one point, so the bits are
    those of :func:`witness_value`."""
    _scaled_ends(spec.family, spec.scale, spec.box)
    return spec.scale * _parity_violation(float(wigner_at(np.array([spec.family.alpha]))[0]))


def _parity_wins_from(psi: PureState, rho: DensityMatrix, value: float, scale: float) -> float:
    """The least lam* such that a parity candidate of value ``value`` beats or
    ties both projector witnesses of psi at every lam >= lam*, all of them
    in a box of scale ``scale``.

    The k-copy projector's value s (p^k - lam^k), p = <psi|rho|psi>, falls
    as lam rises, and it is at most ``value`` once lam^k >= p^k - value / s,
    so lam* = max_k (max(p^k - value / s, 0))^(1/k), k = 1, 2.
    """
    p = _overlap(psi, rho)
    return max(max(p**k - value / scale, 0.0) ** (1.0 / k) for k in (1, 2))


@dataclass(frozen=True)
class GaussianFitConfig:
    """Settings of the Gaussian-fidelity search: ``n_starts`` starts from
    :func:`_informed_starts`, run in lockstep by a trust-region Newton for at
    most ``maxiter`` steps."""

    n_starts: int = 16
    maxiter: int = 400

    def __post_init__(self):
        _whole_fields(self, "n_starts", "maxiter")


@dataclass(frozen=True)
class GaussianFidelityResult:
    """Best found fidelity sup |<psi|D(a)S(r e^{i phi})|0>|^2, the spread and
    count of the converged starts, and the number of lockstep Newton steps
    run.  The spread and count are not a convergence certificate: all starts
    can agree on a local maximum, so a small spread with every start
    converged does not show that the fidelity is the global maximum."""

    max_fidelity: float
    argmax: GaussianPureParams
    multistart_spread: float
    n_converged: int
    steps: int

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
            "steps": self.steps,
        }


@functools.lru_cache(maxsize=4)
def _seeded_draws(count: int) -> tuple[tuple[float, float, float, float], ...]:
    """:func:`_informed_starts`'s ``count`` seeded draws as a read-only table: the
    draws cycle through four generators, each two normals for alpha's offset
    and two uniforms, r in [0, 1.2) and phi in [0, 2 pi)."""
    rngs = [np.random.default_rng(seed) for seed in range(min(count, 4))]
    draws = [(rngs[i % 4].normal(0.0, 0.7, 2).tolist(), rngs[i % 4].random(2).tolist()) for i in range(count)]
    return tuple((re, im, 1.2 * u, 2.0 * math.pi * v) for (re, im), (u, v) in draws)


def _informed_starts(psi: PureState, cfg: GaussianFitConfig) -> np.ndarray:
    """Starts (Re alpha, Im alpha, r, phi) near psi's mean displacement, then
    seeded draws (:func:`_seeded_draws`) about it, as rows
    (Re b, Im b, Re w, Im w) of the fit's chart: (b, t) is the start's chart
    point (:func:`~cvactivation.states.to_chart`) and w = t / sqrt(1 - |t|^2)."""
    amps = psi.amplitudes
    a_mean = complex(np.vdot(amps[:-1], np.sqrt(np.arange(1, psi.dim)) * amps[1:]))
    starts = [
        (a_mean.real, a_mean.imag, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (a_mean.real, a_mean.imag, 0.4, 0.0),
        (a_mean.real, a_mean.imag, 0.4, math.pi),
        (a_mean.real, a_mean.imag, 0.4, math.pi / 2),
        (abs(a_mean) + 0.5, 0.0, 0.2, 0.0),
    ]
    for re, im, r, phi in _seeded_draws(max(cfg.n_starts - len(starts), 0)):
        starts.append((a_mean.real + re, a_mean.imag + im, r, phi))
    points = []
    for re, im, r, phi in starts[: cfg.n_starts]:
        alpha, t = complex(re, im), cmath.exp(1j * phi) * math.tanh(r)
        b = alpha + t * alpha.conjugate()
        w = t / math.sqrt(1.0 - abs(t) ** 2)
        points.append((b.real, b.imag, w.real, w.imag))
    return np.array(points)


def _fit_jet(psi: PureState):
    """Value, gradient and Hessian of -log F over (Re b, Im b, Re w, Im w) at a
    stack of chart points, F = |<psi|G>|^2 the fidelity of psi with the pure
    Gaussian G at the chart point (b, t), t = w / sqrt(1 + |w|^2).

    Every w in the plane is a point t of the open unit disk, and
    1 - |t|^2 = 1/(1 + |w|^2) is formed without a subtraction, so every pure
    Gaussian is reachable and none needs a clamp.  The value is the exact
    fidelity with the untruncated G: no tail is cut and nothing is
    renormalised, so it does not depend on the cutoff.

    One table of the Gaussian's amplitudes c_m (:func:`~cvactivation.states.gaussian_amps`),
    m up to psi's top occupied level, gives the overlap A = sum_n conj(psi_n) c_n
    and all its derivatives in b and t: c_n is holomorphic in both, with
    dc_n/db = sqrt(n) c_{n-1} and dc_n/dt = -sqrt(n (n-1)) c_{n-2} / 2, so each
    derivative up to the second is a shifted sum
    D_k = sum_m conj(psi_{m+k}) sqrt((m+k)! / m!) c_m, k = 0 .. 4.  The log mass
    is closed-form, log M = log(mu^2) / 2 + mu^2 |b|^2 - mu Re(conj(w) b^2) with
    mu^2 = 1 + |w|^2 (:func:`~cvactivation.states.gaussian_mass`), and
    t = w / mu is chained in by its first and second derivatives in w.

    Returns ``(value, jet)``: ``value`` maps points (k, 4) to -log F =
    log M - log |A|^2 (k,), and ``jet`` to the same bits (one code, one
    table), its gradients (k, 4) and Hessians (k, 4, 4).  The value is +inf
    where A = 0, and finite where M overflows a float, so F = exp(-value) is
    0.0 there.
    """
    amps = psi.amplitudes
    levels = max(2, int(np.flatnonzero(amps)[-1]) + 1)
    shifts = np.zeros((5, levels), dtype=complex)
    rise = np.ones(levels)  # sqrt((m+k)! / m!)
    for k in range(5):
        kept = max(levels - k, 0)
        shifts[k, :kept] = amps[k:levels].conj() * rise[:kept]
        rise = rise * np.sqrt(np.arange(k + 1, levels + k + 1))
    unit = np.array([1.0, 1j])
    eye = np.eye(2)

    def terms(x: np.ndarray):  # -log F, and mu^2, mu, D_k, b^2 as (Re, Im), |b|^2 and p for the jet
        b_re, b_im, w_re, w_im = x.T
        mu2 = 1.0 + (w_re * w_re + w_im * w_im)
        mu = np.sqrt(mu2)
        d = gaussian_amps(b_re + 1j * b_im, (w_re + 1j * w_im) / mu, levels) @ shifts.T
        # log M = log(mu^2) / 2 + mu^2 |b|^2 - mu p with p = Re(conj(w) b^2)
        b2 = np.column_stack([b_re * b_re - b_im * b_im, 2.0 * b_re * b_im])
        bb = b_re * b_re + b_im * b_im
        p = w_re * b2[:, 0] + w_im * b2[:, 1]
        f = 0.5 * np.log1p(w_re * w_re + w_im * w_im) + mu2 * bb - mu * p - 2.0 * np.log(np.abs(d[:, 0]))
        return f, (mu2, mu, d, b2, bb, p)

    quiet = np.errstate(divide="ignore", invalid="ignore", over="ignore")  # A = 0 gives +inf and NaNs
    value = quiet(lambda x: terms(x)[0])

    @quiet
    def jet(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f, (mu2, mu, d, b2, bb, p) = terms(x)
        b_v, w_v = x[:, :2], x[:, 2:]
        b_re, b_im, w_re, w_im = x.T
        w = w_re + 1j * w_im
        mu3 = mu * mu2
        # first and second derivatives of log A in (b, t)
        q = d[:, 1:] / d[:, :1]
        g_b, g_t = q[:, 0], -0.5 * q[:, 1]
        g_bb, g_bt, g_tt = q[:, 1] - g_b * g_b, -0.5 * q[:, 2] - g_b * g_t, 0.25 * q[:, 3] - g_t * g_t
        # b moves with (Re b, Im b) along e = (1, i); t = w / mu with
        # dt/dw_j = e_j / mu - w w_j / mu^3 and
        # d2t/dw_j dw_k = -(e_j w_k + e_k w_j + w delta_jk) / mu^3 + 3 w w_j w_k / mu^5
        dt = unit / mu[:, None] - (w / mu3)[:, None] * w_v
        ww = w_v[:, :, None] * w_v[:, None, :]
        cross = unit[:, None] * w_v[:, None, :]
        d2t = (3.0 * w / (mu3 * mu2))[:, None, None] * ww - (
            cross + cross.transpose(0, 2, 1) + w[:, None, None] * eye
        ) / mu3[:, None, None]

        # the log mass's derivatives: b2 = (Re b^2, Im b^2) = dp/dw and p_b = dp/db
        p_b = 2.0 * np.column_stack([w_re * b_re + w_im * b_im, w_im * b_re - w_re * b_im])
        along_w = 1.0 / mu2 + 2.0 * bb - p / mu

        # each block: the log mass's, less twice Re log A's
        grad = np.empty((len(x), 4))
        grad[:, :2] = 2.0 * mu2[:, None] * b_v - mu[:, None] * p_b - 2.0 * (g_b[:, None] * unit).real
        grad[:, 2:] = along_w[:, None] * w_v - mu[:, None] * b2 - 2.0 * (g_t[:, None] * dt).real
        hess = np.empty((len(x), 4, 4))
        # b-b: 2 mu^2 I - 2 Re(z e_a e_c) with z = mu conj(w) + g_bb, and
        # Re(z e_a e_c) = [[Re z, -Im z], [-Im z, -Re z]]
        z = mu * w.conjugate() + g_bb
        hess[:, 0, 0], hess[:, 1, 1] = 2.0 * (mu2 - z.real), 2.0 * (mu2 + z.real)
        hess[:, 0, 1] = hess[:, 1, 0] = 2.0 * z.imag
        # b-w: the w_j-derivative of the log mass's b-gradient, less 2 Re(g_bt e_a dt_j)
        hess[:, :2, 2:] = (
            4.0 * b_v[:, :, None] * w_v[:, None, :]
            - p_b[:, :, None] * (w_v / mu[:, None])[:, None, :]
            - 2.0 * mu[:, None, None] * np.stack([b_v, np.column_stack([-b_im, b_re])], 1)
            - 2.0 * (g_bt[:, None, None] * unit[:, None] * dt[:, None, :]).real
        )
        hess[:, 2:, :2] = hess[:, :2, 2:].transpose(0, 2, 1)
        hess[:, 2:, 2:] = (
            along_w[:, None, None] * eye
            + (p / mu3 - 2.0 / (mu2 * mu2))[:, None, None] * ww
            - (w_v[:, :, None] * b2[:, None, :] + b2[:, :, None] * w_v[:, None, :]) / mu[:, None, None]
            - 2.0 * (g_tt[:, None, None] * dt[:, :, None] * dt[:, None, :] + g_t[:, None, None] * d2t).real
        )
        return f, grad, hess

    return value, jet


def _lift(y: np.ndarray) -> np.ndarray:
    """Rows (Re b, Re w, Im w) of the slice Im b = 0 as chart rows (Re b, 0, Re w, Im w)."""
    x = np.zeros((len(y), 4))
    x[:, 0], x[:, 2:] = y[:, 0], y[:, 1:]
    return x


def _on_rotation_slice(value, jet):
    """``value`` and ``jet`` restricted to the slice Im b = 0, over (Re b, Re w, Im w)."""
    kept = [0, 2, 3]

    def sliced(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f, grad, hess = jet(_lift(y))
        return f, grad[:, kept], hess[:, kept][:, :, kept]

    return (lambda y: value(_lift(y))), sliced


def _start_values(value, starts: np.ndarray) -> np.ndarray:
    """``value`` at ``starts`` once each start valued +inf (F = 0) has moved a
    zero first coordinate out to 1, the fit's first trust radius, in place:
    near a k-fold zero -log F is about -2k log|x_0|, so a Newton step only
    doubles a small |x_0|, and a start near the zero would spend steps leaving it."""
    values = value(starts)
    flat = values == np.inf
    if flat.any():
        starts[flat, 0] = np.where(starts[flat, 0] == 0.0, 1.0, starts[flat, 0])
        values[flat] = value(starts[flat])
    return values


def gaussian_fidelity(
    psi: PureState, cfg: GaussianFitConfig | None = None
) -> GaussianFidelityResult:
    """Maximal fidelity of psi with a pure Gaussian state.

    Pure candidates suffice: the fidelity is linear in the Gaussian state
    and every mixed Gaussian is a mixture of pure ones.  Deterministic
    multistart in the chart (Re b, Im b, Re w, Im w) of :func:`_fit_jet`,
    where every pure Gaussian is a point: all starts run at once, as one
    trust-region Newton descent of -log F on the exact value, gradient and
    Hessian of :func:`_fit_jet`, one batched jet per step
    (:func:`~cvactivation.descent.lockstep_newton`, the depth search's descent
    too, here from a trust radius of 1 in the chart).  A start where F = 0,
    as b = 0 is for an odd psi, first moves its zero Re b out to that radius.
    A psi with one nonzero amplitude, e^{i chi}|n>, is fitted on the slice
    Im b = 0 over (Re b, Re w, Im w) (:func:`_on_rotation_slice`): c_n of the
    rotated point (e^{i theta} b, e^{2i theta} t) is e^{i n theta} c_n(b, t)
    and the Gaussian's mass does not move, so F is constant on these orbits
    (Chabaud, Markham and Grosshans, PRL 124, 063605 (2020)).  Each start is
    turned by the rotation that makes its b real, which leaves its F
    unchanged, and the descent spends no step along an orbit, where -log F
    is flat and its Hessian singular.
    A start counts as converged once it is stationary within ``cfg.maxiter``
    steps at a fidelity above 0.  A start whose bytes repeat an earlier one's
    (the first two, whenever <a> = 0) runs once and is counted again.  The
    spread and count of the converged starts are not a convergence
    certificate: images D(a)S(r e^{i phi}) of the even cat a = 2 were seen
    to miss the maximum by 0.0875 with a spread of at most 1.6e-10 and all
    16 starts converged.

    Each start's end point is scored by the value f = -log F the descent
    holds there, F = exp(-f): the exact fidelity with the untruncated
    Gaussian, which no tail tolerance rejects; a start whose value is NaN
    scores 0.  The best point is converted back to (alpha, r, phi) once
    (:func:`~cvactivation.states.from_chart`).  Its r may exceed
    ``states.DEFAULT_R_MAX``, the largest squeezing
    :func:`~cvactivation.states.gaussian_pure` builds.
    This is the full fit: the hierarchy's family search runs the same fit
    but stops it once its fidelity passes the level where no projector
    witness can beat the parity candidate (:func:`_gaussian_fit`), at the
    starts if their values already pass it.
    """
    return _gaussian_fit(psi, GaussianFitConfig() if cfg is None else cfg, math.inf)


def _gaussian_fit(psi: PureState, cfg: GaussianFitConfig, stop: float) -> GaussianFidelityResult:
    """:func:`gaussian_fidelity`'s fit, stopped as soon as some start's
    fidelity reaches ``stop`` (F >= stop, that is -log F <= -log stop; see
    :func:`~cvactivation.descent.lockstep_newton`).  Every start's fidelity
    only rises, so the result's is then at least ``stop``; ``stop = inf``
    runs the full fit.  The starts are valued once (:func:`_start_values`)
    and handed to the descent with those values, so a ``stop`` some start
    reaches is the descent's early return: no derivative, and the result
    reports steps 0, n_converged 0 and spread 0.0."""
    if psi.tail_mass(psi.dim - max(2, psi.dim // 10)) > 1e-4:
        raise TruncationError(
            "state occupies the top Fock levels; raise the cutoff before "
            "optimizing the Gaussian fidelity"
        )
    starts, (value, jet) = _informed_starts(psi, cfg), _fit_jet(psi)
    sliced = np.count_nonzero(psi.amplitudes) == 1
    if sliced:
        b, w = starts[:, 0] + 1j * starts[:, 1], starts[:, 2] + 1j * starts[:, 3]
        w = w * np.exp(-2j * np.angle(b))  # the rotation that makes b real
        starts, (value, jet) = np.column_stack([np.abs(b), w.real, w.imag]), _on_rotation_slice(value, jet)
    keys = [start.tobytes() for start in starts]
    runs = dict(zip(keys, starts))  # a repeated start runs once
    unique = np.array(list(runs.values()))
    values = _start_values(value, unique)
    enough = math.inf if stop == 0.0 else -math.log(stop)
    points, values, stationary, steps = lockstep_newton(jet, unique, values, 1.0, cfg.maxiter, enough)
    if sliced:
        points = _lift(points)
    rows = [list(runs).index(key) for key in keys]
    fids = np.exp(-np.where(np.isnan(values), np.inf, values))[rows]
    converged = fids[stationary[rows] & (fids > 0.0)]
    x = points[rows[int(np.argmax(fids))]]
    t = complex(x[2], x[3]) / math.sqrt(1.0 + (x[2] * x[2] + x[3] * x[3]))
    return GaussianFidelityResult(
        max_fidelity=float(fids.max()),
        argmax=from_chart(complex(x[0], x[1]), t),
        multistart_spread=float(converged.max() - converged.min()) if converged.size else 0.0,
        n_converged=converged.size,
        steps=steps,
    )
