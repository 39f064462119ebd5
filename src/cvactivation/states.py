"""Factories for the canonical single-mode states.

Fock, coherent, squeezed-coherent, cat, photon-subtracted squeezed and
finite-energy grid-code (GKP) states, plus thermal states.  All factories
return normalized :class:`~cvactivation.fock.PureState` /
:class:`~cvactivation.fock.DensityMatrix` objects with the truncation
leakage recorded; the grid codeword's amplitudes and leakage are exact
closed forms (:func:`gkp_damped`).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .fock import DensityMatrix, PureState, _dim, _whole_fields, checked_coherent_tail

# Reject factory outputs whose probability mass above the cutoff exceeds this.
STATE_TAIL_TOL = 1e-6
COHERENT_TAIL_TOL = 1e-8
DEFAULT_R_MAX = 2.0
SQRT_PI = float(np.sqrt(np.pi))


@dataclass(frozen=True)
class GaussianPureParams:
    """Displaced squeezed vacuum D(alpha) S(r e^{i phi}) |0>."""

    alpha: complex = 0.0
    r: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        alpha, r, phi = complex(self.alpha), float(self.r), float(self.phi)
        if not (cmath.isfinite(alpha) and math.isfinite(r) and math.isfinite(phi)):
            raise ValueError(f"Gaussian parameters must be finite, got {alpha}, {r}, {phi}")
        if r < 0:
            raise ValueError("squeezing magnitude r must be nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi % (2.0 * np.pi))


@dataclass(frozen=True)
class GkpParams:
    """Finite-energy square-lattice grid codeword exp(-eps n) |logical>.

    ``peak_window`` limits the position comb to lattice peaks |s| <= S;
    ``None`` picks S by envelope weight (:func:`_window`).  Either way
    :func:`gkp_damped` refuses S if S -> S+2 moves an amplitude by > 1e-8.
    """

    epsilon: float
    logical: int = 0
    peak_window: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.logical not in (0, 1):
            raise ValueError("logical must be 0 or 1")
        if self.peak_window is not None:
            _whole_fields(self, "peak_window")

    @property
    def squeezing_db(self) -> float:
        """Equivalent squeezing label -10 log10(tanh epsilon) in dB."""
        return float(-10.0 * np.log10(np.tanh(self.epsilon)))

    @classmethod
    def from_db(cls, squeezing_db: float, logical: int = 0, peak_window: int | None = None):
        if not squeezing_db > 0:
            raise ValueError(f"squeezing_db must be positive, got {squeezing_db}")
        eps = float(np.arctanh(10.0 ** (-squeezing_db / 10.0)))
        return cls(epsilon=eps, logical=logical, peak_window=peak_window)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions psi_n(x), n < n_max, rows indexed by n.

    Stable three-term recurrence on the functions themselves (bounded),
    never on the raw Hermite polynomials.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(2, n_max):
        out[n] = np.sqrt(2.0 / n) * x * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def fock(n: int, cutoff: int) -> PureState:
    """Number state |n>."""
    dim = _dim(cutoff)
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} outside cutoff dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return PureState(amps)


def _coherent_amps(alpha: complex, n_levels: int) -> np.ndarray:
    # c_n = e^{-|a|^2/2} a^n / sqrt(n!), built iteratively to avoid overflow
    amps = np.empty(n_levels, dtype=complex)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_levels):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return amps


def coherent(alpha: complex, cutoff: int) -> PureState:
    """Coherent state |alpha>, renormalized; refused when it leaks more than 1e-8."""
    dim = _dim(cutoff)
    tail = checked_coherent_tail(alpha, dim, COHERENT_TAIL_TOL, "coherent")
    amps = _coherent_amps(alpha, dim)
    return PureState(amps / np.linalg.norm(amps), leakage=tail)


def squeezed_coherent_amps(
    alpha: complex, r: float, phi: float, n_levels: int
) -> np.ndarray:
    """Unnormalized Fock amplitudes of D(alpha) S(r e^{i phi}) |0>.

    Uses the annihilator identity [mu a + nu a^dag - (mu alpha + nu alpha*)]
    |psi> = 0 with mu = cosh r, nu = e^{i phi} sinh r, which gives a stable
    forward recurrence for the amplitudes,
    c_{n+1} = (gamma c_n - nu sqrt(n) c_{n-1}) / (mu sqrt(n+1)).

    Cost: one vectorised sqrt table, then O(n_levels) steps of
    :func:`_squeezed_coherent_steps` on Python complex scalars.
    """
    roots = np.sqrt(np.arange(n_levels, dtype=float)).astype(complex).tolist()
    amps = [1.0 + 0j, *_squeezed_coherent_steps(alpha, r, phi, roots)]
    return np.array(amps[:n_levels], dtype=complex)


def _squeezed_coherent_steps(alpha: complex, r: float, phi: float, roots: list[complex]):
    """Yield c_1, c_2, .., c_{len(roots) - 1} after c_0 = 1 (c_1 for any table),
    given roots[n] = sqrt(n) as a complex: a table one caller may build for many runs.

    For finite inputs each value is bit-identical to the recurrence run in
    numpy scalars.  Only cosh r, sinh r and e^{i phi} stay numpy ufunc
    calls: np.cosh and np.sinh differ from math.cosh and math.sinh in the
    last bit for about 18 % and 27 % of r drawn over [0, 2] (numpy 2.4,
    AVX-512), and nothing promises that cmath.exp matches np.exp either.
    mu, nu, gamma and c_1 are then Python numbers, each product taken as
    numpy takes it: a real operand promoted to a complex one with zero
    imaginary part, while a real alpha stays real in mu alpha and in its
    conjugate.  numpy divides a complex by a real d by Smith's formula with
    a zero imaginary part; c_1 = gamma / mu writes that formula out, and the
    later levels reproduce it as a product with the complex 1/d - 0j (the
    negative zero gives zero parts numpy's signs; only a part that
    underflows to zero can take the other sign).  Complex operands
    throughout: Python's complex * complex is numpy's product in every
    version, while complex * float is not from 3.14 on.
    """
    mu = float(np.cosh(r))
    nu = complex(np.exp(1j * phi)) * complex(np.sinh(r))
    mu_alpha = complex(mu) * alpha if isinstance(alpha, complex) else complex(mu * alpha)
    gamma = mu_alpha + nu * complex(alpha.conjugate())
    inv = 1.0 / mu
    prev, cur = 1.0 + 0j, complex((gamma.real + gamma.imag * 0.0) * inv, (gamma.imag - gamma.real * 0.0) * inv)
    yield cur
    for n in range(2, len(roots)):
        prev, cur = cur, (gamma * cur - nu * roots[n - 1] * prev) * complex(1.0 / (mu * roots[n].real), -0.0)
        yield cur


def squeezed_coherent_mass(alpha: complex, r: float, phi: float) -> float:
    """Total mass sum_n |c_n|^2 of the :func:`squeezed_coherent_amps` amplitudes.

    c_n = <n|psi>/<0|psi>, so the sum is 1/|<0|D(alpha) S(r e^{i phi})|0>|^2.
    With b = gamma/mu and t = nu/mu it reads
    (1 - |t|^2)^(-1/2) exp((|b|^2 - Re(conj(t) b^2)) / (1 - |t|^2)); as
    1 - |t|^2 = 1/mu^2 this is mu exp(|gamma|^2 - Re(conj(nu) gamma^2)/mu),
    the form evaluated.  Infinite when the exponent leaves the float range.
    """
    alpha = complex(alpha)
    mu = math.cosh(r)
    nu = cmath.exp(1j * phi) * math.sinh(r)
    gamma = mu * alpha + nu * alpha.conjugate()
    exponent = abs(gamma) * abs(gamma) - (nu.conjugate() * gamma * gamma).real / mu
    return mu * math.exp(exponent) if exponent < 700.0 else math.inf


def _truncate_with_leakage(
    amps_ext: np.ndarray, dim: int, tail_tol: float, what: str
) -> tuple[np.ndarray, float]:
    total = float(np.sum(np.abs(amps_ext) ** 2))
    if total == 0.0:
        raise ValueError(f"{what}: zero vector")
    leak = float(np.sum(np.abs(amps_ext[dim:]) ** 2)) / total
    if not leak <= tail_tol:  # a NaN leak fails it too
        raise TruncationError(f"{what} leaks {leak:.3e} > {tail_tol:.1e} at dim {dim}")
    kept = amps_ext[:dim]
    return kept / np.linalg.norm(kept), leak


def gaussian_pure(params: GaussianPureParams, cutoff: int) -> PureState:
    """Pure Gaussian state D(alpha) S(r e^{i phi}) |0>, renormalized.

    Refused for r above ``DEFAULT_R_MAX`` (ValueError) and when more than
    ``STATE_TAIL_TOL`` of its first 2 cutoff + 32 levels lies above the
    cutoff (TruncationError).
    """
    dim = _dim(cutoff)
    if params.r > DEFAULT_R_MAX:
        raise ValueError(f"squeezing r={params.r} exceeds r_max={DEFAULT_R_MAX}")
    amps = squeezed_coherent_amps(params.alpha, params.r, params.phi, 2 * dim + 32)
    kept, leak = _truncate_with_leakage(amps, dim, STATE_TAIL_TOL, "gaussian_pure")
    return PureState(kept, leakage=leak)


def cat(alpha: complex, sign: int, cutoff: int) -> PureState:
    """Normalized |alpha> + sign |-alpha>; sign=-1 has odd Fock support."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    mag = abs(complex(alpha))
    if not math.exp(-0.5 * (mag * mag)) > 0.0:
        raise ValueError(f"cat alpha={alpha} is too large: e^(-|alpha|^2/2) underflows to 0")
    dim = _dim(cutoff)
    n_levels = dim + 64
    base = _coherent_amps(alpha, n_levels)
    parity = (-1.0) ** np.arange(n_levels)
    amps = base * (1.0 + sign * parity)
    try:
        kept, leak = _truncate_with_leakage(amps, dim, STATE_TAIL_TOL, "cat")
    except ValueError:  # the zero vector: a subnormal e^(-|alpha|^2/2) squares to 0
        raise ValueError(
            f"cat alpha={alpha} is too large: every |c_n|^2 underflows to 0"
        ) from None
    return PureState(kept, leakage=leak)


def photon_subtracted_squeezed(r: float, cutoff: int) -> PureState:
    """Normalized a S(r)|0>; supported on odd Fock levels only."""
    dim = _dim(cutoff)
    n_levels = 2 * dim + 32
    # the recurrence forms cosh(r) sqrt(n) for n <= n_levels
    if not (math.isfinite(r) and r < math.acosh(sys.float_info.max / math.sqrt(n_levels + 1))):
        raise ValueError(f"squeezing r={r} is not finite or overflows the amplitude recurrence")
    if r <= 0:
        raise ValueError("photon subtraction from vacuum (r=0) gives the zero vector")
    sq = squeezed_coherent_amps(0.0, r, 0.0, n_levels + 1)
    sub = np.sqrt(np.arange(1, n_levels + 1)) * sq[1:]
    kept, leak = _truncate_with_leakage(sub, dim, STATE_TAIL_TOL, "photon_subtracted_squeezed")
    return PureState(kept, leakage=leak)


def thermal(nbar: float, cutoff: int) -> DensityMatrix:
    """Thermal state with mean photon number nbar, renormalized.

    Raises TruncationError when its tail above the cutoff exceeds
    ``STATE_TAIL_TOL``.
    """
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be finite and nonnegative, got {nbar}")
    dim = _dim(cutoff)
    if nbar == 0:
        return fock(0, dim).to_density()
    ratio = nbar / (nbar + 1.0)
    probs = ratio ** np.arange(dim)
    leak = float(ratio**dim)  # exact geometric tail
    if leak > STATE_TAIL_TOL:
        raise TruncationError(f"thermal leaks {leak:.3e} > {STATE_TAIL_TOL:.1e} at dim {dim}")
    probs /= probs.sum()
    return DensityMatrix(np.diag(probs).astype(complex), leakage=leak)


def _lattice_peaks(logical: int, window: int) -> np.ndarray:
    """Ideal-codeword peaks y_s = (2s + logical) sqrt(pi), |s| <= window (< for logical 1)."""
    if logical == 0:
        return 2.0 * np.arange(-window, window + 1, dtype=float) * SQRT_PI
    return (2.0 * np.arange(-window, window, dtype=float) + 1.0) * SQRT_PI


def _gkp_amps(params: GkpParams, window: int, dim: int) -> tuple[np.ndarray, float]:
    """Amplitudes c_n, n < dim, of exp(-eps n) sum_s |x = y_s> and its total mass.

    c_n = e^{-eps n} sum_s psi_n(y_s).  The mass sum_n |c_n|^2 sums Mehler's
    kernel with t = e^{-2 eps} over peak pairs: (pi (1 - t^2))^(-1/2)
    sum_{s,t} exp(-[(1 + t^2)(y_s - y_t)^2 + 2 y_s y_t (1 - t)^2] / (2 (1 - t^2))).
    The bracket is at least (1 - t)^2 (y_s^2 + y_t^2), so nothing cancels, and
    1 - t = (1 + t) tanh eps, 1 - t^2 = (1 + t^2) tanh 2eps stay exact and
    nonzero for every finite eps.
    """
    eps = params.epsilon
    peaks = _lattice_peaks(params.logical, window)
    # exp(-746 n) is already 0.0 for every n >= 1; the cap keeps eps * n finite
    amps = np.exp(-min(eps, 746.0) * np.arange(dim)) * hermite_functions(dim, peaks).sum(axis=1)
    t = math.exp(-2.0 * eps)
    one_t, one_t2 = (1.0 + t) * math.tanh(eps), (1.0 + t * t) * math.tanh(2.0 * eps)
    y, z = peaks[:, None], peaks[None, :]
    expo = ((1.0 + t * t) * (y - z) ** 2 + 2.0 * one_t**2 * (y * z)) / (2.0 * one_t2)
    return amps, float(np.sum(np.exp(-expo))) / math.sqrt(math.pi * one_t2)


def _window(params: GkpParams) -> int:
    """The explicit peak window, else the smallest whose envelope weight
    exp(-2 pi s^2 tanh eps) is below 1e-16 at the first excluded shell."""
    if params.peak_window is not None:
        return params.peak_window
    sigma2 = np.tanh(params.epsilon)
    s = int(np.ceil(np.sqrt(37.0 / (2.0 * np.pi * sigma2)))) + 1
    return max(s, 2)


def gkp_comb(params: GkpParams) -> tuple[np.ndarray, np.ndarray, float]:
    """Peak centers, envelope weights and peak variance of the damped comb.

    The ideal square-lattice codeword is a comb of position eigenstates at
    x = (2s + logical) sqrt(pi).  Acting with exp(-eps n) via the harmonic
    oscillator heat kernel turns each delta peak into a Gaussian of variance
    sigma^2 = tanh(eps), centered at the shrunk lattice point y/cosh(eps),
    with envelope weight exp(-y^2 tanh(eps)/2).  So the damped codeword is
    exactly sum_s w_s exp(-(x - mu_s)^2 / (2 sigma^2)); this is the data the
    exact Wigner evaluator consumes.
    """
    eps = params.epsilon
    sigma2 = float(np.tanh(eps))
    peaks = _lattice_peaks(params.logical, _window(params))
    with np.errstate(over="ignore"):  # cosh is inf above eps ~ 710: every center is 0
        shrink = np.cosh(eps)
    return peaks / shrink, np.exp(-0.5 * sigma2 * peaks**2), sigma2


def gkp_damped(
    params: GkpParams,
    cutoff: int,
    tail_tol: float = STATE_TAIL_TOL,
) -> PureState:
    """Finite-energy square-lattice codeword exp(-eps n)|logical>, normalized.

    Exact kept amplitudes and ``leakage`` = 1 - head/total, the whole tail
    above the cutoff (:func:`_gkp_amps`).  Raises TruncationError when that
    exceeds ``tail_tol`` and ValueError when the peak window is too small:
    S -> S+2 moves an amplitude, scaled by the total mass, by more than 1e-8.
    """
    dim = _dim(cutoff)
    window = _window(params)
    amps, total = _gkp_amps(params, window, dim)
    amps_wide, total_wide = _gkp_amps(params, window + 2, dim)
    drift = float(np.max(np.abs(amps / math.sqrt(total) - amps_wide / math.sqrt(total_wide))))
    if drift > 1e-8:
        raise ValueError(
            f"peak_window {window} too small: S -> S+2 moves amplitudes by {drift:.3e}"
        )
    # the wide window is at least as good
    leak = max(0.0, 1.0 - float(np.sum(amps_wide * amps_wide)) / total_wide)
    if leak > tail_tol:
        raise TruncationError(f"gkp_damped leaks {leak:.3e} > {tail_tol:.1e} at dim {dim}")
    return PureState(amps_wide / np.linalg.norm(amps_wide), leakage=leak)
