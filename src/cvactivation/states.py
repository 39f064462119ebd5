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
        tanh_eps = 10.0 ** (-squeezing_db / 10.0)
        if not tanh_eps < 1.0:
            raise ValueError(f"squeezing_db {squeezing_db} rounds to no squeezing")
        eps = float(np.arctanh(tanh_eps))
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


def to_chart(params: GaussianPureParams) -> tuple[complex, complex]:
    """Bargmann chart point (b, t) of D(alpha) S(r e^{i phi}) |0>.

    Its Bargmann function is proportional to exp(b z - t z^2 / 2) with
    t = e^{i phi} tanh r in the open unit disk and b = alpha + t conj(alpha)
    (Chabaud, Markham and Grosshans, PRL 124, 063605 (2020)).
    """
    alpha = params.alpha
    t = cmath.exp(1j * params.phi) * math.tanh(params.r)
    return alpha + t * alpha.conjugate(), t


def from_chart(b: complex, t: complex) -> GaussianPureParams:
    """The inverse of :func:`to_chart`: alpha = (b - t conj(b)) / (1 - |t|^2),
    r = artanh |t| and phi = arg t."""
    b, t = complex(b), complex(t)
    return GaussianPureParams((b - t * b.conjugate()) / (1.0 - abs(t) ** 2), math.atanh(abs(t)), cmath.phase(t))


def gaussian_amps(b, t, levels: int) -> np.ndarray:
    """Fock amplitudes c_n = <n|G>/<0|G>, n < levels, of the pure Gaussian G
    at the chart point (b, t) (:func:`to_chart`).

    exp(b z - t z^2 / 2) = sum_n c_n z^n / sqrt(n!) gives c_0 = 1, c_1 = b and
    c_{n+1} = (b c_n - t sqrt(n) c_{n-1}) / sqrt(n+1).

    Scalar ``b`` and ``t`` run on Python complex numbers.  Arrays of one
    shape run with numpy's arithmetic, all points at once, and give a table
    of that shape with the levels on a last axis.
    """
    if np.ndim(b) or np.ndim(t):
        b, t = np.broadcast_arrays(np.asarray(b, dtype=complex), np.asarray(t, dtype=complex))
        amps = [np.ones_like(b), b]
    else:
        amps = [1.0 + 0j, complex(b)]
    for n in range(1, levels - 1):
        amps.append((b * amps[n] - t * math.sqrt(n) * amps[n - 1]) / math.sqrt(n + 1))
    table = np.array(amps[:levels], dtype=complex)
    return table if table.ndim == 1 else table.transpose(*range(1, table.ndim), 0)  # the levels last


def gaussian_mass(b: complex, t: complex, mu2: float) -> float:
    """Total mass sum_n |c_n|^2 = 1/|<0|G>|^2 of the :func:`gaussian_amps`
    amplitudes: mu exp(mu^2 (|b|^2 - Re(conj(t) b^2))) with
    mu^2 = 1/(1 - |t|^2) = cosh^2 r.

    The caller passes ``mu2``, so one that holds it exactly (1 + |w|^2 for
    t = w / sqrt(1 + |w|^2)) never forms 1 - |t|^2 by a subtraction.
    Infinite when the exponent leaves the float range.
    """
    exponent = mu2 * (abs(b) * abs(b) - (t.conjugate() * b * b).real)
    return math.sqrt(mu2) * math.exp(exponent) if exponent < 700.0 else math.inf


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

    Refused for r above ``DEFAULT_R_MAX`` (ValueError), before any array is
    built when its total mass (:func:`gaussian_mass`) is not finite, and when
    more than ``STATE_TAIL_TOL`` of its first 2 cutoff + 32 levels lies above
    the cutoff (TruncationError).
    """
    dim = _dim(cutoff)
    if params.r > DEFAULT_R_MAX:
        raise ValueError(f"squeezing r={params.r} exceeds r_max={DEFAULT_R_MAX}")
    b, t = to_chart(params)
    if not gaussian_mass(b, t, math.cosh(params.r) ** 2) < math.inf:
        raise TruncationError(f"gaussian_pure: the mass of {params} is not finite")
    amps = gaussian_amps(b, t, 2 * dim + 32)
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
    # the factory's input range: cosh(r) sqrt(n) finite for n <= n_levels
    if not (math.isfinite(r) and r < math.acosh(sys.float_info.max / math.sqrt(n_levels + 1))):
        raise ValueError(f"squeezing r={r} is not finite or too large: cosh(r) sqrt({n_levels + 1}) overflows")
    if r <= 0:
        raise ValueError("photon subtraction from vacuum (r=0) gives the zero vector")
    sq = gaussian_amps(0.0, math.tanh(r), n_levels + 1)
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
