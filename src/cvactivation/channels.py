"""CPTP maps on the truncated Fock space.

Pure loss and additive Gaussian noise (exact binomial maps on the diagonals of
rho), number damping, phase rotation and one deterministic round of grid-code
error correction.  Channels are immutable once built and their application is
a pure function, so parameter sweeps may apply them in parallel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .fock import (
    DISPLACEMENT_TAIL_TOL,
    DensityMatrix,
    OperatorMatrix,
    PureState,
    _dim,
    _occupied_dim,
    _quadrature_eigensystem,
    checked_coherent_tail,
)
from .states import SQRT_PI

TRACE_PRESERVATION_TOL = 1e-8


def _transmissivity(eta: float) -> float:
    """A pure-loss transmissivity, refused outside [0, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    return eta


def _renormalised(out: np.ndarray, rho: DensityMatrix) -> DensityMatrix:
    """A channel's output ``out`` on ``rho``, scaled to unit trace; the trace it
    lost (or gained) is reported as leakage, with rho's own."""
    tr = float(np.real(np.trace(out)))
    return DensityMatrix(out / tr, leakage=max(rho.leakage, abs(1.0 - tr)))


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving channel given by its Kraus elements: the dense form the
    band maps below are tested against."""

    kraus_ops: tuple[OperatorMatrix, ...]
    label: str

    def __post_init__(self):
        if not self.kraus_ops:
            raise ValueError("need at least one Kraus element")
        dim = self.kraus_ops[0].dim
        acc = np.zeros((dim, dim), dtype=complex)
        for k in self.kraus_ops:
            if k.dim != dim:
                raise ValueError("Kraus elements have mixed dimensions")
            acc += k.matrix.conj().T @ k.matrix
        dev = float(np.max(np.abs(acc - np.eye(dim))))
        if dev > TRACE_PRESERVATION_TOL:
            raise ValueError(f"channel '{self.label}' not trace preserving: defect {dev:.3e}")
        object.__setattr__(self, "kraus_ops", tuple(self.kraus_ops))

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].dim

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        if rho.dim != self.dim:
            raise ValueError(f"channel dim {self.dim} != state dim {rho.dim}")
        out = np.zeros_like(rho.matrix)
        for k in self.kraus_ops:
            out = out + k.matrix @ rho.matrix @ k.matrix.conj().T
        return _renormalised(out, rho)


@dataclass(frozen=True, eq=False)
class LossChannel:
    """Pure loss as a binomial map on each diagonal of rho (Ivan, Sabapathy and
    Simon, PRA 84, 042311 (2011)): rho'_{m,n} = sum_k b_k(m) b_k(n) rho_{m+k,n+k},
    b_k(m) = bands[k, m] = sqrt(C(m+k, k) eta^m (1-eta)^k) for m + k < d."""

    eta: float
    bands: np.ndarray

    def __post_init__(self):
        # level n keeps sum_{m+k=n} b_k(m)^2 of its weight, which must be all of it
        k, m = np.indices(self.bands.shape)
        kept = np.bincount((k + m).ravel(), (self.bands**2).ravel())[: len(self.bands)]
        dev = float(np.max(np.abs(kept - 1.0)))
        if not dev <= TRACE_PRESERVATION_TOL:
            raise ValueError(f"loss(eta={self.eta}) not trace preserving: defect {dev:.3e}")
        self.bands.setflags(write=False)

    def _lowered(self, rho: DensityMatrix) -> tuple[np.ndarray, int]:
        """The map on rho's matrix, unnormalized, and the levels it may occupy."""
        if rho.dim != len(self.bands):
            raise ValueError(f"channel dim {len(self.bands)} != state dim {rho.dim}")
        occ = _occupied_dim(rho.matrix[None])  # the map never raises a level
        out = np.zeros_like(rho.matrix)
        for k in range(occ):
            b = self.bands[k, : occ - k]
            out[: occ - k, : occ - k] += np.outer(b, b) * rho.matrix[k:occ, k:occ]
        return out, occ

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        out, _ = self._lowered(rho)
        return _renormalised(out, rho)


def pure_loss(eta: float, cutoff: int) -> LossChannel:
    """Pure-loss channel; band k is the superdiagonal of the Kraus element
    sqrt((1-eta)^k/k!) eta^(n/2) a^k, each entry formed as the dense element
    product forms it, so Fock inputs map bit for bit as through the elements.
    The ordering (damping after annihilation) is fixed by the single-photon
    identity eta |1><1| + (1-eta) |0><0|.
    """
    eta = _transmissivity(eta)
    dim = _dim(cutoff)
    bands = np.zeros((dim, dim))
    damp = np.power(eta, np.arange(dim) / 2.0)
    a_power = np.ones(dim)  # (a^k)_{m,m+k} for m < dim - k
    coeff = 1.0  # (1-eta)^k / k! as a running product, which underflows, never overflows
    for k in range(dim):
        # below the normal range the factor loses precision, then drops to 0;
        # at eta = 1 it is exactly 0 from k = 1 on
        if coeff < sys.float_info.min and eta < 1.0:
            bands[k:] = _loss_log_bands(eta, dim, k)
            break
        bands[k, : dim - k] = (math.sqrt(coeff) * damp[: dim - k]) * a_power
        a_power = np.sqrt(np.arange(1, dim - k, dtype=float)) * a_power[1:]
        coeff *= (1.0 - eta) / (k + 1)
    return LossChannel(eta, bands)


def _loss_log_bands(eta: float, dim: int, start: int) -> np.ndarray:
    """Bands k >= start from the logarithm of b_k(m)^2, so no factor below the float range forms."""
    log_factorial = np.array([math.lgamma(n + 1) for n in range(2 * dim - 1)])
    k, m = np.arange(start, dim)[:, None], np.arange(dim)
    # m log eta with 0 log 0 = 0: the vacuum keeps its weight at eta = 0
    m_log_eta = m * math.log(eta) if eta > 0.0 else np.where(m == 0, 0.0, -np.inf)
    log_w = (
        log_factorial[m + k] - log_factorial[m] - log_factorial[k]
        + m_log_eta + k * math.log1p(-eta)
    )
    return np.where(m + k < dim, np.exp(0.5 * log_w), 0.0)


@dataclass(frozen=True, eq=False)
class GaussNoiseChannel:
    """Additive Gaussian noise of variance sigma2 as pure loss of transmissivity
    eta = 1/(1 + sigma2) followed by the quantum-limited amplifier of gain 1/eta
    (Caruso, Giovannetti and Holevo, New J. Phys. 8, 310 (2006)).

    The amplifier raises each diagonal of rho: band k moves c_k(m) c_k(n)
    rho_{m,n} to rho'_{m+k,n+k}, with c_k(m) = sqrt(C(m+k, k) eta^(m+1)
    (1-eta)^k).  That is sqrt(eta) b_k(m) in the loss's bands, so one band
    table serves both steps.  The weight the amplifier raises to level d or
    above leaves the truncated space; it is reported as leakage and the rest
    renormalized, not folded back in.
    """

    sigma2: float
    loss: LossChannel

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        lossy, occ = self.loss._lowered(rho)
        dim = len(self.loss.bands)
        out = np.zeros_like(lossy)
        for k in range(dim):
            top = min(occ, dim - k)
            b = self.loss.bands[k, :top]
            out[k : k + top, k : k + top] += np.outer(b, b) * lossy[:top, :top]
        out *= self.loss.eta
        return _renormalised(out, rho)


def gaussian_noise(sigma2: float, cutoff: int) -> GaussNoiseChannel:
    """Random displacement noise rho -> int d^2 alpha exp(-|alpha|^2/sigma2)
    D(alpha) rho D(alpha)^dag / (pi sigma2), applied exactly as loss then
    amplification (:class:`GaussNoiseChannel`).  No quadrature is involved:
    the map is exact on the truncated input, and the weight it raises above
    the cutoff is the output's reported leakage."""
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be finite and positive, got {sigma2}")
    return GaussNoiseChannel(sigma2, pure_loss(1.0 / (1.0 + sigma2), cutoff))


@dataclass(frozen=True)
class DampingMap:
    """Normalized number damping rho -> N rho N / Tr(N rho N), N = exp(-eps n)."""

    epsilon: float
    dim: int

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        object.__setattr__(self, "dim", _dim(self.dim))

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        if rho.dim != self.dim:
            raise ValueError("cutoff mismatch")
        # exp(-746 n) is already 0.0 for every n >= 1, so capping epsilon there
        # leaves the factors unchanged and keeps epsilon * n from overflowing
        d = np.exp(-min(self.epsilon, 746.0) * np.arange(self.dim))
        out = d[:, None] * rho.matrix * d[None, :]
        tr = float(np.real(np.trace(out)))
        if tr <= 0.0:
            raise ValueError("damped state has zero trace")
        return DensityMatrix(out / tr, leakage=rho.leakage)


def damping(epsilon: float, cutoff: int) -> DampingMap:
    return DampingMap(epsilon, cutoff)


def phase_rotation(theta: float, cutoff: int) -> OperatorMatrix:
    """Gaussian unitary exp(i theta n), free for every free set used here."""
    dim = _dim(cutoff)
    return OperatorMatrix(np.diag(np.exp(1j * theta * np.arange(dim))), hermitian=False)


def apply_unitary(u: OperatorMatrix, rho: DensityMatrix) -> DensityMatrix:
    if u.dim != rho.dim:
        raise ValueError("dimension mismatch")
    out = u.matrix @ rho.matrix @ u.matrix.conj().T
    tr = float(np.real(np.trace(out)))
    return DensityMatrix(out / tr, leakage=rho.leakage)


def nearest_lattice_shift(value, spacing: float):
    """Residue of value modulo the lattice, nearest point, ties toward zero.

    ``value`` is a number or an array; a number gives a ``float``, an array
    an array of the residues, element by element.
    """
    ratio = np.asarray(value) / spacing
    tie = np.abs(np.abs(ratio - np.trunc(ratio)) - 0.5) < 1e-12
    shift = value - np.where(tie, np.trunc(ratio), np.round(ratio)) * spacing
    return float(shift) if np.ndim(shift) == 0 else shift


def _validate_gkp_ancilla(ancilla: PureState) -> None:
    amps = ancilla.amplitudes
    if float(np.max(np.abs(amps.imag))) > 1e-8:
        raise ValueError("ancilla validation failed: amplitudes not real")
    odd_mass = float(np.sum(np.abs(amps[1::2]) ** 2))
    if odd_mass > 1e-6:
        raise ValueError(f"ancilla validation failed: odd-sector mass {odd_mass:.3e}")
    # logical-0 alignment: the position comb sits on even multiples of sqrt(pi),
    # so the lattice translation exp(i sqrt(pi) q), the displacement by
    # i sqrt(pi/2), has clearly positive expectation, summed in the q eigenbasis
    translation = 1j * math.sqrt(math.pi / 2.0)
    checked_coherent_tail(translation, ancilla.dim, DISPLACEMENT_TAIL_TOL, "displacement")
    (qvals, qvecs), _ = _quadrature_eigensystem(ancilla.dim)
    stab = float(np.abs(qvecs.conj().T @ amps) ** 2 @ np.cos(SQRT_PI * qvals))
    if stab < 0.1:
        raise ValueError(
            f"ancilla validation failed: lattice alignment expectation {stab:.3f}"
        )


def _steane_round(
    rho_data: np.ndarray,
    ancilla: np.ndarray,
    coupling_sign: float,
    measured: tuple[np.ndarray, np.ndarray],
    coupled: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Couple data to ancilla, measure one ancilla quadrature, translate back.

    The gate exp(i s X (x) Y) couples the data's measured quadrature X to the
    ancilla's conjugate quadrature Y, so the ancilla outcome x_k leaves the
    data in A_k rho A_k^dag with A_k = V_x diag(c_k) V_x^dag and
    c_{k,i} = sum_j <x_k|y_j> <y_j|ancilla> e^{i s y_j x_i}.  Its correction
    exp(-i s r_k Y), r_k the residue of x_k (mod sqrt(pi)), is the phase P_k
    in the Y eigenbasis, where the outcome-averaged channel sums
    P_k W diag(c_k) rho_x diag(c_k)^dag W^dag P_k^dag, W = V_y^dag V_x.
    """
    (xvals, xvecs), (yvals, yvecs) = measured, coupled
    to_y = yvecs.conj().T @ xvecs  # W, entries <y_j|x_k>
    amps = to_y.conj().T * (yvecs.conj().T @ ancilla)
    coeffs = amps @ np.exp(1j * coupling_sign * np.outer(yvals, xvals))
    rho_x = xvecs.conj().T @ rho_data @ xvecs
    shifts = nearest_lattice_shift(xvals, SQRT_PI)
    phases = np.exp(-1j * coupling_sign * np.outer(shifts, yvals))
    out = np.zeros_like(rho_data)
    for c, phase in zip(coeffs, phases):
        op = to_y * c  # W diag(c_k), the branch before its correction
        out += np.outer(phase, phase.conj()) * (op @ rho_x @ op.conj().T)
    return yvecs @ out @ yvecs.conj().T


def gkp_ec_round(state: DensityMatrix, ancilla: PureState) -> DensityMatrix:
    """One deterministic round of grid-code error correction, both quadratures.

    Steane-style circuit per quadrature (Gottesman, Kitaev and Preskill, PRA
    64, 012310 (2001)): the data couples to a fresh finite-energy codeword
    ancilla through a SUM-type gate, one ancilla quadrature is measured in
    the eigenbasis of its truncated operator, and the data is translated (a
    phase in the eigenbasis of the conjugate quadrature) so the modular
    residue (mod sqrt(pi), nearest lattice point, ties toward zero) returns
    to zero.  Branches are averaged, so the map is trace preserving.

    The position round uses the ancilla rotated by a quarter period
    (exp(i pi n / 2)), whose position comb has sqrt(pi) spacing; the
    momentum round uses the codeword ancilla unchanged.
    """
    if state.dim != ancilla.dim:
        raise ValueError("data and ancilla must share the cutoff")
    dim = state.dim
    _validate_gkp_ancilla(ancilla)
    quad_q, quad_p = _quadrature_eigensystem(dim)
    anc_plus = np.exp(1j * (np.pi / 2.0) * np.arange(dim)) * ancilla.amplitudes

    # position round exp(-i q (x) p): ancilla position picks up data position;
    # momentum round exp(i p (x) q): ancilla momentum picks up data momentum
    rho = _steane_round(state.matrix, anc_plus, -1.0, quad_q, quad_p)
    rho = _steane_round(rho, ancilla.amplitudes, 1.0, quad_p, quad_q)

    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-6:
        raise TruncationError(f"error-correction round lost trace: defect {abs(tr - 1.0):.3e}")
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(rho / tr, leakage=max(state.leakage, ancilla.leakage, abs(tr - 1.0)))
