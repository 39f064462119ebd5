"""Truncated-Fock-space linear algebra.

States, operators and norms on the space spanned by Fock levels
0..dim-1.  An object's dimension is its array's, and it interoperates
only with objects of the same dimension.  All values are
immutable after construction and every operation is a pure function, so
everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import TruncationError

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-9
# Displacements leak probability above the cutoff; reject when the coherent
# tail mass at the target cutoff exceeds this.
DISPLACEMENT_TAIL_TOL = 1e-8


def _dim(cutoff: int) -> int:
    """A cutoff as the dimension it keeps, levels 0..dim-1: a whole number >= 2."""
    if int(cutoff) != cutoff or cutoff < 2:
        raise ValueError(f"cutoff dim must be an integer >= 2, got {cutoff}")
    return int(cutoff)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has NaN or infinite entries")


def _whole_fields(obj, *names: str) -> None:
    """Require each named field of a frozen dataclass to be a whole number >= 1, kept as int."""
    for name in names:
        value = getattr(obj, name)
        if not float(value).is_integer() or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {value}")
        object.__setattr__(obj, name, int(value))


@dataclass(frozen=True)
class PureState:
    """Unit vector in the truncated Fock basis.

    ``leakage`` records the probability mass the constructing operation lost
    above the cutoff, so truncation error stays auditable downstream.
    """

    amplitudes: np.ndarray
    leakage: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        _dim(amps.shape[0])
        _check_finite(amps, "amplitudes")
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > 1e-10:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-10")
        object.__setattr__(self, "amplitudes", _frozen(amps / nrm))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def tail_mass(self, k: int) -> float:
        """Probability carried by Fock levels >= k."""
        return float(np.sum(np.abs(self.amplitudes[k:]) ** 2))

    def expectation(self, op: "OperatorMatrix") -> complex:
        if op.dim != self.dim:
            raise ValueError(f"operator dim {op.dim} != state dim {self.dim}")
        return complex(np.vdot(self.amplitudes, op.matrix @ self.amplitudes))

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), leakage=self.leakage)


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one positive Hermitian matrix on the truncated space.

    Construction validates Hermiticity (1e-10 elementwise), unit trace
    (1e-9) and positivity (min eigenvalue >= -1e-9); states that fail are
    rejected, never projected.  Round-off asymmetry is removed once by
    symmetrizing (M + M^dag)/2.
    """

    matrix: np.ndarray
    leakage: float = field(default=0.0, kw_only=True)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        _dim(mat.shape[0])
        _check_finite(mat, "density matrix")
        herm_dev = float(np.max(np.abs(mat - mat.conj().T)))
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"matrix not Hermitian: max deviation {herm_dev:.3e}")
        mat = (mat + mat.conj().T) / 2.0
        tr = float(np.real(np.trace(mat)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond 1e-9")
        eig_min = float(np.linalg.eigvalsh(mat)[0])
        if eig_min < -POSITIVITY_TOL:
            raise ValueError(f"matrix not positive: min eigenvalue {eig_min:.3e}")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def expectation(self, op: "OperatorMatrix") -> complex:
        if op.dim != self.dim:
            raise ValueError(f"operator dim {op.dim} != state dim {self.dim}")
        return complex(np.trace(op.matrix @ self.matrix))

    def mean_photon_number(self) -> float:
        return float(np.real(np.sum(np.diag(self.matrix) * np.arange(self.dim))))


@dataclass(frozen=True)
class OperatorMatrix:
    """Square operator on the truncated space; Hermitian when flagged."""

    matrix: np.ndarray
    hermitian: bool

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        _check_finite(mat, "operator")
        if self.hermitian:
            dev = float(np.max(np.abs(mat - mat.conj().T)))
            if dev > HERMITICITY_TOL:
                raise ValueError(f"operator flagged Hermitian deviates by {dev:.3e}")
            mat = (mat + mat.conj().T) / 2.0
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _occupied_dim(mats: np.ndarray) -> int:
    """Levels 0..k-1 of a stack (k, d, d), k - 1 the last level with an exactly
    nonzero entry anywhere in the stack; at least 2."""
    nonzero = mats != 0
    occupied = np.flatnonzero(nonzero.any(axis=(0, 1)) | nonzero.any(axis=(0, 2)))
    return max(2, int(occupied[-1]) + 1) if occupied.size else 2


def annihilation_matrix(dim: int) -> np.ndarray:
    """Raw matrix of the annihilation operator, sqrt(j) on the superdiagonal."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def parity_op(cutoff: int) -> OperatorMatrix:
    """Photon-number parity, diagonal (+1, -1, +1, ...); squares to identity."""
    dim = _dim(cutoff)
    diag = (-1.0) ** np.arange(dim)
    return OperatorMatrix(np.diag(diag).astype(complex), hermitian=True)


def position_op(cutoff: int) -> OperatorMatrix:
    """x = (a + a^dag)/sqrt(2), convention [x, p] = i."""
    dim = _dim(cutoff)
    a = annihilation_matrix(dim)
    x = (a + a.conj().T) / np.sqrt(2.0)
    return OperatorMatrix(x, hermitian=True)


def momentum_op(cutoff: int) -> OperatorMatrix:
    """p = -i (a - a^dag)/sqrt(2), convention [x, p] = i."""
    dim = _dim(cutoff)
    a = annihilation_matrix(dim)
    p = -1j * (a - a.conj().T) / np.sqrt(2.0)
    return OperatorMatrix(p, hermitian=True)


@lru_cache(maxsize=8)
def _quadrature_eigensystem(dim: int):
    """Read-only eigenpairs ((x values, vectors), (p values, vectors)) of the truncated x, p."""
    out = []
    for op in (position_op(dim), momentum_op(dim)):
        vals, vecs = np.linalg.eigh(op.matrix)
        out.append((_frozen(vals), _frozen(vecs)))
    return tuple(out)


def coherent_tail_mass(alpha: complex | np.ndarray, dim: int) -> float | np.ndarray:
    """Probability a coherent state |alpha> carries above Fock level dim-1.

    Exact Poisson tail: sum_{n>=dim} e^{-|a|^2} |a|^{2n}/n! , a float for a
    scalar alpha and an array of tails for an array of alphas.  |alpha| is
    taken by hypot, as Python's abs is; numpy's vectorised abs can differ
    from it in the last bit.  The sum runs on the smaller side of the
    Poisson distribution, so no cancellation occurs: upward from n = dim
    when |alpha|^2 < dim, else one minus the terms n < dim.
    """
    with np.errstate(over="ignore"):  # |alpha| above ~1.3e154 squares to inf, a tail of 1
        x = np.hypot(np.real(alpha), np.imag(alpha)) ** 2
    if np.ndim(x) == 0:
        x = float(x)
        if 0.0 < x < dim:
            return _poisson_sum(x, dim, upward=True)
        if dim <= x < math.inf:
            return 1.0 - _poisson_sum(x, dim - 1, upward=False)
        return 1.0 if x == math.inf else x * 0.0  # 0 at alpha = 0, NaN stays NaN
    # grids repeat |alpha|^2 many times over, so each distinct value is summed once
    values, inverse = np.unique(x, return_inverse=True)
    tail = np.where(np.isnan(values), values, 0.0)  # 0 at alpha = 0, NaN stays NaN
    tail[values == np.inf] = 1.0
    up = (values > 0.0) & (values < dim)
    down = (values >= dim) & (values < np.inf)
    tail[up] = _poisson_sum(values[up], dim, upward=True)
    tail[down] = 1.0 - _poisson_sum(values[down], dim - 1, upward=False)
    return tail[inverse].reshape(x.shape)


def _poisson_sum(x: float | np.ndarray, n: int, upward: bool) -> float | np.ndarray:
    """Sum of the Poisson(x) terms e^{-x} x^k / k! from k = n upward, or from
    k = n down to 0, until a term no longer changes the sum.

    ``x`` is a positive finite float, or an array of them.  Along either
    direction the terms only shrink, so later terms cannot change it either.
    """
    scalar = isinstance(x, float)
    lib = math if scalar else np
    term = lib.exp(n * lib.log(x) - x - math.lgamma(n + 1))
    total = 0.0 if scalar else np.zeros_like(x)
    while n >= 0:
        new = total + term
        if (new == total) if scalar else np.array_equal(new, total):
            break
        total = new
        if upward:
            n += 1
            term = term * x / n
        else:
            term = term * n / x
            n -= 1
    return total


def checked_coherent_tail(alpha: complex, dim: int, tail_tol: float, what: str) -> float:
    """:func:`coherent_tail_mass`, refused with a TruncationError above tail_tol."""
    tail = coherent_tail_mass(alpha, dim)
    if tail > tail_tol:
        raise TruncationError(
            f"{what} alpha={alpha} leaks {tail:.3e} > {tail_tol:.1e} at dim {dim}"
        )
    return tail


def pure_fidelity(psi: PureState, rho: DensityMatrix) -> float:
    """<psi|rho|psi>, the Uhlmann fidelity for a pure first argument."""
    if psi.dim != rho.dim:
        raise ValueError(f"mixed cutoffs: {psi.dim} vs {rho.dim}")
    val = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes)
    return min(max(float(np.real(val)), 0.0), 1.0)


def trace_norm(x: OperatorMatrix | np.ndarray) -> float:
    """Schatten-1 norm, the sum of singular values."""
    mat = x.matrix if isinstance(x, OperatorMatrix) else np.asarray(x)
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))
