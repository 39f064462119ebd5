import math

import numpy as np
import pytest

from cvactivation.fock import DensityMatrix, FockCutoff, OperatorMatrix, displacement_op, parity_op


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_density(rng, dim, cutoff=None, rank=None):
    """Ginibre-random density matrix supported on the first ``dim`` levels."""
    cutoff = dim if cutoff is None else cutoff
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    m /= np.real(np.trace(m))
    full = np.zeros((cutoff, cutoff), dtype=complex)
    full[:dim, :dim] = m
    return DensityMatrix(full, FockCutoff(cutoff))


def displaced_parity_matrix(alpha: complex, cutoff) -> OperatorMatrix:
    """Oracle: D(alpha) Pi D(alpha)^dag; unitary conjugation keeps the spectrum +-1."""
    d = displacement_op(alpha, cutoff).matrix
    mat = d @ parity_op(cutoff).matrix @ d.conj().T
    return OperatorMatrix((mat + mat.conj().T) / 2.0, hermitian=True, norm_bound=1.0)


def wigner_at(rho: DensityMatrix, alpha: complex) -> float:
    """Oracle: (2/pi) Tr[Pi(alpha) rho] through the displaced parity operator."""
    val = rho.expectation(displaced_parity_matrix(alpha, rho.cutoff))
    assert abs(val.imag) <= 1e-10, f"Wigner value has imaginary part {val.imag:.3e}"
    return (2.0 / math.pi) * val.real
