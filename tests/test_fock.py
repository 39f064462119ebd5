import importlib
import math
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammainc

import cvactivation
from cvactivation.errors import TruncationError
from cvactivation.fock import (
    DensityMatrix,
    OperatorMatrix,
    PureState,
    annihilation_matrix,
    coherent_tail_mass,
    parity_op,
    pure_fidelity,
    trace_norm,
)
from cvactivation.states import fock, coherent, thermal
from cvactivation.witnesses import DisplacedParity, WitnessBox

from conftest import displacement_op, random_density


def test_the_package_name_fock_is_the_state_factory():
    # the top-level re-export replaces the submodule attribute; the module
    # stays reachable through the import system
    assert cvactivation.fock is cvactivation.states.fock
    module = importlib.import_module("cvactivation.fock")
    assert isinstance(module, types.ModuleType) and module is sys.modules["cvactivation.fock"]
    assert module.DensityMatrix is DensityMatrix and module is not cvactivation.fock


def test_cutoff_requires_dim_two():
    # a cutoff argument and an array's length are checked alike
    for bad in (1, 1.5):
        with pytest.raises(ValueError, match=f"cutoff dim must be an integer >= 2, got {bad}$"):
            fock(0, bad)
    with pytest.raises(ValueError, match="cutoff dim must be an integer >= 2, got 1$"):
        PureState(np.ones(1))
    with pytest.raises(ValueError, match="cutoff dim must be an integer >= 2, got 1$"):
        DensityMatrix(np.ones((1, 1)))
    with pytest.raises(ValueError, match="must be square"):
        DensityMatrix(np.eye(3)[:2] / 2.0)


def test_dim_is_the_arrays_and_leakage_is_keyword_only():
    psi = PureState(np.array([0.6, 0.8, 0.0]), leakage=1e-9)
    rho = psi.to_density()
    assert (psi.dim, rho.dim, rho.leakage) == (3, 3, 1e-9)
    # a stale positional cutoff fails loudly instead of becoming the leakage
    with pytest.raises(TypeError):
        PureState(psi.amplitudes, 3)
    with pytest.raises(TypeError):
        DensityMatrix(rho.matrix, 3)


def test_ladder_matrix_elements():
    a = annihilation_matrix(3)
    one = np.array([0, 1, 0], dtype=complex)
    two = np.array([0, 0, 1], dtype=complex)
    assert np.allclose(a @ one, [1, 0, 0])
    assert np.allclose(a @ two, [0, math.sqrt(2), 0])
    assert np.allclose(np.diag(a.conj().T @ a), [0, 1, 2])


def test_commutator_identity_on_leading_block():
    a = annihilation_matrix(20)
    adag = a.conj().T
    comm = a @ adag - adag @ a
    assert np.allclose(comm[:19, :19], np.eye(19))


def test_parity_diagonal_and_involution():
    pi = parity_op(4)
    assert np.allclose(np.diag(pi.matrix), [1, -1, 1, -1])
    assert np.allclose(pi.matrix @ pi.matrix, np.eye(4))
    assert pure_fidelity(fock(1, 4), fock(1, 4).to_density()) == pytest.approx(1.0)
    assert fock(1, 4).expectation(pi).real == pytest.approx(-1.0)


def test_parity_thermal_expectation():
    rho = thermal(1.0, 40)
    val = rho.expectation(parity_op(40)).real
    assert val == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_parity_conjugates_annihilation():
    a = annihilation_matrix(12)
    pi = parity_op(12).matrix
    assert np.array_equal(pi @ a @ pi, -a)


def test_displacement_identity_at_zero():
    d = displacement_op(0.0, 10)
    assert np.allclose(d.matrix, np.eye(10))


def test_displacement_vacuum_overlap():
    d = displacement_op(1.0, 30)
    assert d.matrix[0, 0].real == pytest.approx(math.exp(-0.5), abs=1e-8)


def test_displacement_inverse():
    alpha = 0.7 + 0.3j
    d = displacement_op(alpha, 40)
    dinv = displacement_op(-alpha, 40)
    assert np.max(np.abs(d.matrix @ dinv.matrix - np.eye(40))) < 1e-8


def test_displacement_composition_phase():
    # D(a) D(b) = exp(i Im(a b*)) D(a+b) on states away from the cutoff;
    # the last few rows of the truncated matrices carry path-cut artifacts
    alpha, beta = 0.8 - 0.2j, -0.3 + 0.9j
    da = displacement_op(alpha, 40).matrix
    db = displacement_op(beta, 40).matrix
    dsum = displacement_op(alpha + beta, 40).matrix
    phase = np.exp(1j * (alpha * np.conj(beta)).imag)
    for n in range(16):
        basis = np.zeros(40, dtype=complex)
        basis[n] = 1.0
        lhs = da @ (db @ basis)
        rhs = phase * (dsum @ basis)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_coherent_tail_mass_matches_the_regularized_gamma_oracle():
    # P(N >= d) for N ~ Poisson(|alpha|^2) is scipy's gammainc(d, |alpha|^2);
    # tails below the normal float range need only be as small
    tiny = np.finfo(float).tiny
    for dim in range(1, 201):
        x = np.concatenate([np.linspace(0.0, 60.0, 61), [dim - 0.5, dim + 0.5]])
        want = gammainc(dim, x)
        got = np.array([coherent_tail_mass(math.sqrt(v), dim) for v in x])
        normal = want >= tiny
        assert np.all(np.abs(got[normal] - want[normal]) <= 1e-12 * want[normal]), dim
        assert np.all(np.abs(got[~normal]) <= tiny), dim


def test_coherent_tail_mass_types_and_edges():
    assert type(coherent_tail_mass(1.5, 10)) is float
    assert coherent_tail_mass(0.0, 10) == 0.0
    assert math.isnan(coherent_tail_mass(complex(math.nan, 0.0), 10))
    with np.errstate(over="ignore"):  # |alpha|^2 overflows to inf
        assert coherent_tail_mass(1e200, 10) == 1.0


def test_displacement_guard_raises():
    with pytest.raises(TruncationError):
        displacement_op(3.0, 8)


@pytest.mark.parametrize("dim", [10, 40])
def test_displacement_matches_dense_exponential(dim):
    # the spectral form is the exact exponential of the truncated generator
    a = annihilation_matrix(dim)
    for alpha in (0.5, -0.7j, 1 + 0.5j, 1.2 * np.exp(2.1j)):
        oracle = expm(alpha * a.conj().T - np.conj(alpha) * a)
        d = displacement_op(alpha, dim, tail_tol=1.0).matrix
        assert np.max(np.abs(d - oracle)) < 1e-12
    assert np.array_equal(displacement_op(0, dim).matrix, np.eye(dim))


def test_density_matrix_invariants_enforced():
    bad = np.diag([0.6, 0.6]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(bad)
    asym = np.array([[0.5, 0.1], [0.4, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(asym)
    neg = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(neg)


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: PureState(np.full(2, bad)),
        lambda bad: DensityMatrix(np.full((2, 2), bad)),
        lambda bad: OperatorMatrix(np.full((2, 2), bad), hermitian=False),
        lambda bad: WitnessBox(bad, 1.0),
        lambda bad: WitnessBox(1.0, bad),
        lambda bad: DisplacedParity(complex(bad, 0.0)),
        lambda bad: DisplacedParity(complex(0.0, bad)),
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constructors_reject_non_finite(build, bad):
    with pytest.raises(ValueError):
        build(bad)


def test_pure_state_norm_enforced():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_operator_hermitian_flag_checked():
    with pytest.raises(ValueError):
        OperatorMatrix(np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)


def test_mixed_cutoff_rejected():
    with pytest.raises(ValueError):
        pure_fidelity(fock(0, 4), fock(0, 5).to_density())


def test_fidelity_examples():
    vac = fock(0, 30)
    one = fock(1, 30).to_density()
    alpha = coherent(1.0, 30).to_density()
    assert pure_fidelity(vac, vac.to_density()) == pytest.approx(1.0, abs=1e-12)
    assert pure_fidelity(vac, one) == pytest.approx(0.0, abs=1e-12)
    assert pure_fidelity(vac, alpha) == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_trace_norm_examples():
    assert trace_norm(OperatorMatrix(np.eye(7), hermitian=True)) == pytest.approx(7.0)
    vac = fock(0, 5).to_density()
    one = fock(1, 5).to_density()
    assert trace_norm(vac.matrix - vac.matrix) == 0.0
    assert trace_norm(vac.matrix - one.matrix) == pytest.approx(2.0, abs=1e-12)


def test_two_copy_trace_norm_bound(rng):
    for _ in range(5):
        a = random_density(rng, 5)
        b = random_density(rng, 5)
        lhs = trace_norm(np.kron(a.matrix, a.matrix) - np.kron(b.matrix, b.matrix))
        rhs = 2.0 * trace_norm(a.matrix - b.matrix)
        assert lhs <= rhs + 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fuchs_van_de_graaff(seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi = PureState(vec / np.linalg.norm(vec))
    b = random_density(rng, 5)
    f = pure_fidelity(psi, b)
    half_dist = 0.5 * trace_norm(psi.to_density().matrix - b.matrix)
    assert 1.0 - math.sqrt(f) <= half_dist + 1e-9
    assert half_dist <= math.sqrt(1.0 - f) + 1e-9
