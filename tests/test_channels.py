import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import roots_hermite

from cvactivation.fock import (
    DensityMatrix,
    PureState,
    _quadrature_eigensystem,
    annihilation_matrix,
    momentum_op,
    parity_op,
    position_op,
    pure_fidelity,
    trace_norm,
)
from cvactivation import channels
from cvactivation.channels import (
    KrausChannel,
    LossChannel,
    damping,
    gaussian_noise,
    gkp_ec_round,
    nearest_lattice_shift,
    phase_rotation,
    apply_unitary,
    pure_loss,
)
from cvactivation.states import GkpParams, cat, coherent, fock, gkp_damped
from cvactivation.wigner import wigner_grid

from conftest import gauss_hermite, kraus_loss, kraus_noise, random_density, wigner_at


def trace_distance(a, b):
    return 0.5 * trace_norm(a.matrix - b.matrix)


def test_loss_params_validated():
    for bad in (1.2, -0.1, math.nan):
        with pytest.raises(ValueError, match=rf"transmissivity must lie in \[0, 1\], got {bad}$"):
            pure_loss(bad, 5)


@pytest.mark.parametrize("bad", [0.0, -0.5, math.inf, math.nan])
def test_noise_sigma2_validated(bad):
    with pytest.raises(ValueError, match=f"sigma2 must be finite and positive, got {bad}$"):
        gaussian_noise(bad, 5)


def test_loss_single_photon():
    rho = pure_loss(0.3, 15).apply(fock(1, 15).to_density())
    assert np.real(rho.matrix[0, 0]) == pytest.approx(0.7, abs=1e-12)
    assert np.real(rho.matrix[1, 1]) == pytest.approx(0.3, abs=1e-12)


def test_loss_large_cutoff():
    # k! exceeds the float range from k = 171 on
    rho = pure_loss(0.9, 180).apply(fock(1, 180).to_density())
    expected = np.zeros((180, 180))
    expected[1, 1], expected[0, 0] = 0.9, 0.1
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12


@pytest.mark.parametrize("eta", [0.05, 0.3])
def test_loss_trace_preserving_where_the_factor_underflows(eta):
    # (1 - eta)^k / k! leaves the float range before k = 199; the channel
    # would fail its own trace-preservation check without those elements
    rho = pure_loss(eta, 200).apply(fock(1, 200).to_density())
    expected = np.zeros((200, 200))
    expected[1, 1], expected[0, 0] = eta, 1.0 - eta
    assert np.max(np.abs(rho.matrix - expected)) < 1e-12


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9])
def test_loss_band_elements_match_the_running_product(eta):
    # the log-space bands, taken from k = 0, against the running-product table
    log_bands = channels._loss_log_bands(eta, 30, 0)
    table = pure_loss(eta, 30).bands
    assert log_bands.shape == table.shape
    assert np.allclose(log_bands, table, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("eta", [0.0, 0.1, 0.3, 0.5, 0.6, 0.9, 1.0])
def test_loss_map_bit_identical_to_kraus_oracle_on_fock(n, eta):
    rho = fock(n, 25).to_density()
    got = pure_loss(eta, 25).apply(rho)
    want = kraus_loss(eta, 25).apply(rho)
    assert np.array_equal(got.matrix, want.matrix)
    assert got.leakage == want.leakage


@pytest.mark.parametrize("dim", [10, 25, 80])
def test_loss_map_matches_kraus_oracle_on_dense_states(rng, dim):
    for eta in (0.1, 0.5, 0.85):
        for support in (dim, dim // 2):
            rho = random_density(rng, support, cutoff=dim)
            got = pure_loss(eta, dim).apply(rho)
            want = kraus_loss(eta, dim).apply(rho)
            assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-14
            assert abs(got.leakage - want.leakage) <= 1e-14


def test_loss_channel_trace_preservation_checked():
    bands = pure_loss(0.5, 4).bands.copy()
    bands[1] = 0.0  # drop the one-photon loss band
    with pytest.raises(ValueError):
        LossChannel(0.5, bands)


def test_loss_at_cutoff_200_stays_small():
    # the band table is one (d, d) array; dense Kraus elements took d of them
    rho = fock(1, 200).to_density()
    pure_loss(0.6, 200)  # a warm-up build: one-time first-call costs stay out of the peak
    tracemalloc.start()
    try:
        out = pure_loss(0.6, 200).apply(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.real(out.matrix[1, 1]) == pytest.approx(0.6, abs=1e-12)


def test_loss_identity_at_unit_transmissivity():
    rho = coherent(1.0, 20).to_density()
    out = pure_loss(1.0, 20).apply(rho)
    assert trace_distance(rho, out) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("eta", [0.2, 0.5, 0.8])
def test_loss_parity_binomial(n, eta):
    rho = pure_loss(eta, 25).apply(fock(n, 25).to_density())
    val = float(np.real(rho.expectation(parity_op(25))))
    assert val == pytest.approx((1.0 - 2.0 * eta) ** n, abs=1e-7)


def test_loss_semigroup(rng):
    rho = random_density(rng, 10)
    one = pure_loss(0.8, 10).apply(pure_loss(0.7, 10).apply(rho))
    two = pure_loss(0.56, 10).apply(rho)
    assert trace_distance(one, two) < 1e-7


@pytest.mark.parametrize("order", range(1, 31))
def test_gaussian_noise_nodes_match_roots_hermite(order):
    # the nodes of the quadrature oracle kraus_noise, up to order 30
    nodes, weights = gauss_hermite(order)
    want_nodes, want_weights = roots_hermite(order)
    assert np.max(np.abs(nodes - want_nodes)) <= 1e-13
    assert np.max(np.abs(weights / weights.sum() - want_weights / want_weights.sum())) <= 1e-14


def test_gaussian_noise_identity_limit():
    ch = gaussian_noise(1e-12, 15)
    rho = fock(1, 15).to_density()
    assert trace_distance(ch.apply(rho), rho) < 1e-6


def test_gaussian_noise_heats_vacuum():
    ch = gaussian_noise(0.05, 40)
    out = ch.apply(fock(0, 40).to_density())
    assert out.mean_photon_number() == pytest.approx(0.05, abs=2e-3)


def test_gaussian_noise_composition_law():
    a = gaussian_noise(0.07, 30)
    b = gaussian_noise(0.05, 30)
    c = gaussian_noise(0.12, 30)
    for rho in (fock(1, 30).to_density(), coherent(0.7, 30).to_density()):
        assert trace_distance(a.apply(b.apply(rho)), c.apply(rho)) < 1e-4


def test_gaussian_noise_preserves_wigner_positivity():
    ch = gaussian_noise(0.08, 40)
    out = ch.apply(fock(0, 40).to_density())
    grid = wigner_grid(out, radius=3.0, resolution=40, validate_marginal=False)
    assert grid.min_value() >= -1e-6


@pytest.mark.parametrize("sigma2", [0.05, 0.3, 2.0])
def test_gaussian_noise_maps_vacuum_to_bose_einstein(sigma2):
    # loss leaves the vacuum alone; the amplifier of gain 1 + sigma2 heats it
    # to the thermal state of mean sigma2
    dim = 40
    out = gaussian_noise(sigma2, dim).apply(fock(0, dim).to_density())
    k = np.arange(dim)
    bose_einstein = sigma2**k / (1.0 + sigma2) ** (k + 1)
    kept = bose_einstein.sum()
    assert np.max(np.abs(out.matrix - np.diag(bose_einstein / kept))) <= 1e-12
    assert out.leakage == pytest.approx(1.0 - kept, abs=1e-12)


@pytest.mark.parametrize("sigma2", [0.05, 0.1])
def test_gaussian_noise_leakage_is_the_weight_raised_above_the_cutoff(rng, sigma2):
    # the same map at twice the cutoff, on the zero-padded input, puts the
    # reported leakage on the levels at and above the cutoff (at these
    # sigma2 it raises below 1e-14 of the weight past twice the cutoff)
    dim = 20
    rho = random_density(rng, 16, cutoff=dim)
    out = gaussian_noise(sigma2, dim).apply(rho)
    padded = np.zeros((2 * dim, 2 * dim), dtype=complex)
    padded[:dim, :dim] = rho.matrix
    wide = gaussian_noise(sigma2, 2 * dim).apply(
        DensityMatrix(padded)
    )
    above = float(np.real(np.trace(wide.matrix[dim:, dim:])))
    assert out.leakage > 1e-6
    assert out.leakage == pytest.approx(above, abs=1e-12)


@pytest.mark.parametrize("make", [lambda d: fock(1, d), lambda d: coherent(0.7, d)])
def test_gaussian_noise_matches_the_quadrature_oracle(make):
    rho = make(40).to_density()
    got = gaussian_noise(0.05, 40).apply(rho)
    want = kraus_noise(0.05, 40, 30).apply(rho)
    assert trace_distance(got, want) < 1e-10


@pytest.mark.parametrize("db", [6.0, 10.0])
def test_gaussian_noise_closer_to_the_untruncated_channel_than_the_quadrature(db):
    # reference: the codeword and the exact map at cutoff 120, cut to 30;
    # the quadrature route folds what leaves the cutoff back into the state
    sigma2 = (1.0 - 0.9) / 0.9
    code = gkp_damped(GkpParams.from_db(db), 30, tail_tol=1.0).to_density()
    wide = gaussian_noise(sigma2, 120).apply(
        gkp_damped(GkpParams.from_db(db), 120, tail_tol=1.0).to_density()
    )
    ref = wide.matrix[:30, :30] / np.real(np.trace(wide.matrix[:30, :30]))
    exact = trace_norm(gaussian_noise(sigma2, 30).apply(code).matrix - ref)
    quadrature = trace_norm(kraus_noise(sigma2, 30, 15).apply(code).matrix - ref)
    assert exact < 0.2 * quadrature


def test_damping_examples():
    dm = damping(0.0, 10)
    rho = coherent(0.8, 10).to_density()
    assert trace_distance(dm.apply(rho), rho) < 1e-12
    one = fock(1, 10).to_density()
    assert np.allclose(damping(0.7, 10).apply(one).matrix, one.matrix)
    psi = PureState(np.array([1, 0, 1, 0, 0], dtype=complex) / math.sqrt(2))
    out = damping(0.5, 5).apply(psi.to_density())
    # N = exp(-n/2) scales the coherence between |0> and |2> by e^-1 against |0><0|
    assert abs(out.matrix[2, 0] / out.matrix[0, 0]) == pytest.approx(
        math.exp(-1.0), abs=1e-12
    )


def test_kraus_channel_trace_preservation_checked():
    from cvactivation.fock import OperatorMatrix

    half = OperatorMatrix(0.5 * np.eye(4), hermitian=True)
    with pytest.raises(ValueError):
        KrausChannel((half,), label="broken")


def test_sum_gate_unitary_and_correlations():
    gate = sum_gate(15)
    dim2 = 15 * 15
    assert np.max(np.abs(gate @ gate.conj().T - np.eye(dim2))) < 1e-6
    vac2 = np.zeros(dim2)
    vac2[0] = 1.0
    state = gate @ np.outer(vac2, vac2) @ gate.conj().T
    q = position_op(15).matrix
    corr = np.real(np.trace(np.kron(q, q) @ state))
    assert corr == pytest.approx(0.5, abs=1e-5)


def test_sum_gate_commutes_with_its_own_flow():
    gate = sum_gate(10)
    q = position_op(10).matrix
    p = momentum_op(10).matrix
    partial = expm(-0.5j * np.kron(q, p))  # same generator, half strength
    assert np.max(np.abs(gate - expm(-1j * np.kron(q, p)))) < 1e-12
    assert np.max(np.abs(gate @ partial - partial @ gate)) < 1e-10


def test_nearest_lattice_shift_ties_toward_zero():
    s = math.sqrt(math.pi)
    assert nearest_lattice_shift(0.3, s) == pytest.approx(0.3)
    assert nearest_lattice_shift(s + 0.2, s) == pytest.approx(0.2)
    assert nearest_lattice_shift(-s - 0.2, s) == pytest.approx(-0.2)
    # exact tie at 1.5 spacings resolves toward the lattice point closer to zero
    assert nearest_lattice_shift(1.5 * s, s) == pytest.approx(0.5 * s)
    assert nearest_lattice_shift(-1.5 * s, s) == pytest.approx(-0.5 * s)


def _scalar_lattice_shift(value, spacing):
    """The scalar rule, one value at a time: the oracle of the array form."""
    ratio = value / spacing
    nearest = np.round(ratio)
    if abs(abs(ratio - np.trunc(ratio)) - 0.5) < 1e-12:
        nearest = np.trunc(ratio)
    return float(value - nearest * spacing)


def test_nearest_lattice_shift_array_form_matches_the_scalar_rule_bit_for_bit():
    s = math.sqrt(math.pi)
    j = np.arange(6.0)
    cases = [
        np.random.default_rng(39).uniform(-12.0, 12.0, 100_000),
        np.concatenate([(j + 0.5) * s, -(j + 0.5) * s, [0.0, -0.0]]),
    ]
    cases += [_quadrature_eigensystem(d)[0][0] for d in (10, 30, 100, 200)]
    for values in cases:
        shifts = nearest_lattice_shift(values, s)
        expected = np.array([_scalar_lattice_shift(v, s) for v in values])
        # bytes, so that the sign of a zero counts too
        assert shifts.tobytes() == expected.tobytes()
        assert isinstance(nearest_lattice_shift(values[0], s), float)


def test_phase_rotation_free_unitary():
    rot = phase_rotation(0.9, 20)
    rho = cat(1.2, -1, 20).to_density()
    out = apply_unitary(rot, rho)
    assert np.real(np.trace(out.matrix)) == pytest.approx(1.0, abs=1e-12)
    assert out.expectation(parity_op(20)).real == pytest.approx(-1.0, abs=1e-10)


def test_ec_round_trace_preserving_and_valid():
    params = GkpParams(epsilon=0.3)
    code = gkp_damped(params, 22, tail_tol=1e-4)
    out = gkp_ec_round(code.to_density(), code)
    assert np.real(np.trace(out.matrix)) == pytest.approx(1.0, abs=1e-12)
    vals = np.linalg.eigvalsh(out.matrix)
    assert vals[0] > -1e-9


def test_ec_round_ideal_limit_ordering():
    params = GkpParams(epsilon=0.3)
    code = gkp_damped(params, 22, tail_tol=1e-4)
    anc = gkp_damped(params, 22, tail_tol=1e-4)
    clean = gkp_ec_round(code.to_density(), anc)
    lossy = gkp_ec_round(pure_loss(0.9, 22).apply(code.to_density()), anc)
    assert pure_fidelity(code, clean) > pure_fidelity(code, lossy)


def test_ec_round_rejects_bad_ancilla():
    params = GkpParams(epsilon=0.3)
    code = gkp_damped(params, 22, tail_tol=1e-4)
    with pytest.raises(ValueError):
        gkp_ec_round(code.to_density(), fock(1, 22))


def sum_gate(dim):
    """Two-mode gate exp(-i q_1 (x) p_2), diagonal in the product of the q and p eigenbases."""
    qvals, qvecs = np.linalg.eigh(position_op(dim).matrix)
    pvals, pvecs = np.linalg.eigh(momentum_op(dim).matrix)
    basis = np.kron(qvecs, pvecs)
    return (basis * np.exp(-1j * np.outer(qvals, pvals)).ravel()) @ basis.conj().T


def _dense_steane_round(rho, ancilla, gate, vals, vecs, correct_quadrature):
    """Reference round: kron with the ancilla, dense gate, 4-index readout contraction."""
    dim = rho.shape[0]
    a = annihilation_matrix(dim)
    joint = gate @ np.kron(rho, np.outer(ancilla, ancilla.conj())) @ gate.conj().T
    t = joint.reshape(dim, dim, dim, dim)
    branches = np.einsum("ak,iajb,bk->kij", vecs.conj(), t, vecs, optimize=True)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        branch = branches[k]
        if np.real(np.trace(branch)) <= 1e-14:
            out += branch
            continue
        shift = nearest_lattice_shift(vals[k], math.sqrt(math.pi))
        delta = (1.0 if correct_quadrature == "q" else 1j) * -shift / math.sqrt(2.0)
        corr = expm(delta * a.conj().T - np.conj(delta) * a)
        out += corr @ branch @ corr.conj().T
    return out


def _dense_ec_round(rho, ancilla):
    dim = rho.shape[0]
    q = position_op(dim).matrix
    p = momentum_op(dim).matrix
    anc_plus = np.exp(1j * (np.pi / 2.0) * np.arange(dim)) * ancilla
    out = _dense_steane_round(rho, anc_plus, expm(-1j * np.kron(q, p)), *np.linalg.eigh(q), "q")
    out = _dense_steane_round(out, ancilla, expm(1j * np.kron(p, q)), *np.linalg.eigh(p), "p")
    return out / np.real(np.trace(out))


def test_ec_round_matches_dense_circuit():
    code = gkp_damped(GkpParams(epsilon=0.3), 22, tail_tol=1e-4)
    clean = code.to_density()
    # a 16.5 dB codeword, far from converged at cutoff 22, as its own ancilla
    sharp = gkp_damped(GkpParams.from_db(16.5), 22, tail_tol=1.0)
    for rho, ancilla in (
        (clean, code),
        (pure_loss(0.9, 22).apply(clean), code),
        (gaussian_noise(0.05, 22).apply(clean), code),
        (pure_loss(0.9, 22).apply(sharp.to_density()), sharp),
    ):
        out = gkp_ec_round(rho, ancilla)
        oracle = _dense_ec_round(rho.matrix, ancilla.amplitudes)
        assert np.max(np.abs(out.matrix - oracle)) < 1e-12


def test_ec_round_beyond_old_budget():
    # cutoff 80: a 6400-dim two-mode space, past the default budget of 4096
    code = gkp_damped(GkpParams(epsilon=0.3), 80, tail_tol=1e-4)
    out = gkp_ec_round(pure_loss(0.9, 80).apply(code.to_density()), code)
    assert np.real(np.trace(out.matrix)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out.matrix)[0] > -1e-9


def test_loss_threshold_wigner_minimum():
    one = fock(1, 25).to_density()
    for eta in (0.5, 0.75, 1.0):
        rho = pure_loss(eta, 25).apply(one)
        origin = wigner_at(rho, 0.0)
        assert origin == pytest.approx((2 / math.pi) * (1 - 2 * eta), abs=1e-5)
        grid = wigner_grid(rho, radius=3.0, resolution=40, validate_marginal=False)
        assert grid.min_value() >= origin - 1e-9
