import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvactivation.fock import DensityMatrix, OperatorMatrix, parity_op
from cvactivation.states import GaussianPureParams, cat, coherent, fock, gaussian_pure
from cvactivation.channels import pure_loss
from cvactivation import witnesses
from cvactivation.activation import (
    Classification,
    WernerState,
    activate,
    classify,
    geometric_discord,
    negativity_two_qubit,
    werner_analytics,
)
from cvactivation.monotones import FamilySearchConfig, lower_bound
from cvactivation.wigner import DepthSearchConfig, negativity_depth
from cvactivation.witnesses import (
    DisplacedParity,
    ExplicitWitness,
    FreeSet,
    Projector,
    WitnessBox,
    WitnessSpec,
)

from conftest import discord_certificate, povm_from_witness, projective_discord, random_density


def random_unit_box_witness(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2.0
    h = h / np.abs(np.linalg.eigvalsh(h)).max() * rng.uniform(0.2, 1.0)
    return WitnessSpec(
        ExplicitWitness(OperatorMatrix(h, hermitian=True), FreeSet.WIGNER_POSITIVE, "randomized-test")
    )


def test_povm_examples():
    zero = OperatorMatrix(np.zeros((6, 6)), hermitian=True)
    m_plus, m_minus = povm_from_witness(zero)
    assert np.allclose(m_plus.matrix, np.eye(6) / 2.0)
    m_plus, m_minus = povm_from_witness(parity_op(6))
    assert np.allclose(np.diag(m_minus.matrix), [0, 1, 0, 1, 0, 1])
    assert np.allclose(m_plus.matrix + m_minus.matrix, np.eye(6))
    ident = OperatorMatrix(np.eye(6), hermitian=True)
    _, m_minus = povm_from_witness(ident)
    assert np.allclose(m_minus.matrix, 0.0)
    oversized = OperatorMatrix(1.5 * np.eye(4), hermitian=True)
    with pytest.raises(ValueError):
        povm_from_witness(oversized)


def test_activation_examples():
    pi_spec = WitnessSpec(DisplacedParity(0.0))
    one = fock(1, 20).to_density()
    out, _ = activate(one, pi_spec)
    assert out.entanglement == pytest.approx(0.5)
    assert out.werner.q == pytest.approx(1.0)
    assert out.classification is Classification.BELL_NONLOCAL
    vac = fock(0, 20).to_density()
    out, _ = activate(vac, pi_spec)
    assert out.entanglement == 0.0
    assert out.classification is Classification.SEPARABLE
    rho = pure_loss(0.9, 20).apply(one)
    out, _ = activate(rho, pi_spec)
    assert out.entanglement == pytest.approx(0.4, abs=1e-12)


def test_steering_examples():
    pi_spec = WitnessSpec(DisplacedParity(0.0))
    one = fock(1, 20).to_density()
    _, out = activate(one, pi_spec)
    assert out.steering == pytest.approx(1.0)
    assert out.werner.q == pytest.approx(1.0)
    assert out.classification is Classification.BELL_NONLOCAL
    rho = pure_loss(0.75, 20).apply(one)
    _, out = activate(rho, pi_spec)
    assert out.steering == pytest.approx(0.5, abs=1e-12)
    assert out.werner.q == pytest.approx(0.75, abs=1e-12)
    # q = 0.75 sits above 1/sqrt(2), in the CHSH-violating band
    assert out.classification is Classification.BELL_NONLOCAL
    assert activate(fock(0, 20).to_density(), pi_spec)[1].steering == 0.0


def test_activation_builds_witness_once(monkeypatch):
    calls = []
    original = witnesses.wigner_batch

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    # witness_value evaluates a parity witness through the witnesses module,
    # and one valuation serves both channels
    monkeypatch.setattr(witnesses, "wigner_batch", counting)
    rho = pure_loss(0.7, 20).apply(fock(1, 20).to_density())
    spec = WitnessSpec(DisplacedParity(0.3 - 0.1j))
    activate(rho, spec)
    assert len(calls) == 1


def _two_copy_case(cutoff, box=WitnessBox()):
    psi = cat(1.5, 1, cutoff)
    rho = pure_loss(0.9, cutoff).apply(psi.to_density())
    return rho, WitnessSpec(Projector(psi, 0.5, 2), box)


def test_two_copy_box_checked_past_old_budget():
    # cutoff 80 is a 6400-dim two-copy space; a box below 1 scales the
    # witness by min(n, m) = 0.3, checked from its closed-form spectrum
    rho, spec = _two_copy_case(80, WitnessBox(0.3, 1.0))
    start = time.perf_counter()
    ent, steer = activate(rho, spec)
    assert time.perf_counter() - start < 1.0
    psi = spec.family.psi.amplitudes
    overlap = float(np.real(np.vdot(psi, rho.matrix @ psi)))
    assert spec.scale == 0.3
    assert steer.steering == pytest.approx(0.3 * max(0.0, overlap**2 - 0.25), abs=1e-12)
    assert steer.steering > 0.0
    assert ent.entanglement == pytest.approx(steer.steering / 2.0, abs=1e-12)
    assert steer.witness.describe()["box"] == [0.3, 1.0]


def test_two_copy_activation_builds_no_product_space():
    # a 4096 x 4096 two-copy matrix would take seconds to build and diagonalise
    rho, spec = _two_copy_case(64)
    start = time.perf_counter()
    ent, steer = activate(rho, spec)
    assert time.perf_counter() - start < 0.1
    overlap = float(np.real(np.vdot(spec.family.psi.amplitudes, rho.matrix @ spec.family.psi.amplitudes)))
    assert steer.steering == pytest.approx(max(0.0, overlap**2 - 0.25), abs=1e-9)
    assert ent.entanglement == pytest.approx(steer.steering / 2.0, abs=1e-9)


def test_activation_exactness_random_pairs(rng):
    worst_e = worst_s = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 11))
        rho = random_density(rng, d, cutoff=12)
        spec = random_unit_box_witness(rng, 12)
        value = -float(np.real(np.trace(spec.family.operator.matrix @ rho.matrix)))
        ent, steer = activate(rho, spec)
        worst_e = max(worst_e, abs(ent.entanglement - max(0.0, value) / 2.0))
        worst_s = max(worst_s, abs(steer.steering - max(0.0, value)))
        pt = negativity_two_qubit(ent.werner.to_matrix())
        assert abs(pt - ent.entanglement) < 1e-10
    assert worst_e < 1e-9
    assert worst_s < 1e-9


def test_free_inputs_stay_separable_and_unsteerable(rng):
    specs = [WitnessSpec(DisplacedParity(0.0)), WitnessSpec(DisplacedParity(0.7 - 0.4j))]
    frees = [
        fock(0, 40).to_density(),
        coherent(0.9, 40).to_density(),
        gaussian_pure(GaussianPureParams(0.4, 0.5, 1.0), 40).to_density(),
    ]
    mix = DensityMatrix(
        0.5 * frees[0].matrix + 0.5 * frees[1].matrix
    )
    for rho in frees + [mix]:
        for spec in specs:
            ent, steer = activate(rho, spec)
            assert ent.classification is Classification.SEPARABLE
            assert ent.entanglement == 0.0
            assert steer.steering == 0.0


def test_supremum_matches_negativity_depth():
    rho = pure_loss(0.8, 25).apply(fock(1, 25).to_density())
    depth = negativity_depth(rho, DepthSearchConfig(resolution=30))
    bound = lower_bound(
        rho,
        FreeSet.WIGNER_POSITIVE,
        cfg=FamilySearchConfig(depth=DepthSearchConfig(resolution=30)),
    )
    out, steer = activate(rho, bound.witness)
    assert out.entanglement == pytest.approx((math.pi / 4.0) * depth.depth, abs=1e-5)
    assert steer.steering == pytest.approx((math.pi / 2.0) * depth.depth, abs=1e-5)


def test_werner_analytics_values():
    out = werner_analytics(1.0)
    assert out.entanglement == pytest.approx(0.5)
    assert out.steering == pytest.approx(1.0)
    assert out.discord == pytest.approx(0.5)
    assert out.chsh == pytest.approx(2.0 * math.sqrt(2.0) - 2.0)
    boundary = werner_analytics(1.0 / 3.0)
    assert boundary.entanglement == 0.0
    assert boundary.discord == pytest.approx(1.0 / 18.0)
    assert not discord_certificate(boundary)
    assert werner_analytics(0.6).classification is Classification.STEERABLE_CHSH_LOCAL
    with pytest.raises(ValueError):
        werner_analytics(1.2)


def test_discord_certificate_threshold():
    assert discord_certificate(werner_analytics(1.0))
    assert not discord_certificate(werner_analytics(0.0))
    just_above = werner_analytics(1.0 / 3.0 + 1e-6, validate=False)
    assert discord_certificate(just_above)


def test_classification_boundaries_exact():
    assert classify(1.0 / 3.0) is Classification.SEPARABLE
    assert classify(np.nextafter(1.0 / 3.0, 1.0)) is Classification.ENTANGLED_UNSTEERABLE
    assert classify(0.5) is Classification.ENTANGLED_UNSTEERABLE
    assert classify(np.nextafter(0.5, 1.0)) is Classification.STEERABLE_CHSH_LOCAL
    assert classify(1.0 / math.sqrt(2.0)) is Classification.STEERABLE_CHSH_LOCAL
    assert classify(np.nextafter(1.0 / math.sqrt(2.0), 1.0)) is Classification.BELL_NONLOCAL
    assert classify(-1.0 / 3.0) is Classification.SEPARABLE


@settings(max_examples=40, deadline=None)
@given(q=st.floats(-1.0 / 3.0, 1.0))
def test_werner_closed_forms_match_matrix(q):
    out = werner_analytics(q, validate=False)
    mat = out.werner.to_matrix()
    assert negativity_two_qubit(mat) == pytest.approx(out.entanglement, abs=1e-10)
    assert np.real(np.trace(mat)) == pytest.approx(1.0, abs=1e-12)
    vals = np.linalg.eigvalsh(mat)
    assert vals[0] > -1e-12


def test_discord_brute_force_matches_closed_form():
    for q in (0.2, 0.5, 0.9):
        mat = WernerState(q).to_matrix()
        assert projective_discord(mat) == pytest.approx(q * q / 2.0, abs=1e-6)


def test_geometric_discord_closed_form_matches_brute_force(rng):
    for _ in range(30):
        mat = random_density(rng, 4).matrix
        assert geometric_discord(mat) == pytest.approx(projective_discord(mat), abs=1e-9)
    for q in (0.2, 0.5, 0.9):
        mat = WernerState(q).to_matrix()
        assert geometric_discord(mat) == pytest.approx(q * q / 2.0, abs=1e-12)
