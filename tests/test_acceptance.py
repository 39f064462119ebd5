"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cvactivation.activation import (
    Classification,
    activate_entanglement,
    activate_steering,
    classify,
    negativity_two_qubit,
    werner_analytics,
)
from cvactivation.channels import (
    gaussian_noise,
    gkp_ec_round,
    pure_loss,
)
from cvactivation.fock import (
    DensityMatrix,
    OperatorMatrix,
    parity_op,
    pure_fidelity,
    trace_norm,
)
from cvactivation.monotones import (
    FamilySearchConfig,
    exact_boundary_mixture,
    hierarchy_check,
    lower_bound,
    property_suite,
    pure_state_bounds,
)
from cvactivation.states import (
    GkpParams,
    cat,
    coherent,
    fock,
    gkp_comb,
    gkp_damped,
    photon_subtracted_squeezed,
)
from cvactivation.wigner import (
    DepthSearchConfig,
    comb_evaluators,
    negativity_depth,
    negativity_depth_fn,
)
from cvactivation.witnesses import (
    DisplacedParity,
    ExplicitWitness,
    FreeSet,
    WitnessSpec,
    gaussian_fidelity,
)

from conftest import projective_discord, random_density, wigner_at
from corpora import ACCEPTANCE_SEARCH, hierarchy_corpus, property_corpus, pure_bounds_corpus
from test_witnesses import FOCK1_GAUSSIAN_FIDELITY


@contextmanager
def criterion(tag: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {tag}: PASS ({time.monotonic() - start:.1f}s)")


ETA_GRID = [round(0.1 * k, 1) for k in range(11)]
FAST = ACCEPTANCE_SEARCH


def test_01_loss_threshold_curve():
    with criterion("01 loss-threshold-curve"):
        start = time.monotonic()
        cutoff = 25
        one = fock(1, cutoff).to_density()
        for eta in ETA_GRID:
            rho = pure_loss(eta, cutoff).apply(one)
            expected = max(0.0, 2.0 * eta - 1.0)
            bound = lower_bound(rho, FreeSet.WIGNER_POSITIVE, cfg=FAST)
            assert abs(bound.lower - expected) < 1e-6, (eta, bound.lower)
            ent = activate_entanglement(rho, bound.witness)
            steer = activate_steering(rho, bound.witness)
            assert abs(ent.entanglement - expected / 2.0) < 1e-6
            assert abs(steer.steering - expected) < 1e-6
        assert time.monotonic() - start < 10.0


def test_02_wigner_minima():
    with criterion("02 wigner-minima"):
        cutoff = 25
        one = fock(1, cutoff).to_density()
        for eta in ETA_GRID:
            rho = pure_loss(eta, cutoff).apply(one)
            origin_value = wigner_at(rho, 0.0)
            assert abs(origin_value - (2.0 / math.pi) * (1.0 - 2.0 * eta)) < 1e-5
            if eta >= 0.5:
                # in the negative regime the origin is the global minimum
                res = negativity_depth(rho, DepthSearchConfig(resolution=30))
                assert abs(res.depth - max(0.0, -origin_value)) < 1e-5
                if res.depth > 0:
                    assert abs(res.argmin_alpha) < 1e-3


def test_03_fock_n_parity_bound():
    with criterion("03 fock-n-parity"):
        cutoff = 25
        pi = parity_op(cutoff)
        for n in (1, 2, 3, 4):
            for eta in (0.2, 0.5, 0.8):
                rho = pure_loss(eta, cutoff).apply(fock(n, cutoff).to_density())
                val = float(np.real(rho.expectation(pi)))
                assert abs(val - (1.0 - 2.0 * eta) ** n) < 1e-7


def test_04_odd_parity_maximality():
    with criterion("04 odd-parity-maximality"):
        cutoff = 30
        pi_spec = WitnessSpec(DisplacedParity(0.0))
        states = [
            fock(1, cutoff),
            cat(1.0, -1, cutoff),
            cat(2.0, -1, cutoff),
            photon_subtracted_squeezed(0.5, cutoff),
        ]
        for psi in states:
            rho = psi.to_density()
            wn, gng, sng = hierarchy_check(rho, cfg=FAST)
            for bound in (wn, gng, sng):
                assert bound.exact
                assert bound.lower == 1.0 and bound.upper == 1.0
            assert activate_entanglement(rho, pi_spec).entanglement == pytest.approx(
                0.5, abs=1e-12
            )
            assert activate_steering(rho, pi_spec).steering == pytest.approx(
                1.0, abs=1e-12
            )


def test_05_activation_exactness():
    with criterion("05 activation-exactness"):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            d = int(rng.integers(2, 11))
            rho = random_density(rng, d, cutoff=10)
            h = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
            h = (h + h.conj().T) / 2.0
            h = h / np.abs(np.linalg.eigvalsh(h)).max() * rng.uniform(0.1, 1.0)
            spec = WitnessSpec(
                ExplicitWitness(
                    OperatorMatrix(h, hermitian=True),
                    FreeSet.WIGNER_POSITIVE,
                    "randomized-acceptance",
                )
            )
            value = -float(np.real(np.trace(h @ rho.matrix)))
            ent = activate_entanglement(rho, spec)
            steer = activate_steering(rho, spec)
            assert abs(ent.entanglement - max(0.0, value) / 2.0) < 1e-9
            assert abs(steer.steering - max(0.0, value)) < 1e-9
            assert (
                abs(negativity_two_qubit(ent.werner.to_matrix()) - ent.entanglement)
                < 1e-10
            )


def test_06_werner_analytics():
    with criterion("06 werner-analytics"):
        for q in np.linspace(-1.0 / 3.0, 1.0, 50):
            out = werner_analytics(float(q), validate=False)
            mat = out.werner.to_matrix()
            assert abs(negativity_two_qubit(mat) - out.entanglement) < 1e-10
            assert abs(projective_discord(mat) - out.discord) < 1e-4
        assert classify(1.0 / 3.0) is Classification.SEPARABLE
        assert classify(np.nextafter(1 / 3, 1)) is Classification.ENTANGLED_UNSTEERABLE
        assert classify(0.5) is Classification.ENTANGLED_UNSTEERABLE
        assert classify(np.nextafter(0.5, 1)) is Classification.STEERABLE_CHSH_LOCAL
        assert classify(1.0 / math.sqrt(2.0)) is Classification.STEERABLE_CHSH_LOCAL
        assert (
            classify(np.nextafter(1 / math.sqrt(2), 1)) is Classification.BELL_NONLOCAL
        )


def test_07_boundary_mixing_lemma():
    with criterion("07 boundary-mixing"):
        cutoff = 25
        vac = fock(0, cutoff).to_density()
        one = fock(1, cutoff).to_density()
        sigma = DensityMatrix(0.5 * (vac.matrix + one.matrix))
        rows = exact_boundary_mixture(
            sigma, one, DisplacedParity(0), [0.0, 0.25, 0.5, 0.75, 1.0], cfg=FAST
        )
        for row in rows:
            assert row.exact_value == row.t
            assert abs(row.searched_lower - row.t) < 1e-6


def test_08_pure_state_bounds():
    with criterion("08 pure-state-bounds"):
        assert gaussian_fidelity(fock(0, 40)).max_fidelity == pytest.approx(
            1.0, abs=1e-6
        )
        assert gaussian_fidelity(coherent(1.0, 40)).max_fidelity == pytest.approx(
            1.0, abs=1e-6
        )
        res = gaussian_fidelity(fock(1, 40))
        assert res.max_fidelity == pytest.approx(FOCK1_GAUSSIAN_FIDELITY, abs=1e-4)
        for _, psi in pure_bounds_corpus():
            pb = pure_state_bounds(psi)
            assert abs(pb.sng_lower - (1.0 - (1.0 - pb.gng_lower) ** 2)) < 1e-9


def test_09_hierarchy_corpus():
    with criterion("09 hierarchy-corpus"):
        corpus = [rho for _, rho in hierarchy_corpus()]
        assert len(corpus) >= 20
        for rho in corpus:
            wn, gng, sng = hierarchy_check(rho, cfg=FAST)
            assert wn.lower <= gng.lower + 1e-9
            assert gng.lower <= sng.lower + 2e-9


@pytest.fixture(scope="module")
def gkp_sweep_rows():
    """Squeezing sweep at eta = 0.9, two-mode cutoff 30 per mode.

    Rows are (dB, e_in, e_out, infidelity, codeword leakage above the cutoff).
    """
    start = time.monotonic()
    eta = 0.9
    cutoff = 30
    depth_cfg = DepthSearchConfig(radius=2.8, resolution=35)
    loss = pure_loss(eta, cutoff)
    rows = []
    for db in (6.0, 8.0, 10.0, 12.0, 14.0, 16.5):
        params = GkpParams.from_db(db)
        centers, envelope, sigma2 = gkp_comb(params)
        e_in = (math.pi / 4.0) * negativity_depth_fn(
            *comb_evaluators(centers, envelope, sigma2),
            2.8,
            depth_cfg,
        ).depth
        code = gkp_damped(params, cutoff, tail_tol=1.0)
        ancilla = gkp_damped(params, cutoff, tail_tol=1.0)
        state = gkp_ec_round(loss.apply(code.to_density()), ancilla)
        e_out = (math.pi / 4.0) * negativity_depth(state, depth_cfg).depth
        infidelity = 1.0 - pure_fidelity(code, state)
        rows.append((db, e_in, e_out, infidelity, code.leakage))
    elapsed = time.monotonic() - start
    assert elapsed < 20 * 60.0, f"sweep took {elapsed:.0f}s"
    return rows


def test_10a_gkp_input_activation_trend(gkp_sweep_rows):
    with criterion("10a gkp-e-in-trend"):
        e_in = [r[1] for r in gkp_sweep_rows]
        assert all(b >= a - 1e-9 for a, b in zip(e_in, e_in[1:]))
        assert e_in[-1] > 0.45


def test_10b_gkp_output_below_input(gkp_sweep_rows):
    with criterion("10b gkp-e-out-below-e-in"):
        for db, e_in, e_out, _, _ in gkp_sweep_rows:
            assert e_out <= e_in + 1e-9, (db, e_in, e_out)


# exact 1 - <code|EC(loss(code))|code> of the fixture's circuit, per dB
GKP_EC_ORACLE_INFIDELITY = {
    6.0: 0.4050,
    8.0: 0.4431,
    10.0: 0.4583,
    12.0: 0.4587,
    14.0: 0.4577,
    16.5: 0.4580,
}


def test_10c_gkp_infidelity_trend(gkp_sweep_rows):
    # The sweep's infidelity is checked against an exact oracle of the same
    # circuit, not against a falling curve.  With finite-energy ancillas the
    # exact round does not fall with squeezing: at eta = 0.9 it rises from
    # 0.405 at 6 dB to a plateau near 0.458 (GKP_EC_ORACLE_INFIDELITY), and
    # with no loss it still rises (0.398, 0.435, 0.453 at 6, 8, 10 dB).  The
    # floor near 0.4 is the round's own back-action, the envelope of each
    # ancilla kicking the data; it is neither loss damage nor readout
    # resolution.  The oracle uses a continuum position/momentum grid, the
    # analytic damped combs, pure loss as a beam splitter with vacuum and a
    # continuous ancilla readout, with no Fock truncation; its values are
    # grid-converged to 1e-7 at 6-14 dB and 5e-5 at 16.5 dB.
    # regenerate with scripts/compute_gkp_ec_oracle.py
    # Rows are compared only where the codeword leaks at most 1e-2 above
    # cutoff 30 (6, 8, 10 dB): the fixture's tail_tol=1.0 lets 12, 14 and
    # 16.5 dB lose 1.3e-2, 6.4e-2 and 0.21 of their weight, and that
    # truncation lifts the program's figure 0.03-0.16 above the exact one.
    # 0.05 is the spread that cutoff alone causes at small leakage: with no
    # loss the program gives 0.427, 0.376, 0.402 at 6 dB for cutoffs 30, 40,
    # 50 (exact 0.398) and 0.459, 0.462, 0.455 at 10 dB (exact 0.453).
    with criterion("10c gkp-infidelity-trend"):
        rows = [(db, inf) for db, _, _, inf, leak in gkp_sweep_rows if leak <= 1e-2]
        assert {6.0, 8.0, 10.0} <= {db for db, _ in rows}, rows
        for db, inf in rows:
            exact = GKP_EC_ORACLE_INFIDELITY[db]
            assert abs(inf - exact) <= 0.05, (db, inf, exact)
        for (db_a, a), (db_b, b) in zip(rows, rows[1:]):
            step = GKP_EC_ORACLE_INFIDELITY[db_b] - GKP_EC_ORACLE_INFIDELITY[db_a]
            assert np.sign(b - a) == np.sign(step), (db_a, db_b, a, b, step)


def test_11_gaussian_noise_ordering():
    with criterion("11 gaussian-noise-ordering"):
        cutoff = 50
        params = GkpParams(epsilon=0.25)
        code = gkp_damped(params, cutoff).to_density()
        sigma2_small, sigma2_large = 0.02, 0.06
        small = gaussian_noise(sigma2_small, cutoff).apply(code)
        large = gaussian_noise(sigma2_large, cutoff).apply(code)
        cfg = FamilySearchConfig(depth=DepthSearchConfig(radius=2.8, resolution=35))
        bound_small = lower_bound(small, FreeSet.WIGNER_POSITIVE, cfg=cfg)
        bound_large = lower_bound(large, FreeSet.WIGNER_POSITIVE, cfg=cfg)
        assert bound_large.lower <= bound_small.lower + 1e-6
        # composition law: adding the difference reproduces the noisier state
        step = gaussian_noise(sigma2_large - sigma2_small, cutoff).apply(small)
        assert 0.5 * trace_norm(step.matrix - large.matrix) < 1e-4


def test_12_property_suites():
    with criterion("12 property-suites"):
        states, channels = property_corpus()
        report = property_suite(states, channels, cfg=FAST)
        assert report.all_passed, [r.to_dict() for r in report.failures]
