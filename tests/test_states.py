import cmath
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from cvactivation.errors import TruncationError
from cvactivation.fock import annihilation_matrix, parity_op
from cvactivation.states import (
    DEFAULT_R_MAX,
    GaussianPureParams,
    cat,
    coherent,
    fock,
    from_chart,
    gaussian_amps,
    gaussian_mass,
    gaussian_pure,
    photon_subtracted_squeezed,
    thermal,
    to_chart,
)


def mean_photon(psi):
    return float(np.sum(np.arange(psi.dim) * np.abs(psi.amplitudes) ** 2))


def expm_gaussian(alpha, r, phi, dim):
    """Truncated-matrix-exponential construction, the test oracle."""
    a = annihilation_matrix(dim)
    xi = r * np.exp(1j * phi)
    squeeze = expm(0.5 * (np.conj(xi) * a @ a - xi * a.conj().T @ a.conj().T))
    displace = expm(alpha * a.conj().T - np.conj(alpha) * a)
    vec = (displace @ squeeze)[:, 0]
    return vec / np.linalg.norm(vec)


def test_fock_basics():
    vac = fock(0, 10)
    assert vac.amplitudes[0] == 1.0
    one = fock(1, 10)
    assert one.expectation(parity_op(10)).real == pytest.approx(-1.0)
    three = fock(3, 10)
    assert mean_photon(three) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        fock(10, 10)


def test_coherent_moments_and_positivity():
    vac = coherent(0.0, 20)
    assert np.allclose(vac.amplitudes, fock(0, 20).amplitudes)
    c = coherent(1.0, 30)
    assert mean_photon(c) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(TruncationError):
        coherent(4.0, 10)


def test_gaussian_pure_matches_matrix_exponential():
    for alpha, r, phi in [(0.7 + 0.2j, 0.5, 1.1), (1.2, 0.9, 4.0), (0.0, 1.0, 0.3)]:
        mine = gaussian_pure(GaussianPureParams(alpha, r, phi), 60)
        oracle = expm_gaussian(alpha, r, phi, 160)[:60]
        oracle = oracle / np.linalg.norm(oracle)
        phase = np.vdot(oracle, mine.amplitudes)
        phase /= abs(phase)
        assert np.max(np.abs(mine.amplitudes - phase * oracle)) < 1e-10


def _squeezed_coherent_amps_oracle(alpha, r, phi, n_levels):
    """The recurrence evaluated one numpy scalar at a time, the test oracle."""
    mu = np.cosh(r)
    nu = np.exp(1j * phi) * np.sinh(r)
    gamma = mu * alpha + nu * np.conj(alpha)
    amps = np.zeros(n_levels, dtype=complex)
    amps[0] = 1.0
    if n_levels > 1:
        amps[1] = gamma / mu
    for n in range(1, n_levels - 1):
        amps[n + 1] = (gamma * amps[n] - nu * np.sqrt(n) * amps[n - 1]) / (
            mu * np.sqrt(n + 1)
        )
    return amps


def _oracle_draws():
    rng = np.random.default_rng(9)
    edge = [
        (0.0, 0.7, 1.3),
        (0j, 0.0, 0.0),
        (0.0, 0.5, 0.0),
        (1.1 - 0.4j, 0.0, 2.0),
        (-0.8, 0.0, 0.0),
        (0.6 + 0.2j, DEFAULT_R_MAX, 0.9),
        (0.0, DEFAULT_R_MAX, 0.0),
        (-1.3j, 0.4, 1e-15),
        (0.5, 1.1, 2.0 * math.pi - 1e-15),
        (2.0 + 1.0j, 0.9, np.nextafter(2.0 * math.pi, 0.0)),
    ]
    random = [
        (
            complex(rng.normal(0.0, 1.5), rng.normal(0.0, 1.5)),
            float(rng.uniform(0.0, DEFAULT_R_MAX)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        for _ in range(600)
    ]
    return edge + random


def test_gaussian_amps_match_numpy_scalar_oracle():
    # the chart's recurrence after the conversion to (b, t) against the
    # squeezed-coherent recurrence of D(alpha) S(r e^{i phi})|0>, called on
    # each point alone (Python scalars) and on all points at once (arrays)
    draws = _oracle_draws()
    points = [to_chart(GaussianPureParams(alpha, r, phi)) for alpha, r, phi in draws]
    b, t = (np.array(column, dtype=complex) for column in zip(*points))
    tables = {n_levels: gaussian_amps(b, t, n_levels) for n_levels in (1, 2, 3, 92, 152)}
    for i, ((alpha, r, phi), (bi, ti)) in enumerate(zip(draws, points)):
        for n_levels in (1, 2, 3, 92, 152) if i < 60 else (92,):
            oracle = _squeezed_coherent_amps_oracle(alpha, r, phi, n_levels)
            for fast in (gaussian_amps(bi, ti, n_levels), tables[n_levels][i]):
                assert fast.shape == oracle.shape
                np.testing.assert_allclose(fast, oracle, rtol=1e-12, err_msg=str((alpha, r, phi, n_levels)))
    assert gaussian_amps(b[:204].reshape(-1, 3), t[:204].reshape(-1, 3), 5).shape == (68, 3, 5)


def _chart_draws():
    """(alpha, r, phi) with r up to artanh(0.999) = 3.8, past DEFAULT_R_MAX."""
    rng = np.random.default_rng(13)
    return [
        (complex(*rng.normal(0.0, 1.5, size=2)), math.atanh(rng.uniform(0.0, 0.999)), rng.uniform(0, 7))
        for _ in range(200)
    ]


def test_chart_conversion_round_trip():
    for alpha, r, phi in _oracle_draws() + _chart_draws():
        params = GaussianPureParams(alpha, r, phi)
        back = from_chart(*to_chart(params))
        assert abs(back.alpha - params.alpha) <= 1e-12 * max(1.0, abs(params.alpha))
        assert back.r == pytest.approx(params.r, abs=1e-12)
        if params.r > 1e-9:
            assert abs(cmath.exp(1j * back.phi) - cmath.exp(1j * params.phi)) <= 1e-12
    b, t = to_chart(GaussianPureParams(0.5 - 0.2j, 0.7, 1.1))
    assert t == pytest.approx(cmath.exp(1.1j) * math.tanh(0.7), abs=1e-15)
    assert b == pytest.approx((0.5 - 0.2j) + t * (0.5 + 0.2j), abs=1e-15)


@pytest.mark.parametrize(
    "alpha, r, phi",
    [
        (complex("nan"), 0.1, 0.0),
        (complex(0.0, math.inf), 0.1, 0.0),
        (0.3, math.nan, 0.0),
        (0.3, math.inf, 0.0),
        (0.3, 0.1, math.inf),
        (0.3, 0.1, math.nan),
        (0.3, -0.1, 0.0),
    ],
)
def test_gaussian_params_reject_non_finite(alpha, r, phi):
    with pytest.raises(ValueError):
        GaussianPureParams(alpha, r, phi)


def test_gaussian_pure_special_cases():
    vac = gaussian_pure(GaussianPureParams(0.0, 0.0, 0.0), 20)
    assert np.allclose(vac.amplitudes, fock(0, 20).amplitudes)
    sq = gaussian_pure(GaussianPureParams(0.0, 0.8, 0.0), 40)
    assert np.max(np.abs(sq.amplitudes[1::2])) < 1e-10
    disp = gaussian_pure(GaussianPureParams(1.0, 0.0, 0.0), 30)
    assert abs(disp.amplitudes[1]) ** 2 == pytest.approx(math.exp(-1.0), abs=1e-10)
    with pytest.raises(ValueError):
        gaussian_pure(GaussianPureParams(0.0, 3.0, 0.0), 30)


@pytest.mark.parametrize("alpha", [1e6, 1e308, complex(1e200, -1e200)])
def test_gaussian_pure_refuses_an_infinite_mass(alpha):
    # the closed-form mass overflows, so no amplitude is built: numpy warns
    # of no overflow and no NaN leak is formed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError, match="mass of .* is not finite"):
            gaussian_pure(GaussianPureParams(alpha, 0.2, 0.1), 10)


def test_cat_parity_structure():
    odd = cat(1.5, -1, 30)
    assert odd.expectation(parity_op(30)).real == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(odd.amplitudes[::2])) < 1e-12
    even_small = cat(1e-4, +1, 10)
    assert abs(even_small.amplitudes[0]) == pytest.approx(1.0, abs=1e-6)
    odd_small = cat(1e-4, -1, 10)
    assert abs(odd_small.amplitudes[1]) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        cat(1.0, 2, 10)
    # e^(-|alpha|^2/2) underflows to 0, or |alpha|^2 overflows
    for alpha in (40.0, 40j, 1e200, complex(1e200, 1e200), math.nan):
        with pytest.raises(ValueError, match="cat alpha="):
            cat(alpha, +1, 10)


def test_photon_subtracted_squeezed():
    with pytest.raises(ValueError):
        photon_subtracted_squeezed(0.0, 20)
    pss = photon_subtracted_squeezed(0.5, 30)
    assert pss.expectation(parity_op(30)).real == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(pss.amplitudes[::2])) < 1e-12
    # a S(r)|0> has the amplitudes of the squeezed vacuum shifted down
    sq = gaussian_amps(0.0, math.tanh(0.5), 40)
    manual = np.sqrt(np.arange(1, 40)) * sq[1:]
    manual = manual[:30] / np.linalg.norm(manual)
    assert np.max(np.abs(np.abs(pss.amplitudes) - np.abs(manual[:30]))) < 1e-9


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 1e6, 709.0])
def test_photon_subtracted_squeezed_rejects_unusable_r(r):
    # cosh(709) sqrt(n) already overflows the recurrence's coefficients
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="squeezing r="):
            photon_subtracted_squeezed(r, 20)


def test_gaussian_mass_matches_long_sum():
    rng = np.random.default_rng(11)
    draws = [(0j, 0.0, 0.0), (0j, DEFAULT_R_MAX, 1.0), (2.0 + 1.0j, 0.0, 0.0), (0j, math.atanh(0.999), 2.0)]
    draws += [
        (complex(*rng.normal(0.0, 1.5, size=2)), rng.uniform(0.0, DEFAULT_R_MAX), rng.uniform(0, 7))
        for _ in range(200)
    ]
    # |t| up to 0.999: squeezing beyond DEFAULT_R_MAX, which the fit reaches
    draws += _chart_draws()[:40]
    for alpha, r, phi in draws:
        b, t = to_chart(GaussianPureParams(alpha, r, phi))
        # |c_n|^2 decays like |t|^n n^(-1/2): 40,000 levels leave < 1e-16 at |t| = 0.999
        total = float(np.sum(np.abs(gaussian_amps(b, t, 1500 if r <= DEFAULT_R_MAX else 40000)) ** 2))
        assert gaussian_mass(b, t, math.cosh(r) ** 2) == pytest.approx(total, rel=1e-12), (alpha, r, phi)
    assert gaussian_mass(1e3, 0.0, 1.0) == math.inf


def test_thermal_distribution():
    rho = thermal(0.5, 40)
    probs = np.real(np.diag(rho.matrix))
    ratio = probs[1] / probs[0]
    assert ratio == pytest.approx(0.5 / 1.5, abs=1e-12)
    assert rho.leakage == pytest.approx((0.5 / 1.5) ** 40, abs=1e-25)


def test_thermal_tail_guard():
    # the geometric tail (nbar/(nbar + 1))^d against STATE_TAIL_TOL, as every
    # other factory: 0.905 at nbar 100, cutoff 10; 6.1e-7 at nbar 0.3
    with pytest.raises(TruncationError, match="thermal leaks 9.053e-01"):
        thermal(100.0, 10)
    with pytest.raises(TruncationError):
        thermal(1.0, 19)
    assert thermal(1.0, 20).leakage == 0.5**20
    assert thermal(0.3, 10).leakage == pytest.approx((0.3 / 1.3) ** 10, rel=1e-12)


@pytest.mark.parametrize("nbar", [math.nan, math.inf, -1.0])
def test_thermal_rejects_bad_nbar(nbar):
    with pytest.raises(ValueError, match="nbar"):
        thermal(nbar, 10)


def test_factory_leakage_and_tail():
    c = coherent(1.5, 30)
    assert c.leakage < 1e-8
    assert c.tail_mass(0) == pytest.approx(1.0, abs=1e-12)
    assert c.tail_mass(29) < 1e-12


@pytest.mark.parametrize(
    "build, observable",
    [
        (lambda dim: coherent(1.0, dim), mean_photon),
        (lambda dim: cat(1.5, -1, dim), mean_photon),
        (
            lambda dim: gaussian_pure(GaussianPureParams(0.5, 0.6, 0.7), dim),
            mean_photon,
        ),
    ],
)
def test_cutoff_doubling_convergence(build, observable):
    small = observable(build(30))
    large = observable(build(60))
    assert abs(small - large) < 1e-6
