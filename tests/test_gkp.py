import math
import warnings

import numpy as np
import pytest

from cvactivation import cli, wigner
from cvactivation.errors import TruncationError
from cvactivation.fock import pure_fidelity
from cvactivation.states import (
    GaussianPureParams,
    GkpParams,
    fock,
    gaussian_amps,
    gkp_comb,
    gkp_damped,
    hermite_functions,
    to_chart,
    _lattice_peaks,
    _window,
)

from cvactivation.wigner import DepthSearchConfig

from conftest import scipy_hermgauss_total


def reference_squeezed_comb(eps, dim, logical=0, window=8):
    """Comb of squeezed coherent states with a Gaussian envelope.

    The common alternative finite-energy codeword form; independent of the
    closed-form construction under test.
    """
    kappa2 = math.tanh(eps)
    r = -0.5 * math.log(math.tanh(eps))  # position width e^{-2r} = tanh(eps)
    if logical == 0:
        peaks = 2.0 * np.arange(-window, window + 1) * math.sqrt(math.pi)
    else:
        peaks = (2.0 * np.arange(-window, window) + 1.0) * math.sqrt(math.pi)
    total = np.zeros(dim, dtype=complex)
    for y in peaks:
        weight = math.exp(-0.5 * kappa2 * y * y)
        amps = gaussian_amps(*to_chart(GaussianPureParams(y / math.sqrt(2.0), r)), 4 * dim)
        amps /= np.linalg.norm(amps)
        total += weight * amps[:dim]
    return total / np.linalg.norm(total)


def test_matches_squeezed_comb_reference():
    params = GkpParams(epsilon=0.1)
    state = gkp_damped(params, 80)
    ref = reference_squeezed_comb(0.1, 80)
    fid = abs(np.vdot(ref, state.amplitudes)) ** 2
    assert fid > 0.999


def test_large_damping_approaches_vacuum():
    state = gkp_damped(GkpParams(epsilon=1.5), 20)
    assert pure_fidelity(fock(0, 20), state.to_density()) > 0.99


def test_logical_overlap_vanishes():
    zero = gkp_damped(GkpParams(epsilon=0.05, logical=0), 220)
    one = gkp_damped(GkpParams(epsilon=0.05, logical=1), 220)
    assert abs(np.vdot(zero.amplitudes, one.amplitudes)) < 0.01


def projected_comb(params, dim):
    """Fock amplitudes of the heat-kernel comb of :func:`gkp_comb`, unnormalized,
    by Gauss-Hermite projection on scipy's nodes, with its position-space norm.

    16 * n_levels nodes, n_levels = dim + max(16, dim // 4), resolve the
    narrow peaks far beyond what the kept levels need; an independent route
    to the closed-form amplitudes and tail under test.
    """
    n_levels = dim + max(16, dim // 4)
    nodes, lam = scipy_hermgauss_total(16 * n_levels)
    centers, envelope, sigma2 = gkp_comb(params)
    comb = np.exp(-((nodes[:, None] - centers[None, :]) ** 2) / (2.0 * sigma2)) @ envelope
    amps = hermite_functions(n_levels, nodes) @ (lam * comb)
    # the integral of comb^2: sqrt(pi sigma^2) exp(-(mu_s - mu_t)^2 / (4 sigma^2)) per pair
    diff = centers[:, None] - centers[None, :]
    pair_norm = np.sqrt(np.pi * sigma2) * np.exp(-(diff**2) / (4.0 * sigma2))
    return amps, float(envelope @ pair_norm @ envelope)


@pytest.mark.parametrize(
    "cutoff, epsilon",
    [
        (30, 0.3),
        (200, 0.06),
        (220, 0.05),
        pytest.param(30, GkpParams.from_db(16.5).epsilon, id="30-16.5dB"),
        pytest.param(14, GkpParams.from_db(14.0).epsilon, id="14-14dB"),
    ],
)
def test_codeword_matches_the_scipy_node_route(cutoff, epsilon):
    params = GkpParams(epsilon=epsilon)
    got = gkp_damped(params, cutoff, tail_tol=1.0).amplitudes
    head = projected_comb(params, cutoff)[0][:cutoff]
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - head / np.linalg.norm(head))) <= 1e-12


@pytest.mark.parametrize("db", [10.0, 14.0, 16.5])
def test_leakage_is_the_whole_tail(db):
    params = GkpParams.from_db(db)
    amps, norm = projected_comb(params, 30)
    tail = 1.0 - float(np.sum(amps[:30] ** 2)) / norm
    assert abs(gkp_damped(params, 30, tail_tol=1.0).leakage - tail) <= 1e-12


def test_even_support_and_real_amplitudes():
    state = gkp_damped(GkpParams(epsilon=0.2), 60)
    assert np.max(np.abs(state.amplitudes[1::2])) < 1e-9
    assert np.max(np.abs(state.amplitudes.imag)) < 1e-12
    one = gkp_damped(GkpParams(epsilon=0.2, logical=1), 60)
    assert np.max(np.abs(one.amplitudes[1::2])) < 1e-9


def test_window_invariance_and_sensitivity():
    params = GkpParams(epsilon=0.15)
    auto = gkp_damped(params, 90)
    wide = gkp_damped(GkpParams(epsilon=0.15, peak_window=14), 90)
    assert np.max(np.abs(auto.amplitudes - wide.amplitudes)) < 1e-8
    with pytest.raises(ValueError):
        gkp_damped(GkpParams(epsilon=0.05, peak_window=3), 220)


def test_tail_guard():
    with pytest.raises(TruncationError):
        gkp_damped(GkpParams(epsilon=0.05), 40)


@pytest.mark.parametrize("window", [2.5, 0, -1, math.nan])
def test_peak_window_must_be_a_whole_number(window):
    # a half-integer window would shift the comb onto the logical-1 lattice
    with pytest.raises(ValueError):
        GkpParams(0.3, 0, window)
    assert GkpParams(0.3, 0, 3.0).peak_window == 3


def test_squeezing_label_convention():
    params = GkpParams(epsilon=0.1)
    assert params.squeezing_db == pytest.approx(-10.0 * math.log10(math.tanh(0.1)))
    back = GkpParams.from_db(params.squeezing_db)
    assert back.epsilon == pytest.approx(0.1, abs=1e-12)


def test_comb_data_matches_wavefunction():
    params = GkpParams(epsilon=0.25)
    centers, envelope, sigma2 = gkp_comb(params)
    assert sigma2 == pytest.approx(math.tanh(0.25))
    assert centers.shape == envelope.shape
    assert envelope[len(envelope) // 2] == pytest.approx(1.0)  # central peak
    assert np.all(np.diff(centers) > 0)


@pytest.mark.parametrize("logical", [0, 1])
def test_comb_quiet_where_cosh_overflows(logical):
    # the centers are the peaks over cosh(eps), bit for bit while cosh is
    # finite; above eps ~ 710 it is inf, every center is 0 and no warning shows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (0.05, 0.3, 2.0, 700.0):
            params = GkpParams(epsilon=eps, logical=logical)
            centers = gkp_comb(params)[0]
            want = _lattice_peaks(logical, _window(params)) / np.cosh(eps)
            assert centers.tobytes() == want.tobytes()
        centers, envelope, sigma2 = gkp_comb(GkpParams(epsilon=1000.0, logical=logical))
    assert np.all(centers == 0.0) and np.all(np.isfinite(envelope)) and sigma2 == 1.0


def test_cutoff_doubling_moves_state_little():
    params = GkpParams(epsilon=0.3)
    small = gkp_damped(params, 40)
    large = gkp_damped(params, 80)
    pi_small = float(np.sum(np.abs(small.amplitudes) ** 2 * (-1.0) ** np.arange(40)))
    pi_large = float(np.sum(np.abs(large.amplitudes) ** 2 * (-1.0) ** np.arange(80)))
    assert abs(pi_small - pi_large) < 1e-6


def test_comb_coefficients_built_once_per_depth_search(monkeypatch):
    # the gkp-sweep input activation scans the grid and refines every seed
    # on one coefficient matrix, not on one per evaluator call
    builds = []
    original = wigner._comb_coefficients

    def counting(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(wigner, "_comb_coefficients", counting)
    depth_cfg = DepthSearchConfig(radius=2.8, resolution=35)
    assert cli._gkp_input_activation(GkpParams.from_db(16.5), depth_cfg) > 0.0
    assert len(builds) == 1
