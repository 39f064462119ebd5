import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvactivation import states, witnesses
from cvactivation.fock import DensityMatrix, OperatorMatrix, PureState, parity_op
from cvactivation.states import (
    GaussianPureParams,
    cat,
    coherent,
    fock,
    gaussian_pure,
    squeezed_coherent_amps,
    thermal,
)
from cvactivation.channels import apply_unitary, pure_loss, phase_rotation
from cvactivation.witnesses import (
    DisplacedParity,
    ExplicitWitness,
    FIT_TAIL_TOL,
    FreeSet,
    GaussianFitConfig,
    Projector,
    WitnessBox,
    WitnessSpec,
    check_box,
    gaussian_fidelity,
    witness_value,
    _fit_objective,
    _informed_starts,
    _nelder_mead,
)

from conftest import (
    displaced_parity_matrix,
    gaussian_objective_oracle,
    random_density,
    scipy_nelder_mead,
    wigner_at,
)

# dense-grid search over (|alpha|, r, phi) refined to 4e-4 resolution;
# regenerate with scripts/compute_gaussian_fidelity_oracle.py
FOCK1_GAUSSIAN_FIDELITY = 0.4778894120


def test_displaced_parity_matrix_spectrum():
    alpha = 0.6 - 0.3j
    assert check_box(DisplacedParity(alpha)) == (-1.0, 1.0)
    assert np.allclose(np.diag(displaced_parity_matrix(0.0, 12).matrix), (-1.0) ** np.arange(12))
    vals = np.linalg.eigvalsh(displaced_parity_matrix(alpha, 30).matrix)
    assert vals[0] == pytest.approx(-1.0, abs=1e-10)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    # the operator evaluated on a truncated state is the compression of the
    # untruncated one, so its spectrum stays inside the closed-form ends
    compressed = displaced_parity_matrix(alpha, 100).matrix[:30, :30]
    vals = np.linalg.eigvalsh(compressed)
    assert -1.0 - 1e-12 <= vals[0] and vals[-1] <= 1.0 + 1e-12


def test_pure_projector_spectrum():
    psi = cat(1.2, -1, 10)
    lam = 0.4778894
    lo, hi = check_box(Projector(psi, lam, 1))
    dense = lam * np.eye(10) - np.outer(psi.amplitudes, psi.amplitudes.conj())
    vals = np.linalg.eigvalsh(dense)
    assert (lo, hi) == pytest.approx((lam - 1.0, lam), abs=1e-15)
    assert vals[0] == pytest.approx(lo, abs=1e-12)
    assert vals[-1] == pytest.approx(hi, abs=1e-12)


def test_two_copy_projector_value():
    psi = fock(1, 8)
    lam = 0.5
    spec = WitnessSpec(Projector(psi, lam, 2))
    rho = psi.to_density()
    assert witness_value(spec, rho) == pytest.approx(1.0 - lam**2, abs=1e-12)
    lo, hi = check_box(spec.family)
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    vals = np.linalg.eigvalsh(lam**2 * np.eye(64) - np.kron(proj, proj))
    assert (lo, hi) == pytest.approx((lam**2 - 1.0, lam**2), abs=1e-15)
    assert vals[0] == pytest.approx(lo, abs=1e-12)
    assert vals[-1] == pytest.approx(hi, abs=1e-12)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -0.2, 1.5])
def test_projector_lambda_must_be_a_fidelity(lam):
    psi = fock(1, 6)
    for copies in (1, 2):
        with pytest.raises(ValueError):
            Projector(psi, lam, copies)


@pytest.mark.parametrize("copies", [0, 3, -1, 1.5, True, None])
def test_projector_copies_must_be_one_or_two(copies):
    with pytest.raises((ValueError, TypeError)):
        Projector(fock(1, 6), 0.5, copies)


def test_each_family_fixes_its_free_set():
    # the smallest free set each built-in family is feasible for, read from
    # the family alone; an explicit witness carries the set it declares
    psi = fock(1, 6)
    box = WitnessBox(2.0, 3.0)
    assert WitnessSpec(DisplacedParity(0.3j), box).free_set is FreeSet.WIGNER_POSITIVE
    assert WitnessSpec(Projector(psi, 0.5, 1), box).free_set is FreeSet.GAUSSIAN_HULL
    assert WitnessSpec(Projector(psi, 0.5, 2), box).free_set is FreeSet.GAUSSIAN_TWO_COPY
    for free_set in FreeSet:
        spec = WitnessSpec(ExplicitWitness(parity_op(6), free_set, "declared"))
        assert spec.free_set is free_set
        assert spec.describe()["free_set"] == free_set.value
    assert WitnessSpec(Projector(psi, 0.5, 2), box).describe() == {
        "family": "two_copy_projector",
        "lambda": 0.5,
        "free_set": "gaussian_two_copy",
        "box": [2.0, 3.0],
    }


@pytest.mark.parametrize("free_set", list(FreeSet))
def test_witness_spec_takes_no_free_set(free_set):
    # a built-in family's free set is its own; neither the spec nor the
    # family accepts one
    psi = fock(1, 6)
    for family in (DisplacedParity(0.0), Projector(psi, 0.5, 1), Projector(psi, 0.5, 2)):
        with pytest.raises(TypeError):
            WitnessSpec(family, WitnessBox(), free_set)
        with pytest.raises(TypeError):
            WitnessSpec(family, free_set=free_set)
    with pytest.raises(TypeError):
        DisplacedParity(0.0, free_set)
    with pytest.raises(TypeError):
        Projector(psi, 0.5, 1, free_set)


def test_witness_value_examples():
    one = fock(1, 20).to_density()
    vac = fock(0, 20).to_density()
    pi_spec = WitnessSpec(DisplacedParity(0.0))
    assert witness_value(pi_spec, one) == pytest.approx(1.0, abs=1e-12)
    assert witness_value(pi_spec, vac) == pytest.approx(-1.0, abs=1e-12)


def test_witness_value_matches_wigner():
    rho = cat(1.3, -1, 30).to_density()
    alpha = 0.4 + 0.2j
    spec = WitnessSpec(DisplacedParity(alpha))
    assert witness_value(spec, rho) == pytest.approx(
        -(math.pi / 2.0) * wigner_at(rho, alpha), abs=1e-10
    )


def test_parity_value_exact_for_truncated_state():
    # far from the origin the cutoff-30 displacement is inexact; the value
    # must match the state zero-padded to cutoff 100
    rho = cat(1.3, -1, 30).to_density()
    padded = DensityMatrix(np.pad(rho.matrix, (0, 70)))
    alpha = 2.0 + 1.0j
    oracle = -(math.pi / 2.0) * wigner_at(padded, alpha)
    assert witness_value(WitnessSpec(DisplacedParity(alpha)), rho) == pytest.approx(oracle, abs=1e-12)


def test_lift_witness_value_equality(rng):
    # the factored values equal the dense expectations on rho (x) rho: a
    # single-copy witness lifted to W (x) I, and the two-copy projector
    rho = random_density(rng, 6)
    rho2 = np.kron(rho.matrix, rho.matrix)
    lifted = np.kron(parity_op(6).matrix, np.eye(6))
    lhs = -float(np.real(np.trace(lifted @ rho2)))
    assert lhs == pytest.approx(witness_value(WitnessSpec(DisplacedParity(0.0)), rho), abs=1e-10)
    assert set(np.round(np.linalg.eigvalsh(lifted), 9)) <= {-1.0, 1.0}
    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi = PureState(vec / np.linalg.norm(vec))
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    dense = 0.49 * np.eye(36) - np.kron(proj, proj)
    lhs = -float(np.real(np.trace(dense @ rho2)))
    assert lhs == pytest.approx(witness_value(WitnessSpec(Projector(psi, 0.7, 2)), rho), abs=1e-12)


def test_gaussian_fidelity_gaussian_inputs():
    assert gaussian_fidelity(fock(0, 30)).max_fidelity == pytest.approx(1.0, abs=1e-6)
    assert gaussian_fidelity(coherent(1.0, 30)).max_fidelity == pytest.approx(
        1.0, abs=1e-6
    )


def test_gaussian_fidelity_fock1_matches_grid_oracle():
    res = gaussian_fidelity(fock(1, 40))
    assert res.max_fidelity == pytest.approx(FOCK1_GAUSSIAN_FIDELITY, abs=1e-4)
    assert res.n_converged > 0


@pytest.mark.parametrize(
    "bad",
    [
        {"n_starts": 0},
        {"n_starts": 2.5},
        {"maxiter": 0},
        {"maxiter": math.inf},
        {"r_max": -0.5},
        {"r_max": math.nan},
        {"r_max": math.inf},
        {"n_starts": -3},
        {"maxiter": 2.5},
        {"r_max": -math.inf},
        {"seeds": (True,)},
        {"seeds": (0, -1)},
        {"seeds": (0.5,)},
        {"seeds": ("x",)},
    ],
)
def test_gaussian_fit_config_rejects_bad_values(bad):
    with pytest.raises((ValueError, TypeError)):
        GaussianFitConfig(**bad)


def test_gaussian_fit_config_keeps_valid_values():
    small = GaussianFitConfig(n_starts=2, maxiter=40)
    assert (small.n_starts, small.maxiter) == (2, 40)
    assert GaussianFitConfig(seeds=[5, 6], r_max=0.0).seeds == (5, 6)


def _fit_leak(alpha, r, phi, dim):
    """Tail share above the cutoff over the 2 dim + 32 levels gaussian_pure checks."""
    w = np.abs(squeezed_coherent_amps(alpha, r, phi, 2 * dim + 32)) ** 2
    return float(np.sum(w[dim:])) / float(np.sum(w))


def _threshold_draws(rng, dim, r_max, count):
    """(Re alpha, Im alpha, r, phi) whose 2d+32 leak lies within 1e-9 of the tolerance.

    |alpha| is bisected along a random direction to a leak of
    FIT_TAIL_TOL + delta, delta between -1e-9 and 1e-9.
    """
    deltas = (-1e-9, -3e-10, -1e-10, -1e-11, 0.0, 1e-11, 1e-10, 3e-10, 1e-9)
    draws = []
    while len(draws) < count:
        r = r_max if rng.uniform() < 0.3 else float(rng.uniform(0.0, r_max))
        phi, theta = rng.uniform(0.0, 2.0 * math.pi, size=2)
        if _fit_leak(0j, r, phi, dim) > FIT_TAIL_TOL:
            continue
        unit = complex(math.cos(theta), math.sin(theta))
        hi = 1.0
        while _fit_leak(hi * unit, r, phi, dim) <= FIT_TAIL_TOL:
            hi *= 2.0
        for delta in deltas:
            lo, up = 0.0, hi
            while lo < (mid := 0.5 * (lo + up)) < up:
                if _fit_leak(mid * unit, r, phi, dim) <= FIT_TAIL_TOL + delta:
                    lo = mid
                else:
                    up = mid
            alpha = lo * unit
            draws.append([alpha.real, alpha.imag, r, phi])
    return draws


@pytest.mark.parametrize("dim", [12, 30, 40])
def test_fit_objective_bit_identical_to_built_state_oracle(dim):
    rng = np.random.default_rng(dim)
    amps = rng.normal(size=dim // 3) + 1j * rng.normal(size=dim // 3)
    random_psi = PureState(np.pad(amps / np.linalg.norm(amps), (0, dim - dim // 3)))
    r_max = GaussianFitConfig().r_max
    draws = [
        [rng.normal(0.0, 1.5), rng.normal(0.0, 1.5), rng.uniform(-2.5, 2.5), rng.uniform(-9, 9)]
        for _ in range(1200)
    ]
    draws += [[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0), r_max, rng.uniform(0, 7)] for _ in range(100)]
    draws += _threshold_draws(rng, dim, r_max, 90)
    scored = rejected = 0
    for psi in (fock(1, dim), fock(2, dim), random_psi):
        new, old = _fit_objective(psi, r_max), gaussian_objective_oracle(psi, r_max)
        for x in draws:
            want = old(x)
            assert new(x) == want, (dim, x)
            scored += want != 0.0
            rejected += want == 0.0
    # both sides of the tail tolerance were reached
    assert min(scored, rejected) > 300


def _top_eigenvector(rho):
    vals, vecs = np.linalg.eigh(rho.matrix)
    return PureState(vecs[:, np.argmax(vals)])


# fits through built candidate states, before the objective stopped building
# them; the spread and count leave out the starts stuck on the all-leak plateau
_FOCK1_FIT = (
    "GaussianFidelityResult(max_fidelity=0.4778894124995779, "
    "argmax=GaussianPureParams(alpha=(-0.7470114020176348+0.32960679222043465j), "
    "r=0.5493061494070621, phi=5.452104864327408), "
    "multistart_spread=0.11000997132814377, n_converged=13)"
)
_FOCK2_FIT = (
    "GaussianFidelityResult(max_fidelity=0.38131938635765966, "
    "argmax=GaussianPureParams(alpha=(1.2247277233269878-0.006464347462329931j), "
    "r=0.6584793948186235, phi=6.272629024766101), "
    "multistart_spread=0.19165230119853055, n_converged=4)"
)
# about a fifth of this fit's candidates leak past the head check and run the
# 2d + 32-level tail
_EVEN_CAT_FIT = (
    "GaussianFidelityResult(max_fidelity=0.561672549733006, "
    "argmax=GaussianPureParams(alpha=(-0.0067848562229096965-0.0005230544733841273j), "
    "r=1.1743935697533323, phi=3.141611515156292), "
    "multistart_spread=0.4952743139244569, n_converged=9)"
)


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: fock(1, 30), _FOCK1_FIT),
        (lambda: fock(2, 30), _FOCK2_FIT),
        # the lossy photon's top eigenvector is |1> up to a sign
        (lambda: _top_eigenvector(pure_loss(0.7, 30).apply(fock(1, 30).to_density())), _FOCK1_FIT),
        (lambda: cat(2.0, 1, 40), _EVEN_CAT_FIT),
    ],
    ids=["fock1", "fock2", "lossy_photon", "even_cat"],
)
def test_gaussian_fidelity_pinned(make, expected):
    assert repr(gaussian_fidelity(make())) == expected


def _same_run(objective, x0, maxiter):
    """Run _nelder_mead and scipy's Nelder-Mead from x0; assert equal results.

    Values are cached by the bytes of their point, so the second run
    evaluates only the points the first did not.
    """
    values = {}

    def cached(x):
        key = x.tobytes()
        if key not in values:
            values[key] = objective(x)
        return values[key]

    x, fun, success, nfev = _nelder_mead(cached, x0, maxiter)
    want_x, want_fun, want_success, want_nfev = scipy_nelder_mead(cached, x0, maxiter)
    assert (x.tobytes(), fun, success, nfev) == (
        want_x.tobytes(), want_fun, want_success, want_nfev
    ), x0
    return fun, success, nfev


_FIT_STATES = {
    "fock1": lambda d: fock(1, d),
    "fock2": lambda d: fock(2, d),
    "lossy_photon": lambda d: _top_eigenvector(pure_loss(0.75, d).apply(fock(1, d).to_density())),
    "odd_cat": lambda d: cat(1.5, -1, d),
}


@pytest.mark.parametrize("dim", [20, 30])
@pytest.mark.parametrize("name", sorted(_FIT_STATES))
def test_nelder_mead_bit_identical_to_scipy(name, dim):
    psi = _FIT_STATES[name](dim)
    cfg = GaussianFitConfig()
    objective = _fit_objective(psi, cfg.r_max)
    for x0 in _informed_starts(psi, cfg):
        _same_run(objective, x0, cfg.maxiter)


def test_nelder_mead_bit_identical_to_scipy_edge_runs():
    objective = _fit_objective(fock(1, 20), GaussianFitConfig().r_max)
    # zero coordinates take the 0.00025 step instead of 5 %
    _same_run(objective, np.array([0.3, 0.0, 0.2, 0.0]), 400)
    # stopped by maxiter before the simplex converges
    assert _same_run(objective, np.array([0.3, 0.0, 0.2, 0.0]), 40)[1] is False
    # every candidate near alpha = 8 leaks above the cutoff and scores 0: on
    # that plateau, with every value tied, reflection and inside contraction
    # fail and each step is a shrink, two evaluations plus one per vertex
    fun, success, nfev = _same_run(objective, np.array([8.0, 0.0, 0.0, 0.0]), 400)
    assert (fun, success) == (0.0, True) and (nfev - 5) % 6 == 0


# zero coordinates take the 0.00025 first step; Re alpha >= 8 starts on the
# all-leak plateau, where every value ties at 0
_START_COORDINATE = st.one_of(st.just(0.0), st.floats(-2.5, 2.5))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    x0=st.tuples(
        st.one_of(_START_COORDINATE, st.floats(8.0, 12.0)),
        _START_COORDINATE,
        _START_COORDINATE,
        st.one_of(st.just(0.0), st.floats(0.0, 7.0)),
    )
)
@example(x0=(0.0, 0.0, 0.0, 0.0))
@example(x0=(8.0, 0.0, 0.3, 1.0))
def test_nelder_mead_bit_identical_to_scipy_from_drawn_starts(x0):
    objective = _fit_objective(fock(1, 20), GaussianFitConfig().r_max)
    _same_run(objective, np.array(x0), 400)


def test_a_repeated_start_runs_once(monkeypatch):
    psi = fock(1, 30)
    starts = _informed_starts(psi, GaussianFitConfig())
    assert starts[0].tobytes() == starts[1].tobytes()  # <a> = 0
    ran = []
    run = witnesses._nelder_mead

    def counted(objective, x0, maxiter):
        ran.append(x0.tobytes())
        return run(objective, x0, maxiter)

    monkeypatch.setattr(witnesses, "_nelder_mead", counted)
    # both starts are still counted: n_converged stays 13
    assert repr(gaussian_fidelity(psi)) == _FOCK1_FIT
    assert sorted(ran) == sorted({start.tobytes() for start in starts})
    assert len(ran) == len(starts) - 1


def test_gaussian_fit_builds_no_state(monkeypatch):
    built = []
    post_init = PureState.__post_init__
    monkeypatch.setattr(PureState, "__post_init__", lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(states, "gaussian_pure", lambda *a, **k: built.append(2))
    psi = fock(2, 20)
    built.clear()
    res = gaussian_fidelity(psi, GaussianFitConfig(n_starts=2, maxiter=40))
    assert res.max_fidelity > 0.0
    assert built == []


def test_gaussian_fidelity_beats_every_seed():
    res = gaussian_fidelity(cat(1.5, -1, 40))
    assert 0.0 < res.max_fidelity < 1.0
    assert res.multistart_spread >= 0.0


def test_mixed_gaussians_never_beat_pure_optimum(rng):
    psi = fock(1, 40)
    lam = gaussian_fidelity(psi).max_fidelity
    for _ in range(20):
        nbar = rng.uniform(0.0, 0.8)
        alpha = rng.normal(0, 0.7) + 1j * rng.normal(0, 0.7)
        r = rng.uniform(0.0, 0.8)
        th = thermal(nbar, 40)
        # displaced squeezed thermal state, a generic mixed Gaussian
        from cvactivation.fock import annihilation_matrix
        from scipy.linalg import expm

        a = annihilation_matrix(40)
        squeeze = expm(0.5 * (r * a @ a - r * a.conj().T @ a.conj().T))
        disp = expm(alpha * a.conj().T - np.conj(alpha) * a)
        u = disp @ squeeze
        mat = u @ th.matrix @ u.conj().T
        mat /= np.real(np.trace(mat))
        overlap = float(np.real(np.vdot(psi.amplitudes, mat @ psi.amplitudes)))
        assert overlap <= lam + 1e-6


def test_parity_feasible_on_gaussian_states(rng):
    # Tr(Pi(alpha) sigma) >= 0 for Wigner-positive sigma; the cutoff must be
    # generous because the truncated state carries ~sqrt(leakage) of
    # artificial negativity
    dim = 120
    for _ in range(20):
        params = GaussianPureParams(
            rng.normal(0, 0.5) + 1j * rng.normal(0, 0.5),
            rng.uniform(0, 0.8),
            rng.uniform(0, 2 * np.pi),
        )
        sigma = gaussian_pure(params, dim).to_density()
        alpha = rng.normal(0, 0.8) + 1j * rng.normal(0, 0.8)
        assert witness_value(WitnessSpec(DisplacedParity(alpha)), sigma) <= 1e-8


def test_projector_feasible_on_random_gaussians(rng):
    dim = 120
    psi = fock(1, dim)
    lam = gaussian_fidelity(psi).max_fidelity
    spec = WitnessSpec(Projector(psi, lam, 1))
    for _ in range(200):
        params = GaussianPureParams(
            rng.normal(0, 0.6) + 1j * rng.normal(0, 0.6),
            rng.uniform(0, 0.9),
            rng.uniform(0, 2 * np.pi),
        )
        sigma = gaussian_pure(params, dim).to_density()
        # Tr(W sigma) >= 0 means the signed violation is <= 0
        assert witness_value(spec, sigma) <= 1e-8


def test_gaussian_fidelity_invariant_under_rotation():
    psi = cat(1.2, -1, 40)
    rot = phase_rotation(0.9, 40)
    rotated = apply_unitary(rot, psi.to_density())
    vals, vecs = np.linalg.eigh(rotated.matrix)
    from cvactivation.fock import PureState

    psi_rot = PureState(vecs[:, -1])
    a = gaussian_fidelity(psi).max_fidelity
    b = gaussian_fidelity(psi_rot).max_fidelity
    assert a == pytest.approx(b, abs=1e-6)


def test_explicit_witness_carries_certificate():
    pi = parity_op(6)
    spec = WitnessSpec(ExplicitWitness(pi, FreeSet.WIGNER_POSITIVE, "parity-is-feasible"))
    assert spec.describe()["certificate"] == "parity-is-feasible"
    one = fock(1, 6).to_density()
    assert witness_value(spec, one) == pytest.approx(1.0)


def test_witness_box_assertion():
    big = OperatorMatrix(2.0 * np.eye(5), hermitian=True)
    spec = WitnessSpec(ExplicitWitness(big, FreeSet.WIGNER_POSITIVE, "oversized"))
    with pytest.raises(ValueError):
        check_box(spec.family)
    with pytest.raises(ValueError):
        witness_value(spec, fock(0, 5).to_density())
    assert check_box(spec.family, WitnessBox(1.0, 2.0)) == pytest.approx((2.0, 2.0))
    # an explicit operator is taken as given, scale 1 in any box
    boxed = WitnessSpec(spec.family, WitnessBox(0.5, 2.0))
    assert boxed.scale == 1.0
    assert witness_value(boxed, fock(0, 5).to_density()) == pytest.approx(-2.0)
