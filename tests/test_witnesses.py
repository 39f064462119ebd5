import math

import numpy as np
import pytest

from cvactivation import descent, monotones, states, witnesses
from cvactivation.fock import DensityMatrix, OperatorMatrix, PureState, parity_op
from cvactivation.states import (
    DEFAULT_R_MAX,
    GaussianPureParams,
    GkpParams,
    cat,
    coherent,
    fock,
    gaussian_amps,
    gaussian_mass,
    gaussian_pure,
    gkp_damped,
    photon_subtracted_squeezed,
    thermal,
)
from cvactivation.channels import apply_unitary, gaussian_noise, pure_loss, phase_rotation
from cvactivation.witnesses import (
    DisplacedParity,
    ExplicitWitness,
    FreeSet,
    GaussianFitConfig,
    Projector,
    WitnessBox,
    WitnessSpec,
    check_box,
    gaussian_fidelity,
    witness_value,
    _fit_jet,
    _gaussian_fit,
    _informed_starts,
    _lift,
    _on_rotation_slice,
    _start_values,
)

from conftest import (
    displaced_parity_matrix,
    long_expansion_objective,
    random_density,
    unpack_chart,
    wigner_at,
)

# dense-grid search over (|alpha|, r, phi) refined to 4e-4 resolution;
# regenerate with scripts/compute_gaussian_fidelity_oracle.py
FOCK1_GAUSSIAN_FIDELITY = 0.4778894120
# the squeezed vacuum r = 1.388236, phi = pi against the even cat alpha = 2,
# built at cutoff 300 (scripts/compute_gaussian_fidelity_oracle.py --cat 2
# scans the same value)
EVEN_CAT_GAUSSIAN_FIDELITY = 0.5876963325749


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


def test_gaussian_fidelity_of_a_photon_does_not_depend_on_the_cutoff():
    # the objective is the exact fidelity, so padding |1> with empty levels
    # changes no score
    lams = [gaussian_fidelity(fock(1, dim)).max_fidelity for dim in (12, 20, 30, 40, 60)]
    assert lams == [lams[0]] * 5
    assert abs(lams[0] - FOCK1_GAUSSIAN_FIDELITY) <= 1e-9


@pytest.mark.parametrize("alpha", [2.0, 2.0j])
def test_gaussian_fidelity_of_the_even_cat_reaches_its_squeezed_vacuum(alpha):
    # reached by the squeezed vacuum r = 1.388, phi = pi, which puts 1.7e-3
    # of its mass above cutoff 40
    assert gaussian_fidelity(cat(alpha, 1, 40)).max_fidelity >= EVEN_CAT_GAUSSIAN_FIDELITY - 1e-9


def test_even_cat_projector_feasible_on_its_squeezed_vacuum():
    lam = gaussian_fidelity(cat(2.0, 1, 40)).max_fidelity
    sigma = gaussian_pure(GaussianPureParams(0.0, 1.388236137394026, math.pi), 300).to_density()
    spec = WitnessSpec(Projector(cat(2.0, 1, 300), lam, 1))
    # the signed violation is the fidelity with the cat minus lambda
    assert witness_value(spec, sigma) <= 1e-12


@pytest.mark.parametrize(
    "bad",
    [
        {"n_starts": 0},
        {"n_starts": 2.5},
        {"maxiter": 0},
        {"maxiter": math.inf},
        {"n_starts": -3},
        {"maxiter": 2.5},
        # no seeds field: the starts draw from four fixed seeds
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
    assert not hasattr(GaussianFitConfig(), "seeds")


def _chart_point(alpha, r, phi):
    """The fit's parameters (Re b, Im b, Re w, Im w) of D(alpha) S(r e^{i phi})|0>:
    w = e^{i phi} sinh r and b = alpha + e^{i phi} tanh r conj(alpha)."""
    alpha, rot = complex(alpha), complex(np.exp(1j * phi))
    b = alpha + rot * math.tanh(r) * alpha.conjugate()
    w = rot * math.sinh(r)
    return [b.real, b.imag, w.real, w.imag]


def _objective_draws(dim):
    """A random state on the lowest third of the levels (the rest zeros) and
    1,400 candidates for the objective tests, drawn as (alpha, r, phi) and
    mapped to the fit's chart."""
    rng = np.random.default_rng(dim)
    amps = rng.normal(size=dim // 3) + 1j * rng.normal(size=dim // 3)
    random_psi = PureState(np.pad(amps / np.linalg.norm(amps), (0, dim - dim // 3)))
    draws = [
        _chart_point(complex(rng.normal(0.0, 1.5), rng.normal(0.0, 1.5)), abs(rng.uniform(-2.5, 2.5)), rng.uniform(-9, 9))
        for _ in range(1200)
    ]
    # squeezing beyond DEFAULT_R_MAX, up to |t| = tanh 3 = 0.995
    draws += [
        _chart_point(complex(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)), rng.uniform(DEFAULT_R_MAX, 3.0), rng.uniform(0, 7))
        for _ in range(100)
    ]
    # |alpha|^2 between d/4 and d: much of G lies above the cutoff
    for _ in range(100):
        alpha = rng.uniform(0.5, 1.0) * math.sqrt(dim) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        draws.append(_chart_point(alpha, rng.uniform(0.0, 1.0), rng.uniform(0, 7)))
    return random_psi, draws


@pytest.mark.parametrize("dim", [12, 30, 40])
def test_fit_jet_value_matches_long_expansion_oracle(dim):
    # the jet's value -log F is the exact fidelity with the untruncated
    # Gaussian: one batched call per target scores all draws
    random_psi, draws = _objective_draws(dim)
    # Re alpha >= 30 with little squeezing: the closed-form mass overflows
    rng = np.random.default_rng(dim + 1)
    plateau = [
        _chart_point(complex(rng.uniform(30.0, 40.0), rng.normal(0.0, 1.0)), abs(rng.uniform(-0.1, 0.1)), rng.uniform(0, 7))
        for _ in range(50)
    ]
    assert all(gaussian_mass(*unpack_chart(x)) == math.inf for x in plateau)
    for psi in (fock(1, dim), fock(2, dim), random_psi):
        jet, want = _fit_jet(psi)[1], long_expansion_objective(psi)
        for x, fid in zip(draws, np.exp(-jet(np.array(draws))[0])):
            assert abs(fid + want(x)) <= 1e-12 * abs(want(x)), (dim, x)
        # there the value stays finite and F underflows to 0
        value = jet(np.array(plateau))[0]
        assert np.isfinite(value).all() and (np.exp(-value) == 0.0).all(), dim

    def leak(x):
        """Share of G's mass above the cutoff."""
        b, t, mu2 = unpack_chart(x)
        return 1.0 - float(np.sum(np.abs(gaussian_amps(b, t, dim)) ** 2)) / gaussian_mass(b, t, mu2)

    # a candidate with much of its mass above the cutoff still scores its
    # fidelity: |<1|G>|^2 = |c_1|^2 / mass > 0 for alpha != 0
    leaky = [x for x in draws if leak(x) > 1e-3]
    assert len(leaky) >= 100
    assert (np.exp(-_fit_jet(fock(1, dim))[1](np.array(leaky))[0]) > 0.0).all()


def _top_eigenvector(rho):
    vals, vecs = np.linalg.eigh(rho.matrix)
    return PureState(vecs[:, np.argmax(vals)])


# fits scored by the exact fidelity with the untruncated Gaussian; the spread
# and count leave out starts that end at F = 0 or are not stationary
_FOCK1_FIT = (
    "GaussianFidelityResult(max_fidelity=0.4778894123767381, "
    "argmax=GaussianPureParams(alpha=(0.8164965809277235+0j), "
    "r=0.5493061443340526, phi=0.0), "
    "multistart_spread=3.3306690738754696e-16, n_converged=16, steps=8)"
)
_FOCK2_FIT = (
    "GaussianFidelityResult(max_fidelity=0.3813193795527639, "
    "argmax=GaussianPureParams(alpha=(1.224744871391589+0j), "
    "r=0.6584789484624083, phi=0.0), "
    "multistart_spread=0.18886928982288875, n_converged=16, steps=16)"
)
# the squeezed vacuum r = 1.388, phi = pi, which puts 1.7e-3 of its mass
# above the cutoff
_EVEN_CAT_FIT = (
    "GaussianFidelityResult(max_fidelity=0.5876963325748958, "
    "argmax=GaussianPureParams(alpha=0j, "
    "r=1.388236138860842, phi=3.1415926535671685), "
    "multistart_spread=0.08752008887234786, n_converged=16, steps=11)"
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


def test_every_start_of_a_photon_converges():
    # in the chart no start can drift out along a flat r direction: all 16
    # starts of |1> converge, to one optimum
    res = gaussian_fidelity(fock(1, 30))
    assert res.n_converged == 16
    assert res.multistart_spread <= 1e-15


def test_gaussian_fidelity_matches_closed_forms():
    # with b, t real: F(|1>) = b^2 sqrt(1 - t^2) e^(-b^2/(1 + t)), largest at
    # b^2 = 3/2, t = 1/2; F(|2>) is largest at b^2 = 2 + sqrt 3, t = 1/sqrt 3
    lam1 = 3.0 * math.sqrt(3.0) / (4.0 * math.e)
    lam2 = 2.0 * (1.0 + 1.0 / math.sqrt(3.0)) ** 2 * math.sqrt(2.0 / 3.0) * math.exp(-(3.0 + math.sqrt(3.0)) / 2.0)
    assert abs(gaussian_fidelity(fock(1, 30)).max_fidelity - lam1) <= 1e-15
    assert abs(gaussian_fidelity(fock(2, 30)).max_fidelity - lam2) <= 1e-15
    assert abs(gaussian_fidelity(fock(3, 30)).max_fidelity - 0.3325012363627063) <= 1e-14
    assert gaussian_fidelity(cat(2.0, 1, 40)).max_fidelity >= 0.5876963325


def test_gaussian_fidelity_of_a_subtracted_squeezed_state_reaches_the_multistart_gaussian():
    # a Gaussian the multistart Nelder-Mead fit reached has this fidelity with
    # the truncated a S(0.5)|0>, above the lambda that fit reported
    assert gaussian_fidelity(photon_subtracted_squeezed(0.5, 40)).max_fidelity >= 0.4778894129298322


def test_every_start_of_a_coherent_state_converges():
    res = gaussian_fidelity(coherent(1.0, 40))
    assert res.n_converged == 16
    assert abs(res.max_fidelity - 1.0) <= 1e-15


def test_gaussian_fit_steps_are_capped_and_reported():
    psi = fock(2, 20)
    capped = gaussian_fidelity(psi, GaussianFitConfig(maxiter=3))
    assert capped.steps == 3 and capped.n_converged < 16
    full = gaussian_fidelity(psi)
    assert 3 < full.steps < GaussianFitConfig().maxiter
    assert full.to_dict()["steps"] == full.steps


# lambda as the multistart Nelder-Mead fit found it at commit
# 9faa7414ffbeac7c5406152f46d0975c0548acc4, for the pure states of acceptance
# criterion 08 (|1> at cutoff 40 is also the pure-bounds default) and the top
# eigenvector of each criterion-09 state that runs a fit; all at cutoff 40
def _acceptance_09_state(name):
    one, vac = fock(1, 40).to_density(), fock(0, 40).to_density()
    return {
        "loss_0.55": lambda: pure_loss(0.55, 40).apply(one),
        "loss_0.7": lambda: pure_loss(0.7, 40).apply(one),
        "loss_0.85": lambda: pure_loss(0.85, 40).apply(one),
        "even_cat_1.5": lambda: cat(1.5, 1, 40).to_density(),
        "gkp_0.25": lambda: gkp_damped(GkpParams(epsilon=0.25), 40).to_density(),
        "gkp_0.4": lambda: gkp_damped(GkpParams(epsilon=0.4), 40).to_density(),
        "coherent_0.7": lambda: coherent(0.7, 40).to_density(),
        "vacuum": lambda: vac,
        "thermal_0.5": lambda: thermal(0.5, 40),
        "squeezed_0.6": lambda: gaussian_pure(GaussianPureParams(0.0, 0.6, 0.0), 40).to_density(),
        "photon_vacuum_half": lambda: DensityMatrix(0.5 * one.matrix + 0.5 * vac.matrix),
        "odd_cat_vacuum": lambda: DensityMatrix(0.3 * cat(1.5, -1, 40).to_density().matrix + 0.7 * vac.matrix),
        "noisy_photon": lambda: gaussian_noise(0.05, 40).apply(one),
        "fock2": lambda: fock(2, 40).to_density(),
    }[name]()


_FROZEN_LAMBDA = {
    "fock0": (lambda: fock(0, 40), 1.0),
    "coherent_1": (lambda: coherent(1.0, 40), 1.0),
    "fock1": (lambda: fock(1, 40), 0.47788941237673827),
    "odd_cat_1.5": (lambda: cat(1.5, -1, 40), 0.49652839160718026),
    "subtracted_0.6": (lambda: photon_subtracted_squeezed(0.6, 40), 0.47788944010820145),
    **{
        f"top_{name}": (lambda name=name: monotones._top_eigenvector(_acceptance_09_state(name)), lam)
        for name, lam in {
            "loss_0.55": 0.47788941237673827,
            "loss_0.7": 0.47788941237673827,
            "loss_0.85": 0.47788941237673827,
            "even_cat_1.5": 0.7567699879360665,
            "gkp_0.25": 0.9156375882177424,
            "gkp_0.4": 0.9834045309024486,
            "coherent_0.7": 1.0,
            "vacuum": 1.0,
            "thermal_0.5": 1.0,
            "squeezed_0.6": 0.9999999999976641,
            "photon_vacuum_half": 0.47788941237673827,
            "odd_cat_vacuum": 1.0,
            "noisy_photon": 0.47788941237673827,
            "fock2": 0.3813193795527642,
        }.items()
    },
}


@pytest.mark.parametrize("name", sorted(_FROZEN_LAMBDA))
def test_gaussian_fidelity_never_below_the_frozen_table(name):
    # a lower lambda would raise the 1 - lambda and 1 - lambda^2 floors
    # above what the multistart fit certified
    make, lam = _FROZEN_LAMBDA[name]
    assert gaussian_fidelity(make()).max_fidelity >= lam - 1e-12


def _difference_jet(value, x, h):
    """Gradient and Hessian at x by central differences of the batched
    ``value`` alone, Richardson-extrapolated from steps h and h / 2: the 144
    stencil points of both steps (x +- e_j and x +- e_j +- e_k, 72 a step)
    are valued in one call."""
    signs = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
    rows = []
    for e in (h * np.eye(4), (h / 2.0) * np.eye(4)):
        rows += [x + e[j] for j in range(4)] + [x - e[j] for j in range(4)]
        rows += [x + sj * e[j] + sk * e[k] for j in range(4) for k in range(4) for sj, sk in signs]
    values = value(np.array(rows)).reshape(2, 72)

    def at(v, h):
        pair = v[8:].reshape(4, 4, 4)
        grad = (v[:4] - v[4:8]) / (2.0 * h)
        return grad, (pair[..., 0] - pair[..., 1] - pair[..., 2] + pair[..., 3]) / (4.0 * h * h)

    (g1, h1), (g2, h2) = at(values[0], h), at(values[1], h / 2.0)
    return (4.0 * g2 - g1) / 3.0, (4.0 * h2 - h1) / 3.0


def test_fit_jet_matches_finite_differences():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    targets = [fock(1, 20), fock(2, 20), cat(1.5, -1, 40), photon_subtracted_squeezed(0.5, 40)]
    targets.append(PureState(np.pad(amps / np.linalg.norm(amps), (0, 22))))
    angle = rng.uniform(0.0, 2.0 * math.pi, 12)
    points = np.concatenate([
        rng.normal(0.0, 1.0, (12, 4)),
        # |w| up to 5, |t| up to 0.98
        np.c_[rng.normal(0.0, 1.0, (12, 2)), rng.uniform(1.0, 5.0, 12)[:, None] * np.c_[np.cos(angle), np.sin(angle)]],
        # near b = 0, where the overlap with an odd psi vanishes
        np.c_[rng.normal(0.0, 1e-2, (12, 2)), rng.normal(0.0, 1.0, (12, 2))],
    ])
    for psi in targets:
        value, jet = _fit_jet(psi)
        grad, hess = jet(points)[1:]
        for x, g, h in zip(points, grad, hess):
            # the step follows the curvature's length scale
            step = 1e-3 / math.sqrt(max(1.0, np.max(np.abs(h))))
            g_fd, h_fd = _difference_jet(value, x, step)
            assert np.max(np.abs(g_fd - g)) <= 1e-6 * np.max(np.abs(g)), (x, g, g_fd)
            assert np.max(np.abs(h_fd - h)) <= 1e-6 * np.max(np.abs(h)), (x, h, h_fd)


@pytest.mark.parametrize(
    "make",
    [lambda: fock(1, 30), lambda: fock(2, 30), lambda: fock(3, 30), lambda: cat(1.5, -1, 40)]
    + [lambda seed=seed: _random_low_state(seed) for seed in range(4)],
    ids=["fock1", "fock2", "fock3", "odd_cat", *(f"random{seed}" for seed in range(4))],
)
def test_the_fit_value_is_the_jets_value_bit_for_bit(make):
    # a stopped fit is decided on its starts' values alone (the descent's
    # early return), so they must be the very bits the jet would give: random
    # batches of 1 to 33 rows, with b = 0 (F = 0 for an odd psi) and |b| near
    # 35 (the mass overflows)
    value, jet = _fit_jet(make())
    sliced_value, sliced_jet = _on_rotation_slice(value, jet)
    rng = np.random.default_rng(41)
    for rows in (1, 2, 7, 16, 33):
        x = rng.normal(0.0, 1.5, (rows, 4))
        x[rng.random(rows) < 0.3, :2] = 0.0
        x[rng.random(rows) < 0.2, 0] = 35.0
        assert value(x).tobytes() == jet(x)[0].tobytes(), rows
        assert sliced_value(x[:, 1:]).tobytes() == sliced_jet(x[:, 1:])[0].tobytes(), rows


def test_lifted_slice_rows_are_the_inserted_rows():
    # the slice's rows enter the chart with Im b = +0.0, the bytes of
    # np.insert(y, 1, 0.0, axis=1), so the fits on the slice keep their bits
    y = np.random.default_rng(42).normal(size=(15, 3))
    y[3] = -0.0
    for rows in (y, y[:1], y[:0]):
        assert _lift(rows).tobytes() == np.insert(rows, 1, 0.0, axis=1).tobytes()


def test_a_screened_fit_is_the_fit_at_its_starts(monkeypatch):
    # a stop some start already reaches returns before any descent step, with
    # the values and points the descent starts from (F = 0 starts moved off
    # their zero), no start stationary: the repr of the full fit's descent
    # stopped at its starts
    run = descent.lockstep_newton

    def at_the_starts(jet, x0, values, radius, maxiter, enough):
        return run(jet, x0, values, radius, maxiter, math.inf)

    for psi in (fock(1, 30), fock(2, 30), cat(1.5, -1, 40), _random_low_state(5)):
        with monkeypatch.context() as patch:
            patch.setattr(witnesses, "lockstep_newton", at_the_starts)
            at_starts = _gaussian_fit(psi, GaussianFitConfig(), math.inf)
        for stop in (0.0, at_starts.max_fidelity / 2.0, at_starts.max_fidelity):
            screened = _gaussian_fit(psi, GaussianFitConfig(), stop)
            assert repr(screened) == repr(at_starts)
            assert (screened.steps, screened.n_converged, screened.multistart_spread) == (0, 0, 0.0)
        # just above the starts' best fidelity the descent runs
        assert _gaussian_fit(psi, GaussianFitConfig(), math.nextafter(at_starts.max_fidelity, 2.0)).steps >= 1


def test_fit_recurrence_stops_at_the_top_occupied_level(monkeypatch):
    tables = []
    amps = witnesses.gaussian_amps

    def recorded(b, t, levels):
        tables.append(levels)
        return amps(b, t, levels)

    monkeypatch.setattr(witnesses, "gaussian_amps", recorded)
    # one table per value or jet call, for all live starts at once: a value
    # at the starts, a value at the starts where F = 0 (b = 0 for |1>, the
    # origin for |2>) moved out to the trust radius, a jet at the starts and
    # one per step
    for n, levels, expected in ((1, 2, _FOCK1_FIT), (2, 3, _FOCK2_FIT)):
        tables.clear()
        res = gaussian_fidelity(fock(n, 30))
        assert repr(res) == expected
        assert len(tables) == res.steps + 3 and set(tables) == {levels}


def _on_the_slice(starts):
    """(Re b, Re w, Im w) of each chart start turned by the rotation
    (b, w) -> (e^{i theta} b, e^{2i theta} w) that makes b real and >= 0."""
    starts = np.array(starts)
    b, w = starts[:, 0] + 1j * starts[:, 1], starts[:, 2] + 1j * starts[:, 3]
    w = w * np.exp(-2j * np.angle(b))
    return np.column_stack([np.abs(b), w.real, w.imag])


def test_a_repeated_start_runs_once(monkeypatch):
    psi = fock(1, 30)
    # |1> runs on the slice Im b = 0, so the descent sees the turned starts
    starts = list(_on_the_slice(_informed_starts(psi, GaussianFitConfig())))
    assert starts[0].tobytes() == starts[1].tobytes()  # <a> = 0
    ran = []
    run = descent.lockstep_newton
    assert witnesses.lockstep_newton is run  # the fit runs the shared descent

    def counted(jet, x0, values, radius, maxiter, enough):
        ran.extend(start.tobytes() for start in x0)
        return run(jet, x0, values, radius, maxiter, enough)

    monkeypatch.setattr(witnesses, "lockstep_newton", counted)
    # both starts are still counted: n_converged stays 16
    assert repr(gaussian_fidelity(psi)) == _FOCK1_FIT
    # the descent sees each distinct start once, those where F = 0 moved off
    # their zero as the fit moves them
    unique = np.array(list({start.tobytes(): start for start in starts}.values()))
    _start_values(_on_rotation_slice(*_fit_jet(psi))[0], unique)
    assert sorted(ran) == sorted(start.tobytes() for start in unique)
    assert len(ran) == len(starts) - 1


def test_a_start_valued_inf_moves_its_zero_coordinate_out_to_the_trust_radius():
    # f = x0^2 - 2 log|x0| + x1^2 is +inf on x0 = 0, as -log F is at a
    # simple zero of the overlap, and least at (+-1, 0)
    calls = []

    def value(x):
        calls.append(x.copy())
        with np.errstate(divide="ignore"):
            return x[:, 0] ** 2 - 2.0 * np.log(np.abs(x[:, 0])) + x[:, 1] ** 2

    def jet(x):
        grad = np.column_stack([2.0 * x[:, 0] - 2.0 / x[:, 0], 2.0 * x[:, 1]])
        hess = np.zeros((len(x), 2, 2))
        hess[:, 0, 0], hess[:, 1, 1] = 2.0 + 2.0 / x[:, 0] ** 2, 2.0
        return value(x), grad, hess

    starts = np.array([[0.0, 0.3], [0.5, 0.1], [0.0, -0.2]])
    values = _start_values(value, starts)
    # the flat starts alone are valued again, each moved in place to exactly
    # the fit's first trust radius, 1
    assert calls[1].tolist() == [[1.0, 0.3], [1.0, -0.2]]
    assert starts.tolist() == [[1.0, 0.3], [0.5, 0.1], [1.0, -0.2]]
    assert values.tobytes() == value(starts).tobytes()
    points, values, stationary, steps = descent.lockstep_newton(jet, starts, values, 1.0, 40, -math.inf)
    assert stationary.all() and np.allclose(points, [[1.0, 0.0]] * 3, atol=1e-9)
    assert steps <= 8


@pytest.mark.parametrize(
    "make, ceiling",
    [
        (lambda: fock(1, 30), 10),
        (lambda: fock(2, 30), 18),
        (lambda: fock(3, 40), 18),
        (lambda: cat(1.5, -1, 40), 16),
    ],
    ids=["fock1", "fock2", "fock3", "odd_cat"],
)
def test_zero_overlap_starts_leave_the_zero_in_a_few_steps(make, ceiling):
    # a start at a zero of the overlap (b = 0 for an odd psi, the origin for
    # |2>) steps out from the edge of its first trust region; placed next to
    # the zero it would only double its distance per step and set the fit's
    # step count alone; a number state runs on the slice Im b = 0, where no
    # step is spent along its rotation orbit
    assert gaussian_fidelity(make()).steps <= ceiling


def test_a_number_state_is_fitted_on_the_rotation_slice(monkeypatch):
    # F of e^{i chi}|n> is constant on the orbits (b, t) -> (e^{i theta} b,
    # e^{2i theta} t), so its fit runs over (Re b, Re w, Im w) alone; any
    # other psi keeps all four chart coordinates
    widths = []
    run = descent.lockstep_newton

    def recorded(jet, x0, *args):
        widths.append(x0.shape[1])
        return run(jet, x0, *args)

    monkeypatch.setattr(witnesses, "lockstep_newton", recorded)
    top = _top_eigenvector(pure_loss(0.7, 30).apply(fock(1, 30).to_density()))
    sliced = [fock(n, 30) for n in range(7)]
    sliced += [PureState(np.exp(0.7j) * fock(3, 30).amplitudes), top, PureState(-top.amplitudes)]
    mixed = fock(1, 30).amplitudes + 1e-3 * fock(3, 30).amplitudes
    full = [PureState(mixed / np.linalg.norm(mixed)), cat(2.0, 1, 40)]
    for psi in sliced + full:
        gaussian_fidelity(psi)
    assert widths == [3] * len(sliced) + [4] * len(full)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_slice_fit_reaches_the_full_chart_fit(n):
    # the same descent on the same jet from the unturned starts, over all four
    # coordinates, finds no larger lambda
    psi = fock(n, 40)
    starts, (value, jet) = np.array(_informed_starts(psi, GaussianFitConfig())), _fit_jet(psi)
    values = descent.lockstep_newton(jet, starts, _start_values(value, starts), 1.0, 400, -math.inf)[1]
    full = float(np.exp(-np.where(np.isnan(values), np.inf, values)).max())
    assert gaussian_fidelity(psi).max_fidelity >= full - 1e-15


def test_the_photon_fit_ends_at_a_real_displacement():
    # on the slice the optimum b = sqrt(3/2), t = 1/2 is reached with b and t
    # real: alpha = (b - t b) / (1 - t^2) = sqrt(2/3)
    argmax = gaussian_fidelity(fock(1, 30)).argmax
    assert abs(argmax.alpha - math.sqrt(2.0 / 3.0)) <= 1e-12
    assert abs(argmax.r - math.atanh(0.5)) <= 1e-12


def _random_low_state(seed):
    """A seeded random state on 2 to 8 levels, at cutoff 30."""
    rng = np.random.default_rng(seed)
    levels = int(rng.integers(2, 9))
    amps = rng.normal(size=levels) + 1j * rng.normal(size=levels)
    return PureState(np.pad(amps / np.linalg.norm(amps), (0, 30 - levels)))


@pytest.mark.parametrize(
    "make",
    [lambda n=n: fock(n, 30) for n in range(1, 7)]
    + [lambda a=a, s=s: cat(a, s, 30) for a in (1.0, 1.5, 2.0) for s in (1, -1)]
    + [lambda seed=seed: _random_low_state(seed) for seed in range(8)],
    ids=[f"fock{n}" for n in range(1, 7)]
    + [f"cat{a}{'+' if s > 0 else '-'}" for a in (1.0, 1.5, 2.0) for s in (1, -1)]
    + [f"random{seed}" for seed in range(8)],
)
def test_the_fits_best_fidelity_never_falls_from_step_to_step(make):
    # a descent step is taken only if it lowers its start's -log F, so the fit
    # stopped after k steps is never better than the fit stopped after k + 1;
    # this is what lets the family search stop a fit at a level
    psi = make()
    full = gaussian_fidelity(psi)
    best = [gaussian_fidelity(psi, GaussianFitConfig(maxiter=k)).max_fidelity for k in range(1, full.steps + 1)]
    assert best[-1] == full.max_fidelity
    assert all(b >= a for a, b in zip(best, best[1:])), best


def test_the_descent_stops_once_a_value_reaches_enough():
    # f = |x|^2 from (3, 4) and (0, 6): the descent returns at the first step
    # where some start's value is at or below enough, and runs to the end
    # for -inf; +inf returns at the starts
    def jet(x):
        return (x * x).sum(1), 2.0 * x, np.broadcast_to(2.0 * np.eye(2), (len(x), 2, 2)).copy()

    # (the least value runs 25, 20.25, 12.25, 2.25, 0 from a radius of 0.5)
    starts = np.array([[3.0, 4.0], [0.0, 6.0]])
    at_starts = jet(starts)[0]
    full = descent.lockstep_newton(jet, starts, at_starts, 0.5, 100, -math.inf)
    assert full[2].all() and full[3] == 4
    assert descent.lockstep_newton(jet, starts, at_starts, 0.5, 100, math.inf)[3] == 0
    for enough, stop in ((20.25, 1), (20.0, 2), (12.25, 2), (3.0, 3), (1.0, 4)):
        values, steps = descent.lockstep_newton(jet, starts, at_starts, 0.5, 100, enough)[1::2]
        assert steps == stop and values.min() <= enough


def test_a_descent_decided_at_its_starts_takes_no_jet_and_returns_the_callers_values():
    # once a given value is at or below enough the caller's values decide:
    # no jet call, the starts and the caller's bytes back, none stationary
    def jet(x):
        raise AssertionError("jet called")

    starts = np.array([[3.0, 4.0], [0.0, 6.0]])
    given = np.array([25.0, 36.0]) + np.array([1e-13, -1e-13])  # not the bytes of |x|^2
    for enough in (25.0 + 1e-13, 36.0, math.inf):
        points, values, stationary, steps = descent.lockstep_newton(jet, starts, given, 0.5, 100, enough)
        assert points.tobytes() == starts.tobytes() and values.tobytes() == given.tobytes()
        assert not stationary.any() and steps == 0


def _old_informed_starts(psi, cfg):
    """The fit's starts as built before the draws were paired: one scalar
    draw at a time and a GaussianPureParams per start, through to_chart."""
    amps = psi.amplitudes
    idx = np.arange(psi.dim)
    a_mean = complex(np.vdot(amps[:-1], np.sqrt(idx[1:]) * amps[1:]))
    starts = [
        (a_mean.real, a_mean.imag, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0),
        (a_mean.real, a_mean.imag, 0.4, 0.0),
        (a_mean.real, a_mean.imag, 0.4, np.pi),
        (a_mean.real, a_mean.imag, 0.4, np.pi / 2),
        (abs(a_mean) + 0.5, 0.0, 0.2, 0.0),
    ]
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    i = 0
    while len(starts) < cfg.n_starts:
        rng = rngs[i % len(rngs)]
        i += 1
        starts.append(
            (
                a_mean.real + rng.normal(0.0, 0.7),
                a_mean.imag + rng.normal(0.0, 0.7),
                rng.uniform(0.0, 1.2),
                rng.uniform(0.0, 2.0 * np.pi),
            )
        )
    points = []
    for re, im, r, phi in starts[: cfg.n_starts]:
        b, t = states.to_chart(GaussianPureParams(complex(re, im), r, phi))
        w = t / math.sqrt(1.0 - abs(t) ** 2)
        points.append(np.array([b.real, b.imag, w.real, w.imag]))
    return np.array(points)


def test_the_starts_are_the_bytes_of_the_scalar_draws():
    targets = [fock(1, 30), fock(2, 30), coherent(0.8 - 0.3j, 30), cat(1.5, -1, 40), _random_low_state(3)]
    for psi in targets:
        for n_starts in (1, 2, 6, 7, 10, 16, 64):
            cfg = GaussianFitConfig(n_starts=n_starts)
            assert _informed_starts(psi, cfg).tobytes() == _old_informed_starts(psi, cfg).tobytes(), n_starts


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
