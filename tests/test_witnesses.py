import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvactivation import states, witnesses
from cvactivation.fock import DensityMatrix, OperatorMatrix, PureState, parity_op
from cvactivation.states import (
    DEFAULT_R_MAX,
    GaussianPureParams,
    cat,
    coherent,
    fock,
    gaussian_amps,
    gaussian_mass,
    gaussian_pure,
    thermal,
)
from cvactivation.channels import apply_unitary, pure_loss, phase_rotation
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
    _fit_objective,
    _informed_starts,
    _nelder_mead,
)

from conftest import (
    displaced_parity_matrix,
    full_cutoff_objective,
    long_expansion_objective,
    random_density,
    scipy_nelder_mead,
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
    assert GaussianFitConfig(seeds=[5, 6]).seeds == (5, 6)


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
def test_fit_objective_matches_long_expansion_oracle(dim):
    random_psi, draws = _objective_draws(dim)
    for psi in (fock(1, dim), fock(2, dim), random_psi):
        new, want = _fit_objective(psi), long_expansion_objective(psi)
        for x in draws:
            assert abs(new(x) - want(x)) <= 1e-12 * abs(want(x)), (dim, x)

    def leak(x):
        """Share of G's mass above the cutoff."""
        b, t, mu2 = unpack_chart(x)
        return 1.0 - float(np.sum(np.abs(gaussian_amps(b, t, dim)) ** 2)) / gaussian_mass(b, t, mu2)

    # a candidate with much of its mass above the cutoff still scores its
    # fidelity: |<1|G>|^2 = |c_1|^2 / mass > 0 for alpha != 0
    leaky = [x for x in draws if leak(x) > 1e-3]
    one = _fit_objective(fock(1, dim))
    assert len(leaky) >= 100
    assert all(one(x) < 0.0 for x in leaky)


def _top_eigenvector(rho):
    vals, vecs = np.linalg.eigh(rho.matrix)
    return PureState(vecs[:, np.argmax(vals)])


@pytest.mark.parametrize("dim", [12, 30, 40])
def test_fit_objective_bit_identical_to_full_cutoff_oracle(dim):
    # the recurrence stops at psi's top occupied level and the levels above
    # are zeros: every score equals the one with all d amplitudes, bit for bit
    random_psi, draws = _objective_draws(dim)
    # Re alpha >= 30 with little squeezing: the closed-form mass overflows
    rng = np.random.default_rng(dim + 1)
    plateau = [
        _chart_point(complex(rng.uniform(30.0, 40.0), rng.normal(0.0, 1.0)), abs(rng.uniform(-0.1, 0.1)), rng.uniform(0, 7))
        for _ in range(50)
    ]
    assert all(gaussian_mass(*unpack_chart(x)) == math.inf for x in plateau)
    targets = [fock(n, dim) for n in range(4)]  # |0> runs the two-root minimum
    targets += [_top_eigenvector(pure_loss(0.8, dim).apply(fock(2, dim).to_density())), random_psi]
    if dim == 40:
        even = cat(2.0, 1, dim)
        assert even.amplitudes[-1] == 0.0  # its top occupied level is 38
        targets.append(even)
    for psi in targets:
        cut, full = _fit_objective(psi), full_cutoff_objective(psi)
        for x in draws:
            assert cut(x) == full(x), (dim, x)
        for x in plateau:
            assert cut(x) == full(x) == 0.0, (dim, x)


# fits scored by the exact fidelity with the untruncated Gaussian; the spread
# and count leave out starts that never left the overflow plateau
_FOCK1_FIT = (
    "GaussianFidelityResult(max_fidelity=0.47788941237673827, "
    "argmax=GaussianPureParams(alpha=(0.7495672668567702-0.3237523443356416j), "
    "r=0.5493061527131547, phi=5.46775234288212), "
    "multistart_spread=3.3306690738754696e-16, n_converged=16)"
)
_FOCK2_FIT = (
    "GaussianFidelityResult(max_fidelity=0.3813193795527642, "
    "argmax=GaussianPureParams(alpha=(0.07163870167649028-1.22264791125513j), "
    "r=0.6584789529903708, phi=3.2586449637823027), "
    "multistart_spread=0.18886928982288892, n_converged=16)"
)
# the squeezed vacuum r = 1.388, phi = pi, which puts 1.7e-3 of its mass
# above the cutoff
_EVEN_CAT_FIT = (
    "GaussianFidelityResult(max_fidelity=0.5876963325748954, "
    "argmax=GaussianPureParams(alpha=(-2.6459309732218083e-08+7.836200756287305e-10j), "
    "r=1.3882361348400127, phi=3.14159265421234), "
    "multistart_spread=0.08752008887234719, n_converged=13)"
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
    assert abs(gaussian_fidelity(fock(1, 30)).max_fidelity - lam1) <= 1e-12
    assert abs(gaussian_fidelity(fock(2, 30)).max_fidelity - lam2) <= 1e-12
    assert gaussian_fidelity(cat(2.0, 1, 40)).max_fidelity >= 0.5876963325


def test_fit_recurrence_stops_at_the_top_occupied_level(monkeypatch):
    tables = []
    amps = witnesses.gaussian_amps

    def recorded(b, t, levels):
        tables.append(levels)
        return amps(b, t, levels)

    monkeypatch.setattr(witnesses, "gaussian_amps", recorded)
    for n, levels, expected in ((1, 2, _FOCK1_FIT), (2, 3, _FOCK2_FIT)):
        tables.clear()
        assert repr(gaussian_fidelity(fock(n, 30))) == expected
        assert len(tables) > 1000 and set(tables) == {levels}


def _same_run(objective, x0, maxiter):
    """Run _nelder_mead and scipy's Nelder-Mead from x0; assert equal results.

    Values are cached by the bytes of their point, so the second run
    evaluates only the points the first did not.
    """
    values = {}

    def cached(x):
        key = np.asarray(x, dtype=float).tobytes()
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
    objective = _fit_objective(psi)
    for x0 in _informed_starts(psi, cfg):
        _same_run(objective, x0, cfg.maxiter)


def test_nelder_mead_bit_identical_to_scipy_edge_runs():
    objective = _fit_objective(fock(1, 20))
    # zero coordinates take the 0.00025 step instead of 5 %
    _same_run(objective, np.array([0.3, 0.0, 0.2, 0.0]), 400)
    # stopped by maxiter before the simplex converges
    assert _same_run(objective, np.array([0.3, 0.0, 0.2, 0.0]), 40)[1] is False
    # every candidate near alpha = 30 with little squeezing has a closed-form
    # mass that overflows and scores 0: on that plateau, with every value
    # tied, reflection and inside contraction fail and each step is a
    # shrink, two evaluations plus one per vertex
    fun, success, nfev = _same_run(objective, np.array([30.0, 0.0, 0.0, 0.0]), 400)
    assert (fun, success) == (0.0, True) and (nfev - 5) % 6 == 0


# zero coordinates take the 0.00025 first step; Re alpha >= 30 with little
# squeezing starts on the overflow plateau, where every value ties at 0
_START_COORDINATE = st.one_of(st.just(0.0), st.floats(-2.5, 2.5))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    x0=st.tuples(
        st.one_of(_START_COORDINATE, st.floats(30.0, 40.0)),
        _START_COORDINATE,
        _START_COORDINATE,
        st.one_of(st.just(0.0), st.floats(0.0, 7.0)),
    )
)
@example(x0=(0.0, 0.0, 0.0, 0.0))
@example(x0=(30.0, 0.0, 0.3, 1.0))
def test_nelder_mead_bit_identical_to_scipy_from_drawn_starts(x0):
    objective = _fit_objective(fock(1, 20))
    _same_run(objective, np.array(x0), 400)


@pytest.mark.parametrize("x0", [[0.3, 0.1, 0.2, 0.5], [0.3, 0.0, 0.2, 0.0], [1.0, -0.5, 0.3, 2.0]])
def test_nelder_mead_bit_identical_to_scipy_on_ties(monkeypatch, x0):
    # values rounded to 0.01 tie in the middle of a run, between vertices
    # that still differ, not only on a plateau where every value is equal:
    # those rankings must be np.argsort's own order.  x0 is (alpha, r, phi),
    # mapped to the fit's chart
    fit = _fit_objective(fock(1, 20))
    x0 = _chart_point(complex(x0[0], x0[1]), x0[2], x0[3])

    def objective(x):
        return round(fit(x), 2)

    distinct = []  # the number of distinct values at each np.argsort ranking
    argsort = np.argsort
    with monkeypatch.context() as m:
        m.setattr(np, "argsort", lambda a, *args, **kw: distinct.append(len(set(a))) or argsort(a, *args, **kw))
        _nelder_mead(objective, np.array(x0), 400)
    assert any(1 < k < 5 for k in distinct)
    _same_run(objective, np.array(x0), 400)


# evaluations per distinct start of the fits of |1> and |2> at cutoff 30, in
# start order (the first two starts coincide, <a> = 0): 5,902 and 5,424 in all
_FOCK1_NFEV = [576, 499, 515, 509, 345, 431, 353, 389, 452, 297, 307, 320, 303, 278, 328]
_FOCK2_NFEV = [440, 366, 403, 359, 383, 533, 340, 303, 379, 301, 346, 277, 289, 360, 345]


@pytest.mark.parametrize("n, expected", [(1, _FOCK1_NFEV), (2, _FOCK2_NFEV)], ids=["fock1", "fock2"])
def test_gaussian_fit_evaluation_counts_pinned(n, expected):
    # a search that walks another path fails here even where lambda agrees
    psi = fock(n, 30)
    cfg = GaussianFitConfig()
    objective = _fit_objective(psi)
    starts = {x0.tobytes(): x0 for x0 in _informed_starts(psi, cfg)}
    assert [_nelder_mead(objective, x0, cfg.maxiter)[3] for x0 in starts.values()] == expected


@pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
@pytest.mark.parametrize(
    "x",
    [
        [math.inf, 0.0, 0.0, 0.0],
        [0.0, -math.inf, 0.0, 0.0],
        [math.nan, 0.0, 0.0, 0.0],
        [0.0, 0.0, math.nan, 0.0],
        [0.0, 0.0, 0.0, math.nan],
        [0.0, 0.0, 0.0, math.inf],
        [0.0, 0.0, -math.inf, 0.0],
    ],
)
def test_fit_objective_refuses_non_finite_parameters(x, make):
    # as GaussianPureParams does, for b and for w alike
    objective = _fit_objective(fock(1, 12))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
        objective(make(x))


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
    # both starts are still counted: n_converged stays 16
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
