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
    gaussian_pure,
    squeezed_coherent_amps,
    squeezed_coherent_mass,
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


def _objective_draws(dim):
    """A random state on the lowest third of the levels (the rest zeros) and
    1,400 candidates (Re alpha, Im alpha, r, phi) for the objective tests."""
    rng = np.random.default_rng(dim)
    amps = rng.normal(size=dim // 3) + 1j * rng.normal(size=dim // 3)
    random_psi = PureState(np.pad(amps / np.linalg.norm(amps), (0, dim - dim // 3)))
    draws = [
        [rng.normal(0.0, 1.5), rng.normal(0.0, 1.5), rng.uniform(-2.5, 2.5), rng.uniform(-9, 9)]
        for _ in range(1200)
    ]
    draws += [[rng.normal(0.0, 1.0), rng.normal(0.0, 1.0), DEFAULT_R_MAX, rng.uniform(0, 7)] for _ in range(100)]
    # |alpha|^2 between d/4 and d: much of G lies above the cutoff
    for _ in range(100):
        alpha = rng.uniform(0.5, 1.0) * math.sqrt(dim) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        draws.append([alpha.real, alpha.imag, rng.uniform(0.0, 1.0), rng.uniform(0, 7)])
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
        alpha, r, phi = complex(x[0], x[1]), min(abs(x[2]), DEFAULT_R_MAX), x[3] % (2.0 * math.pi)
        head = squeezed_coherent_amps(alpha, r, phi, dim)
        return 1.0 - float(np.sum(np.abs(head) ** 2)) / squeezed_coherent_mass(alpha, r, phi)

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
        [rng.uniform(30.0, 40.0), rng.normal(0.0, 1.0), rng.uniform(-0.1, 0.1), rng.uniform(0, 7)]
        for _ in range(50)
    ]
    assert all(squeezed_coherent_mass(complex(x[0], x[1]), abs(x[2]), x[3]) == math.inf for x in plateau)
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
# and count leave out starts that never left the overflow plateau and starts
# that ended beyond the r clamp
_FOCK1_FIT = (
    "GaussianFidelityResult(max_fidelity=0.47788941237673843, "
    "argmax=GaussianPureParams(alpha=(0.7651291297277738-0.28503346345874336j), "
    "r=0.5493061445628468, phi=5.569978671360402), "
    "multistart_spread=0.11000997120530442, n_converged=13)"
)
_FOCK2_FIT = (
    "GaussianFidelityResult(max_fidelity=0.38131937955276457, "
    "argmax=GaussianPureParams(alpha=(1.213894927465053+0.16266257856801147j), "
    "r=0.6584789447067296, phi=0.2664140041533644), "
    "multistart_spread=0.18886928982288928, n_converged=16)"
)
# the squeezed vacuum r = 1.388, phi = pi, which puts 1.7e-3 of its mass
# above the cutoff
_EVEN_CAT_FIT = (
    "GaussianFidelityResult(max_fidelity=0.5876963325748955, "
    "argmax=GaussianPureParams(alpha=(7.646189217678068e-09+1.7692247857870412e-09j), "
    "r=1.3882361425057779, phi=3.1415926543238823), "
    "multistart_spread=0.5510768277441274, n_converged=13)"
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


def test_a_start_that_ends_beyond_the_r_clamp_is_not_counted():
    # the objective is flat in r beyond DEFAULT_R_MAX, so a simplex can drift
    # out along r and stop there: for |1>, informed starts 3 and 4 end at
    # r = -16.2 and -92.1 with fidelity 0.192, far below the optimum 0.478
    psi = fock(1, 30)
    cfg = GaussianFitConfig()
    objective = _fit_objective(psi)
    runs = [_nelder_mead(objective, x0, cfg.maxiter) for x0 in _informed_starts(psi, cfg)]
    clamped = [i for i, (x, _, _, _) in enumerate(runs) if abs(x[2]) > DEFAULT_R_MAX]
    assert clamped == [3, 4]
    for i in clamped:
        x, fun, converged, _ = runs[i]
        assert converged and -fun == pytest.approx(0.192049, abs=1e-6)
    counted = [-fun for x, fun, converged, _ in runs if converged and abs(x[2]) <= DEFAULT_R_MAX]
    res = gaussian_fidelity(psi)
    assert res.n_converged == len(counted) == 13
    assert res.multistart_spread == max(counted) - min(counted)


def test_fit_recurrence_stops_at_the_top_occupied_level(monkeypatch):
    tables = []
    steps = witnesses._squeezed_coherent_steps

    def recorded(alpha, r, phi, roots):
        tables.append(len(roots))
        return steps(alpha, r, phi, roots)

    monkeypatch.setattr(witnesses, "_squeezed_coherent_steps", recorded)
    for n, roots, expected in ((1, 2, _FOCK1_FIT), (2, 3, _FOCK2_FIT)):
        tables.clear()
        assert repr(gaussian_fidelity(fock(n, 30))) == expected
        assert len(tables) > 1000 and set(tables) == {roots}


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
    # those rankings must be np.argsort's own order
    fit = _fit_objective(fock(1, 20))

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
# start order (the first two starts coincide, <a> = 0): 5,717 and 6,453 in all
_FOCK1_NFEV = [451, 694, 359, 371, 397, 394, 319, 402, 468, 282, 301, 328, 324, 266, 361]
_FOCK2_NFEV = [459, 420, 481, 545, 413, 540, 314, 345, 370, 445, 508, 292, 319, 595, 407]


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
    ],
)
def test_fit_objective_refuses_non_finite_parameters(x, make):
    # as GaussianPureParams does; an infinite r is clamped, so it is no error
    objective = _fit_objective(fock(1, 12))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
        objective(make(x))
    assert objective([0.3, 0.0, math.inf, 0.0]) == objective([0.3, 0.0, DEFAULT_R_MAX, 0.0])


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
