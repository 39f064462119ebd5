from decimal import Decimal, localcontext

import numpy as np
import pytest
from cvactivation import cli, monotones, wigner, witnesses
from cvactivation.errors import InvariantError, TruncationError
from cvactivation.fock import DensityMatrix, OperatorMatrix, PureState, parity_op
from cvactivation.states import (
    GkpParams,
    cat,
    coherent,
    fock,
    gkp_damped,
    photon_subtracted_squeezed,
    thermal,
)
from cvactivation.channels import (
    apply_unitary,
    gaussian_noise,
    phase_rotation,
    pure_loss,
)
from cvactivation.monotones import (
    FamilySearchConfig,
    MonotoneBound,
    exact_boundary_mixture,
    hierarchy_check,
    is_odd_parity,
    lower_bound,
    property_suite,
    pure_state_bounds,
)
from cvactivation.wigner import DepthSearchConfig
from cvactivation.witnesses import (
    DisplacedParity,
    ExplicitWitness,
    FreeSet,
    GaussianFitConfig,
    Projector,
    WitnessBox,
    gaussian_fidelity,
    witness_value,
)

from corpora import ACCEPTANCE_SEARCH, parity_stop_corpus

FAST = FamilySearchConfig(depth=DepthSearchConfig(resolution=30))


def test_monotone_bound_invariants():
    with pytest.raises(ValueError):
        MonotoneBound(0.5, 0.2, None, FreeSet.WIGNER_POSITIVE)
    with pytest.raises(ValueError):
        MonotoneBound(0.3, 0.6, None, FreeSet.WIGNER_POSITIVE, exact=True)


def test_odd_parity_detection():
    assert is_odd_parity(fock(1, 10).to_density())
    assert is_odd_parity(cat(1.4, -1, 30).to_density())
    assert not is_odd_parity(fock(0, 10).to_density())
    assert not is_odd_parity(
        pure_loss(0.9, 10).apply(fock(1, 10).to_density())
    )


def test_lower_bound_fock1_exact():
    bound = lower_bound(fock(1, 25).to_density(), FreeSet.WIGNER_POSITIVE, cfg=FAST)
    assert bound.exact
    assert bound.lower == bound.upper == 1.0


def test_lower_bound_lossy_photon():
    rho = pure_loss(0.75, 25).apply(fock(1, 25).to_density())
    bound = lower_bound(rho, FreeSet.WIGNER_POSITIVE, cfg=FAST)
    assert bound.lower == pytest.approx(0.5, abs=1e-6)
    assert not bound.exact
    assert bound.upper == 1.0


def test_lower_bound_free_states_vanish():
    for rho in (fock(0, 25).to_density(), coherent(0.8, 25).to_density(), thermal(0.4, 25)):
        for fs in FreeSet:
            assert lower_bound(rho, fs, cfg=FAST).lower <= 1e-10


def test_lower_bound_box_scaling():
    rho = pure_loss(0.8, 25).apply(fock(1, 25).to_density())
    unit = lower_bound(rho, FreeSet.WIGNER_POSITIVE, cfg=FAST)
    boxed = lower_bound(rho, FreeSet.WIGNER_POSITIVE, WitnessBox(2.0, 3.0), cfg=FAST)
    assert boxed.lower == pytest.approx(2.0 * unit.lower, abs=1e-9)
    assert boxed.upper == 2.0


@pytest.mark.parametrize("box", [WitnessBox(0.5, 0.7), WitnessBox(2.0, 3.0), WitnessBox()])
def test_reported_witness_rechecks_to_its_bound(box):
    # the certificate re-derives its own number: the reported spec's
    # witness_value is the bound, box and scale included
    cfg = FamilySearchConfig(
        depth=DepthSearchConfig(resolution=20, refine_top=2), gaussian=GaussianFitConfig(n_starts=4)
    )
    searched = [fock(2, 30).to_density(), pure_loss(0.8, 30).apply(fock(1, 30).to_density())]
    for rho in searched:
        for bound in hierarchy_check(rho, box, cfg):
            assert witness_value(bound.witness, rho) == bound.lower
    # acceptance-09 states whose depth search sums W in another order than
    # witness_value, 1e-16 apart when the parity bound was the search's own value
    corpus_cfg = FamilySearchConfig(
        depth=DepthSearchConfig(resolution=30, refine_top=3), gaussian=GaussianFitConfig(n_starts=4)
    )
    corpus = [
        pure_loss(0.7, 40).apply(fock(1, 40).to_density()),
        cat(1.5, +1, 40).to_density(),
        gkp_damped(GkpParams(epsilon=0.4), 40).to_density(),
    ]
    for rho in corpus:
        for bound in hierarchy_check(rho, box, corpus_cfg):
            assert witness_value(bound.witness, rho) == bound.lower
    # the exact odd-parity path reports the theorem value, min(n, m) times a
    # parity violation of 1, which the witness evaluates to rounding
    odd = cat(1.5, -1, 30).to_density()
    for bound in hierarchy_check(odd, box, cfg):
        assert bound.lower == min(box.n, box.m)
        assert witness_value(bound.witness, odd) == pytest.approx(bound.lower, rel=0, abs=1e-12)


def test_hierarchy_odd_states_pinned():
    for psi in (fock(1, 30), cat(1.0, -1, 30), photon_subtracted_squeezed(0.5, 30)):
        wn, gng, sng = hierarchy_check(psi.to_density(), cfg=FAST)
        for bound in (wn, gng, sng):
            assert bound.exact
            assert bound.lower == bound.upper == 1.0


def test_hierarchy_chain_on_mixed_states():
    corpus = [
        pure_loss(0.6, 30).apply(fock(1, 30).to_density()),
        gkp_damped(GkpParams(epsilon=0.35), 30).to_density(),
        thermal(0.6, 30),
    ]
    for rho in corpus:
        wn, gng, sng = hierarchy_check(rho, cfg=FAST)
        assert wn.lower <= gng.lower + 1e-9 <= sng.lower + 2e-9
        assert max(wn.upper, gng.upper, sng.upper) <= 1.0


def test_hierarchy_lossy_photon_values():
    rho = pure_loss(0.6, 25).apply(fock(1, 25).to_density())
    wn, gng, sng = hierarchy_check(rho, cfg=FAST)
    assert wn.lower == pytest.approx(0.2, abs=1e-6)
    assert gng.lower >= 0.2 - 1e-9
    assert sng.lower >= gng.lower - 1e-9
    # each free set's own search lands on the same bound and witness
    for bound in (wn, gng, sng):
        alone = lower_bound(rho, bound.free_set, cfg=FAST)
        assert alone.to_dict() == bound.to_dict()


def test_family_search_fits_the_first_of_the_descending_argsort():
    # the photon-vacuum half mix has a degenerate top eigenvalue 1/2, so the
    # fitted eigenvector is fixed by the sort order, not by the spectrum
    dim = 20
    half = DensityMatrix(
        0.5 * (fock(0, dim).to_density().matrix + fock(1, dim).to_density().matrix),
    )
    vals, vecs = np.linalg.eigh(half.matrix)
    assert vals[-1] == vals[-2] == pytest.approx(0.5)
    expected = PureState(vecs[:, np.argsort(vals)[::-1][0]]).amplitudes
    candidates, exact = monotones._family_search(
        half, FreeSet.GAUSSIAN_TWO_COPY, WitnessBox(), FAST
    )
    projectors = [spec.family for _, spec in candidates[1:]]
    assert not exact and len(projectors) == 2  # the hull projector and its two-copy lift
    for family in projectors:
        assert np.array_equal(family.psi.amplitudes, expected)


def test_hierarchy_runs_one_family_search(monkeypatch):
    calls = {"negativity_depth": 0, "_gaussian_fit": 0}

    def counted(name):
        original = getattr(monotones, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(monotones, name, counted(name))
    rho = pure_loss(0.7, 15).apply(fock(1, 15).to_density())
    hierarchy_check(rho, cfg=FAST)
    assert calls == {"negativity_depth": 1, "_gaussian_fit": 1}


def _stop_corpus_bounds(rho):
    free_sets = (FreeSet.GAUSSIAN_HULL, FreeSet.GAUSSIAN_TWO_COPY)
    alone = [lower_bound(rho, fs, cfg=ACCEPTANCE_SEARCH) for fs in free_sets]
    return hierarchy_check(rho, cfg=ACCEPTANCE_SEARCH), alone


@pytest.mark.parametrize("label, rho", parity_stop_corpus(), ids=[label for label, _ in parity_stop_corpus()])
def test_a_stopped_fit_gives_the_full_fits_bounds(monkeypatch, label, rho):
    # the family search stops its Gaussian fit once no projector can beat
    # parity; every bound is the one a full fit's lambda gives, by repr
    stopped = repr(_stop_corpus_bounds(rho))
    monkeypatch.setattr(monotones, "_gaussian_fit", lambda psi, cfg, stop: gaussian_fidelity(psi, cfg))
    assert stopped == repr(_stop_corpus_bounds(rho))


def _recorded_fits(monkeypatch):
    """The results of the family search's Gaussian fits, in call order."""
    fits, fit = [], monotones._gaussian_fit
    monkeypatch.setattr(monotones, "_gaussian_fit", lambda *args: fits.append(fit(*args)) or fits[-1])
    return fits


def test_the_fit_stops_once_parity_must_win(monkeypatch):
    # above eta = 0.522, 1 - eta < lambda(|1>) (1 + 1e-9): parity beats both
    # projectors of the lossy photon, so the fit stops as soon as its lambda
    # passes 1 - eta, here at its starts or after one step
    fits = _recorded_fits(monkeypatch)
    for eta in (0.55, 0.7, 0.9):
        rho = pure_loss(eta, 30).apply(fock(1, 30).to_density())
        wn, gng, sng = hierarchy_check(rho, cfg=ACCEPTANCE_SEARCH)
        assert fits[-1].steps <= 1 and fits[-1].max_fidelity >= 1.0 - eta
        assert gng.witness == sng.witness == wn.witness
    # a projector wins for Fock 2 and the lossy Fock 2 (whose top eigenvector
    # is |2>): both fits run in full, the 16 steps of gaussian_fidelity to
    # the same lambda
    for rho in (fock(2, 30).to_density(), pure_loss(0.8, 30).apply(fock(2, 30).to_density())):
        fits.clear()
        gng = hierarchy_check(rho, cfg=ACCEPTANCE_SEARCH)[1]
        (fit,) = fits
        assert isinstance(gng.witness.family, Projector) and gng.witness.family.lam == fit.max_fidelity
        assert repr(fit) == repr(gaussian_fidelity(gng.witness.family.psi)) and fit.steps == 16


def _counted_jets(monkeypatch):
    """The number of rows of every call of the jet that ``witnesses._fit_jet``
    returns, in call order."""
    rows, build = [], witnesses._fit_jet

    def counting(psi):
        value, jet = build(psi)
        return value, lambda x: rows.append(len(x)) or jet(x)

    monkeypatch.setattr(witnesses, "_fit_jet", counting)
    return rows


def test_a_fit_parity_must_win_from_its_starts_takes_no_derivative(monkeypatch):
    # the lossy photon's fit stops at its starts, decided on their values:
    # no jet call, and the result says so (0 steps, none converged)
    jets, fits = _counted_jets(monkeypatch), _recorded_fits(monkeypatch)
    for eta in (0.556, 0.7, 0.9):
        hierarchy_check(pure_loss(eta, 30).apply(fock(1, 30).to_density()), cfg=ACCEPTANCE_SEARCH)
        assert jets == []
        assert (fits[-1].steps, fits[-1].n_converged, fits[-1].multistart_spread) == (0, 0, 0.0)
    # Fock 2, where a projector wins: the values settle nothing and the
    # descent runs as in gaussian_fidelity, one jet at the starts, one at the
    # start moved off the origin and one per step
    fits.clear()
    hierarchy_check(fock(2, 30).to_density(), cfg=ACCEPTANCE_SEARCH)
    (fit,) = fits
    assert len(jets) == fit.steps + 2 and fit.steps == 16


def test_a_projector_winning_a_stopped_fit_is_an_invariant_error(monkeypatch):
    # with lambda* at 0 the Fock-2 fit stops at its starts, whose best lambda
    # leaves the projector above parity: the stop's premise fails loudly
    monkeypatch.setattr(monotones, "_parity_wins_from", lambda *args: 0.0)
    with pytest.raises(InvariantError, match="projector beat parity"):
        hierarchy_check(fock(2, 30).to_density(), cfg=ACCEPTANCE_SEARCH)


def test_hierarchy_check_refuses_a_state_on_the_top_levels():
    # parity wins for Fock 28 at every lambda, but the fit's truncation check
    # still runs first
    with pytest.raises(TruncationError, match="top Fock levels"):
        hierarchy_check(fock(28, 30).to_density(), cfg=ACCEPTANCE_SEARCH)


def test_family_search_builds_one_coefficient_matrix(monkeypatch):
    # the parity candidate is valued on the Wigner coefficient matrix the
    # depth search built, not on a second one
    built = []
    original = wigner._coefficients
    monkeypatch.setattr(wigner, "_coefficients", lambda m: built.append(1) or original(m))
    rho = pure_loss(0.7, 25).apply(fock(1, 25).to_density())
    wn = lower_bound(rho, FreeSet.WIGNER_POSITIVE, cfg=FAST)
    assert len(built) == 1
    built.clear()
    wn_boxed = hierarchy_check(rho, WitnessBox(0.5, 0.7), cfg=FAST)[0]
    assert len(built) == 1
    for bound in (wn, wn_boxed):
        assert bound.lower > 0.0 and witness_value(bound.witness, rho) == bound.lower


def test_boundary_mixture_canonical():
    dim = 25
    vac = fock(0, dim).to_density()
    one = fock(1, dim).to_density()
    sigma = DensityMatrix(0.5 * (vac.matrix + one.matrix))
    rows = exact_boundary_mixture(
        sigma, one, DisplacedParity(0), [0.0, 0.25, 0.5, 0.75, 1.0], cfg=FAST
    )
    for row in rows:
        assert row.exact_value == row.t
        assert row.searched_lower >= row.t - 1e-6


def test_boundary_mixture_rejects_bad_conditions():
    dim = 10
    vac = fock(0, dim).to_density()
    one = fock(1, dim).to_density()
    with pytest.raises(ValueError):
        exact_boundary_mixture(vac, one, DisplacedParity(0), [0.5])  # Tr(X sigma) = 1 != 0
    sigma = DensityMatrix(0.5 * (vac.matrix + one.matrix))
    oversize = OperatorMatrix(2.0 * parity_op(dim).matrix, hermitian=True)
    with pytest.raises(ValueError):
        exact_boundary_mixture(
            sigma, one, ExplicitWitness(oversize, FreeSet.WIGNER_POSITIVE, "2 Pi"), [0.5]
        )


def test_pure_state_bounds_examples():
    flat = pure_state_bounds(coherent(1.0, 40))
    assert flat.gng_lower == pytest.approx(0.0, abs=1e-6)
    assert flat.sng_lower == pytest.approx(0.0, abs=1e-6)
    fb = pure_state_bounds(fock(1, 40))
    assert fb.sng_lower == pytest.approx(1.0 - (1.0 - fb.gng_lower) ** 2, abs=1e-12)
    assert fb.sng_lower >= fb.gng_lower


def test_photon_floors_never_exceed_their_closed_forms():
    # the floors 1 - lam and 1 - lam^2 are certified only if lam is at least
    # the true maximum, so a fit that rounds below it must never pass it by
    # even an ulp; the closed forms of lambda(|1>) and lambda(|2>) to 40 digits
    with localcontext() as ctx:
        ctx.prec = 40
        root3 = Decimal(3).sqrt()
        exact = {
            1: 3 * root3 / (4 * Decimal(1).exp()),
            2: 2 * (1 + 1 / root3) ** 2 * (Decimal(2) / 3).sqrt() * (-(3 + root3) / 2).exp(),
        }
        for n, lam in exact.items():
            bounds = pure_state_bounds(fock(n, 40))
            assert Decimal(bounds.gng_lower) <= 1 - lam, n
            assert Decimal(bounds.sng_lower) <= 1 - lam * lam, n


def test_property_suite_passes_on_corpus():
    dim = 25
    one = fock(1, dim).to_density()
    states = [
        ("lossy_0.85", pure_loss(0.85, dim).apply(one)),
        ("odd_cat", cat(1.2, -1, dim).to_density()),
        ("vacuum", fock(0, dim).to_density()),
        (
            "mix",
            DensityMatrix(
                0.6 * one.matrix + 0.4 * fock(0, dim).to_density().matrix,
            ),
        ),
    ]
    noise = gaussian_noise(0.05, dim)
    rot = phase_rotation(0.7, dim)
    channels = [
        ("loss_0.9", pure_loss(0.9, dim).apply),
        ("noise_0.05", noise.apply),
        ("rotation", lambda rho: apply_unitary(rot, rho)),
    ]
    report = property_suite(states, channels, cfg=FAST)
    assert report.all_passed, report.failures
    kinds = {r.kind for r in report.records}
    assert kinds == {"monotonicity", "convexity", "lipschitz"}


def test_property_suite_records_on_the_default_corpus():
    # the property-suite subcommand's corpus and channels: every record in
    # order, and each record's passed flag is its own lhs <= rhs
    cutoff = 25
    states = cli._corpus(None, {"cutoff": cutoff})
    rot = phase_rotation(0.7, cutoff)
    channels = [
        ("loss_0.9", pure_loss(0.9, cutoff).apply),
        ("gaussian_noise_0.05", gaussian_noise(0.05, cutoff).apply),
        ("phase_rotation_0.7", lambda rho: apply_unitary(rot, rho)),
    ]
    report = property_suite(states, channels, cfg=FAST)
    labels = [label for label, _ in states]
    assert labels == [
        "lossy_photon_0.85",
        "lossy_photon_0.6",
        "odd_cat_1.2",
        "vacuum",
        "photon_vacuum_mix",
    ]
    expected = [("monotonicity", f"{ch} on {la}") for ch, _ in channels for la in labels]
    expected += [
        ("convexity", f"{p}*{la} + {q}*{lb}")
        for la, lb in zip(labels, labels[1:])
        for p, q in (("0.3", "0.7"), ("0.7", "0.3"))
    ]
    expected += [("lipschitz", f"{la} vs {lb}") for i, la in enumerate(labels) for lb in labels[i + 1 :]]
    assert [(r.kind, r.label) for r in report.records] == expected
    kinds = [kind for kind, _ in expected]
    assert [kinds.count(k) for k in ("monotonicity", "convexity", "lipschitz")] == [15, 8, 10]
    assert all(r.to_dict()["passed"] == (r.lhs <= r.rhs) for r in report.records)


def test_property_suite_reports_failures():
    # an amplifying "channel" is not free and must be caught
    dim = 20
    one = fock(1, dim).to_density()
    half = DensityMatrix(
        0.5 * one.matrix + 0.5 * fock(0, dim).to_density().matrix
    )

    def fake_channel(rho):
        return one  # maps everything onto the most resourceful state

    report = property_suite(
        [("half", half), ("vac", fock(0, dim).to_density())],
        [("amplifier", fake_channel)],
        cfg=FAST,
    )
    assert not report.all_passed
    assert any(r.kind == "monotonicity" for r in report.failures)
