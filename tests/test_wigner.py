import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from cvactivation.errors import InvariantError
from cvactivation.fock import DISPLACEMENT_TAIL_TOL, DensityMatrix, coherent_tail_mass
from cvactivation.states import GkpParams, cat, coherent, fock, gkp_comb, gkp_damped
from cvactivation.channels import pure_loss
from cvactivation import wigner
from cvactivation.wigner import (
    DepthSearchConfig,
    WIGNER_BOUND,
    comb_evaluators,
    negativity_depth,
    negativity_depth_fn,
    wigner_batch,
    wigner_grid,
    wigner_jet,
)

from conftest import (
    bopp_jet,
    displaced_parity_matrix,
    random_density,
    wigner_at,
    wigner_stack_per_order,
)


def laguerre_series(rho, alpha):
    """Independent oracle: displaced-parity matrix elements via Laguerre polynomials."""
    from math import lgamma

    dim = rho.dim
    x = 4.0 * abs(alpha) ** 2
    mat = np.zeros((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(m + 1):
            pref = (-1.0) ** n * math.exp(
                -2.0 * abs(alpha) ** 2 + 0.5 * (lgamma(n + 1) - lgamma(m + 1))
            )
            val = pref * (2.0 * alpha) ** (m - n) * eval_genlaguerre(n, m - n, x)
            mat[m, n] = val
            mat[n, m] = np.conj(val)
    return (2.0 / math.pi) * float(np.real(np.trace(mat @ rho.matrix)))


def test_vacuum_and_fock_one_values():
    vac = fock(0, 30).to_density()
    one = fock(1, 30).to_density()
    for alpha in (0.0, 0.3 + 0.2j, 0.9j):
        expect = (2.0 / math.pi) * math.exp(-2.0 * abs(alpha) ** 2)
        assert wigner_at(vac, alpha) == pytest.approx(expect, abs=1e-10)
    assert wigner_at(one, 0.0) == pytest.approx(-2.0 / math.pi, abs=1e-12)
    alpha = 0.4 - 0.1j
    expect = (
        (2.0 / math.pi)
        * (4.0 * abs(alpha) ** 2 - 1.0)
        * math.exp(-2.0 * abs(alpha) ** 2)
    )
    assert wigner_at(one, alpha) == pytest.approx(expect, abs=1e-10)


def test_lossy_photon_origin_value():
    one = fock(1, 25).to_density()
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = pure_loss(eta, 25).apply(one)
        assert wigner_at(rho, 0.0) == pytest.approx(
            (2.0 / math.pi) * (1.0 - 2.0 * eta), abs=1e-10
        )


def test_parity_series_laguerre_routes_agree(rng):
    for _ in range(3):
        rho = random_density(rng, 8, cutoff=30)
        for alpha in (0.0, 0.7 - 0.4j, 1.2j):
            a = wigner_at(rho, alpha)
            b = float(wigner_batch(rho, np.array([alpha]))[0])
            c = laguerre_series(rho, alpha)
            assert a == pytest.approx(b, abs=1e-6)
            assert a == pytest.approx(c, abs=1e-6)


def test_displaced_parity_spectrum_exact():
    op = displaced_parity_matrix(0.8 + 0.4j, 30)
    vals = np.linalg.eigvalsh(op.matrix)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


def test_grid_vacuum_peak_and_integral():
    vac = fock(0, 64).to_density()
    grid = wigner_grid(vac, radius=5.0, resolution=60)
    assert grid.max_value() == pytest.approx(2.0 / math.pi, abs=1e-6)
    assert grid.integral() == pytest.approx(1.0, abs=2e-2)
    assert np.min(grid.values) >= -1e-12


def test_grid_odd_cat_center():
    rho = cat(2.0, -1, 40).to_density()
    grid = wigner_grid(rho, radius=4.0, resolution=50)
    center = grid.values[np.argmin(np.abs(grid.centers))]
    assert center == pytest.approx(-2.0 / math.pi, abs=1e-4)


def test_grid_cat_fringes_alternate_along_imaginary_axis():
    rho = cat(2.0, -1, 40).to_density()
    grid = wigner_grid(rho, radius=3.0, resolution=48, validate_marginal=False)
    on_axis = np.isclose(grid.centers.real, 0.0)
    ims = grid.centers.imag[on_axis]
    vals = grid.values[on_axis][np.argsort(ims)]
    signs = np.sign(vals[np.abs(vals) > 0.05])
    assert np.any(signs > 0) and np.any(signs < 0)
    flips = np.sum(np.diff(signs) != 0)
    assert flips >= 4


def test_grid_bound_invariant(rng):
    rho = random_density(rng, 10, cutoff=25)
    grid = wigner_grid(rho, radius=3.0, resolution=30, validate_marginal=False)
    assert grid.min_value() >= -WIGNER_BOUND - 1e-9
    assert grid.max_value() <= WIGNER_BOUND + 1e-9


def test_marginal_check_flags_truncated_integration():
    rho = gkp_damped(GkpParams(epsilon=0.25), 50).to_density()
    # a disc too small to hold the momentum support starves the marginal
    with pytest.raises(InvariantError):
        wigner_grid(rho, radius=1.2, resolution=30)
    wigner_grid(rho, radius=4.5, resolution=60)  # adequate disc passes


def test_marginal_check_reads_every_column(monkeypatch):
    # the cli's default grid of Fock 1 (radius 5, resolution 60): every one
    # of its 121 columns integrates to <x|rho|x> within rounding, so the
    # check passes at 1e-12 and, as it reads them, fails at 1e-17
    rho = fock(1, 30).to_density()
    monkeypatch.setattr(wigner, "MARGINAL_TOL", 1e-12)
    grid = wigner_grid(rho, resolution=60)
    assert grid.values.size == grid.centers.size == 121**2
    monkeypatch.setattr(wigner, "MARGINAL_TOL", 1e-17)
    with pytest.raises(InvariantError):
        wigner_grid(rho, resolution=60)


@pytest.mark.parametrize(
    "rho",
    [
        fock(1, 30).to_density(),
        cat(1.5, -1, 30).to_density(),
        pure_loss(0.7, 30).apply(fock(3, 30).to_density()),
    ],
    ids=["fock1", "odd-cat", "lossy-fock3"],
)
def test_grid_is_exact_where_a_coherent_state_would_leak(rho):
    # the grid keeps the points where a coherent |alpha> leaks more than
    # DISPLACEMENT_TAIL_TOL above the cutoff: its values there are those of
    # the truncated state, as the Laguerre series gives them
    grid = wigner_grid(rho, resolution=60)
    leaky = [c for c in grid.centers if coherent_tail_mass(c, rho.dim) > DISPLACEMENT_TAIL_TOL]
    assert len(leaky) > 42
    leaky.sort(key=abs)
    for i in np.linspace(0, len(leaky) - 1, 42).astype(int):
        got = grid.values[grid.centers == leaky[i]]
        assert got.size == 1
        assert abs(got[0] - laguerre_series(rho, leaky[i])) <= 1e-12


def test_depth_examples():
    coh = coherent(1.0, 30).to_density()
    res = negativity_depth(coh)
    assert res.depth < 1e-10
    assert res.argmin_alpha == 0j
    one = fock(1, 30).to_density()
    res = negativity_depth(one)
    assert res.depth == pytest.approx(2.0 / math.pi, abs=1e-6)
    assert abs(res.argmin_alpha) < 1e-4
    assert res.refinement_converged
    rho = pure_loss(0.75, 30).apply(one)
    res = negativity_depth(rho)
    assert res.depth == pytest.approx(1.0 / math.pi, abs=1e-5)
    # Fock 2: the minimum lies off the grid, on the ring 4|alpha|^2 = 4 - sqrt(6)
    ring = 4.0 - math.sqrt(6.0)
    res = negativity_depth(fock(2, 30).to_density())
    expect = (2.0 / math.pi) * (4.0 - 2.0 * ring) * math.exp(-ring / 2.0)
    assert res.depth == pytest.approx(expect, abs=1e-12)
    assert 4.0 * abs(res.argmin_alpha) ** 2 == pytest.approx(ring, abs=1e-8)
    assert res.refinement_converged


def test_depth_result_evaluates_on_the_searched_coefficients():
    # the depth search's own coefficient matrix gives wigner_batch's bits;
    # a search on bare evaluators has no such route
    for rho in (
        pure_loss(0.7, 25).apply(fock(1, 25).to_density()),
        fock(2, 30).to_density(),
        cat(1.5, -1, 30).to_density(),
        coherent(1.0, 30).to_density(),
    ):
        res = negativity_depth(rho, DepthSearchConfig(resolution=25))
        pts = np.array([res.argmin_alpha, 0.3 - 0.2j])
        assert np.array_equal(res.wigner_at(pts), wigner_batch(rho, pts))
        at_argmin = res.wigner_at(pts[:1])[0]
        assert at_argmin == wigner_batch(rho, res.argmin_alpha)[0]
        assert min(at_argmin, 0.0) == pytest.approx(-res.depth, abs=1e-12)
    centers, envelope, sigma2 = gkp_comb(GkpParams(epsilon=0.3))
    via_fn = negativity_depth_fn(
        *comb_evaluators(centers, envelope, sigma2),
        2.8,
        DepthSearchConfig(radius=2.8, resolution=20),
    )
    assert via_fn.depth > 0.0 and via_fn.wigner_at is None


def test_depth_never_exceeds_wigner_bound(rng):
    for _ in range(5):
        rho = random_density(rng, 8, cutoff=24)
        res = negativity_depth(rho, DepthSearchConfig(resolution=25))
        assert res.depth <= WIGNER_BOUND + 1e-9


def test_depth_mixture_linearity(rng):
    # on a shared grid, -W of a mixture is the mixture of -W pointwise
    a = random_density(rng, 8, cutoff=24)
    b = random_density(rng, 8, cutoff=24)
    pts = np.linspace(-2, 2, 9)[:, None] + 1j * np.linspace(-2, 2, 9)[None, :]
    pts = pts.ravel()
    for p in (0.25, 0.6):
        mix = DensityMatrix(
            p * a.matrix + (1 - p) * b.matrix
        )
        wa = wigner_batch(a, pts)
        wb = wigner_batch(b, pts)
        wm = wigner_batch(mix, pts)
        assert np.max(np.abs(wm - (p * wa + (1 - p) * wb))) < 1e-10
        assert np.max(-wm) <= np.max(p * (-wa) + (1 - p) * (-wb)) + 1e-12


def test_pure_comb_matches_series():
    params = GkpParams(epsilon=0.2)
    rho = gkp_damped(params, 90).to_density()
    centers, envelope, sigma2 = gkp_comb(params)
    axis = np.array([-1.25, 0.0, 0.2, 0.4, 0.63, 0.9, 1.77 / math.sqrt(2)])
    exact = comb_evaluators(centers, envelope, sigma2)[0](axis)
    series = wigner_batch(rho, wigner._grid_points(axis))
    assert np.max(np.abs(exact - series)) < 1e-5


def test_pure_comb_vacuum_limit():
    # single unit-weight peak of variance 1 is the vacuum
    axis = np.array([-0.5, 0.0, 0.3])
    vals = comb_evaluators(np.array([0.0]), np.array([1.0]), 1.0)[0](axis)
    expect = (2.0 / math.pi) * np.exp(-2.0 * np.abs(wigner._grid_points(axis)) ** 2)
    assert np.max(np.abs(vals - expect)) < 1e-12


def pairwise_comb_reference(centers, weights, sigma2, alphas):
    """Oracle: the comb's Wigner function summed over an (N, S, S) tensor of pair terms."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    q = np.sqrt(2.0) * alphas.real
    p = np.sqrt(2.0) * alphas.imag
    mu = np.asarray(centers, dtype=float)
    mid = 0.5 * (mu[:, None] + mu[None, :])
    diff = mu[None, :] - mu[:, None]
    ww = np.outer(weights, weights)
    norm = np.sum(ww * np.sqrt(np.pi * sigma2) * np.exp(-(diff**2) / (4.0 * sigma2)))
    # cross term (s,t): (sigma/sqrt(pi)) exp(-(q-mid)^2/sigma^2 - sigma^2 p^2) cos(p diff)
    gauss_q = np.exp(-((q[:, None, None] - mid[None, :, :]) ** 2) / sigma2)
    osc = np.cos(p[:, None, None] * diff[None, :, :])
    vals = np.einsum("st,xst->x", ww, gauss_q * osc)
    vals *= np.sqrt(sigma2 / np.pi) * np.exp(-sigma2 * p**2) / norm
    return 2.0 * vals


# the gkp-sweep depth grid: radius 2.8, resolution 35, 71 x 71 points
SWEEP_AXIS = wigner._square_axis(2.8, 35)
SWEEP_GRID = wigner._grid_points(SWEEP_AXIS)


@pytest.mark.parametrize("db", [6.0, 10.0, 14.0, 16.5])
def test_pure_comb_matches_pairwise_reference(db):
    centers, envelope, sigma2 = gkp_comb(GkpParams.from_db(db))
    fast = comb_evaluators(centers, envelope, sigma2)[0](SWEEP_AXIS)
    ref = pairwise_comb_reference(centers, envelope, sigma2, SWEEP_GRID)
    assert fast.shape == ref.shape
    assert np.max(np.abs(fast - ref)) < 1e-13
    # scattered points, some sharing a real part, some an imaginary part, one
    # repeated, through the jet's values
    pts = np.array(
        [0.3 + 0.1j, -1.2 + 0.1j, 0.3 - 0.7j, 0.05 + 0.4j, -1.2 - 0.7j, 0.3 + 0.1j,
         1.1 + 0.4j, -0.6 + 1.3j, 0.05 - 0.7j, 1.1 - 0.25j, 0.9j, -1.2 + 1.3j]
    )
    fast = comb_evaluators(centers, envelope, sigma2)[1](pts)[0]
    ref = pairwise_comb_reference(centers, envelope, sigma2, pts)
    assert fast.shape == (pts.size,)
    assert np.max(np.abs(fast - ref)) < 1e-13


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_pure_comb_grid_scan_memory():
    # a table per axis, no S^2 pair columns: the pairwise scan peaked at 2.4 MB
    centers, envelope, sigma2 = gkp_comb(GkpParams.from_db(16.5))
    assert _peak_bytes(lambda: comb_evaluators(centers, envelope, sigma2)[0](SWEEP_AXIS)) < 1e6


def test_pure_comb_jet_memory(rng):
    # no (N, S, S) pair tensors: they peaked at 5.8 MB on 40 points
    centers, envelope, sigma2 = gkp_comb(GkpParams.from_db(16.5))
    pts = rng.uniform(-2.8, 2.8, 40) + 1j * rng.uniform(-2.8, 2.8, 40)
    assert _peak_bytes(lambda: comb_evaluators(centers, envelope, sigma2)[1](pts)) < 1e6


@pytest.mark.parametrize("which", [0, 1], ids=["values", "jet"])
def test_pure_comb_refuses_an_uneven_or_mismatched_comb(which):
    centers = np.array([-2.0, 0.0, 2.0, 4.0])
    weights = np.ones(4)
    uneven = centers + np.array([0.0, 0.0, 1e-9, 0.0])
    with pytest.raises(ValueError, match="equally spaced"):
        comb_evaluators(uneven, weights, 0.1)[which](np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="one nonzero length"):
        comb_evaluators(centers, weights[:3], 0.1)[which](np.array([0.0, 0.5]))


@pytest.mark.parametrize("logical", [0, 1])
def test_every_gkp_comb_is_a_lattice(logical):
    # 6-16.5 dB, and eps = 1000, where every center is 0 and the step is 0
    epsilons = [GkpParams.from_db(db).epsilon for db in (6.0, 8.0, 10.0, 12.0, 14.0, 16.5)]
    for eps in epsilons + [1000.0]:
        centers, envelope, sigma2 = gkp_comb(GkpParams(epsilon=eps, logical=logical))
        value_fn, jet_fn = comb_evaluators(centers, envelope, sigma2)
        values = value_fn(np.array([-0.3, 0.0, 0.4]))
        jet = jet_fn(np.array([0.2 - 0.1j]))
        assert np.all(np.isfinite(values)) and all(np.all(np.isfinite(part)) for part in jet)


def test_depth_fn_route_matches_density_route():
    params = GkpParams(epsilon=0.3)
    rho = gkp_damped(params, 60).to_density()
    centers, envelope, sigma2 = gkp_comb(params)
    cfg = DepthSearchConfig(radius=2.8, resolution=30)
    direct = negativity_depth(rho, cfg)
    via_fn = negativity_depth_fn(
        *comb_evaluators(centers, envelope, sigma2),
        2.8,
        cfg,
    )
    assert direct.depth == pytest.approx(via_fn.depth, abs=1e-6)


def central_jet(fn, pts, h=3e-4):
    """Fourth-order central differences of fn in (Re alpha, Im alpha)."""

    def shifted(e):
        return [fn(pts + k * h * e) for k in (-2, -1, 0, 1, 2)]

    def first(e):
        m2, m1, _, p1, p2 = shifted(e)
        return (m2 - 8 * m1 + 8 * p1 - p2) / (12 * h)

    def second(e):
        m2, m1, z, p1, p2 = shifted(e)
        return (-m2 + 16 * m1 - 30 * z + 16 * p1 - p2) / (12 * h * h)

    mixed = (second(1 + 1j) - second(1 - 1j)) / 4.0
    grad = np.stack([first(1), first(1j)], axis=-1)
    hess = np.stack([np.stack([second(1), mixed], -1), np.stack([mixed, second(1j)], -1)], -2)
    return grad, hess


def assert_jet_matches(jet_fn, value_fn, pts):
    vals, grad, hess = jet_fn(pts)
    fd_grad, fd_hess = central_jet(value_fn, pts)
    assert np.max(np.abs(vals - value_fn(pts))) < 1e-12
    assert np.max(np.abs(grad - fd_grad)) < 1e-7
    assert np.max(np.abs(hess - fd_hess)) < 1e-6


def test_density_jet_matches_central_differences(rng):
    pts = rng.uniform(-2.0, 2.0, 12) + 1j * rng.uniform(-2.0, 2.0, 12)
    states = (
        random_density(rng, 30),
        cat(2.0, 1, 30).to_density(),
        pure_loss(0.7, 30).apply(fock(1, 30).to_density()),
    )
    for rho in states:
        assert_jet_matches(lambda p: wigner_jet(rho, p), lambda p: wigner_batch(rho, p), pts)


def test_comb_jet_matches_central_differences(rng):
    pts = rng.uniform(-2.0, 2.0, 12) + 1j * rng.uniform(-2.0, 2.0, 12)
    for db in (6.0, 10.0, 14.0):
        centers, envelope, sigma2 = gkp_comb(GkpParams.from_db(db))
        assert_jet_matches(
            comb_evaluators(centers, envelope, sigma2)[1],
            lambda p: pairwise_comb_reference(centers, envelope, sigma2, p),
            pts,
        )


def test_values_do_not_depend_on_zero_padding(rng):
    axis = np.linspace(-3.0, 3.0, 41)
    pts = np.concatenate(
        [
            (axis[:, None] + 1j * axis[None, :]).ravel(),
            rng.normal(0.0, 1.5, 60) + 1j * rng.normal(0.0, 1.5, 60),
            [0j],
        ]
    )
    one = fock(1, 25).to_density()
    states = [
        fock(0, 25).to_density(),
        one,
        fock(3, 25).to_density(),
        pure_loss(0.3, 25).apply(one),
        pure_loss(0.7, 25).apply(one),
        # the vacuum/one mixture on the negativity boundary eta = 1/2
        DensityMatrix(np.diag([0.5, 0.5] + [0.0] * 23).astype(complex)),
    ]
    for rho in states:
        padded = DensityMatrix(np.pad(rho.matrix, (0, 55)))
        assert np.array_equal(wigner_batch(rho, pts), wigner_batch(padded, pts))
        for a, b in zip(wigner_jet(rho, pts), wigner_jet(padded, pts)):
            assert np.array_equal(a, b)


def _lossy(eta, rho):
    return pure_loss(eta, rho.dim).apply(rho)


_GRID_CODE = DepthSearchConfig(radius=2.8, resolution=35)
# depths at the default config (the grid codes at the gkp-sweep's), frozen
# before the depth search moved to the shared trust-region descent and its
# grid-local-minimum seeds
_FROZEN_DEPTH = {
    "lossy_photon_0.55": (lambda: _lossy(0.55, fock(1, 30).to_density()), 0.06366197723675816),
    "lossy_photon_0.7": (lambda: _lossy(0.7, fock(1, 30).to_density()), 0.2546479089470325),
    "lossy_photon_0.9": (lambda: _lossy(0.9, fock(1, 30).to_density()), 0.5092958178940652),
    "fock2": (lambda: fock(2, 30).to_density(), 0.26359725291093394),
    "lossy_fock2_0.8": (lambda: _lossy(0.8, fock(2, 30).to_density()), 0.11588139288899975),
    "odd_cat_1.5": (lambda: cat(1.5, -1, 40).to_density(), 0.6366197723675814),
    "odd_cat_2": (lambda: cat(2.0, -1, 40).to_density(), 0.6366197723675814),
    "even_cat_1.5": (lambda: cat(1.5, 1, 40).to_density(), 0.37961143337955905),
    "even_cat_2": (lambda: cat(2.0, 1, 40).to_density(), 0.47585703706634264),
    "lossy_even_cat_2_0.8": (lambda: _lossy(0.8, cat(2.0, 1, 40).to_density()), 0.0890811704212678),
    **{
        f"grid_code_{db}_loss_0.9": (
            lambda db=db: _lossy(0.9, gkp_damped(GkpParams.from_db(db), 30, tail_tol=1.0).to_density()),
            depth,
        )
        for db, depth in ((6.0, 0.13049432649664855), (10.0, 0.21565068222256573), (16.5, 0.13662514895440886))
    },
    **{
        f"comb_{db}": (lambda db=db: comb_evaluators(*gkp_comb(GkpParams.from_db(db))), depth)
        for db, depth in ((6.0, 0.19815024870245704), (8.0, 0.3320271047177323), (16.5, 0.5830414025228368))
    },
}


@pytest.mark.parametrize("name", sorted(_FROZEN_DEPTH))
def test_negativity_depth_never_below_the_frozen_table(name):
    # a lower depth would lower the certified parity bound
    make, frozen = _FROZEN_DEPTH[name]
    target = make()
    if name.startswith("comb_"):
        res = negativity_depth_fn(*target, 2.8, _GRID_CODE)
    else:
        res = negativity_depth(target, _GRID_CODE if name.startswith("grid_code") else None)
    assert res.refinement_converged
    assert res.depth >= frozen - 1e-15


def test_depth_search_makes_few_evaluator_calls(monkeypatch):
    # one coefficient build and one grid scan, then one batched jet call per
    # lockstep refinement step, all on the same coefficients
    calls = []
    for name in ("_coefficients", "_grid_values", "_point_jet"):
        original = getattr(wigner, name)
        monkeypatch.setattr(
            wigner, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    rho = pure_loss(0.7, 40).apply(fock(1, 40).to_density())
    res = negativity_depth(rho)
    assert res.depth == pytest.approx((2.0 / math.pi) * 0.4, abs=1e-12)
    assert res.refinement_converged
    # the exact minimum at alpha = 0 is a grid point and seeds alone, and the
    # corner seeds are flat: the seeds' own jet call finds every one stationary
    assert calls == ["_coefficients", "_grid_values", "_point_jet"]
    calls.clear()
    code = gkp_damped(GkpParams.from_db(10.0), 30, tail_tol=1.0).to_density()
    negativity_depth(code, DepthSearchConfig(radius=2.8, resolution=35))
    assert calls.count("_coefficients") == 1 and calls.count("_grid_values") == 1


def test_recurrence_runs_on_the_exactly_occupied_block(monkeypatch):
    sizes = []
    original = wigner._coefficients
    monkeypatch.setattr(
        wigner, "_coefficients", lambda m: sizes.append(original(m).shape) or original(m)
    )
    dim = 25
    rho = pure_loss(0.6, dim).apply(fock(1, dim).to_density())
    pts = np.array([0j, 0.4 - 0.3j])
    # two levels: the anti-diagonals m + n < 3, so three Hermite orders per axis
    wigner_batch(rho, pts)
    assert sizes == [(3, 3)]
    sizes.clear()
    wigner_jet(rho, pts)
    assert sizes == [(3, 3)]
    # any exactly nonzero entry counts, however small
    mat = np.array(rho.matrix)
    mat[dim - 1, 0] = 1e-300
    sizes.clear()
    wigner_batch(DensityMatrix(mat), pts)
    assert sizes == [(2 * dim - 1, 2 * dim - 1)]


def _hermitian_stack(rng, k, block, cutoff):
    g = rng.normal(size=(k, block, block)) + 1j * rng.normal(size=(k, block, block))
    mats = np.zeros((k, cutoff, cutoff), dtype=complex)
    mats[:, :block, :block] = g + np.conj(np.swapaxes(g, 1, 2))
    return mats


@pytest.mark.parametrize("k", [1, 6])
@pytest.mark.parametrize("block", [2, 3, 4, 5, 12, 30, 60])
def test_lockstep_kernel_matches_per_order_oracle(rng, k, block):
    # the production kernel sums every Fock order of an operator at once, on
    # the grid (two matrix products) and at scattered points (a row sum);
    # the oracle runs one Laguerre order at a time over a stack of k operators
    axis = np.linspace(-2.5, 2.5, 21)
    point_sets = [
        np.array([0.3 - 0.7j]),
        np.array([0j]),
        rng.normal(0.0, 1.5, 40) + 1j * rng.normal(0.0, 1.5, 40),
    ]
    for cutoff in (block, block + 5):
        mats = _hermitian_stack(rng, k, block, cutoff)
        grid_ref = wigner_stack_per_order(mats, wigner._grid_points(axis))
        refs = [wigner_stack_per_order(mats, pts) for pts in point_sets]
        for mat, grid_row, *rows in zip(mats, grid_ref, *refs):
            # entries of size ~sqrt(block): the bound scales with the values
            tol = 1e-13 * max(1.0, float(np.max(np.abs(grid_row))))
            coeffs = wigner._coefficients(mat)
            assert np.max(np.abs(wigner._grid_values(coeffs, axis) - grid_row)) < tol
            for pts, row in zip(point_sets, rows):
                assert np.max(np.abs(wigner._point_values(coeffs, pts) - row)) < tol


def test_values_match_the_per_order_and_displaced_parity_oracles(rng):
    pts = rng.normal(0.0, 1.5, 40) + 1j * rng.normal(0.0, 1.5, 40)
    for dim in (2, 3, 5, 8, 13, 21, 34, 47, 60):
        rho = random_density(rng, dim, cutoff=dim + 3)
        ref = wigner_stack_per_order(rho.matrix[None], pts)[0]
        assert np.max(np.abs(wigner_batch(rho, pts) - ref)) < 1e-13
    # the displaced-parity oracle is exact once its truncated displacement
    # holds the state: small blocks far below the cutoff
    near = rng.normal(0.0, 0.8, 6) + 1j * rng.normal(0.0, 0.8, 6)
    for dim in (2, 5, 10):
        rho = random_density(rng, dim, cutoff=90)
        ref = np.array([wigner_at(rho, a) for a in near])
        assert np.max(np.abs(wigner_batch(rho, near) - ref)) < 1e-13


def test_fock_119_matches_the_per_order_oracle(rng):
    rho = fock(119, 120).to_density()
    axis = np.linspace(-4.0, 4.0, 17)
    grid = wigner._grid_points(axis)
    pts = np.concatenate([grid, rng.normal(0.0, 3.0, 40) + 1j * rng.normal(0.0, 3.0, 40)])
    ref = wigner_stack_per_order(rho.matrix[None], pts)[0]
    assert np.max(np.abs(wigner_batch(rho, pts) - ref)) < 1e-13
    values = wigner._grid_values(wigner._coefficients(rho.matrix), axis)
    assert np.max(np.abs(values - ref[: grid.size])) < 1e-13


def assert_jet_matches_bopp(rho, pts):
    for got, ref, tol in zip(wigner_jet(rho, pts), bopp_jet(rho, pts), (1e-13, 1e-11, 1e-11)):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < tol


def test_jet_matches_the_bopp_identity_oracle(rng):
    pts = np.concatenate(
        [rng.uniform(-2.0, 2.0, 12) + 1j * rng.uniform(-2.0, 2.0, 12), [0j, 0.4 - 0.3j]]
    )
    one = fock(1, 30).to_density()
    code = gkp_damped(GkpParams.from_db(10.0), 40, tail_tol=1.0).to_density()
    states = [
        *(random_density(rng, dim, cutoff=dim + 3) for dim in (2, 3, 7, 20, 40)),
        cat(2.0, 1, 30).to_density(),
        pure_loss(0.7, 30).apply(one),
        fock(5, 30).to_density(),
        coherent(1.2 - 0.5j, 30).to_density(),
        pure_loss(0.9, 40).apply(code),
    ]
    for rho in states:
        assert_jet_matches_bopp(rho, pts)


@pytest.mark.parametrize("cutoff", [25, 200])
def test_jet_on_the_block_matches_the_full_cutoff_route(cutoff):
    # the jet works on the two occupied levels, the Bopp oracle at the full cutoff
    pts = np.array([0j, 0.4 - 0.3j, -1.1 + 0.2j, 0.05j])
    for eta in (0.3, 0.6, 0.95):
        # the lossy photon (1 - eta)|0><0| + eta|1><1|
        diag = np.zeros(cutoff, dtype=complex)
        diag[:2] = 1.0 - eta, eta
        assert_jet_matches_bopp(DensityMatrix(np.diag(diag)), pts)


def test_depth_search_memory_at_cutoff_200():
    # a 14 dB codeword occupies 199 levels at cutoff 200; a table of every
    # beam-splitter block up to 396 photons would hold about 170 MB
    rho = gkp_damped(GkpParams.from_db(14.0), 200, tail_tol=1.0).to_density()
    tracemalloc.start()
    try:
        res = negativity_depth(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.depth > 0.0
    assert peak < 20e6



@pytest.mark.parametrize("k", [2, 3, 25, 30, 64])
def test_kept_blocks_are_the_streamed_blocks(k):
    kept = wigner._retained_blocks(k)
    streamed = tuple(wigner._beam_splitter_blocks(k))
    assert len(kept) == len(streamed) == 2 * k - 2
    for b_kept, b_streamed in zip(kept, streamed):
        assert b_kept.flags.c_contiguous
        assert np.array_equal(b_kept, b_streamed)


def test_coefficients_are_the_same_bytes_on_a_kept_and_a_fresh_table():
    rng = np.random.default_rng(39)
    for dim in (2, 7, 30):
        matrix = random_density(rng, dim, cutoff=dim + 2).matrix
        hit = wigner._coefficients(matrix)
        assert wigner._coefficients(matrix).tobytes() == hit.tobytes()
        wigner._retained_blocks.cache_clear()
        assert wigner._coefficients(matrix).tobytes() == hit.tobytes()


def test_kept_blocks_are_read_only():
    block = wigner._retained_blocks(5)[3]
    with pytest.raises(ValueError):
        block[0, 0] = 1.0


def test_blocks_above_the_bound_stream():
    # a 65-level build keeps nothing, and the largest kept table, k = 64,
    # holds k^3 - 1 floats, so the four kept entries stay under 8.4 MB
    assert wigner._retained_blocks.cache_info().maxsize == 4
    assert sum(b.nbytes for b in wigner._retained_blocks(64)) < 2.1e6
    # from an empty table, since a full one keeps its size on an eviction
    wigner._retained_blocks.cache_clear()
    before = wigner._retained_blocks.cache_info()
    rho = fock(64, 65).to_density()
    assert wigner._coefficients(rho.matrix).shape == (129, 129)
    assert wigner._retained_blocks.cache_info() == before


def test_depth_cost_follows_the_occupied_block():
    # the lossy photon (1 - eta)|0><0| + eta|1><1| occupies levels 0 and 1 at any cutoff
    rho = DensityMatrix(np.diag([0.3, 0.7] + [0.0] * 198).astype(complex))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        res = negativity_depth(rho)
        best = min(best, time.perf_counter() - start)
    assert res.depth == pytest.approx((2.0 / math.pi) * 0.4, abs=1e-12)
    assert best < 0.25


@pytest.mark.parametrize(
    "kwargs",
    [
        {"resolution": 0},
        {"resolution": -3},
        {"resolution": 2.5},
        {"resolution": math.inf},
        {"refine_top": 0},
        {"radius": 0.0},
        {"radius": -1.0},
        {"radius": math.nan},
        {"radius": math.inf},
    ],
)
def test_depth_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        DepthSearchConfig(**kwargs)


@pytest.mark.parametrize("eta", [1.0, 0.7, 0.3])
def test_lowest_grid_points_match_the_stable_argsort(eta):
    # the seeds are the lowest grid-local minima (<= all 8 neighbours, +inf
    # beyond the edges); a phase-invariant state ties exactly at equal radii,
    # so the seeds' order among ties must follow the grid index as the stable
    # sort's does
    rho = pure_loss(eta, 25).apply(fock(1, 25).to_density())
    values = wigner_batch(rho, wigner._grid_points(wigner._square_axis(2.5, 40)))
    side = 81
    grid = values.reshape(side, side)

    def is_local_min(i, j):
        return all(
            grid[i, j] <= grid[i + di, j + dj]
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            if 0 <= i + di < side and 0 <= j + dj < side
        )

    minima = np.array([i * side + j for i in range(side) for j in range(side) if is_local_min(i, j)])
    full = minima[np.argsort(values[minima], kind="stable")]
    assert np.unique(values[full]).size < full.size  # the seeds hold a tie
    for k in (1, 2, 3, 5, 8, 100):
        assert np.array_equal(wigner._basin_seeds(values, k), full[:k])
