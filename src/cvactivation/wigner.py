"""Wigner-function evaluation and negativity-depth search.

Conventions: W(alpha) = (2/pi) Tr[Pi(alpha) rho] with Pi(alpha) the
displaced parity, alpha = (x + i p)/sqrt(2), so the vacuum Wigner function
is (2/pi) exp(-2|alpha|^2) and the integral over the complex plane is 1.

Density matrices have one production route.  The Wigner function of a
truncated operator is a finite sum of products of Hermite functions,
W(alpha) = (2/sqrt(pi)) sum_ab G_ab psi_a(2 Re alpha) psi_b(2 Im alpha),
exact for the truncated state.  The real coefficient matrix G has
2k - 1 rows for an occupied block of k levels and is built once per
operator (:func:`_coefficients`): the entries rho_mn with m + n = N are
mapped by the 50:50 beam-splitter block of N photons, which the stable
one-photon recursion of Risbo (J. Geodesy 70, 383 (1996)) builds in
O(k^3) time and O(k^2) memory.  A grid scan is then one Hermite table per
axis and two matrix products; scattered points take one table per
coordinate and a row sum, O(k^2) per point; and the exact gradients and
Hessians of :func:`wigner_jet` come from the derivative tables of the same
Hermite functions.  Independent routes live in the test suite as oracles:
the defining expression (parity conjugated by an explicit displacement), a
Laguerre series, the Laguerre Clenshaw recurrence run one order at a time
and the Bopp identities on that recurrence.  The exact grid-code comb
(:func:`comb_evaluators`) has the same product form with closed-form
Gaussian and cosine tables (:func:`_comb_coefficients`), and goes through
the same grid product and jet assembly.

The negativity-depth search scans a grid with values only, then refines
its best points in lockstep by trust-region Newton steps on those exact
derivatives, one batched evaluator call per step.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .fock import (
    DISPLACEMENT_TAIL_TOL,
    DensityMatrix,
    _occupied_dim,
    _whole_fields,
    coherent_tail_mass,
)
from .states import hermite_functions

WIGNER_BOUND = 2.0 / math.pi
_BOUND_SLACK = 1e-9
# W = _NORM sum_ab G_ab psi_a(2 Re alpha) psi_b(2 Im alpha)
_NORM = 2.0 / math.sqrt(math.pi)
# largest deviation of wigner_grid's integrated x-marginal from <x|rho|x>
MARGINAL_TOL = 2e-3


def _coefficients(matrix: np.ndarray) -> np.ndarray:
    """The real Hermite-product coefficients G of a Hermitian operator's Wigner function.

    The Wigner function of |m><n| is that of the two-mode state |m, n>
    turned by a 50:50 beam splitter, with the second mode Fourier
    transformed.  So the entries rho_mn with m + n = N land on the
    anti-diagonal a + b = N of G through the beam-splitter block
    B_N[a, m] = <a, N - a| U |m, N - m>, with the Fourier phase (-i)^b; for a
    Hermitian operator the imaginary parts cancel and G is real.

    B_N comes from B_{N-1} by the one-photon recursion
    N |m, N - m> = sqrt(m) a^dag |m - 1, N - m> + sqrt(N - m) b^dag |m, N - m - 1>,
    with U a^dag U^dag = (a^dag + b^dag)/sqrt(2) and U b^dag U^dag =
    (a^dag - b^dag)/sqrt(2): four neighbours of B_{N-1}, each weighted by
    sqrt(...)/(N sqrt(2)) <= 1/sqrt(2) (Risbo's recursion at beta = pi/2), so
    the recursion is stable.  Only the columns m the block holds are kept,
    max(0, N - k + 1) to min(N, k - 1), and these need no others.

    The operator is cut to its occupied block of k levels first (k >= 2),
    so G has 2k - 1 rows and does not depend on zero padding.
    """
    k = _occupied_dim(matrix[None])
    size = 2 * k - 1
    # the anti-diagonal m + n = N of the block is the diagonal of offset
    # k - 1 - N of its mirror image, read from m = max(0, N - k + 1) up
    mirror = matrix[:k, k - 1 :: -1]
    parts = np.stack([mirror.real, mirror.imag])
    root = np.sqrt(np.arange(size + 1))
    rows = np.arange(size)
    anti = np.zeros((size, size, 2))  # B_N times the anti-diagonal, real and imaginary parts
    anti[0, 0] = parts[:, 0, k - 1]
    # B_{N-1} on its columns lo..hi, with a zero column on each side
    padded = np.array([[0.0, 1.0, 0.0]])
    lo = 0
    for n in range(1, size):
        new_lo, hi = max(0, n - k + 1), min(n, k - 1)
        width = hi - new_lo + 1
        scale = 1.0 / (n * math.sqrt(2.0))
        start = new_lo - lo  # column new_lo - 1 of B_{N-1}
        m_up = root[new_lo : hi + 1] * scale  # sqrt(m) and sqrt(N - m), scaled
        m_down = root[n - hi : n - new_lo + 1][::-1] * scale
        left = padded[:, start : start + width] * m_up
        right = padded[:, start + 1 : start + 1 + width] * m_down
        padded = np.zeros((n + 1, width + 2))
        b_n = padded[:, 1:-1]
        np.multiply(root[1 : n + 1, None], left + right, out=b_n[1:])
        b_n[:-1] += root[n:0:-1, None] * (left - right)
        anti[rows[: n + 1], n - rows[: n + 1]] = b_n @ parts.diagonal(k - 1 - n, 1, 2).T
        lo = new_lo
    # Re((-i)^b g): g's real part for even b, its imaginary part for odd b, signs + + - -
    phase = rows % 4
    sign = np.array([1.0, 1.0, -1.0, -1.0])[phase]
    return np.where(phase % 2 == 0, anti[..., 0], anti[..., 1]) * sign


def _grid_product(coeffs: np.ndarray, u_table: np.ndarray, v_table: np.ndarray, norm: float):
    """norm sum_ab C_ab u_a v_b on a square grid, the u coordinate the slow index."""
    return norm * (u_table.T @ coeffs @ v_table).ravel()


def _grid_values(coeffs: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Values on the square grid over ``axis``, raveled as :func:`_grid_points`."""
    table = hermite_functions(coeffs.shape[0], 2.0 * axis)
    return _grid_product(coeffs, table, table, _NORM)


def _coordinates(alphas: np.ndarray) -> np.ndarray:
    """2 Re alpha, then 2 Im alpha, in one array: one Hermite recurrence serves both."""
    return 2.0 * np.concatenate([alphas.real, alphas.imag])


def _point_values(coeffs: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Values at scattered points: Hermite tables of both coordinates and a row sum."""
    table = hermite_functions(coeffs.shape[0], _coordinates(alphas))
    n = alphas.size
    return _NORM * np.einsum("an,an->n", table[:, :n], coeffs @ table[:, n:])


def _derivative_tables(size: int, u: np.ndarray):
    """psi_n(u), psi_n'(u) and psi_n''(u) for n < size, rows indexed by n.

    psi_n' = sqrt(n/2) psi_{n-1} - sqrt((n+1)/2) psi_{n+1} and
    psi_n'' = (u^2 - 2n - 1) psi_n, both exact.
    """
    table = hermite_functions(size + 1, u)
    n = np.arange(size)[:, None]
    values = table[:size]
    first = -np.sqrt((n + 1) / 2.0) * table[1:]
    first[1:] += np.sqrt(n[1:] / 2.0) * table[: size - 1]
    return values, first, (u * u - (2 * n + 1)) * values


def _product_jet(coeffs: np.ndarray, u_tables, v_tables, norm: float, scale: float):
    """Values, gradients (N, 2) and Hessians (N, 2, 2) in (Re alpha, Im alpha) of
    W = norm sum_ab C_ab u_a(x) v_b(y), x = scale Re alpha, y = scale Im alpha, from
    the tables (one column per point) of u_a, u_a', u_a'' and of v_b, v_b', v_b''."""
    h_u, d_u, dd_u = u_tables
    g_h, g_d, g_dd = (coeffs @ table for table in v_tables)

    def pair(x, y):
        return norm * np.einsum("an,an->n", x, y)

    h_uu, h_uv, h_vv = pair(dd_u, g_h), pair(d_u, g_d), pair(h_u, g_dd)
    grad = scale * np.stack([pair(d_u, g_h), pair(h_u, g_d)], axis=-1)
    hess = scale * scale * np.stack([np.stack([h_uu, h_uv], -1), np.stack([h_uv, h_vv], -1)], -2)
    return pair(h_u, g_h), grad, hess


def _point_jet(coeffs: np.ndarray, alphas: np.ndarray):
    """Values, gradients (N, 2) and Hessians (N, 2, 2) in (Re alpha, Im alpha)."""
    tables = _derivative_tables(coeffs.shape[0], _coordinates(alphas))
    n = alphas.size
    re, im = [table[:, :n] for table in tables], [table[:, n:] for table in tables]
    return _product_jet(coeffs, re, im, _NORM, 2.0)


def wigner_batch(rho: DensityMatrix, alphas: np.ndarray) -> np.ndarray:
    """Wigner values at an array of phase-space points."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    return _point_values(_coefficients(rho.matrix), alphas)


def wigner_jet(rho: DensityMatrix, alphas: np.ndarray):
    """Wigner values with their exact gradients and Hessians in (Re alpha, Im alpha).

    Differentiates the Hermite-product form term by term, exact for the
    truncated state.  Returns values (N,), gradients (N, 2), Hessians
    (N, 2, 2).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    return _point_jet(_coefficients(rho.matrix), alphas)


def _comb_coefficients(centers: np.ndarray, weights: np.ndarray, sigma2: float):
    """C, midpoints m_a, separations d_b and norm of W = norm sum_ab C_ab g_a(q) h_b(p).

    Peaks s and t add w_s w_t exp(-(q - mid)^2 / sigma^2) exp(-sigma^2 p^2)
    cos(p (mu_t - mu_s)); on a lattice mid depends only on a = s + t and the
    cosine only on b = |t - s|, so C is (2S - 1) x S.  The norm is
    2 sqrt(sigma^2 / pi) over the squared norm of the wavefunction.
    """
    mu = np.asarray(centers, dtype=float)
    w = np.asarray(weights, dtype=float)
    if mu.ndim != 1 or mu.size == 0 or mu.shape != w.shape:
        raise ValueError("centers and weights must be 1-D of one nonzero length")
    size = mu.size
    step = (mu[-1] - mu[0]) / max(size - 1, 1)
    # written so that NaN fails it too
    if not np.all(np.abs(np.diff(mu) - step) <= 1e-12 * abs(step)):
        raise ValueError("the comb's centers must be equally spaced")
    s, t = np.triu_indices(size)
    coeffs = np.zeros((2 * size - 1, size))
    coeffs[s + t, t - s] = np.where(t > s, 2.0, 1.0) * w[s] * w[t]
    # m_a from a central pair, d_b from the mean step: these track the pair sums best
    a = np.arange(2 * size - 1)
    mid = 0.5 * (mu[a // 2] + mu[(a + 1) // 2])
    sep = step * np.arange(size)
    norm = 2.0 / (np.pi * (coeffs.sum(axis=0) @ np.exp(-(sep**2) / (4.0 * sigma2))))
    return coeffs, mid, sep, norm


def comb_evaluators(centers: np.ndarray, weights: np.ndarray, sigma2: float):
    """Exact Wigner evaluators of a real comb of equally spaced, equal-width Gaussians.

    The wavefunction sum_s w_s exp(-(x - mu_s)^2 / (2 sigma^2)) has a
    closed-form Wigner function; no Fock truncation enters, so this is the
    reference evaluator for grid-code states at arbitrary effective energy.
    Returns the pair (values, jet), which share one coefficient matrix, so a
    depth search builds it once.  ``values(axis)`` gives the Wigner values
    on the square grid over ``axis`` (q = sqrt(2) Re alpha and
    p = sqrt(2) Im alpha), raveled as :func:`_grid_points`, as one product
    of a Gaussian table of n (2S - 1) and a cosine table of n S entries, for
    S peaks and n axis points.  ``jet(alphas)`` gives the values (N,) with
    their exact gradients (N, 2) and Hessians (N, 2, 2) in
    (Re alpha, Im alpha), differentiating both tables in closed form.
    Raises ValueError unless the centers are equally spaced and as many as
    the weights.
    """
    coeffs, mid, sep, norm = _comb_coefficients(centers, weights, sigma2)

    def values(axis: np.ndarray) -> np.ndarray:
        x = np.sqrt(2.0) * np.asarray(axis, dtype=float)
        gauss = np.exp(-((x - mid[:, None]) ** 2) / sigma2)
        osc = np.exp(-sigma2 * x**2) * np.cos(sep[:, None] * x)
        return _grid_product(coeffs, gauss, osc, norm)

    def jet(alphas: np.ndarray):
        alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
        dq = np.sqrt(2.0) * alphas.real - mid[:, None]
        g = np.exp(-(dq**2) / sigma2)
        gauss = (g, (-2.0 / sigma2) * dq * g, (4.0 * dq**2 / sigma2**2 - 2.0 / sigma2) * g)
        # with tp = 2 sigma^2 p, the p-derivatives of exp(-sigma^2 p^2) cos(p d) are
        # exp(-sigma^2 p^2) (-tp cos - d sin), then ((tp^2 - 2 sigma^2 - d^2) cos + 2 tp d sin)
        p = np.sqrt(2.0) * alphas.imag
        d = sep[:, None]
        tp = 2.0 * sigma2 * p
        damp = np.exp(-sigma2 * p**2)
        cos, sin = damp * np.cos(d * p), damp * np.sin(d * p)
        osc = (cos, -tp * cos - d * sin, (tp**2 - 2.0 * sigma2 - d**2) * cos + 2.0 * tp * d * sin)
        # alpha = (q + i p)/sqrt(2): d/dRe alpha = sqrt(2) d/dq, d/dIm alpha = sqrt(2) d/dp
        return _product_jet(coeffs, gauss, osc, norm, np.sqrt(2.0))

    return values, jet


@dataclass(frozen=True)
class WignerGrid:
    """Wigner values on a square grid of phase-space points.

    Points whose displacement would leak beyond the truncation guard are
    dropped (listed in ``dropped``), never fabricated.
    """

    centers: np.ndarray
    values: np.ndarray
    radius: float
    resolution: int
    dropped: np.ndarray
    leakage: float

    @property
    def cell_area(self) -> float:
        step = self.radius / self.resolution
        return step * step

    def integral(self) -> float:
        """Plane integral over the kept cells."""
        return float(np.sum(self.values) * self.cell_area)

    def min_value(self) -> float:
        return float(np.min(self.values))

    def max_value(self) -> float:
        return float(np.max(self.values))

    def to_rows(self):
        for c, v in zip(self.centers, self.values):
            yield (float(c.real), float(c.imag), float(v))


def default_radius(rho: DensityMatrix) -> float:
    """Search disc tied to the state energy: 3 sqrt(<n>) + 2."""
    return 3.0 * math.sqrt(max(rho.mean_photon_number(), 0.0)) + 2.0


def _square_axis(radius: float, resolution: int) -> np.ndarray:
    return np.linspace(-radius, radius, 2 * resolution + 1)


def _grid_points(axis: np.ndarray) -> np.ndarray:
    """The square grid over ``axis``, Re alpha the slow index."""
    return (axis[:, None] + 1j * axis[None, :]).ravel()


def _check_bound(values: np.ndarray) -> None:
    # written so that NaN fails it too
    if not np.all(np.abs(values) <= WIGNER_BOUND + _BOUND_SLACK):
        raise InvariantError("Wigner value outside [-2/pi, 2/pi] or not finite")


def wigner_grid(
    rho: DensityMatrix,
    radius: float | None = None,
    resolution: int = 40,
    validate_marginal: bool = True,
) -> WignerGrid:
    """Wigner function on a (2*resolution+1)^2 square grid.

    The numerically integrated x-marginal is checked against the quadrature
    distribution <x|rho|x> on fully kept grid columns (tolerance 2e-3).
    """
    if radius is None:
        radius = default_radius(rho)
    axis = _square_axis(radius, resolution)
    centers = _grid_points(axis)
    guard = coherent_tail_mass(centers, rho.dim) <= DISPLACEMENT_TAIL_TOL
    table = _grid_values(_coefficients(rho.matrix), axis)
    values = table[guard]
    _check_bound(values)
    grid = WignerGrid(
        centers=centers[guard],
        values=values,
        radius=float(radius),
        resolution=int(resolution),
        dropped=centers[~guard],
        leakage=rho.leakage,
    )
    if validate_marginal:
        _marginal_check(rho, axis, table, guard, radius / resolution)
    return grid


def _marginal_check(
    rho: DensityMatrix,
    axis: np.ndarray,
    table: np.ndarray,
    guard: np.ndarray,
    step: float,
) -> None:
    """Integrate W over Im(alpha) and compare with sqrt(2) <x|rho|x>, on the grid
    columns (fixed Re alpha) with no dropped point."""
    n_axis = axis.size
    full = guard.reshape(n_axis, n_axis).all(axis=1)
    if not full.any():
        return
    marg = np.trapezoid(table.reshape(n_axis, n_axis)[full], dx=step, axis=1)
    basis = hermite_functions(rho.dim, np.sqrt(2.0) * axis[full])
    prob_x = np.real(np.einsum("nx,nm,mx->x", basis, rho.matrix, basis))
    ref = np.sqrt(2.0) * prob_x
    dev = float(np.max(np.abs(marg - ref)))
    if dev > MARGINAL_TOL:
        raise InvariantError(
            f"Wigner x-marginal deviates from the quadrature distribution by "
            f"{dev:.3e} > {MARGINAL_TOL:.1e}; raise the grid resolution or radius"
        )


@dataclass(frozen=True)
class DepthSearchConfig:
    """Grid scan plus lockstep Newton refinement settings for the depth search.

    The grid is (2*resolution + 1)^2 points over the square of half-width
    ``radius`` (None: :func:`default_radius` of the state); the
    ``refine_top`` lowest grid points seed the refinement.
    """

    radius: float | None = None
    resolution: int = 40
    refine_top: int = 5

    def __post_init__(self):
        _whole_fields(self, "resolution", "refine_top")
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")


@dataclass(frozen=True)
class NegativityDepthResult:
    """The depth found, where, and whether every refined seed became stationary.

    ``wigner_at`` maps a 1-D complex array of points to the Wigner values
    there, on the searched operator's own coefficient matrix by the
    :func:`wigner_batch` route, bit-identical to ``wigner_batch(rho, points)``:
    a caller that needs W at ``argmin_alpha`` makes no second build.  It is
    None from :func:`negativity_depth_fn`, whose evaluators have no such
    route.
    """

    depth: float
    argmin_alpha: complex
    refinement_converged: bool
    wigner_at: Callable[[np.ndarray], np.ndarray] | None

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.depth > WIGNER_BOUND + _BOUND_SLACK:
            raise ValueError("depth exceeds the Wigner bound 2/pi")


# refinement: stationary once |grad W| <= _GRAD_TOL (a step that small lowers
# W by ~|grad|^2 / curvature, below the last digit of a bound) or once the
# trust radius has collapsed below _MIN_RADIUS; at most _MAX_STEPS steps
_GRAD_TOL = 1e-10
_MIN_RADIUS = 1e-9
_MAX_STEPS = 40


def _trust_step(grad: np.ndarray, hess: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Newton steps where the Hessian is positive definite, else Cauchy steps
    along -grad; each clipped to its trust radius.  Shapes (k, 2), (k, 2, 2), (k,);
    every grad is nonzero."""
    h00, h01, h11 = hess[:, 0, 0], hess[:, 0, 1], hess[:, 1, 1]
    det = h00 * h11 - h01 * h01
    pos_def = (h00 > 0) & (det > 0)
    newton = -np.stack(
        [h11 * grad[:, 0] - h01 * grad[:, 1], h00 * grad[:, 1] - h01 * grad[:, 0]], axis=1
    ) / np.where(pos_def, det, 1.0)[:, None]
    gg = np.sum(grad * grad, axis=1)
    curv = np.einsum("ki,kij,kj->k", grad, hess, grad)
    # along -grad: the quadratic model's minimum, or the trust radius if it has none
    along = np.where(curv > 0, gg / np.where(curv > 0, curv, 1.0), radius / np.sqrt(gg))
    step = np.where(pos_def[:, None], newton, -grad * along[:, None])
    length = np.hypot(step[:, 0], step[:, 1])
    return step * np.minimum(1.0, radius / length)[:, None]


def _refine(jet_fn, seeds: np.ndarray, radius: float):
    """Lockstep trust-region Newton descent from every seed at once.

    One ``jet_fn`` call per step evaluates the trial points of all seeds not
    yet stationary.  A step is accepted only if it lowers W; otherwise that
    seed's radius shrinks to a quarter of the rejected step.  Returns the
    final points, their values and a per-seed stationarity flag.
    """
    x = np.array(seeds, dtype=complex)
    f, grad, hess = jet_fn(x)
    radii = np.full(x.size, radius)

    def stationary():
        return (np.hypot(grad[:, 0], grad[:, 1]) <= _GRAD_TOL) | (radii < _MIN_RADIUS)

    for _ in range(_MAX_STEPS):
        live = np.flatnonzero(~stationary())
        if live.size == 0:
            break
        step = _trust_step(grad[live], hess[live], radii[live])
        trial = x[live] + (step[:, 0] + 1j * step[:, 1])
        f_t, grad_t, hess_t = jet_fn(trial)
        better = f_t < f[live]
        moved = live[better]
        x[moved], f[moved], grad[moved], hess[moved] = (
            trial[better],
            f_t[better],
            grad_t[better],
            hess_t[better],
        )
        radii[live[~better]] = np.hypot(step[~better, 0], step[~better, 1]) / 4.0
    return x, f, stationary()


def _lowest(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k lowest values, lowest first, ties by index: the first k
    of a stable argsort, without sorting the rest."""
    if k >= values.size:
        return np.argsort(values, kind="stable")
    kth = np.partition(values, k - 1)[k - 1]
    at_most = np.flatnonzero(values <= kth)
    return at_most[np.argsort(values[at_most], kind="stable")[:k]]


def negativity_depth_fn(
    value_fn, jet_fn, radius: float, cfg: DepthSearchConfig | None = None
) -> NegativityDepthResult:
    """Depth search against an arbitrary batched Wigner evaluator.

    ``value_fn`` maps a real axis to the Wigner values on the square grid
    over it, raveled as :func:`_grid_points`, and scans the grid; ``jet_fn``
    maps complex points to (values, gradients (N, 2), Hessians (N, 2, 2)) in
    (Re alpha, Im alpha) and drives the refinement.  Shared by the
    density-matrix search and the exact comb evaluator.
    """
    if cfg is None:
        cfg = DepthSearchConfig()
    axis = _square_axis(radius, cfg.resolution)
    centers = _grid_points(axis)
    values = value_fn(axis)
    _check_bound(values)
    order = _lowest(values, cfg.refine_top)
    step = radius / cfg.resolution
    points, refined, stationary = _refine(jet_fn, centers[order], step / 2.0)

    candidates = [(float(values[order[0]]), complex(centers[order[0]]))]
    candidates += [(float(v), complex(a)) for v, a in zip(refined, points)]
    best_val = min(v for v, _ in candidates)
    ties = [a for v, a in candidates if v <= best_val + 1e-12]
    argmin = min(ties, key=lambda a: abs(a))
    depth = max(0.0, -best_val)
    if depth <= 1e-14:
        # negativity at machine-noise level certifies nothing; report a
        # clean zero with the canonical origin witness
        depth = 0.0
        argmin = 0j
    return NegativityDepthResult(
        depth=min(depth, WIGNER_BOUND),
        argmin_alpha=argmin,
        refinement_converged=bool(np.all(stationary)),
        wigner_at=None,
    )


def negativity_depth(
    rho: DensityMatrix, cfg: DepthSearchConfig | None = None
) -> NegativityDepthResult:
    """Largest negative Wigner value max_alpha [-W(alpha)]_+ .

    Deterministic grid scan (values only), then a lockstep trust-region
    Newton refinement of the best grid points on the exact gradient and
    Hessian of :func:`wigner_jet`; the result is a certified lower bound on
    the true depth, never below the grid minimum.  Ties between refined
    optima break toward the largest depth, then the smallest |alpha|.  The
    scan, the refinement and the result's ``wigner_at`` share one
    coefficient matrix.
    """
    if cfg is None:
        cfg = DepthSearchConfig()
    radius = cfg.radius if cfg.radius is not None else default_radius(rho)
    coeffs = _coefficients(rho.matrix)
    res = negativity_depth_fn(
        lambda axis: _grid_values(coeffs, axis), lambda pts: _point_jet(coeffs, pts), radius, cfg
    )
    return dataclasses.replace(res, wigner_at=lambda alphas: _point_values(coeffs, alphas))
