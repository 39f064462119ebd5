"""Wigner-function evaluation and negativity-depth search.

Conventions: W(alpha) = (2/pi) Tr[Pi(alpha) rho] with Pi(alpha) the
displaced parity, alpha = (x + i p)/sqrt(2), so the vacuum Wigner function
is (2/pi) exp(-2|alpha|^2) and the integral over the complex plane is 1.

Density matrices have one production route: :func:`wigner_batch`
contracts the exact displaced-parity matrix elements Pi(alpha) =
D(2 alpha) Pi against rho through a stable column recurrence, exact for
the truncated state and fast on point batches.  The recurrence runs on
the state's occupied Fock block only, up to its last level with an
exactly nonzero entry, and once per distinct |alpha| with all Fock orders
in lockstep, so N points with M distinct radii cost O(k^2 M + k N) for a
block of k levels, not O(d^2 N) for the cutoff d.  Independent routes
live in the test suite as oracles: the defining expression (parity
conjugated by an explicit displacement), a Laguerre series and the same
recurrence run one order at a time.  The same recurrence,
run over a stack of operators, gives :func:`wigner_jet` the exact gradient
and Hessian through the Bopp identities.  For grid-code states,
:func:`wigner_pure_comb` evaluates the exact comb as one small matrix
product over the distinct q and p of its points, and
:func:`wigner_pure_comb_jet` gives its derivatives in closed form.

The negativity-depth search scans a grid with values only, then refines
its best points in lockstep by trust-region Newton steps on those exact
derivatives, one batched evaluator call per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .fock import (
    DISPLACEMENT_TAIL_TOL,
    DensityMatrix,
    _occupied_dim,
    _whole_fields,
    annihilation_matrix,
    coherent_tail_mass,
)
from .states import hermite_functions

WIGNER_BOUND = 2.0 / math.pi
_BOUND_SLACK = 1e-9


# entries in each lockstep buffer (stack x orders x points): 2^19 complex
# values, 8 MiB; larger batches run in chunks of points
_LOCKSTEP_ENTRIES = 1 << 19


def _clenshaw_orders(doubled: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw recurrences of every diagonal order of a stack, all orders in lockstep.

    Order o of the (k, d, d) stack sums sum_n c_n (-1)^n sqrt(o! n!/(o+n)!)
    L_n^o(x) over its diagonal c_n = doubled[:, n, n + o].  Returns the
    final pairs (y0, y1), each of shape (k, d - 1, len(x)); the sum of
    order o is y0[:, o] - y1[:, o] ((o + 1) - x) / sqrt(o + 1).

    Run one order at a time (the test oracle ``laguerre_clenshaw``), the
    recurrence of order o takes steps j = d - 3 - o down to 0, step j adds
    coefficient c_j, and its factors depend on (o, j) only.  So step j,
    run from d - 3 down to 0, advances the prefix of orders o <= d - 3 - j
    at once: one numpy call per operation, and per element the same
    operations in the same order, so the sums are bit-identical.
    """
    dim = doubled.shape[-1]
    ones = np.ones_like(x, dtype=complex)
    # order o starts from its last two coefficients, at rows d-2-o and d-1-o
    y0 = doubled[:, dim - 2 :: -1, dim - 2, None] * ones
    y1 = doubled[:, dim - 1 : 0 : -1, dim - 1, None] * ones
    if dim > 2:
        orders = np.arange(dim - 1)[:, None]
        k = np.arange(2, dim)[None, :]  # k = j + 2 at step j, as in the per-order loop
        shift = np.sqrt(((k - 1) * (orders + k - 1)) / ((orders + k) * k))[:, :, None]
        centre = (orders + 2 * k - 1).astype(float)[:, :, None]
        scale = np.sqrt(((orders + k) * k).astype(float))[:, :, None]
        # the orders above the active prefix keep their starting pair in both
        # y1 buffers, so swapping them never loses a start
        spare = y1.copy()
        arg = np.empty((dim - 1, x.size))
        for j in range(dim - 3, -1, -1):
            p = dim - 2 - j
            y0p, y1p, new_y1, argp = y0[:, :p], y1[:, :p], spare[:, :p], arg[:p]
            np.subtract(centre[:p, j], x, out=argp)
            np.multiply(y1p, argp, out=new_y1)
            np.divide(new_y1, scale[:p, j], out=new_y1)
            np.subtract(y0p, new_y1, out=new_y1)
            np.multiply(y1p, shift[:p, j], out=y0p)
            np.subtract(doubled[:, j, j : dim - 2, None], y0p, out=y0p)
            y1, spare = spare, y1
    return y0, y1


def _wigner_points(doubled: np.ndarray, corner: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """:func:`_wigner_stack` on a batch of points, given the doubled block and
    its scaled corner column; shape (k, N)."""
    dim = doubled.shape[-1]
    a2 = 2.0 * alphas
    b = np.abs(a2) ** 2
    if dim == 2:
        # one order and no recurrence steps: nothing to share between points
        x, at = b, slice(None)
    else:
        x, at = np.unique(b, return_inverse=True)
    y0, y1 = _clenshaw_orders(doubled, x)
    w = corner * np.ones_like(b, dtype=complex)
    for order in range(dim - 2, -1, -1):
        clen = y0[:, order] - y1[:, order] * ((order + 1) - x) / math.sqrt(order + 1)
        w = clen[:, at] + w * a2 / math.sqrt(order + 1)
    return (2.0 / math.pi) * np.real(w) * np.exp(-b / 2.0)


def _wigner_stack(mats: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """(2/pi) Tr[Pi(alpha) H] for a stack (k, d, d) of Hermitian H; shape (k, N).

    A Clenshaw recurrence over the diagonals of each H evaluates the
    Fock-basis Laguerre series of the displaced parity; it is numerically
    stable and exact for operators supported below the cutoff.  The sums
    depend on |alpha| only, so they run once per distinct radius, for all
    orders in lockstep (:func:`_clenshaw_orders`), and a Horner pass over
    the orders combines them at every point.

    The stack is first cut to its occupied block, levels 0..k-1 with k-1
    the last level that holds an exactly nonzero entry anywhere in the
    stack (k >= 2).  The levels above add only exact zeros, and the full
    recurrence of each diagonal reaches the cut one's starting pair of
    coefficients before any nonzero one enters, so the values are
    bit-identical.  The cost is O(k^2 M + k N) for N points with M
    distinct radii, not O(d^2 N).

    The lockstep buffers hold stack x (k - 1) x points entries; batches
    above ``_LOCKSTEP_ENTRIES`` run in chunks of points taken in radius
    order, so that each chunk keeps its repeated radii.
    """
    dim = _occupied_dim(mats)
    mats = mats[:, :dim, :dim]
    doubled = mats * (2.0 - np.eye(dim))
    corner = 2.0 * mats[:, 0, dim - 1, None]
    if dim == 2 or (dim - 1) * len(mats) * alphas.size <= _LOCKSTEP_ENTRIES:
        return _wigner_points(doubled, corner, alphas)
    out = np.empty((len(mats), alphas.size))
    ranked = np.argsort(np.abs(alphas), kind="stable")
    size = max(1, _LOCKSTEP_ENTRIES // ((dim - 1) * len(mats)))
    for start in range(0, alphas.size, size):
        chunk = ranked[start : start + size]
        out[:, chunk] = _wigner_points(doubled, corner, alphas[chunk])
    return out


def wigner_batch(rho: DensityMatrix, alphas: np.ndarray) -> np.ndarray:
    """Wigner values at an array of phase-space points."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    return _wigner_stack(rho.matrix[None], alphas)[0]


def _hessian(h_uu: np.ndarray, h_uv: np.ndarray, h_vv: np.ndarray) -> np.ndarray:
    """Stack per-point second derivatives into symmetric (N, 2, 2) Hessians."""
    return np.stack([np.stack([h_uu, h_uv], -1), np.stack([h_uv, h_vv], -1)], -2)


def _hermitian_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H1, H2 with x = H1 + i H2, so that W_x = W_H1 + i W_H2."""
    xh = x.conj().T
    return (x + xh) / 2.0, (x - xh) / 2j


def _jet_stack(matrix: np.ndarray) -> np.ndarray:
    """rho and the Hermitian parts of a rho, a^2 rho and a rho a^dag, on rho's occupied block."""
    dim = _occupied_dim(matrix[None])
    block = matrix[:dim, :dim]
    lower = annihilation_matrix(dim)
    a_rho = lower @ block
    aa_rho = lower @ a_rho
    return np.array(
        [block, *_hermitian_parts(a_rho), *_hermitian_parts(aa_rho), a_rho @ lower.conj().T]
    )


def wigner_jet(rho: DensityMatrix, alphas: np.ndarray):
    """Wigner values with their exact gradients and Hessians in (Re alpha, Im alpha).

    The derivatives are Wigner functions of the same kind (Bopp identities
    dW_X/dalpha* = 2(W_aX - alpha W_X), dW_X/dalpha = 2(W_Xa^dag - alpha* W_X)),
    so one stacked Clenshaw pass over rho and the Hermitian parts of
    a rho, a^2 rho and a rho a^dag gives all three orders.  The identities
    are exact for the truncated state: a rho, a^2 rho and a rho a^dag stay
    below the cutoff.  They also stay inside rho's occupied block, so the
    products are formed on that block.  Returns values (N,), gradients
    (N, 2), Hessians (N, 2, 2).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    w, a_re, a_im, aa_re, aa_im, w_ara = _wigner_stack(_jet_stack(rho.matrix), alphas)
    # W_X, dW/dalpha*, d^2W/dalpha*^2 and d^2W/dalpha dalpha* from the Bopp identities
    w_a = a_re + 1j * a_im
    w_aa = aa_re + 1j * aa_im
    d_conj = 2.0 * (w_a - alphas * w)
    d_conj2 = 4.0 * w_aa - 8.0 * alphas * w_a + 4.0 * alphas**2 * w
    d_mixed = (
        4.0 * w_ara - 8.0 * np.real(alphas.conj() * w_a) - 2.0 * w + 4.0 * np.abs(alphas) ** 2 * w
    )
    # d/dRe = d/dalpha + d/dalpha*, d/dIm = i (d/dalpha - d/dalpha*), W real
    grad = 2.0 * np.stack([d_conj.real, d_conj.imag], axis=-1)
    hess = _hessian(
        2.0 * (d_mixed + d_conj2.real), 2.0 * d_conj2.imag, 2.0 * (d_mixed - d_conj2.real)
    )
    return w, grad, hess


def _comb_pairs(centers: np.ndarray, weights: np.ndarray, sigma2: float):
    """Pair midpoints, separations, weight products and the norm of a comb."""
    mu = np.asarray(centers, dtype=float)
    w = np.asarray(weights, dtype=float)
    mid = 0.5 * (mu[:, None] + mu[None, :])
    diff = mu[None, :] - mu[:, None]
    ww = w[:, None] * w[None, :]
    norm = float(np.sum(ww * np.sqrt(np.pi * sigma2) * np.exp(-(diff**2) / (4.0 * sigma2))))
    return mid, diff, ww, norm


def wigner_pure_comb(
    centers: np.ndarray,
    weights: np.ndarray,
    sigma2: float,
    alphas: np.ndarray,
) -> np.ndarray:
    """Exact Wigner function of a real comb of equal-width Gaussians.

    The wavefunction sum_s w_s exp(-(x - mu_s)^2 / (2 sigma^2)) has a
    closed-form Wigner function built from pairwise Gaussian cross terms;
    no Fock truncation enters, so this is the reference evaluator for
    grid-code states at arbitrary effective energy.

    Each cross term is G(q; mid_st) C(p; diff_st): one matrix product of a
    Gaussian table over the distinct q with a cosine table over the distinct
    p gives an (n_q, n_p) table that the points gather from.  For S peaks it
    costs n_q n_p S^2: N S^2 on a tensor grid of N points, N^2 S^2 for N
    scattered ones, so keep scattered sets small.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    q, q_at = np.unique(np.sqrt(2.0) * alphas.real, return_inverse=True)
    p, p_at = np.unique(np.sqrt(2.0) * alphas.imag, return_inverse=True)
    mid, diff, ww, norm = _comb_pairs(centers, weights, sigma2)
    # cross term (s,t): (sigma/sqrt(pi)) exp(-(q-mid)^2/sigma^2 - sigma^2 p^2) cos(p diff)
    gauss_q = np.exp(-((q[:, None] - mid.ravel()) ** 2) / sigma2)
    osc_p = ww.ravel() * np.cos(p[:, None] * diff.ravel())
    osc_p *= (np.sqrt(sigma2 / np.pi) * np.exp(-sigma2 * p**2) / norm)[:, None]
    return 2.0 * (gauss_q @ osc_p.T)[q_at, p_at]


def wigner_pure_comb_jet(
    centers: np.ndarray,
    weights: np.ndarray,
    sigma2: float,
    alphas: np.ndarray,
):
    """:func:`wigner_pure_comb` with its exact gradients and Hessians in (Re alpha, Im alpha).

    Differentiates each Gaussian x cosine cross term in closed form.
    Returns values (N,), gradients (N, 2), Hessians (N, 2, 2).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    q = np.sqrt(2.0) * alphas.real
    p = np.sqrt(2.0) * alphas.imag
    mid, diff, ww, norm = _comb_pairs(centers, weights, sigma2)
    dq = q[:, None, None] - mid[None, :, :]
    gauss = ww * np.exp(-(dq**2) / sigma2)
    gauss_q = (-2.0 / sigma2) * dq * gauss
    gauss_qq = (4.0 * dq**2 / sigma2**2 - 2.0 / sigma2) * gauss
    phase = p[:, None, None] * diff[None, :, :]
    cos, sin = np.cos(phase), np.sin(phase)
    s0, s_q, s_qq, s_d, s_dd, s_qd = (
        np.sum(terms, axis=(1, 2))
        for terms in (
            gauss * cos,
            gauss_q * cos,
            gauss_qq * cos,
            gauss * diff * sin,
            gauss * diff**2 * cos,
            gauss_q * diff * sin,
        )
    )
    # with tp = 2 sigma^2 p, the p-derivatives of exp(-sigma^2 p^2) cos(p diff)
    # are exp(-sigma^2 p^2) times (-tp cos - diff sin), then
    # ((tp^2 - 2 sigma^2 - diff^2) cos + 2 tp diff sin)
    pref = 2.0 * np.sqrt(sigma2 / np.pi) * np.exp(-sigma2 * p**2) / norm
    tp = 2.0 * sigma2 * p
    w = pref * s0
    w_q = pref * s_q
    w_qq = pref * s_qq
    w_p = pref * (-tp * s0 - s_d)
    w_pp = pref * ((tp**2 - 2.0 * sigma2) * s0 - s_dd + 2.0 * tp * s_d)
    w_qp = pref * (-tp * s_q - s_qd)
    # alpha = (q + i p)/sqrt(2): d/dRe alpha = sqrt(2) d/dq, d/dIm alpha = sqrt(2) d/dp
    grad = np.sqrt(2.0) * np.stack([w_q, w_p], axis=-1)
    hess = 2.0 * _hessian(w_qq, w_qp, w_pp)
    return w, grad, hess


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
    leakage: float = 0.0

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


def _square_grid(radius: float, resolution: int) -> np.ndarray:
    axis = np.linspace(-radius, radius, 2 * resolution + 1)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    return (re + 1j * im).ravel()


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
    centers = _square_grid(radius, resolution)
    guard = coherent_tail_mass(centers, rho.dim) <= DISPLACEMENT_TAIL_TOL
    kept = centers[guard]
    dropped = centers[~guard]
    values = wigner_batch(rho, kept)
    _check_bound(values)
    grid = WignerGrid(
        centers=kept,
        values=values,
        radius=float(radius),
        resolution=int(resolution),
        dropped=dropped,
        leakage=rho.leakage,
    )
    if validate_marginal:
        _marginal_check(rho, grid)
    return grid


def _marginal_check(rho: DensityMatrix, grid: WignerGrid, tol: float = 2e-3) -> None:
    """Integrate W over Im(alpha) and compare with sqrt(2) <x|rho|x>."""
    n_axis = 2 * grid.resolution + 1
    re_vals, counts = np.unique(np.round(grid.centers.real, 12), return_counts=True)
    full_cols = re_vals[counts == n_axis]  # columns with no dropped points
    if full_cols.size == 0:
        return
    step = grid.radius / grid.resolution
    sel = np.isin(np.round(grid.centers.real, 12), full_cols)
    centers = grid.centers[sel]
    values = grid.values[sel]
    order = np.lexsort((centers.imag, centers.real))
    values = values[order].reshape(full_cols.size, n_axis)
    marg = np.trapezoid(values, dx=step, axis=1)
    x = np.sqrt(2.0) * full_cols
    basis = hermite_functions(rho.dim, x)
    prob_x = np.real(np.einsum("nx,nm,mx->x", basis, rho.matrix, basis))
    ref = np.sqrt(2.0) * prob_x
    dev = float(np.max(np.abs(marg - ref)))
    if dev > tol:
        raise InvariantError(
            f"Wigner x-marginal deviates from the quadrature distribution by "
            f"{dev:.3e} > {tol:.1e}; raise the grid resolution or radius"
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
    depth: float
    argmin_alpha: complex
    refinement_converged: bool

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

    ``value_fn`` maps an array of complex points to Wigner values and scans
    the grid; ``jet_fn`` maps points to (values, gradients (N, 2), Hessians
    (N, 2, 2)) in (Re alpha, Im alpha) and drives the refinement.  Shared
    by the density-matrix search and the exact comb evaluator.
    """
    if cfg is None:
        cfg = DepthSearchConfig()
    centers = _square_grid(radius, cfg.resolution)
    values = value_fn(centers)
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
    )


def negativity_depth(
    rho: DensityMatrix, cfg: DepthSearchConfig | None = None
) -> NegativityDepthResult:
    """Largest negative Wigner value max_alpha [-W(alpha)]_+ .

    Deterministic grid scan (values only), then a lockstep trust-region
    Newton refinement of the best grid points on the exact gradient and
    Hessian of :func:`wigner_jet`; the result is a certified lower bound on
    the true depth, never below the grid minimum.  Ties between refined
    optima break toward the largest depth, then the smallest |alpha|.
    """
    if cfg is None:
        cfg = DepthSearchConfig()
    radius = cfg.radius if cfg.radius is not None else default_radius(rho)
    return negativity_depth_fn(
        lambda pts: wigner_batch(rho, pts), lambda pts: wigner_jet(rho, pts), radius, cfg
    )
