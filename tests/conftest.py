import functools
import math
import sys

import numpy as np
import pytest
from scipy.special import gammaln, roots_hermite, xlogy

from cvactivation.activation import ActivationOutcome
from cvactivation.channels import KrausChannel
from cvactivation.fock import (
    DISPLACEMENT_TAIL_TOL,
    DensityMatrix,
    OperatorMatrix,
    _dim,
    _quadrature_eigensystem,
    annihilation_matrix,
    checked_coherent_tail,
    parity_op,
)
from cvactivation.states import gaussian_amps, gaussian_mass, hermite_functions
from cvactivation.witnesses import check_box


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_density(rng, dim, cutoff=None, rank=None):
    """Ginibre-random density matrix supported on the first ``dim`` levels."""
    cutoff = dim if cutoff is None else cutoff
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    m /= np.real(np.trace(m))
    full = np.zeros((cutoff, cutoff), dtype=complex)
    full[:dim, :dim] = m
    return DensityMatrix(full)


def _post_measurement(rho4: np.ndarray, direction: np.ndarray) -> np.ndarray:
    n = direction / np.linalg.norm(direction)
    sig = np.array(
        [
            [n[2], n[0] - 1j * n[1]],
            [n[0] + 1j * n[1], -n[2]],
        ]
    )
    out = np.zeros(rho4.shape, dtype=complex)
    for s in (+1.0, -1.0):
        proj = np.kron((np.eye(2) + s * sig) / 2.0, np.eye(2))
        out += proj @ rho4 @ proj
    return out


def projective_discord(rho4: np.ndarray, n_starts: int = 24) -> float:
    """Oracle: geometric discord by brute-force minimization over measurement axes.

    Minimizes the squared Hilbert-Schmidt distance to the post-measurement
    state over projective measurements on the first qubit, seeded on a
    Fibonacci sphere and polished with Nelder-Mead.
    """
    from scipy.optimize import minimize

    def dist2(angles) -> float:
        theta, phi = angles
        n = np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )
        diff = rho4 - _post_measurement(rho4, n)
        return float(np.real(np.sum(np.abs(diff) ** 2)))

    golden = math.pi * (3.0 - math.sqrt(5.0))
    seeds = []
    for i in range(n_starts):
        z = 1.0 - 2.0 * (i + 0.5) / n_starts
        theta = math.acos(max(-1.0, min(1.0, z)))
        seeds.append((theta, (golden * i) % (2.0 * math.pi)))
    vals = sorted((dist2(s), s) for s in seeds)
    best = vals[0][0]
    for _, seed in vals[:3]:
        res = minimize(dist2, x0=seed, method="Nelder-Mead", options={"fatol": 1e-12})
        best = min(best, float(res.fun))
    return best


def povm_from_witness(w: OperatorMatrix) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Oracle: the two-outcome POVM (I + W)/2, (I - W)/2 of a unit-box witness,
    which the activation channel measures."""
    check_box(w)
    eye = np.eye(w.dim)
    m_plus = OperatorMatrix((eye + w.matrix) / 2.0, hermitian=True)
    m_minus = OperatorMatrix((eye - w.matrix) / 2.0, hermitian=True)
    return m_plus, m_minus


def discord_certificate(outcome: ActivationOutcome) -> bool:
    """True certifies a resourceful input; False is inconclusive.

    Free inputs reach discord up to 1/18 through the activation channel,
    so only D > 1/18 certifies anything.
    """
    return outcome.discord > 1.0 / 18.0


def laguerre_clenshaw(order: int, x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Oracle: Clenshaw sum of sum_n c_n (-1)^n sqrt(order! n!/(order+n)!) L_n^order(x).

    One order at a time.  ``coeffs`` is a stack (k, L) of coefficient rows
    with L >= 2; the result holds one row of sums per stacked row, shape
    (k, len(x)).
    """
    ones = np.ones_like(x, dtype=complex)
    k = coeffs.shape[1]
    y0 = coeffs[:, -2, None] * ones
    y1 = coeffs[:, -1, None] * ones
    for i in range(3, coeffs.shape[1] + 1):
        k -= 1
        y0, y1 = (
            coeffs[:, -i, None]
            - y1 * math.sqrt(((k - 1) * (order + k - 1)) / ((order + k) * k)),
            y0 - y1 * ((order + 2 * k - 1) - x) / math.sqrt((order + k) * k),
        )
    return y0 - y1 * ((order + 1) - x) / math.sqrt(order + 1)


def wigner_stack_per_order(mats: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Oracle: (2/pi) Tr[Pi(alpha) H] for a stack (k, d, d) of Hermitian H; shape (k, N).

    The per-order route: one :func:`laguerre_clenshaw` over all N points per
    diagonal of the occupied block, combined over the orders by Horner steps.
    """
    nonzero = mats != 0
    occupied = np.flatnonzero(nonzero.any(axis=(0, 1)) | nonzero.any(axis=(0, 2)))
    dim = max(2, int(occupied[-1]) + 1) if occupied.size else 2
    mats = mats[:, :dim, :dim]
    a2 = 2.0 * alphas
    b = np.abs(a2) ** 2
    doubled = mats * (2.0 - np.eye(dim))
    w = 2.0 * mats[:, 0, dim - 1, None] * np.ones_like(b, dtype=complex)
    for order in range(dim - 2, -1, -1):
        diag = np.diagonal(doubled, order, axis1=1, axis2=2)
        w = laguerre_clenshaw(order, b, diag) + w * a2 / math.sqrt(order + 1)
    return (2.0 / math.pi) * np.real(w) * np.exp(-b / 2.0)


def bopp_jet(rho: DensityMatrix, alphas: np.ndarray):
    """Oracle: Wigner values, gradients and Hessians in (Re alpha, Im alpha) by the
    Bopp identities dW_X/dalpha* = 2(W_aX - alpha W_X), dW_X/dalpha =
    2(W_Xa^dag - alpha* W_X), evaluated by :func:`wigner_stack_per_order` on
    rho and the Hermitian parts of a rho, a^2 rho and a rho a^dag at the full
    cutoff.  Returns values (N,), gradients (N, 2), Hessians (N, 2, 2).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    lower = annihilation_matrix(rho.dim)
    a_rho = lower @ rho.matrix
    aa_rho = lower @ a_rho

    def parts(x):
        return (x + x.conj().T) / 2.0, (x - x.conj().T) / 2j

    stack = np.array([rho.matrix, *parts(a_rho), *parts(aa_rho), a_rho @ lower.conj().T])
    w, a_re, a_im, aa_re, aa_im, w_ara = wigner_stack_per_order(stack, alphas)
    w_a = a_re + 1j * a_im
    w_aa = aa_re + 1j * aa_im
    # dW/dalpha*, d^2W/dalpha*^2 and d^2W/dalpha dalpha*
    d_conj = 2.0 * (w_a - alphas * w)
    d_conj2 = 4.0 * w_aa - 8.0 * alphas * w_a + 4.0 * alphas**2 * w
    d_mixed = (
        4.0 * w_ara - 8.0 * np.real(alphas.conj() * w_a) - 2.0 * w + 4.0 * np.abs(alphas) ** 2 * w
    )
    # d/dRe = d/dalpha + d/dalpha*, d/dIm = i (d/dalpha - d/dalpha*), W real
    grad = 2.0 * np.stack([d_conj.real, d_conj.imag], axis=-1)
    h_rr = 2.0 * (d_mixed + d_conj2.real)
    h_ri = 2.0 * d_conj2.imag
    h_ii = 2.0 * (d_mixed - d_conj2.real)
    hess = np.stack([np.stack([h_rr, h_ri], -1), np.stack([h_ri, h_ii], -1)], -2)
    return w, grad, hess


def displacement_op(
    alpha: complex,
    cutoff: int,
    tail_tol: float = DISPLACEMENT_TAIL_TOL,
) -> OperatorMatrix:
    """Oracle: Weyl displacement exp(alpha a^dag - alpha* a) on the truncated space.

    With alpha = |alpha| e^{i theta} the generator is R (-i sqrt(2) |alpha| p) R^dag,
    R = exp(i theta n), so the exact exponential of the truncated generator is
    R V_p exp(-i sqrt(2) |alpha| Lambda_p) V_p^dag R^dag from the cached
    eigensystem of the truncated p.  Refused with a TruncationError when the
    coherent state |alpha> leaks more than ``tail_tol`` above the cutoff.
    """
    dim = _dim(cutoff)
    checked_coherent_tail(alpha, dim, tail_tol, "displacement")
    if alpha == 0:
        return OperatorMatrix(np.eye(dim, dtype=complex), hermitian=False)
    _, (pvals, pvecs) = _quadrature_eigensystem(dim)
    rot = np.exp(1j * np.angle(alpha) * np.arange(dim))[:, None]
    basis = rot * pvecs
    phases = np.exp(-1j * math.sqrt(2.0) * abs(alpha) * pvals)
    return OperatorMatrix((basis * phases) @ basis.conj().T, hermitian=False)


def displaced_parity_matrix(alpha: complex, cutoff) -> OperatorMatrix:
    """Oracle: D(alpha) Pi D(alpha)^dag; unitary conjugation keeps the spectrum +-1."""
    d = displacement_op(alpha, cutoff).matrix
    mat = d @ parity_op(cutoff).matrix @ d.conj().T
    return OperatorMatrix((mat + mat.conj().T) / 2.0, hermitian=True)


def wigner_at(rho: DensityMatrix, alpha: complex) -> float:
    """Oracle: (2/pi) Tr[Pi(alpha) rho] through the displaced parity operator."""
    val = rho.expectation(displaced_parity_matrix(alpha, rho.dim))
    assert abs(val.imag) <= 1e-10, f"Wigner value has imaginary part {val.imag:.3e}"
    return (2.0 / math.pi) * val.real


def unpack_chart(params):
    """The chart point (b, t) and mu^2 = 1/(1 - |t|^2) = 1 + |w|^2 of the fit's
    parameters (Re b, Im b, Re w, Im w), t = w / sqrt(1 + |w|^2)."""
    re_b, im_b, re_w, im_w = params
    mu2 = 1.0 + (re_w * re_w + im_w * im_w)
    return complex(re_b, im_b), complex(re_w, im_w) / math.sqrt(mu2), mu2


@functools.lru_cache(maxsize=4096)
def _long_expansion(b: complex, t: complex, mu2: float, dim: int):
    """First dim amplitudes of the Gaussian at (b, t) (c_0 = 1) and the sum
    of |c_n|^2 over N levels, N doubled from 2 dim until a doubling adds less
    than 1e-16 of the sum; None where the closed-form mass overflows."""
    if gaussian_mass(b, t, mu2) == math.inf:
        return None
    n_levels, total = dim, 0.0
    while True:
        n_levels *= 2
        amps = gaussian_amps(b, t, n_levels)
        total, last = float(np.sum(np.abs(amps) ** 2)), total
        if total - last < 1e-16 * total:
            return amps[:dim], total


def long_expansion_objective(psi):
    """Oracle: the Gaussian-fit objective -|<psi|G>|^2 over (Re b, Im b, Re w,
    Im w) through a long Fock expansion of G, normalised by the sum of its
    own levels; 0 where the closed-form mass of G overflows."""
    amps = psi.amplitudes

    def objective(params) -> float:
        expansion = _long_expansion(*unpack_chart(params), psi.dim)
        if expansion is None:
            return 0.0
        head, total = expansion
        return -abs(np.vdot(amps, head)) ** 2 / total

    return objective


def kraus_loss(eta: float, dim: int) -> KrausChannel:
    """Oracle: pure loss as dense Kraus elements sqrt((1-eta)^k/k!) eta^(n/2) a^k.

    Once the running factor (1-eta)^k/k! drops below the normal float range
    the remaining elements are diagonal bands sqrt(C(m+k, k) eta^m (1-eta)^k)
    taken from their logarithm.
    """
    a = annihilation_matrix(dim)
    damp = np.diag(np.power(eta, np.arange(dim) / 2.0)).astype(complex)
    ops = []
    a_power = np.eye(dim, dtype=complex)
    coeff = 1.0
    for k in range(dim):
        if coeff < sys.float_info.min and eta < 1.0:
            for j in range(k, dim):
                m = np.arange(dim - j)
                log_w = (
                    gammaln(m + j + 1) - gammaln(m + 1) - gammaln(j + 1)
                    + xlogy(m, eta) + j * math.log1p(-eta)
                )
                band = np.diag(np.exp(0.5 * log_w), j).astype(complex)
                ops.append(OperatorMatrix(band, hermitian=False))
            break
        if coeff > 0.0:
            ops.append(
                OperatorMatrix(math.sqrt(coeff) * damp @ a_power, hermitian=False)
            )
        a_power = a @ a_power
        coeff *= (1.0 - eta) / (k + 1)
        if not np.any(a_power):
            break
    return KrausChannel(tuple(ops), label=f"loss(eta={eta})")


def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights summing to one: the eigenvalues of the
    Jacobi matrix, off-diagonal sqrt(k/2), and the squared first components of
    its unit eigenvectors (Golub and Welsch, Math. Comp. 23, 221 (1969))."""
    nodes, vectors = np.linalg.eigh(np.diag(np.sqrt(np.arange(1, order) / 2.0), -1))
    return nodes, vectors[0] ** 2


def kraus_noise(sigma2: float, dim: int, order: int) -> KrausChannel:
    """Oracle: random displacement noise as a Gauss-Hermite mixture of displacements.

    rho -> sum_j w_j D(xi_j) rho D(xi_j)^dag with the 2-D product rule
    alpha_ij = sigma (t_i + i t_j) on the nodes t_i of :func:`gauss_hermite`,
    weights the products of its weights, normalized to sum to one.  Each
    truncated displacement is unitary on the truncated space, so the weight
    the noise carries above the cutoff is folded back in, not reported.
    """
    sigma = math.sqrt(sigma2)
    nodes, weights = gauss_hermite(order)
    w2 = np.outer(weights, weights).ravel()
    w2 = w2 / w2.sum()
    alphas = (sigma * (nodes[:, None] + 1j * nodes[None, :])).ravel()
    ops = tuple(
        OperatorMatrix(math.sqrt(w) * displacement_op(al, dim).matrix, hermitian=False)
        for w, al in zip(w2, alphas)
    )
    return KrausChannel(ops, label=f"gaussian_noise(sigma2={sigma2})")


def scipy_hermgauss_total(n):
    """The Gauss-Hermite nodes and total weights from scipy, the test oracle."""
    x = roots_hermite(n)[0]
    last = hermite_functions(n, x)[n - 1]
    lam = np.zeros_like(x)
    lam[last != 0.0] = 1.0 / (n * last[last != 0.0] ** 2)
    return x, lam
