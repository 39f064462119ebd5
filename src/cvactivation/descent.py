"""Lockstep trust-region Newton descent on exact jets.

One descent serves the package's two searches: the Gaussian fit of
:func:`~cvactivation.witnesses.gaussian_fidelity` (-log F over four chart
coordinates, three for a number state) and the negativity-depth search of
:func:`~cvactivation.wigner.negativity_depth_fn` (W over (Re alpha, Im alpha)).
Each passes a batched jet, its starts as rows with their values, the starting
trust radius, a step cap and the value at which it may stop.
"""

from __future__ import annotations

import numpy as np

# a start is stationary once |grad| <= _GRAD_TOL (a step that small lowers the
# value by ~|grad|^2 / curvature, below the last digit of a bound) or once its
# trust radius has collapsed below _MIN_RADIUS; a step is accepted when it
# realises more than _ACCEPT of its predicted decrease
_GRAD_TOL = 1e-10
_MIN_RADIUS = 1e-9
_ACCEPT = 0.15
# at most this many Newton steps on the shift sigma of a boundary step
_SECULAR_STEPS = 30


def trust_steps(grad: np.ndarray, hess: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Minimisers of the model g.p + p.H.p / 2 over |p| <= radius, one per row;
    shapes (k, n), (k, n, n), (k,), every g nonzero.

    From each H's eigensystem (Nocedal and Wright, Numerical Optimization,
    section 4.3): the Newton step where H is positive definite and the step
    fits inside the radius; else p = -(H + sigma I)^-1 g on the boundary,
    with sigma > max(0, -lambda_min) found by Newton's method on
    1 / |p(sigma)|.  Where even the least shift leaves p inside (g has no
    part along the lowest eigenvector), that p is the step.  A plain Cauchy
    step would not do: symmetries make H singular along whole orbits (the
    depth search's ring minima, where W of a Fock-diagonal rho is the same
    at every phase of alpha), and descent along -g alone then converges only
    linearly.
    """
    vals, vecs = np.linalg.eigh(hess)
    coef = -np.einsum("kji,kj->ki", vecs, grad)  # the step is vecs @ (coef / (vals + sigma))
    lowest = vals[:, 0]
    sigma = np.where(lowest > 0.0, 0.0, 1e-12 * (1.0 + np.abs(vals).max(1)) - lowest)
    for _ in range(_SECULAR_STEPS):
        shifted = coef / (vals + sigma[:, None])
        length = np.linalg.norm(shifted, axis=1)
        outside = length > radius * (1.0 + 1e-3)
        if not outside.any():
            break
        slope = np.sum(shifted * shifted / (vals + sigma[:, None]), axis=1)
        sigma = np.where(outside, sigma + length * length / slope * (length - radius) / radius, sigma)
    step = np.einsum("kij,kj->ki", vecs, coef / (vals + sigma[:, None]))
    return step * np.minimum(1.0, radius / np.linalg.norm(step, axis=1))[:, None]


def lockstep_newton(
    jet, starts: np.ndarray, values: np.ndarray, radius: float, maxiter: int, enough: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Trust-region Newton descent from every start at once, with the radius
    rule of Nocedal and Wright's Algorithm 4.1.

    ``jet`` maps points (k, n) to values (k,), gradients (k, n) and Hessians
    (k, n, n); ``values`` are the caller's values of ``starts``.  If some
    value is at or below ``enough``, the starts are returned with those
    values, none stationary, after 0 steps and no ``jet`` call.  Else one
    ``jet`` call at the starts replaces the given values, and one per step
    evaluates the trial points of all starts not yet stationary.  Every
    start's trust radius begins at ``radius``.  A step is accepted only if
    it realises more than ``_ACCEPT`` of the decrease its model predicts and
    its value is below the start's: the ratio alone would pass a rise
    wherever rounding makes the predicted decrease non-positive.  So no
    start's value ever rises.  A step that realises less than a quarter
    shrinks the radius to a quarter of its length; one on the boundary that
    realises more than three quarters doubles it.  A start whose value or
    derivatives are not finite is dropped.
    The descent stops as soon as some start's value is at or below
    ``enough``, so a caller that only needs the least value to reach a level
    passes that level; one that needs the minimum passes -inf.
    Returns the final points, their values, a per-start stationarity flag
    and the number of steps run, at most ``maxiter``.
    """
    x = np.array(starts, dtype=float)
    if (values <= enough).any():
        return x, values, np.zeros(len(x), dtype=bool), 0
    f, grad, hess = jet(x)
    radii = np.full(len(x), radius)

    def status() -> tuple[np.ndarray, np.ndarray]:
        """(stationary, live) per start."""
        finite = np.isfinite(f) & np.isfinite(grad).all(1) & np.isfinite(hess).all((1, 2))
        done = (np.linalg.norm(grad, axis=1) <= _GRAD_TOL) | (radii < _MIN_RADIUS)
        return finite & done, finite & ~done

    steps = 0
    while True:
        stationary, live = status()
        live = np.flatnonzero(live)
        if live.size == 0 or steps >= maxiter or (f <= enough).any():
            break
        steps += 1
        step = trust_steps(grad[live], hess[live], radii[live])
        trial = x[live] + step
        f_t, grad_t, hess_t = jet(trial)
        predicted = -np.einsum("ki,ki->k", step, grad[live] + 0.5 * np.einsum("kij,kj->ki", hess[live], step))
        before = f[live]
        realised = (before - f_t) / predicted  # NaN or -inf where the trial is not finite
        length = np.linalg.norm(step, axis=1)
        boundary = (realised > 0.75) & (length >= 0.99 * radii[live])
        radii[live] = np.where(realised >= 0.25, np.where(boundary, 2.0, 1.0) * radii[live], length / 4.0)
        better = (realised > _ACCEPT) & (f_t < before)
        moved = live[better]
        x[moved], f[moved], grad[moved], hess[moved] = trial[better], f_t[better], grad_t[better], hess_t[better]
    return x, f, stationary, steps
