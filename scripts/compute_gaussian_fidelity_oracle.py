#!/usr/bin/env python3
"""Dense-grid oracle for the maximal Gaussian fidelity of Fock and even cat states.

Brute-force scan over (|alpha|, r, phi) followed by local grid refinement;
the values frozen into tests/test_witnesses.py (FOCK1_GAUSSIAN_FIDELITY and
the gate on EVEN_CAT_GAUSSIAN_FIDELITY) come from this script.  The scan is
independent of the multistart optimizer it calibrates and of the package:
the target amplitudes and the Gaussian's are both computed here.
Displacements run along the real axis only, which covers every displacement
of a Fock state by its rotation symmetry.

Usage: python scripts/compute_gaussian_fidelity_oracle.py [--fock N | --cat ALPHA]
"""

import argparse
import math

import numpy as np

N_EXT = 320


def fock_amps(n):
    target = np.zeros(N_EXT)
    target[n] = 1.0
    return target


def even_cat_amps(alpha):
    """Normalized |alpha> + |-alpha>: alpha^n / sqrt(n!) on even n."""
    terms = np.zeros(N_EXT)
    term = 1.0
    for n in range(N_EXT):
        if n % 2 == 0:
            terms[n] = term
        term *= alpha / math.sqrt(n + 1)
    return terms / np.linalg.norm(terms)


def batch_overlap(target, alphas, rs, phis):
    """|<target|D(a)S(r e^{i phi})|0>|^2 for batched parameters, target real.

    Same annihilator recurrence as the library, over N_EXT levels, with the
    overlap and the norm accumulated as it runs so arbitrarily large batches
    fit in memory.
    """
    mu = np.cosh(rs)
    nu = np.exp(1j * phis) * np.sinh(rs)
    gamma = mu * alphas + nu * np.conj(alphas)
    c_prev = np.ones_like(gamma)
    c_cur = gamma / mu
    norm = np.abs(c_prev) ** 2 + np.abs(c_cur) ** 2
    overlap = target[0] * c_prev + target[1] * c_cur
    for n in range(1, N_EXT - 1):
        c_next = (gamma * c_cur - nu * np.sqrt(n) * c_prev) / (mu * np.sqrt(n + 1))
        norm += np.abs(c_next) ** 2
        if target[n + 1] != 0.0:
            overlap += target[n + 1] * c_next
        c_prev, c_cur = c_cur, c_next
    return np.abs(overlap) ** 2 / norm


def scan(target, mag_max=2.0, r_max=1.5):
    mags = np.linspace(0.0, mag_max, 81)
    rs = np.linspace(0.0, r_max, 61)
    phis = np.linspace(0.0, 2.0 * np.pi, 120, endpoint=False)
    grid_a, grid_r, grid_p = np.meshgrid(mags, rs, phis, indexing="ij")
    vals = batch_overlap(target, grid_a.ravel().astype(complex), grid_r.ravel(), grid_p.ravel())
    best = int(np.argmax(vals))
    a0, r0, p0 = grid_a.ravel()[best], grid_r.ravel()[best], grid_p.ravel()[best]
    value = vals[best]
    for scale in (0.05, 0.01, 0.002, 0.0004):
        mags2 = np.linspace(max(0.0, a0 - scale), a0 + scale, 21)
        rs2 = np.linspace(max(0.0, r0 - scale), r0 + scale, 21)
        phis2 = np.linspace(p0 - scale, p0 + scale, 21)
        ga, gr, gp = np.meshgrid(mags2, rs2, phis2, indexing="ij")
        vals2 = batch_overlap(target, ga.ravel().astype(complex), gr.ravel(), gp.ravel())
        best = int(np.argmax(vals2))
        a0, r0, p0 = ga.ravel()[best], gr.ravel()[best], gp.ravel()[best]
        value = vals2[best]
    return value, (a0, r0, p0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--fock", type=int, default=1, help="target Fock level")
    group.add_argument("--cat", type=float, help="target even cat |alpha> + |-alpha>, alpha real")
    args = parser.parse_args()
    if args.cat is None:
        label, target = f"|{args.fock}>", fock_amps(args.fock)
    else:
        label, target = f"the even cat alpha = {args.cat}", even_cat_amps(args.cat)
    value, (mag, r, phi) = scan(target)
    print(f"max Gaussian fidelity of {label}: {value:.10f}")
    print(f"argmax: displacement magnitude {mag:.6f}, r {r:.6f}, phi {phi:.6f}")


if __name__ == "__main__":
    main()
