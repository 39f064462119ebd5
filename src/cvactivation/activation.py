"""Witness-generated activation into two-qubit Werner correlations.

A witness W inside the unit box defines the POVM {(I +- W)/2}.  Measuring
it and preparing singlet vs. complementary ensembles produces a Werner
state whose entanglement (or steering, for the variant preparing the
maximally mixed state) equals the positive part of the witness violation:
E = [-Tr(W rho)]_+ / 2 and S = [-Tr(W rho)]_+ exactly.  Free inputs land
on separable / unsteerable outputs.

The two channels differ only in what they prepare, so :func:`activate`
values -Tr(W rho) once and returns both outcomes.  They are evaluated
deterministically through exact Born probabilities; there is no sampling
mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InvariantError
from .fock import DensityMatrix
from .witnesses import WitnessBox, WitnessSpec, witness_value

Q_SEPARABLE = 1.0 / 3.0
Q_STEERING = 0.5
Q_CHSH = 1.0 / math.sqrt(2.0)

# singlet (|01> - |10>)/sqrt(2)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
_SINGLET = np.outer(PSI_MINUS, PSI_MINUS)


class Classification(str, Enum):
    SEPARABLE = "separable"
    ENTANGLED_UNSTEERABLE = "entangled_unsteerable"
    STEERABLE_CHSH_LOCAL = "steerable_chsh_local"
    BELL_NONLOCAL = "bell_nonlocal"


def classify(q: float) -> Classification:
    """Half-open correlation classes with boundaries 1/3, 1/2, 1/sqrt(2)."""
    if q <= Q_SEPARABLE:
        return Classification.SEPARABLE
    if q <= Q_STEERING:
        return Classification.ENTANGLED_UNSTEERABLE
    if q <= Q_CHSH:
        return Classification.STEERABLE_CHSH_LOCAL
    return Classification.BELL_NONLOCAL


@dataclass(frozen=True)
class WernerState:
    """Singlet fraction family q |psi-><psi-| + (1-q) I/4, q in [-1/3, 1]."""

    q: float

    def __post_init__(self):
        if not -1.0 / 3.0 - 1e-12 <= self.q <= 1.0 + 1e-12:
            raise ValueError(f"Werner parameter {self.q} outside [-1/3, 1]")
        object.__setattr__(self, "q", float(min(max(self.q, -1.0 / 3.0), 1.0)))

    def to_matrix(self) -> np.ndarray:
        return self.q * _SINGLET + (1.0 - self.q) * np.eye(4) / 4.0


def negativity_two_qubit(rho4: np.ndarray) -> float:
    """Entanglement negativity: absolute sum of negative partial-transpose eigenvalues."""
    pt = rho4.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    vals = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return float(-np.sum(vals[vals < 0.0]))


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def geometric_discord(rho4: np.ndarray) -> float:
    """Geometric discord of a two-qubit state, measured on the first qubit.

    Closed form (Dakic, Vedral and Brukner 2010) of the squared
    Hilbert-Schmidt distance to the closest post-measurement state:
    D = (|x|^2 + |T|^2 - k_max) / 4, with x_i = Tr[rho (s_i x I)],
    T_ij = Tr[rho (s_i x s_j)] and k_max the top eigenvalue of xx^T + TT^T.
    """
    r = rho4.reshape(2, 2, 2, 2)
    x = np.real(np.einsum("abcb,ica->i", r, _PAULI))
    t = np.real(np.einsum("abcd,ica,jdb->ij", r, _PAULI, _PAULI))
    k = np.outer(x, x) + t @ t.T
    return float((x @ x + np.sum(t * t) - np.linalg.eigvalsh(k)[-1]) / 4.0)


@dataclass(frozen=True)
class ActivationOutcome:
    """Werner output with its full correlation profile."""

    werner: WernerState
    entanglement: float
    steering: float
    discord: float
    chsh: float
    classification: Classification
    witness: WitnessSpec | None

    def to_dict(self) -> dict:
        return {
            "q": self.werner.q,
            "E": self.entanglement,
            "S": self.steering,
            "D": self.discord,
            "N": self.chsh,
            "classification": self.classification.value,
            "witness": self.witness.describe() if self.witness else None,
        }


def werner_analytics(
    q: float, witness: WitnessSpec | None = None, validate: bool = True
) -> ActivationOutcome:
    """Closed-form correlation measures of the Werner state.

    With ``validate`` the entanglement is cross-checked against the
    partial-transpose negativity of the explicit 4x4 matrix (1e-10) and
    the discord against :func:`geometric_discord` of that matrix (1e-4,
    squared Hilbert-Schmidt convention).
    """
    werner = WernerState(q)
    q = werner.q
    ent = max(0.0, (3.0 * q - 1.0) / 4.0)
    steer = max(0.0, 2.0 * q - 1.0)
    discord = q * q / 2.0
    chsh = max(0.0, 2.0 * math.sqrt(2.0) * q - 2.0)
    if validate:
        mat = werner.to_matrix()
        pt = negativity_two_qubit(mat)
        if abs(pt - ent) > 1e-10:
            raise InvariantError(
                f"negativity cross-check failed at q={q}: closed form {ent}, matrix {pt}"
            )
        from_matrix = geometric_discord(mat)
        if abs(from_matrix - discord) > 1e-4:
            raise InvariantError(
                f"discord cross-check failed at q={q}: closed form {discord}, "
                f"matrix {from_matrix}"
            )
    return ActivationOutcome(
        werner=werner,
        entanglement=ent,
        steering=steer,
        discord=discord,
        chsh=chsh,
        classification=classify(q),
        witness=witness,
    )


def activate(rho: DensityMatrix, spec: WitnessSpec) -> tuple[ActivationOutcome, ActivationOutcome]:
    """``(entanglement_outcome, steering_outcome)`` of one witness's POVM.

    W is the spec's witness clipped to the unit box the POVM needs (a
    built-in family is scaled by min(n, m, 1)), valued once as
    v = -Tr(W rho) and checked from its family's closed-form spectrum, so
    no built-in family is materialised at any cutoff.  p = Tr(M_- rho)
    feeds both channels.  The entanglement channel prepares singlet /
    triplet-mixed outputs, Werner with q = (4p - 1)/3 and E = [v]_+ / 2,
    cross-checked against the output matrix's partial transpose; the
    steering channel prepares the maximally mixed complement, q = p and
    S = [v]_+.
    """
    checked = replace(spec, box=WitnessBox(min(spec.box.n, 1.0), min(spec.box.m, 1.0)))
    value = witness_value(checked, rho)
    p = min(max((1.0 + value) / 2.0, 0.0), 1.0)
    ent = werner_analytics((4.0 * p - 1.0) / 3.0, witness=spec, validate=False)
    steer = werner_analytics(p, witness=spec, validate=False)
    for name, got, expected in (
        ("E", ent.entanglement, max(0.0, value) / 2.0),
        ("S", steer.steering, max(0.0, value)),
    ):
        if abs(got - expected) > 1e-9:
            raise InvariantError(f"activation identity violated: {name}={got}, expected {expected}")
    pt = negativity_two_qubit(ent.werner.to_matrix())
    if abs(pt - ent.entanglement) > 1e-10:
        raise InvariantError("partial-transpose cross-check failed")
    return ent, steer
