"""Certified bounds on the bounded-witness resource monotones.

For a box -n I <= W <= m I the monotone is the supremum of [-Tr(W rho)]_+
over feasible witnesses.  This module assembles certified lower bounds
from explicit witness families, the exact values in the two analytically
solved situations (odd-parity states and boundary mixtures), the
single-copy / two-copy hierarchy, and the property suite (monotonicity,
convexity, Lipschitz continuity) evaluated at the searched-family level.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvariantError
from .fock import DensityMatrix, PureState, trace_norm
from .wigner import DepthSearchConfig, NegativityDepthResult, negativity_depth
from .witnesses import (
    DisplacedParity,
    Family,
    FreeSet,
    GaussianFidelityResult,
    GaussianFitConfig,
    Projector,
    WitnessBox,
    WitnessSpec,
    _gaussian_fit,
    _parity_wins_from,
    _parity_witness_value,
    check_box,
    gaussian_fidelity,
    violation,
    witness_value,
)

ODD_PARITY_TOL = 1e-11
# the family search's fit stops once its lambda is this factor above lambda*,
# the least lambda at which no projector witness can beat the parity candidate
_STOP_MARGIN = 1.0 + 1e-9
# property suite: convexity weights p of p rho_a + (1 - p) rho_b, and the
# slack of its monotonicity and convexity checks
CONVEXITY_WEIGHTS = (0.3, 0.7)
PROPERTY_TOL = 1e-6


@dataclass(frozen=True)
class MonotoneBound:
    """Certified lower/upper bound pair with witness provenance."""

    lower: float
    upper: float
    witness: WitnessSpec | None
    free_set: FreeSet
    exact: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper + 1e-12:
            raise ValueError(f"bounds out of order: [{self.lower}, {self.upper}]")
        if self.exact and abs(self.upper - self.lower) > 1e-12:
            raise ValueError("exact bounds must coincide")

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "free_set": self.free_set.value,
            "witness": self.witness.describe() if self.witness else None,
        }


@dataclass(frozen=True)
class FamilySearchConfig:
    """Settings for the witness-family searches behind the lower bounds."""

    depth: DepthSearchConfig = field(default_factory=DepthSearchConfig)
    gaussian: GaussianFitConfig = field(default_factory=GaussianFitConfig)


def is_odd_parity(rho: DensityMatrix) -> bool:
    """True when Pi rho = -rho: Pi rho + rho is 2 rho on the even rows, 0 on the odd."""
    return float(np.max(np.abs(rho.matrix[::2]))) <= ODD_PARITY_TOL / 2.0


def _top_eigenvector(rho: DensityMatrix) -> PureState:
    """An eigenvector of the largest eigenvalue; the last index of ``np.argsort``
    fixes the pick when it is degenerate (as for the photon-vacuum half mix)."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    return PureState(vecs[:, np.argsort(vals)[-1]], leakage=rho.leakage)


# nested free sets, smallest first: a witness admissible for one stays admissible above
_HIERARCHY = (FreeSet.WIGNER_POSITIVE, FreeSet.GAUSSIAN_HULL, FreeSet.GAUSSIAN_TWO_COPY)


def _family_search(
    rho: DensityMatrix, top: FreeSet, box: WitnessBox, cfg: FamilySearchConfig | None
) -> tuple[list[tuple[float, WitnessSpec]], bool]:
    """Witness candidates up to free set ``top``, plus exactness flag.

    Each spec's family fixes the lowest free set it is admissible for, and
    each value is the spec's own, scale included.  The displaced-parity
    candidate comes first: its :func:`witness_value` at the depth search's
    optimum (0 at zero depth), from W there on the search's own coefficient
    matrix (``NegativityDepthResult.wigner_at``), so no second build is
    made; or the scale itself for an odd-parity state, whose parity
    violation is 1.
    One Gaussian fit of the top eigenvector yields both the hull projector
    and its two-copy lift, each valued by :func:`witness_value`; the
    Wigner-positive level runs no fit at all.
    The fit runs only as far as the choice of witness needs.  Each start's
    fidelity only rises, and each projector's value s (p^k - lam^k) falls as
    lam rises, so from lam* on
    (:func:`~cvactivation.witnesses._parity_wins_from`) no projector can beat
    parity, which comes first and so wins ties.  The fit stops once its lam
    reaches lam* (1 + 1e-9), and that lam values the projectors; a fit that
    never reaches it runs in full, as :func:`gaussian_fidelity`; one whose
    starts reach it is the descent's early return, on the starts' values
    with no derivative, and reports steps 0, n_converged 0 and spread 0.0.
    A projector that beats parity at a lam >= lam* raises :class:`InvariantError`.
    """
    cfg = cfg or FamilySearchConfig()
    if is_odd_parity(rho):
        spec = WitnessSpec(DisplacedParity(0.0), box)
        value = violation(spec.family, rho)
        if abs(value - 1.0) > 1e-9:
            raise InvariantError(
                f"odd-parity state should violate parity by 1, got {value}"
            )
        parity = [(spec.scale, spec)]
        if box.n == box.m == 1.0:
            # odd-parity states saturate the unit box for every free set in
            # the hierarchy, so the chain is pinched at 1 exactly
            return parity, True
    else:
        depth = negativity_depth(rho, cfg.depth)
        spec = WitnessSpec(DisplacedParity(depth.argmin_alpha), box)
        value = _parity_witness_value(spec, depth.wigner_at) if depth.depth > 0.0 else 0.0
        parity = [(value, spec)]
    if top is FreeSet.WIGNER_POSITIVE:
        return parity, False
    psi = _top_eigenvector(rho)
    value, spec = parity[0]
    decided = _parity_wins_from(psi, rho, value, spec.scale)
    lam = _gaussian_fit(psi, cfg.gaussian, decided * _STOP_MARGIN).max_fidelity
    specs = [WitnessSpec(Projector(psi, lam, copies), box) for copies in (1, 2)]
    projectors = [(witness_value(p, rho), p) for p in specs]
    if lam >= decided and max(v for v, _ in projectors) > value:
        raise InvariantError(f"a projector beat parity's {value} at lambda {lam} >= lambda* {decided}")
    return [*parity, *projectors], False


def _best_bound(
    candidates: list[tuple[float, WitnessSpec]], exact: bool, free_set: FreeSet, box: WitnessBox
) -> MonotoneBound:
    """Bound from the best candidate admissible for ``free_set``.

    Candidate values are their specs' :func:`witness_value`, already scaled
    into the box; the upper bound is n (the box cap) unless the exact
    odd-parity case applies.
    """
    if exact:
        return MonotoneBound(1.0, 1.0, candidates[0][1], free_set, exact=True)
    level = _HIERARCHY.index(free_set)
    best_value, best_spec = max(
        (c for c in candidates if _HIERARCHY.index(c[1].free_set) <= level),
        key=lambda c: c[0],
    )
    return MonotoneBound(min(max(0.0, best_value), box.n), box.n, best_spec, free_set)


def lower_bound(
    rho: DensityMatrix,
    free_set: FreeSet,
    box: WitnessBox = WitnessBox(),
    cfg: FamilySearchConfig | None = None,
) -> MonotoneBound:
    """Certified lower bound from the witness families admissible for ``free_set``.

    Search spaces nest along the hierarchy: the hull search adds projector
    witnesses to the Wigner-positive parity family, and the two-copy search
    adds their two-copy lifts; single-copy witnesses stay admissible with
    unchanged expectation value.
    """
    candidates, exact = _family_search(rho, free_set, box, cfg)
    return _best_bound(candidates, exact, free_set, box)


def hierarchy_check(
    rho: DensityMatrix,
    box: WitnessBox = WitnessBox(),
    cfg: FamilySearchConfig | None = None,
) -> tuple[MonotoneBound, MonotoneBound, MonotoneBound]:
    """Nested lower bounds (Wigner negativity, hull, two-copy).

    All three are picked from one family search, each over the candidates
    admissible for its free set.  The chain wn <= gng <= sng then holds by
    construction, because each pick ranges over a superset of the previous
    one; it is asserted, not clamped.
    """
    candidates, exact = _family_search(rho, FreeSet.GAUSSIAN_TWO_COPY, box, cfg)
    wn, gng, sng = (_best_bound(candidates, exact, fs, box) for fs in _HIERARCHY)
    if not (wn.lower <= gng.lower + 1e-9 <= sng.lower + 2e-9):
        raise InvariantError(
            f"hierarchy violated: wn={wn.lower} gng={gng.lower} sng={sng.lower}"
        )
    return wn, gng, sng


@dataclass(frozen=True)
class BoundaryMixRow:
    t: float
    exact_value: float
    searched_lower: float


def exact_boundary_mixture(
    sigma_free: DensityMatrix,
    tau: DensityMatrix,
    witness: Family,
    t_grid,
    cfg: FamilySearchConfig | None = None,
) -> list[BoundaryMixRow]:
    """Exact unit-box monotone values along (1-t) sigma + t tau.

    Requires Tr(X sigma) = 0 and Tr(X tau) = -1 within 1e-8 for a witness
    X of a feasible family inside the unit box; then the monotone equals t
    exactly.  Each row cross-checks that the Wigner-positive family search
    reaches t - 1e-6.
    """
    check_box(witness)
    r_sigma = -violation(witness, sigma_free)
    r_tau = -violation(witness, tau)
    if abs(r_sigma) > 1e-8 or abs(r_tau + 1.0) > 1e-8:
        raise ValueError(
            "boundary conditions violated: "
            f"Tr(X sigma)={r_sigma:.3e} (need 0), Tr(X tau)={r_tau:.6f} (need -1)"
        )
    rows = []
    for t in t_grid:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError("mixture weight outside [0, 1]")
        mix = DensityMatrix(
            (1.0 - t) * sigma_free.matrix + t * tau.matrix,
            leakage=max(sigma_free.leakage, tau.leakage),
        )
        searched = lower_bound(mix, FreeSet.WIGNER_POSITIVE, WitnessBox(), cfg).lower
        if searched < t - 1e-6:
            raise InvariantError(f"family search reached {searched} < t - 1e-6 at t={t}")
        rows.append(BoundaryMixRow(t=t, exact_value=t, searched_lower=searched))
    return rows


@dataclass(frozen=True)
class PureStateBounds:
    """Paper-form floors for a pure state: 1 - lam and 1 - lam^2."""

    gng_lower: float
    sng_lower: float
    fit: GaussianFidelityResult

    def to_dict(self) -> dict:
        return {
            "gng_lower": self.gng_lower,
            "sng_lower": self.sng_lower,
            "gaussian_fit": self.fit.to_dict(),
        }


def pure_state_bounds(psi: PureState) -> PureStateBounds:
    """Certified unit-box floors (1 - lam, 1 - lam^2) from the projector pair,
    lam from the default Gaussian fit."""
    fit = gaussian_fidelity(psi)
    lam = fit.max_fidelity
    gng = min(max(1.0 - lam, 0.0), 1.0)
    sng = min(max(1.0 - lam**2, 0.0), 1.0)
    return PureStateBounds(gng_lower=gng, sng_lower=sng, fit=fit)


@dataclass(frozen=True)
class CheckRecord:
    """One checked inequality ``lhs <= rhs``, its slack already in ``rhs``."""

    kind: str
    label: str
    lhs: float
    rhs: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


@dataclass(frozen=True)
class PropertyReport:
    records: tuple[CheckRecord, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed, "checks": [r.to_dict() for r in self.records]}


def property_suite(
    states,
    channels,
    box: WitnessBox = WitnessBox(),
    cfg: FamilySearchConfig | None = None,
) -> PropertyReport:
    """Bound-level monotonicity, convexity and Lipschitz checks.

    ``states`` is a sequence of (label, DensityMatrix); ``channels`` a
    sequence of (label, callable) with each callable free for the
    Wigner-positive theory.  Both sides of each comparison are parity bounds
    in ``box`` over one shared pool of searched displacements, so the
    comparisons are theorems of the shared family, not artifacts of
    independent searches; the monotonicity and convexity checks allow
    ``PROPERTY_TOL``.  Each corpus state, channel output and mixture is
    depth-searched once, and each pool point is valued on that search's own
    coefficient matrix (``NegativityDepthResult.wigner_at``, one point a
    call), with the bits of the spec's :func:`witness_value`: one Wigner
    build per searched state.
    """
    cfg = cfg or FamilySearchConfig()
    states = list(states)
    records: list[CheckRecord] = []
    c_lip = max(box.n, box.m)

    def search(rho: DensityMatrix) -> NegativityDepthResult:
        return negativity_depth(rho, cfg.depth)

    def bound(found: NegativityDepthResult, pool: list[NegativityDepthResult]) -> float:
        # the parity bound of found's state over the origin and each pool search's argmin
        specs = [WitnessSpec(DisplacedParity(a), box) for a in (0j, *(s.argmin_alpha for s in pool))]
        return max(0.0, *(_parity_witness_value(spec, found.wigner_at) for spec in specs))

    def check(kind: str, label: str, lhs: float, rhs: float) -> None:
        records.append(CheckRecord(kind, label, lhs, rhs))

    searched = {label: search(rho) for label, rho in states}

    # monotonicity under free channels
    for ch_label, channel in channels:
        for label, rho in states:
            out = search(channel(rho))
            pool = [searched[label], out]
            after, before = bound(out, pool), bound(searched[label], pool)
            check("monotonicity", f"{ch_label} on {label}", after, before + PROPERTY_TOL)

    # convexity on mixtures of consecutive corpus states
    for (la, ra), (lb, rb) in zip(states, states[1:]):
        if ra.dim != rb.dim:
            continue
        a, b = searched[la], searched[lb]
        for p in CONVEXITY_WEIGHTS:
            mix = search(
                DensityMatrix(p * ra.matrix + (1.0 - p) * rb.matrix, leakage=max(ra.leakage, rb.leakage))
            )
            pool = [a, b, mix]
            rhs = p * bound(a, pool) + (1.0 - p) * bound(b, pool)
            check("convexity", f"{p}*{la} + {1 - p:.1f}*{lb}", bound(mix, pool), rhs + PROPERTY_TOL)

    # Lipschitz continuity on corpus pairs
    for i, (la, ra) in enumerate(states):
        for lb, rb in states[i + 1 :]:
            if ra.dim != rb.dim:
                continue
            a, b = searched[la], searched[lb]
            gap, dist = abs(bound(a, [a, b]) - bound(b, [a, b])), trace_norm(ra.matrix - rb.matrix)
            check("lipschitz", f"{la} vs {lb}", gap, c_lip * dist + 1e-8)

    return PropertyReport(records=tuple(records))
