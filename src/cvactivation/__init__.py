"""Bounded-witness quantification of continuous-variable nonclassicality.

Truncated-Fock-space numerics for Wigner-negativity and non-Gaussianity
witnesses, certified monotone bounds, and their operational activation into
two-qubit Werner-state entanglement and EPR steering.

The top-level name ``fock`` is the state factory :func:`states.fock`, not
the module ``cvactivation.fock``: the re-export below replaces the
submodule attribute that the import binds, so ``cvactivation.fock`` and
``from cvactivation import fock`` give the function.  Reach the module
with ``from cvactivation.fock import ...`` or
``importlib.import_module("cvactivation.fock")``.
"""

__version__ = "0.1.0"

from .errors import ConfigError, InvariantError, TruncationError
from .fock import (
    DensityMatrix,
    OperatorMatrix,
    PureState,
    momentum_op,
    parity_op,
    position_op,
    pure_fidelity,
    trace_norm,
)
from .states import (
    GaussianPureParams,
    GkpParams,
    cat,
    coherent,
    fock,
    gaussian_pure,
    gkp_comb,
    gkp_damped,
    photon_subtracted_squeezed,
    thermal,
)
from .channels import (
    DampingMap,
    GaussNoiseChannel,
    KrausChannel,
    LossChannel,
    apply_unitary,
    damping,
    gaussian_noise,
    gkp_ec_round,
    phase_rotation,
    pure_loss,
)
from .wigner import (
    DepthSearchConfig,
    NegativityDepthResult,
    WignerGrid,
    comb_evaluators,
    negativity_depth,
    wigner_batch,
    wigner_grid,
    wigner_jet,
)
from .witnesses import (
    FreeSet,
    GaussianFidelityResult,
    GaussianFitConfig,
    WitnessBox,
    WitnessSpec,
    check_box,
    gaussian_fidelity,
    witness_value,
)
from .monotones import (
    FamilySearchConfig,
    MonotoneBound,
    PropertyReport,
    exact_boundary_mixture,
    hierarchy_check,
    lower_bound,
    property_suite,
    pure_state_bounds,
)
from .activation import (
    ActivationOutcome,
    Classification,
    WernerState,
    activate,
    classify,
    werner_analytics,
)

__all__ = [
    "ActivationOutcome",
    "Classification",
    "ConfigError",
    "DampingMap",
    "DensityMatrix",
    "DepthSearchConfig",
    "FamilySearchConfig",
    "FreeSet",
    "GaussNoiseChannel",
    "GaussianFidelityResult",
    "GaussianFitConfig",
    "GaussianPureParams",
    "GkpParams",
    "InvariantError",
    "KrausChannel",
    "LossChannel",
    "MonotoneBound",
    "NegativityDepthResult",
    "OperatorMatrix",
    "PropertyReport",
    "PureState",
    "TruncationError",
    "WernerState",
    "WignerGrid",
    "WitnessBox",
    "WitnessSpec",
    "activate",
    "apply_unitary",
    "cat",
    "check_box",
    "classify",
    "coherent",
    "comb_evaluators",
    "damping",
    "exact_boundary_mixture",
    "fock",
    "gaussian_fidelity",
    "gaussian_noise",
    "gaussian_pure",
    "gkp_comb",
    "gkp_damped",
    "gkp_ec_round",
    "hierarchy_check",
    "lower_bound",
    "momentum_op",
    "negativity_depth",
    "parity_op",
    "phase_rotation",
    "photon_subtracted_squeezed",
    "position_op",
    "property_suite",
    "pure_fidelity",
    "pure_loss",
    "pure_state_bounds",
    "thermal",
    "trace_norm",
    "werner_analytics",
    "wigner_batch",
    "wigner_grid",
    "wigner_jet",
    "witness_value",
]
