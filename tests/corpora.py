"""State corpora shared by the acceptance tests, the monotone tests and
``scripts/snapshot_bounds.py``, which writes the ``repr`` of every bound
they give so that two checkouts can be compared bound by bound."""

from cvactivation.channels import apply_unitary, gaussian_noise, phase_rotation, pure_loss
from cvactivation.fock import DensityMatrix
from cvactivation.monotones import FamilySearchConfig
from cvactivation.states import (
    GaussianPureParams,
    GkpParams,
    cat,
    coherent,
    fock,
    gaussian_pure,
    gkp_damped,
    photon_subtracted_squeezed,
    thermal,
)
from cvactivation.wigner import DepthSearchConfig

# the family search of the acceptance criteria and of the bench's hierarchy workload
ACCEPTANCE_SEARCH = FamilySearchConfig(depth=DepthSearchConfig(resolution=30, refine_top=3))


def pure_bounds_corpus():
    """(label, PureState) of acceptance 08's pure-state bounds, cutoff 40."""
    return [
        ("fock_1", fock(1, 40)),
        ("odd_cat_1.5", cat(1.5, -1, 40)),
        ("photon_subtracted_squeezed_0.6", photon_subtracted_squeezed(0.6, 40)),
    ]


def hierarchy_corpus():
    """(label, DensityMatrix) of acceptance 09's hierarchy corpus, cutoff 40."""
    cutoff = 40
    one = fock(1, cutoff).to_density()
    vac = fock(0, cutoff).to_density()
    corpus = [(f"lossy_photon_{eta}", pure_loss(eta, cutoff).apply(one)) for eta in (0.55, 0.7, 0.85, 1.0)]
    corpus += [(f"odd_cat_{a}", cat(a, -1, cutoff).to_density()) for a in (1.0, 1.5, 2.0)]
    corpus += [("even_cat_1.5", cat(1.5, +1, cutoff).to_density())]
    corpus += [
        (f"photon_subtracted_squeezed_{r}", photon_subtracted_squeezed(r, cutoff).to_density())
        for r in (0.3, 0.5)
    ]
    corpus += [(f"gkp_{eps}", gkp_damped(GkpParams(epsilon=eps), cutoff).to_density()) for eps in (0.25, 0.4)]
    corpus += [
        ("coherent_0.7", coherent(0.7, cutoff).to_density()),
        ("vacuum", vac),
        ("thermal_0.5", thermal(0.5, cutoff)),
    ]
    corpus += [("squeezed_0.6", gaussian_pure(GaussianPureParams(0.0, 0.6, 0.0), cutoff).to_density())]
    corpus += [
        ("photon_vacuum_mix", DensityMatrix(0.5 * one.matrix + 0.5 * vac.matrix)),
        (
            "odd_cat_vacuum_mix",
            DensityMatrix(0.3 * cat(1.5, -1, cutoff).to_density().matrix + 0.7 * vac.matrix),
        ),
        ("noisy_photon_0.05", gaussian_noise(0.05, cutoff).apply(one)),
    ]
    corpus += [("fock_2", fock(2, cutoff).to_density()), ("fock_3", fock(3, cutoff).to_density())]
    return corpus


def property_corpus():
    """(states, channels) of acceptance 12's property suite, cutoff 25: each a
    list of (label, DensityMatrix) or (label, callable)."""
    cutoff = 25
    one = fock(1, cutoff).to_density()
    vac = fock(0, cutoff).to_density()
    states = [
        ("lossy_photon_0.85", pure_loss(0.85, cutoff).apply(one)),
        ("lossy_photon_0.6", pure_loss(0.6, cutoff).apply(one)),
        ("odd_cat_1.2", cat(1.2, -1, cutoff).to_density()),
        ("vacuum", vac),
        ("photon_vacuum_mix", DensityMatrix(0.5 * one.matrix + 0.5 * vac.matrix)),
    ]
    noise = gaussian_noise(0.05, cutoff)
    rot = phase_rotation(0.7, cutoff)
    channels = [
        ("loss_0.9", pure_loss(0.9, cutoff).apply),
        ("gaussian_noise_0.05", noise.apply),
        ("phase_rotation_0.7", lambda rho: apply_unitary(rot, rho)),
    ]
    return states, channels


def parity_stop_corpus():
    """(label, DensityMatrix) at cutoff 30 on both sides of the level where
    the parity witness beats every projector witness: the lossy photon
    (parity wins for eta above about 0.522), lossy Fock 2, Fock 2 and even
    cats, pure and lossy."""
    cutoff = 30
    one, two = fock(1, cutoff).to_density(), fock(2, cutoff).to_density()
    corpus = [
        (f"lossy_photon_{eta}", pure_loss(eta, cutoff).apply(one))
        for eta in (0.3, 0.5, 0.52, 0.53, 0.55, 0.7, 0.9)
    ]
    corpus += [(f"lossy_fock_2_{eta}", pure_loss(eta, cutoff).apply(two)) for eta in (0.6, 0.8, 0.95)]
    corpus += [("fock_2", two)]
    even = cat(1.5, +1, cutoff).to_density()
    corpus += [(f"even_cat_{a}", cat(a, +1, cutoff).to_density()) for a in (1.0, 1.5)]
    corpus += [(f"lossy_even_cat_1.5_{eta}", pure_loss(eta, cutoff).apply(even)) for eta in (0.7, 0.9)]
    return corpus
