"""Two-mode Gaussian entanglement toolkit.

Models quadrature-entangled optical beams by their 4x4 correlation
matrices, quantifies the entanglement through the degrees of
inseparability and EPR paradox, splits the sideband photon number into
maintenance/bias/excess components, and predicts the efficacy of
teleportation and dense-coding protocols on that photon budget.
"""

from .epr import degree_of_epr
from .photons import decompose
from .protocols import teleport_fidelity
from .separability import degree_of_inseparability
from .states import CorrelationMatrix4, SqueezedBeam, apply_loss, entangle_on_beamsplitter

__version__ = "0.1.0"

__all__ = [
    "CorrelationMatrix4",
    "SqueezedBeam",
    "apply_loss",
    "decompose",
    "degree_of_epr",
    "degree_of_inseparability",
    "entangle_on_beamsplitter",
    "teleport_fidelity",
]
