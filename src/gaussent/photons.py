"""Sideband photon-number budget of a two-mode entangled state.

The mean number of photons per bandwidth per time splits into the minimum
needed to maintain the entanglement (n_min, fixed by the degree of
inseparability), photons caused by bias between the amplitude and phase
quadratures (n_bias), and excess photons caused by impurity (n_excess).
These are the axes of the photon-number diagram.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .separability import _symmetric_degree
from .states import CorrelationMatrix4, SqueezedBeam, check_symmetric_form


@dataclass(frozen=True)
class PhotonDecomposition:
    """Photon-number budget of one state.

    Invariants: all components are non-negative, n_total = n_min + n_bias
    + n_excess, and n_pure = n_min + n_bias.  ``g_bias_sq`` is the squared
    gain of the equal local squeezing operation that removes the bias.
    """

    n_total: float
    n_pure: float
    n_min: float
    n_bias: float
    n_excess: float
    g_bias_sq: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def mean_photon_number(beam: SqueezedBeam) -> float:
    """Mean photons per bandwidth per time in one sideband mode.

    n = |a+|^2 + |a-|^2 + (V+ + V- - 2)/4; zero for vacuum and positive
    for any squeezed or displaced physical state.
    """
    v = beam.variances
    return (
        beam.alpha_plus * beam.alpha_plus
        + beam.alpha_minus * beam.alpha_minus
        + 0.25 * (v.v_plus + v.v_minus - 2.0)
    )


def decompose(cm: CorrelationMatrix4) -> PhotonDecomposition:
    """Split the state's mean photon number into maintenance, bias, and excess.

    Requires a matrix with interchangeable beams and no cross-quadrature
    correlations (coherent amplitudes are taken to be zero).  When the
    state is not entangled (degree of inseparability >= 1) no photons are
    needed for maintenance: n_min = 0 and the total splits into bias and
    excess only.

    Raises:
        ValueError: if the matrix is not in the interchangeable-beams form.
    """
    if not check_symmetric_form(cm):
        raise ValueError(
            "correlation matrix is not in the interchangeable-beams form; "
            "symmetrize it or analyze it with the general operations"
        )
    v_plus, v_minus, insep = _symmetric_degree(cm)
    n_total = float(np.trace(cm.entries)) / 4.0 - 1.0
    # Photons in a pair of pure single-quadrature-squeezed beams with the
    # observed sum/difference variances, before and after removing bias.
    paired = 0.25 * (v_plus + 1.0 / v_plus + v_minus + 1.0 / v_minus) - 1.0
    debiased = nmin_from_insep(insep)

    n_bias = paired - debiased
    if insep < 1.0:
        n_min = debiased
        n_pure = paired
    else:
        # No entanglement to maintain: the debiased photons count as excess.
        n_min = 0.0
        n_pure = n_bias
    n_excess = n_total - n_min - n_bias
    return PhotonDecomposition(
        n_total=n_total,
        n_pure=n_pure,
        n_min=n_min,
        n_bias=n_bias,
        n_excess=n_excess,
        g_bias_sq=math.sqrt(v_minus / v_plus),
    )


def insep_from_nmin(n_min):
    """Degree of inseparability maintained by a given photon budget.

    Inverse of n_min = (I + 1/I)/2 - 1 on (0, 1]; evaluated in the
    cancellation-free form 1/(m + sqrt(m^2 - 1)) with m = n_min + 1.
    Where m^2 overflows (n_min above about 1.3e154) the root is m to double
    precision, so I = 0.5/m there.  Accepts scalars or numpy arrays.
    """
    n_min = np.asarray(n_min, dtype=float)
    if np.any(n_min < 0.0):
        raise ValueError("n_min must be non-negative")
    m = n_min + 1.0
    with np.errstate(over="ignore"):
        root = np.sqrt(m * m - 1.0)
    result = np.where(np.isinf(root), 0.5 / m, 1.0 / (m + root))
    if result.ndim == 0:
        return float(result)
    return result


def nmin_from_insep(insep: float) -> float:
    """Minimum mean photon number needed to maintain entanglement of strength ``insep``."""
    if insep <= 0.0:
        raise ValueError(f"degree of inseparability must be positive, got {insep}")
    return 0.5 * (insep + 1.0 / insep) - 1.0


def cross_corr_from_photons(n_min: float, n_excess: float) -> float:
    """Cross-correlation magnitude of a symmetric unbiased state.

    |<dX_x dX_y>| = n_excess + sqrt((n_min + 1)^2 - 1) for either
    quadrature; the amplitude correlation carries a negative sign and the
    phase correlation a positive one.
    """
    if n_min < 0.0 or n_excess < 0.0:
        raise ValueError("photon numbers must be non-negative")
    m = n_min + 1.0
    return n_excess + math.sqrt(m * m - 1.0)


def cm_from_photons(n_min: float, n_excess: float) -> CorrelationMatrix4:
    """Correlation matrix of the symmetric unbiased state with this budget.

    Every diagonal entry equals n_min + n_excess + 1; the amplitude and
    phase cross-correlations are -/+ the magnitude from
    :func:`cross_corr_from_photons`.  Decomposing the result recovers
    (n_min, n_excess) with n_bias = 0.
    """
    corr = cross_corr_from_photons(n_min, n_excess)
    variance = n_min + n_excess + 1.0
    return CorrelationMatrix4.symmetric_form(variance, variance, -corr, +corr)
