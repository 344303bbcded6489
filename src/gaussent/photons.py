"""Sideband photon-number budget of a two-mode entangled state.

The mean number of photons per bandwidth per time splits into the minimum
needed to maintain the entanglement (n_min, fixed by the degree of
inseparability), photons caused by bias between the amplitude and phase
quadratures (n_bias), and excess photons caused by impurity (n_excess).
These are the axes of the photon-number diagram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .separability import _symmetric_degree
from .states import CorrelationMatrix4, _mean, _quadratures, check_symmetric_form


@dataclass(frozen=True)
class PhotonDecomposition:
    """Photon-number budget of one state.

    Invariant: n_total = n_min + n_bias + n_excess, and for a physical
    matrix only, every component is non-negative (an unphysical
    diag(0.5, 0.5, 0.5, 0.5) gives n_excess = -0.75).  ``g_bias_sq`` is the
    squared gain of the equal local squeezing that removes the bias.
    """

    n_total: float
    n_min: float
    n_bias: float
    n_excess: float
    g_bias_sq: float


def decompose(cm: CorrelationMatrix4) -> PhotonDecomposition:
    """Split the state's mean photon number into maintenance, bias, and excess.

    Requires a matrix with interchangeable beams and no cross-quadrature
    correlations.  When the state is not entangled (degree of
    inseparability >= 1) no photons are needed for maintenance: n_min = 0
    and the total splits into bias and excess only.

    Raises:
        ValueError: if the matrix is not in the interchangeable-beams form.
    """
    if not check_symmetric_form(cm):
        raise ValueError(
            "correlation matrix is not in the interchangeable-beams form; "
            "symmetrize it or analyze it with the general operations"
        )
    plus, minus = _quadratures(cm._flat)
    return PhotonDecomposition(*_decomposition(plus, minus, *_symmetric_degree(plus, minus)))


def _decomposition(plus: tuple, minus: tuple, v_plus: float, v_minus: float, insep: float):
    """The fields of :class:`PhotonDecomposition`, in order, of interchangeable
    beams: from the (C_xx, C_yy, C_xy) of the amplitude and of the phase
    quadrature, the minimum sum/difference variances V+/V- and the degree."""
    return (
        *_budget(plus[0], minus[0], plus[1], minus[1], v_plus, v_minus, insep),
        math.sqrt(v_minus / v_plus),
    )


def _budget(cxx_plus, cxx_minus, cyy_plus, cyy_minus, v_plus, v_minus, insep):
    """(n_total, n_min, n_bias, n_excess) of interchangeable beams.

    Elementwise over floats or numpy arrays: the four diagonal entries of
    the matrix, its minimum sum/difference variances V+/V- and its (positive)
    degree of inseparability.
    """
    n_total = _mean(cxx_plus, cxx_minus, cyy_plus, cyy_minus) - 1.0
    # Photons in a pair of pure single-quadrature-squeezed beams with the
    # observed sum/difference variances, before and after removing bias.
    paired = _mean(v_plus, 1.0 / v_plus, v_minus, 1.0 / v_minus) - 1.0
    debiased = nmin_from_insep(insep)
    n_bias = paired - debiased
    # Without entanglement to maintain (I >= 1) the debiased photons count
    # as excess: n_min = 0.
    n_min = _select(insep < 1.0, debiased, 0.0)
    return n_total, n_min, n_bias, n_total - n_min - n_bias


def _select(condition, if_true, if_false):
    """``np.where`` that keeps scalars scalars: the scalar measures pay no
    array overhead and see no numpy overflow warnings."""
    if isinstance(condition, (bool, np.bool_)):
        return if_true if condition else if_false
    return np.where(condition, if_true, if_false)


def insep_from_nmin(n_min):
    """Degree of inseparability maintained by a given photon budget.

    Inverse of n_min = (I + 1/I)/2 - 1 on (0, 1]; evaluated in the
    cancellation-free form 1/(m + sqrt(m^2 - 1)) with m = n_min + 1.
    Where m^2 overflows (n_min above about 1.3e154) the root is m to double
    precision, so I = 0.5/m there.  Accepts scalars or numpy arrays.

    Raises:
        ValueError: if any n_min is negative (NaN included) or infinite.
    """
    n_min = np.asarray(n_min, dtype=float)
    # One reduction on the common path; the message is picked on failure.
    if not np.all((n_min >= 0.0) & (n_min < math.inf)):
        if not np.all(n_min >= 0.0):
            raise ValueError("n_min must be non-negative")
        raise ValueError("n_min must be finite")
    m = n_min + 1.0
    with np.errstate(over="ignore"):
        root = np.sqrt(m * m - 1.0)
    result = np.where(np.isinf(root), 0.5 / m, 1.0 / (m + root))
    return result if result.ndim else float(result)


def nmin_from_insep(insep):
    """Minimum mean photon number needed to maintain entanglement of strength ``insep``.

    n_min = (I + 1/I)/2 - 1, the inverse of :func:`insep_from_nmin` on
    (0, 1].  Accepts scalars (returning a float) or numpy arrays.

    An infinite degree is accepted and gives inf: a matrix whose
    sum/difference variance itself overflows has I = inf.

    Raises:
        ValueError: if any degree is not positive (NaN included).
    """
    if type(insep) is not float:  # a float spares the scalar measures numpy's per-call cost
        insep = np.asarray(insep, dtype=float)
        insep = insep if insep.ndim else float(insep)
    _require_positive_degree(insep)
    return 0.5 * (insep + 1.0 / insep) - 1.0


def _require_positive_degree(insep) -> None:
    """ValueError unless the degree of inseparability ``insep``, or each element
    of an array of them, is positive (not NaN), naming the first that is not."""
    if isinstance(insep, np.ndarray):
        insep = next(iter(insep[~(insep > 0.0)].tolist()), 1.0)  # 1.0: a stand-in that passes
    if not insep > 0.0:
        raise ValueError(f"degree of inseparability must be positive, got {insep}")


def cross_corr_from_photons(n_min: float, n_excess: float) -> float:
    """Cross-correlation magnitude of a symmetric unbiased state.

    |<dX_x dX_y>| = n_excess + sqrt((n_min + 1)^2 - 1) for either
    quadrature; the amplitude correlation carries a negative sign and the
    phase correlation a positive one.  The root is evaluated as
    sqrt(n_min (n_min + 2)), which keeps its digits where n_min is small.
    Where that product overflows (n_min above about 1.34e154) the root is
    n_min to double precision, as in :func:`insep_from_nmin`.
    """
    _require_photon_numbers(n_min, n_excess)
    product = n_min * (n_min + 2.0)
    return n_excess + (math.sqrt(product) if product < math.inf else n_min)


def _require_photon_numbers(n_min, n_excess) -> None:
    """ValueError unless every photon number, float or array element, is non-negative and finite."""
    if not (np.all(n_min >= 0.0) and np.all(n_excess >= 0.0)):
        raise ValueError("photon numbers must be non-negative")
    if not (np.all(n_min < math.inf) and np.all(n_excess < math.inf)):
        raise ValueError("photon numbers must be finite")


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
