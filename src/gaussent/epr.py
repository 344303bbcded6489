"""EPR-paradox analysis: conditional variances and the degree of EPR paradox.

The degree of EPR paradox is the product of the amplitude and phase
conditional variances of beam x given an optimal linear inference from
beam y; values below 1 demonstrate the paradox (sufficient, not
necessary, for entanglement).  Unlike the degree of inseparability it is
sensitive to the impurity of the state, which the closed forms on the
photon-number variables make explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .photons import _require_photon_numbers
from .separability import _require_loss_inputs
from .states import CorrelationMatrix4, _quadratures


@dataclass(frozen=True)
class EprReport:
    """Conditional variances, optimal inference gains, and their product."""

    cv_plus: float
    cv_minus: float
    g_plus: float
    g_minus: float
    degree: float


class EprAsymptotes(NamedTuple):
    pure_limit: float
    impure_limit: float


def _residual_variance(c_xx, c_yy, c_xy):
    """C_xx - C_xy^2 / C_yy, elementwise over floats or numpy arrays.  Where C_xy^2
    overflows (|C_xy| above about 1.34e154) it is taken on the entries scaled by
    2^-600 and scaled back, which is exact; floats make no numpy call."""
    square = c_xy * c_xy
    floats = isinstance(square, float)
    if square < np.inf if floats else not (over := np.isinf(square)).any():
        return c_xx - square / c_yy
    scaled = _residual_variance(c_xx * 2.0**-600, c_yy * 2.0**-600, c_xy * 2.0**-600) * 2.0**600
    return scaled if floats else np.where(over, scaled, c_xx - square / c_yy)


def degree_of_epr(cm: CorrelationMatrix4) -> EprReport:
    """Degree of EPR paradox; below 1 demonstrates the paradox.

    Each quadrature's conditional variance is the residual variance of beam
    x given beam y, C_xx - C_xy^2 / C_yy, at the optimal gain C_xy / C_yy.
    C_yy is a diagonal entry, which :class:`CorrelationMatrix4` keeps
    positive and finite.
    """
    return EprReport(*_epr(*_quadratures(cm._flat)))


def _epr(plus: tuple, minus: tuple) -> tuple[float, float, float, float, float]:
    """The fields of :class:`EprReport`, in order, from the (C_xx, C_yy, C_xy)
    of the amplitude and of the phase quadrature."""
    cv_plus = _residual_variance(*plus)
    cv_minus = _residual_variance(*minus)
    return cv_plus, cv_minus, plus[2] / plus[1], minus[2] / minus[1], cv_plus * cv_minus


def epr_vs_loss(v_ave: float, eta: float) -> float:
    """Closed-form degree of EPR paradox after equal loss on both beams.

    Valid for entanglement built from two pure, equally squeezed inputs
    with average squeezed variance ``v_ave``.  Equals 1 at eta = 0.5 for
    any squeezing level: above that efficiency the paradox is observable,
    below it never is.
    """
    _require_loss_inputs(v_ave, eta)
    # At eta = 0 the photon term is 0 even where 1/v overflows (0 * inf is NaN).
    denom = (eta * (v_ave + 1.0 / v_ave - 2.0) if eta else 0.0) + 2.0
    root = 1.0 - eta + (2.0 * eta - 1.0) / denom
    return 4.0 * root * root


def epr_from_photons(n_min, n_excess):
    """Degree of EPR paradox of a symmetric, unbiased state from its photon budget.

    Closed form on the photon-number variables:

        E = ((2 n_excess (n_min + 1 - sqrt((n_min + 1)^2 - 1)) + 1)
             / (n_excess + n_min + 1))^2

    Accepts scalars or numpy arrays (broadcast together).

    Raises:
        ValueError: on negative or non-finite inputs.
    """
    n_min = np.asarray(n_min, dtype=float)
    n_excess = np.asarray(n_excess, dtype=float)
    _require_photon_numbers(n_min, n_excess)
    m = n_min + 1.0
    # Where m^2 overflows (n_min above about 1.3e154), I = 0.5/m as in insep_from_nmin.
    with np.errstate(over="ignore"):
        root = np.sqrt(m * m - 1.0)
    insep = np.where(np.isinf(root), 0.5 / m, m - root)
    # Numerator and denominator halved: the same bits, and no overflow up to the float limit.
    ratio = (n_excess * insep + 0.5) / (0.5 * n_excess + 0.5 * m)
    result = ratio * ratio
    return result if result.ndim else float(result)


def epr_asymptotes(insep: float) -> EprAsymptotes:
    """Limits of the degree of EPR paradox at fixed entanglement strength.

    ``pure_limit`` is the value as the excess-photon number vanishes,
    4 I^2 / (I^2 + 1)^2, the form consistent with the closed form on the
    photon variables; ``impure_limit`` is the value as it diverges, 4 I^2,
    so extremely impure states show the paradox only for I < 0.5.
    """
    if not 0.0 < insep <= 1.0:
        raise ValueError(f"degree of inseparability must lie in (0, 1], got {insep}")
    i_sq = insep * insep
    pure = 4.0 * i_sq / ((i_sq + 1.0) * (i_sq + 1.0))
    impure = 4.0 * i_sq
    return EprAsymptotes(pure_limit=pure, impure_limit=impure)
