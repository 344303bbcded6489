"""EPR-paradox analysis: conditional variances and the degree of EPR paradox.

The degree of EPR paradox is the product of the amplitude and phase
conditional variances of beam x given an optimal linear inference from
beam y; values below 1 demonstrate the paradox (sufficient, not
necessary, for entanglement).  Unlike the degree of inseparability it is
sensitive to the impurity of the state, which the closed forms on the
photon-number variables make explicit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .states import CorrelationMatrix4, quadrature_entries


@dataclass(frozen=True)
class EprReport:
    """Conditional variances, optimal inference gains, and their product."""

    cv_plus: float
    cv_minus: float
    g_plus: float
    g_minus: float
    degree: float

    def to_json_dict(self) -> dict:
        return asdict(self)


class EprAsymptotes(NamedTuple):
    pure_limit: float
    impure_limit: float


def conditional_variance(cm: CorrelationMatrix4, quadrature: str) -> tuple[float, float]:
    """Residual variance of one beam's quadrature given the other beam.

    Args:
        cm: correlation matrix of the pair.
        quadrature: "+" or "-".

    Returns:
        (variance, optimal gain): C_xx - |C_xy|^2 / C_yy and C_xy / C_yy.

    Raises:
        ValueError: if the conditioning variance C_yy is not positive.
    """
    c_xx, c_yy, c_xy = quadrature_entries(cm, quadrature)
    if c_yy <= 0.0:
        raise ValueError(f"conditioning variance must be positive, got {c_yy}")
    variance = c_xx - (c_xy * c_xy) / c_yy
    gain = c_xy / c_yy
    return variance, gain


def degree_of_epr(cm: CorrelationMatrix4) -> EprReport:
    """Degree of EPR paradox; below 1 demonstrates the paradox."""
    cv_plus, g_plus = conditional_variance(cm, "+")
    cv_minus, g_minus = conditional_variance(cm, "-")
    return EprReport(
        cv_plus=cv_plus,
        cv_minus=cv_minus,
        g_plus=g_plus,
        g_minus=g_minus,
        degree=cv_plus * cv_minus,
    )


def epr_vs_loss(v_ave: float, eta: float) -> float:
    """Closed-form degree of EPR paradox after equal loss on both beams.

    Valid for entanglement built from two pure, equally squeezed inputs
    with average squeezed variance ``v_ave``.  Equals 1 at eta = 0.5 for
    any squeezing level: above that efficiency the paradox is observable,
    below it never is.
    """
    if not 0.0 < v_ave < math.inf:
        raise ValueError(f"average squeezed variance must be positive and finite, got {v_ave}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    denom = eta * (v_ave + 1.0 / v_ave - 2.0) + 2.0
    root = 1.0 - eta + (2.0 * eta - 1.0) / denom
    return 4.0 * root * root


def epr_from_photons(n_min, n_excess):
    """Degree of EPR paradox of a symmetric, unbiased state from its photon budget.

    Closed form on the photon-number variables:

        E = ((2 n_excess (n_min + 1 - sqrt((n_min + 1)^2 - 1)) + 1)
             / (n_excess + n_min + 1))^2

    Accepts scalars or numpy arrays (broadcast together).

    Raises:
        ValueError: on negative inputs.
    """
    n_min = np.asarray(n_min, dtype=float)
    n_excess = np.asarray(n_excess, dtype=float)
    if np.any(n_min < 0.0) or np.any(n_excess < 0.0):
        raise ValueError("photon numbers must be non-negative")
    m = n_min + 1.0
    insep = m - np.sqrt(m * m - 1.0)
    root = (2.0 * n_excess * insep + 1.0) / (n_excess + m)
    result = root * root
    if result.ndim == 0:
        return float(result)
    return result


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
