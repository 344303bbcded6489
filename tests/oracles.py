"""Numerical oracles for closed forms of the library.

Each one re-derives a closed form by direct numerical optimization, so the
tests can check the formula against something other than itself.  They are
the only users of scipy.
"""

import math

from scipy.optimize import minimize_scalar

from gaussent.protocols import squeezed_channel_capacity
from gaussent.states import CorrelationMatrix4, quadrature_entries


def numeric_conditional_variance(cm: CorrelationMatrix4, quadrature: str) -> float:
    """Conditional variance by direct 1-D minimization over the inference gain.

    Golden-section search of <(dX_x - g dX_y)^2> over g in [-10, 10];
    serves as an independent check of the closed form.
    """
    c_xx, c_yy, c_xy = quadrature_entries(cm, quadrature)

    def objective(g: float) -> float:
        return c_xx - 2.0 * g * c_xy + g * g * c_yy

    result = minimize_scalar(
        objective, bracket=(-10.0, 10.0), method="golden", options={"xtol": 1e-12}
    )
    return float(result.fun)


def maximize_squeezed_capacity(n_encoding: float) -> tuple[float, float]:
    """Numerically maximize the squeezed-state capacity over the squeezing level.

    Returns (capacity, optimal variance); used as a cross-check of
    :func:`gaussent.protocols.optimal_squeezed_capacity`.
    """
    if n_encoding <= 0.0:
        return 0.0, 1.0

    # Smallest variance the budget can hold; capacity is zero there.
    t = 4.0 * n_encoding + 2.0
    v_floor = 2.0 / (t + math.sqrt(t * t - 4.0))

    def negated(v: float) -> float:
        try:
            return -squeezed_channel_capacity(n_encoding, v)
        except ValueError:
            # Rounding can push the boundary a hair past the budget.
            return 0.0

    result = minimize_scalar(
        negated, bounds=(v_floor, 1.0), method="bounded", options={"xatol": 1e-12}
    )
    return -float(result.fun), float(result.x)
