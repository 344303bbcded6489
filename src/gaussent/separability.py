"""Inseparability analysis for two-mode Gaussian states.

Implements the sum and product forms of the Duan-style inseparability
criterion: the bias-compensation parameter k, the applicability
restrictions each form puts on the correlation matrix, the degree of
inseparability (entangled iff below 1), and its closed-form dependence on
detection efficiency.

Each quadrature has one bias weight, ((C_yy - 1)/(C_xx - 1))^(1/4) from the
excesses of its diagonal entries over shot noise.  k is that weight when both
quadratures agree on it; the product-form restriction instead weights each
quadrature's inference variance with that quadrature's own weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    CorrelationMatrix4,
    check_symmetric_form,
    is_block_form,
    min_sum_diff_variance,
    quadrature_entries,
)

#: Quoted statistical error of the anchor measurements; absolute tolerance
#: of the correlation-balance and product-form restrictions.
RESTRICTION_TOL = 0.05
#: Relative tolerance of the equal excess-variance-ratio restriction.
RATIO_REL_TOL = 1e-3
#: Relative tolerance on the agreement of the amplitude- and phase-quadrature
#: bias parameters.
K_REL_TOL = 1e-6


@dataclass(frozen=True)
class SumCriterionResult:
    """Outcome of the sum-form criterion for one correlation matrix."""

    k: float
    lhs: float
    rhs: float
    satisfied: bool
    applicable: bool
    sign_defaulted: bool


@dataclass(frozen=True)
class StandardFormCheck:
    """Which of the two standard-form restrictions a matrix satisfies.

    ``ratio_ok``: the above-shot-noise parts of the x and y variances keep
    the same ratio in both quadratures.  ``balance_ok``: the margin between
    the geometric-mean excess variance and the cross-correlation magnitude
    is the same in both quadratures.
    """

    ratio_ok: bool
    balance_ok: bool
    detail: str | None = None


def _excesses(cm: CorrelationMatrix4) -> tuple[float, float, float, float]:
    """Excesses C - 1 over shot noise of C++_xx, C++_yy, C--_xx and C--_yy.

    ValueError if the matrix couples the quadratures: reducing it to the
    decoupled form (by local linear unitary operations) is out of scope, and
    every state this package produces is already in it.
    """
    if not is_block_form(cm):
        raise ValueError(
            "correlation matrix couples the amplitude and phase quadratures; "
            "reduce it to the decoupled form before analysis"
        )
    return cm.cxx_plus - 1.0, cm.cyy_plus - 1.0, cm.cxx_minus - 1.0, cm.cyy_minus - 1.0


def _bias_weight(ex: float, ey: float) -> float:
    """A quadrature's bias weight ((C_yy - 1)/(C_xx - 1))^(1/4) from its excesses."""
    return (ey / ex) ** 0.25


def k_parameter(cm: CorrelationMatrix4) -> float:
    """Bias-compensation parameter between subsystems x and y.

    k = ((C++_yy - 1)/(C++_xx - 1))^(1/4); the same expression evaluated on
    the phase quadrature must agree within :data:`K_REL_TOL` (relative),
    otherwise the matrix is not in the form the parameter is defined for.

    Raises:
        ValueError: if the matrix couples the quadratures, if any diagonal
            entry is at or below shot noise, or if the amplitude- and
            phase-quadrature expressions disagree.
    """
    excesses = _excesses(cm)
    names = ("C++_xx", "C++_yy", "C--_xx", "C--_yy")
    bad = [name for name, value in zip(names, excesses) if value <= 0.0]
    if bad:
        raise ValueError(f"degenerate: quadrature at or below shot noise ({', '.join(bad)})")

    ex_p, ey_p, ex_m, ey_m = excesses
    k_plus, k_minus = _bias_weight(ex_p, ey_p), _bias_weight(ex_m, ey_m)
    if not math.isclose(k_plus, k_minus, rel_tol=K_REL_TOL, abs_tol=0.0):
        raise ValueError(
            f"bias parameter inconsistent between quadratures "
            f"({k_plus:.8g} vs {k_minus:.8g}); the variance-ratio restriction is violated"
        )
    return k_plus


def _inference_variance(cm: CorrelationMatrix4, quadrature: str, k: float) -> float:
    """Variance of the k-weighted inference combination for one quadrature.

    Expands <(k dX_x - s dX_y / k)^2> with s the sign of the cross
    correlation (so the correlated combination is always the one measured;
    s defaults to +1 where the cross correlation vanishes).
    """
    c_xx, c_yy, c_xy = quadrature_entries(cm, quadrature)
    return k * k * c_xx + c_yy / (k * k) - 2.0 * abs(c_xy)


def duan_sum_criterion(
    cm: CorrelationMatrix4, k: float | None = None
) -> SumCriterionResult:
    """Evaluate the sum-form inseparability criterion.

    The left-hand side is the sum of the amplitude and phase inference
    variances; the right-hand side is 2(k^2 + 1/k^2).  Satisfaction for any
    k is sufficient for entanglement, so the result is reported whether or
    not the standard-form restrictions make the criterion strictly
    applicable; ``applicable`` records that separately.

    Args:
        cm: correlation matrix in block form (no cross-quadrature terms).
        k: bias parameter; computed from the matrix when omitted.
    """
    # First, so that a matrix coupling the quadratures is refused before k is checked.
    restrictions = standard_form_restrictions(cm)
    if k is None:
        k = k_parameter(cm)
    elif k <= 0.0:
        raise ValueError(f"k must be positive, got {k}")

    lhs = _inference_variance(cm, "+", k) + _inference_variance(cm, "-", k)
    rhs = 2.0 * (k * k + 1.0 / (k * k))
    return SumCriterionResult(
        k=k,
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs < rhs,
        applicable=restrictions.ratio_ok and restrictions.balance_ok,
        sign_defaulted=cm.cxy_plus == 0.0 or cm.cxy_minus == 0.0,
    )


def standard_form_restrictions(cm: CorrelationMatrix4) -> StandardFormCheck:
    """Check the two restrictions required by the sum-form criterion.

    Returns:
        StandardFormCheck with ``ratio_ok`` (equal excess-variance ratios
        in both quadratures, relative tolerance :data:`RATIO_REL_TOL`) and
        ``balance_ok`` (equal correlation margins, absolute tolerance
        :data:`RESTRICTION_TOL`).  Degenerate matrices (diagonal at or below
        shot noise) fail both with a diagnostic in ``detail``.
    """
    excesses = _excesses(cm)
    ex_p, ey_p, ex_m, ey_m = excesses
    if ey_p == 0.0 or ey_m == 0.0:
        return StandardFormCheck(False, False, "restriction undefined: variance at shot noise")
    ratio_ok = math.isclose(ex_p / ey_p, ex_m / ey_m, rel_tol=RATIO_REL_TOL, abs_tol=0.0)

    if min(excesses) < 0.0:
        return StandardFormCheck(
            ratio_ok, False, "restriction undefined: variance below shot noise"
        )
    margin_plus = math.sqrt(ex_p * ey_p) - abs(cm.cxy_plus)
    margin_minus = math.sqrt(ex_m * ey_m) - abs(cm.cxy_minus)
    balance_ok = abs(margin_plus - margin_minus) <= RESTRICTION_TOL
    return StandardFormCheck(ratio_ok, balance_ok)


def product_restriction(cm: CorrelationMatrix4) -> bool:
    """Check the single restriction required by the product-form criterion.

    Both sides vanish identically for matrices with interchangeable beams
    (as :func:`check_symmetric_form` decides, the same test that picks the
    branch of :func:`degree_of_inseparability`), so those always pass.
    For biased matrices each quadrature's inference variance is evaluated
    with that quadrature's own bias weight and the two sides must agree
    within :data:`RESTRICTION_TOL`; if the variances are undefined
    (diagonal at or below shot noise) the restriction is reported as not
    satisfied.
    """
    if check_symmetric_form(cm):
        return True
    excesses = _excesses(cm)
    if min(excesses) <= 0.0:
        return False
    ex_p, ey_p, ex_m, ey_m = excesses
    d_plus = _inference_variance(cm, "+", _bias_weight(ex_p, ey_p))
    d_minus = _inference_variance(cm, "-", _bias_weight(ex_m, ey_m))
    if d_plus <= 0.0 or d_minus <= 0.0:
        return False
    lhs = cm.cyy_plus * cm.cxx_minus - cm.cxx_plus * cm.cyy_minus
    rhs = math.sqrt(d_minus / d_plus) * (cm.cyy_plus - cm.cxx_plus)
    rhs += math.sqrt(d_plus / d_minus) * (cm.cxx_minus - cm.cyy_minus)
    return abs(lhs - rhs) <= RESTRICTION_TOL


def degree_of_inseparability(cm: CorrelationMatrix4) -> float:
    """Degree of inseparability; the beams are entangled iff it is below 1.

    For matrices with interchangeable beams this is the geometric mean of
    the minimum sum/difference variances of the two quadratures.  Otherwise
    the general normalized product of inference variances is used, with the
    bias parameter taken from the matrix.

    The value is advisory only where the product-form restriction fails.
    That is reported by :func:`product_restriction`, and by ``gaussent
    analyze`` as ``restrictions.product_ok``, not by a warning here.

    Raises:
        ValueError: if an inference variance is not positive, or if the
            matrix couples the quadratures.
    """
    if check_symmetric_form(cm):
        return _symmetric_degree(cm)[2]
    k = k_parameter(cm)
    d_plus = _inference_variance(cm, "+", k)
    d_minus = _inference_variance(cm, "-", k)
    if d_plus <= 0.0 or d_minus <= 0.0:
        raise ValueError(
            f"non-positive inference variance ({d_plus:.6g}, {d_minus:.6g})"
        )
    return math.sqrt(d_plus * d_minus) / (k * k + 1.0 / (k * k))


def _symmetric_degree(cm: CorrelationMatrix4) -> tuple[float, float, float]:
    """(V+, V-, sqrt(V+ V-)) of a matrix with interchangeable beams.

    V+/V- are the minimum sum/difference variances of the amplitude and
    phase quadratures; the caller has checked the form.

    Raises:
        ValueError: if either variance is not positive.
    """
    v_plus = min_sum_diff_variance(cm, "+")
    v_minus = min_sum_diff_variance(cm, "-")
    if v_plus <= 0.0 or v_minus <= 0.0:
        raise ValueError(
            f"non-positive sum/difference variance ({v_plus:.6g}, {v_minus:.6g})"
        )
    return v_plus, v_minus, _degree_from_variances(v_plus, v_minus)


def _degree_from_variances(v_plus, v_minus):
    """sqrt(V+ V-), elementwise: the degree of interchangeable beams from
    their minimum sum/difference variances (not negative, for a float).

    A float goes through math.sqrt, which rounds as np.sqrt does (both
    correctly) without numpy's per-call cost."""
    product = v_plus * v_minus
    if type(product) is float:
        return math.sqrt(product)
    return np.sqrt(product)


def inseparability_vs_loss(v_ave: float, eta: float) -> float:
    """Closed-form degree of inseparability after equal loss on both beams.

    Exact for entanglement built from two equally squeezed inputs:
    I = eta * v_ave + (1 - eta), where ``v_ave`` is the average squeezed
    variance of the inputs.  Below 1 whenever v_ave < 1 and eta > 0, so
    loss alone never makes the state separable.
    """
    if not 0.0 < v_ave < math.inf:
        raise ValueError(f"average squeezed variance must be positive and finite, got {v_ave}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return eta * v_ave + (1.0 - eta)
