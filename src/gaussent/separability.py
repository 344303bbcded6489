"""Inseparability analysis for two-mode Gaussian states.

Implements the sum and product forms of the Duan-style inseparability
criterion: the bias-compensation parameter k, the applicability
restrictions each form puts on the correlation matrix, the degree of
inseparability (entangled iff below 1), and its closed-form dependence on
detection efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _require_block_form(cm: CorrelationMatrix4) -> None:
    """Reject matrices with cross-quadrature correlations.

    Reduction of a fully general matrix to the decoupled form (by local
    linear unitary operations) is out of scope here; every state this
    package produces is already in it.
    """
    if not is_block_form(cm):
        raise ValueError(
            "correlation matrix couples the amplitude and phase quadratures; "
            "reduce it to the decoupled form before analysis"
        )


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
    _require_block_form(cm)
    excesses = {
        "C++_xx": cm.cxx_plus - 1.0,
        "C++_yy": cm.cyy_plus - 1.0,
        "C--_xx": cm.cxx_minus - 1.0,
        "C--_yy": cm.cyy_minus - 1.0,
    }
    bad = [name for name, value in excesses.items() if value <= 0.0]
    if bad:
        raise ValueError(f"degenerate: quadrature at or below shot noise ({', '.join(bad)})")

    k_plus = (excesses["C++_yy"] / excesses["C++_xx"]) ** 0.25
    k_minus = (excesses["C--_yy"] / excesses["C--_xx"]) ** 0.25
    if not math.isclose(k_plus, k_minus, rel_tol=K_REL_TOL, abs_tol=0.0):
        raise ValueError(
            f"bias parameter inconsistent between quadratures "
            f"({k_plus:.8g} vs {k_minus:.8g}); the variance-ratio restriction is violated"
        )
    return k_plus


def _inference_variance(cm: CorrelationMatrix4, quadrature: str, k: float) -> tuple[float, bool]:
    """Variance of the k-weighted inference combination for one quadrature.

    Expands <(k dX_x - s dX_y / k)^2> with s the sign of the cross
    correlation (so the correlated combination is always the one measured).
    Returns the variance and whether the sign had to default to +1 because
    the cross correlation vanished.
    """
    c_xx, c_yy, c_xy = quadrature_entries(cm, quadrature)
    defaulted = c_xy == 0.0
    return k * k * c_xx + c_yy / (k * k) - 2.0 * abs(c_xy), defaulted


def _self_biased_inference_variance(cm: CorrelationMatrix4, quadrature: str) -> float:
    """Inference variance with the bias weight taken from this quadrature alone.

    Substitutes k^2 = sqrt((C_yy - 1)/(C_xx - 1)) of the same quadrature,
    which is the substitution under which the product-form restriction is
    stated.  Requires both diagonal entries above shot noise.
    """
    c_xx, c_yy, c_xy = quadrature_entries(cm, quadrature)
    ex, ey = c_xx - 1.0, c_yy - 1.0
    if ex <= 0.0 or ey <= 0.0:
        raise ValueError(
            f"degenerate: {quadrature} quadrature at or below shot noise"
        )
    return math.sqrt(ey / ex) * c_xx + math.sqrt(ex / ey) * c_yy - 2.0 * abs(c_xy)


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
    _require_block_form(cm)
    if k is None:
        k = k_parameter(cm)
    elif k <= 0.0:
        raise ValueError(f"k must be positive, got {k}")

    lhs_plus, defaulted_plus = _inference_variance(cm, "+", k)
    lhs_minus, defaulted_minus = _inference_variance(cm, "-", k)
    lhs = lhs_plus + lhs_minus
    rhs = 2.0 * (k * k + 1.0 / (k * k))
    restrictions = standard_form_restrictions(cm)
    return SumCriterionResult(
        k=k,
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs < rhs,
        applicable=restrictions.ratio_ok and restrictions.balance_ok,
        sign_defaulted=defaulted_plus or defaulted_minus,
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
    _require_block_form(cm)
    ex_p, ey_p = cm.cxx_plus - 1.0, cm.cyy_plus - 1.0
    ex_m, ey_m = cm.cxx_minus - 1.0, cm.cyy_minus - 1.0

    if ey_p == 0.0 or ey_m == 0.0:
        return StandardFormCheck(
            False, False, "restriction undefined: variance at shot noise"
        )
    ratio_plus = ex_p / ey_p
    ratio_minus = ex_m / ey_m
    ratio_ok = math.isclose(ratio_plus, ratio_minus, rel_tol=RATIO_REL_TOL, abs_tol=0.0)

    if min(ex_p, ey_p, ex_m, ey_m) < 0.0:
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
    For biased matrices the inference variances are evaluated with
    per-quadrature bias weights and the two sides must agree within
    :data:`RESTRICTION_TOL`; if the variances are undefined (diagonal at or
    below shot noise) the restriction is reported as not satisfied.
    """
    if check_symmetric_form(cm):
        return True
    _require_block_form(cm)
    lhs = cm.cyy_plus * cm.cxx_minus - cm.cxx_plus * cm.cyy_minus
    try:
        d_plus = _self_biased_inference_variance(cm, "+")
        d_minus = _self_biased_inference_variance(cm, "-")
    except ValueError:
        return False
    if d_plus <= 0.0 or d_minus <= 0.0:
        return False
    rhs = math.sqrt(d_minus / d_plus) * (cm.cyy_plus - cm.cxx_plus) + math.sqrt(
        d_plus / d_minus
    ) * (cm.cxx_minus - cm.cyy_minus)
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
    d_plus, _ = _inference_variance(cm, "+", k)
    d_minus, _ = _inference_variance(cm, "-", k)
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
    return v_plus, v_minus, math.sqrt(v_plus * v_minus)


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
