"""Inseparability analysis for two-mode Gaussian states.

Implements the product form of the Duan-style inseparability criterion:
the bias-compensation parameter k, the applicability restrictions the sum
and product forms put on the correlation matrix, the degree of
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

from .states import (
    CorrelationMatrix4, _form, _min_sum_diff, _quadratures,
    _require_fraction, _require_positive_finite, _sqrt_product,
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


def _gate(f) -> tuple[bool, tuple, tuple]:
    """(interchangeable beams, "+" entries, "-" entries) of a matrix's 16
    row-major entries ``f``; each quadrature's entries are (C_xx, C_yy, C_xy).

    ValueError if the matrix couples the quadratures: reducing it to the
    decoupled form (by local linear unitary operations) is out of scope, and
    every state this package produces is already in it.
    """
    block, interchangeable = _form(f)
    if not block:
        raise ValueError(
            "correlation matrix couples the amplitude and phase quadratures; "
            "reduce it to the decoupled form before analysis"
        )
    return (interchangeable, *_quadratures(f))


def _excesses(plus: tuple, minus: tuple) -> tuple[float, float, float, float]:
    """Excesses C - 1 over shot noise of C++_xx, C++_yy, C--_xx and C--_yy."""
    return plus[0] - 1.0, plus[1] - 1.0, minus[0] - 1.0, minus[1] - 1.0


def _bias_weight(ex: float, ey: float) -> float:
    """A quadrature's bias weight ((C_yy - 1)/(C_xx - 1))^(1/4) from its excesses;
    the ratio of their fourth roots where their own ratio leaves the normal floats."""
    ratio = ey / ex
    return ratio**0.25 if 2.0**-1022 <= ratio < math.inf else ey**0.25 / ex**0.25


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
    _, plus, minus = _gate(cm._flat)
    return _k(_excesses(plus, minus))


def _k(excesses: tuple[float, float, float, float]) -> float:
    """:func:`k_parameter` from the four excesses, with its errors."""
    names = ("C++_xx", "C++_yy", "C--_xx", "C--_yy")
    bad = [name for name, value in zip(names, excesses) if value <= 0.0]
    if bad:
        raise ValueError(f"degenerate: quadrature at or below shot noise ({', '.join(bad)})")

    ex_p, ey_p, ex_m, ey_m = excesses
    k_plus, k_minus = _bias_weight(ex_p, ey_p), _bias_weight(ex_m, ey_m)
    if not math.isclose(k_plus, k_minus, rel_tol=K_REL_TOL, abs_tol=0.0):
        raise ValueError(
            f"bias parameter inconsistent between quadratures "
            f"({k_plus:.8g} vs {k_minus:.8g}, relative tolerance {K_REL_TOL:g})"
        )
    return k_plus


def _inference_variance(c_xx: float, c_yy: float, c_xy: float, k: float) -> float:
    """Variance of the k-weighted inference combination for one quadrature.

    Expands <(k dX_x - s dX_y / k)^2> with s the sign of the cross
    correlation (so the correlated combination is always the one measured;
    s defaults to +1 where the cross correlation vanishes).
    """
    return k * k * c_xx + c_yy / (k * k) - 2.0 * abs(c_xy)


def standard_form_restrictions(cm: CorrelationMatrix4) -> StandardFormCheck:
    """Check the two restrictions required by the sum-form criterion.

    Returns:
        StandardFormCheck with ``ratio_ok`` (equal excess-variance ratios
        in both quadratures, relative tolerance :data:`RATIO_REL_TOL`) and
        ``balance_ok`` (equal correlation margins, absolute tolerance
        :data:`RESTRICTION_TOL`).  Degenerate matrices (diagonal at or below
        shot noise) fail both with a diagnostic in ``detail``.
    """
    _, plus, minus = _gate(cm._flat)
    return StandardFormCheck(*_restrictions(_excesses(plus, minus), plus[2], minus[2]))


def _restrictions(
    excesses: tuple[float, float, float, float], cxy_plus: float, cxy_minus: float
) -> tuple[bool, bool, str | None]:
    """The fields of :class:`StandardFormCheck` from the four excesses and
    the two cross correlations."""
    ex_p, ey_p, ex_m, ey_m = excesses
    if ey_p == 0.0 or ey_m == 0.0:
        return False, False, "restriction undefined: variance at shot noise"
    ratio_ok = math.isclose(ex_p / ey_p, ex_m / ey_m, rel_tol=RATIO_REL_TOL, abs_tol=0.0)

    if min(excesses) < 0.0:
        return ratio_ok, False, "restriction undefined: variance below shot noise"
    margin_plus = _sqrt_product(ex_p, ey_p) - abs(cxy_plus)
    margin_minus = _sqrt_product(ex_m, ey_m) - abs(cxy_minus)
    return ratio_ok, abs(margin_plus - margin_minus) <= RESTRICTION_TOL, None


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
    interchangeable, plus, minus = _gate(cm._flat)
    return interchangeable or _biased_product_ok(plus, minus, _excesses(plus, minus))


def _biased_product_ok(plus: tuple, minus: tuple, excesses: tuple) -> bool:
    """:func:`product_restriction` of a block-form matrix without
    interchangeable beams, from its quadrature entries and excesses."""
    if min(excesses) <= 0.0:
        return False
    ex_p, ey_p, ex_m, ey_m = excesses
    d_plus = _inference_variance(*plus, _bias_weight(ex_p, ey_p))
    d_minus = _inference_variance(*minus, _bias_weight(ex_m, ey_m))
    if d_plus <= 0.0 or d_minus <= 0.0:
        return False
    cxx_plus, cyy_plus, _ = plus
    cxx_minus, cyy_minus, _ = minus
    lhs = cyy_plus * cxx_minus - cxx_plus * cyy_minus
    rhs = math.sqrt(d_minus / d_plus) * (cyy_plus - cxx_plus)
    rhs += math.sqrt(d_plus / d_minus) * (cxx_minus - cyy_minus)
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
    interchangeable, plus, minus = _gate(cm._flat)
    if interchangeable:
        return _symmetric_degree(plus, minus)[2]
    return _biased_degree(plus, minus, _k(_excesses(plus, minus)))


def _biased_degree(plus: tuple, minus: tuple, k: float) -> float:
    """The normalized product of the k-weighted inference variances.

    Raises:
        ValueError: if either inference variance is not positive.
    """
    d_plus = _inference_variance(*plus, k)
    d_minus = _inference_variance(*minus, k)
    if d_plus <= 0.0 or d_minus <= 0.0:
        raise ValueError(
            f"non-positive inference variance ({d_plus:.6g}, {d_minus:.6g})"
        )
    if not (d_plus < math.inf and d_minus < math.inf):  # inf, or NaN from inf - inf
        # At fixed k the degree is homogeneous of degree one in the entries:
        # take it on the entries scaled by 2^-600 and scale it back, exactly.
        scaled = ([entry * 2.0**-600 for entry in quadrature] for quadrature in (plus, minus))
        return _biased_degree(*scaled, k) * 2.0**600
    return _sqrt_product(d_plus, d_minus) / (k * k + 1.0 / (k * k))


def _symmetric_degree(plus: tuple, minus: tuple) -> tuple[float, float, float]:
    """(V+, V-, sqrt(V+ V-)) of a matrix with interchangeable beams, from
    its quadrature entries.

    V+/V- are the minimum sum/difference variances of the amplitude and
    phase quadratures; the caller has checked the form.

    Raises:
        ValueError: if either variance is not positive.
    """
    v_plus = _min_sum_diff(*plus)
    v_minus = _min_sum_diff(*minus)
    _require_positive_sum_diff(v_plus, v_minus)
    return v_plus, v_minus, _sqrt_product(v_plus, v_minus)


def _require_positive_sum_diff(v_plus: float, v_minus: float) -> None:
    """ValueError unless both minimum sum/difference variances V+/V- are positive."""
    if v_plus <= 0.0 or v_minus <= 0.0:
        raise ValueError(f"non-positive sum/difference variance ({v_plus:.6g}, {v_minus:.6g})")


def inseparability_vs_loss(v_ave: float, eta: float) -> float:
    """Closed-form degree of inseparability after equal loss on both beams.

    Exact for entanglement built from two equally squeezed inputs:
    I = eta * v_ave + (1 - eta), where ``v_ave`` is the average squeezed
    variance of the inputs.  Below 1 whenever v_ave < 1 and eta > 0, so
    loss alone never makes the state separable.
    """
    _require_loss_inputs(v_ave, eta)
    return eta * v_ave + (1.0 - eta)


def _require_loss_inputs(v_ave: float, eta: float) -> None:
    """ValueError unless ``v_ave`` and ``eta`` lie in the equal-loss closed forms' domain."""
    _require_positive_finite(v_ave, "average squeezed variance")
    _require_fraction(eta, "eta")
