import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_entangled_cm
from oracles import (
    degree_of_inseparability_reference,
    duan_sum_criterion_reference,
    k_parameter_reference,
    nu_minus,
    product_restriction_reference,
    product_restriction_sides,
    standard_form_restrictions_reference,
)
from gaussent.cli import analyze_cm
from gaussent.separability import (
    RESTRICTION_TOL,
    degree_of_inseparability,
    inseparability_vs_loss,
    k_parameter,
    product_restriction,
    standard_form_restrictions,
)
from gaussent.states import (
    CorrelationMatrix4,
    SqueezedBeam,
    apply_local_squeezing,
    apply_loss,
    check_symmetric_form,
    entangle_on_beamsplitter,
)


def biased_cm(cxx_p, cyy_p, cxx_m, cyy_m, cxy_p, cxy_m):
    return CorrelationMatrix4(
        [
            [cxx_p, 0.0, cxy_p, 0.0],
            [0.0, cxx_m, 0.0, cxy_m],
            [cxy_p, 0.0, cyy_p, 0.0],
            [0.0, cxy_m, 0.0, cyy_m],
        ]
    )


def random_standard_form_cm(rng):
    """Biased matrix satisfying both standard-form restrictions exactly.

    Built from a common excess-variance ratio r and a common correlation
    margin c; the state is entangled iff c < 0.
    """
    r = rng.uniform(0.3, 3.0)
    u = rng.uniform(0.2, 3.0)
    w = rng.uniform(0.2, 3.0)
    c = rng.uniform(-0.5, 0.5)
    c = min(c, math.sqrt(r) * min(u, w))  # keep |C_xy| >= 0
    return biased_cm(
        cxx_p=1.0 + r * u,
        cyy_p=1.0 + u,
        cxx_m=1.0 + r * w,
        cyy_m=1.0 + w,
        cxy_p=-(math.sqrt(r) * u - c),
        cxy_m=+(math.sqrt(r) * w - c),
    )


class TestKParameter:
    def test_symmetric_anchors_give_unity(self, cm_35mhz, cm_65mhz):
        assert k_parameter(cm_65mhz) == pytest.approx(1.0, abs=1e-12)
        assert k_parameter(cm_35mhz) == pytest.approx(1.0, abs=1e-12)

    def test_biased_matrix(self):
        # Excess-variance ratio of 4 in both quadratures.
        cm = biased_cm(2.0, 5.0, 1.5, 3.0, -0.5, 0.5)
        assert k_parameter(cm) == pytest.approx(4.0**0.25, abs=1e-12)
        assert k_parameter(cm) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_vacuum_is_degenerate(self):
        with pytest.raises(ValueError, match="shot noise"):
            k_parameter(CorrelationMatrix4(np.eye(4)))

    def test_inconsistent_quadrature_ratios_rejected(self):
        cm = biased_cm(2.0, 5.0, 2.0, 3.0, -0.5, 0.5)
        with pytest.raises(ValueError, match="inconsistent"):
            k_parameter(cm)

    def test_refusal_states_the_tolerance_it_tested(self):
        # The excess ratios agree within RATIO_REL_TOL, so the variance-ratio
        # restriction holds; the k values differ by more than K_REL_TOL.
        cm = biased_cm(3.0, 2.0, 4.0, 2.5001, -1.5, 1.8)
        assert standard_form_restrictions(cm).ratio_ok
        message = (
            "bias parameter inconsistent between quadratures "
            "(0.84089642 vs 0.84091043, relative tolerance 1e-06)"
        )
        for refused in (k_parameter, analyze_cm):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                refused(cm)


class TestSumCriterionOracle:
    """The sum form, which only tests/oracles.py computes, on the anchors: the
    oracle test_sum_and_product_forms_agree_on_standard_form rests on."""

    def test_anchor_65(self, cm_65mhz):
        result = duan_sum_criterion_reference(cm_65mhz, k=1.0)
        assert result.lhs == pytest.approx(1.6, abs=1e-12)
        assert result.rhs == pytest.approx(4.0, abs=1e-15)
        assert result.satisfied
        assert result.applicable
        assert not result.sign_defaulted

    def test_vacuum_boundary_not_satisfied(self):
        result = duan_sum_criterion_reference(CorrelationMatrix4(np.eye(4)), k=1.0)
        assert result.lhs == pytest.approx(4.0, abs=1e-15)
        assert result.rhs == pytest.approx(4.0, abs=1e-15)
        assert not result.satisfied  # strict inequality
        assert result.sign_defaulted

    def test_anchor_35_satisfied_but_not_applicable(self, cm_35mhz):
        result = duan_sum_criterion_reference(cm_35mhz, k=1.0)
        assert result.satisfied
        assert not result.applicable

    def test_k_computed_when_omitted(self, cm_65mhz):
        assert duan_sum_criterion_reference(cm_65mhz).k == pytest.approx(1.0, abs=1e-12)

    def test_omitted_k_on_vacuum_raises(self):
        with pytest.raises(ValueError, match="shot noise"):
            duan_sum_criterion_reference(CorrelationMatrix4(np.eye(4)))


class TestPastTheFloatLimit:
    """sqrt(a b) in the degree and the correlation margins where a b overflows
    but its root does not; the means of variances whose sums overflow; and
    the bias weight where the excesses' ratio leaves the normal floats."""

    def test_symmetric_degree(self):
        # V+ V- = 1e400.
        cm = CorrelationMatrix4(np.diag([1e200] * 4))
        assert degree_of_inseparability(cm) == 1e200

    def test_biased_degree_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        # Excess ratio 4 in both quadratures (k = sqrt 2); D+ D- is about 1.2e401.
        entries = (1e200, 4e200, 2e200, 8e200, -1e200, 1e200)
        degree = degree_of_inseparability(biased_cm(*entries))
        with mpmath.workdps(40):
            cxx_p, cyy_p, cxx_m, cyy_m, cxy_p, cxy_m = map(mpmath.mpf, entries)
            k_sq = mpmath.sqrt((cyy_p - 1) / (cxx_p - 1))
            d_plus = k_sq * cxx_p + cyy_p / k_sq - 2 * abs(cxy_p)
            d_minus = k_sq * cxx_m + cyy_m / k_sq - 2 * abs(cxy_m)
            exact = mpmath.sqrt(d_plus * d_minus) / (k_sq + 1 / k_sq)
        assert abs(degree - exact) <= 1e-14 * exact

    def test_variances_whose_sums_overflow_keep_the_analysis_finite(self):
        mpmath = pytest.importorskip("mpmath")
        result = analyze_cm(CorrelationMatrix4(np.diag([1.7e308] * 4)))
        with mpmath.workdps(60):
            fidelity = 1 / (1 + mpmath.mpf(1.7e308))
        assert result["inseparability"] == result["n_total"] == result["n_excess"] == 1.7e308
        assert (result["n_min"], result["n_bias"], result["g_bias_sq"]) == (0.0, 0.0, 1.0)
        assert result["fidelity"] == pytest.approx(float(fidelity), rel=1e-15)

    @pytest.mark.parametrize("near_vacuum_first", [True, False])
    def test_bias_weights_past_the_float_range_match_mpmath(self, near_vacuum_first):
        mpmath = pytest.importorskip("mpmath")
        # Excess ratios of 1.7e308 / 2^-52 and its inverse: past the largest
        # float, and below the smallest subnormal.
        x, y = 1.0 + 2.0**-52, 1.7e308
        if not near_vacuum_first:
            x, y = y, x
        cm = CorrelationMatrix4(np.diag([x, x, y, y]))
        with mpmath.workdps(60):
            ex, ey = mpmath.mpf(x) - 1, mpmath.mpf(y) - 1
            k_sq = mpmath.sqrt(ey / ex)
            exact = (k_sq * x + y / k_sq) / (k_sq + 1 / k_sq)
        assert k_parameter(cm) == pytest.approx(float(mpmath.sqrt(k_sq)), rel=1e-15)
        assert degree_of_inseparability(cm) == pytest.approx(float(exact), rel=1e-15)
        assert analyze_cm(cm)["inseparability"] == degree_of_inseparability(cm)

    def test_correlation_margins_balance(self):
        # Both margins are sqrt((C_xx - 1)(C_yy - 1)) = 1e200, as the
        # unscaled products would give them without an exponent limit.
        check = standard_form_restrictions(CorrelationMatrix4(np.diag([1e200] * 4)))
        assert (check.ratio_ok, check.balance_ok, check.detail) == (True, True, None)


class TestStandardFormRestrictions:
    def test_anchor_65_passes_both(self, cm_65mhz):
        check = standard_form_restrictions(cm_65mhz)
        assert check.ratio_ok
        assert check.balance_ok

    def test_anchor_65_margins(self, cm_65mhz):
        # Both correlation margins equal -0.6.
        margin_plus = math.sqrt(2.3 * 2.3) - 2.9
        assert margin_plus == pytest.approx(-0.6)

    def test_anchor_35_fails_balance(self, cm_35mhz):
        check = standard_form_restrictions(cm_35mhz)
        assert check.ratio_ok
        assert not check.balance_ok  # margins -0.1 vs -0.6

    def test_vacuum_degenerate(self):
        check = standard_form_restrictions(CorrelationMatrix4(np.eye(4)))
        assert not check.ratio_ok
        assert not check.balance_ok
        assert check.detail is not None

    def test_below_shot_noise_is_undefined(self):
        # Both excess variances negative: the product under the root is
        # positive, but the restriction is still undefined.
        cm = biased_cm(0.5, 0.6, 2.0, 2.5, -0.1, 0.1)
        check = standard_form_restrictions(cm)
        assert not check.balance_ok
        assert "below shot noise" in check.detail


class TestProductRestriction:
    def test_anchors_pass(self, cm_35mhz, cm_65mhz):
        assert product_restriction(cm_65mhz)
        assert product_restriction(cm_35mhz)

    def test_constructed_violation(self):
        cm = biased_cm(2.0, 3.0, 2.0, 2.0, -0.5, 0.5)
        assert not product_restriction(cm)

    def test_exact_on_standard_form_matrices(self, rng):
        for _ in range(100):
            assert product_restriction(random_standard_form_cm(rng))

    def test_nearly_interchangeable_beams_pass(self):
        # Interchangeable within the form tolerance but not exactly: the
        # restriction takes the same branch as the degree and decompose.
        cm = biased_cm(1.0, 1.0 + 1e-12, 1.0, 1.0, 0.0, 0.0)
        assert product_restriction(cm)
        assert analyze_cm(cm)["restrictions"]["product_ok"]
        assert check_symmetric_form(cm)


class TestDegreeOfInseparability:
    def test_anchor_values(self, cm_35mhz, cm_65mhz):
        assert degree_of_inseparability(cm_65mhz) == pytest.approx(0.40, abs=1e-12)
        assert degree_of_inseparability(cm_35mhz) == pytest.approx(
            math.sqrt(0.9 * 0.4), abs=1e-12
        )
        assert degree_of_inseparability(cm_35mhz) == pytest.approx(0.60, abs=1e-12)

    def test_vacuum_is_separable_boundary(self):
        assert degree_of_inseparability(CorrelationMatrix4(np.eye(4))) == 1.0

    def test_pipeline_matches_loss_closed_form(self, rng):
        for _ in range(100):
            v = rng.uniform(0.05, 0.99)
            eta = rng.uniform(0.0, 1.0)
            state = apply_loss(
                entangle_on_beamsplitter(SqueezedBeam.pure(v), SqueezedBeam.pure(v)),
                eta,
                eta,
            )
            assert abs(
                degree_of_inseparability(state.cm) - inseparability_vs_loss(v, eta)
            ) <= 1e-12

    def test_invariant_under_equal_local_squeezing(self, rng):
        for _ in range(50):
            cm = random_entangled_cm(rng)
            reference = degree_of_inseparability(cm)
            for gain in (0.5, 0.8, 1.25, 2.0):
                squeezed = apply_local_squeezing(cm, gain)
                assert abs(degree_of_inseparability(squeezed) - reference) <= 1e-12

    def test_sum_and_product_forms_agree_on_standard_form(self, rng):
        for _ in range(200):
            cm = random_standard_form_cm(rng)
            result = duan_sum_criterion_reference(cm)
            degree = degree_of_inseparability(cm)
            assert result.applicable
            assert (result.lhs < result.rhs) == (degree < 1.0)

    def test_advisory_warning_when_product_restriction_fails(self):
        # Consistent bias parameter, but unequal correlation margins large
        # enough to break the product-form restriction.
        root2 = math.sqrt(2.0)
        cm = biased_cm(3.0, 2.0, 3.0, 2.0, -(root2 + 0.3), root2 - 0.2)
        # Reported once, as a flag; computing the degree warns of nothing.
        assert not product_restriction(cm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = analyze_cm(cm)
            degree = degree_of_inseparability(cm)
        assert record["restrictions"]["product_ok"] is False
        assert record["inseparability"] == degree

    def test_rejection_precedes_advisory_warning(self):
        cm = biased_cm(2.0, 3.0, 2.0, 2.0, -0.5, 0.5)
        with pytest.raises(ValueError, match="inconsistent"):
            degree_of_inseparability(cm)

    def test_coupled_quadratures_rejected(self):
        entries = np.array(
            [
                [2.0, 0.3, -0.5, 0.0],
                [0.3, 2.0, 0.0, 0.5],
                [-0.5, 0.0, 2.0, 0.3],
                [0.0, 0.5, 0.3, 2.0],
            ]
        )
        cm = CorrelationMatrix4(entries)
        for operation in (degree_of_inseparability, k_parameter, product_restriction,
                          standard_form_restrictions):
            with pytest.raises(ValueError, match="couples"):
                operation(cm)


_DIAGONAL = st.one_of(st.just(1.0), st.floats(0.05, 1.0), st.floats(1.0, 10.0))
_CROSS = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@st.composite
def _criterion_matrices(draw):
    """Symmetric matrices with diagonals at, below and above shot noise,
    cross-quadrature terms within and beyond FORM_TOL, nearly
    interchangeable beams, and biased ones whose quadratures share a weight."""
    kind = draw(st.sampled_from(["free", "common_weight", "near_interchangeable"]))
    if kind == "common_weight":
        cxx_p, cxx_m = draw(st.floats(1.01, 10.0)), draw(st.floats(1.01, 10.0))
        ratio = draw(st.one_of(st.just(1.0), st.floats(0.1, 10.0)))
        cyy_p, cyy_m = 1.0 + ratio * (cxx_p - 1.0), 1.0 + ratio * (cxx_m - 1.0)
    else:
        cxx_p, cxx_m = draw(_DIAGONAL), draw(_DIAGONAL)
        if kind == "near_interchangeable":
            offsets = st.sampled_from([0.0, 1e-10, -1e-10, 1e-9, 2e-9, -2e-9, 1e-6])
            cyy_p, cyy_m = cxx_p + draw(offsets), cxx_m + draw(offsets)
        else:
            cyy_p, cyy_m = draw(_DIAGONAL), draw(_DIAGONAL)
    cxy_p, cxy_m = draw(_CROSS), draw(_CROSS)
    if draw(st.booleans()):
        cxy_m = -cxy_p
    coupling = draw(st.sampled_from([0.0, 0.0, 5e-10, 1e-3]))
    return CorrelationMatrix4(
        [
            [cxx_p, coupling, cxy_p, 0.0],
            [coupling, cxx_m, 0.0, cxy_m],
            [cxy_p, 0.0, cyy_p, 0.0],
            [0.0, cxy_m, 0.0, cyy_m],
        ]
    )


def _outcome(operation, *args):
    try:
        return "value", operation(*args)
    except ValueError as exc:
        return "error", str(exc)


class TestSharedExcessHelpers:
    """The criteria and restrictions against their per-expression forms in
    tests/oracles.py, from before C - 1, the per-quadrature bias weight and
    the inference variance each had one helper."""

    @settings(max_examples=1500, deadline=None)
    @given(_criterion_matrices())
    def test_matches_reference(self, cm):
        pairs = [
            (k_parameter, k_parameter_reference),
            (degree_of_inseparability, degree_of_inseparability_reference),
            (standard_form_restrictions, standard_form_restrictions_reference),
        ]
        for operation, reference in pairs:
            assert _outcome(operation, cm) == _outcome(reference, cm), operation.__name__

        outcome = _outcome(product_restriction, cm)
        if outcome != _outcome(product_restriction_reference, cm):
            # The weight enters as k^2 and 1/k^2 rather than sqrt(ey/ex) and
            # sqrt(ex/ey), so the last bits of D+ and D- may differ; only a
            # verdict within rounding of the tolerance may flip.  Both refuse
            # a matrix coupling the quadratures, as product_restriction_sides does.
            assert not check_symmetric_form(cm)
            lhs, rhs = product_restriction_sides(cm)
            assert abs(abs(lhs - rhs) - RESTRICTION_TOL) <= 1e-9


class TestSimonOracle:
    """The degree against Simon's nu~-, the smallest symplectic eigenvalue of
    the partially transposed matrix, computed by an eigenvalue problem."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
        st.floats(1.0, 3.0),
        st.floats(1.0, 3.0),
        st.floats(0.0, 1.0),
    )
    def test_interchangeable_beams_degree_equals_nu_minus(self, v1, v2, excess1, excess2, eta):
        beam1 = SqueezedBeam(v1, excess1 / v1)
        beam2 = SqueezedBeam(v2, excess2 / v2)
        cm = apply_loss(entangle_on_beamsplitter(beam1, beam2), eta, eta).cm
        assert abs(degree_of_inseparability(cm) - nu_minus(cm.entries)) <= 1e-12

    # Pure inputs squeezed to at most 0.5 keep every mode variance above shot
    # noise through any loss, so the biased branch is defined.
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.05, 0.5),
        st.floats(0.05, 0.5),
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
    )
    def test_biased_degree_bounds_nu_minus_with_the_same_verdict(self, v1, v2, eta_x, eta_y):
        assume(eta_x != eta_y)
        state = entangle_on_beamsplitter(SqueezedBeam.pure(v1), SqueezedBeam.pure(v2))
        cm = apply_loss(state, eta_x, eta_y).cm
        degree, nu = degree_of_inseparability(cm), nu_minus(cm.entries)
        assert degree >= nu - 1e-12
        assert (degree < 1.0) == (nu < 1.0)


class TestInseparabilityVsLoss:
    def test_lossless(self):
        assert inseparability_vs_loss(0.5, 1.0) == 0.5

    def test_half_loss(self):
        assert inseparability_vs_loss(0.5, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_full_loss_reaches_unity(self):
        for v in (0.1, 0.5, 2.0):
            assert inseparability_vs_loss(v, 0.0) == 1.0

    def test_strictly_increasing_as_efficiency_drops(self):
        etas = np.linspace(1.0, 0.05, 20)
        values = [inseparability_vs_loss(0.3, eta) for eta in etas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_stays_below_unity_for_any_squeezing(self):
        for v in (0.01, 0.5, 0.99):
            for eta in (0.001, 0.5, 1.0):
                assert inseparability_vs_loss(v, eta) < 1.0

    def test_validates_arguments(self):
        for v in (-0.5, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                inseparability_vs_loss(v, 0.5)
        with pytest.raises(ValueError):
            inseparability_vs_loss(0.5, 1.5)

    @given(v=st.floats(0.01, 0.999), eta=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_closed_form_matches_pipeline(self, v, eta):
        state = apply_loss(
            entangle_on_beamsplitter(SqueezedBeam.pure(v), SqueezedBeam.pure(v)),
            eta,
            eta,
        )
        assert degree_of_inseparability(state.cm) == pytest.approx(
            inseparability_vs_loss(v, eta), abs=1e-12
        )
