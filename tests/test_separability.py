import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_entangled_cm
from gaussent.cli import analyze_cm
from gaussent.separability import (
    degree_of_inseparability,
    duan_sum_criterion,
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
            k_parameter(CorrelationMatrix4.identity())

    def test_inconsistent_quadrature_ratios_rejected(self):
        cm = biased_cm(2.0, 5.0, 2.0, 3.0, -0.5, 0.5)
        with pytest.raises(ValueError, match="inconsistent"):
            k_parameter(cm)


class TestSumCriterion:
    def test_anchor_65(self, cm_65mhz):
        result = duan_sum_criterion(cm_65mhz, k=1.0)
        assert result.lhs == pytest.approx(1.6, abs=1e-12)
        assert result.rhs == pytest.approx(4.0, abs=1e-15)
        assert result.satisfied
        assert result.applicable
        assert not result.sign_defaulted

    def test_vacuum_boundary_not_satisfied(self):
        result = duan_sum_criterion(CorrelationMatrix4.identity(), k=1.0)
        assert result.lhs == pytest.approx(4.0, abs=1e-15)
        assert result.rhs == pytest.approx(4.0, abs=1e-15)
        assert not result.satisfied  # strict inequality
        assert result.sign_defaulted

    def test_anchor_35_satisfied_but_not_applicable(self, cm_35mhz):
        result = duan_sum_criterion(cm_35mhz, k=1.0)
        assert result.satisfied
        assert not result.applicable

    def test_k_computed_when_omitted(self, cm_65mhz):
        assert duan_sum_criterion(cm_65mhz).k == pytest.approx(1.0, abs=1e-12)

    def test_omitted_k_on_vacuum_raises(self):
        with pytest.raises(ValueError, match="shot noise"):
            duan_sum_criterion(CorrelationMatrix4.identity())

    def test_rejects_nonpositive_k(self, cm_65mhz):
        with pytest.raises(ValueError):
            duan_sum_criterion(cm_65mhz, k=-1.0)


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
        check = standard_form_restrictions(CorrelationMatrix4.identity())
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
        assert degree_of_inseparability(CorrelationMatrix4.identity()) == 1.0

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
            result = duan_sum_criterion(cm)
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
                          standard_form_restrictions, duan_sum_criterion):
            with pytest.raises(ValueError, match="couples"):
                operation(cm)


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
