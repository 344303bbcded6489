import decimal
import fractions
import math
import sys
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from conftest import MEASURED_65, random_entangled_cm
from gaussent.photons import (
    cm_from_photons,
    cross_corr_from_photons,
    decompose,
    insep_from_nmin,
    mean_photon_number,
    nmin_from_insep,
)
from gaussent.spectra import SpectrumRow, cm_at_frequency
from gaussent.states import (
    CorrelationMatrix4,
    SqueezedBeam,
    apply_local_squeezing,
    entangle_on_beamsplitter,
    sum_diff_variance,
)


class TestMeanPhotonNumber:
    def test_vacuum_is_empty(self):
        assert mean_photon_number(SqueezedBeam.vacuum()) == 0.0

    def test_pure_squeezed_beam(self):
        beam = SqueezedBeam(0.5, 2.0)
        assert mean_photon_number(beam) == pytest.approx(0.125, abs=1e-15)

    def test_nonnegative_for_physical_beams(self, rng):
        for _ in range(200):
            v_plus = rng.uniform(0.05, 2.0)
            v_minus = rng.uniform(1.0, 4.0) / v_plus
            beam = SqueezedBeam(v_plus, v_minus)
            assert mean_photon_number(beam) >= 0.0

    def test_beamsplitter_keeps_the_beams_photons(self, rng):
        # The splitter is passive: the state's photons are the two beams'.
        for _ in range(200):
            beams = [SqueezedBeam.pure(rng.uniform(0.05, 1.0)) for _ in range(2)]
            state = entangle_on_beamsplitter(*beams)
            assert decompose(state.cm).n_total == pytest.approx(
                sum(map(mean_photon_number, beams)), rel=1e-12
            )


class TestDecompose:
    def test_anchor_65_matrix(self, cm_65mhz):
        # Oracle arithmetic on the rounded matrix entries: the minimum
        # combinations are 3.3 - 2.9 = 0.4 in both quadratures.
        v = 3.3 - 2.9
        insep = math.sqrt(v * v)
        expected_min = 0.5 * (insep + 1.0 / insep) - 1.0
        budget = decompose(cm_65mhz)
        assert budget.n_total == pytest.approx(3.3 - 1.0, abs=1e-12)
        assert budget.n_min == pytest.approx(expected_min, abs=1e-12)
        assert budget.n_min == pytest.approx(0.45, abs=1e-12)
        assert budget.n_bias == pytest.approx(0.0, abs=1e-12)
        assert budget.n_excess == pytest.approx(2.3 - 0.45, abs=1e-12)
        assert budget.g_bias_sq == pytest.approx(1.0, abs=1e-12)

    def test_anchor_65_measured_variances(self, cm_65mhz):
        # The unrounded sum/difference variances behind the same anchor.
        row = SpectrumRow(6.5, 3.3, 3.3, 3.3, 3.3, MEASURED_65["v_sum_plus"],
                          MEASURED_65["v_diff_minus"])
        budget = decompose(cm_at_frequency(row))
        expected_min = 0.5 * (0.44 + 1.0 / 0.44) - 1.0
        assert budget.n_total == pytest.approx(2.3, abs=1e-12)
        assert budget.n_min == pytest.approx(expected_min, abs=1e-12)
        assert budget.n_min == pytest.approx(0.356, abs=1e-3)
        assert budget.n_bias == pytest.approx(0.0, abs=1e-12)
        assert budget.n_excess == pytest.approx(2.3 - expected_min, abs=1e-12)
        assert budget.n_excess == pytest.approx(1.944, abs=2e-3)

    def test_anchor_35_matrix(self, cm_35mhz):
        v_plus, v_minus = 6.2 - 5.3, 6.1 - 5.7
        insep = math.sqrt(v_plus * v_minus)
        paired = 0.25 * (v_plus + 1 / v_plus + v_minus + 1 / v_minus) - 1.0
        debiased = 0.5 * (insep + 1.0 / insep) - 1.0
        budget = decompose(cm_35mhz)
        assert budget.n_total == pytest.approx(5.15, abs=1e-12)
        assert budget.n_min == pytest.approx(debiased, abs=1e-12)
        assert budget.n_min == pytest.approx(0.133, abs=1e-3)
        assert budget.n_bias == pytest.approx(paired - debiased, abs=1e-12)
        assert budget.n_bias == pytest.approx(0.094, abs=1e-3)
        assert budget.n_excess == pytest.approx(5.15 - paired, abs=1e-12)
        assert budget.n_excess == pytest.approx(4.922, abs=1e-3)
        assert budget.g_bias_sq == pytest.approx(math.sqrt(0.4 / 0.9), abs=1e-12)

    def test_pure_symmetric_state(self):
        beam = SqueezedBeam(0.5, 2.0)
        cm = entangle_on_beamsplitter(beam, beam).cm
        budget = decompose(cm)
        assert budget.n_total == pytest.approx(0.25, abs=1e-12)
        assert budget.n_min == pytest.approx(0.25, abs=1e-12)
        assert budget.n_bias == pytest.approx(0.0, abs=1e-12)
        assert budget.n_excess == pytest.approx(0.0, abs=1e-12)

    def test_rejects_asymmetric_matrix(self, cm_65mhz):
        entries = np.array(cm_65mhz.entries)
        entries[2, 2] = 4.0
        with pytest.raises(ValueError, match="interchangeable"):
            decompose(CorrelationMatrix4(entries))

    def test_vacuum(self):
        budget = decompose(CorrelationMatrix4.identity())
        assert budget.n_total == 0.0
        assert budget.n_min == 0.0
        assert budget.n_bias == 0.0
        assert budget.n_excess == 0.0

    def test_separable_thermal_state(self):
        cm = CorrelationMatrix4(2.0 * np.eye(4))
        budget = decompose(cm)
        assert budget.n_min == 0.0
        assert budget.n_bias == pytest.approx(0.0, abs=1e-12)
        assert budget.n_excess == pytest.approx(1.0, abs=1e-12)
        assert budget.n_total == pytest.approx(1.0, abs=1e-12)

    def test_separable_biased_state(self):
        cm = CorrelationMatrix4.symmetric_form(2.0, 2.0, -1.0, 0.0)
        budget = decompose(cm)
        assert budget.n_min == 0.0
        assert budget.n_bias > 0.0
        assert budget.n_total == pytest.approx(
            budget.n_min + budget.n_bias + budget.n_excess, abs=1e-12
        )

    def test_component_invariants_on_random_states(self, rng):
        for _ in range(300):
            budget = decompose(random_entangled_cm(rng))
            assert budget.n_min >= -1e-12
            assert budget.n_bias >= -1e-12
            assert budget.n_excess >= -1e-12
            assert budget.n_total == pytest.approx(
                budget.n_min + budget.n_bias + budget.n_excess, abs=1e-12
            )

    def test_json_fields(self, cm_65mhz):
        data = asdict(decompose(cm_65mhz))
        assert set(data) == {"n_total", "n_min", "n_bias", "n_excess", "g_bias_sq"}


class TestInsepFromNmin:
    def test_anchor_value(self):
        assert insep_from_nmin(0.356) == pytest.approx(0.4401746891464508, abs=1e-12)

    def test_zero_budget_is_separable(self):
        assert insep_from_nmin(0.0) == 1.0

    def test_round_trip(self):
        for insep in np.arange(0.01, 1.0, 0.01):
            n_min = nmin_from_insep(float(insep))
            assert abs(insep_from_nmin(n_min) - insep) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            insep_from_nmin(-0.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-negative"):
            insep_from_nmin(float("nan"))
        with pytest.raises(ValueError, match="non-negative"):
            insep_from_nmin(np.array([0.5, np.nan]))

    def test_huge_budget_keeps_positive_degree(self):
        # m^2 overflows above n_min ~ 1.3e154; I = 1/(2m) there, with no warning.
        budgets = np.array([1e154, 2e154, 1e200, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = insep_from_nmin(budgets)
        assert np.all(values > 0.0)
        assert np.allclose(values, 0.5 / (budgets + 1.0), rtol=1e-15, atol=0.0)
        assert insep_from_nmin(1e300) == pytest.approx(0.5e-300, rel=1e-15)

    def test_monotone_in_budget(self):
        budgets = np.linspace(0.0, 5.0, 50)
        values = insep_from_nmin(budgets)
        assert np.all(np.diff(values) < 0.0)


class TestNminFromInsep:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="positive, got nan"):
            nmin_from_insep(float("nan"))

    def test_rejects_nonpositive_naming_the_value(self):
        with pytest.raises(ValueError, match="positive, got 0.0"):
            nmin_from_insep(0.0)
        with pytest.raises(ValueError, match="positive, got -1.0"):
            nmin_from_insep(np.array([0.5, -1.0, np.nan]))
        # 0-d and array inputs give the scalar message, naming the first bad degree.
        for bad in (0.0, -1.0, -math.inf, math.nan):
            message = f"^degree of inseparability must be positive, got {bad}$"
            for insep in (bad, np.float64(bad), np.array(bad), np.array([[0.5, bad], [-2.0, 1]])):
                with pytest.raises(ValueError, match=message):
                    nmin_from_insep(insep)

    def test_arrays_match_scalars(self):
        inseps = np.array([1e-3, 0.44, 1.0, 2.5, 1e6])
        values = nmin_from_insep(inseps)
        assert isinstance(values, np.ndarray)
        scalars = [nmin_from_insep(float(i)) for i in inseps]
        assert all(type(value) is float for value in scalars)
        assert values.tolist() == scalars
        assert type(nmin_from_insep(np.float64(0.44))) is float


class TestCrossCorrFromPhotons:
    def test_anchor_budget(self):
        value = cross_corr_from_photons(0.356, 1.944)
        assert value == pytest.approx(2.8598, abs=1e-4)
        assert value == pytest.approx(2.9, abs=0.05)  # rounded matrix entry

    def test_vacuum(self):
        assert cross_corr_from_photons(0.0, 0.0) == 0.0

    def test_pure_beamsplitter_example(self):
        # The pure state from two (0.5, 2.0) inputs has n_min = 0.25 and
        # cross-correlation magnitude 0.75.
        assert cross_corr_from_photons(0.25, 0.0) == pytest.approx(0.75, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cross_corr_from_photons(-0.1, 0.0)

    def test_budgets_past_the_square_overflow_match_mpmath(self):
        """From n_min of about 1.34e154 on, n_min (n_min + 2) overflows; the root is n_min there."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for n_min in (1.34e154, 1.35e154, 1e155, 1e200, 1e300, sys.float_info.max):
                for n_excess in (0.0, 1.0, 1e150):
                    m, e = mpmath.mpf(n_min), mpmath.mpf(n_excess)
                    expected = float(e + mpmath.sqrt(m * (m + 2)))
                    assert cross_corr_from_photons(n_min, n_excess) == expected, n_min
        assert cross_corr_from_photons(1e155, 0.0) == 1e155
        cm = cm_from_photons(1e200, 1.0)
        assert (cm.cxy_plus, cm.cxy_minus) == (-1e200, 1e200)

    def test_small_budgets_keep_their_digits(self):
        # (n + 1)^2 - 1 taken exactly, its root to 40 decimal digits; the
        # float form of that expression returns 0.0 at n = 1e-17.
        with decimal.localcontext() as context:
            context.prec = 40
            for exponent in range(-300, 4):
                for mantissa in (1.0, 2.5, 7.3):
                    n_min = mantissa * 10.0**exponent
                    square = (fractions.Fraction(n_min) + 1) ** 2 - 1
                    root = (decimal.Decimal(square.numerator) / square.denominator).sqrt()
                    reference = float(root)
                    value = cross_corr_from_photons(n_min, 0.0)
                    assert abs(value - reference) <= 4.5e-16 * reference, n_min


class TestReconstruction:
    def test_cm_from_photons_matches_beamsplitter_state(self):
        beam = SqueezedBeam(0.5, 2.0)
        direct = entangle_on_beamsplitter(beam, beam).cm
        rebuilt = cm_from_photons(0.25, 0.0)
        assert np.max(np.abs(direct.entries - rebuilt.entries)) <= 1e-12

    def test_round_trip(self, rng):
        for _ in range(1000):
            n_min = rng.uniform(0.001, 2.0)
            n_excess = rng.uniform(0.0, 5.0)
            budget = decompose(cm_from_photons(n_min, n_excess))
            assert abs(budget.n_min - n_min) <= 1e-10
            assert abs(budget.n_excess - n_excess) <= 1e-10
            assert abs(budget.n_bias) <= 1e-10

    def test_reconstructed_states_are_physical(self, rng):
        for _ in range(100):
            cm = cm_from_photons(rng.uniform(0.0, 2.0), rng.uniform(0.0, 5.0))
            assert cm.uncertainty_violation() >= -1e-9

    @given(n_min=st.floats(0.001, 3.0), n_excess=st.floats(0.0, 8.0))
    @settings(max_examples=100)
    def test_round_trip_property(self, n_min, n_excess):
        budget = decompose(cm_from_photons(n_min, n_excess))
        assert budget.n_min == pytest.approx(n_min, abs=1e-10)
        assert budget.n_excess == pytest.approx(n_excess, abs=1e-10)
        assert budget.n_bias == pytest.approx(0.0, abs=1e-10)


class TestInvariances:
    def test_nmin_invariant_under_equal_local_squeezing(self, rng):
        for _ in range(50):
            cm = random_entangled_cm(rng)
            reference = decompose(cm).n_min
            for gain in (0.5, 0.8, 1.25, 2.0):
                assert abs(decompose(apply_local_squeezing(cm, gain)).n_min - reference) <= 1e-10

    def test_bias_gain_minimizes_paired_photons(self, rng):
        for _ in range(50):
            cm = random_entangled_cm(rng)
            v_plus, v_minus = (
                min(sum_diff_variance(cm, q, "sum"), sum_diff_variance(cm, q, "diff"))
                for q in ("+", "-")
            )

            def paired_photons(g_sq):
                return 0.25 * (
                    g_sq * v_plus
                    + 1.0 / (g_sq * v_plus)
                    + v_minus / g_sq
                    + g_sq / v_minus
                ) - 1.0

            result = minimize_scalar(
                paired_photons, bounds=(0.01, 100.0), method="bounded",
                options={"xatol": 1e-10},
            )
            assert result.x == pytest.approx(decompose(cm).g_bias_sq, rel=1e-6)

    def test_nmin_monotone_as_entanglement_strengthens(self):
        inseps = np.linspace(0.99, 0.01, 40)
        budgets = [nmin_from_insep(float(i)) for i in inseps]
        assert all(b > a for a, b in zip(budgets, budgets[1:]))

    def test_nmin_additive_over_independent_pairs(self, rng):
        # The maintenance photons of two independent entangled pairs add.
        for _ in range(50):
            first = decompose(random_entangled_cm(rng))
            second = decompose(random_entangled_cm(rng))
            i1 = insep_from_nmin(first.n_min)
            i2 = insep_from_nmin(second.n_min)
            combined = nmin_from_insep(i1) + nmin_from_insep(i2)
            assert combined == pytest.approx(first.n_min + second.n_min, abs=1e-10)
