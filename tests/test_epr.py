import math
import re
import sys
from dataclasses import asdict

import numpy as np
import pytest

from conftest import random_entangled_cm
from oracles import numeric_conditional_variance
from gaussent.cli import analyze_cm
from gaussent.epr import (
    degree_of_epr,
    epr_from_photons,
    epr_vs_loss,
)
from gaussent.photons import cm_from_photons, decompose, nmin_from_insep
from gaussent.separability import inseparability_vs_loss
from gaussent.states import (
    CorrelationMatrix4,
    SqueezedBeam,
    apply_loss,
    entangle_on_beamsplitter,
)


def cv_and_gain(cm, quadrature):
    """(variance, gain) of one quadrature, "+" or "-", from degree_of_epr's fields."""
    report = degree_of_epr(cm)
    if quadrature == "+":
        return report.cv_plus, report.g_plus
    return report.cv_minus, report.g_minus


class TestConditionalVariance:
    def test_anchor_65_both_quadratures(self, cm_65mhz):
        expected = 3.3 - 2.9**2 / 3.3
        for quadrature in ("+", "-"):
            variance, gain = cv_and_gain(cm_65mhz, quadrature)
            assert abs(numeric_conditional_variance(cm_65mhz, quadrature) - variance) <= 1e-9
            assert variance == pytest.approx(expected, abs=1e-12)
            assert abs(gain) == pytest.approx(2.9 / 3.3, abs=1e-12)
        report = degree_of_epr(cm_65mhz)
        assert report.g_plus < 0 < report.g_minus  # anti-correlated amplitudes

    def test_anchor_35_amplitude(self, cm_35mhz):
        variance = degree_of_epr(cm_35mhz).cv_plus
        assert variance == pytest.approx(6.2 - 5.3**2 / 6.2, abs=1e-12)
        assert variance == pytest.approx(1.669, abs=1e-3)

    def test_uncorrelated_returns_mode_variance(self):
        report = degree_of_epr(CorrelationMatrix4(np.diag([2.0, 3.0, 1.5, 1.5])))
        assert report.cv_plus == 2.0
        assert report.g_plus == 0.0

    def test_conditioning_never_increases_variance(self, rng):
        for _ in range(200):
            cm = random_entangled_cm(rng)
            report = degree_of_epr(cm)
            assert report.cv_plus <= cm.cxx_plus + 1e-15
            assert report.cv_minus <= cm.cxx_minus + 1e-15

    def test_numeric_minimization_agrees(self, rng):
        for _ in range(50):
            cm = random_entangled_cm(rng)
            for quadrature in ("+", "-"):
                closed, _ = cv_and_gain(cm, quadrature)
                numeric = numeric_conditional_variance(cm, quadrature)
                assert abs(closed - numeric) <= 1e-9


class TestConditionalVariancePastTheSquareOverflow:
    """|C_xy| from 1e150 to 1e300: C_xy^2 overflows past about 1.34e154."""

    @staticmethod
    def _cm(c_xx, c_yy, c_xy):
        return CorrelationMatrix4(
            [[c_xx, 0.0, -c_xy, 0.0], [0.0, c_xx, 0.0, c_xy],
             [-c_xy, 0.0, c_yy, 0.0], [0.0, c_xy, 0.0, c_yy]]
        )

    def test_matches_mpmath(self, rng):
        mpmath = pytest.importorskip("mpmath")
        for exponent in np.linspace(150.0, 300.0, 151).tolist():
            c_xy = 10.0**exponent * rng.uniform(1.0, 10.0)
            c_yy = c_xy * 10.0 ** rng.uniform(-2.0, 2.0)
            c_xx = c_xy / c_yy * c_xy * rng.uniform(1.1, 4.0)
            report = degree_of_epr(self._cm(c_xx, c_yy, c_xy))
            x, y, c = map(mpmath.mpf, (c_xx, c_yy, c_xy))
            # At 53 bits each operation rounds as a double's does, with no
            # exponent limit: the value the formula would give without overflow.
            with mpmath.workprec(53):
                rounded = float(x - c * c / y)
            with mpmath.workdps(40):
                exact = x - c * c / y
            assert report.cv_plus == report.cv_minus == rounded
            assert abs(report.cv_plus - exact) <= 3e-15 * exact

    def test_the_overflowing_symmetric_matrix_reads_finite(self):
        mpmath = pytest.importorskip("mpmath")
        c = 1e160 - 2e144
        record = analyze_cm(CorrelationMatrix4.symmetric_form(1e160, 1e160, -c, c))
        with mpmath.workdps(40):
            exact = mpmath.mpf(1e160) - mpmath.mpf(c) ** 2 / mpmath.mpf(1e160)
        assert record["cv_plus"] == record["cv_minus"] == pytest.approx(float(exact), rel=1e-15)
        assert record["epr"] == record["cv_plus"] * record["cv_minus"]


class TestDegreeOfEpr:
    def test_anchor_65_pipeline(self, cm_65mhz):
        report = degree_of_epr(cm_65mhz)
        cv = 3.3 - 2.9**2 / 3.3
        assert report.degree == pytest.approx(cv * cv, abs=1e-12)
        assert report.degree == pytest.approx(0.5648, abs=5e-4)

    def test_measured_conditional_variances(self):
        # The directly measured values behind the 6.5 MHz anchor.
        assert 0.77 * 0.76 == pytest.approx(0.5852, abs=1e-4)

    def test_vacuum_boundary(self):
        assert degree_of_epr(CorrelationMatrix4(np.eye(4))).degree == 1.0

    def test_json_fields(self, cm_65mhz):
        data = asdict(degree_of_epr(cm_65mhz))
        assert set(data) == {"cv_plus", "cv_minus", "g_plus", "g_minus", "degree"}


class TestEprVsLoss:
    def test_unity_at_half_efficiency_for_any_squeezing(self):
        for v in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert abs(epr_vs_loss(v, 0.5) - 1.0) <= 1e-12

    def test_lossless_value(self):
        assert epr_vs_loss(0.5, 1.0) == pytest.approx(0.64, abs=1e-12)

    def test_no_squeezing_gives_unity(self):
        for eta in (0.0, 0.3, 0.5, 0.8, 1.0):
            assert epr_vs_loss(1.0, eta) == pytest.approx(1.0, abs=1e-12)

    def test_subnormal_squeezing_matches_mpmath(self):
        """Below v of about 5.6e-309, 1/v overflows; E is still exactly 1 at eta = 0."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for v in (1e-300, 1e-320, 5e-324):
                for eta in (0.0, 0.25, 0.5, 1.0):
                    x, e = mpmath.mpf(v), mpmath.mpf(eta)
                    root = 1 - e + (2 * e - 1) / (e * (x + 1 / x - 2) + 2)
                    expected = float(4 * root * root)
                    assert epr_vs_loss(v, eta) == pytest.approx(expected, rel=1e-15, abs=0)
        assert epr_vs_loss(1e-320, 0.0) == epr_vs_loss(1e-320, -0.0) == 1.0

    def test_pipeline_matches_closed_form(self, rng):
        for _ in range(100):
            v = rng.uniform(0.05, 0.99)
            eta = rng.uniform(0.0, 1.0)
            state = apply_loss(
                entangle_on_beamsplitter(SqueezedBeam.pure(v), SqueezedBeam.pure(v)),
                eta,
                eta,
            )
            assert abs(degree_of_epr(state.cm).degree - epr_vs_loss(v, eta)) <= 1e-10

    def test_paradox_iff_majority_transmission(self):
        etas = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95, 1.0]
        for v in np.arange(0.1, 1.0, 0.1):
            for eta in etas:
                observed = epr_vs_loss(float(v), eta) < 1.0
                assert observed == (eta > 0.5)

    def test_validates_arguments(self):
        for v in (-0.5, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                epr_vs_loss(v, 0.5)
        with pytest.raises(ValueError):
            epr_vs_loss(0.5, -0.1)
        # Both equal-loss closed forms refuse the same inputs with the same words.
        for v, eta in ((0.0, 0.5), (math.nan, -1.0), (0.5, -0.1), (0.5, math.nan), (0.5, 1.5)):
            with pytest.raises(ValueError) as refused:
                epr_vs_loss(v, eta)
            with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
                inseparability_vs_loss(v, eta)


class TestEprFromPhotons:
    def test_pure_state_value(self):
        assert epr_from_photons(0.356, 0.0) == pytest.approx((1.0 / 1.356) ** 2, abs=1e-12)

    def test_anchor_budget(self):
        assert epr_from_photons(0.356, 1.944) == pytest.approx(0.675, abs=5e-3)

    def test_no_photons_at_all(self):
        assert epr_from_photons(0.0, 0.0) == 1.0

    def test_unentangled_noisy_state_shows_no_paradox(self):
        # With n_min = 0 the conditional-variance product is ((2e+1)/(e+1))^2.
        for excess in (0.5, 1.0, 3.0):
            expected = ((2.0 * excess + 1.0) / (excess + 1.0)) ** 2
            value = epr_from_photons(0.0, excess)
            assert value == pytest.approx(expected, abs=1e-12)
            assert value >= 1.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            epr_from_photons(-0.1, 0.0)
        with pytest.raises(ValueError):
            epr_from_photons(0.1, -1.0)

    def test_matches_conditional_variance_pipeline(self, rng):
        for _ in range(1000):
            n_min = rng.uniform(0.005, 2.0)
            n_excess = rng.uniform(0.0, 5.0)
            closed = epr_from_photons(n_min, n_excess)
            pipeline = degree_of_epr(cm_from_photons(n_min, n_excess)).degree
            assert abs(closed - pipeline) <= 1e-10

    def test_array_evaluation(self):
        n_min = np.array([0.0, 0.356])
        n_excess = np.array([0.0, 1.944])
        values = epr_from_photons(n_min, n_excess)
        assert values.shape == (2,)
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(epr_from_photons(0.356, 1.944))

    def test_budgets_past_the_square_overflow_match_mpmath(self):
        """From n_min of about 1.34e154 on, (n_min + 1)^2 overflows; I = 0.5/m there."""
        mpmath = pytest.importorskip("mpmath")
        n_min = np.concatenate(([1e154, 1.34e154, 1.35e154], np.logspace(155, 300, 30)))
        n_excess = np.concatenate(([0.0, 1.0, 1e3], np.logspace(10, 300, 30)))
        values = epr_from_photons(n_min[:, None], n_excess[None, :])
        assert np.isfinite(values).all()
        assert epr_from_photons(1e200, 1e3) == 0.0  # 1e-400, below the smallest double
        with mpmath.workdps(60):
            for (i, j), value in np.ndenumerate(values):
                m, e = mpmath.mpf(float(n_min[i])) + 1, mpmath.mpf(float(n_excess[j]))
                insep = m - mpmath.sqrt(m * m - 1)
                assert abs(float(value) - ((2 * e * insep + 1) / (e + m)) ** 2) <= 1e-300

    def test_excess_past_the_doubling_overflow_matches_mpmath(self):
        """From n_excess of about 9e307 on, 2 n_excess overflows, and from n_excess + m
        of about 1.8e308 the denominator too; E halves both, so neither overflows."""
        mpmath = pytest.importorskip("mpmath")
        n_min = np.array([0.0, 1.0, 3.0, 1e200, 1e300, 1e307, 1e308])
        n_excess = np.array(
            [*np.logspace(300, 308, 17), 8.99e307, 9e307, 1.79e308, sys.float_info.max]
        )
        values = epr_from_photons(n_min[:, None], n_excess[None, :])
        assert np.isfinite(values).all()
        assert epr_from_photons(0.0, 1e308) == pytest.approx(4.0, rel=1e-15, abs=0)
        with mpmath.workdps(60):
            for (i, j), value in np.ndenumerate(values):
                m, e = mpmath.mpf(float(n_min[i])) + 1, mpmath.mpf(float(n_excess[j]))
                insep = 1 / (m + mpmath.sqrt(m * m - 1))
                expected = ((2 * e * insep + 1) / (e + m)) ** 2
                assert abs(value - expected) <= 1e-14 * expected + 1e-300
                assert epr_from_photons(float(n_min[i]), float(n_excess[j])) == value


class TestAsymptotes:
    """E at a fixed degree I as the excess photons vanish, 4 I^2 / (I^2 + 1)^2,
    and as they diverge, 4 I^2: extremely impure states show the paradox
    only for I < 0.5."""

    def test_anchor_strength(self):
        n_min = nmin_from_insep(0.44)
        assert epr_from_photons(n_min, 1e-12) == pytest.approx(0.5435, abs=1e-4)
        assert epr_from_photons(n_min, 1e9) == pytest.approx(0.7744, abs=1e-6)

    def test_pure_limit_matches_vanishing_excess(self):
        for insep in (0.05, 0.2, 0.44, 0.7, 0.9, 1.0):
            n_min = nmin_from_insep(insep)
            at_tiny_excess = epr_from_photons(n_min, 1e-12)
            i_sq = insep * insep
            assert abs(at_tiny_excess - 4.0 * i_sq / ((i_sq + 1.0) * (i_sq + 1.0))) <= 1e-10

    def test_impure_limit_matches_large_excess(self):
        # 0.5: 4 I^2 = 1, the paradox threshold; 1.0: the separable boundary.
        for insep in (0.2, 0.44, 0.5, 0.9, 1.0):
            n_min = nmin_from_insep(insep)
            at_large_excess = epr_from_photons(n_min, 1e9)
            assert abs(at_large_excess - 4.0 * insep * insep) <= 1e-6


def test_photon_route_matches_decomposition_route(rng):
    # Closing the loop: decompose a symmetric unbiased matrix, then predict
    # its EPR degree from the photon budget alone.
    for _ in range(200):
        n_min = rng.uniform(0.01, 1.5)
        n_excess = rng.uniform(0.0, 4.0)
        cm = cm_from_photons(n_min, n_excess)
        budget = decompose(cm)
        predicted = epr_from_photons(budget.n_min, budget.n_excess)
        assert abs(predicted - degree_of_epr(cm).degree) <= 1e-10
