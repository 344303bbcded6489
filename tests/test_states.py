import dataclasses
import hashlib
import math
import re
import sys
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MEASURED_65, random_squeezed_beam
from oracles import analyze_cm_reference, apply_loss_reference, correlation_matrix_reference
from gaussent import spectra
from gaussent.cli import analyze_cm
from gaussent.epr import epr_vs_loss
from gaussent.protocols import contour_grid
from gaussent.separability import inseparability_vs_loss, standard_form_restrictions
from gaussent.states import (
    FORM_TOL,
    SYMMETRY_TOL,
    CorrelationMatrix4,
    SqueezedBeam,
    TwoModeState,
    apply_local_squeezing,
    apply_loss,
    check_symmetric_form,
    _mean,
    _sqrt_product,
    entangle_on_beamsplitter,
    sum_diff_variance,
)


def beamsplitter_oracle(v1p, v1m, v2p, v2m):
    """Moment propagation through the explicit output-quadrature map.

    Rows act on the input basis (X+_1, X-_1, X+_2, X-_2).
    """
    s = 1.0 / np.sqrt(2.0)
    smat = s * np.array(
        [
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    )
    sigma_in = np.diag([v1p, v1m, v2p, v2m])
    return smat @ sigma_in @ smat.T


class TestSqueezedBeam:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SqueezedBeam(0.0, 1.0)
        with pytest.raises(ValueError):
            SqueezedBeam(1.0, -2.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite_naming_the_field(self, bad):
        with pytest.raises(ValueError, match=f"^v_plus must be positive and finite, got {bad}$"):
            SqueezedBeam(bad, 1.0)
        with pytest.raises(ValueError, match=f"^v_minus must be positive and finite, got {bad}$"):
            SqueezedBeam(1.0, bad)
        with pytest.raises(ValueError, match=f"^v_plus must be positive and finite, got {bad}$"):
            SqueezedBeam(bad, -1.0)

    def test_a_pure_beam_whose_phase_variance_overflows_is_refused(self):
        # 1 / 1e-320 overflows to inf: the beam is refused where it is made,
        # not later as a matrix with non-finite entries.
        with pytest.raises(ValueError, match="^v_minus must be positive and finite, got inf$"):
            SqueezedBeam.pure(1e-320)

    def test_physicality(self):
        assert SqueezedBeam(0.5, 2.0).is_physical()
        assert SqueezedBeam(1.0, 1.0).is_physical()
        assert not SqueezedBeam(0.5, 1.0).is_physical()

    @pytest.mark.parametrize(
        "args, kwargs",
        [((0.5, 2.0), {"alpha_plus": 1.0}), ((0.5, 2.0), {"alpha_minus": 1.0}), ((0.5, 2.0, 1.0), {})],
        ids=["alpha_plus", "alpha_minus", "positional"],
    )
    def test_refuses_a_coherent_amplitude(self, args, kwargs):
        # A beam is its two variances: an amplitude is refused, not dropped.
        with pytest.raises(TypeError):
            SqueezedBeam(*args, **kwargs)


class TestCorrelationMatrix4:
    def test_rejects_asymmetric(self):
        entries = np.eye(4)
        entries[0, 2] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            CorrelationMatrix4(entries)

    def test_rejects_nonpositive_diagonal(self):
        entries = np.eye(4)
        entries[1, 1] = 0.0
        with pytest.raises(ValueError, match="positive"):
            CorrelationMatrix4(entries)

    def test_entries_read_only(self):
        cm = CorrelationMatrix4(np.eye(4))
        with pytest.raises(ValueError):
            cm.entries[0, 0] = 2.0

    def test_vacuum_on_physicality_boundary(self):
        cm = CorrelationMatrix4(np.eye(4))
        assert cm.is_physical()
        assert abs(cm.uncertainty_violation()) < 1e-12

    def test_unphysical_matrix_detected(self):
        # Both quadratures of one mode below shot noise.
        cm = CorrelationMatrix4(np.diag([0.5, 0.5, 1.0, 1.0]))
        assert not cm.is_physical()

    def test_json_round_trip(self, cm_65mhz):
        data = cm_65mhz.to_json_dict()
        assert data["order"] == ["xp", "xm", "yp", "ym"]
        restored = CorrelationMatrix4.from_json_dict(data)
        assert restored == cm_65mhz
        # Against anything but a matrix, == defers and falls back to identity.
        assert restored.__eq__(5) is NotImplemented
        assert not restored == 5 and restored != data["matrix"]

    def test_from_json_rejects_bad_order(self, cm_65mhz):
        data = cm_65mhz.to_json_dict()
        data["order"] = ["yp", "ym", "xp", "xm"]
        with pytest.raises(ValueError, match="order"):
            CorrelationMatrix4.from_json_dict(data)

    def test_from_json_rejects_non_number_cell(self, cm_65mhz):
        data = cm_65mhz.to_json_dict()
        data["matrix"][1][3] = "2.9"
        with pytest.raises(ValueError, match=r"matrix cell \[1\]\[3\] must be a number"):
            CorrelationMatrix4.from_json_dict(data)


class TestBeamsplitter:
    def test_matches_moment_propagation_oracle(self, rng):
        for _ in range(200):
            b1 = random_squeezed_beam(rng)
            b2 = random_squeezed_beam(rng)
            state = entangle_on_beamsplitter(b1, b2)
            expected = beamsplitter_oracle(b1.v_plus, b1.v_minus, b2.v_plus, b2.v_minus)
            assert np.max(np.abs(state.cm.entries - expected)) <= 1e-12

    def test_equal_squeezed_inputs(self):
        beam = SqueezedBeam(0.5, 2.0)
        state = entangle_on_beamsplitter(beam, beam)
        e = state.cm.entries
        assert np.allclose(np.diag(e), 1.25)
        assert e[0, 2] == pytest.approx(-0.75, abs=1e-15)
        assert e[1, 3] == pytest.approx(+0.75, abs=1e-15)
        assert e[0, 1] == e[0, 3] == e[1, 2] == e[2, 3] == 0.0

    def test_vacuum_inputs_give_identity(self):
        state = entangle_on_beamsplitter(SqueezedBeam(1.0, 1.0), SqueezedBeam(1.0, 1.0))
        assert np.array_equal(state.cm.entries, np.eye(4))

    def test_rejects_unphysical_input(self):
        bad = SqueezedBeam(0.5, 0.5)
        with pytest.raises(ValueError, match="^first input beam is unphysical"):
            entangle_on_beamsplitter(bad, SqueezedBeam(1.0, 1.0))
        with pytest.raises(ValueError, match="^second input beam is unphysical"):
            entangle_on_beamsplitter(SqueezedBeam(1.0, 1.0), bad)

    def test_near_perfect_squeezing_limit(self):
        beam = SqueezedBeam(1e-8, 1e8)
        state = entangle_on_beamsplitter(beam, beam)
        # Raw (unnormalized) variances of the correlated combinations.
        raw_sum_plus = 2.0 * sum_diff_variance(state, "+", "sum")
        raw_diff_minus = 2.0 * sum_diff_variance(state, "-", "diff")
        assert raw_sum_plus <= 1e-7
        assert raw_diff_minus <= 1e-7

    def test_outputs_physical_for_random_inputs(self, rng):
        for _ in range(1000):
            state = entangle_on_beamsplitter(
                random_squeezed_beam(rng), random_squeezed_beam(rng)
            )
            assert state.cm.uncertainty_violation() >= -1e-9

    def test_pure_input_identities(self, rng):
        for _ in range(100):
            v = rng.uniform(0.05, 1.0)
            state = entangle_on_beamsplitter(SqueezedBeam.pure(v), SqueezedBeam.pure(v))
            expected_mode = 0.5 * (v + 1.0 / v)
            assert abs(state.cm.cxx_plus - expected_mode) <= 1e-12
            assert abs(sum_diff_variance(state, "+", "sum") - v) <= 1e-12
            assert abs(sum_diff_variance(state, "-", "diff") - v) <= 1e-12

    @given(
        v1=st.floats(0.05, 0.95),
        v2=st.floats(0.05, 0.95),
        mu1=st.floats(1.0, 4.0),
        mu2=st.floats(1.0, 4.0),
    )
    @settings(max_examples=100)
    def test_sign_structure_for_amplitude_squeezed_inputs(self, v1, v2, mu1, mu2):
        b1 = SqueezedBeam(v1, mu1 / v1)
        b2 = SqueezedBeam(v2, mu2 / v2)
        cm = entangle_on_beamsplitter(b1, b2).cm
        assert cm.cxy_plus < 0.0
        assert cm.cxy_minus > 0.0


class TestApplyLoss:
    def test_unit_efficiency_is_identity(self, cm_65mhz):
        state = TwoModeState(cm_65mhz)
        assert np.array_equal(apply_loss(state, 1.0, 1.0).cm.entries, cm_65mhz.entries)

    def test_zero_efficiency_gives_vacuum(self, cm_65mhz):
        state = TwoModeState(cm_65mhz)
        assert np.array_equal(apply_loss(state, 0.0, 0.0).cm.entries, np.eye(4))

    def test_rejects_bad_efficiency(self, cm_65mhz):
        state = TwoModeState(cm_65mhz)
        with pytest.raises(ValueError):
            apply_loss(state, 1.5, 1.0)
        with pytest.raises(ValueError):
            apply_loss(state, 0.5, -0.1)

    def test_half_loss_on_entangled_pair(self):
        beam = SqueezedBeam(0.5, 2.0)
        state = apply_loss(entangle_on_beamsplitter(beam, beam), 0.5, 0.5)
        assert state.cm.cxx_plus == pytest.approx(1.125, abs=1e-15)
        assert state.cm.cxy_plus == pytest.approx(-0.375, abs=1e-15)
        assert sum_diff_variance(state, "+", "sum") == pytest.approx(0.75, abs=1e-15)

    def test_loss_is_affine_on_sum_diff_variance(self, rng):
        for _ in range(100):
            state = entangle_on_beamsplitter(
                random_squeezed_beam(rng), random_squeezed_beam(rng)
            )
            eta = rng.uniform(0.0, 1.0)
            before = sum_diff_variance(state, "+", "sum")
            after = sum_diff_variance(apply_loss(state, eta, eta), "+", "sum")
            assert abs(after - (eta * before + 1.0 - eta)) <= 1e-12

    @given(eta1=st.floats(0.0, 1.0), eta2=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_loss_channels_compose(self, eta1, eta2):
        beam = SqueezedBeam(0.3, 5.0)
        state = entangle_on_beamsplitter(beam, beam)
        twice = apply_loss(apply_loss(state, eta1, eta1), eta2, eta2)
        once = apply_loss(state, eta1 * eta2, eta1 * eta2)
        assert np.max(np.abs(twice.cm.entries - once.cm.entries)) <= 1e-12

    def test_preserves_physicality(self, rng):
        for _ in range(200):
            state = entangle_on_beamsplitter(
                random_squeezed_beam(rng), random_squeezed_beam(rng)
            )
            lossy = apply_loss(state, rng.uniform(0, 1), rng.uniform(0, 1))
            assert lossy.cm.uncertainty_violation() >= -1e-9

    def test_matches_beamsplitter_against_vacuum_oracle(self, rng):
        # Independent route: loss as an actual beamsplitter of transmissivity
        # eta mixing each beam with a vacuum ancilla, tracing the ancillas out.
        def loss_oracle(cm_entries, eta_x, eta_y):
            full = np.eye(8)
            full[0:4, 0:4] = cm_entries  # modes x, y; ancillas in slots 4-7
            smat = np.eye(8)
            for mode, eta in ((0, eta_x), (1, eta_y)):
                t, r = np.sqrt(eta), np.sqrt(1.0 - eta)
                for quad in range(2):
                    beam = 2 * mode + quad
                    ancilla = 4 + 2 * mode + quad
                    rot = np.eye(8)
                    rot[beam, beam] = t
                    rot[beam, ancilla] = r
                    rot[ancilla, beam] = -r
                    rot[ancilla, ancilla] = t
                    smat = rot @ smat
            return (smat @ full @ smat.T)[0:4, 0:4]

        for _ in range(100):
            state = entangle_on_beamsplitter(
                random_squeezed_beam(rng), random_squeezed_beam(rng)
            )
            eta_x, eta_y = rng.uniform(0, 1), rng.uniform(0, 1)
            lossy = apply_loss(state, eta_x, eta_y)
            expected = loss_oracle(state.cm.entries, eta_x, eta_y)
            assert np.max(np.abs(lossy.cm.entries - expected)) <= 1e-12


class TestSumDiffVariance:
    def test_anchor_65(self, cm_65mhz):
        assert sum_diff_variance(cm_65mhz, "+", "sum") == pytest.approx(3.3 - 2.9)
        assert sum_diff_variance(cm_65mhz, "-", "diff") == pytest.approx(3.3 - 2.9)
        assert sum_diff_variance(cm_65mhz, "+", "diff") == pytest.approx(3.3 + 2.9)

    def test_anchor_35(self, cm_35mhz):
        assert sum_diff_variance(cm_35mhz, "-", "diff") == pytest.approx(6.1 - 5.7)
        assert sum_diff_variance(cm_35mhz, "+", "sum") == pytest.approx(6.2 - 5.3)

    def test_vacuum_is_unity_for_all_tokens(self):
        cm = CorrelationMatrix4(np.eye(4))
        for quadrature in ("+", "-"):
            for sign in ("sum", "diff"):
                assert sum_diff_variance(cm, quadrature, sign) == 1.0

    def test_rejects_bad_tokens(self, cm_65mhz):
        with pytest.raises(ValueError, match="quadrature"):
            sum_diff_variance(cm_65mhz, "x", "sum")
        with pytest.raises(ValueError, match="sign"):
            sum_diff_variance(cm_65mhz, "+", "total")

    def test_minimum_helper(self, cm_35mhz):
        for quadrature, expected in (("+", 0.9), ("-", 0.4)):
            sums = (sum_diff_variance(cm_35mhz, quadrature, sign) for sign in ("sum", "diff"))
            assert min(sums) == pytest.approx(expected)


class TestSymmetricFormCheck:
    def test_anchors_are_symmetric_form(self, cm_35mhz, cm_65mhz):
        assert check_symmetric_form(cm_35mhz)
        assert check_symmetric_form(cm_65mhz)

    def test_detects_mode_asymmetry(self, cm_65mhz):
        entries = np.array(cm_65mhz.entries)
        entries[2, 2] = 4.0
        assert not check_symmetric_form(CorrelationMatrix4(entries))

    def test_detects_cross_quadrature_terms(self):
        entries = np.eye(4)
        entries[0, 1] = entries[1, 0] = 0.2
        assert not check_symmetric_form(CorrelationMatrix4(entries))


class TestLocalSqueezing:
    def test_transforms_entries(self, cm_65mhz):
        squeezed = apply_local_squeezing(cm_65mhz, 2.0)
        assert squeezed.cxx_plus == pytest.approx(4.0 * 3.3)
        assert squeezed.cxx_minus == pytest.approx(3.3 / 4.0)
        assert squeezed.cxy_plus == pytest.approx(4.0 * -2.9)
        assert squeezed.cxy_minus == pytest.approx(2.9 / 4.0)

    def test_preserves_physicality(self, rng):
        for gain in (0.5, 0.8, 1.25, 2.0):
            for _ in range(50):
                state = entangle_on_beamsplitter(
                    random_squeezed_beam(rng), random_squeezed_beam(rng)
                )
                assert apply_local_squeezing(state.cm, gain).uncertainty_violation() >= -1e-9

    def test_rejects_nonpositive_gain(self, cm_65mhz):
        with pytest.raises(ValueError):
            apply_local_squeezing(cm_65mhz, 0.0)

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gain_before_the_product(self, cm_65mhz, gain):
        # Warnings are errors in this suite, so a gain reaching the matrix
        # product would fail on numpy's RuntimeWarning instead.
        with pytest.raises(ValueError, match=f"^squeezing gain must be positive and finite, got {gain}$"):
            apply_local_squeezing(cm_65mhz, gain)


def test_two_mode_state_is_its_matrix(cm_65mhz):
    state = TwoModeState(cm_65mhz)
    assert [field.name for field in dataclasses.fields(state)] == ["cm"]
    assert state.cm is cm_65mhz
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.cm = CorrelationMatrix4(np.eye(4))


# Off-diagonal pairs (i < j) of a 4x4 matrix, and gaps between a pair's
# entries just below, at and just above the symmetry tolerance.
_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]
_TOLERANCE_GAPS = [math.nextafter(SYMMETRY_TOL, 0.0), SYMMETRY_TOL, math.nextafter(SYMMETRY_TOL, 1.0)]


@st.composite
def _matrix_inputs(draw):
    """Constructor inputs: random symmetric matrices; some with one mirror pair
    apart by about the symmetry tolerance, a NaN or infinite cell, a zero or
    negative diagonal entry, -0.0 cells or entries near the float limit; a few
    of another shape."""
    shape = draw(st.sampled_from([(4, 4)] * 16 + [(3, 3), (16,), (2, 8), (4, 4, 1)]))
    if shape != (4, 4):
        return np.ones(shape).tolist()
    diagonal = st.one_of(st.floats(1e-3, 1e3), st.just(1.0))
    off_diagonal = st.one_of(
        st.floats(-1e3, 1e3),
        st.sampled_from([0.0, -0.0]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    e = [[0.0] * 4 for _ in range(4)]
    for i in range(4):
        e[i][i] = draw(diagonal)
    if draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, 3))
        e[k][k] = draw(st.sampled_from([0.0, -0.0, -1.0]))
    for i, j in _PAIRS:
        e[i][j] = e[j][i] = draw(off_diagonal)
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(_PAIRS))
        base = draw(st.sampled_from([0.0, e[i][j]]))
        gap = draw(st.sampled_from(_TOLERANCE_GAPS + [1e-13, 1e-3]))
        e[i][j], e[j][i] = base, base + draw(st.sampled_from([gap, -gap]))
    if draw(st.integers(0, 5)) == 0:
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        e[i][j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if draw(st.booleans()):
            e[j][i] = e[i][j]
    return np.array(e) if draw(st.booleans()) else e


_EFFICIENCIES = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([-0.1, 1.5, math.nan]),
)


def _outcome(operation, *args):
    try:
        return "value", operation(*args)
    except ValueError as exc:
        return "error", str(exc)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestSqrtProduct:
    """sqrt(a b) of the degree of inseparability, the correlation margins and
    the measured degree: math.sqrt(a * b) where the product is finite, and
    the root the product would give without an exponent limit where it is not."""

    @settings(max_examples=500, deadline=None)
    @given(st.floats(1e150, 1e300), st.floats(1e150, 1e300))
    def test_matches_mpmath_at_53_bits(self, a, b):
        mpmath = pytest.importorskip("mpmath")
        # At 53 bits each operation rounds as a double's does, with no exponent limit.
        with mpmath.workprec(53):
            expected = float(mpmath.sqrt(mpmath.mpf(a) * mpmath.mpf(b)))
        assert _bits(_sqrt_product(a, b)) == _bits(expected)
        with np.errstate(over="ignore"):  # the array path's callers silence numpy
            root = _sqrt_product(np.array([a]), np.array([b]))[0]
        assert _bits(root) == _bits(expected)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, allow_infinity=False), st.floats(0.0, allow_infinity=False))
    def test_a_finite_product_gives_math_sqrt_bit_for_bit(self, a, b):
        if a * b < math.inf:
            assert _bits(_sqrt_product(a, b)) == _bits(math.sqrt(a * b))

    def test_arrays_take_each_branch_elementwise(self):
        a = np.array([4.0, 1e200, 1e308, 0.0, math.inf])
        b = np.array([9.0, 1e200, 1e308, 1e308, 1.0])
        with np.errstate(over="ignore"):
            roots = _sqrt_product(a, b)
        assert roots.tolist() == [6.0, 1e200, 1e308, 0.0, math.inf]
        assert [_sqrt_product(*pair) for pair in zip(a.tolist(), b.tolist())] == roots.tolist()


def two_or_four(floats):
    """Lists of two or four of ``floats``: the means the package takes."""
    return st.one_of(*(st.lists(floats, min_size=n, max_size=n) for n in (2, 4)))


class TestMean:
    """The means of variances: the left-to-right sum over the count where the
    sum is finite, and the mean the sum would give without an exponent
    limit where it is not, on floats and on arrays alike."""

    @staticmethod
    def means(terms) -> list[bytes]:
        """The bits of ``_mean`` of ``terms`` as floats and as 1-element arrays."""
        with np.errstate(over="ignore"):  # the array path's callers silence numpy
            array = _mean(*(np.array([term]) for term in terms))[0]
        return [_bits(_mean(*terms)), _bits(array)]

    @settings(max_examples=500, deadline=None)
    @given(two_or_four(st.floats(0.0, 1.7e308)))
    def test_a_finite_sum_gives_the_left_to_right_mean_bit_for_bit(self, terms):
        total = reduce(add, terms)
        if total < math.inf:
            assert self.means(terms) == [_bits(total / len(terms))] * 2

    @settings(max_examples=500, deadline=None)
    @given(two_or_four(st.floats(1e300, 1.7e308)))
    def test_an_overflowing_sum_matches_mpmath_at_53_bits(self, terms):
        mpmath = pytest.importorskip("mpmath")
        # At 53 bits each sum rounds as a double's does, with no exponent limit.
        with mpmath.workprec(53):
            expected = float(reduce(add, map(mpmath.mpf, terms)) / len(terms))
        assert self.means(terms) == [_bits(expected)] * 2

    def test_arrays_take_each_branch_elementwise(self):
        a = np.array([1.0, 1.7e308, 1e308, math.nan, math.inf, 5e-324])
        b = np.array([2.0, 1.7e308, 1e308, 1.0, 1.0, 5e-324])
        with np.errstate(over="ignore"):
            means = _mean(a, b)
        assert means.tolist()[:3] == [1.5, 1.7e308, 1e308]
        assert np.isnan(means[3]) and means[4] == math.inf and means[5] == 5e-324
        assert [_bits(_mean(*pair)) for pair in zip(a.tolist(), b.tolist())] == list(
            map(_bits, means)
        )
        assert _mean(np.empty(0), np.empty(0)).shape == (0,)

    def test_beamsplitter_and_sum_variances_past_the_float_limit_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        # 1/5.9e-309 + 1e308 overflows; its half does not.
        cm = entangle_on_beamsplitter(SqueezedBeam.pure(5.9e-309), SqueezedBeam.pure(1e308)).cm
        cm_big = CorrelationMatrix4.symmetric_form(1.7e308, 1.0, -1e308, 0.0)
        with mpmath.workdps(60):
            v1m = 1 / mpmath.mpf(5.9e-309)
            var_minus = (v1m + mpmath.mpf(1e308)) / 2
            c_minus = (v1m - mpmath.mpf(1e308)) / 2
            sum_plus = mpmath.mpf(1.7e308) - mpmath.mpf(1e308)
        assert cm.cxx_minus == cm.cyy_minus == pytest.approx(float(var_minus), rel=1e-15)
        assert cm.cxy_minus == pytest.approx(float(c_minus), rel=1e-15)
        assert sum_diff_variance(cm_big, "+", "sum") == pytest.approx(float(sum_plus), rel=1e-15)


class TestFloatEntries:
    """The constructor and apply_loss against their numpy forms in
    tests/oracles.py, from before the matrix kept its entries as Python floats."""

    @settings(max_examples=2000, deadline=None)
    @given(_matrix_inputs(), _EFFICIENCIES, _EFFICIENCIES)
    def test_matches_reference(self, entries, eta_x, eta_y):
        built = _outcome(CorrelationMatrix4, entries)
        expected = _outcome(correlation_matrix_reference, entries)
        if expected[0] == "error":
            assert built == expected
            return
        assert built[0] == "value", built
        cm, reference = built[1], expected[1]
        assert cm.entries.dtype == np.float64 and not cm.entries.flags.writeable
        assert cm.entries.tobytes() == reference.tobytes()

        accessors = {"cxx_plus": (0, 0), "cxx_minus": (1, 1), "cyy_plus": (2, 2),
                     "cyy_minus": (3, 3), "cxy_plus": (0, 2), "cxy_minus": (1, 3)}
        for name, (i, j) in accessors.items():
            value = getattr(cm, name)
            assert type(value) is float, name
            assert _bits(value) == _bits(reference[i, j]), name
        cross = max(abs(reference[0, 1]), abs(reference[0, 3]),
                    abs(reference[1, 2]), abs(reference[2, 3]))
        # The block-form gate: the analysis refuses a matrix coupling the quadratures.
        refused = _outcome(standard_form_restrictions, cm)[0] == "error"
        assert refused == (cross > FORM_TOL)
        assert check_symmetric_form(cm) == (
            cross <= FORM_TOL
            and abs(reference[0, 0] - reference[2, 2]) <= FORM_TOL
            and abs(reference[1, 1] - reference[3, 3]) <= FORM_TOL
        )

        lossy = _outcome(lambda: apply_loss(TwoModeState(cm), eta_x, eta_y).cm)
        lossy_expected = _outcome(apply_loss_reference, reference, eta_x, eta_y)
        if lossy_expected[0] == "error":
            assert lossy == lossy_expected
        else:
            assert lossy[0] == "value", lossy
            assert lossy[1].entries.tobytes() == lossy_expected[1].tobytes()


def _seeded_lossy_states(seed: int, count: int = 256):
    """Pure squeezed pairs with loss: even ones equal on both beams
    (interchangeable), odd ones at least 10% more on beam y (biased)."""
    params = np.random.default_rng(seed).uniform(0.0, 1.0, (count, 4)).tolist()
    for index, (a, b, c, d) in enumerate(params):
        eta_x = 0.5 + 0.5 * c
        eta_y = eta_x if index % 2 == 0 else eta_x * (0.3 + 0.6 * d)
        state = entangle_on_beamsplitter(
            SqueezedBeam.pure(0.1 + 0.4 * a), SqueezedBeam.pure(0.1 + 0.4 * b)
        )
        yield state, eta_x, eta_y


#: sha256 of the analyze_cm records (one repr per line) of the states of
#: _seeded_lossy_states, each interchangeable one analyzed with and without
#: the measured 6.5 MHz values, as computed with the numpy-backed matrix.
ANALYZE_DIGESTS = {
    0: "aa29961b21eca9d00f5b8a54ddb7a654ae4edf05b20e7df3beb0fca8cc765c72",
    1: "b09a32760129adb1de824d5f7e7e64cff176e991838df21f4f7475fb0ee93e9e",
    2: "878b8e84806ba39bc71d5f414864a56f1a63372edb87f531d78c27f9f48677f5",
}


@pytest.mark.parametrize("seed", sorted(ANALYZE_DIGESTS))
def test_analysis_of_seeded_states_is_unchanged(seed):
    lines = []
    for index, (state, eta_x, eta_y) in enumerate(_seeded_lossy_states(seed)):
        cm = apply_loss(state, eta_x, eta_y).cm
        assert cm.entries.tobytes() == apply_loss_reference(state.cm.entries, eta_x, eta_y).tobytes()
        lines.append(repr(analyze_cm(cm)))
        if index % 2 == 0:
            lines.append(repr(analyze_cm(cm, MEASURED_65, "measured")))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ANALYZE_DIGESTS[seed]


def test_scalar_chain_makes_one_array_per_matrix(monkeypatch):
    """Beams to analysis record, for interchangeable beams and for biased
    ones, with numpy's array, asarray, sqrt and where patched to raise and an
    import of numpy failing: the beams, the loss and the analysis make no
    numpy call.  Then each matrix's first ``entries`` read makes its array,
    with one ``np.array`` call, and a second read returns the same array."""
    cases = [(0.3, 0.4, 0.8, 0.8), (0.3, 0.4, 0.9, 0.5)]
    arrays = []
    np_array = np.array

    def refuse(*args, **kwargs):
        raise AssertionError("numpy was called")

    def count(*args, **kwargs):
        arrays.append(args)
        return np_array(*args, **kwargs)

    with monkeypatch.context() as patched:
        for name in ("array", "asarray", "sqrt", "where"):
            patched.setattr(np, name, refuse)
        patched.setitem(sys.modules, "numpy", None)
        chains = []
        for v1, v2, eta_x, eta_y in cases:
            state = entangle_on_beamsplitter(SqueezedBeam.pure(v1), SqueezedBeam.pure(v2))
            lossy = apply_loss(state, eta_x, eta_y)
            chains.append((state.cm, lossy.cm, eta_x, eta_y, analyze_cm(lossy.cm)))

    matrices = [matrix for chain in chains for matrix in chain[:2]]
    with monkeypatch.context() as patched:
        patched.setattr(np, "array", count)
        first = [matrix.entries for matrix in matrices]
        assert len(arrays) == len(matrices)
        assert all(matrix.entries is entries for matrix, entries in zip(matrices, first))
    assert len(arrays) == len(matrices)

    for (cm, lossy, eta_x, eta_y, record), source in zip(chains, ("matrix", "unavailable")):
        assert record["decomposition_source"] == source
        assert repr(record) == repr(analyze_cm_reference(lossy))
        matrix = cm.to_json_dict()["matrix"]
        expected = (correlation_matrix_reference(matrix),
                    apply_loss_reference(correlation_matrix_reference(matrix), eta_x, eta_y))
        for built, reference in zip((cm, lossy), expected):
            assert built.entries.dtype == np.float64 and not built.entries.flags.writeable
            assert built.entries.tobytes() == reference.tobytes()
            assert repr(built.to_json_dict()) == repr(
                {"order": ["xp", "xm", "yp", "ym"], "matrix": reference.tolist()}
            )


_SPECTRUM_HEADER = ",".join(spectra.SPECTRUM_COLUMNS)
_PAIR = entangle_on_beamsplitter(SqueezedBeam.pure(0.5), SqueezedBeam.pure(0.5))


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: apply_loss(_PAIR, 0.5, 1.5), "eta_y must lie in [0, 1], got 1.5"),
        (lambda: apply_loss(_PAIR, math.nan, 0.5), "eta_x must lie in [0, 1], got nan"),
        (lambda: inseparability_vs_loss(math.inf, 0.5),
         "average squeezed variance must be positive and finite, got inf"),
        (lambda: epr_vs_loss(0.0, 0.5),
         "average squeezed variance must be positive and finite, got 0.0"),
        (lambda: epr_vs_loss(0.5, -0.1), "eta must lie in [0, 1], got -0.1"),
        (lambda: contour_grid("dense_ratio", params={"n_encoding": math.nan}),
         "n_encoding must be positive and finite, got nan"),
        (lambda: spectra.synthesize_spectra(eta=1.2), "eta must lie in [0, 1], got 1.2"),
        (lambda: spectra.synthesize_spectra(freq_grid=[2.5, -1.0]),
         "column 'frequency_mhz': must be positive and finite, got -1.0"),
        (lambda: spectra._paper_anchors({"statistical_error": 0.0}, "anchors.json"),
         "'statistical_error' must be positive and finite, got 0.0"),
        (lambda: spectra._paper_anchors({"statistical_error": 0.1, "infMHz": {}}, "anchors.json"),
         "anchor 'infMHz': column 'frequency_mhz': must be positive and finite, got inf"),
        (lambda: spectra.parse_spectra(
            _SPECTRUM_HEADER + "\n6.5,3.3,3.3,3.3,3.3,0.44,0.44\n7.0,inf,1,1,1,1,1\n"),
         "row 3, column 'vx_plus': must be positive and finite, got inf"),
        # -4000 dB converts to 0.0, which the gate refuses.
        (lambda: spectra.parse_spectra(_SPECTRUM_HEADER + "\n6.5,1,1,1,1,1,-4000\n", "dB"),
         "row 2, column 'v_diff_minus': must be positive and finite, got 0.0"),
        (lambda: analyze_cm(CorrelationMatrix4(np.eye(4)), {"v_sum_plus": 0.0, "v_diff_minus": 1.0}),
         "column 'v_sum_plus': must be positive and finite, got 0.0"),
        (lambda: analyze_cm(CorrelationMatrix4(np.eye(4)), {"v_sum_plus": 1, "v_diff_minus": -1}),
         "column 'v_diff_minus': must be positive and finite, got -1.0"),
        (lambda: analyze_cm(CorrelationMatrix4(np.eye(4)), {"cv_plus": -1.0, "cv_minus": 1.0}),
         "column 'cv_plus': must be positive and finite, got -1.0"),
        (lambda: analyze_cm(CorrelationMatrix4(np.eye(4)), {"cv_plus": 1.0, "cv_minus": math.inf}),
         "column 'cv_minus': must be positive and finite, got inf"),
    ],
)
def test_each_gate_names_what_it_refused(refused, message):
    """The sites of the positive-and-finite and [0, 1] rules not pinned by
    their own tests, each with its exact message."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refused()


def test_the_measured_conditional_variances_product_is_not_gated():
    """Each factor is gated; their product past the float range is inf, as epr is."""
    record = analyze_cm(CorrelationMatrix4(np.eye(4)), {"cv_plus": 1e200, "cv_minus": 1e200})
    assert record["epr_from_measured_cv"] == math.inf
