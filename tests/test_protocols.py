import json
import math
import re
import sys

import numpy as np
import pytest

from oracles import maximize_squeezed_capacity
from gaussent.epr import epr_from_photons
from gaussent.photons import cross_corr_from_photons, insep_from_nmin
from gaussent.protocols import (
    MAX_RESOLUTION,
    NO_CLONING_FIDELITY,
    ContourGrid,
    capacity_ratio,
    contour_grid,
    dense_coding_capacity,
    exceeds_no_cloning_limit,
    optimal_squeezed_capacity,
    shannon_capacity,
    squeezed_channel_capacity,
    squeezing_photons,
    teleport_fidelity,
)


class TestTeleportFidelity:
    def test_no_entanglement_bound(self):
        assert teleport_fidelity(1.0) == 0.5

    def test_anchor_strength(self):
        assert teleport_fidelity(0.44) == pytest.approx(1.0 / 1.44, abs=1e-12)
        assert teleport_fidelity(0.44) == pytest.approx(0.6944, abs=1e-4)

    def test_perfect_entanglement_limit(self):
        assert teleport_fidelity(1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.01, 1.0, 50)
        values = [teleport_fidelity(float(i)) for i in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_no_cloning_flag(self):
        assert exceeds_no_cloning_limit(teleport_fidelity(0.44))
        assert not exceeds_no_cloning_limit(teleport_fidelity(0.6))
        assert NO_CLONING_FIDELITY == pytest.approx(2.0 / 3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            teleport_fidelity(0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="positive"):
            teleport_fidelity(float("nan"))


class TestShannonCapacity:
    def test_reference_points(self):
        assert shannon_capacity(0.0) == 0.0
        assert shannon_capacity(3.0) == pytest.approx(1.0, abs=1e-15)
        assert shannon_capacity(255.0) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            shannon_capacity(-1.0)


class TestSqueezedChannel:
    def test_coherent_state_channel(self):
        # No squeezing: all 3.375 photons encode signal at vacuum noise.
        assert squeezed_channel_capacity(3.375, 1.0) == pytest.approx(
            0.5 * math.log2(14.5), abs=1e-12
        )

    def test_optimum_variance_reproduces_closed_form(self):
        for n in (0.5, 3.375, 125.0):
            v_opt = 1.0 / (2.0 * n + 1.0)
            assert squeezed_channel_capacity(n, v_opt) == pytest.approx(
                optimal_squeezed_capacity(n), abs=1e-12
            )

    def test_budget_exhausted_by_squeezing(self):
        v = 0.25
        n_sqz = squeezing_photons(v)
        assert squeezed_channel_capacity(n_sqz, v) == 0.0
        with pytest.raises(ValueError, match="budget"):
            squeezed_channel_capacity(0.9 * n_sqz, v)

    def test_rejects_antisqueezed_noise(self):
        with pytest.raises(ValueError):
            squeezed_channel_capacity(1.0, 1.5)


class TestOptimalSqueezedCapacity:
    def test_reference_values(self):
        assert optimal_squeezed_capacity(0.0) == 0.0
        assert optimal_squeezed_capacity(3.375) == pytest.approx(
            math.log2(7.75), abs=1e-12
        )
        assert optimal_squeezed_capacity(3.375) == pytest.approx(2.954, abs=1e-3)
        assert optimal_squeezed_capacity(125.0) == pytest.approx(
            math.log2(251.0), abs=1e-12
        )
        assert optimal_squeezed_capacity(125.0) == pytest.approx(7.972, abs=1e-3)

    def test_budgets_past_the_doubling_overflow_match_mpmath(self):
        """Above about 9e307, 2n overflows; log2(1 + 2n) = 1 + log2(n) there."""
        mpmath = pytest.importorskip("mpmath")
        budgets = [*np.logspace(300, 308, 17), 8.99e307, 9e307, 1.79e308, sys.float_info.max]
        with mpmath.workdps(50):
            for n in map(float, budgets):
                expected = float(mpmath.log(1 + 2 * mpmath.mpf(n), 2))
                assert optimal_squeezed_capacity(n) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_matches_numeric_maximization(self):
        for n in (0.5, 3.375, 125.0):
            numeric, v_opt = maximize_squeezed_capacity(n)
            assert abs(numeric - optimal_squeezed_capacity(n)) <= 1e-6
            assert v_opt == pytest.approx(1.0 / (2.0 * n + 1.0), rel=1e-4)


class TestDenseCoding:
    def test_anchor_budget(self):
        value = dense_coding_capacity(125.0, 0.356, 1.944)
        noise = insep_from_nmin(0.356)
        assert value == pytest.approx(math.log2(1.0 + 123.85 / noise), abs=1e-12)
        assert value == pytest.approx(8.14, abs=5e-3)

    def test_no_signal_photons(self):
        assert dense_coding_capacity(1.15, 0.356, 1.944) == 0.0

    def test_budget_below_state_cost(self):
        with pytest.raises(ValueError, match="budget"):
            dense_coding_capacity(1.0, 0.356, 1.944)

    def test_decreasing_in_excess(self):
        values = [dense_coding_capacity(10.0, 0.356, e) for e in np.linspace(0, 4, 9)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_increasing_in_budget(self):
        values = [dense_coding_capacity(n, 0.356, 1.944) for n in (2, 5, 20, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestCapacityRatio:
    def test_anchor_budget(self):
        assert capacity_ratio(125.0, 0.356, 1.944) == pytest.approx(1.02, abs=5e-3)

    def test_no_entanglement_penalty(self):
        for n in (1.0, 10.0, 100.0):
            expected = math.log2(1.0 + n) / math.log2(1.0 + 2.0 * n)
            assert capacity_ratio(n, 0.0, 0.0) == pytest.approx(expected, abs=1e-12)
            assert capacity_ratio(n, 0.0, 0.0) < 1.0

    def test_small_budget_penalized_by_excess(self):
        ratios = [capacity_ratio(3.375, 0.356, e) for e in np.linspace(0.0, 4.0, 9)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_budgets_near_the_float_limit_match_mpmath(self):
        """s / I overflows where the budget is huge and I small; log2 s - log2 I there.
        Floats and grids alike, and NaN where the state is over the budget."""
        mpmath = pytest.importorskip("mpmath")

        def ratio(budget, n_min, n_excess):
            budget, n_min, n_excess = map(mpmath.mpf, (budget, n_min, n_excess))
            signal, m = budget - (n_min + n_excess) / 2, n_min + 1
            if signal < 0:
                return math.nan
            inverse_insep = m + mpmath.sqrt(m * m - 1)
            capacity = mpmath.log(1 + signal * inverse_insep, 2)
            return float(capacity / mpmath.log(1 + 2 * budget, 2))

        expected = pytest.approx(0.999023584203827620, rel=1e-15, abs=0)
        assert capacity_ratio(1e308, 0.0, 0.0) == expected
        budgets = [*np.logspace(300, 308, 9), 9e307, 1.79e308, sys.float_info.max]
        points = [(0.0, 0.0), (1.0, 1e3), (1e10, 0.0), (1e154, 1e154), (1e200, 1e300), (1e300, 0)]
        with mpmath.workdps(60):
            for budget in map(float, budgets):
                for point in points:
                    expected = pytest.approx(ratio(budget, *point), rel=1e-14, abs=0)
                    assert capacity_ratio(budget, *point) == expected
                params = {"n_encoding": budget}
                grid = contour_grid("dense_ratio", (0.0, 1e300), (0.0, 2e300), 5, params)
                expected = [[ratio(budget, a, b) for b in grid.nexcess_axis]
                            for a in grid.nmin_axis]
                np.testing.assert_allclose(grid.values, expected, rtol=1e-14)

    def test_large_budget_insensitive_to_excess(self):
        for n_min in (0.1, 0.356, 1.0):
            low = capacity_ratio(1e6, n_min, 0.0)
            high = capacity_ratio(1e6, n_min, 10.0)
            assert abs(low - high) < 1e-3


class TestContourGrid:
    def test_epr_grid_node(self):
        grid = contour_grid("epr", (0.0, 3.56), (0.0, 19.44), resolution=11)
        assert grid.nmin_axis[1] == pytest.approx(0.356, abs=1e-12)
        assert grid.nexcess_axis[1] == pytest.approx(1.944, abs=1e-12)
        assert grid.values[1, 1] == pytest.approx(
            epr_from_photons(grid.nmin_axis[1], grid.nexcess_axis[1]), abs=1e-12
        )

    def test_fidelity_contours_are_vertical(self):
        grid = contour_grid("fidelity", resolution=16)
        for i in range(grid.values.shape[0]):
            assert np.all(grid.values[i, :] == grid.values[i, 0])
        assert grid.values[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_dense_ratio_node(self):
        grid = contour_grid(
            "dense_ratio", (0.0, 3.56), (0.0, 19.44), resolution=11,
            params={"n_encoding": 125.0},
        )
        assert grid.values[1, 1] == pytest.approx(
            capacity_ratio(125.0, 0.356, 1.944), rel=1e-9
        )

    def test_dense_ratio_infeasible_nodes_are_nan(self):
        grid = contour_grid(
            "dense_ratio", (0.0, 3.0), (0.0, 4.0), resolution=5,
            params={"n_encoding": 1.0},
        )
        assert np.isnan(grid.values[-1, -1])  # n_total/2 = 3.5 > 1
        assert np.isfinite(grid.values[0, 0])

    def test_grid_values_match_reference_expressions(self):
        nmin_range, nexcess_range, n_encoding = (0.0, 3.02), (0.0, 3.97), 2.0
        nm, ne = np.meshgrid(
            np.linspace(*nmin_range, 301), np.linspace(*nexcess_range, 301), indexing="ij"
        )
        fidelity = 1.0 / (1.0 + insep_from_nmin(nm))
        signal = n_encoding - 0.5 * (nm + ne)
        noise = insep_from_nmin(nm)
        optimum = math.log2(1.0 + 2.0 * n_encoding)
        with np.errstate(invalid="ignore", divide="ignore"):
            dense_ratio = np.where(
                signal >= 0.0, np.log2(1.0 + signal / noise) / optimum, np.nan
            )
        assert np.isnan(dense_ratio).any() and not np.isnan(dense_ratio).all()
        for metric, reference, params in (
            ("fidelity", fidelity, None),
            ("dense_ratio", dense_ratio, {"n_encoding": n_encoding}),
        ):
            grid = contour_grid(metric, nmin_range, nexcess_range, 301, params)
            assert np.array_equal(grid.values, reference, equal_nan=True), metric

    def test_dense_ratio_requires_budget_parameter(self):
        with pytest.raises(ValueError, match="n_encoding"):
            contour_grid("dense_ratio")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            contour_grid("teleport_rate")

    def test_default_grid_shape(self):
        grid = contour_grid("fidelity")
        assert grid.values.shape == (200, 200)
        assert grid.nmin_axis[0] == 0.0
        assert grid.nmin_axis[-1] == 3.0
        assert grid.nexcess_axis[-1] == 4.0

    def test_axes_must_increase(self):
        for axis in ([0.0, 0.0], [0.0, np.nan], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="increasing"):
                ContourGrid(
                    metric="epr",
                    nmin_axis=np.array(axis),
                    nexcess_axis=np.array([0.0, 1.0]),
                    values=np.zeros((2, 2)),
                )

    def test_values_must_match_the_axes(self):
        for values in (np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(6)):
            message = f"values shape {values.shape} does not match axes (3, 2)"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ContourGrid("epr", [0.0, 1.0, 2.0], [0.0, 1.0], values)

    def test_callers_arrays_stay_writeable(self):
        nmin, nexcess, values = np.array([0.0, 1.0]), np.array([0.0, 2.0]), np.zeros((2, 2))
        grid = ContourGrid("epr", nmin, nexcess, values)
        for given, kept in ((nmin, grid.nmin_axis), (nexcess, grid.nexcess_axis),
                            (values, grid.values)):
            assert given.flags.writeable
            assert not kept.flags.writeable
        values[0, 0] = 1.0
        assert grid.values[0, 0] == 0.0

    def test_resolution_capped_before_allocation(self, monkeypatch):
        class Allocating(Exception):
            pass

        def allocating(*args, **kwargs):
            raise Allocating

        monkeypatch.setattr("gaussent.protocols.np.linspace", allocating)
        assert MAX_RESOLUTION >= 2000
        with pytest.raises(Allocating):
            contour_grid("epr", resolution=MAX_RESOLUTION)
        for resolution in (1, MAX_RESOLUTION + 1, 10**5):
            with pytest.raises(ValueError, match=rf"\[2, {MAX_RESOLUTION}\], got {resolution}"):
                contour_grid("epr", resolution=resolution)

    def test_refused_grid_never_evaluates_its_metric(self, monkeypatch):
        class Evaluated(Exception):
            pass

        def evaluated(*args, **kwargs):
            raise Evaluated

        monkeypatch.setattr("gaussent.protocols.epr_from_photons", evaluated)
        monkeypatch.setattr("gaussent.protocols._dense_capacity", evaluated)
        budget = {"n_encoding": 2.0}
        for metric, params in (("epr", None), ("dense_ratio", budget)):
            with pytest.raises(Evaluated):
                contour_grid(metric, resolution=3, params=params)
            with pytest.raises(ValueError, match="^nmin_axis must be strictly increasing"):
                contour_grid(metric, (0.0, 1e-320), resolution=MAX_RESOLUTION, params=params)
            with pytest.raises(ValueError, match="^nexcess_axis must be strictly increasing"):
                contour_grid(metric, nexcess_range=(0.0, 1e-323), resolution=4, params=params)
        for metric, params in (("epr", budget), ("dense_ratio", {**budget, "scale": 1.0})):
            with pytest.raises(ValueError, match="do not use params"):
                contour_grid(metric, resolution=3, params=params)

    @pytest.mark.parametrize(
        "metric, params, message",
        [
            ("epr", {"n_encoding": 5.0}, "epr grids do not use params ['n_encoding']"),
            ("fidelity", {"a": 1, "b": 2}, "fidelity grids do not use params ['a', 'b']"),
            ("dense_ratio", {"n_encoding": 5.0, "eta": 0.5},
             "dense_ratio grids do not use params ['eta']"),
            # An unused key is named before a missing budget.
            ("dense_ratio", {"eta": 0.5}, "dense_ratio grids do not use params ['eta']"),
        ],
        ids=["epr", "fidelity", "dense_ratio", "dense_ratio-without-budget"],
    )
    def test_unused_params_are_refused_by_name(self, metric, params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            contour_grid(metric, resolution=3, params=params)

    def test_rejects_non_finite_range(self):
        for bad in ((0.0, np.inf), (0.0, np.nan), (np.nan, 1.0), (np.inf, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                contour_grid("fidelity", nmin_range=bad, resolution=3)
            with pytest.raises(ValueError, match="finite"):
                contour_grid("epr", nexcess_range=bad, resolution=3)
        for n_encoding in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                contour_grid("dense_ratio", resolution=3, params={"n_encoding": n_encoding})

    def test_csv_round_trip(self):
        grid = contour_grid("epr", (0.0, 1.0), (0.0, 1.0), resolution=3)
        lines = grid.to_csv_text().strip().split("\n")
        assert lines[0] == "n_min,n_excess,value"
        assert len(lines) == 1 + 9
        nm, ne, value = (float(cell) for cell in lines[4].split(","))
        assert value == pytest.approx(epr_from_photons(nm, ne), abs=1e-15)

    def test_json_round_trip(self):
        grid = contour_grid(
            "dense_ratio", (0.0, 1.0), (0.0, 1.0), resolution=3,
            params={"n_encoding": 2.0},
        )
        data = json.loads(json.dumps(grid.to_json_dict()))
        assert data["metric"] == "dense_ratio"
        assert data["params"] == {"n_encoding": 2.0}
        assert np.allclose(np.array(data["values"]), grid.values)


@pytest.mark.parametrize(
    "function, args",
    [
        (shannon_capacity, (math.nan,)),
        (squeezing_photons, (math.nan,)),
        (optimal_squeezed_capacity, (math.nan,)),
        (squeezed_channel_capacity, (math.nan, 0.5)),
        (dense_coding_capacity, (math.nan, 0.1, 0.1)),
        (dense_coding_capacity, (5.0, 0.1, math.nan)),
        (capacity_ratio, (math.nan, 0.1, 0.1)),
        (capacity_ratio, (5.0, 0.1, math.nan)),
        (cross_corr_from_photons, (math.nan, 0.1)),
        (cross_corr_from_photons, (0.1, math.nan)),
        (epr_from_photons, (math.nan, 0.1)),
        (epr_from_photons, (np.array([0.1, 0.2]), np.array([0.1, math.nan]))),
    ],
)
def test_closed_forms_reject_nan(function, args):
    with pytest.raises(ValueError):
        function(*args)


@pytest.mark.parametrize(
    "function, args, message",
    [
        (optimal_squeezed_capacity, (math.inf,), "photon budget must be finite, got inf"),
        (dense_coding_capacity, (math.inf, 0.5, 0.5), "photon budget must be finite, got inf"),
        (capacity_ratio, (math.inf, 0.5, 0.5), "photon budget must be finite, got inf"),
        (squeezed_channel_capacity, (math.inf, 0.5), "photon budget must be finite, got inf"),
        (dense_coding_capacity, (math.inf, math.inf, 0.5), "photon numbers must be finite"),
        (dense_coding_capacity, (5.0, 0.1, math.inf), "photon numbers must be finite"),
        (cross_corr_from_photons, (math.inf, 0.1), "photon numbers must be finite"),
        (cross_corr_from_photons, (0.1, math.inf), "photon numbers must be finite"),
        (epr_from_photons, (math.inf, 1.0), "photon numbers must be finite"),
        (epr_from_photons, (np.array([0.1, 0.2]), np.array([0.1, math.inf])),
         "photon numbers must be finite"),
        (shannon_capacity, (math.inf,), "signal-to-noise ratio must be finite, got inf"),
        (squeezing_photons, (math.inf,), "squeezed variance must be finite, got inf"),
        # A finite budget whose signal-to-noise ratio overflows.
        (squeezed_channel_capacity, (1e308, 1.0), "signal-to-noise ratio must be finite, got inf"),
        (insep_from_nmin, (math.inf,), "n_min must be finite"),
        (insep_from_nmin, (np.array([1e200, math.inf]),), "n_min must be finite"),
        # A negative value keeps its message, also beside an infinite one.
        (epr_from_photons, (-0.1, math.inf), "photon numbers must be non-negative"),
        # 0-d and array inputs give the scalar messages, in the same order.
        (epr_from_photons, (np.array(math.inf), np.array(0.1)), "photon numbers must be finite"),
        (epr_from_photons, (np.array(math.inf), np.array(-0.1)),
         "photon numbers must be non-negative"),
        (epr_from_photons, (np.array([0.5, math.inf]), np.array([0.1, math.nan])),
         "photon numbers must be non-negative"),
        (optimal_squeezed_capacity, (-1.0,), "photon budget must be non-negative, got -1.0"),
        (capacity_ratio, (0.0, 0.0, 0.0), "capacity ratio undefined at zero photon budget"),
    ],
)
def test_closed_forms_reject_infinity(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
