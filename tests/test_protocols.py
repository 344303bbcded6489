import json
import math
import re
import sys

import numpy as np
import pytest

from oracles import (
    _shannon_capacity,
    _squeezed_channel_capacity,
    _squeezing_photons,
    maximize_squeezed_capacity,
)
from gaussent._floattext import CHUNK
from gaussent.epr import epr_from_photons
from gaussent.photons import cross_corr_from_photons, insep_from_nmin
from gaussent.protocols import (
    GRID_METRICS,
    MAX_RESOLUTION,
    NO_CLONING_FIDELITY,
    ContourGrid,
    capacity_ratio,
    contour_grid,
    dense_coding_capacity,
    optimal_squeezed_capacity,
    teleport_fidelity,
)
from gaussent.protocols import _dense_capacity, _fidelity


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
        assert teleport_fidelity(0.44) > NO_CLONING_FIDELITY
        assert not teleport_fidelity(0.6) > NO_CLONING_FIDELITY
        assert NO_CLONING_FIDELITY == pytest.approx(2.0 / 3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            teleport_fidelity(0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="positive"):
            teleport_fidelity(float("nan"))


class TestShannonCapacity:
    """The oracle's capacity model, which maximize_squeezed_capacity maximizes."""

    def test_reference_points(self):
        assert _shannon_capacity(0.0) == 0.0
        assert _shannon_capacity(3.0) == pytest.approx(1.0, abs=1e-15)
        assert _shannon_capacity(255.0) == pytest.approx(4.0, abs=1e-12)


class TestSqueezedChannel:
    """The oracle's squeezed-state channel, over the squeezing level."""

    def test_coherent_state_channel(self):
        # No squeezing: all 3.375 photons encode signal at vacuum noise.
        assert _squeezed_channel_capacity(3.375, 1.0) == pytest.approx(
            0.5 * math.log2(14.5), abs=1e-12
        )

    def test_optimum_variance_reproduces_closed_form(self):
        for n in (0.5, 3.375, 125.0):
            v_opt = 1.0 / (2.0 * n + 1.0)
            assert _squeezed_channel_capacity(n, v_opt) == pytest.approx(
                optimal_squeezed_capacity(n), abs=1e-12
            )

    def test_budget_exhausted_by_squeezing(self):
        v = 0.25
        n_sqz = _squeezing_photons(v)
        assert _squeezed_channel_capacity(n_sqz, v) == 0.0
        with pytest.raises(ValueError, match="budget"):
            _squeezed_channel_capacity(0.9 * n_sqz, v)


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

    def test_photon_sums_past_the_float_limit_match_mpmath(self):
        """Above about 1.8e308 n_min + n_excess overflows; the state's half is
        n_min/2 + n_excess/2 there, in the capacity and in the refusal alike.
        Floats and grids alike, and NaN where the state is over the budget."""
        mpmath = pytest.importorskip("mpmath")

        def capacity(budget, n_min, n_excess):
            budget, n_min, n_excess = map(mpmath.mpf, (budget, n_min, n_excess))
            signal, m = budget - (n_min + n_excess) / 2, n_min + 1
            if signal < 0:
                return mpmath.mpf("nan")
            return mpmath.log(1 + signal * (m + mpmath.sqrt(m * m - 1)), 2)

        budgets = [*np.logspace(300, 308, 9), 1.7e308, 1.79e308, sys.float_info.max]
        points = [(1e308, 1e308), (9e307, 9e307), (1.79e308, 1.79e308), (1e300, 1.79e308)]
        with mpmath.workdps(60):
            for budget in map(float, budgets):
                for n_min, n_excess in points:
                    expected = float(capacity(budget, n_min, n_excess))
                    if math.isnan(expected):
                        half = re.escape(f"{0.5 * n_min + 0.5 * n_excess:.6g}")
                        with pytest.raises(ValueError, match=f"below the {half} needed"):
                            dense_coding_capacity(budget, n_min, n_excess)
                    else:
                        assert dense_coding_capacity(budget, n_min, n_excess) == pytest.approx(
                            expected, rel=1e-14, abs=0
                        )
                grid = contour_grid(
                    "dense_ratio", (0.0, 1.79e308), (0.0, 1.79e308), 5, {"n_encoding": budget}
                )
                optimum = mpmath.log(1 + 2 * mpmath.mpf(budget), 2)
                expected = [[float(capacity(budget, a, b) / optimum) for b in grid.nexcess_axis]
                            for a in grid.nmin_axis]
                np.testing.assert_allclose(grid.values, expected, rtol=1e-14)

    def test_subnormal_photon_numbers_are_halved_as_one_sum(self):
        # Halving each of these terms would round it up, to 2 * 2**-1074, and
        # put a state that exactly meets its budget over it.
        tiny = 3 * 2.0**-1074
        assert dense_coding_capacity(tiny, tiny, tiny) == 0.0


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

    def test_budgets_where_the_squeezed_optimum_rounds_to_zero_are_refused(self):
        """log2(1 + 2 n) rounds to 0.0 up to n = 2^-54: no ratio is defined
        there, for a float or a grid, and the grid refuses before it is built."""
        for budget in (5e-324, 1e-300, 2.0**-54):
            message = (
                f"capacity ratio undefined at photon budget {budget!r}: "
                "log2(1 + 2n) rounds to 0 for budgets up to 2^-54"
            )
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                capacity_ratio(budget, 0.0, 0.0)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                contour_grid("dense_ratio", resolution=2, params={"n_encoding": budget})
        smallest = float(np.nextafter(2.0**-54, 1.0))
        grid = contour_grid("dense_ratio", resolution=2, params={"n_encoding": smallest})
        assert grid.values[0, 0] == capacity_ratio(smallest, 0.0, 0.0)

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

        monkeypatch.setattr("numpy.linspace", allocating)
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


def whole_grid(metric, nmin_axis, nexcess_axis, params):
    """The metric's formula broadcast over the whole (n_min, n_excess) grid at once."""
    nm, ne = nmin_axis[:, None], nexcess_axis[None, :]
    if metric == "epr":
        return epr_from_photons(nm, ne)
    if metric == "fidelity":
        return np.repeat(_fidelity(insep_from_nmin(nm)), ne.size, axis=1)
    n_encoding = params["n_encoding"]
    return _dense_capacity(n_encoding, nm, ne) / optimal_squeezed_capacity(n_encoding)


def assert_same_bits(values, expected):
    assert values.shape == expected.shape
    assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))


def blocks_where(rows_flagged: np.ndarray, resolution: int) -> list[bool]:
    """Per block of rows that contour_grid fills at once, whether any row is flagged."""
    step = max(1, CHUNK // resolution)
    return [bool(rows_flagged[start : start + step].any()) for start in range(0, resolution, step)]


class TestBlockedTable:
    """contour_grid fills its table ⌊CHUNK/n⌋ rows at a time; every cell
    keeps the bits of the metric's formula over the whole grid."""

    PARAMS = {"epr": {}, "fidelity": {}, "dense_ratio": {"n_encoding": 2.0}}

    @pytest.mark.parametrize("resolution", [3, 999, 1000])
    @pytest.mark.parametrize("metric", GRID_METRICS)
    def test_matches_the_whole_grid_formula(self, metric, resolution):
        assert resolution == 3 or CHUNK % resolution  # blocks that end mid-table
        grid = contour_grid(metric, (0.0, 3.0), (0.0, 4.0), resolution, self.PARAMS[metric])
        expected = whole_grid(metric, grid.nmin_axis, grid.nexcess_axis, self.PARAMS[metric])
        assert_same_bits(grid.values, expected)

    @pytest.mark.parametrize("metric", GRID_METRICS)
    def test_matches_the_whole_grid_formula_at_the_largest_resolution(self, metric):
        """The formula runs over strips of 250 rows, across the blocks' ends,
        so that its temporaries stay small."""
        grid = contour_grid(metric, (0.0, 3.0), (0.0, 4.0), MAX_RESOLUTION, self.PARAMS[metric])
        for start in range(0, MAX_RESOLUTION, 250):
            rows = slice(start, start + 250)
            expected = whole_grid(metric, grid.nmin_axis[rows], grid.nexcess_axis,
                                  self.PARAMS[metric])
            assert_same_bits(grid.values[rows], expected)

    @pytest.mark.parametrize(
        "metric, nmin_range, nexcess_range, params, fires",
        [
            # m^2 overflows in epr_from_photons from n_min of about 1.34e154.
            ("epr", (0.0, 2e154), (0.0, 4.0), {},
             lambda nm, ne: np.isinf(np.square(nm + 1.0))),
            # n_min + n_excess overflows in _mean.
            ("dense_ratio", (0.0, 1.7e308), (0.0, 1.7e308), {"n_encoding": 1.7e308},
             lambda nm, ne: np.isinf(nm[:, None] + ne).any(axis=1)),
            # s / I overflows in _dense_capacity, where I is small.
            ("dense_ratio", (0.0, 1e9), (0.0, 1e299), {"n_encoding": 1e300},
             lambda nm, ne: np.isinf(
                 (1e300 - 0.5 * (nm[:, None] + ne)) / insep_from_nmin(nm)[:, None]).any(axis=1)),
        ],
    )
    def test_overflow_branches_that_fire_in_some_blocks_only(
        self, metric, nmin_range, nexcess_range, params, fires
    ):
        grid = contour_grid(metric, nmin_range, nexcess_range, 999, params)
        with np.errstate(over="ignore"):
            fired = blocks_where(fires(grid.nmin_axis, grid.nexcess_axis), 999)
        assert any(fired) and not all(fired)
        expected = whole_grid(metric, grid.nmin_axis, grid.nexcess_axis, params)
        assert_same_bits(grid.values, expected)


class TestWriterBlocks:
    """The grid writers yield one chunk per block of whole rows: no row is
    split, so a row wider than CHUNK is a block of its own."""

    def test_every_grid_row_fits_in_a_chunk(self):
        # So every grid contour_grid builds is written in a bounded working set.
        assert MAX_RESOLUTION <= CHUNK

    def test_rows_wider_than_a_chunk_are_one_chunk_each(self):
        ncols = CHUNK + 5
        values = np.linspace(0.0, 1.0, 3 * ncols).reshape(3, ncols)
        grid = ContourGrid("epr", [0.5, 1.0, 2.0], np.arange(ncols, dtype=float), values)
        csv_chunks, json_chunks = list(grid.csv_chunks()), list(grid.json_chunks())
        # The head, a chunk per row, and the tail.
        assert len(csv_chunks) == len(json_chunks) == 1 + 3 + 1
        assert [bytes(chunk).count(b"\n") for chunk in csv_chunks[1:-1]] == [ncols] * 3
        assert b"".join(json_chunks).decode() == json.dumps(grid.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize(
    "function, args",
    [
        (optimal_squeezed_capacity, (math.nan,)),
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
        (dense_coding_capacity, (math.inf, math.inf, 0.5), "photon numbers must be finite"),
        (dense_coding_capacity, (5.0, 0.1, math.inf), "photon numbers must be finite"),
        (cross_corr_from_photons, (math.inf, 0.1), "photon numbers must be finite"),
        (cross_corr_from_photons, (0.1, math.inf), "photon numbers must be finite"),
        (epr_from_photons, (math.inf, 1.0), "photon numbers must be finite"),
        (epr_from_photons, (np.array([0.1, 0.2]), np.array([0.1, math.inf])),
         "photon numbers must be finite"),
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
        (capacity_ratio, (1e-300, 0.0, 0.0), "capacity ratio undefined at photon budget 1e-300: "
         "log2(1 + 2n) rounds to 0 for budgets up to 2^-54"),
    ],
)
def test_closed_forms_reject_infinity(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
