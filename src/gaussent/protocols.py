"""Protocol efficacy predictions on the photon-number diagram.

Unity-gain coherent-state teleportation fidelity, Shannon capacities of
squeezed-state and entanglement-based dense-coding channels at a fixed
photon budget, and dense efficacy grids over the (n_min, n_excess) plane
of the photon-number diagram.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field

import numpy as np

from ._floattext import CHUNK, _RowBlocks, float_text
from .epr import epr_from_photons
from .photons import _require_photon_numbers, insep_from_nmin
from .states import _require_positive_finite

#: Fidelity above which a teleporter beats the no-cloning bound.
NO_CLONING_FIDELITY = 2.0 / 3.0

GRID_METRICS = ("epr", "fidelity", "dense_ratio")

#: Largest points per axis of a contour grid (4096^2 cells: 134 MB per table).
MAX_RESOLUTION = 4096


@dataclass(frozen=True)
class ContourGrid:
    """Dense table of one efficacy metric over the (n_min, n_excess) plane.

    :meth:`csv_chunks` and :meth:`json_chunks` yield the text as bytes-like
    chunks, one per block of whole rows (or a slice of a longer row) laid
    out in the reused buffer of ``_floattext._RowBlocks``, as the
    derived-spectrum writers' are: a block's chunk is a memoryview of the
    one array the block allocates.  A writer holds about one chunk of text
    and a fixed working set beside the float64 table rather than the whole
    text; ``to_csv_text`` joins the chunks.
    """

    metric: str
    nmin_axis: np.ndarray
    nexcess_axis: np.ndarray
    values: np.ndarray
    params: dict = field(default_factory=dict)
    # False for a float64 table that no one else holds, contour_grid's own:
    # it is kept, frozen, rather than copied.
    _copy_values: InitVar[bool] = True

    def __post_init__(self, _copy_values: bool) -> None:
        # Copies: freezing the caller's own arrays would make them read-only.
        nmin = np.array(self.nmin_axis, dtype=float)
        nexcess = np.array(self.nexcess_axis, dtype=float)
        values = np.array(self.values, dtype=float) if _copy_values else self.values
        if values.shape != (nmin.size, nexcess.size):
            raise ValueError(
                f"values shape {values.shape} does not match axes "
                f"({nmin.size}, {nexcess.size})"
            )
        _require_rising_axes(nmin, nexcess)
        for arr in (nmin, nexcess, values):
            arr.setflags(write=False)
        object.__setattr__(self, "nmin_axis", nmin)
        object.__setattr__(self, "nexcess_axis", nexcess)
        object.__setattr__(self, "values", values)

    def csv_chunks(self) -> Iterator[bytes | memoryview]:
        """The CSV text: the header, then one chunk per block of rows.

        The axes are formatted once.  The lines of a block sit in one
        buffer whose commas, newlines and n_excess text are written once;
        each block writes its n_min text and its values' text, formatted
        in one :func:`float_text` call.
        """
        yield b"n_min,n_excess,value\n"
        if not self.values.size:
            return
        nmin, nexcess = float_text(self.nmin_axis), float_text(self.nexcess_axis)
        a, b = nmin.shape[1], nexcess.shape[1]
        buffer = _RowBlocks(self.values.shape, head=0, before=a + b + 2, after=1)
        buffer.cells[..., [a, a + b + 1]] = ord(",")
        buffer.cells[..., -1] = ord("\n")
        for rows, cols, new_cols in buffer.blocks():
            cells = buffer.cells[: rows.stop - rows.start, : cols.stop - cols.start]
            if new_cols:
                cells[..., a + 1 : a + b + 1] = nexcess[cols]
            cells[..., :a] = nmin[rows, None]
            yield buffer.text(self.values[rows, cols], json=False)

    def json_chunks(self) -> Iterator[bytes | memoryview]:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``: the head and
        the axes, then one chunk per block of rows.

        ``json.dumps`` writes the head and the axes, up to a ``null`` that
        holds the values' place; :func:`float_text` writes the values with
        json's NaN/Infinity spellings.  Each row's line opens with
        :data:`_NEXT_ROW`, and the first row's is cut to ``"[\\n    ["``.
        """
        if not self.values.size:  # no cells: json.dumps writes the whole grid
            yield (json.dumps(self.to_json_dict(), indent=2) + "\n").encode()
            return
        head = json.dumps({**self._json_head(), "values": None}, indent=2)
        yield head[: -len("null\n}")].encode()
        buffer = _RowBlocks(
            self.values.shape, head=len(_NEXT_ROW), before=len(_CELL_OPEN), after=0
        )
        buffer.cells[..., : len(_CELL_OPEN)] = _CELL_OPEN
        for rows, cols, new_cols in buffer.blocks():
            if new_cols:  # a slice of a longer row opens the row only at its start
                opens_row = cols.start == 0
                buffer.lines[:, : len(_NEXT_ROW)] = _NEXT_ROW if opens_row else 0
                buffer.cells[:, 0, 0] = 0 if opens_row else _CELL_OPEN[0]
            text = buffer.text(self.values[rows, cols], json=True)
            # The table's first row closes no row before it: "[\n    [" opens it.
            yield text if rows.start or cols.start else b"[" + text[len(_ROW_CLOSE) + 1 :]
        yield _ROW_CLOSE + b"\n  ]\n}\n"

    def to_csv_text(self) -> str:
        return b"".join(self.csv_chunks()).decode()

    def to_json_dict(self) -> dict:
        return {**self._json_head(), "values": self.values.tolist()}

    def _json_head(self) -> dict:
        return {
            "metric": self.metric,
            "params": dict(self.params),
            "nmin_axis": self.nmin_axis.tolist(),
            "nexcess_axis": self.nexcess_axis.tolist(),
        }


def _require_rising_axes(nmin_axis: np.ndarray, nexcess_axis: np.ndarray) -> None:
    """ValueError naming the first axis, and its step, that does not strictly increase."""
    for name, axis in (("nmin_axis", nmin_axis), ("nexcess_axis", nexcess_axis)):
        if not (rises := np.diff(axis) > 0.0).all():
            first, then = axis[np.argmin(rises) :][:2].tolist()  # where it first fails to rise
            raise ValueError(f"{name} must be strictly increasing, got {first} then {then}")


# In the JSON values: what closes a row; what lies between two rows, the
# close of one and the open of the next; and what opens each cell, bar the
# comma for a row's first.
_ROW_CLOSE = b"\n    ]"
_NEXT_ROW = np.frombuffer(_ROW_CLOSE + b",\n    [", np.uint8)
_CELL_OPEN = np.frombuffer(b",\n      ", np.uint8)


def teleport_fidelity(insep: float) -> float:
    """Unity-gain coherent-state teleportation fidelity, F = 1/(1 + I).

    Depends only on the degree of inseparability, so efficacy contours on
    the photon-number diagram are vertical.  F = 0.5 without entanglement;
    values above :data:`NO_CLONING_FIDELITY` beat the no-cloning bound.
    """
    if not insep > 0.0:
        raise ValueError(f"degree of inseparability must be positive, got {insep}")
    return _fidelity(insep)


def _fidelity(insep):
    """F = 1/(1 + I), elementwise over arrays."""
    return 1.0 / (1.0 + insep)


def shannon_capacity(snr: float) -> float:
    """Shannon capacity of one Gaussian channel, log2(1 + R)/2 bits per symbol.

    Raises:
        ValueError: if ``snr`` is negative (NaN included) or infinite.
    """
    if not snr >= 0.0:
        raise ValueError(f"signal-to-noise ratio must be non-negative, got {snr}")
    if snr == math.inf:
        raise ValueError(f"signal-to-noise ratio must be finite, got {snr}")
    return 0.5 * math.log2(1.0 + snr)


def squeezing_photons(v_sqz: float) -> float:
    """Photons spent to hold a pure squeezed state at variance ``v_sqz``.

    Raises:
        ValueError: if ``v_sqz`` is not positive (NaN included) or is infinite.
    """
    if not v_sqz > 0.0:
        raise ValueError(f"squeezed variance must be positive, got {v_sqz}")
    if v_sqz == math.inf:
        raise ValueError(f"squeezed variance must be finite, got {v_sqz}")
    return 0.25 * (v_sqz + 1.0 / v_sqz - 2.0)


def squeezed_channel_capacity(n_encoding: float, v_sqz: float) -> float:
    """Capacity of a squeezed-state channel at a fixed photon budget.

    ``n_encoding`` photons are split between holding the squeezing and
    encoding signal on the squeezed quadrature; the signal variance is
    4 (n_encoding - n_sqz) against noise ``v_sqz``.

    Raises:
        ValueError: if the budget is not finite or does not cover the
            squeezing photons, if ``v_sqz`` lies outside (0, 1], or if the
            signal-to-noise ratio overflows to infinity.
    """
    if not 0.0 < v_sqz <= 1.0:
        raise ValueError(f"squeezed variance must lie in (0, 1], got {v_sqz}")
    n_sqz = squeezing_photons(v_sqz)
    if not n_encoding >= n_sqz:
        raise ValueError(
            f"photon budget {n_encoding} is below the {n_sqz:.6g} needed for squeezing"
        )
    _require_finite_budget(n_encoding)
    return shannon_capacity(4.0 * (n_encoding - n_sqz) / v_sqz)


def optimal_squeezed_capacity(n_encoding: float) -> float:
    """Squeezed-state capacity optimized over the squeezing level.

    The optimum sits at v = 1/(2 n + 1) and equals log2(1 + 2 n).
    """
    if not n_encoding >= 0.0:
        raise ValueError(f"photon budget must be non-negative, got {n_encoding}")
    _require_finite_budget(n_encoding)
    two_n = 2.0 * n_encoding  # inf above about 9e307, where log2(1 + 2n) = 1 + log2(n)
    return math.log2(1.0 + two_n) if two_n < math.inf else 1.0 + math.log2(n_encoding)


def _require_finite_budget(n_encoding: float) -> None:
    """ValueError for an infinite photon budget, which no capacity is defined for."""
    if not n_encoding < math.inf:
        raise ValueError(f"photon budget must be finite, got {n_encoding}")


def _dense_capacity(n_encoding, n_min, n_excess):
    """log2(1 + s / I(n_min)) with signal s = n_encoding - (n_min + n_excess)/2,
    elementwise over floats or arrays; NaN where s < 0, a state over the budget."""
    signal = n_encoding - _half_photons(n_min, n_excess)
    insep = insep_from_nmin(n_min)
    with np.errstate(over="ignore"):
        capacity = np.log2(1.0 + np.where(signal >= 0.0, signal, np.nan) / insep)
    if np.fmax.reduce(capacity, axis=None) == np.inf:  # s / I overflowed: log2 s - log2 I
        over = np.isinf(capacity)
        signal, insep = (np.broadcast_to(a, over.shape)[over] for a in (signal, insep))
        capacity = np.array(capacity)
        capacity[over] = np.log2(signal) - np.log2(insep)
    return capacity


def _half_photons(n_min, n_excess):
    """(n_min + n_excess)/2, the state's photons in the encoded beam, elementwise;
    n_min/2 + n_excess/2 on the cells where the sum overflows."""
    with np.errstate(over="ignore"):
        half = 0.5 * (n_min + n_excess)
    if np.fmax.reduce(half, axis=None) == np.inf:
        half = np.where(np.isinf(half), 0.5 * n_min + 0.5 * n_excess, half)
    return half


def dense_coding_capacity(n_encoding: float, n_min: float, n_excess: float) -> float:
    """Capacity of dense coding over a symmetric unbiased entangled state.

    The amplitude and phase quadratures act as independent channels whose
    noise is the degree of inseparability; half the state's photons sit in
    the encoded beam, leaving n_encoding - (n_min + n_excess)/2 photons of
    signal shared across the two quadratures.

    Raises:
        ValueError: if a photon number is negative or not finite, or if the
            budget is not finite or does not cover the entangled state.
    """
    _require_photon_numbers(n_min, n_excess)
    capacity = float(_dense_capacity(n_encoding, n_min, n_excess))
    if math.isnan(capacity):
        raise ValueError(
            f"photon budget {n_encoding} is below the {_half_photons(n_min, n_excess):.6g} needed "
            "for the entangled state"
        )
    _require_finite_budget(n_encoding)
    return capacity


def capacity_ratio(n_encoding: float, n_min: float, n_excess: float) -> float:
    """Dense-coding capacity over the optimal squeezed-state capacity."""
    optimum = _ratio_denominator(n_encoding)
    return dense_coding_capacity(n_encoding, n_min, n_excess) / optimum


def _ratio_denominator(n_encoding: float) -> float:
    """:func:`optimal_squeezed_capacity`; ValueError where it rounds to 0.0,
    at budgets up to 2^-54 (about 5.6e-17), where no ratio is defined."""
    optimum = optimal_squeezed_capacity(n_encoding)
    if optimum == 0.0:
        if not n_encoding:
            raise ValueError("capacity ratio undefined at zero photon budget")
        raise ValueError(
            f"capacity ratio undefined at photon budget {n_encoding!r}: "
            "log2(1 + 2n) rounds to 0 for budgets up to 2^-54"
        )
    return optimum


def contour_grid(
    metric: str,
    nmin_range: tuple[float, float] = (0.0, 3.0),
    nexcess_range: tuple[float, float] = (0.0, 4.0),
    resolution: int = 200,
    params: dict | None = None,
) -> ContourGrid:
    """Evaluate an efficacy metric over a dense (n_min, n_excess) grid.

    The grid lives on the zero-bias plane of the photon-number diagram.
    ``values[i, j]`` is the metric at (nmin_axis[i], nexcess_axis[j]).
    For ``dense_ratio``, ``params`` must carry ``n_encoding``; grid nodes
    whose state exceeds the photon budget evaluate to NaN.

    The table is filled in blocks of the rows that the writers format
    together (⌊``CHUNK``/n⌋): each block's n_min points, as a column, are
    broadcast against the n_excess axis as a row, so no n x n array is
    built but the table itself; n_min-only terms such as
    ``insep_from_nmin`` are evaluated on n points.

    Raises:
        ValueError, before any n x n array is built: for an unknown metric
            token, a resolution outside [2, MAX_RESOLUTION], bad ranges,
            missing or unused params, a budget at which
            :func:`capacity_ratio` is undefined, or an axis that does not
            strictly increase (a range too narrow for its resolution).
    """
    if metric not in GRID_METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {GRID_METRICS}")
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_RESOLUTION}], got {resolution}")
    for name, (lo, hi) in (("nmin_range", nmin_range), ("nexcess_range", nexcess_range)):
        if not 0.0 <= lo < hi < math.inf:
            raise ValueError(
                f"{name} must be finite, non-negative and increasing, got ({lo}, {hi})"
            )
    params = dict(params or {})
    if unused := [key for key in params if (metric, key) != ("dense_ratio", "n_encoding")]:
        raise ValueError(f"{metric} grids do not use params {unused}")
    if metric == "dense_ratio":
        if "n_encoding" not in params:
            raise ValueError("dense_ratio grids need params={'n_encoding': ...}")
        n_encoding = float(params["n_encoding"])
        _require_positive_finite(n_encoding, "n_encoding")
        optimum = _ratio_denominator(n_encoding)
        params = {"n_encoding": n_encoding}
    nmin_axis = np.linspace(nmin_range[0], nmin_range[1], resolution)
    nexcess_axis = np.linspace(nexcess_range[0], nexcess_range[1], resolution)
    _require_rising_axes(nmin_axis, nexcess_axis)

    values = np.empty((resolution, resolution))
    step = max(1, CHUNK // resolution)
    for start in range(0, resolution, step):
        rows = slice(start, start + step)
        nm = nmin_axis[rows, None]
        if metric == "epr":
            values[rows] = epr_from_photons(nm, nexcess_axis)
        elif metric == "fidelity":
            # Constant along the excess axis: vertical efficacy contours.
            values[rows] = _fidelity(insep_from_nmin(nm))
        else:
            np.divide(_dense_capacity(n_encoding, nm, nexcess_axis), optimum, out=values[rows])
    return ContourGrid(metric, nmin_axis, nexcess_axis, values, params, _copy_values=False)
