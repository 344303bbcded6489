"""Protocol efficacy predictions on the photon-number diagram.

Unity-gain coherent-state teleportation fidelity, the Shannon capacities
of the optimal squeezed-state and of the entanglement-based dense-coding
channel at a fixed photon budget, and dense efficacy grids over the
(n_min, n_excess) plane of the photon-number diagram.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field

import numpy as np

from ._floattext import CHUNK, _json_rows, _RowBlocks, float_text, text_rows
from .epr import epr_from_photons
from .photons import _require_photon_numbers, _require_positive_degree, insep_from_nmin
from .states import _mean, _require_positive_finite

#: Fidelity above which a teleporter beats the no-cloning bound.
NO_CLONING_FIDELITY = 2.0 / 3.0

GRID_METRICS = ("epr", "fidelity", "dense_ratio")

#: Largest points per axis of a contour grid (4096^2 cells: 134 MB per table).
MAX_RESOLUTION = 4096


@dataclass(frozen=True)
class ContourGrid:
    """Dense table of one efficacy metric over the (n_min, n_excess) plane.

    :meth:`csv_chunks` and :meth:`json_chunks` yield the text as bytes-like
    chunks, one per block of whole rows laid out in the reused buffer of
    ``_floattext._RowBlocks``, as the derived-spectrum writers' are: a
    block's chunk is a memoryview of the one array the block allocates.
    A writer holds about one chunk of text and a fixed working set beside
    the float64 table, for rows of at most ``CHUNK`` cells, as every grid
    of :func:`contour_grid` has; ``to_csv_text`` joins the chunks.
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

        The axes are formatted once.  Each cell's key, written once, opens
        its line with the newline that ends the one before: n_min's slot
        and the n_excess text follow it.  Each block writes its n_min text
        and its values' text, formatted in one :func:`float_text` call.
        """
        yield b"n_min,n_excess,value"
        if self.values.size:
            nmin, nexcess = float_text(self.nmin_axis), float_text(self.nexcess_axis)
            a = nmin.shape[1]
            keys = np.zeros((len(nexcess), a + nexcess.shape[1] + 3), np.uint8)
            keys[:, [0, a + 1, -1]] = np.frombuffer(b"\n,,", np.uint8)
            keys[:, a + 2 : -1] = nexcess
            buffer = _RowBlocks(len(nmin), b"", keys)
            for rows in buffer.blocks():
                buffer.cells[: rows.stop - rows.start, :, 1 : a + 1] = nmin[rows, None]
                yield buffer.text(self.values[rows], json=False)
        yield b"\n"

    def json_chunks(self) -> Iterator[bytes | memoryview]:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``: the head and
        the axes, then one chunk per block of rows.

        ``json.dumps`` writes the head and the axes, up to a ``null`` that
        holds the values' place; :func:`float_text` writes the values with
        json's NaN/Infinity spellings.  Each row's line opens by closing
        the row before it, bar the first's.
        """
        if not self.values.size:  # no cells: json.dumps writes the whole grid
            yield (json.dumps(self.to_json_dict(), indent=2) + "\n").encode()
            return
        head = json.dumps({**self._json_head(), "values": None}, indent=2)
        yield head[: -len("null\n}")].encode()
        # A row's first cell follows no comma.
        keys = text_rows(["\n      "] + [",\n      "] * (len(self.nexcess_axis) - 1))
        buffer = _RowBlocks(len(self.nmin_axis), _ROW_CLOSE + b",\n    [", keys)
        yield from _json_rows(
            (buffer.text(self.values[rows], json=True) for rows in buffer.blocks()), _ROW_CLOSE
        )
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


# What closes a row of the JSON values.
_ROW_CLOSE = b"\n    ]"


def teleport_fidelity(insep: float) -> float:
    """Unity-gain coherent-state teleportation fidelity, F = 1/(1 + I).

    Depends only on the degree of inseparability, so efficacy contours on
    the photon-number diagram are vertical.  F = 0.5 without entanglement;
    values above :data:`NO_CLONING_FIDELITY` beat the no-cloning bound.
    """
    _require_positive_degree(insep)
    return _fidelity(insep)


def _fidelity(insep):
    """F = 1/(1 + I), elementwise over arrays."""
    return 1.0 / (1.0 + insep)


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
    insep = insep_from_nmin(n_min)
    with np.errstate(over="ignore"):  # in the sum of _mean, and in s / I
        signal = n_encoding - _mean(n_min, n_excess)
        capacity = np.log2(1.0 + np.where(signal >= 0.0, signal, np.nan) / insep)
    if np.fmax.reduce(capacity, axis=None) == np.inf:  # s / I overflowed: log2 s - log2 I
        over = np.isinf(capacity)
        signal, insep = (np.broadcast_to(a, over.shape)[over] for a in (signal, insep))
        capacity = np.array(capacity)
        capacity[over] = np.log2(signal) - np.log2(insep)
    return capacity


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
            f"photon budget {n_encoding} is below the {_mean(n_min, n_excess):.6g} needed "
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
