"""Protocol efficacy predictions on the photon-number diagram.

Unity-gain coherent-state teleportation fidelity, the Shannon capacities
of the optimal squeezed-state and of the entanglement-based dense-coding
channel at a fixed photon budget, and dense efficacy grids over the
(n_min, n_excess) plane of the photon-number diagram.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from .epr import epr_from_photons
from .photons import _require_photon_numbers, _require_positive_degree, insep_from_nmin
from .states import _mean, _require_positive_finite, np

#: Fidelity above which a teleporter beats the no-cloning bound.
NO_CLONING_FIDELITY = 2.0 / 3.0

GRID_METRICS = ("epr", "fidelity", "dense_ratio")

#: Largest points per axis of a contour grid (4096^2 cells: 134 MB in a
#: ``values`` table, which exists only once it is read).
MAX_RESOLUTION = 4096


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """One efficacy metric over the (n_min, n_excess) plane: its axes, its
    params and its kernel, the one source of its values.

    ``kernel(rows, out)`` writes the metric over a slice of n_min rows into
    ``out``.  The writers compute each block of :func:`row_blocks
    <gaussent._floattext.row_blocks>` as they write it, and :attr:`values`
    is built on its first read, by the kernel over the same blocks, then
    kept, frozen.  Each axis must be a non-empty 1-D float64 array that
    strictly increases, or the constructor raises a ValueError naming it.

    :meth:`csv_chunks` and :meth:`json_chunks` yield the text as bytes-like
    chunks, one per block of whole rows laid out in the reused buffer of
    ``_floattext._RowBlocks``, as the derived-spectrum writers' are: a
    block's chunk is a memoryview of the one array the block allocates.
    A writer holds about one chunk of text and a fixed working set, for
    rows of at most ``CHUNK`` cells, as every grid of :func:`contour_grid`
    has; ``to_csv_text`` joins the chunks.
    """

    metric: str
    nmin_axis: np.ndarray
    nexcess_axis: np.ndarray
    params: dict
    kernel: Callable[[slice, np.ndarray], None] = field(repr=False)

    def __post_init__(self) -> None:
        """ValueError naming the first axis that is not a 1-D float64 array,
        is empty or does not strictly increase."""
        for name in ("nmin_axis", "nexcess_axis"):
            axis = getattr(self, name)
            if not isinstance(axis, np.ndarray):
                raise ValueError(f"{name} must be a 1-D float64 array, got {type(axis).__name__}")
            if axis.ndim != 1 or axis.dtype != np.float64:
                raise ValueError(
                    f"{name} must be a 1-D float64 array, got a {axis.ndim}-D {axis.dtype} array"
                )
            if not axis.size:
                raise ValueError(f"{name} must not be empty")
            if not (rises := axis[1:] > axis[:-1]).all():
                first, then = axis[np.argmin(rises) :][:2].tolist()  # where it first fails to rise
                raise ValueError(f"{name} must be strictly increasing, got {first} then {then}")

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The table: ``values[i, j]`` is the metric at (nmin_axis[i],
        nexcess_axis[j]).  Built on the first read, by the kernel over the
        writers' blocks, and kept, frozen."""
        from ._floattext import row_blocks

        table = np.empty((self.nmin_axis.size, self.nexcess_axis.size))
        for rows in row_blocks(*table.shape):
            self.kernel(rows, table[rows])
        table.setflags(write=False)
        return table

    def csv_chunks(self) -> Iterator[bytes | memoryview]:
        """The CSV text: the header, then one chunk per block of rows.

        The axes are ``repr`` of each float, written once.  Each cell's
        key, written once, opens its line with the newline that ends the
        one before: n_min's slot and the n_excess text follow it.  Each
        block writes its n_min text, and ``_floattext._words`` writes its
        values, through ``_RowBlocks.chunks``.
        """
        from ._floattext import _RowBlocks, text_rows

        yield b"n_min,n_excess,value"
        nmin = text_rows(map(repr, self.nmin_axis.tolist()))
        a = nmin.shape[1]
        keys = text_rows("\n" + "\0" * a + "," + repr(x) + "," for x in self.nexcess_axis.tolist())
        buffer = _RowBlocks(len(nmin), b"", keys)

        def fill(rows: slice, out: np.ndarray) -> None:
            buffer.cells[: len(out), :, 1 : a + 1] = nmin[rows, None]
            self.kernel(rows, out)

        yield from buffer.chunks(fill, json=False)
        yield b"\n"

    def json_chunks(self) -> Iterator[bytes | memoryview]:
        """``json.dumps(self.to_json_dict(), indent=2) + "\\n"``: the head and
        the axes, then one chunk per block of rows.

        ``json.dumps`` writes the head and the axes, up to a ``null`` that
        holds the values' place; ``_floattext._words`` writes the values,
        through ``_RowBlocks.chunks``, with json's NaN/Infinity spellings.
        Each row's line opens by closing the row before it, bar the first's.
        """
        from ._floattext import _json_rows, _RowBlocks, text_rows

        head = json.dumps({**self._json_head(), "values": None}, indent=2)
        yield head[: -len("null\n}")].encode()
        # A row's first cell follows no comma.
        keys = text_rows(["\n      "] + [",\n      "] * (len(self.nexcess_axis) - 1))
        buffer = _RowBlocks(len(self.nmin_axis), _ROW_CLOSE + b",\n    [", keys)
        yield from _json_rows(buffer.chunks(self.kernel, json=True), _ROW_CLOSE)
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
    _require_budget(n_encoding)
    two_n = 2.0 * n_encoding  # inf above about 9e307, where log2(1 + 2n) = 1 + log2(n)
    return math.log2(1.0 + two_n) if two_n < math.inf else 1.0 + math.log2(n_encoding)


def _require_budget(n_encoding: float) -> None:
    """ValueError for a photon budget that is negative, nan or infinite,
    at which no capacity is defined."""
    if not n_encoding >= 0.0:
        raise ValueError(f"photon budget must be non-negative, got {n_encoding}")
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
            budget is negative, nan or infinite or does not cover the
            entangled state.
    """
    _require_photon_numbers(n_min, n_excess)
    _require_budget(n_encoding)
    capacity = float(_dense_capacity(n_encoding, n_min, n_excess))
    if math.isnan(capacity):
        raise ValueError(
            f"photon budget {n_encoding} is below the {_mean(n_min, n_excess):.6g} needed "
            "for the entangled state"
        )
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

    The grid is its frozen axes, its params and the kernel of its metric,
    which computes a block of rows (a slice of n_min points, as a column,
    broadcast against the n_excess axis as a row): the writers call it on
    each block as they write it, and ``values`` is built from the same
    blocks on its first read.  So no n x n array is built but that table,
    and only if it is read; n_min-only terms such as ``insep_from_nmin``
    are evaluated on n points.

    Raises:
        ValueError, before the grid is returned: for an unknown metric
            token, a resolution that is not an integer in [2,
            MAX_RESOLUTION], a range that is not a pair of real numbers or
            not finite, non-negative and increasing, missing or unused
            params, a budget that is not a real number or at which
            :func:`capacity_ratio` is undefined, or an axis that does not
            strictly increase (a range too narrow for its resolution).
            Each but the last is raised before an axis is allocated.
    """
    from numbers import Integral, Real  # loaded with numpy, which a grid needs

    if metric not in GRID_METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {GRID_METRICS}")
    if not isinstance(resolution, Integral):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must lie in [2, {MAX_RESOLUTION}], got {resolution}")
    for name, pair in (("nmin_range", nmin_range), ("nexcess_range", nexcess_range)):
        try:
            lo, hi = pair
        except (TypeError, ValueError):
            lo = hi = None
        if not all(isinstance(end, Real) and not isinstance(end, bool) for end in (lo, hi)):
            raise ValueError(f"{name} must be a pair of real numbers, got {pair!r}")
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
        if isinstance(budget := params["n_encoding"], bool) or not isinstance(budget, Real):
            raise ValueError(f"n_encoding must be a real number, got {budget!r}")
        n_encoding = float(budget)
        _require_positive_finite(n_encoding, "n_encoding")
        optimum = _ratio_denominator(n_encoding)
        params = {"n_encoding": n_encoding}
    nmin_axis = np.linspace(nmin_range[0], nmin_range[1], resolution)
    nexcess_axis = np.linspace(nexcess_range[0], nexcess_range[1], resolution)
    for axis in (nmin_axis, nexcess_axis):
        axis.setflags(write=False)

    def kernel(rows: slice, out: np.ndarray) -> None:
        nm = nmin_axis[rows, None]
        if metric == "epr":
            out[...] = epr_from_photons(nm, nexcess_axis)
        elif metric == "fidelity":
            # Constant along the excess axis: vertical efficacy contours.
            out[...] = _fidelity(insep_from_nmin(nm))
        else:
            np.divide(_dense_capacity(n_encoding, nm, nexcess_axis), optimum, out=out)

    return ContourGrid(metric, nmin_axis, nexcess_axis, params, kernel)
