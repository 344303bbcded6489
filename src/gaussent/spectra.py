"""Frequency-resolved spectra, the analysis record of one matrix, and the input readers.

A spectrum is a table of per-sideband-frequency variance measurements
(mode variances of both beams plus the minimum sum/difference variances).
Each row reconstructs a correlation matrix, from which the entanglement
measures and the photon-number budget follow.  ``gaussent ingest`` keeps
a spectrum in one float64 table from the CSV to the output: numpy's C
reader reads the CSV, the value gate runs column-wise, one kernel derives
every row without building a matrix, and the writers stream the rows in
blocks laid out in the row buffer the contour grids' writers use too,
each block's floats written by one vectorized ``float.__repr__`` call
(:mod:`gaussent._floattext`).  The fast path decides, the one-row
path explains: the array code only decides whether a file or a row is
good, and the one-row code (the csv reader, row by row, for a file;
:func:`derive_row`'s kernel for a row) is the only code that says why one
is not.  :class:`SpectrumRow` and :func:`derive_row` are the one-row case
of the gate and the kernel.  The kernel's elementwise formulas are the
scalar measures' own; :func:`derive_row` runs them on Python floats, which
overflow to inf as numpy's do, so it gives the kernel's bits without
numpy's per-call cost.  The dB conversion is one ``np.float_power`` pass,
which calls the C library's ``pow`` as ``10.0 ** (x / 10.0)`` does and so
gives its bits; ``np.power`` differs from it in the last bit on some inputs.

:func:`analyze_cm` builds the record ``gaussent analyze`` writes.  The CLI's
files are read here, by :func:`load_matrix` (a matrix, state or anchor
file), :func:`ingest_file` (a spectrum CSV) and :func:`read_text`, which
drops a leading BOM; the error for a file that is not UTF-8 or not JSON
names the file.

A qualitative synthesizer produces spectra with the shape seen from
OPA-based sources: squeezing rolled off by the OPA bandwidth, and a
common-mode relaxation-oscillation peak on the amplitude quadratures that
piles up in the sum channel while cancelling from the phase difference.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, fields
from itertools import chain
from operator import attrgetter

from .epr import _epr
from .photons import _budget, _decomposition
from .protocols import NO_CLONING_FIDELITY, teleport_fidelity
from .separability import (
    _biased_degree, _biased_product_ok, _excesses, _gate, _k, _require_positive_sum_diff,
    _restrictions, _symmetric_degree,
)
from .states import (
    CorrelationMatrix4,
    SqueezedBeam,
    apply_loss,
    entangle_on_beamsplitter,
    _json_number,
    _mean,
    _min_sum_diff,
    _require_fraction,
    _require_positive_finite,
    _sqrt_product,
    np,
    sum_diff_variance,
)

logger = logging.getLogger(__name__)

#: Environment variable that overrides the bundled anchor file.
FIXTURES_ENV_VAR = "GAUSSENT_FIXTURES"


@dataclass(frozen=True)
class SpectrumRow:
    """Measured variances at one sideband frequency (linear, shot noise = 1);
    the value gate's one-row case: ValueError names a field not positive and finite."""

    frequency_mhz: float
    vx_plus: float
    vx_minus: float
    vy_plus: float
    vy_minus: float
    v_sum_plus: float
    v_diff_minus: float

    def __post_init__(self) -> None:
        for label, value in zip(_COLUMN_LABELS, _spectrum_values(self)):
            _require_positive_finite(value, label)


#: Required CSV header of a spectrum table, in order.
SPECTRUM_COLUMNS = tuple(f.name for f in fields(SpectrumRow))
_spectrum_values = attrgetter(*SPECTRUM_COLUMNS)
_COLUMN_LABELS = tuple(f"column '{name}':" for name in SPECTRUM_COLUMNS)  # built once, not per row


@dataclass(frozen=True)
class DerivedRow:
    """Entanglement metrics and photon budget derived from one spectrum row."""

    frequency_mhz: float
    inseparability: float
    epr: float
    n_min: float
    n_bias: float
    n_excess: float
    n_total: float
    c_xy_plus: float
    c_xy_minus: float


DERIVED_COLUMNS = tuple(f.name for f in fields(DerivedRow))


def parse_spectra(text: str, units: str = "linear") -> list[SpectrumRow]:
    """Parse a spectrum CSV into rows sorted by frequency.

    Args:
        text: CSV content with the exact header ``SPECTRUM_COLUMNS``.
        units: "linear" for shot-noise-normalized variances, "dB" for
            decibel values (converted via v = 10^(dB/10)).

    Raises:
        ValueError: for the first error in file order: a wrong header or
            cell count, a non-numeric cell, a dB value too large to convert,
            a value that is not positive and finite or a repeated frequency,
            naming the row and column (and the row a frequency repeats).
    """
    return [SpectrumRow(*row) for row in _read_table(text, units).tolist()]


def _read_table(text: str, units: str) -> np.ndarray:
    """:func:`parse_spectra`'s rows as one float64 table, sorted by frequency.

    The fast path decides, the one-row path explains.  The csv reader reads
    the header; numpy's C reader reads the lines after it, and the table is
    kept if it passes the value gate and repeats no frequency.  Otherwise
    (or where the C reader refuses a line, such as one of blank or empty
    cells, which the csv reader skips) the csv reader goes on from the
    header, gating each row's values as it is read, and
    only it reports errors: so each message, and which error comes first in
    the file, is the csv reader's.  The C reader accepts no file that the
    csv reader refuses, and gives the same table bit for bit.
    """
    if units not in ("linear", "dB"):
        raise ValueError(f"units must be 'linear' or 'dB', got {units!r}")
    width = len(SPECTRUM_COLUMNS)
    # split("\n"), not splitlines(), which also breaks on \x0c, \x85 and
    # \u2028 where the csv reader does not.  The reader gets the lines that
    # io.StringIO(text) gives, but not its copy of the text (4 bytes a
    # character), which would stay alive through loadtxt.
    lines = text.split("\n")
    reader = csv.reader(chain((line + "\n" for line in lines[:-1]), filter(None, lines[-1:])))
    rows, line_numbers = [], []
    line_no = 0  # the last record read
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("spectrum CSV is empty; expected a header row")
        header = tuple(name.strip() for name in header)
        if header != SPECTRUM_COLUMNS:
            raise ValueError(f"unexpected header {header}; expected columns {SPECTRUM_COLUMNS}")
        line_no = 1
        # Where float() refuses a cell, loadtxt reads one over the csv field
        # limit and strips \x1c-\x1f around a number, so such files stay
        # with the csv reader.
        if max(map(len, lines)) <= csv.field_size_limit() and not any(
            separator in text for separator in "\x1c\x1d\x1e\x1f"
        ):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # loadtxt only warns on a file without rows
                    body = lines[reader.line_num :]
                    table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
                if units == "dB" and table.shape[1] == width:
                    # float_power calls libm's pow, as Python's ** does, and numpy's /
                    # is Python's: the bits of 10.0 ** (x / 10.0).  A cell that
                    # overflows to inf, or underflows to 0, fails the gate below,
                    # so numpy need not warn of it.
                    with np.errstate(over="ignore", under="ignore"):
                        np.float_power(10.0, table[:, 1:] / 10.0, out=table[:, 1:])
            except (ValueError, UserWarning):
                pass
            else:
                order = np.argsort(table[:, 0], kind="stable")
                if (
                    table.shape[1] == width
                    and ((table > 0.0) & (table < math.inf)).all()
                    and (np.diff(table[order, 0]) != 0.0).all()
                ):
                    return table[order]
        for line_no, record in enumerate(reader, start=2):
            if not "".join(record).strip():
                continue
            if len(record) != width:
                raise ValueError(f"row {line_no}: expected {width} cells, got {len(record)}")
            values = []
            for name, cell in zip(SPECTRUM_COLUMNS, record):
                try:
                    value = float(cell)
                    if units == "dB" and name != "frequency_mhz":
                        value = 10.0 ** (value / 10.0)
                except ValueError:
                    raise ValueError(f"row {line_no}, column '{name}': non-numeric cell {cell!r}")
                except OverflowError:
                    raise ValueError(
                        f"row {line_no}, column '{name}': {cell!r} dB is out of range"
                    ) from None
                values.append(value)
            for label, value in zip(_COLUMN_LABELS, values):  # once every cell has converted
                _require_positive_finite(value, f"row {line_no}, {label}")
            rows.append(values)
            line_numbers.append(line_no)
    except csv.Error as exc:  # from the reader, on the record after line_no; a cell too long
        raise ValueError(f"row {line_no + 1}: {exc}") from None

    table = np.array(rows, float).reshape(-1, width)
    freq = table[:, 0]
    order = np.argsort(freq, kind="stable")
    repeats = np.flatnonzero(np.diff(freq[order]) == 0.0)
    if repeats.size:
        first, second = order[repeats[0]], order[repeats[0] + 1]
        earlier, later = sorted((line_numbers[first], line_numbers[second]))
        raise ValueError(
            f"row {later}, column 'frequency_mhz': duplicate frequency "
            f"{freq[first].item()} MHz, also on row {earlier}"
        )
    return table[order]


def cm_at_frequency(row: SpectrumRow) -> CorrelationMatrix4:
    """Reconstruct the correlation matrix of one sideband.

    Assumes interchangeable beams: the per-quadrature variances of x and y
    are averaged, and the cross-correlations follow from the measured
    minimum combinations (sum for amplitude, difference for phase), with
    the amplitude correlation negative and the phase correlation positive.
    The reconstruction round-trips: the sum/difference variances of the
    result reproduce the row's inputs exactly.
    """
    return CorrelationMatrix4.symmetric_form(*_row(*_spectrum_values(row)[1:])[:4])


def _row(vx_plus, vx_minus, vy_plus, vy_minus, v_sum_plus, v_diff_minus):
    """(V+, V-, C+, C-, S+, S-) of a row, elementwise over floats or numpy
    arrays, unchecked: the entries of the interchangeable-beams matrix
    :func:`cm_at_frequency` builds, and its minimum sum/difference variances.
    The entries of a row of positive finite variances are finite."""
    v_plus = _mean(vx_plus, vy_plus)
    v_minus = _mean(vx_minus, vy_minus)
    c_plus, c_minus = v_sum_plus - v_plus, v_minus - v_diff_minus
    return (
        v_plus, v_minus, c_plus, c_minus,
        _min_sum_diff(v_plus, v_plus, c_plus), _min_sum_diff(v_minus, v_minus, c_minus),
    )


def _measures(freq, v_plus, v_minus, c_plus, c_minus, sum_plus, diff_minus) -> tuple:
    """The nine :data:`DERIVED_COLUMNS` of rows with positive S+/S-, elementwise;
    ValueError, from the budget, for a degree that is not positive."""
    insep = _sqrt_product(sum_plus, diff_minus)
    epr = _epr((v_plus, v_plus, c_plus), (v_minus, v_minus, c_minus))[4]
    n_total, n_min, n_bias, n_excess = _budget(
        v_plus, v_minus, v_plus, v_minus, sum_plus, diff_minus, insep
    )
    return freq, insep, epr, n_min, n_bias, n_excess, n_total, c_plus, c_minus


def derive_row(row: SpectrumRow) -> DerivedRow:
    """Derive the entanglement metrics and photon budget of one row, or raise
    ValueError with the message the scalar analysis of its correlation matrix
    raises first: the reason :func:`_derive_table` logs for a skipped row.

    The row's values are taken as Python floats, whose ``+``, ``*`` and
    ``/`` overflow to inf as numpy's do, so the shared helpers give the
    array path's bits without numpy's fixed cost per call.  A degree that
    underflows to 0 is refused by ``nmin_from_insep`` in the budget.
    """
    freq, *columns = map(float, _spectrum_values(row))
    values = _row(*columns)
    _require_positive_sum_diff(*values[4:])  # before the root: math.sqrt refuses S+ S- < 0
    return DerivedRow(*_measures(freq, *values))


def _derive_table(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """The :data:`DERIVED_COLUMNS` of a spectrum table as float64 arrays, all
    rows at once; rows that cannot be derived are logged, in row order, and
    skipped.

    The array path decides which rows can be derived: those whose S+, S-
    and S+ S- are positive.  For each one that cannot, :func:`derive_row`
    of the row gives the reason.  Every value equals, bit for bit, what
    :func:`cm_at_frequency` and the scalar measures give for the row, and
    what :func:`derive_row` gives: all call :func:`_row` and the same
    elementwise helpers, and no correlation matrix is built here.
    """
    with np.errstate(all="ignore"):
        columns = (table[:, 0], *_row(*table.T[1:]))
        sum_plus, diff_minus = columns[5:]
        valid = (sum_plus > 0.0) & (diff_minus > 0.0) & (sum_plus * diff_minus > 0.0)
        if not valid.all():
            for values in table[~valid].tolist():
                try:
                    derive_row(SpectrumRow(*values))
                except ValueError as exc:
                    logger.warning("skipping row at %.6g MHz: %s", values[0], exc)
            columns = (column[valid] for column in columns)
        return _measures(*columns)


def synthesize_spectra(
    v_floor: float = 0.45,
    opa_bandwidth_mhz: float = 6.0,
    relax_osc_mhz: float = 2.0,
    relax_amplitude: float = 0.35,
    eta: float = 0.86,
    freq_grid=None,
) -> list[SpectrumRow]:
    """Generate a qualitative spectrum from a simple source model.

    Both input beams are pure and amplitude squeezed with
    V(w) = 1 - (1 - v_floor) / (1 + (w / bandwidth)^2), interfered on the
    beam splitter and passed through equal loss ``eta``.  A common-mode
    relaxation-oscillation peak (Lorentzian centered at ``relax_osc_mhz``
    with half-width relax_osc_mhz/2 and peak variance ``relax_amplitude``)
    is then added to the amplitude quadrature of both beams; being common
    mode it lands in the amplitude-sum channel and cancels from the phase
    difference, breaking the quadrature symmetry at low frequencies.

    Args:
        freq_grid: sideband frequencies in MHz (positive, finite); default 2.5-10 MHz.
    """
    if not 0.0 < v_floor <= 1.0:
        raise ValueError(f"v_floor must lie in (0, 1], got {v_floor}")
    _require_positive_finite(opa_bandwidth_mhz, "opa_bandwidth_mhz")
    _require_positive_finite(relax_osc_mhz, "relax_osc_mhz")
    if not 0.0 <= relax_amplitude < math.inf:
        raise ValueError(f"relax_amplitude must be non-negative and finite, got {relax_amplitude}")
    _require_fraction(eta, "eta")
    if freq_grid is None:
        freq_grid = np.linspace(2.5, 10.0, 31)
    freq_grid = [float(f) for f in freq_grid]

    width = 0.5 * relax_osc_mhz
    rows = []
    for freq in freq_grid:
        _require_positive_finite(freq, "column 'frequency_mhz':")
        v_in = 1.0 - (1.0 - v_floor) / (1.0 + (freq / opa_bandwidth_mhz) ** 2)
        beam = SqueezedBeam.pure(v_in)
        state = apply_loss(entangle_on_beamsplitter(beam, beam), eta, eta)
        excess = relax_amplitude / (1.0 + ((freq - relax_osc_mhz) / width) ** 2)
        cm = state.cm
        modes = (cm.cxx_plus + excess, cm.cxx_minus, cm.cyy_plus + excess, cm.cyy_minus)
        v_sum = sum_diff_variance(state, "+", "sum") + 2.0 * excess
        rows.append(SpectrumRow(freq, *modes, v_sum, sum_diff_variance(state, "-", "diff")))
    return rows


_derived_values = attrgetter(*DERIVED_COLUMNS)
# In the JSON rows: what closes a row, and what precedes each value in
# json.dumps(..., indent=2) over the row's dict.
_ROW_CLOSE = b"\n  }"
_JSON_KEYS = [("," if i else "") + f'\n    "{name}": ' for i, name in enumerate(DERIVED_COLUMNS)]


def _row_chunks(columns, head: bytes, keys: list[str], json: bool) -> Iterator[bytes | memoryview]:
    """The rows of the derived columns (float64 arrays in :data:`DERIVED_COLUMNS`
    order), one chunk per block of :class:`_RowBlocks`: each line ``head``,
    then per cell its key and value.  The constant bytes are written once."""
    from ._floattext import _RowBlocks, text_rows

    def fill(rows: slice, out: np.ndarray) -> None:
        np.stack([column[rows] for column in columns], axis=1, out=out)

    return _RowBlocks(len(columns[0]), head, text_rows(keys)).chunks(fill, json)


def _csv_chunks(columns) -> Iterator[bytes | memoryview]:
    """CSV of the derived columns: each row opens with the newline that ends
    the line before it."""
    yield ",".join(DERIVED_COLUMNS).encode()
    yield from _row_chunks(columns, b"\n", [""] + [","] * (len(DERIVED_COLUMNS) - 1), json=False)
    yield b"\n"


def _json_chunks(columns) -> Iterator[bytes | memoryview]:
    """JSON array of the derived columns: what ``json.dumps`` writes of the
    rows' dicts with ``indent=2``.  Each row opens by closing the one before
    it, bar the first."""
    from ._floattext import _json_rows

    rows = _row_chunks(columns, _ROW_CLOSE + b",\n  {", _JSON_KEYS, json=True)
    yield from _json_rows(rows, _ROW_CLOSE)
    yield _ROW_CLOSE + b"\n]\n" if len(columns[0]) else b"[]\n"


def _columns(derived: list[DerivedRow]) -> np.ndarray:
    """The rows' values as float64 columns in :data:`DERIVED_COLUMNS` order."""
    return np.array(list(map(_derived_values, derived)), float).reshape(-1, len(DERIVED_COLUMNS)).T


def derived_to_csv_text(derived: list[DerivedRow]) -> str:
    """CSV serialization of derived rows, header in DerivedRow field order."""
    return b"".join(_csv_chunks(_columns(derived))).decode()


def derived_to_json_text(derived: list[DerivedRow]) -> str:
    """JSON array of the derived rows, byte for byte what
    ``json.dumps([asdict(row) for row in derived], indent=2)`` writes."""
    return b"".join(_json_chunks(_columns(derived))).decode()


def ingest_file(
    path: str, units: str = "linear", json: bool = False
) -> Iterator[bytes | memoryview]:
    """The derived columns of the spectrum CSV at ``path`` as chunks of CSV or JSON bytes;
    read and derived here, so a refused file raises before any chunk is written."""
    table = _read_table(read_text(path), units)
    return (_json_chunks if json else _csv_chunks)(_derive_table(table))


@dataclass(frozen=True)
class PaperAnchor:
    """One published reference point: a correlation matrix, optionally with
    the directly measured variances the matrix entries were rounded from."""

    label: str
    frequency_mhz: float
    cm: CorrelationMatrix4
    measured: dict


def _measured_sums(measured: dict) -> tuple | None:
    """The measured (v_sum_plus, v_diff_minus), or None unless the block holds both."""
    if "v_sum_plus" in measured and "v_diff_minus" in measured:
        return measured["v_sum_plus"], measured["v_diff_minus"]
    return None


@dataclass(frozen=True)
class PaperAnchors:
    """The bundled anchor set keyed by frequency label."""

    statistical_error: float
    anchors: dict

    def __getitem__(self, label: str) -> PaperAnchor:
        try:
            return self.anchors[label]
        except KeyError:
            raise KeyError(f"no anchor {label!r}; available: {sorted(self.anchors)}")


def _parse_frequency_label(label: str) -> float:
    """The frequency of a label such as '6.5MHz': a positive, finite number."""
    if not label.endswith("MHz"):
        raise ValueError("label does not end in 'MHz'")
    frequency = float(label[: -len("MHz")])
    _require_positive_finite(frequency, "column 'frequency_mhz':")
    return frequency


#: The keys a ``measured`` block may hold, in pairs: both of a pair, or neither.
_MEASURED_PAIRS = (("v_sum_plus", "v_diff_minus"), ("cv_plus", "cv_minus"))


def _read_matrix_json(payload) -> tuple[CorrelationMatrix4, dict]:
    """(matrix, measured) of a correlation-matrix JSON object, a bare file or
    an anchor entry; ``measured`` must be an object of numbers under the keys
    of :data:`_MEASURED_PAIRS`, each pair whole, and null or absent reads as
    {}.  ValueError names the offending cell or key."""
    cm = CorrelationMatrix4.from_json_dict(payload)
    measured = payload.get("measured")
    if measured is None:
        return cm, {}
    _require_measured(measured)
    return cm, measured


def _require_measured(measured) -> None:
    """ValueError, naming the key, unless ``measured`` is an object of
    numbers under the keys of :data:`_MEASURED_PAIRS`, each pair whole."""
    if not isinstance(measured, dict):
        raise ValueError(f"'measured' must be a JSON object, got {measured!r}")
    keys = list(chain(*_MEASURED_PAIRS))
    for key, value in measured.items():
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in 'measured'; expected one of {keys}")
        _json_number(value, f"'{key}'")
    for first, second in _MEASURED_PAIRS:
        if (first in measured) != (second in measured):
            given, missing = (first, second) if first in measured else (second, first)
            raise ValueError(f"'measured' has '{given}' without '{missing}'")


def bundled_fixture_path() -> str:
    """Path of the anchor file: the env override if set, else the bundled copy."""
    bundled = os.path.join(os.path.dirname(__file__), "fixtures", "paper_anchors.json")
    return os.environ.get(FIXTURES_ENV_VAR) or bundled


def load_paper_anchors(path: str | None = None) -> PaperAnchors:
    """The anchor correlation matrices of the file at ``path``, by default
    :func:`bundled_fixture_path`: the :data:`FIXTURES_ENV_VAR` file, else the bundled one."""
    if path is None:
        path = bundled_fixture_path()
    return _paper_anchors(_read_json_object(path), path)


def read_text(path: str) -> str:
    """The UTF-8 text at ``path``, less any BOM; ValueError, naming the file, if it is not UTF-8."""
    # Text mode reads CRLF and CR as LF; plain utf-8 reports a byte's offset in the file.
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_json_object(path: str) -> dict:
    """The JSON object in the file at ``path``; ValueError, naming the file, for anything else."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return data


def _paper_anchors(data: dict, path: str) -> PaperAnchors:
    """:func:`load_paper_anchors` from the parsed object of the file at ``path``."""
    try:
        statistical_error = float(_json_number(data["statistical_error"], "'statistical_error'"))
    except KeyError:
        raise ValueError(f"anchor file {path} lacks the 'statistical_error' field")
    _require_positive_finite(statistical_error, "'statistical_error'")
    anchors = {}
    for label, payload in data.items():
        if label == "statistical_error":
            continue
        try:
            frequency = _parse_frequency_label(label)
            cm, measured = _read_matrix_json(payload)
        except ValueError as exc:
            raise ValueError(f"anchor {label!r}: {exc}") from None
        anchors[label] = PaperAnchor(label, frequency, cm, measured)
    return PaperAnchors(statistical_error=statistical_error, anchors=anchors)


def measured_row(anchor: PaperAnchor) -> SpectrumRow:
    """Spectrum row combining the anchor's mode variances with its directly
    measured sum/difference variances (higher precision than the rounded
    cross-correlation entries of the published matrix)."""
    sums = _measured_sums(anchor.measured)
    if sums is None:
        raise ValueError(f"anchor {anchor.label!r} carries no measured variances")
    modes = (anchor.cm.cxx_plus, anchor.cm.cxx_minus, anchor.cm.cyy_plus, anchor.cm.cyy_minus)
    return SpectrumRow(anchor.frequency_mhz, *modes, *map(float, sums))


def load_matrix(path: str | None = None, at: str | None = None) -> tuple:
    """(matrix, measured, label) of a bare matrix file as ``gaussent model`` writes,
    an earlier ``model``'s state file (its ``cm`` object) or the anchor ``at`` of an
    anchor file, at ``path`` or else at :func:`load_paper_anchors`'s default path."""
    if path is None:
        path = bundled_fixture_path()
    data = _read_json_object(path)
    if "matrix" in data or "cm" in data:  # an anchor label ends in "MHz"
        if at is not None:
            raise ValueError("--at applies only to anchor files with labelled matrices")
        return (*_read_matrix_json(data if "matrix" in data else data["cm"]), None)
    anchors = _paper_anchors(data, path)
    if at is None:
        raise ValueError(f"--at is required for anchor files; available: {sorted(anchors.anchors)}")
    anchor = anchors[at]
    return anchor.cm, anchor.measured, anchor.label


def analyze_cm(
    cm: CorrelationMatrix4, measured: dict | None = None, label: str | None = None
) -> dict:
    """Full analysis record for one correlation matrix.

    When the anchor carries directly measured sum/difference variances,
    the photon budget is computed from those (they are the unrounded data
    the matrix entries were derived from) and the measured-value metrics
    are reported alongside the matrix-derived ones.  ``measured`` is
    checked as a matrix file's block is, with the same messages.
    """
    measured = measured or {}
    if measured:  # an empty block has nothing to check
        _require_measured(measured)
    # The kernels of degree_of_inseparability, degree_of_epr,
    # standard_form_restrictions, product_restriction and decompose, on
    # entries read and a form decided once; the errors come in the same order.
    interchangeable, plus, minus = _gate(cm._flat)
    excesses = _excesses(plus, minus)
    if interchangeable:
        v_plus, v_minus, insep = _symmetric_degree(plus, minus)
    else:
        insep = _biased_degree(plus, minus, _k(excesses))
    cv_plus, cv_minus, _, _, epr = _epr(plus, minus)
    ratio_ok, balance_ok, _ = _restrictions(excesses, plus[2], minus[2])
    fidelity = teleport_fidelity(insep)

    result: dict = {
        "label": label,
        "inseparability": insep,
        "epr": epr,
        "cv_plus": cv_plus,
        "cv_minus": cv_minus,
        "fidelity": fidelity,
        "beats_no_cloning": fidelity > NO_CLONING_FIDELITY,
        "restrictions": {
            "ratio_ok": ratio_ok,
            "balance_ok": balance_ok,
            "product_ok": interchangeable or _biased_product_ok(plus, minus, excesses),
        },
    }

    if (sums := _measured_sums(measured)) is not None:
        v_sum, v_diff = map(float, sums)
        _require_positive_finite(v_sum, "column 'v_sum_plus':")
        _require_positive_finite(v_diff, "column 'v_diff_minus':")
        # The matrix cm_at_frequency rebuilds from the same variances.
        modes = (plus[0], minus[0], plus[1], minus[1])
        r_plus, r_minus, c_plus, c_minus, s_plus, s_minus = _row(*modes, v_sum, v_diff)
        _require_positive_sum_diff(s_plus, s_minus)
        rebuilt = (r_plus, r_plus, c_plus), (r_minus, r_minus, c_minus)
        budget = _decomposition(*rebuilt, s_plus, s_minus, _sqrt_product(s_plus, s_minus))
        source = "measured"
        result["inseparability_measured"] = _sqrt_product(v_sum, v_diff)
    elif interchangeable:
        budget, source = _decomposition(plus, minus, v_plus, v_minus, insep), "matrix"
    else:
        # Biased matrices have no interchangeable-beams decomposition;
        # still report the measures that are defined.
        budget, source = (None,) * 5, "unavailable"
    n_total, n_min, n_bias, n_excess, g_bias_sq = budget
    result["decomposition_source"] = source
    result["n_min"] = n_min
    result["n_bias"] = n_bias
    result["n_excess"] = n_excess
    result["n_total"] = n_total
    result["g_bias_sq"] = g_bias_sq
    if "cv_plus" in measured and "cv_minus" in measured:
        cv_plus, cv_minus = float(measured["cv_plus"]), float(measured["cv_minus"])
        _require_positive_finite(cv_plus, "column 'cv_plus':")
        _require_positive_finite(cv_minus, "column 'cv_minus':")
        result["epr_from_measured_cv"] = cv_plus * cv_minus
    return result
