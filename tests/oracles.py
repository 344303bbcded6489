"""Independent references for the library's closed forms and parser.

The numerical oracles re-derive a closed form by direct optimization or by
an eigenvalue problem, so the tests can check the formula against
something other than itself; they are the only users of scipy.
:func:`parse_spectra_rowwise` is the row-by-row spectrum parser that the
column-wise table reader replaced, kept as the reference for its results
and for the order of its errors.
"""

import csv
import io
import math

import numpy as np
from scipy.optimize import minimize_scalar

from gaussent.protocols import squeezed_channel_capacity
from gaussent.spectra import SPECTRUM_COLUMNS, SpectrumRow
from gaussent.states import CorrelationMatrix4, quadrature_entries

# Symplectic form for the order (X+_x, X-_x, X+_y, X-_y) with shot noise 1,
# and the partial transpose, which flips the sign of beam y's phase quadrature.
OMEGA = np.array(
    [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]
)
PARTIAL_TRANSPOSE = np.diag([1.0, 1.0, 1.0, -1.0])


def nu_minus(entries) -> float:
    """Smallest symplectic eigenvalue of the partial transpose (Simon, PRL 84,
    2726 (2000)), from the eigenvalues of i Omega CM^PT; below 1 iff entangled."""
    pt = PARTIAL_TRANSPOSE @ np.asarray(entries) @ PARTIAL_TRANSPOSE
    return float(np.min(np.abs(np.linalg.eigvals(1j * OMEGA @ pt))))


def parse_spectra_rowwise(text: str, units: str = "linear") -> list[SpectrumRow]:
    """Parse a spectrum CSV one row at a time, each row gated by
    :class:`SpectrumRow` as it is read; same contract as
    :func:`gaussent.spectra.parse_spectra`."""
    if units not in ("linear", "dB"):
        raise ValueError(f"units must be 'linear' or 'dB', got {units!r}")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("spectrum CSV is empty; expected a header row")
    header = tuple(name.strip() for name in header)
    if header != SPECTRUM_COLUMNS:
        raise ValueError(
            f"unexpected header {header}; expected columns {SPECTRUM_COLUMNS}"
        )

    rows, line_numbers = [], []
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != len(SPECTRUM_COLUMNS):
            raise ValueError(
                f"row {line_no}: expected {len(SPECTRUM_COLUMNS)} cells, got {len(record)}"
            )
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
        try:
            rows.append(SpectrumRow(*values))
        except ValueError as exc:
            raise ValueError(f"row {line_no}, {exc}") from None
        line_numbers.append(line_no)
    freq = np.array([row.frequency_mhz for row in rows], dtype=float)
    order = np.argsort(freq, kind="stable").tolist()
    repeats = np.flatnonzero(np.diff(freq[order]) == 0.0)
    if repeats.size:
        first, second = order[repeats[0]], order[repeats[0] + 1]
        earlier, later = sorted((line_numbers[first], line_numbers[second]))
        raise ValueError(
            f"row {later}, column 'frequency_mhz': duplicate frequency "
            f"{rows[first].frequency_mhz} MHz, also on row {earlier}"
        )
    return [rows[i] for i in order]


def numeric_conditional_variance(cm: CorrelationMatrix4, quadrature: str) -> float:
    """Conditional variance by direct 1-D minimization over the inference gain.

    Golden-section search of <(dX_x - g dX_y)^2> over g in [-10, 10];
    serves as an independent check of the closed form.
    """
    c_xx, c_yy, c_xy = quadrature_entries(cm, quadrature)

    def objective(g: float) -> float:
        return c_xx - 2.0 * g * c_xy + g * g * c_yy

    result = minimize_scalar(
        objective, bracket=(-10.0, 10.0), method="golden", options={"xtol": 1e-12}
    )
    return float(result.fun)


def maximize_squeezed_capacity(n_encoding: float) -> tuple[float, float]:
    """Numerically maximize the squeezed-state capacity over the squeezing level.

    Returns (capacity, optimal variance); used as a cross-check of
    :func:`gaussent.protocols.optimal_squeezed_capacity`.
    """
    if n_encoding <= 0.0:
        return 0.0, 1.0

    # Smallest variance the budget can hold; capacity is zero there.
    t = 4.0 * n_encoding + 2.0
    v_floor = 2.0 / (t + math.sqrt(t * t - 4.0))

    def negated(v: float) -> float:
        try:
            return -squeezed_channel_capacity(n_encoding, v)
        except ValueError:
            # Rounding can push the boundary a hair past the budget.
            return 0.0

    result = minimize_scalar(
        negated, bounds=(v_floor, 1.0), method="bounded", options={"xatol": 1e-12}
    )
    return -float(result.fun), float(result.x)
