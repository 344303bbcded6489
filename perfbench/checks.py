"""Output checks that do not rest on gaussent's own closed forms.

Each check returns ``None`` when the output is right and otherwise a
one-line reason.  The references are the paper's published anchor numbers,
the smallest symplectic eigenvalue of the partially transposed matrix
(Simon, PRL 84, 2726 (2000)), the measured input rows themselves, and the
photon-diagram formulas evaluated here with numpy.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# Symplectic form for the order (X+_x, X-_x, X+_y, X-_y) with shot noise 1,
# and the partial transpose, which flips the sign of beam y's phase quadrature.
OMEGA = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
PARTIAL_TRANSPOSE = np.diag([1.0, 1.0, 1.0, -1.0])

#: Published numbers with the tolerances pinned in tests/test_acceptance.py,
#: and the photon budget of the 6.5 MHz anchor (0.356 maintenance, 1.944
#: excess photons) at which the paper evaluates E and the dense-coding ratio.
ANCHORS = {
    "I(6.5MHz matrix)": (0.400, 1e-3),
    "I(6.5MHz measured)": (0.440, 1e-3),
    "E(6.5MHz matrix)": (0.5648, 5e-4),
    "E(6.5MHz measured)": (0.5852, 1e-4),
    "F(I=0.44)": (0.6944, 1e-4),
    "n_min(6.5MHz)": (0.356, 1e-3),
    "n_excess(6.5MHz)": (1.944, 2e-3),
    "E(0.356, 1.944)": (0.675, 5e-3),
    "dense ratio(125, 0.356, 1.944)": (1.02, 5e-3),
}
ANCHOR_BUDGET = (0.356, 1.944)
ANCHOR_N_ENCODING = 125.0


def anchor_failure(label: str, value: float) -> str | None:
    """Compare one measured anchor value with the published number."""
    target, tol = ANCHORS[label]
    if abs(value - target) <= tol:
        return None
    return f"{label} = {value!r}, expected {target} +/- {tol}"


def nu_minus(entries) -> float:
    """Smallest symplectic eigenvalue of the partial transpose; below 1 iff entangled."""
    pt = PARTIAL_TRANSPOSE @ np.asarray(entries) @ PARTIAL_TRANSPOSE
    return float(np.min(np.abs(np.linalg.eigvals(1j * OMEGA @ pt))))


def matrix_failure(entries, insep: float, symmetric: bool, derived_insep=None) -> str | None:
    """Check a matrices-workload result against the PPT eigenvalue.

    Interchangeable beams: the degree of inseparability (and that of the
    derived spectrum row) equals nu~- to 1e-9.  Biased states: the Duan
    degree bounds nu~- from above and gives the same entangled/separable
    verdict.
    """
    nu = nu_minus(entries)
    if symmetric:
        for name, value in (("I", insep), ("derive_row I", derived_insep)):
            if not abs(value - nu) <= 1e-9:
                return f"{name} = {value!r} differs from nu~- = {nu!r}"
        return None
    if not insep >= nu - 1e-12:
        return f"biased I = {insep!r} below nu~- = {nu!r}"
    if (insep < 1.0) != (nu < 1.0):
        return f"biased I = {insep!r} and nu~- = {nu!r} disagree on entanglement"
    return None


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _csv_table(path, header: str, columns: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    first, _, body = text.partition("\n")
    if first != header:
        raise ValueError(f"header {first!r}")
    return np.fromstring(body.strip().replace("\n", ","), sep=",").reshape(-1, columns)


def ingest_failure(path, fmt: str, table: np.ndarray) -> str | None:
    """Every input row is kept, in order, and its inseparability column is
    sqrt(v_sum_plus * v_diff_minus) of that row."""
    try:
        if fmt == "csv":
            header = ("frequency_mhz,inseparability,epr,n_min,n_bias,n_excess,"
                      "n_total,c_xy_plus,c_xy_minus")
            out = _csv_table(path, header, 9)[:, :2]
        else:
            with open(path, "r", encoding="utf-8") as handle:
                rows = json.load(handle)
            out = np.array([[row["frequency_mhz"], row["inseparability"]] for row in rows])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable {fmt} output: {exc}"
    if out.shape != (len(table), 2):
        return f"{len(out)} rows out for {len(table)} rows in"
    if not np.array_equal(out[:, 0], table[:, 0]):
        return "frequencies differ from the input rows"
    expected = np.sqrt(table[:, 5] * table[:, 6])
    worst = np.max(np.abs(out[:, 1] - expected) / expected)
    if not worst <= 1e-12:
        return f"inseparability off sqrt(v_sum_plus * v_diff_minus) by {worst:.3g} (relative)"
    return None


def grid_values(metric: str, nmin_axis, nexcess_axis, n_encoding: float) -> np.ndarray:
    """The photon-diagram formulas on the zero-bias plane, with m = n_min + 1:
    I = m - sqrt(m^2 - 1), E = ((2 n_excess I + 1)/(n_excess + m))^2, and the
    dense-coding ratio log2(1 + s/I)/log2(1 + 2 n) with s = n - (n_min +
    n_excess)/2, undefined (NaN) where s < 0."""
    nm, ne = np.meshgrid(nmin_axis, nexcess_axis, indexing="ij")
    m = nm + 1.0
    insep = m - np.sqrt(m * m - 1.0)
    if metric == "epr":
        return ((2.0 * ne * insep + 1.0) / (ne + m)) ** 2
    signal = n_encoding - 0.5 * (nm + ne)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.log2(1.0 + signal / insep) / np.log2(1.0 + 2.0 * n_encoding)
    return np.where(signal >= 0.0, ratio, np.nan)


def contours_failure(path, fmt: str, metric: str, nmin_max: float, nexcess_max: float,
                     grid: int, n_encoding: float) -> str | None:
    """Axes equal numpy's linspace and every cell, NaN included, matches the
    photon-diagram formula to 1e-9 (relative)."""
    nmin_axis = np.linspace(0.0, nmin_max, grid)
    nexcess_axis = np.linspace(0.0, nexcess_max, grid)
    try:
        if fmt == "csv":
            # One line per cell, n_min outer and n_excess inner.
            table = _csv_table(path, "n_min,n_excess,value", 3)
            if table.shape != (grid * grid, 3):
                return f"{len(table)} cells for a {grid}x{grid} grid"
            axes_ok = (np.array_equal(table[:, 0], np.repeat(nmin_axis, grid))
                       and np.array_equal(table[:, 1], np.tile(nexcess_axis, grid)))
            values = table[:, 2].reshape(grid, grid)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            axes_ok = (np.array_equal(data["nmin_axis"], nmin_axis)
                       and np.array_equal(data["nexcess_axis"], nexcess_axis))
            values = np.array(data["values"], dtype=float)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable {fmt} output: {exc}"
    if not axes_ok:
        return "grid axes differ from linspace"
    expected = grid_values(metric, nmin_axis, nexcess_axis, n_encoding)
    if values.shape != expected.shape:
        return f"values shape {values.shape}"
    if not np.array_equal(np.isnan(values), np.isnan(expected)):
        return "NaN cells differ from the photon-budget boundary"
    if not np.allclose(values, expected, rtol=1e-9, atol=0.0, equal_nan=True):
        return f"{metric} values differ from the photon-diagram formula"
    return None
