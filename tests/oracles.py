"""Independent references for the library's closed forms and parser.

The numerical oracles re-derive a closed form by direct optimization or by
an eigenvalue problem, so the tests can check the formula against
something other than itself; they are the only users of scipy.
:func:`parse_spectra_rowwise` is the row-by-row spectrum parser that the
column-wise table reader replaced, kept as the reference for its results
and for the order of its errors; the ``*_reference`` functions play the same
part for the inseparability criteria and restrictions, for the
correlation-matrix checks and the loss channel, and for the analysis record
of ``gaussent analyze``.
"""

import csv
import io
import math
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize_scalar

from gaussent.epr import degree_of_epr
from gaussent.photons import decompose
from gaussent.protocols import NO_CLONING_FIDELITY, teleport_fidelity
from gaussent.separability import (
    K_REL_TOL,
    RATIO_REL_TOL,
    RESTRICTION_TOL,
    StandardFormCheck,
    degree_of_inseparability,
    product_restriction,
)
from gaussent.spectra import SPECTRUM_COLUMNS, SpectrumRow, cm_at_frequency
from gaussent.states import (
    FORM_TOL,
    SYMMETRY_TOL,
    CorrelationMatrix4,
    _require_positive_finite,
    check_symmetric_form,
)

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


def _csv_records(text: str):
    """The records of a CSV text.  A csv.Error, such as a cell over the field
    limit or a carriage return inside a line, is raised as the ValueError
    gaussent reports, naming the record the reader stopped on."""
    count = 0
    try:
        for record in csv.reader(io.StringIO(text)):
            count += 1
            yield record
    except csv.Error as exc:
        raise ValueError(f"row {count + 1}: {exc}") from None


def parse_spectra_rowwise(text: str, units: str = "linear") -> list[SpectrumRow]:
    """Parse a spectrum CSV one row at a time, each row gated by
    :class:`SpectrumRow` as it is read; same contract as
    :func:`gaussent.spectra.parse_spectra`."""
    if units not in ("linear", "dB"):
        raise ValueError(f"units must be 'linear' or 'dB', got {units!r}")
    reader = _csv_records(text)
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


def _quadrature_entries(cm: CorrelationMatrix4, quadrature: str) -> tuple[float, float, float]:
    """(C_xx, C_yy, C_xy) of one quadrature, "+" or "-", read from the numpy entries."""
    i, j = {"+": (0, 2), "-": (1, 3)}[quadrature]
    return float(cm.entries[i, i]), float(cm.entries[j, j]), float(cm.entries[i, j])


def numeric_conditional_variance(cm: CorrelationMatrix4, quadrature: str) -> float:
    """Conditional variance by direct 1-D minimization over the inference gain.

    Golden-section search of <(dX_x - g dX_y)^2> over g in [-10, 10];
    serves as an independent check of the closed form.
    """
    c_xx, c_yy, c_xy = _quadrature_entries(cm, quadrature)

    def objective(g: float) -> float:
        return c_xx - 2.0 * g * c_xy + g * g * c_yy

    result = minimize_scalar(
        objective, bracket=(-10.0, 10.0), method="golden", options={"xtol": 1e-12}
    )
    return float(result.fun)


def _shannon_capacity(snr: float) -> float:
    """Shannon capacity of one Gaussian channel, log2(1 + R)/2 bits per symbol."""
    return 0.5 * math.log2(1.0 + snr)


def _squeezing_photons(v_sqz: float) -> float:
    """Photons spent to hold a pure squeezed state at variance ``v_sqz``."""
    return 0.25 * (v_sqz + 1.0 / v_sqz - 2.0)


def _squeezed_channel_capacity(n_encoding: float, v_sqz: float) -> float:
    """Capacity of a squeezed-state channel at a fixed photon budget.

    ``n_encoding`` photons are split between holding the squeezing and
    encoding signal on the squeezed quadrature; the signal variance is
    4 (n_encoding - n_sqz) against noise ``v_sqz``.  ValueError where the
    budget does not cover the squeezing photons.
    """
    n_sqz = _squeezing_photons(v_sqz)
    if not n_encoding >= n_sqz:
        raise ValueError(
            f"photon budget {n_encoding} is below the {n_sqz:.6g} needed for squeezing"
        )
    return _shannon_capacity(4.0 * (n_encoding - n_sqz) / v_sqz)


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
            return -_squeezed_channel_capacity(n_encoding, v)
        except ValueError:
            # Rounding can push the boundary a hair past the budget.
            return 0.0

    result = minimize_scalar(
        negated, bounds=(v_floor, 1.0), method="bounded", options={"xatol": 1e-12}
    )
    return -float(result.fun), float(result.x)


# The inseparability criteria and restrictions as they were written before
# the excess variances C - 1, the per-quadrature bias weight and the
# inference variance each got one helper in gaussent.separability: the
# reference for their values and for their error messages and order.


def _require_block_form(cm: CorrelationMatrix4) -> None:
    e = cm.entries
    if max(abs(e[0, 1]), abs(e[0, 3]), abs(e[1, 2]), abs(e[2, 3])) > FORM_TOL:
        raise ValueError(
            "correlation matrix couples the amplitude and phase quadratures; "
            "reduce it to the decoupled form before analysis"
        )


def k_parameter_reference(cm: CorrelationMatrix4) -> float:
    _require_block_form(cm)
    excesses = {
        "C++_xx": cm.cxx_plus - 1.0,
        "C++_yy": cm.cyy_plus - 1.0,
        "C--_xx": cm.cxx_minus - 1.0,
        "C--_yy": cm.cyy_minus - 1.0,
    }
    bad = [name for name, value in excesses.items() if value <= 0.0]
    if bad:
        raise ValueError(f"degenerate: quadrature at or below shot noise ({', '.join(bad)})")

    k_plus = (excesses["C++_yy"] / excesses["C++_xx"]) ** 0.25
    k_minus = (excesses["C--_yy"] / excesses["C--_xx"]) ** 0.25
    if not math.isclose(k_plus, k_minus, rel_tol=K_REL_TOL, abs_tol=0.0):
        raise ValueError(
            f"bias parameter inconsistent between quadratures "
            f"({k_plus:.8g} vs {k_minus:.8g}, relative tolerance {K_REL_TOL:g})"
        )
    return k_plus


def _inference_variance(cm: CorrelationMatrix4, quadrature: str, k: float) -> tuple[float, bool]:
    c_xx, c_yy, c_xy = _quadrature_entries(cm, quadrature)
    defaulted = c_xy == 0.0
    return k * k * c_xx + c_yy / (k * k) - 2.0 * abs(c_xy), defaulted


def _self_biased_inference_variance(cm: CorrelationMatrix4, quadrature: str) -> float:
    c_xx, c_yy, c_xy = _quadrature_entries(cm, quadrature)
    ex, ey = c_xx - 1.0, c_yy - 1.0
    if ex <= 0.0 or ey <= 0.0:
        raise ValueError(
            f"degenerate: {quadrature} quadrature at or below shot noise"
        )
    return math.sqrt(ey / ex) * c_xx + math.sqrt(ex / ey) * c_yy - 2.0 * abs(c_xy)


class SumCriterion(NamedTuple):
    """Outcome of the sum-form criterion for one correlation matrix."""

    k: float
    lhs: float
    rhs: float
    satisfied: bool
    applicable: bool
    sign_defaulted: bool


def duan_sum_criterion_reference(
    cm: CorrelationMatrix4, k: float | None = None
) -> SumCriterion:
    _require_block_form(cm)
    if k is None:
        k = k_parameter_reference(cm)
    elif k <= 0.0:
        raise ValueError(f"k must be positive, got {k}")

    lhs_plus, defaulted_plus = _inference_variance(cm, "+", k)
    lhs_minus, defaulted_minus = _inference_variance(cm, "-", k)
    lhs = lhs_plus + lhs_minus
    rhs = 2.0 * (k * k + 1.0 / (k * k))
    restrictions = standard_form_restrictions_reference(cm)
    return SumCriterion(
        k=k,
        lhs=lhs,
        rhs=rhs,
        satisfied=lhs < rhs,
        applicable=restrictions.ratio_ok and restrictions.balance_ok,
        sign_defaulted=defaulted_plus or defaulted_minus,
    )


def standard_form_restrictions_reference(cm: CorrelationMatrix4) -> StandardFormCheck:
    _require_block_form(cm)
    ex_p, ey_p = cm.cxx_plus - 1.0, cm.cyy_plus - 1.0
    ex_m, ey_m = cm.cxx_minus - 1.0, cm.cyy_minus - 1.0

    if ey_p == 0.0 or ey_m == 0.0:
        return StandardFormCheck(
            False, False, "restriction undefined: variance at shot noise"
        )
    ratio_plus = ex_p / ey_p
    ratio_minus = ex_m / ey_m
    ratio_ok = math.isclose(ratio_plus, ratio_minus, rel_tol=RATIO_REL_TOL, abs_tol=0.0)

    if min(ex_p, ey_p, ex_m, ey_m) < 0.0:
        return StandardFormCheck(
            ratio_ok, False, "restriction undefined: variance below shot noise"
        )
    margin_plus = math.sqrt(ex_p * ey_p) - abs(cm.cxy_plus)
    margin_minus = math.sqrt(ex_m * ey_m) - abs(cm.cxy_minus)
    balance_ok = abs(margin_plus - margin_minus) <= RESTRICTION_TOL
    return StandardFormCheck(ratio_ok, balance_ok)


def product_restriction_sides(cm: CorrelationMatrix4) -> tuple[float, float] | None:
    """(lhs, rhs) of the product-form restriction of a biased matrix, None
    where the inference variances are undefined or not positive."""
    _require_block_form(cm)
    lhs = cm.cyy_plus * cm.cxx_minus - cm.cxx_plus * cm.cyy_minus
    try:
        d_plus = _self_biased_inference_variance(cm, "+")
        d_minus = _self_biased_inference_variance(cm, "-")
    except ValueError:
        return None
    if d_plus <= 0.0 or d_minus <= 0.0:
        return None
    rhs = math.sqrt(d_minus / d_plus) * (cm.cyy_plus - cm.cxx_plus) + math.sqrt(
        d_plus / d_minus
    ) * (cm.cxx_minus - cm.cyy_minus)
    return lhs, rhs


def product_restriction_reference(cm: CorrelationMatrix4) -> bool:
    if check_symmetric_form(cm):
        return True
    sides = product_restriction_sides(cm)
    return sides is not None and abs(sides[0] - sides[1]) <= RESTRICTION_TOL


def degree_of_inseparability_reference(cm: CorrelationMatrix4) -> float:
    if check_symmetric_form(cm):
        return degree_of_inseparability(cm)  # that branch has no bias weight
    k = k_parameter_reference(cm)
    d_plus, _ = _inference_variance(cm, "+", k)
    d_minus, _ = _inference_variance(cm, "-", k)
    if d_plus <= 0.0 or d_minus <= 0.0:
        raise ValueError(
            f"non-positive inference variance ({d_plus:.6g}, {d_minus:.6g})"
        )
    return math.sqrt(d_plus * d_minus) / (k * k + 1.0 / (k * k))


# CorrelationMatrix4's checks and apply_loss's matrix update as they were
# written with numpy reductions and slice updates, before the matrix kept its
# entries as Python floats: the reference for which matrices are accepted, for
# the bits of their entries and for the error messages and their order.


def correlation_matrix_reference(entries) -> np.ndarray:
    """The read-only float64 entries the constructor keeps, or its ValueError."""
    arr = np.array(entries, dtype=float)
    if arr.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("correlation matrix entries must be finite")
    # Finite entries of opposite sign near the float limit differ by inf.
    with np.errstate(over="ignore"):
        asym = np.max(np.abs(arr - arr.T))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"correlation matrix is not symmetric (max asymmetry {asym:g})")
    if np.any(np.diag(arr) <= 0.0):
        raise ValueError(f"diagonal variances must be positive, got {np.diag(arr)}")
    arr.setflags(write=False)
    return arr


def apply_loss_reference(entries, eta_x: float, eta_y: float) -> np.ndarray:
    """The entries :func:`gaussent.states.apply_loss` gives a matrix, or its ValueError."""
    for name, eta in (("eta_x", eta_x), ("eta_y", eta_y)):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {eta}")
    e = np.array(entries)
    e[0:2, 0:2] = eta_x * e[0:2, 0:2] + (1.0 - eta_x) * np.eye(2)
    e[2:4, 2:4] = eta_y * e[2:4, 2:4] + (1.0 - eta_y) * np.eye(2)
    cross = math.sqrt(eta_x * eta_y)
    e[0:2, 2:4] *= cross
    e[2:4, 0:2] *= cross
    return correlation_matrix_reference(e)


# gaussent.cli.analyze_cm as it was written on the public measures, each
# testing the matrix's form again and returning its result object, before the
# analysis read the entries once and called the measures' float kernels: the
# reference for the record's keys and key order, for how the measures are
# combined, and for the error messages and their order.  The public measures
# share those kernels, so it checks no formula on its own: the degree and the
# restrictions come from the independent references above, which give the same
# bits; the product restriction, whose reference may flip a verdict within
# rounding of its tolerance, the degree of EPR and the photon budget are
# checked against their oracles in their own tests.


def analyze_cm_reference(
    cm: CorrelationMatrix4, measured: dict | None = None, label: str | None = None
) -> dict:
    measured = measured or {}
    insep = degree_of_inseparability_reference(cm)
    epr_report = degree_of_epr(cm)
    restrictions = standard_form_restrictions_reference(cm)
    fidelity = teleport_fidelity(insep)

    result: dict = {
        "label": label,
        "inseparability": insep,
        "epr": epr_report.degree,
        "cv_plus": epr_report.cv_plus,
        "cv_minus": epr_report.cv_minus,
        "fidelity": fidelity,
        "beats_no_cloning": fidelity > NO_CLONING_FIDELITY,
        "restrictions": {
            "ratio_ok": restrictions.ratio_ok,
            "balance_ok": restrictions.balance_ok,
            "product_ok": product_restriction(cm),
        },
    }

    if "v_sum_plus" in measured and "v_diff_minus" in measured:
        v_sum, v_diff = float(measured["v_sum_plus"]), float(measured["v_diff_minus"])
        _require_positive_finite(v_sum, "column 'v_sum_plus':")
        _require_positive_finite(v_diff, "column 'v_diff_minus':")
        modes = (cm.cxx_plus, cm.cxx_minus, cm.cyy_plus, cm.cyy_minus)
        # The frequency does not enter the rebuilt matrix.
        budget = decompose(cm_at_frequency(SpectrumRow(1.0, *modes, v_sum, v_diff)))
        source = "measured"
        result["inseparability_measured"] = math.sqrt(v_sum * v_diff)
    elif check_symmetric_form(cm):
        budget, source = decompose(cm), "matrix"
    else:
        budget, source = None, "unavailable"
    result["decomposition_source"] = source
    for key in ("n_min", "n_bias", "n_excess", "n_total", "g_bias_sq"):
        result[key] = getattr(budget, key, None)
    if "cv_plus" in measured and "cv_minus" in measured:
        cv_plus, cv_minus = float(measured["cv_plus"]), float(measured["cv_minus"])
        _require_positive_finite(cv_plus, "column 'cv_plus':")
        _require_positive_finite(cv_minus, "column 'cv_minus':")
        result["epr_from_measured_cv"] = cv_plus * cv_minus
    return result
