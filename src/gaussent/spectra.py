"""Frequency-resolved spectra: ingestion, reconstruction, derived metrics.

A spectrum is a table of per-sideband-frequency variance measurements
(mode variances of both beams plus the minimum sum/difference variances).
Each row reconstructs a correlation matrix, from which the entanglement
measures and the photon-number budget follow.  A qualitative synthesizer
produces spectra with the shape seen from OPA-based sources: squeezing
rolled off by the OPA bandwidth, and a common-mode relaxation-oscillation
peak on the amplitude quadratures that piles up in the sum channel while
cancelling from the phase difference.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, fields
from importlib import resources

import numpy as np

from . import epr, photons, separability
from .states import (
    CorrelationMatrix4,
    SqueezedBeam,
    apply_loss,
    entangle_on_beamsplitter,
    sum_diff_variance,
)

logger = logging.getLogger(__name__)

#: Required CSV header of a spectrum table, in order.
SPECTRUM_COLUMNS = (
    "frequency_mhz",
    "vx_plus",
    "vx_minus",
    "vy_plus",
    "vy_minus",
    "v_sum_plus",
    "v_diff_minus",
)

#: Environment variable that overrides the bundled anchor file.
FIXTURES_ENV_VAR = "GAUSSENT_FIXTURES"


@dataclass(frozen=True)
class SpectrumRow:
    """Measured variances at one sideband frequency (linear, shot noise = 1)."""

    frequency_mhz: float
    vx_plus: float
    vx_minus: float
    vy_plus: float
    vy_minus: float
    v_sum_plus: float
    v_diff_minus: float

    def __post_init__(self) -> None:
        if not self.frequency_mhz > 0.0:
            raise ValueError(f"frequency must be positive, got {self.frequency_mhz}")
        for name in SPECTRUM_COLUMNS[1:]:
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value}")


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
        ValueError: on a wrong header, a non-numeric or non-finite cell, a
            dB value too large to convert, or a non-positive variance,
            naming the offending row and column.
    """
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

    rows = []
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != len(SPECTRUM_COLUMNS):
            raise ValueError(
                f"row {line_no}: expected {len(SPECTRUM_COLUMNS)} cells, got {len(record)}"
            )
        values = {}
        for name, cell in zip(SPECTRUM_COLUMNS, record):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"row {line_no}, column '{name}': non-numeric cell {cell!r}")
            if not math.isfinite(value):
                raise ValueError(f"row {line_no}, column '{name}': non-finite cell {cell!r}")
            if units == "dB" and name != "frequency_mhz":
                try:
                    value = 10.0 ** (value / 10.0)
                except OverflowError:
                    raise ValueError(
                        f"row {line_no}, column '{name}': {cell!r} dB is out of range"
                    ) from None
            values[name] = value
        for name in SPECTRUM_COLUMNS[1:]:
            if not values[name] > 0.0:
                raise ValueError(
                    f"row {line_no}, column '{name}': variance must be positive, "
                    f"got {values[name]}"
                )
        try:
            rows.append(SpectrumRow(**values))
        except ValueError as exc:
            raise ValueError(f"row {line_no}: {exc}")
    rows.sort(key=lambda row: row.frequency_mhz)
    return rows


def cm_at_frequency(row: SpectrumRow) -> CorrelationMatrix4:
    """Reconstruct the correlation matrix of one sideband.

    Assumes interchangeable beams: the per-quadrature variances of x and y
    are averaged, and the cross-correlations follow from the measured
    minimum combinations (sum for amplitude, difference for phase), with
    the amplitude correlation negative and the phase correlation positive.
    The reconstruction round-trips: the sum/difference variances of the
    result reproduce the row's inputs exactly.
    """
    v_plus = 0.5 * (row.vx_plus + row.vy_plus)
    v_minus = 0.5 * (row.vx_minus + row.vy_minus)
    c_plus = row.v_sum_plus - v_plus
    c_minus = v_minus - row.v_diff_minus
    return CorrelationMatrix4.symmetric_form(v_plus, v_minus, c_plus, c_minus)


def derive_row(row: SpectrumRow) -> DerivedRow:
    """Derive the entanglement metrics and photon budget of one row."""
    cm = cm_at_frequency(row)
    insep = separability.degree_of_inseparability(cm)
    epr_degree = epr.degree_of_epr(cm).degree
    budget = photons.decompose(cm)
    return DerivedRow(
        frequency_mhz=row.frequency_mhz,
        inseparability=insep,
        epr=epr_degree,
        n_min=budget.n_min,
        n_bias=budget.n_bias,
        n_excess=budget.n_excess,
        n_total=budget.n_total,
        c_xy_plus=cm.cxy_plus,
        c_xy_minus=cm.cxy_minus,
    )


def derive_spectra(rows: list[SpectrumRow]) -> list[DerivedRow]:
    """Derive metrics for every row; bad rows are logged and skipped."""
    derived = []
    for row in rows:
        try:
            derived.append(derive_row(row))
        except ValueError as exc:
            logger.warning(
                "skipping row at %.6g MHz: %s", row.frequency_mhz, exc
            )
    return derived


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
        freq_grid: sideband frequencies in MHz; defaults to 2.5-10 MHz.
    """
    if not 0.0 < v_floor <= 1.0:
        raise ValueError(f"v_floor must lie in (0, 1], got {v_floor}")
    for name, value in (
        ("opa_bandwidth_mhz", opa_bandwidth_mhz),
        ("relax_osc_mhz", relax_osc_mhz),
    ):
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    if relax_amplitude < 0.0:
        raise ValueError(f"relax_amplitude must be non-negative, got {relax_amplitude}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if freq_grid is None:
        freq_grid = np.linspace(2.5, 10.0, 31)
    freq_grid = [float(f) for f in freq_grid]
    if any(f <= 0.0 for f in freq_grid):
        raise ValueError("frequencies must be positive")

    width = 0.5 * relax_osc_mhz
    rows = []
    for freq in freq_grid:
        v_in = 1.0 - (1.0 - v_floor) / (1.0 + (freq / opa_bandwidth_mhz) ** 2)
        beam = SqueezedBeam.pure(v_in)
        state = apply_loss(entangle_on_beamsplitter(beam, beam), eta, eta)
        excess = relax_amplitude / (1.0 + ((freq - relax_osc_mhz) / width) ** 2)
        rows.append(
            SpectrumRow(
                frequency_mhz=freq,
                vx_plus=state.cm.cxx_plus + excess,
                vx_minus=state.cm.cxx_minus,
                vy_plus=state.cm.cyy_plus + excess,
                vy_minus=state.cm.cyy_minus,
                v_sum_plus=sum_diff_variance(state, "+", "sum") + 2.0 * excess,
                v_diff_minus=sum_diff_variance(state, "-", "diff"),
            )
        )
    return rows


def derived_to_csv_text(derived: list[DerivedRow]) -> str:
    """CSV serialization of derived rows, header in DerivedRow field order."""
    lines = [",".join(DERIVED_COLUMNS)]
    for row in derived:
        lines.append(",".join(repr(getattr(row, name)) for name in DERIVED_COLUMNS))
    return "\n".join(lines) + "\n"


def derived_to_json_text(derived: list[DerivedRow]) -> str:
    return json.dumps([asdict(row) for row in derived], indent=2) + "\n"


@dataclass(frozen=True)
class PaperAnchor:
    """One published reference point: a correlation matrix, optionally with
    the directly measured variances the matrix entries were rounded from."""

    label: str
    frequency_mhz: float
    cm: CorrelationMatrix4
    measured: dict

    def has_measured_variances(self) -> bool:
        return "v_sum_plus" in self.measured and "v_diff_minus" in self.measured


@dataclass(frozen=True)
class PaperAnchors:
    """The bundled anchor set keyed by frequency label."""

    statistical_error: float
    anchors: dict

    def __getitem__(self, label: str) -> PaperAnchor:
        try:
            return self.anchors[label]
        except KeyError:
            raise KeyError(
                f"no anchor {label!r}; available: {sorted(self.anchors)}"
            )


def _parse_frequency_label(label: str) -> float:
    if not label.endswith("MHz"):
        raise ValueError(f"anchor label {label!r} does not end in 'MHz'")
    return float(label[: -len("MHz")])


def bundled_fixture_path() -> str:
    """Path of the anchor file: the env override if set, else the bundled copy."""
    override = os.environ.get(FIXTURES_ENV_VAR)
    if override:
        return override
    return str(resources.files("gaussent").joinpath("fixtures/paper_anchors.json"))


def load_paper_anchors(path: str | None = None) -> PaperAnchors:
    """Load the anchor correlation matrices.

    Resolution order: explicit ``path``, the :data:`FIXTURES_ENV_VAR`
    environment variable, then the copy bundled with the package.
    """
    if path is None:
        path = bundled_fixture_path()
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    try:
        statistical_error = float(data["statistical_error"])
    except KeyError:
        raise ValueError(f"anchor file {path} lacks the 'statistical_error' field")
    anchors = {}
    for label, payload in data.items():
        if label == "statistical_error":
            continue
        cm = CorrelationMatrix4.from_json_dict(payload)
        measured = dict(payload.get("measured", {}))
        anchors[label] = PaperAnchor(
            label=label,
            frequency_mhz=_parse_frequency_label(label),
            cm=cm,
            measured=measured,
        )
    return PaperAnchors(statistical_error=statistical_error, anchors=anchors)


def measured_row(anchor: PaperAnchor) -> SpectrumRow:
    """Spectrum row combining the anchor's mode variances with its directly
    measured sum/difference variances (higher precision than the rounded
    cross-correlation entries of the published matrix)."""
    if not anchor.has_measured_variances():
        raise ValueError(f"anchor {anchor.label!r} carries no measured variances")
    return SpectrumRow(
        frequency_mhz=anchor.frequency_mhz,
        vx_plus=anchor.cm.cxx_plus,
        vx_minus=anchor.cm.cxx_minus,
        vy_plus=anchor.cm.cyy_plus,
        vy_minus=anchor.cm.cyy_minus,
        v_sum_plus=float(anchor.measured["v_sum_plus"]),
        v_diff_minus=float(anchor.measured["v_diff_minus"]),
    )
