"""Seeded inputs for every workload.

Written with numpy alone, never with gaussent, so that no change to the
program can change what the benchmark feeds it.  The same seed always gives
the same bytes.
"""

from __future__ import annotations

import numpy as np

SPECTRUM_HEADER = "frequency_mhz,vx_plus,vx_minus,vy_plus,vy_minus,v_sum_plus,v_diff_minus"

#: Spectrum rows per ingest invocation.
INGEST_ROWS = 50_000
#: Points per axis of a contour grid, and the dense-coding photon budget.
GRID = 1000
N_ENCODING = 2.0
#: Distinct states the matrices workload cycles through.
MATRICES = 4096

# One independent stream per workload, so resizing one leaves the others alone.
_STREAM = {"ingest": 1, "contours": 2, "matrices": 3}


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


def spectrum(seed: int, rows: int = INGEST_ROWS) -> np.ndarray:
    """Linear variances, one row per sideband, columns in ``SPECTRUM_HEADER`` order.

    Two pure beams squeezed to v(f) = 1 - (1 - floor)/(1 + (f/bandwidth)^2),
    which stays at or below 0.7 over 1-20 MHz, are entangled and sent
    through equal loss eta(f).  The measured mode variances then carry a
    seeded 1% jitter drawn separately for each beam and quadrature, and the
    sum/difference variances a jitter of their own.
    Frequencies strictly increase, so the program's sort keeps the row order.
    Every row is entangled with the amplitude sum and phase difference as the
    minimum combinations, so the program derives every row.
    """
    rng = _rng(seed, "ingest")
    freq = 1.0 + 19.0 * (np.arange(rows) + rng.uniform(0.0, 1.0, rows)) / rows
    floor = rng.uniform(0.2, 0.4)
    bandwidth = rng.uniform(20.0, 30.0)
    v = 1.0 - (1.0 - floor) / (1.0 + (freq / bandwidth) ** 2)
    eta = rng.uniform(0.7, 0.95, rows)
    mode = eta * 0.5 * (v + 1.0 / v) + (1.0 - eta)
    pair = eta * v + (1.0 - eta)
    jitter = 1.0 + 0.01 * np.clip(rng.standard_normal((6, rows)), -3.0, 3.0)
    columns = [freq, mode * jitter[0], mode * jitter[1], mode * jitter[2], mode * jitter[3],
               pair * jitter[4], pair * jitter[5]]
    return np.column_stack(columns)


def spectrum_csv(table: np.ndarray, db: bool) -> str:
    """CSV text of a spectrum table; with ``db`` the variances are in decibels."""
    if db:
        table = table.copy()
        table[:, 1:] = 10.0 * np.log10(table[:, 1:])
    lines = [SPECTRUM_HEADER]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"


def grid_ranges(seed: int) -> tuple[float, float]:
    """Upper edges (n_min, n_excess) of the contour axes: the CLI defaults
    3 and 4 moved by up to 1%, which keeps about 37% of the dense_ratio cells
    beyond the photon budget (NaN)."""
    rng = _rng(seed, "contours")
    nmin_max, nexcess_max = np.array([3.0, 4.0]) * (1.0 + rng.uniform(-0.01, 0.01, 2))
    return float(nmin_max), float(nexcess_max)


def matrices(seed: int, count: int = MATRICES) -> np.ndarray:
    """Columns (v1, v2, eta_x, eta_y): squeezed variances of two pure beams
    and the efficiency of each beam's loss.

    Even rows have equal loss (interchangeable beams); odd rows lose at least
    10% more on one beam than the other (the biased branch).  Squeezing at or
    below 0.5 keeps every mode variance above shot noise, so the biased
    branch never meets a degenerate matrix.
    """
    rng = _rng(seed, "matrices")
    v = rng.uniform(0.1, 0.5, (count, 2))
    eta_x = rng.uniform(0.5, 1.0, count)
    eta_y = eta_x * rng.uniform(0.3, 0.9, count)
    eta_y[0::2] = eta_x[0::2]
    swap = rng.uniform(0.0, 1.0, count) < 0.5
    eta_x[swap], eta_y[swap] = eta_y[swap], eta_x[swap]
    return np.column_stack([v, eta_x, eta_y])
