"""The grid and spectrum writers across chunk boundaries, and the memory of
the JSON grid writer.

The writers format :data:`gaussent._floattext.CHUNK` cells per kernel call;
the hypothesis grids of ``test_contours_golden.py`` are too small to cross
a chunk.  Each case here does, with NaN, infinities, -0.0 and subnormals
among the values, and is compared with the one-value-at-a-time reference
writers.
"""

import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from conftest import run_measuring_peak_rss
from test_contours_golden import per_cell_csv
import gaussent
from gaussent._floattext import CHUNK
from gaussent.protocols import ContourGrid
from gaussent.spectra import (
    DERIVED_COLUMNS,
    DerivedRow,
    _CHUNK_ROWS,
    derived_to_csv_text,
    derived_to_json_text,
)

SRC = Path(gaussent.__file__).resolve().parents[1]
ODD = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e-310]


def sprinkled(rng, shape) -> np.ndarray:
    """Values over many decades, with every kind of odd value sprinkled in."""
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-30.0, 30.0, shape)
    mask = rng.random(shape) < 0.05
    values[mask] = rng.choice(ODD, mask.sum())
    return values


def axis(rng, size) -> np.ndarray:
    """A strictly increasing axis from -0.0 through subnormals to large values."""
    rest = np.sort(rng.uniform(1e-300, 1e6, size - 3))
    return np.concatenate([[-0.0, 5e-324, 1e-310], rest])


def assert_same_text(text: str, expected: str) -> None:
    """``text == expected``, reporting the first line that differs rather
    than a diff of megabytes."""
    if text == expected:
        return
    lines, expected_lines = text.split("\n"), expected.split("\n")
    at = next(
        (i for i, pair in enumerate(zip(lines, expected_lines)) if pair[0] != pair[1]),
        min(len(lines), len(expected_lines)),
    )
    raise AssertionError(f"line {at}: {lines[at:at + 1]} != {expected_lines[at:at + 1]}")


def check_grid(grid: ContourGrid) -> None:
    assert_same_text(
        "".join(grid.json_chunks()), json.dumps(grid.to_json_dict(), indent=2) + "\n"
    )
    assert_same_text(grid.to_csv_text(), per_cell_csv(grid))


def test_a_grid_of_more_cells_than_a_chunk():
    rng = np.random.default_rng(1)
    ncols = 301
    nrows = 2 * CHUNK // ncols + 7  # the chunks end mid-row, the last one short
    assert (nrows * ncols) % CHUNK and nrows * ncols > 2 * CHUNK
    values = sprinkled(rng, (nrows, ncols))
    check_grid(ContourGrid("dense_ratio", axis(rng, nrows), axis(rng, ncols), values,
                           {"n_encoding": 2.0}))


def test_a_single_row_wider_than_a_chunk():
    rng = np.random.default_rng(2)
    ncols = CHUNK + 123
    check_grid(ContourGrid("epr", [0.5], axis(rng, ncols), sprinkled(rng, (1, ncols))))


def test_a_single_column_longer_than_a_chunk():
    rng = np.random.default_rng(3)
    nrows = CHUNK + 45
    check_grid(ContourGrid("fidelity", axis(rng, nrows), [1.0], sprinkled(rng, (nrows, 1))))


def test_a_derived_table_longer_than_a_chunk():
    rng = np.random.default_rng(4)
    rows = 2 * _CHUNK_ROWS + 5
    table = sprinkled(rng, (rows, len(DERIVED_COLUMNS)))
    derived = [DerivedRow(*row) for row in table.tolist()]
    csv_lines = [",".join(DERIVED_COLUMNS)]
    csv_lines += [",".join("%r" % value for value in row) for row in table.tolist()]
    assert_same_text(derived_to_csv_text(derived), "\n".join(csv_lines) + "\n")
    expected = json.dumps([asdict(row) for row in derived], indent=2) + "\n"
    assert_same_text(derived_to_json_text(derived), expected)


def test_a_1500_json_grid_is_written_in_bounded_memory(tmp_path):
    """The JSON writer, like the CSV one, holds about one chunk of text
    beside the grid's float64 table, not the whole text."""
    out = tmp_path / "dense_ratio.json"
    argv = [sys.executable, "-m", "gaussent.cli", "contours", "--metric", "dense_ratio",
            "--n-encoding", "2", "--grid", "1500", "--format", "json", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code, max_rss_kib = run_measuring_peak_rss(argv, env)
    assert code == 0
    assert max_rss_kib / 1024 < 200  # ru_maxrss is in KiB on Linux
    with open(out, "rb") as handle:
        assert sum(line.startswith(b"      ") for line in handle) == 1500 * 1500
