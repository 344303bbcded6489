"""Memory of ``gaussent contours``: a fixed working set, and no table; and
of the spectrum reader: its text, its table and one block.

A grid of ``contour_grid`` computes its values a block of rows at a time as
the writers write them, and builds its table only when ``values`` is read.
The writers keep every array a block needs in one workspace from their
first block on, so a later block allocates only the text it yields and the
temporaries of the metric's formula over its rows.  The spectrum reader
reads a block of lines at a time into one table.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import parse_spectra_rowwise

import gaussent
from gaussent._floattext import CHUNK, _tables, _words, _Workspace, read_cells
from gaussent.protocols import contour_grid
from gaussent.spectra import (
    DERIVED_COLUMNS, SPECTRUM_COLUMNS, _csv_chunks, _json_chunks, _read_table,
)

SRC = Path(gaussent.__file__).resolve().parents[1]
# Python objects (views, slices) beside a block's text: at most 5.4 KiB
# measured (spectrum csv; grid csv 1.2, spectrum json 4.3, numpy 2.4), and a
# margin.  A CHUNK-sized bool mask kept with the text would exceed it.  No
# writer call takes the 64 KiB buffer numpy's iterator takes for a ufunc
# over 2-D operands that do not collapse to one dimension: outside the
# kernel, each ufunc runs on 1-D or whole contiguous arrays of one dtype,
# which numpy 1.x also runs without its iterator, and casts go through
# np.copyto.  The kernel's buffers are among its temporaries, below.
ALLOWANCE = 16 * 1024


def traced_peak(function, *args):
    """(result, peak traced bytes above those held before the call)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


GRID_PARAMS = {"epr": {}, "dense_ratio": {"n_encoding": 2.0}}
TABLE = 1024 * 1024 * 8  # bytes of a 1024^2 float64 table
BLOCK = (CHUNK // 1024) * 1024 * 8  # bytes of one block's float64 array at 1024^2


@pytest.mark.parametrize("metric", GRID_PARAMS)
def test_a_grid_builds_its_table_only_when_values_is_read(metric):
    grid, peak = traced_peak(contour_grid, metric, (0.0, 3.0), (0.0, 4.0), 1024,
                             GRID_PARAMS[metric])
    assert peak < BLOCK
    values, peak = traced_peak(lambda: grid.values)
    assert values.nbytes == TABLE
    assert peak <= TABLE + 8 * BLOCK
    assert grid.values is values  # built once, and kept


@pytest.mark.parametrize("metric, writer", [("epr", "csv_chunks"), ("dense_ratio", "json_chunks")])
def test_writing_a_grid_holds_no_table(metric, writer):
    """Building the grid and writing it whole, a chunk at a time, stays
    below one table: about 7.4 MiB for epr CSV, 6.8 for dense_ratio JSON."""
    def write():
        grid = contour_grid(metric, (0.0, 3.0), (0.0, 4.0), 1024, GRID_PARAMS[metric])
        for chunk in getattr(grid, writer)():
            del chunk

    _tables()  # the float-to-text tables, built once per process
    assert traced_peak(write)[1] < TABLE


# Python objects beside the index: the views and slices of the workspace's
# arrays that the kernel holds at once, about 7 KiB.  A copy of a block's
# array would take 128 KiB.
INDEX_ALLOWANCE = 16 * 1024


def test_a_warm_mixed_block_allocates_only_the_index_of_its_normal_floats():
    """A block with nan among its floats, once the workspace is warm,
    allocates the intp index of its normal floats and nothing else."""
    rng = np.random.default_rng(37)
    values = 10.0 ** rng.uniform(-6.0, 20.0, CHUNK)
    values[rng.random(CHUNK) < 0.4] = np.nan
    normal = np.count_nonzero(~np.isnan(values))
    work = _Workspace()
    _words(values, False, work)
    assert traced_peak(_words, values, False, work)[1] <= 8 * normal + INDEX_ALLOWANCE


def spectrum_columns(rows: int) -> tuple:
    """Derived columns over many decades, with zeros, nan and infinities among them."""
    rng = np.random.default_rng(7)
    values = rng.choice([-1.0, 1.0], (len(DERIVED_COLUMNS), rows)) * 10.0 ** rng.uniform(
        -30.0, 30.0, (len(DERIVED_COLUMNS), rows))
    mask = rng.random(values.shape) < 0.05
    values[mask] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], mask.sum())
    return tuple(values)


# The metric's formula over a block of rows holds at most three block-sized
# float64 temporaries at once, bool masks of an eighth of a block each, and
# numpy's iterator buffers, 64 KiB for each of the broadcast n_min column
# and n_excess row: dense_ratio peaks at about 3.5 blocks, epr at 3.1.
KERNEL_TEMPORARIES = 4

WRITERS = {
    "grid csv": lambda: contour_grid("epr", (0.0, 3.0), (0.0, 4.0), 1000).csv_chunks(),
    "grid json": lambda: contour_grid(
        "dense_ratio", (0.0, 3.0), (0.0, 4.0), 1000, {"n_encoding": 2.0}).json_chunks(),
    "spectrum csv": lambda: _csv_chunks(spectrum_columns(5 * (CHUNK // 9) + 7)),
    "spectrum json": lambda: _json_chunks(spectrum_columns(5 * (CHUNK // 9) + 7)),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_after_the_first_block_a_block_allocates_only_its_text(writer):
    """A grid's block also computes its values first, whose temporaries are
    freed before its text is allocated: it is bounded by the larger of the two."""
    chunks = WRITERS[writer]()
    # Bytes of the kernel's temporaries over a block of 1000^2; the spectra compute nothing.
    kernel = KERNEL_TEMPORARIES * (CHUNK // 1000) * 1000 * 8 if "grid" in writer else 0
    chunk = next(chunks)  # the head
    chunk = next(chunks)  # the first block, which allocates the workspace
    blocks = 0
    while True:
        del chunk
        chunk, peak = traced_peak(next, chunks, None)
        if chunk is None:
            break
        assert peak <= max(len(chunk), kernel) + ALLOWANCE, f"block {blocks + 2}"
        blocks += 1
    assert blocks >= 4


READ_ROWS = 50_000
# One block's arrays beside the table: about twenty of CHUNK cells, 8 bytes
# each, and the masks of the block's bytes, 2.5 MB measured; and the line
# ends, 8 bytes a row.  A list of the text's lines would take 9 MB more.
READ_ALLOWANCE = 24 * CHUNK * 8 + 8 * READ_ROWS


def rising_table() -> np.ndarray:
    """A 50,000-row spectrum table, its frequencies rising."""
    rng = np.random.default_rng(39)
    table = rng.uniform(0.2, 8.0, (READ_ROWS, len(SPECTRUM_COLUMNS)))
    table[:, 0] = np.arange(1, READ_ROWS + 1) / 7.0
    return table


def spectrum_text(table) -> str:
    """The CSV of ``table``, each cell its repr: a file the decimal reader reads."""
    lines = [",".join(map(repr, row)) for row in table.tolist()]
    return ",".join(SPECTRUM_COLUMNS) + "\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize("units", ["linear", "dB"])
def test_reading_a_spectrum_holds_its_text_one_table_and_one_block(units, monkeypatch):
    """``_read_table`` of a 50,000-row spectrum peaks below its text's bytes,
    the table and one block: 2.8 MB above the text and the table, measured.
    A table whose frequencies rise comes back as ``read_cells`` built it."""
    import gaussent._floattext

    read = []

    def spy(*args):
        read.append(read_cells(*args))
        return read[-1]

    monkeypatch.setattr(gaussent._floattext, "read_cells", spy)
    table = rising_table()
    text = spectrum_text(table)
    returned, peak = traced_peak(_read_table, text, units)
    if units == "linear":
        assert returned.tobytes() == table.tobytes()
    assert np.shares_memory(returned, read[0])
    assert peak <= len(text) + table.nbytes + READ_ALLOWANCE


def refusal(text, units):
    """The message of the ValueError ``_read_table`` raises on ``text``."""
    with pytest.raises(ValueError) as refused:
        _read_table(text, units)
    return str(refused.value)


@pytest.mark.parametrize("units", ["linear", "dB"])
def test_a_repeated_frequency_is_named_within_the_same_bound(units):
    """A fast-readable file whose last row repeats the first row's frequency
    is refused with the row-by-row parser's message, without a second,
    row-by-row read of the file: 2.8 MB above its text and one table, measured."""
    table = rising_table()
    table[-1, 0] = table[0, 0]
    text = spectrum_text(table)
    with pytest.raises(ValueError) as expected:
        parse_spectra_rowwise(text, units)
    message, peak = traced_peak(refusal, text, units)
    assert message == str(expected.value)
    assert message.startswith(f"row {READ_ROWS + 1}, column 'frequency_mhz': duplicate")
    assert message.endswith("also on row 2")
    assert peak <= len(text) + table.nbytes + READ_ALLOWANCE


# numpy and the float-to-text kernel are imported before the first reading:
# gaussent.cli does not import them, and the contours handler would.
PEAK_SCRIPT = """
import sys
def high_water_mark():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
import numpy, gaussent._floattext
from gaussent import cli
before = high_water_mark()
code = cli.main(sys.argv[1:])
print(code, before, high_water_mark())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.parametrize("argv", [
    ["--metric", "epr", "--format", "csv"],
    ["--metric", "dense_ratio", "--n-encoding", "2", "--format", "json"],
])
def test_the_largest_grid_runs_in_a_fixed_working_set(argv):
    """VmHWM read inside the child: ``ru_maxrss`` from ``os.wait4`` would
    also count the resident set of the process that forked it."""
    argv = ["contours", *argv, "--grid", "4096", "--out", os.devnull]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, *argv], env=env,
                            capture_output=True, text=True, timeout=300)
    code, before_kib, after_kib = map(int, result.stdout.split())
    assert code == 0
    assert after_kib - before_kib <= 16 * 1024  # a table alone would take 128 MiB
    assert after_kib <= 200 * 1024
