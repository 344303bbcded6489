"""Memory of ``gaussent contours``: one float64 table plus a fixed working set.

``contour_grid`` fills its table a block of rows at a time, and the writers
keep every array a block needs in one workspace from their first block on,
so a later block allocates only the text it yields.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gaussent
from gaussent._floattext import CHUNK
from gaussent.protocols import contour_grid
from gaussent.spectra import DERIVED_COLUMNS, _csv_chunks, _json_chunks

SRC = Path(gaussent.__file__).resolve().parents[1]
# Python objects (views, slices) and the buffer numpy's iterator takes for
# a ufunc over 2-D operands (8192 entries of 8 bytes), freed as the ufunc
# returns: a block's arrays are 128 KiB each.
ALLOWANCE = 96 * 1024


def traced_peak(function, *args):
    """(result, peak traced bytes above those held before the call)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("metric", ["epr", "dense_ratio"])
def test_a_grid_holds_its_table_and_one_block_of_temporaries(metric):
    params = {"n_encoding": 2.0} if metric == "dense_ratio" else {}
    grid, peak = traced_peak(contour_grid, metric, (0.0, 3.0), (0.0, 4.0), 1024, params)
    block = (CHUNK // 1024) * 1024 * 8  # bytes of one block's float64 array
    assert grid.values.nbytes == 1024 * 1024 * 8
    assert peak <= grid.values.nbytes + 8 * block


def spectrum_columns(rows: int) -> tuple:
    """Derived columns over many decades, with zeros, nan and infinities among them."""
    rng = np.random.default_rng(7)
    values = rng.choice([-1.0, 1.0], (len(DERIVED_COLUMNS), rows)) * 10.0 ** rng.uniform(
        -30.0, 30.0, (len(DERIVED_COLUMNS), rows))
    mask = rng.random(values.shape) < 0.05
    values[mask] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], mask.sum())
    return tuple(values)


WRITERS = {
    "grid csv": lambda: contour_grid("epr", (0.0, 3.0), (0.0, 4.0), 1000).csv_chunks(),
    "grid json": lambda: contour_grid(
        "dense_ratio", (0.0, 3.0), (0.0, 4.0), 1000, {"n_encoding": 2.0}).json_chunks(),
    "spectrum csv": lambda: _csv_chunks(spectrum_columns(5 * (CHUNK // 9) + 7)),
    "spectrum json": lambda: _json_chunks(spectrum_columns(5 * (CHUNK // 9) + 7)),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_after_the_first_block_a_block_allocates_only_its_text(writer):
    chunks = WRITERS[writer]()
    chunk = next(chunks)  # the head
    chunk = next(chunks)  # the first block, which allocates the workspace
    blocks = 0
    while True:
        del chunk
        chunk, peak = traced_peak(next, chunks, None)
        if chunk is None:
            break
        assert peak <= len(chunk) + ALLOWANCE, f"block {blocks + 2}"
        blocks += 1
    assert blocks >= 4


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
def test_the_largest_grid_runs_in_its_table_and_a_fixed_working_set(argv):
    """VmHWM read inside the child: ``ru_maxrss`` from ``os.wait4`` would
    also count the resident set of the process that forked it."""
    argv = ["contours", *argv, "--grid", "4096", "--out", os.devnull]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, *argv], env=env,
                            capture_output=True, text=True, timeout=300)
    code, before_kib, after_kib = map(int, result.stdout.split())
    assert code == 0
    table_kib = 4096 * 4096 * 8 // 1024
    assert after_kib - before_kib <= table_kib + 16 * 1024
    assert after_kib <= 200 * 1024
