"""Byte pins of ``gaussent contours``, and of the streamed grid writers.

The digests were recorded from the writers that built the whole text in
one string: the CSV one cell at a time, the JSON through
``json.dumps(indent=2)``.  The streamed writers must reproduce them
exactly.  The cases cover every metric in both formats, a ``dense_ratio``
budget that leaves NaN cells, and ranges wide enough that axes and values
print in exponent form.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import run_measuring_peak_rss
from oracles import grid_of_table
import gaussent
from gaussent.protocols import ContourGrid

SRC = Path(gaussent.__file__).resolve().parents[1]

CASES = [
    ("epr", "csv", ["--grid", "7"],
     "66a2b9e723b51fdf7bf5e18416f91e9a0e88189b2d577a97d1082c3a74bd927e"),
    ("epr", "json", ["--grid", "7"],
     "2ad43b15ccb7ad411d8231774f3a1651b16f965b4983a3086cdd188b25e263ab"),
    ("fidelity", "csv", ["--grid", "7"],
     "8720b7c9049839a4122dd715cb0e7259cd9314f735812a98175cfd59546187f9"),
    ("fidelity", "json", ["--grid", "7"],
     "59cdf8b0c52805fb08d6d28722f6e6a61751b0bc91b1ffc26fe82e631050707f"),
    ("dense_ratio", "csv", ["--n-encoding", "2", "--grid", "7"],
     "135142d54bc5d81d865f5dae8c598f91184e59708d20021d324e27718b4786ad"),
    ("dense_ratio", "json", ["--n-encoding", "2", "--grid", "7"],
     "973e9d26f1c93f5aed2deaaabfa1adfd803bc8097cbcb3cace7db997b493a8f1"),
    ("epr", "csv", ["--nmin-max", "1e6", "--nexcess-max", "1e9", "--grid", "5"],
     "872e9240018d030f074f3d0584db5e59a8fa1cda18de7296093ffd5e1fe48c2a"),
    ("dense_ratio", "json",
     ["--n-encoding", "1e17", "--nmin-max", "1e16", "--nexcess-max", "1e17", "--grid", "5"],
     "cb5fde07a03397401762c9ff9a0b135c9a3abbe27dc92ed49bc6a8b73d039ed2"),
    ("epr", "json", ["--grid", "64"],
     "ac6a0979b771f72d10492b5042a997cb4e368b6998056f3a03314b3a7f60cde3"),
    ("dense_ratio", "csv", ["--n-encoding", "2", "--grid", "64"],
     "b2cfb20ff806c2989851808a3269efc8bdcb817b7db1fa72ff03d1040d18873f"),
]


@pytest.mark.parametrize(("metric", "fmt", "extra", "digest"), CASES)
def test_contours_stdout_bytes(metric, fmt, extra, digest):
    argv = [sys.executable, "-m", "gaussent.cli", "contours",
            "--metric", metric, "--format", fmt, *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    assert hashlib.sha256(result.stdout).hexdigest() == digest


def test_a_1500_grid_is_written_in_bounded_memory(tmp_path):
    """Peak RSS of the whole CLI run stays near the grid's float64 table.

    Building the 1500^2 CSV as one string peaks above 500 MB; written one
    n_min row at a time, the process stays well under 200 MB.
    """
    out = tmp_path / "epr.csv"
    argv = [sys.executable, "-m", "gaussent.cli", "contours",
            "--metric", "epr", "--grid", "1500", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code, max_rss_kib = run_measuring_peak_rss(argv, env)
    assert code == 0
    assert max_rss_kib / 1024 < 200  # ru_maxrss is in KiB on Linux
    with open(out, "rb") as handle:
        assert sum(1 for _ in handle) == 1 + 1500 * 1500


def per_cell_csv(grid: ContourGrid) -> str:
    """The CSV as the one-cell-at-a-time writer built it."""
    lines = ["n_min,n_excess,value"]
    for i, nm in enumerate(grid.nmin_axis.tolist()):
        for j, ne in enumerate(grid.nexcess_axis.tolist()):
            lines.append(f"{nm!r},{ne!r},{float(grid.values[i, j])!r}")
    return "\n".join(lines) + "\n"


SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308, 1e16, 1e-5]
any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIALS)
axis_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIALS[3:])


@st.composite
def grids(draw):
    axes = [
        sorted(draw(st.lists(axis_float, min_size=1, max_size=6, unique=True)))
        for _ in range(2)
    ]
    values = draw(hnp.arrays(float, (len(axes[0]), len(axes[1])), elements=any_float))
    params = draw(st.dictionaries(st.sampled_from(["n_encoding", "x"]), any_float, max_size=2))
    metric = draw(st.sampled_from(["epr", "fidelity", "dense_ratio"]))
    return grid_of_table(metric, axes[0], axes[1], values, params)


@settings(max_examples=300, deadline=None)
@given(grids())
def test_streamed_writers_match_the_whole_text_writers(grid):
    assert b"".join(grid.json_chunks()).decode() == json.dumps(grid.to_json_dict(), indent=2) + "\n"
    assert grid.to_csv_text() == per_cell_csv(grid)
