"""Byte pins of ``gaussent ingest`` on a seeded 200-row spectrum.

The digests and the warning text were recorded from the row-by-row
derivation that builds one correlation matrix per row; the column-wise
derivation must reproduce them exactly.  The spectrum holds one row that
is skipped (its claimed sum variance leaves a negative difference
variance), one vacuum row, and rows on both sides of I = 1.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gaussent
from gaussent.spectra import SPECTRUM_COLUMNS

SRC = Path(gaussent.__file__).resolve().parents[1]

ROWS = 200
SKIPPED = 37
VACUUM = 121

CSV_SHA256 = "d0040d899fde973d800b8c496078944deff79df29549091f892adc0d18853dc9"
JSON_SHA256 = "06d69221053168763b44fd8447da35008dfca3bfff7fb3fd1f43232f2251bb17"
STDERR = "WARNING: skipping row at 100 MHz: non-positive sum/difference variance (-1, 1)\n"


def spectrum_text(db: bool) -> str:
    rng = np.random.default_rng(20261018)
    freq = rng.permutation(np.linspace(0.5, 100.0, ROWS))
    modes = rng.uniform(1.0, 6.0, (ROWS, 4))
    combos = rng.uniform(0.2, 1.8, (ROWS, 2))
    table = np.column_stack([freq, modes, combos])
    table[SKIPPED, 1:] = [1.0, 1.0, 1.0, 1.0, 3.0, 1.0]
    table[VACUUM, 1:] = 1.0
    if db:
        table[:, 1:] = 10.0 * np.log10(table[:, 1:])
    lines = [",".join(SPECTRUM_COLUMNS)]
    lines += [",".join(repr(value) for value in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def run_ingest(tmp_path, db: bool, fmt: str) -> tuple[str, str]:
    """``gaussent ingest`` in a fresh interpreter: (stdout sha256, stderr)."""
    source = tmp_path / ("spectrum_db.csv" if db else "spectrum.csv")
    source.write_text(spectrum_text(db), encoding="utf-8")
    argv = [sys.executable, "-m", "gaussent.cli", "ingest", str(source), "--format", fmt]
    if db:
        argv.append("--db")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    return hashlib.sha256(result.stdout).hexdigest(), result.stderr.decode()


def test_linear_spectrum_to_csv(tmp_path):
    digest, stderr = run_ingest(tmp_path, db=False, fmt="csv")
    assert stderr == STDERR
    assert digest == CSV_SHA256


def test_db_spectrum_to_json(tmp_path):
    digest, stderr = run_ingest(tmp_path, db=True, fmt="json")
    assert stderr == STDERR
    assert digest == JSON_SHA256
