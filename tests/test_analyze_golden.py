"""Byte pins of ``gaussent analyze`` on the bundled anchors and bare matrices.

The digests were recorded from the analysis that rebuilt the measured
matrix through a spectrum row; rebuilding it straight from the matrix's
mode variances and the measured sums must reproduce them exactly.  The
bare files cover a full ``measured`` block whose conditional variances are
JSON integers (they are multiplied as given, so the product prints as an
integer), a biased matrix with no photon decomposition, and a ``measured``
block of ``null``, which reads as absent.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaussent

SRC = Path(gaussent.__file__).resolve().parents[1]

ORDER = ["xp", "xm", "yp", "ym"]
MATRIX_65 = [
    [3.3, 0.0, -2.9, 0.0],
    [0.0, 3.3, 0.0, 2.9],
    [-2.9, 0.0, 3.3, 0.0],
    [0.0, 2.9, 0.0, 3.3],
]
MATRIX_35 = [
    [6.2, 0.0, -5.3, 0.0],
    [0.0, 6.1, 0.0, 5.7],
    [-5.3, 0.0, 6.2, 0.0],
    [0.0, 5.7, 0.0, 6.1],
]
BIASED = [
    [2.0, 0.0, -0.8, 0.0],
    [0.0, 3.0, 0.0, 1.2],
    [-0.8, 0.0, 5.0, 0.0],
    [0.0, 1.2, 0.0, 9.0],
]

BARE_FILES = {
    "integer_cv": {
        "order": ORDER,
        "matrix": MATRIX_65,
        "measured": {"v_sum_plus": 0.5, "v_diff_minus": 0.45, "cv_plus": 1, "cv_minus": 2},
    },
    "biased": {"order": ORDER, "matrix": BIASED},
    "measured_null": {"order": ORDER, "matrix": MATRIX_35, "measured": None},
}

SHA256 = {
    "6.5MHz": "7296ef3302487b04c95f3198a0d6d829f3f193968f96675f1065972c985a5ee8",
    "3.5MHz": "0ae0671bda265d743fb1f1dca0a28faf5ddaa90e829b3bc4dffb1ccee5dee80b",
    "integer_cv": "63dc2fef6653da29762485e96f463ae80ed5419125e1a6dc39706d9d0f97ec01",
    "biased": "d052db589f77335572be3a04484c060149eff890f328098df4bcd78fabea4e40",
    "measured_null": "e89352b861cc5d139a1ca80c12b272af706d7b01d1674be586ddfe1a685313e8",
}


def run_analyze(*argv: str) -> bytes:
    """``gaussent analyze`` in a fresh interpreter; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GAUSSENT_FIXTURES", None)
    result = subprocess.run(
        [sys.executable, "-m", "gaussent.cli", "analyze", *argv],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    return result.stdout


@pytest.mark.parametrize("label", ["6.5MHz", "3.5MHz"])
def test_bundled_anchor(label):
    digest = hashlib.sha256(run_analyze("--at", label)).hexdigest()
    assert digest == SHA256[label]


@pytest.mark.parametrize("name", sorted(BARE_FILES))
def test_bare_matrix_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(BARE_FILES[name]), encoding="utf-8")
    digest = hashlib.sha256(run_analyze("--cm", str(path))).hexdigest()
    assert digest == SHA256[name]
