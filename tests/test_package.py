"""Package-level checks: what importing gaussent pulls in, and the README."""

import os
import re
import subprocess
import sys
from pathlib import Path

import gaussent

SRC = Path(gaussent.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def test_cli_import_does_not_load_scipy():
    probe = (
        "import sys, gaussent.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_builds_no_float_text_table():
    """The float-to-text kernel's tables are built on its first call, not at import."""
    probe = (
        "import gaussent.cli, gaussent._floattext as kernel; "
        "print(kernel._tables.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert float(lines[0]) < 1.0
    assert float(lines[1]) < 1.0
    assert lines[2].startswith("PhotonDecomposition(")
    assert 2.0 / 3.0 < float(lines[3]) < 1.0
