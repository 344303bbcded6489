"""Package-level checks: what importing gaussent pulls in, and the README."""

import os
import re
import subprocess
import sys
from math import log10
from pathlib import Path

import gaussent
from gaussent import cli
from gaussent.spectra import SPECTRUM_COLUMNS, bundled_fixture_path, synthesize_spectra

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


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Each `gaussent ...` line of README's CLI block exits 0, on the inputs it names."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", text[text.index("## CLI"):], re.DOTALL).group(1)
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("gaussent ")]
    rows = [[getattr(row, name) for name in SPECTRUM_COLUMNS] for row in synthesize_spectra()]
    for name, cell in (("spectra.csv", repr), ("spectra_db.csv", lambda v: repr(10 * log10(v)))):
        body = "".join(f"{row[0]!r},{','.join(map(cell, row[1:]))}\n" for row in rows)
        (tmp_path / name).write_text(",".join(SPECTRUM_COLUMNS) + "\n" + body)
    anchors = tmp_path / "src" / "gaussent" / "fixtures" / "paper_anchors.json"
    anchors.parent.mkdir(parents=True)
    anchors.write_bytes(Path(bundled_fixture_path()).read_bytes())
    monkeypatch.chdir(tmp_path)
    assert len(lines) == 10
    for argv in lines:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    assert capsys.readouterr().err == ""
    assert (tmp_path / "derived.csv").read_text().count("\n") == len(rows) + 1
