"""A seeded fuzz of the command line, run in process.

Each case is one argv over the six subcommands, with values drawn from the
edges of the float range (5e-324, 1e-17, 1.4e154, 1e300, 1.7e308, nan and
inf, either sign) and from ordinary ones, into every numeric flag, matrix
cell and spectrum cell.  Every case writes with ``--out``, so stdout stays
empty, and runs with warnings as errors.  The contract:

- the exit code is 0, 1 or 2, and no exception or warning escapes;
- on 1 or 2, stderr holds one ``gaussent...: error:`` line;
- on finite inputs, ``analyze`` and ``ingest`` write no NaN, and their
  ``inseparability`` and ``n_total`` are finite: a measure past the float
  range may read inf, but these two of a finite matrix never are.

Run as a script it fuzzes more cases at another seed, and exits 1 on a fault:

    PYTHONPATH=src python tests/test_cli_fuzz.py
"""

import contextlib
import csv
import io
import json
import logging
import math
import random
import re
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

from gaussent import cli
from gaussent.states import QUADRATURE_ORDER

EXTREMES = [5e-324, 1e-17, 1.4e154, 1e300, 1.7e308, math.nan, math.inf]
ORDINARY = [0.0, 0.3, 0.5, 1.0, 1.0 + 2.0**-52, 2.0, 3.7]
# Small counts only: --grid and --steps size the work of a case.
COUNTS = ["-1", "0", "1", "2", "3", "17", "4097", "2.5", "nan", "1.7e308"]
ERROR_LINE = re.compile(r"gaussent[ \w-]*: (i/o )?error: ")


def number(rng: random.Random) -> float:
    """An extreme or an ordinary value, negative one time in ten."""
    value = rng.choice(EXTREMES if rng.random() < 0.5 else ORDINARY)
    return -value if rng.random() < 0.1 else value


def matrix(rng: random.Random) -> list[list[float]]:
    """A symmetric 4x4 matrix: of interchangeable beams, of two beams in the
    decoupled form, or with every cell drawn."""
    kind = rng.randrange(3)
    if kind == 0:
        v_plus, v_minus, c_plus, c_minus = (number(rng) for _ in range(4))
        x = y = (v_plus, v_minus)
    else:
        x, y = (number(rng), number(rng)), (number(rng), number(rng))
        c_plus, c_minus = number(rng), number(rng)
    cells = [[x[0], 0.0, c_plus, 0.0], [0.0, x[1], 0.0, c_minus],
             [c_plus, 0.0, y[0], 0.0], [0.0, c_minus, 0.0, y[1]]]
    if kind == 2:
        for i in range(4):
            for j in range(i + 1, 4):
                cells[i][j] = cells[j][i] = number(rng)
    return cells


def draw(rng: random.Random, work: Path) -> tuple[list[str], bool, str]:
    """One case's argv, whether every number in its input file is finite, and
    the file's text, written to ``work``."""
    command = rng.choice(["model", "analyze", "sweep-loss", "contours", "ingest", "fixtures"])
    argv, values, text = [command], [], ""
    if command == "model":
        argv += ["--v1", repr(number(rng)), "--v2", repr(number(rng))]
        if rng.random() < 0.5:
            argv += ["--eta", repr(number(rng))]
    elif command == "analyze":
        payload = {"order": list(QUADRATURE_ORDER), "matrix": matrix(rng)}
        values = [cell for row in payload["matrix"] for cell in row]
        if rng.random() < 0.3:
            keys = ["v_sum_plus", "v_diff_minus"] + ["cv_plus", "cv_minus"] * (rng.random() < 0.5)
            payload["measured"] = {key: number(rng) for key in keys}
            values += payload["measured"].values()
        (work / "cm.json").write_text(text := json.dumps(payload))
        argv += ["--cm", str(work / "cm.json")]
    elif command == "sweep-loss":
        argv += ["--v", repr(number(rng)), "--steps", rng.choice(COUNTS)]
    elif command == "contours":
        metric = rng.choice(["epr", "fidelity", "dense_ratio"])
        argv += ["--metric", metric, "--grid", rng.choice(COUNTS[:6])]
        argv += ["--nmin-max", repr(number(rng)), "--nexcess-max", repr(number(rng))]
        if metric == "dense_ratio" or rng.random() < 0.1:
            argv += ["--n-encoding", repr(number(rng))]
    elif command == "ingest":
        rows = [[number(rng) for _ in range(7)] for _ in range(rng.randrange(1, 5))]
        values = [cell for row in rows for cell in row]
        lines = ["frequency_mhz,vx_plus,vx_minus,vy_plus,vy_minus,v_sum_plus,v_diff_minus"]
        lines += [",".join(map(repr, row)) for row in rows]
        (work / "spectrum.csv").write_text(text := "\n".join(lines) + "\n")
        argv += [str(work / "spectrum.csv")] + ["--db"] * (rng.random() < 0.3)
    if command in ("contours", "ingest"):
        argv += ["--format", rng.choice(["csv", "json"])]
    return argv + ["--out", str(work / "out")], all(map(math.isfinite, values)), text


def faults_of(argv: list[str], finite: bool, work: Path) -> list[str]:
    """How the run of ``argv`` breaks the contract, if it does."""
    (work / "out").unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(argv)
    except Exception:
        return [f"{argv}: raised\n{traceback.format_exc()}"]
    faults = []
    if code not in (0, 1, 2):
        faults.append(f"{argv}: exit code {code}")
    if out.getvalue():
        faults.append(f"{argv}: wrote to stdout: {out.getvalue()[:200]!r}")
    errors = [line for line in err.getvalue().splitlines() if ERROR_LINE.match(line)]
    if "Traceback" in err.getvalue() or (code != 0 and len(errors) != 1):
        faults.append(f"{argv}: exit {code}, stderr {err.getvalue()[-500:]!r}")
    if code == 0 and finite and argv[0] in ("analyze", "ingest"):
        faults += [f"{argv}: {fault}" for fault in output_faults(argv, work / "out")]
    return faults


def output_faults(argv: list[str], path: Path) -> list[str]:
    """NaN anywhere, or an infinite ``inseparability`` or ``n_total``, in the
    output of ``analyze`` or ``ingest`` on finite inputs."""
    text = path.read_text()
    if argv[0] == "ingest" and "json" not in argv:
        rows = [{key: float(value) for key, value in row.items()}
                for row in csv.DictReader(io.StringIO(text))]
    else:
        rows = json.loads(text)
        rows = rows if isinstance(rows, list) else [rows]
    faults = []
    for row in rows:
        values = {key: value for key, value in row.items() if isinstance(value, float)}
        faults += [f"{key} is nan" for key, value in values.items() if math.isnan(value)]
        faults += [f"{key} is {values[key]}" for key in ("inseparability", "n_total")
                   if not math.isfinite(values.get(key, 0.0))]
    return faults


def fuzz(seed: int, cases: int, work: Path) -> list[str]:
    """The faults of ``cases`` seeded cases."""
    rng = random.Random(seed)
    faults = []
    for _ in range(cases):
        argv, finite, text = draw(rng, work)
        faults += [f"{fault}\n  input: {text!r}" for fault in faults_of(argv, finite, work)]
    return faults


def test_the_cli_keeps_its_contract_on_extreme_inputs(tmp_path):
    faults = fuzz(seed=0, cases=2500, work=tmp_path)
    assert not faults, f"{len(faults)} faults; the first:\n" + "\n".join(faults[:10])


if __name__ == "__main__":
    logging.basicConfig(handlers=[logging.NullHandler()])  # skipped rows are not faults
    with tempfile.TemporaryDirectory() as directory:
        found = fuzz(seed=1, cases=20_000, work=Path(directory))
    print(f"{len(found)} faults in 20000 cases at seed 1", *found[:20], sep="\n")
    sys.exit(1 if found else 0)
