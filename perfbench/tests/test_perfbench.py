"""Self-test of the benchmark: its inputs, its checks and its metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests`` from the
repository root.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(seed):
    table = gen.spectrum(seed, rows=50)
    return [gen.spectrum_csv(table, db=False), gen.spectrum_csv(table, db=True),
            gen.matrices(seed, count=64).tobytes(), repr(gen.grid_ranges(seed))]


def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    assert _inputs(11) == _inputs(11)
    for same, other in zip(_inputs(11), _inputs(12)):
        assert same != other


def test_metric_names_are_well_formed_and_unique():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in BENCHMARK["workloads"]} == {"ingest", "contours", "matrices"}


def test_a_traced_pass_yields_every_per_layer_metric(tmp_path):
    spans = child.Spans()
    ops = child.anchor_run(spans, str(tmp_path))
    assert len(ops) == 8 and all(reasons == [] for reasons in ops.values())
    spans.end_pass()
    imports = run.import_breakdown(
        "import time: self [us] | cumulative | imported package\n"
        "import time:      1000 |      90000 |       numpy\n"
        "import time:      3000 |      93000 |     gaussent.states\n"
        "import time:      5000 |      17000 |         scipy\n"
        "import time:       500 |     400000 |       scipy.optimize\n"
        "import time:      2000 |     402000 |     gaussent.epr\n"
        "import time:       600 |     496000 |   gaussent\n"
        "import time:      2000 |     498000 | gaussent.cli\n"
    )
    assert imports == pytest.approx({"import.numpy_s": 0.09, "import.scipy_s": 0.4,
                                     "import.gaussent_s": 0.0076, "import.total_s": 0.498})
    values = run.layer_values({"spans": spans.summary(), "overhead": [(2.0, 1.0)]}, imports)
    missing = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in values]
    assert missing == []
    assert values["spectra.rows_kept_ratio"] == 1.0
    assert values["photons.decompose.rejected"] == 1.0


def _ingest(tmp_path, seed, name):
    table = gen.spectrum(seed, rows=40)
    source = tmp_path / "spectrum.csv"
    source.write_text(gen.spectrum_csv(table, db=False), encoding="utf-8")
    spec = {"name": "csv", "input": str(source), "db": False, "format": "csv",
            "out": str(tmp_path / name)}
    assert child.ingest(None, spec) == 0
    check = lambda spec, path: checks.ingest_failure(path, spec["format"], table)  # noqa: E731
    return {"config": {"variants": [spec]}, "check": check}, Path(spec["out"])


def _tamper(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-9))
    lines[5] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


def test_a_tampered_output_counts_as_a_failed_op(tmp_path):
    inputs, good = _ingest(tmp_path, 5, "good.csv")
    bad = tmp_path / "bad.csv"
    shutil.copy(good, bad)
    _tamper(bad)
    assert checks.ingest_failure(bad, "csv", gen.spectrum(5, rows=40)) is not None
    ops = [{"codes": [0], "digests": [checks.sha256(good)]},
           {"codes": [0], "digests": [checks.sha256(bad)]},
           {"codes": [1], "digests": [checks.sha256(good)]}]
    failed, reasons = run.cli_failures(inputs, {"first": {"csv": str(good)}, "ops": ops},
                                       5, "ingest")
    assert (failed, reasons) == (2, [])
    # A wrong first output fails every op that repeats it.
    failed, reasons = run.cli_failures(inputs, {"first": {"csv": str(bad)}, "ops": ops[1:2]},
                                       5, "ingest")
    assert failed == 1 and "inseparability" in reasons[0]


def test_a_perturbed_anchor_counts_as_a_failed_op(tmp_path, monkeypatch):
    target, tol = checks.ANCHORS["E(6.5MHz measured)"]
    monkeypatch.setitem(checks.ANCHORS, "E(6.5MHz measured)", (target + 10 * tol, tol))
    ops = child.anchor_run(None, str(tmp_path))
    assert [op for op, reasons in ops.items() if reasons] == ["analyze 6.5MHz"]
    attempted, failed, reasons = run.tally({"seconds": [1.0, 1.0], "anchor_ops": ops.items()},
                                           0, [])
    assert (attempted, failed) == (10, 1)
    assert "E(6.5MHz measured)" in reasons[0]


def test_a_traced_op_leaves_the_cli_output_in_place(tmp_path):
    _, untraced = _ingest(tmp_path, 3, "untraced.csv")
    spec = {"input": str(tmp_path / "spectrum.csv"), "db": False, "format": "csv",
            "out": str(tmp_path / "traced.csv")}
    assert child.ingest(child.Spans(), spec) == 0
    assert Path(spec["out"]).read_bytes() == untraced.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["spectrum.csv", "traced.csv", "untraced.csv"]


def test_matrix_checks_catch_a_wrong_degree():
    state, record, derived = child.matrix_op(None, 0.3, 0.4, 0.7, 0.7, True)
    insep = record["inseparability"]
    assert checks.matrix_failure(state.cm.entries, insep, True, derived.inseparability) is None
    assert checks.matrix_failure(state.cm.entries, insep + 1e-6, True, insep) is not None
    state, record, _ = child.matrix_op(None, 0.3, 0.4, 0.9, 0.5, False)
    nu = checks.nu_minus(state.cm.entries)
    assert checks.matrix_failure(state.cm.entries, record["inseparability"], False) is None
    assert checks.matrix_failure(state.cm.entries, nu - 1e-6, False) is not None
    assert checks.matrix_failure(state.cm.entries, 1.01, False) is not None
    assert nu < 1.0


def test_wall_times_scale_to_the_reference_speed():
    # Bursts every 0.1 s: the host runs at reference speed until t = 10 s,
    # then twice as slow.
    samples = [(t / 10, t / 10 + 0.002, 1e-3 if t < 100 else 2e-3) for t in range(200)]
    scale = speed.Scale(samples)
    assert scale.seconds(2.0, 3.0) == pytest.approx(3.0)
    assert scale.seconds(12.0, 6.0) == pytest.approx(3.0)
    # Half the op at each speed: its wall time is scaled by the mean burst.
    assert scale.seconds(8.0, 4.0) == pytest.approx(4.0 / 1.5, rel=0.05)
    # Beyond the last burst, the nearest one counts.
    assert scale.seconds(60.0, 1.0) == pytest.approx(0.5)
    assert scale.overlaps(2.0005, 0.001) and scale.overlaps(1.99, 0.02)
    assert not scale.overlaps(2.003, 0.05)
    with pytest.raises(RuntimeError):
        speed.Scale([])


def test_the_speed_probe_stops_and_reports_its_bursts():
    probe = run.start_probe(dict(os.environ))
    try:
        time.sleep(0.5)
    finally:
        samples = run.stop_probe(probe)
    assert probe.returncode == 0 and samples
    assert all(start < end and cpu > 0 for start, end, cpu in samples)


def test_the_driver_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrices", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

