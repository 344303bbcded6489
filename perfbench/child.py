"""One workload in a process of its own; run.py starts it and reads its rusage.

Usage: python perfbench/child.py CONFIG.json, with gaussent importable.

Untraced, it repeats the workload's op until the run's seconds are spent and
records the wall time of each op.  Traced, it repeats passes in which each
call into gaussent is timed as a whole and then the public functions it calls
are called one by one; the whole minus its parts is the caller's glue code
(its self time).  Spans stay in memory and go out in the result file at the
end.  Every run also sends one op of each kind through the paper's anchors.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
import warnings
from array import array
from collections import defaultdict
from statistics import median

import numpy as np

import checks
import gen
from gaussent import cli, epr, photons, protocols, separability, spectra, states

_CLI_TIMEOUT_S = 120.0


class Spans:
    """Durations of timed calls, kept per pass until the run ends."""

    def __init__(self):
        self.durations = defaultdict(lambda: array("q"))
        self.passes = []
        self._start_pass()

    def _start_pass(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)

    def call(self, name, parent, fn, *args):
        """Time ``fn(*args)`` as ``name``; its time leaves ``parent``'s self time."""
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter_ns() - start
            self.durations[name].append(elapsed)
            self.calls[name] += 1
            self.self_ns[name] += elapsed
            if parent is not None:
                self.self_ns[parent] -= elapsed

    def count(self, name, amount=1.0):
        self.counts[name] += amount

    def end_pass(self):
        self.passes.append((dict(self.calls), dict(self.self_ns), dict(self.counts)))
        self._start_pass()

    def summary(self) -> dict:
        """Per pass medians of calls, self seconds and counts; the median call in µs."""
        out = {}
        names = {name for calls, _, _ in self.passes for name in calls}
        for name in names:
            out[f"{name}.calls"] = median(calls.get(name, 0) for calls, _, _ in self.passes)
            out[f"{name}.self_s"] = median(own.get(name, 0) for _, own, _ in self.passes) / 1e9
            out[f"{name}.us_p50"] = median(self.durations[name]) / 1e3
        totals = defaultdict(float)
        for _, _, counts in self.passes:
            for name, value in counts.items():
                totals[name] += value
        for name, value in totals.items():
            out[name] = value / len(self.passes)
        return out


def _insep_name(cm) -> str:
    branch = "symmetric" if states.check_symmetric_form(cm) else "biased"
    return f"separability.degree_of_inseparability.{branch}"


def derive_row(sp, row, parent):
    """``spectra.derive_row`` and then, one by one, the functions it calls."""
    name = "spectra.derive_row"
    derived = sp.call(name, parent, spectra.derive_row, row)
    cm = sp.call("spectra.cm_at_frequency", name, spectra.cm_at_frequency, row)
    sp.call(_insep_name(cm), name, separability.degree_of_inseparability, cm)
    sp.call("epr.degree_of_epr", name, epr.degree_of_epr, cm)
    sp.call("photons.decompose", name, photons.decompose, cm)
    return derived


def analyze(sp, cm, measured=None, label=None):
    """``cli.analyze_cm``, untraced when ``sp`` is None."""
    if sp is None:
        return cli.analyze_cm(cm, measured, label)
    name = "cli.analyze_cm"
    record = sp.call(name, None, cli.analyze_cm, cm, measured, label)
    insep = sp.call(_insep_name(cm), name, separability.degree_of_inseparability, cm)
    sp.call("epr.degree_of_epr", name, epr.degree_of_epr, cm)
    sp.call("separability.standard_form_restrictions", name,
            separability.standard_form_restrictions, cm)
    sp.call("protocols.teleport_fidelity", name, protocols.teleport_fidelity, insep)
    sp.call("separability.product_restriction", name, separability.product_restriction, cm)
    if measured:
        row = spectra.measured_row(spectra.PaperAnchor(label or "", 1.0, cm, measured))
        cm = sp.call("spectra.cm_at_frequency", name, spectra.cm_at_frequency, row)
    try:
        sp.call("photons.decompose", name, photons.decompose, cm)
    except ValueError:
        sp.count("photons.decompose.rejected")
    return record


def measured_row(cm):
    """The spectrum row an experiment records for a state: mode variances plus
    the amplitude-sum and phase-difference variances."""
    return spectra.SpectrumRow(
        frequency_mhz=1.0,
        vx_plus=cm.cxx_plus,
        vx_minus=cm.cxx_minus,
        vy_plus=cm.cyy_plus,
        vy_minus=cm.cyy_minus,
        v_sum_plus=0.5 * (cm.cxx_plus + cm.cyy_plus) + cm.cxy_plus,
        v_diff_minus=0.5 * (cm.cxx_minus + cm.cyy_minus) - cm.cxy_minus,
    )


def matrix_op(sp, v1, v2, eta_x, eta_y, symmetric):
    """One matrices op: build the state, analyze it, and for interchangeable
    beams derive its spectrum row.  Returns (state, record, derived row)."""
    if sp is None:
        state = states.apply_loss(
            states.entangle_on_beamsplitter(
                states.SqueezedBeam.pure(v1), states.SqueezedBeam.pure(v2)
            ),
            eta_x,
            eta_y,
        )
        record = cli.analyze_cm(state.cm)
        derived = spectra.derive_row(measured_row(state.cm)) if symmetric else None
        return state, record, derived
    pure = states.SqueezedBeam.pure
    beam1 = sp.call("states.SqueezedBeam.pure", None, pure, v1)
    beam2 = sp.call("states.SqueezedBeam.pure", None, pure, v2)
    state = sp.call("states.entangle_on_beamsplitter", None,
                    states.entangle_on_beamsplitter, beam1, beam2)
    state = sp.call("states.apply_loss", None, states.apply_loss, state, eta_x, eta_y)
    record = analyze(sp, state.cm)
    derived = derive_row(sp, measured_row(state.cm), None) if symmetric else None
    return state, record, derived


def ingest_argv(spec):
    argv = ["ingest", spec["input"], "--format", spec["format"], "--out", spec["out"]]
    return argv + ["--db"] if spec["db"] else argv


def contours_argv(spec):
    argv = ["contours", "--metric", spec["metric"], "--grid", str(spec["grid"]),
            "--nmin-max", repr(spec["nmin_max"]), "--nexcess-max", repr(spec["nexcess_max"]),
            "--format", spec["format"], "--out", spec["out"]]
    if spec["metric"] == "dense_ratio":
        argv += ["--n-encoding", repr(spec["n_encoding"])]
    return argv


def _write_part(sp, parent, text, out):
    """Time the CLI's file writer on the re-derived text, into a file of its
    own so that ``out`` keeps the bytes ``cli.main`` wrote."""
    part = out + ".part"
    sp.call("cli.write", parent, cli._emit, text, part)
    os.remove(part)
    sp.count("cli.output_bytes", os.path.getsize(out))


def ingest(sp, spec):
    """``gaussent ingest`` in process; returns its exit code."""
    if sp is None:
        return cli.main(ingest_argv(spec))
    name = "cli.ingest"
    code = sp.call(name, None, cli.main, ingest_argv(spec))
    with open(spec["input"], "r", encoding="utf-8") as handle:
        text = handle.read()
    rows = sp.call("spectra.parse_spectra", name, spectra.parse_spectra, text,
                   "dB" if spec["db"] else "linear")
    # derive_spectra only loops over derive_row, so its rows are the parts.
    derived = [derive_row(sp, row, name) for row in rows]
    if spec["format"] == "csv":
        text = sp.call("spectra.derived_to_csv_text", name, spectra.derived_to_csv_text, derived)
    else:
        text = sp.call("spectra.derived_to_json_text", name, spectra.derived_to_json_text,
                       derived)
    _write_part(sp, name, text, spec["out"])
    sp.count("spectra.rows_in", len(rows))
    sp.count("spectra.rows_kept", len(derived))
    return code


def contours(sp, spec):
    """``gaussent contours`` in process; returns its exit code."""
    if sp is None:
        return cli.main(contours_argv(spec))
    name = "cli.contours"
    metric = spec["metric"]
    code = sp.call(name, None, cli.main, contours_argv(spec))
    params = {"n_encoding": spec["n_encoding"]} if metric == "dense_ratio" else {}
    grid = sp.call(f"protocols.contour_grid.{metric}", name, protocols.contour_grid, metric,
                   (0.0, spec["nmin_max"]), (0.0, spec["nexcess_max"]), spec["grid"], params)
    if spec["format"] == "csv":
        text = sp.call("protocols.ContourGrid.to_csv_text", name, grid.to_csv_text)
    else:
        payload = sp.call("protocols.ContourGrid.to_json_dict", name, grid.to_json_dict)
        text = sp.call("cli.json_text", name, cli._json_text, payload)
    _write_part(sp, name, text, spec["out"])
    if metric == "dense_ratio":
        sp.count("protocols.grid.cells", grid.values.size)
        sp.count("protocols.grid.nan_cells", int(np.isnan(grid.values).sum()))
    return code


def _read(path, fmt):
    with open(path, "r", encoding="utf-8") as handle:
        return list(csv.DictReader(handle)) if fmt == "csv" else json.load(handle)


def anchor_run(sp, work) -> dict[str, list[str]]:
    """One op of every kind and output format on the paper's anchors; returns
    the reasons each op failed, an empty list for an op that passed."""
    anchors = spectra.load_paper_anchors()
    a65, a35 = anchors["6.5MHz"], anchors["3.5MHz"]
    m = a65.cm
    spectrum = os.path.join(work, "anchor_spectrum.csv")
    with open(spectrum, "w", encoding="utf-8") as handle:
        handle.write(f"{gen.SPECTRUM_HEADER}\n6.5,{m.cxx_plus!r},{m.cxx_minus!r},"
                     f"{m.cyy_plus!r},{m.cyy_minus!r},{a65.measured['v_sum_plus']!r},"
                     f"{a65.measured['v_diff_minus']!r}\n")

    def analyze_op(anchor):
        record = analyze(sp, anchor.cm, anchor.measured, anchor.label)
        insep = record["inseparability"]
        reasons = [checks.matrix_failure(anchor.cm.entries, insep, True, insep)]
        if anchor is a65:
            measured = record["inseparability_measured"]
            reasons += [checks.anchor_failure(label, value) for label, value in (
                ("I(6.5MHz matrix)", insep),
                ("I(6.5MHz measured)", measured),
                ("E(6.5MHz matrix)", record["epr"]),
                ("E(6.5MHz measured)", record["epr_from_measured_cv"]),
                ("F(I=0.44)", protocols.teleport_fidelity(measured)),
            )]
        return reasons

    def ingest_op(fmt):
        out = os.path.join(work, f"anchor_ingest.{fmt}")
        if ingest(sp, {"input": spectrum, "db": False, "format": fmt, "out": out}) != 0:
            return ["exited non-zero"]
        row = _read(out, fmt)[0]
        return [checks.anchor_failure("n_min(6.5MHz)", float(row["n_min"])),
                checks.anchor_failure("n_excess(6.5MHz)", float(row["n_excess"]))]

    def contours_op(metric, fmt, label):
        # A 3x3 grid whose centre node is the anchor's photon budget.
        n_min, n_excess = checks.ANCHOR_BUDGET
        out = os.path.join(work, f"anchor_{metric}.{fmt}")
        spec = {"metric": metric, "grid": 3, "nmin_max": 2 * n_min, "nexcess_max": 2 * n_excess,
                "n_encoding": checks.ANCHOR_N_ENCODING, "format": fmt, "out": out}
        if contours(sp, spec) != 0:
            return ["exited non-zero"]
        grid = _read(out, fmt)
        return [checks.anchor_failure(
            label, float(grid[4]["value"]) if fmt == "csv" else grid["values"][1][1])]

    def state_op(params):
        symmetric = params[2] == params[3]
        state, record, derived = matrix_op(sp, *params, symmetric)
        return [checks.matrix_failure(state.cm.entries, record["inseparability"], symmetric,
                                      derived.inseparability if derived else None)]

    ops = {
        "analyze 6.5MHz": lambda: analyze_op(a65),
        "analyze 3.5MHz": lambda: analyze_op(a35),
        "ingest csv": lambda: ingest_op("csv"),
        "ingest json": lambda: ingest_op("json"),
        "contours epr": lambda: contours_op("epr", "csv", "E(0.356, 1.944)"),
        "contours dense_ratio": lambda: contours_op("dense_ratio", "json",
                                                    "dense ratio(125, 0.356, 1.944)"),
        # One state with interchangeable beams and one through unequal loss.
        "state equal loss": lambda: state_op((0.5, 0.5, 0.8, 0.8)),
        "state unequal loss": lambda: state_op((0.5, 0.5, 0.9, 0.6)),
    }
    results = {}
    for op, run in ops.items():
        try:
            reasons = run()
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            reasons = [f"raised {exc!r}"]
        results[op] = [reason for reason in reasons if reason]
    return results


def run_cli(config, spec) -> tuple[float, int]:
    """One CLI invocation in a fresh interpreter: (wall seconds, exit code)."""
    if os.path.exists(spec["out"]):
        os.remove(spec["out"])
    argv = ingest_argv(spec) if config["workload"] == "ingest" else contours_argv(spec)
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, "-m", "gaussent.cli", *argv],
                              stdin=subprocess.DEVNULL, timeout=_CLI_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = -1
    return time.perf_counter() - start, code


def _keep(spec, digests, first):
    """Digest the op's output and keep the first one of each variant for the
    driver's full check."""
    name = spec["name"]
    if not os.path.exists(spec["out"]):
        digests.append(None)
        return
    digests.append(checks.sha256(spec["out"]))
    if name not in first:
        first[name] = spec["out"] + ".first"
        os.replace(spec["out"], first[name])


def cli_workload(config, sp, deadline) -> dict:
    """ingest or contours: each op runs every variant once, in order."""
    starts, seconds, ops, first, overhead, anchor_ops = [], [], [], {}, [], []
    run_in_process = ingest if config["workload"] == "ingest" else contours
    while not seconds or time.perf_counter() < deadline:
        op_s, codes, digests = 0.0, [], []
        if sp is not None or not seconds:
            anchor_ops += anchor_run(sp, config["work"]).items()
        starts.append(time.perf_counter())
        for spec in config["variants"]:
            if sp is None:
                elapsed, code = run_cli(config, spec)
            else:
                start = time.perf_counter()
                run_in_process(None, spec)
                untraced = time.perf_counter() - start
                start = time.perf_counter()
                code = run_in_process(sp, spec)
                elapsed = time.perf_counter() - start
                overhead.append((elapsed, untraced))
            op_s += elapsed
            codes.append(code)
            _keep(spec, digests, first)
        if sp is not None:
            sp.end_pass()
        seconds.append(op_s)
        ops.append({"codes": codes, "digests": digests})
    return {"starts": starts, "seconds": seconds, "ops": ops, "first": first,
            "anchor_ops": anchor_ops, "overhead": overhead}


def matrix_pair(sp, pair):
    """One matrices op: the state with interchangeable beams and the one
    through unequal loss, so that every op does the same work."""
    return matrix_op(sp, *pair[0], True), matrix_op(sp, *pair[1], False)


def matrices_workload(config, sp, deadline) -> dict:
    """matrices: cycle through the seeded pairs of states; the PPT checks run
    outside the op's time."""
    params = np.load(config["matrices"]).tolist()
    pairs = list(zip(params[0::2], params[1::2]))
    starts, seconds, reasons, overhead, anchor_ops = array("d"), array("d"), [], [], []
    failed = 0
    while not seconds or time.perf_counter() < deadline:
        if sp is not None or not seconds:
            anchor_ops += anchor_run(sp, config["work"]).items()
        if sp is not None:
            start = time.perf_counter()
            for pair in pairs:
                matrix_pair(None, pair)
            untraced = time.perf_counter() - start
        for index, pair in enumerate(pairs):
            reason = None
            start = time.perf_counter()
            try:
                results = matrix_pair(sp, pair)
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                results, reason = (), f"raised {exc!r}"
            seconds.append(time.perf_counter() - start)
            starts.append(start)
            for symmetric, (state, record, derived) in zip((True, False), results):
                reason = reason or checks.matrix_failure(
                    state.cm.entries, record["inseparability"], symmetric,
                    derived.inseparability if derived else None)
            if reason:
                failed += 1
                reasons.append(f"pair {index}: {reason}")
            if sp is None and time.perf_counter() >= deadline:
                break
        if sp is not None:
            sp.end_pass()
            overhead.append((sum(seconds[-len(pairs):]), untraced))
    return {"starts": starts, "seconds": seconds, "failed": failed,
            "reasons": reasons[:5], "anchor_ops": anchor_ops, "overhead": overhead}


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as handle:
        config = json.load(handle)
    sp = Spans() if config["trace"] else None
    if sp is not None:
        # The one-by-one calls of analyze_cm's parts warn as analyze_cm itself would.
        warnings.simplefilter("ignore", UserWarning)
    deadline = time.perf_counter() + config["seconds"]
    workload = matrices_workload if config["workload"] == "matrices" else cli_workload
    result = workload(config, sp, deadline)
    if sp is not None:
        result["spans"] = sp.summary()
    # Op times go out as raw doubles: as JSON they would take several times
    # the memory, and the child's peak memory is a metric.
    with open(config["result"] + ".ops", "wb") as handle:
        for name in ("starts", "seconds"):
            array("d", result.pop(name)).tofile(handle)
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
