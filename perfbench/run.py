"""gaussent benchmark driver.

Usage, from the root of a gaussent checkout:

    python3 perfbench/run.py --workload ingest|contours|matrices \
        --seed N --seconds S --trace 0|1

The driver makes the workload's inputs from the seed, times fresh imports of
``gaussent.cli``, runs the workload in a child process of its own (one
client, closed loop, nothing else running) and reads the child's peak memory
from ``os.wait4``.  Everything runs on one CPU, next to the speed probe of
``speed.py``; untraced wall times are reported at the probe's reference speed.
It then checks the outputs and prints, as its last line, one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
separately traced run (``--trace 1``).  The line before it holds the run's
context.  Metric names, units and bounds live in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from importlib import metadata
from pathlib import Path
from statistics import median

import numpy as np

import checks
import gen
import speed

HERE = Path(__file__).resolve().parent
#: The seed whose CLI outputs must match golden.json byte for byte.
DEFAULT_SEED = 0
#: Fresh-interpreter imports per run; the first warms the file cache and is dropped.
IMPORT_RUNS = 7
#: Every run ends within 180 s; the child is stopped when this much is left.
RUN_LIMIT_S = 170.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "contours", "matrices"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_imports(env, trace: bool) -> tuple[list[tuple[float, float]], dict]:
    """(start, wall seconds) of fresh ``import gaussent.cli`` runs; traced
    runs add ``-X importtime`` and return the per-module medians as ``import.*``."""
    argv = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", "import gaussent.cli"]
    spans, breakdowns = [], []
    for _ in range(IMPORT_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, check=True)
        spans.append((start, time.perf_counter() - start))
        if trace:
            breakdowns.append(import_breakdown(proc.stderr))
    if not trace:
        return spans[1:], {}
    breakdowns = breakdowns[1:]
    return spans[1:], {key: median(b[key] for b in breakdowns) for key in breakdowns[0]}


def pin_to_one_cpu() -> int:
    """Keep the driver, everything it starts and the speed probe on one CPU,
    so that the probe sees the speed the workload gets."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def start_probe(env) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "speed.py")], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)


def stop_probe(probe: subprocess.Popen) -> list:
    """Stop the speed probe, wait for it and return its bursts."""
    probe.send_signal(signal.SIGTERM)
    try:
        out, _ = probe.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.communicate()
        raise RuntimeError("the speed probe did not stop") from None
    if probe.returncode != 0:
        raise RuntimeError(f"the speed probe exited with {probe.returncode}")
    return json.loads(out)


def import_breakdown(text: str) -> dict:
    """Seconds spent importing numpy, scipy and gaussent's own modules, parsed
    from ``-X importtime`` output.  numpy and scipy take the cumulative time
    of their outermost modules; gaussent the self time of its modules; total
    is the cumulative time of ``gaussent.cli``."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(own), int(cumulative)))
    out = {"import.numpy_s": 0.0, "import.scipy_s": 0.0, "import.gaussent_s": 0.0,
           "import.total_s": 0.0}
    # Parents follow their children, so walk backwards keeping the ancestors.
    ancestors = []
    for depth, name, own, cumulative in reversed(entries):
        del ancestors[depth:]
        package = name.split(".")[0]
        if package in ("numpy", "scipy") and package not in (a.split(".")[0] for a in ancestors):
            out[f"import.{package}_s"] += cumulative / 1e6
        if package == "gaussent":
            out["import.gaussent_s"] += own / 1e6
        if name == "gaussent.cli":
            out["import.total_s"] = cumulative / 1e6
        ancestors.append(name)
    return out


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's seeded inputs; return the child's config plus the
    items per op and, for CLI workloads, each variant's output check."""
    config = {"workload": workload}
    if workload == "ingest":
        table = gen.spectrum(seed)
        variants = []
        for name, db, fmt in (("csv", False, "csv"), ("json", True, "json")):
            path = work / f"spectrum_{'db' if db else 'linear'}.csv"
            path.write_text(gen.spectrum_csv(table, db), encoding="utf-8")
            variants.append({"name": name, "input": str(path), "db": db, "format": fmt,
                             "out": str(work / f"ingest.{fmt}")})
        config["variants"] = variants
        check = lambda spec, path: checks.ingest_failure(path, spec["format"], table)  # noqa: E731
        return {"config": config, "items": 2 * len(table), "check": check,
                "sizes": {"spectrum_rows": len(table)}}
    if workload == "contours":
        nmin_max, nexcess_max = gen.grid_ranges(seed)
        config["variants"] = [
            {"name": metric, "metric": metric, "grid": gen.GRID, "nmin_max": nmin_max,
             "nexcess_max": nexcess_max, "n_encoding": gen.N_ENCODING, "format": fmt,
             "out": str(work / f"{metric}.{fmt}")}
            for metric, fmt in (("epr", "csv"), ("dense_ratio", "json"))
        ]
        check = lambda spec, path: checks.contours_failure(  # noqa: E731
            path, spec["format"], spec["metric"], spec["nmin_max"], spec["nexcess_max"],
            spec["grid"], spec["n_encoding"])
        return {"config": config, "items": 2 * gen.GRID ** 2, "check": check,
                "sizes": {"grid": gen.GRID, "nmin_max": nmin_max, "nexcess_max": nexcess_max}}
    params = gen.matrices(seed)
    np.save(work / "matrices.npy", params)
    config["matrices"] = str(work / "matrices.npy")
    return {"config": config, "items": 2, "check": None, "sizes": {"matrices": len(params)}}


def run_child(config: dict, env, work: Path, limit_s: float):
    """Run child.py on ``config``; return (result, rusage).  Raises RuntimeError
    if it fails or outlives ``limit_s``."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    # A session of its own, so that a stop takes the child's CLI runs with it.
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(config_path)],
                            env=env, stdin=subprocess.DEVNULL, start_new_session=True)
    deadline = time.monotonic() + limit_s
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise RuntimeError(f"workload child still running after {limit_s:.0f} s")
        time.sleep(0.25)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with {proc.returncode}")
    result = json.loads(Path(config["result"]).read_text(encoding="utf-8"))
    ops = array("d", Path(config["result"] + ".ops").read_bytes())
    half = len(ops) // 2
    result["starts"], result["seconds"] = ops[:half].tolist(), ops[half:].tolist()
    return result, rusage


def cli_failures(inputs: dict, result: dict, seed: int, workload: str) -> tuple[int, list]:
    """Check each variant's first output in full, then fail every op with a
    non-zero exit or an output whose digest differs from a correct first one."""
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[workload]
    good, reasons = {}, []
    for spec in inputs["config"]["variants"]:
        path = result["first"].get(spec["name"])
        reason = inputs["check"](spec, path) if path else "no output written"
        digest = checks.sha256(path) if path else None
        if reason is None and seed == DEFAULT_SEED and digest != golden[spec["name"]]:
            reason = f"sha256 {digest} differs from the golden output"
        if reason:
            reasons.append(f"{spec['name']}: {reason}")
        good[spec["name"]] = None if reason else digest
    failed = 0
    names = list(good)
    for op in result["ops"]:
        if any(code != 0 or digest is None or digest != good[name]
               for name, code, digest in zip(names, op["codes"], op["digests"])):
            failed += 1
    return failed, reasons


def tally(result: dict, failed: int, reasons: list) -> tuple[int, int, list]:
    """(attempted, failed, reasons) over the workload's ops and the anchor
    ops; an anchor op with any failed check is a failed op."""
    anchor_failed = [f"anchor {op}: {'; '.join(why)}" for op, why in result["anchor_ops"] if why]
    attempted = len(result["seconds"]) + len(result["anchor_ops"])
    return attempted, failed + len(anchor_failed), anchor_failed + reasons


def timing_tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the op-time tail: the 95th
    percentile (nearest rank) when at least ten samples lie beyond it, else
    the slowest.  Higher percentiles of microsecond ops follow the host: on
    matrices, p99.99 of single ops moved by a factor of four between runs,
    and even p95 spread 0.15 over ten runs, as the host's speed changes
    faster than the probe samples it; p95 of the pairs' medians does not."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(0.95 * n) - 1
    if n - 1 - rank < 10:
        rank = n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def layer_values(result: dict, import_layers: dict) -> dict:
    """Per-layer metrics of a traced run: the child's spans, the import
    breakdown, the ratios of its counts, and the traced run's overhead: the
    time of the traced ops over that of the same ops run untraced in the same
    child, less one."""
    values = dict(result["spans"], **import_layers)
    values["spectra.rows_kept_ratio"] = values["spectra.rows_kept"] / values["spectra.rows_in"]
    values["protocols.grid.nan_ratio"] = (
        values["protocols.grid.nan_cells"] / values["protocols.grid.cells"])
    traced = sum(t for t, _ in result["overhead"])
    untraced = sum(u for _, u in result["overhead"])
    values["trace.overhead_ratio"] = traced / untraced - 1.0
    return values


def end_to_end(workload: str, inputs: dict, result: dict, imports, scale: speed.Scale,
               ok_share, rusage) -> tuple[dict, dict]:
    """(metrics, context) of an untraced run.  Every time is at the speed
    probe's reference speed.  On matrices, an op during which a burst of the
    probe ran is left out, since its wall time holds the burst, and the tail
    is taken over the pairs of states, each at its median time."""
    ops = list(enumerate(zip(result["starts"], result["seconds"])))
    if workload == "matrices":
        ops = [(index, op) for index, op in ops if not scale.overlaps(*op)]
    op_s = [scale.seconds(*op) for _, op in ops]
    tail_samples = op_s
    if workload == "matrices":
        # The run cycles through the pairs, so each is timed a few dozen times.
        pairs = inputs["sizes"]["matrices"] // 2
        by_pair = defaultdict(list)
        for (index, _), seconds in zip(ops, op_s):
            by_pair[index % pairs].append(seconds)
        tail_samples = [median(times) for times in by_pair.values()]
    tail, percentile, beyond = timing_tail(tail_samples)
    values = {
        "setup_s": median(scale.seconds(*span) for span in imports),
        "op_s_p50": median(op_s),
        "op_s_tail": tail,
        "items_per_s": inputs["items"] * len(op_s) / sum(op_s),
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "ok_share": ok_share,
    }
    info = {
        "op_s_tail_percentile": percentile, "op_s_tail_beyond": beyond,
        "ops_during_probe": len(result["seconds"]) - len(ops),
        "probe_bursts": len(scale.cpu),
        "probe_ms_p50": median(scale.cpu) * 1e3,
        "wall_setup_s": median(wall for _, wall in imports),
        "wall_op_s_p50": median(wall for _, (_, wall) in ops),
    }
    return values, info


def context(args, inputs, result, imports) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "inputs": inputs["sizes"],
        "ops": len(result["seconds"]), "import_s": [wall for _, wall in imports],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "gaussent" / "cli.py").is_file():
        print(f"perfbench: no gaussent sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(HERE)]))
    work = HERE / ".work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    cpu = pin_to_one_cpu()
    # Per-layer times are raw: the probe's bursts would land inside the spans.
    probe = None if args.trace else start_probe(env)
    try:
        imports, import_layers = time_imports(env, bool(args.trace))
        inputs = make_inputs(args.workload, args.seed, work)
        config = dict(inputs["config"], seed=args.seed, seconds=args.seconds,
                      trace=args.trace, work=str(work), result=str(work / "result.json"))
        limit = RUN_LIMIT_S - (time.monotonic() - started)
        result, rusage = run_child(config, env, work, limit)
        if args.workload == "matrices":
            failed, reasons = result["failed"], result["reasons"]
        else:
            failed, reasons = cli_failures(inputs, result, args.seed, args.workload)
        scale = speed.Scale(stop_probe(probe)) if probe else None
    except (RuntimeError, subprocess.CalledProcessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if probe is not None and probe.poll() is None:
            probe.kill()
            probe.wait()
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, reasons = tally(result, failed, reasons)
    for reason in reasons:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    info = dict(context(args, inputs, result, imports), cpu_pinned=cpu)
    if args.trace:
        values = layer_values(result, import_layers)
        info["trace_overhead_ratio"] = values["trace.overhead_ratio"]
        wanted = bench["per_layer"]
    else:
        values, more = end_to_end(args.workload, inputs, result, imports, scale,
                                  (attempted - failed) / attempted, rusage)
        info.update(more)
        wanted = bench["end_to_end"]
    print(json.dumps({"context": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
