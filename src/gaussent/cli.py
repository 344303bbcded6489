"""Command-line front end.

Subcommands map onto the library workflows: ``model`` builds an entangled
state from two squeezed inputs, ``analyze`` evaluates the entanglement
measures and photon budget of a stored correlation matrix, ``sweep-loss``
tabulates the closed-form loss dependence of both measures, ``contours``
emits efficacy grids over the photon-number diagram, ``ingest`` derives
metric spectra from measured variance tables, and ``fixtures`` prints the
bundled anchor matrices.

Exit codes: 0 on success, 1 on a validation/usage error, 2 on I/O error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Iterable
from itertools import chain, islice

from . import protocols, spectra
from .epr import epr_vs_loss
from .separability import inseparability_vs_loss
from .spectra import analyze_cm
from .states import SqueezedBeam, apply_loss, entangle_on_beamsplitter


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, one string or an iterable of chunks, to ``out`` or stdout."""
    # A bare str handed to writelines would be written one character at a time.
    chunks = [text] if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gaussent",
        description=(
            "Model and analyze two-mode Gaussian quadrature entanglement: "
            "build states, evaluate the entanglement measures and photon "
            "budget, sweep loss, emit protocol-efficacy grids, and ingest "
            "measured variance spectra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_model = sub.add_parser(
        "model", help="entangle two pure squeezed beams, optionally through loss"
    )
    p_model.add_argument(
        "--v1", type=float, required=True, help="squeezed variance of input beam 1"
    )
    p_model.add_argument(
        "--v2", type=float, required=True, help="squeezed variance of input beam 2"
    )
    p_model.add_argument(
        "--eta", type=float, default=1.0, help="detection efficiency applied to both beams"
    )

    p_analyze = sub.add_parser(
        "analyze", help="entanglement measures and photon budget of a stored matrix"
    )
    p_analyze.add_argument(
        "--cm",
        help="correlation-matrix JSON file, or an anchor file "
        "(default: the bundled anchors, honoring GAUSSENT_FIXTURES)",
    )
    p_analyze.add_argument(
        "--at", help="anchor label to analyze when --cm names an anchor file (e.g. 6.5MHz)"
    )

    p_sweep = sub.add_parser(
        "sweep-loss", help="closed-form loss dependence of both entanglement measures"
    )
    p_sweep.add_argument(
        "--v", type=float, required=True, help="average squeezed variance of the pure inputs"
    )
    p_sweep.add_argument(
        "--steps", type=int, default=21, help="number of efficiency points over [0, 1]"
    )

    p_contours = sub.add_parser(
        "contours", help="efficacy grid over the (n_min, n_excess) plane"
    )
    p_contours.add_argument(
        "--metric",
        required=True,
        choices=protocols.GRID_METRICS,
        help="which efficacy metric to tabulate",
    )
    p_contours.add_argument(
        "--n-encoding", type=float, help="photon budget (dense_ratio only, and required there)"
    )
    p_contours.add_argument(
        "--nmin-max", type=float, default=3.0, help="upper edge of the n_min axis"
    )
    p_contours.add_argument(
        "--nexcess-max", type=float, default=4.0, help="upper edge of the n_excess axis"
    )
    p_contours.add_argument(
        "--grid", type=int, default=200, help=f"points per axis, 2 to {protocols.MAX_RESOLUTION}"
    )

    p_ingest = sub.add_parser(
        "ingest", help="derive metric spectra from a measured variance table"
    )
    p_ingest.add_argument("spectra", help="input spectrum CSV file")
    p_ingest.add_argument(
        "--db", action="store_true", help="variances in the input are in dB"
    )

    sub.add_parser("fixtures", help="print the bundled anchor matrices")

    # Added last, so each subcommand's help lists them after its own options.
    for name, p in sub.choices.items():
        p.add_argument("--out", help="output file (default: stdout)")
        if name in ("contours", "ingest"):
            p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    return parser


def _cmd_model(args) -> str:
    beams = SqueezedBeam.pure(args.v1), SqueezedBeam.pure(args.v2)
    state = apply_loss(entangle_on_beamsplitter(*beams), args.eta, args.eta)
    return _json_text(state.to_json_dict())


def _cmd_analyze(args) -> str:
    return _json_text(analyze_cm(*spectra.load_matrix(args.cm, args.at)))


def _cmd_sweep_loss(args) -> Iterable[str]:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    # Both closed forms share one gate on --v; one call here raises before the first byte.
    inseparability_vs_loss(args.v, 0.0)
    etas = (index / (args.steps - 1) for index in range(args.steps))
    lines = (
        f"{eta!r},{inseparability_vs_loss(args.v, eta)!r},{epr_vs_loss(args.v, eta)!r}\n"
        for eta in etas
    )
    # 4096 lines to a chunk: a chunk per line writes up to a quarter slower.
    chunks = iter(lambda: "".join(islice(lines, 4096)), "")
    return chain(["eta,inseparability,epr\n"], chunks)


def _cmd_contours(args) -> Iterable[str]:
    params = {}
    if args.metric == "dense_ratio":
        if args.n_encoding is None:
            raise ValueError("--n-encoding is required for the dense_ratio metric")
        params["n_encoding"] = args.n_encoding
    elif args.n_encoding is not None:
        raise ValueError("--n-encoding applies only to the dense_ratio metric")
    grid = protocols.contour_grid(
        args.metric,
        nmin_range=(0.0, args.nmin_max),
        nexcess_range=(0.0, args.nexcess_max),
        resolution=args.grid,
        params=params,
    )
    return grid.csv_chunks() if args.format == "csv" else grid.json_chunks()


def _cmd_ingest(args) -> Iterable[str]:
    return spectra.ingest_file(args.spectra, "dB" if args.db else "linear", args.format == "json")


def _cmd_fixtures(args) -> str:
    return spectra.read_text(spectra.bundled_fixture_path())


_COMMANDS = {
    "model": _cmd_model,
    "analyze": _cmd_analyze,
    "sweep-loss": _cmd_sweep_loss,
    "contours": _cmd_contours,
    "ingest": _cmd_ingest,
    "fixtures": _cmd_fixtures,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # A command checks its input before it returns, so a refused one leaves --out unopened.
        _emit(_COMMANDS[args.command](args), args.out)
        return 0
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"gaussent: error: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gaussent: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
