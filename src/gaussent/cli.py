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

from . import protocols, separability, spectra
from .epr import degree_of_epr, epr_vs_loss
from .photons import decompose
from .protocols import contour_grid, exceeds_no_cloning_limit, teleport_fidelity
from .separability import degree_of_inseparability, inseparability_vs_loss
from .states import CorrelationMatrix4, SqueezedBeam, apply_loss, entangle_on_beamsplitter


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


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
    p_model.add_argument("--out", help="output file (default: stdout)")

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
    p_analyze.add_argument("--out", help="output file (default: stdout)")

    p_sweep = sub.add_parser(
        "sweep-loss", help="closed-form loss dependence of both entanglement measures"
    )
    p_sweep.add_argument(
        "--v", type=float, required=True, help="average squeezed variance of the pure inputs"
    )
    p_sweep.add_argument(
        "--steps", type=int, default=21, help="number of efficiency points over [0, 1]"
    )
    p_sweep.add_argument("--out", help="output file (default: stdout)")

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
        "--n-encoding", type=float, help="photon budget (required for dense_ratio)"
    )
    p_contours.add_argument(
        "--nmin-max", type=float, default=3.0, help="upper edge of the n_min axis"
    )
    p_contours.add_argument(
        "--nexcess-max", type=float, default=4.0, help="upper edge of the n_excess axis"
    )
    p_contours.add_argument(
        "--grid", type=int, default=200, help="points per axis"
    )
    p_contours.add_argument("--out", help="output file (default: stdout)")
    p_contours.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )

    p_ingest = sub.add_parser(
        "ingest", help="derive metric spectra from a measured variance table"
    )
    p_ingest.add_argument("spectra", help="input spectrum CSV file")
    p_ingest.add_argument(
        "--db", action="store_true", help="variances in the input are in dB"
    )
    p_ingest.add_argument("--out", help="output file (default: stdout)")
    p_ingest.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )

    p_fixtures = sub.add_parser("fixtures", help="print the bundled anchor matrices")
    p_fixtures.add_argument("--out", help="output file (default: stdout)")

    return parser


def _cmd_model(args) -> int:
    beam1 = SqueezedBeam.pure(args.v1)
    beam2 = SqueezedBeam.pure(args.v2)
    state = entangle_on_beamsplitter(beam1, beam2)
    if args.eta != 1.0:
        state = apply_loss(state, args.eta, args.eta)
    _emit(_json_text(state.to_json_dict()), args.out)
    return 0


def analyze_cm(
    cm: CorrelationMatrix4, measured: dict | None = None, label: str | None = None
) -> dict:
    """Full analysis record for one correlation matrix.

    When the anchor carries directly measured sum/difference variances,
    the photon budget is computed from those (they are the unrounded data
    the matrix entries were derived from) and the measured-value metrics
    are reported alongside the matrix-derived ones.
    """
    measured = dict(measured or {})
    insep = degree_of_inseparability(cm)
    epr_report = degree_of_epr(cm)
    restrictions = separability.standard_form_restrictions(cm)
    fidelity = teleport_fidelity(insep)

    result: dict = {
        "label": label,
        "inseparability": insep,
        "epr": epr_report.degree,
        "cv_plus": epr_report.cv_plus,
        "cv_minus": epr_report.cv_minus,
        "fidelity": fidelity,
        "beats_no_cloning": exceeds_no_cloning_limit(fidelity),
        "restrictions": {
            "ratio_ok": restrictions.ratio_ok,
            "balance_ok": restrictions.balance_ok,
            "product_ok": separability.product_restriction(cm),
        },
    }

    if "v_sum_plus" in measured and "v_diff_minus" in measured:
        anchor = spectra.PaperAnchor(
            label=label or "", frequency_mhz=1.0, cm=cm, measured=measured
        )
        budget = decompose(spectra.cm_at_frequency(spectra.measured_row(anchor)))
        source = "measured"
        result["inseparability_measured"] = (
            measured["v_sum_plus"] * measured["v_diff_minus"]
        ) ** 0.5
    else:
        try:
            budget = decompose(cm)
            source = "matrix"
        except ValueError:
            # Biased matrices have no interchangeable-beams decomposition;
            # still report the measures that are defined.
            budget = None
            source = "unavailable"
    result["decomposition_source"] = source
    result.update(
        {
            "n_min": budget.n_min if budget else None,
            "n_bias": budget.n_bias if budget else None,
            "n_excess": budget.n_excess if budget else None,
            "n_total": budget.n_total if budget else None,
            "g_bias_sq": budget.g_bias_sq if budget else None,
        }
    )
    if "cv_plus" in measured and "cv_minus" in measured:
        result["epr_from_measured_cv"] = measured["cv_plus"] * measured["cv_minus"]
    return result


def _cmd_analyze(args) -> int:
    source = args.cm if args.cm is not None else spectra.bundled_fixture_path()
    with open(source, "r", encoding="utf-8") as handle:
        data = json.load(handle)

    if "matrix" in data:
        if args.at is not None:
            raise ValueError("--at applies only to anchor files with labelled matrices")
        cm = CorrelationMatrix4.from_json_dict(data)
        payload = analyze_cm(cm, measured=data.get("measured"))
    else:
        anchors = spectra.load_paper_anchors(source)
        if args.at is None:
            raise ValueError(
                f"--at is required for anchor files; available: {sorted(anchors.anchors)}"
            )
        anchor = anchors[args.at]
        payload = analyze_cm(anchor.cm, measured=anchor.measured, label=anchor.label)
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_sweep_loss(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    lines = ["eta,inseparability,epr"]
    for index in range(args.steps):
        eta = index / (args.steps - 1)
        insep = inseparability_vs_loss(args.v, eta)
        lines.append(f"{eta!r},{insep!r},{epr_vs_loss(args.v, eta)!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_contours(args) -> int:
    params = {}
    if args.metric == "dense_ratio":
        if args.n_encoding is None:
            raise ValueError("--n-encoding is required for the dense_ratio metric")
        params["n_encoding"] = args.n_encoding
    grid = contour_grid(
        args.metric,
        nmin_range=(0.0, args.nmin_max),
        nexcess_range=(0.0, args.nexcess_max),
        resolution=args.grid,
        params=params,
    )
    if args.format == "csv":
        _emit(grid.to_csv_text(), args.out)
    else:
        _emit(_json_text(grid.to_json_dict()), args.out)
    return 0


def _cmd_ingest(args) -> int:
    with open(args.spectra, "r", encoding="utf-8") as handle:
        text = handle.read()
    rows = spectra.parse_spectra(text, units="dB" if args.db else "linear")
    derived = spectra.derive_spectra(rows)
    if args.format == "csv":
        _emit(spectra.derived_to_csv_text(derived), args.out)
    else:
        _emit(spectra.derived_to_json_text(derived), args.out)
    return 0


def _cmd_fixtures(args) -> int:
    with open(spectra.bundled_fixture_path(), "r", encoding="utf-8") as handle:
        _emit(handle.read(), args.out)
    return 0


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
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"gaussent: error: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gaussent: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
