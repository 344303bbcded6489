import ast
import codecs
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MEASURED_65, run_measuring_peak_rss
from oracles import analyze_cm_reference
from gaussent import cli, spectra
from gaussent.cli import analyze_cm, build_parser, main
from gaussent.spectra import SPECTRUM_COLUMNS, bundled_fixture_path, synthesize_spectra
from gaussent.states import CorrelationMatrix4, SqueezedBeam, apply_loss, entangle_on_beamsplitter

SRC = Path(__file__).resolve().parents[1] / "src"

DOCUMENTED_FLAGS = (
    "--cm",
    "--at",
    "--v",
    "--v1",
    "--v2",
    "--eta",
    "--steps",
    "--metric",
    "--n-encoding",
    "--nmin-max",
    "--nexcess-max",
    "--grid",
    "--db",
    "--out",
    "--format",
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_anchor_65mhz(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--cm", bundled_fixture_path(), "--at", "6.5MHz"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["inseparability"] == pytest.approx(0.40, abs=1e-3)
        assert payload["epr"] == pytest.approx(0.565, abs=1e-3)
        assert payload["n_min"] == pytest.approx(0.356, abs=1e-3)
        assert payload["decomposition_source"] == "measured"
        assert payload["inseparability_measured"] == pytest.approx(0.44, abs=1e-12)
        assert payload["epr_from_measured_cv"] == pytest.approx(0.5852, abs=1e-4)
        assert payload["restrictions"] == {
            "ratio_ok": True,
            "balance_ok": True,
            "product_ok": True,
        }

    def test_anchor_35mhz(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--cm", bundled_fixture_path(), "--at", "3.5MHz"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["inseparability"] == pytest.approx(0.60, abs=1e-3)
        assert payload["decomposition_source"] == "matrix"
        assert payload["n_bias"] == pytest.approx(0.094, abs=1e-3)
        assert payload["restrictions"]["balance_ok"] is False
        assert payload["restrictions"]["product_ok"] is True

    def test_bare_matrix_file(self, capsys, tmp_path, cm_65mhz):
        path = tmp_path / "cm.json"
        path.write_text(json.dumps(cm_65mhz.to_json_dict()))
        code, out, _ = run_cli(capsys, "analyze", "--cm", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["decomposition_source"] == "matrix"
        assert payload["n_min"] == pytest.approx(0.45, abs=1e-3)

    def test_missing_at_lists_labels(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--cm", bundled_fixture_path())
        assert code == 1
        assert "3.5MHz" in err and "6.5MHz" in err

    def test_unknown_label(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--cm", bundled_fixture_path(), "--at", "9.9MHz"
        )
        assert code == 1
        assert "available" in err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", "--cm", str(tmp_path / "nope.json"))
        assert code == 2

    def test_biased_matrix_reports_measures_without_decomposition(
        self, capsys, tmp_path, monkeypatch
    ):
        biased = {
            "order": ["xp", "xm", "yp", "ym"],
            "matrix": [
                [2.0, 0.0, -0.8, 0.0],
                [0.0, 3.0, 0.0, 1.2],
                [-0.8, 0.0, 5.0, 0.0],
                [0.0, 1.2, 0.0, 9.0],
            ],
        }
        path = tmp_path / "biased.json"
        path.write_text(json.dumps(biased))
        decomposed = []
        monkeypatch.setattr(spectra, "_decomposition", lambda *args: decomposed.append(args))
        code, out, _ = run_cli(capsys, "analyze", "--cm", str(path))
        assert code == 0
        assert decomposed == []  # the form is tested once: no budget is computed
        payload = json.loads(out)
        assert payload["decomposition_source"] == "unavailable"
        assert payload["n_min"] is None
        assert payload["inseparability"] > 0.0

    def test_wrong_json_shapes_exit_1_naming_the_key(self, capsys, tmp_path, cm_65mhz):
        with open(bundled_fixture_path(), encoding="utf-8") as handle:
            anchors = json.load(handle)
        bare = cm_65mhz.to_json_dict()
        string_cell = json.loads(json.dumps(bare))
        string_cell["matrix"][0][0] = "3.3"
        bool_cell = json.loads(json.dumps(bare))
        bool_cell["matrix"][2][1] = True
        at_65 = ("--at", "6.5MHz")
        cases = (
            ([1, 2], (), "does not hold a JSON object"),
            ({**bare, "measured": {"v_sum_plus": "0.44", "v_diff_minus": 0.44}}, (),
             "'v_sum_plus'"),
            ({**bare, "measured": {"cv_plus": 0.77, "cv_minus": [0.76]}}, (), "'cv_minus'"),
            ({**anchors, "statistical_error": "abc"}, at_65, "'statistical_error'"),
            ({**anchors, "statistical_error": math.nan}, at_65, "'statistical_error'"),
            ({**anchors, "statistical_error": math.inf}, at_65, "'statistical_error'"),
            ({**anchors, "statistical_error": -math.inf}, at_65, "'statistical_error'"),
            ({**anchors, "statistical_error": -0.05}, at_65, "'statistical_error'"),
            ({**anchors, "statistical_error": 0.0}, at_65, "'statistical_error'"),
            ({**bare, "measured": 5}, (), "'measured'"),
            ({**bare, "measured": [1, 2]}, (), "'measured'"),
            ({**anchors, "6.5MHz": {**anchors["6.5MHz"], "measured": [1, 2]}}, at_65,
             "'measured'"),
            (string_cell, (), "matrix cell [0][0]"),
            (bool_cell, (), "matrix cell [2][1]"),
            ({**bare, "matrix": 5}, (), "4x4"),
            ({**bare, "measured": {"v_sum_plus": -0.44, "v_diff_minus": 0.44}}, (),
             "'v_sum_plus'"),
            ({**bare, "measured": {"cv_plus": -1.0, "cv_minus": 2.0}}, (), "'cv_plus'"),
            ({**bare, "measured": {"cv_plus": 0.5, "cv_minus": math.nan}}, (), "'cv_minus'"),
            # A measured block takes four keys, in pairs given whole.
            ({**bare, "measured": {"v_sum_plus": 0.44, "cv_plus": 0.77, "v_dif_minus": 0.44}},
             (), "unknown key 'v_dif_minus' in 'measured'"),
            ({**bare, "measured": {"v_sum_plus": 0.44}}, (),
             "'measured' has 'v_sum_plus' without 'v_diff_minus'"),
            ({**bare, "measured": {"cv_minus": 0.76}}, (),
             "'measured' has 'cv_minus' without 'cv_plus'"),
            ({**bare, "measured": {"v_sum_plus": 0.44, "v_diff_minus": 0.44, "cv_plus": 0.77}},
             (), "'measured' has 'cv_plus' without 'cv_minus'"),
            ({**anchors, "3.5MHz": {**anchors["3.5MHz"], "measured": {"eta": 0.9}}}, at_65,
             "anchor '3.5MHz': unknown key 'eta' in 'measured'"),
            ({"matrix": bare["matrix"]}, (),
             "correlation-matrix JSON needs 'order' and 'matrix' keys: 'order'"),
            ({"cm": {"order": bare["order"]}}, (),
             "correlation-matrix JSON needs 'order' and 'matrix' keys: 'matrix'"),
            ({key: anchors[key] for key in ("3.5MHz", "6.5MHz")}, at_65,
             "lacks the 'statistical_error' field"),
        )
        path = tmp_path / "input.json"
        for data, extra, named in cases:
            path.write_text(json.dumps(data))
            code, out, err = run_cli(capsys, "analyze", "--cm", str(path), *extra)
            assert code == 1, data
            assert out == ""
            assert err.startswith("gaussent: error:") and named in err, err

    @pytest.mark.parametrize("cv_plus, cv_minus, text", [
        (10**300, 10**300, "Infinity"),
        (1e200, 1e200, "Infinity"),
        (10**200, 1, "1e+200"),  # an integer pair gives a float
    ])
    def test_measured_conditional_variances_give_a_float_product(
        self, capsys, tmp_path, cm_65mhz, cv_plus, cv_minus, text
    ):
        # The product past the float range is written as inf, as epr is.
        data = {**cm_65mhz.to_json_dict(), "measured": {"cv_plus": cv_plus, "cv_minus": cv_minus}}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", "--cm", str(path))
        assert (code, err) == (0, "")
        assert f'\n  "epr_from_measured_cv": {text}\n' in out

    def test_measured_variances_cancelled_in_the_rebuilt_matrix_exit_1(self, capsys, tmp_path):
        # The mode variances average to 1e308 in the interchangeable-beams
        # matrix rebuilt from the measured sum/difference variances, whose
        # C+ = 0.5 - 1e308 rounds to -1e308: its sum variance V+ - |C+| is 0.
        data = CorrelationMatrix4(np.diag([1e308, 1.0, 1e308, 1.0])).to_json_dict()
        data["measured"] = {"v_sum_plus": 0.5, "v_diff_minus": 0.5}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", "--cm", str(path))
        assert (code, out) == (1, "")
        assert err == "gaussent: error: non-positive sum/difference variance (0, 0.5)\n"

    @pytest.mark.parametrize("measured", [None, {"v_sum_plus": 1e200, "v_diff_minus": 1e200}])
    def test_a_hot_thermal_state_keeps_its_finite_measures(self, capsys, tmp_path, measured):
        # V+ V- = 1e400 overflows, but I = sqrt(V+ V-) = 1e200 does not, nor
        # do the correlation margins; E = cv+ cv- = 1e400 truly overflows.
        data = CorrelationMatrix4(np.diag([1e200] * 4)).to_json_dict()
        if measured:
            data["measured"] = measured
        path = tmp_path / "hot.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", "--cm", str(path))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["inseparability"] == 1e200
        assert payload["fidelity"] == 1e-200
        assert payload["restrictions"] == {"ratio_ok": True, "balance_ok": True, "product_ok": True}
        assert (payload["n_min"], payload["n_bias"], payload["n_excess"]) == (0.0, 0.0, 1e200)
        assert payload["epr"] == math.inf
        if measured:
            assert payload["inseparability_measured"] == 1e200

    def test_a_hot_biased_state_keeps_a_finite_degree(self, capsys, tmp_path):
        # Excess ratio 4 in both quadratures; the inference variances' product
        # D+ D- (about 1.2e401) overflows, the degree (about 1.39e200) does not.
        rows = [[1e200, 0.0, -1e200, 0.0], [0.0, 2e200, 0.0, 1e200],
                [-1e200, 0.0, 4e200, 0.0], [0.0, 1e200, 0.0, 8e200]]
        path = tmp_path / "hot.json"
        path.write_text(json.dumps(CorrelationMatrix4(rows).to_json_dict()))
        code, out, err = run_cli(capsys, "analyze", "--cm", str(path))
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["inseparability"] == pytest.approx(math.sqrt(12.0) / 2.5 * 1e200, rel=1e-14)
        assert payload["decomposition_source"] == "unavailable"

    @pytest.mark.parametrize("where", ["matrix cell [0][0]", "'v_sum_plus'", "'statistical_error'"])
    def test_integer_too_large_for_a_float_exits_1_naming_it(self, capsys, tmp_path, where):
        with open(bundled_fixture_path(), encoding="utf-8") as handle:
            anchors = json.load(handle)
        huge = 10**400
        extra = ()
        if where == "'statistical_error'":
            data = {**anchors, "statistical_error": huge}
            extra = ("--at", "6.5MHz")
        else:
            data = json.loads(json.dumps(anchors["6.5MHz"]))
            if where == "'v_sum_plus'":
                data["measured"]["v_sum_plus"] = huge
            else:
                data["matrix"][0][0] = huge
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "analyze", "--cm", str(path), *extra)
        assert code == 1
        assert out == ""
        assert err == f"gaussent: error: {where} is an integer of 401 digits, too large for a float\n"

    def test_malformed_json_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "cm.json"
        path.write_text('{"a": ')
        code, out, err = run_cli(capsys, "analyze", "--cm", str(path))
        assert (code, out) == (1, "")
        assert err == f"gaussent: error: {path}: Expecting value: line 1 column 7 (char 6)\n"

    def test_defaults_to_bundled_anchors(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--at", "6.5MHz")
        assert code == 0
        assert json.loads(out)["label"] == "6.5MHz"

    def test_anchor_file_is_parsed_once(self, capsys, monkeypatch):
        calls = []
        real_loads = json.loads

        def counting_loads(*args, **kwargs):
            calls.append(args)
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        code, _, _ = run_cli(capsys, "analyze", "--cm", bundled_fixture_path(), "--at", "6.5MHz")
        assert code == 0
        assert len(calls) == 1

    def test_env_var_overrides_default(self, capsys, tmp_path, monkeypatch, cm_65mhz):
        custom = {
            "statistical_error": 0.2,
            "2.0MHz": cm_65mhz.to_json_dict(),
        }
        path = tmp_path / "anchors.json"
        path.write_text(json.dumps(custom))
        monkeypatch.setenv("GAUSSENT_FIXTURES", str(path))
        code, out, _ = run_cli(capsys, "analyze", "--at", "2.0MHz")
        assert code == 0
        assert json.loads(out)["label"] == "2.0MHz"
        code, out, _ = run_cli(capsys, "fixtures")
        assert code == 0
        assert json.loads(out)["statistical_error"] == 0.2


_DIAGONAL = st.one_of(st.just(1.0), st.floats(0.05, 1.0), st.floats(1.0, 10.0))
_CROSS = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@st.composite
def _analyzed_matrices(draw):
    """Lossy states of two pure squeezed beams, equal loss giving interchangeable
    beams; and matrices with interchangeable or nearly interchangeable beams
    (some with a non-positive sum or difference variance), biased ones whose
    quadratures share a bias weight, and free ones (mostly an inconsistent k),
    with diagonals at, below and above shot noise and cross-quadrature terms
    within and beyond the form tolerance, built from float lists or arrays."""
    kind = draw(st.sampled_from(["state", "interchangeable", "common_weight", "free"]))
    if kind == "state":
        eta_x = draw(st.floats(0.05, 1.0))
        eta_y = draw(st.one_of(st.just(eta_x), st.floats(0.05, 1.0)))
        beams = (SqueezedBeam.pure(draw(st.floats(0.05, 0.95))) for _ in range(2))
        return apply_loss(entangle_on_beamsplitter(*beams), eta_x, eta_y).cm
    if kind == "common_weight":
        cxx_p, cxx_m = draw(st.floats(1.01, 10.0)), draw(st.floats(1.01, 10.0))
        ratio = draw(st.one_of(st.just(1.0), st.floats(0.1, 10.0)))
        cyy_p, cyy_m = 1.0 + ratio * (cxx_p - 1.0), 1.0 + ratio * (cxx_m - 1.0)
    elif kind == "interchangeable":
        cxx_p, cxx_m = draw(_DIAGONAL), draw(_DIAGONAL)
        offsets = st.sampled_from([0.0, 0.0, 0.0, 1e-10, -2e-9, 1e-6])
        cyy_p, cyy_m = cxx_p + draw(offsets), cxx_m + draw(offsets)
    else:
        diagonal = st.one_of(st.floats(1.01, 10.0), _DIAGONAL)
        cxx_p, cxx_m, cyy_p, cyy_m = (draw(diagonal) for _ in range(4))
    cxy_p, cxy_m = draw(_CROSS), draw(_CROSS)
    coupling = draw(st.sampled_from([0.0, 0.0, 0.0, 5e-10, 1e-3]))
    rows = [
        [cxx_p, coupling, cxy_p, 0.0],
        [coupling, cxx_m, 0.0, cxy_m],
        [cxy_p, 0.0, cyy_p, 0.0],
        [0.0, cxy_m, 0.0, cyy_m],
    ]
    return CorrelationMatrix4(np.array(rows) if draw(st.booleans()) else rows)


@st.composite
def _measured_values(draw):
    """None, or measured values: the 6.5 MHz ones, or either pair alone,
    with some values that fail their checks or rebuild a matrix the
    decomposition refuses, and integer conditional variances."""
    if draw(st.integers(0, 3)) == 0:
        return None
    if draw(st.booleans()):
        return MEASURED_65
    measured = {}
    if draw(st.booleans()):
        variance = st.one_of(st.just(0.44), st.floats(0.01, 6.0), st.sampled_from([0.0, math.inf]))
        measured["v_sum_plus"], measured["v_diff_minus"] = draw(variance), draw(variance)
    if draw(st.booleans()):
        cv = st.one_of(st.floats(0.01, 2.0), st.integers(1, 3), st.sampled_from([-1.0, math.nan]))
        measured["cv_plus"], measured["cv_minus"] = draw(cv), draw(cv)
    return measured


def _record_or_error(analyze, cm, measured, label):
    try:
        return "value", repr(analyze(cm, measured, label))
    except ValueError as exc:
        return "error", str(exc)


class TestAnalyzeMatchesReference:
    """analyze_cm against tests/oracles.py's form of it on the public measures:
    the same record repr (values, keys and key order) or the same error."""

    @settings(max_examples=1500, deadline=None)
    @given(_analyzed_matrices(), _measured_values(), st.sampled_from([None, "6.5MHz"]))
    # V+ V- underflows to a zero degree, which teleport_fidelity refuses
    # before the measured values would give a decomposition.
    @example(CorrelationMatrix4.symmetric_form(1e-200, 1e-200, 0.0, 0.0), MEASURED_65, None)
    # A non-positive V+ is refused before the measured values are read.
    @example(CorrelationMatrix4.symmetric_form(1.0, 1.0, -1.5, 0.0), MEASURED_65, None)
    def test_matches_reference(self, cm, measured, label):
        assert _record_or_error(analyze_cm, cm, measured, label) == _record_or_error(
            analyze_cm_reference, cm, measured, label
        )


class TestModel:
    def test_pure_inputs(self, capsys):
        code, out, _ = run_cli(capsys, "model", "--v1", "0.5", "--v2", "0.5")
        assert code == 0
        matrix = np.array(json.loads(out)["matrix"])
        assert matrix[0, 0] == pytest.approx(1.25)
        assert matrix[0, 2] == pytest.approx(-0.75)

    def test_with_loss(self, capsys):
        code, out, _ = run_cli(capsys, "model", "--v1", "0.5", "--v2", "0.5", "--eta", "0.5")
        assert code == 0
        matrix = np.array(json.loads(out)["matrix"])
        assert matrix[0, 0] == pytest.approx(1.125)
        assert matrix[0, 2] == pytest.approx(-0.375)

    def test_unphysical_input_rejected(self, capsys):
        for v1 in ("-0.5", "0"):
            code, _, err = run_cli(capsys, "model", "--v1", v1, "--v2", "0.5")
            assert code == 1
            assert err.startswith("gaussent: error:")

    def test_out_of_range_eta_is_refused_by_its_flag(self, capsys):
        for eta in ("1.5", "-0.1", "nan"):
            code, out, err = run_cli(capsys, "model", "--v1", "0.5", "--v2", "0.5", "--eta", eta)
            assert (code, out) == (1, "")
            assert err == f"gaussent: error: --eta must lie in [0, 1], got {float(eta)}\n"
        # The beams are built first, so a bad --v1 is still the one reported.
        code, _, err = run_cli(capsys, "model", "--v1", "0", "--v2", "0.5", "--eta", "1.5")
        assert code == 1
        assert err == "gaussent: error: --v1: squeezed variance must be positive, got 0.0\n"

    @pytest.mark.parametrize(
        "value, message",
        [
            ("0", "squeezed variance must be positive, got 0.0"),
            ("nan", "squeezed variance must be positive, got nan"),
            ("inf", "v_plus must be positive and finite, got inf"),
            # 1/v overflows, so the phase variance is the one refused.
            ("1e-320", "v_minus must be positive and finite, got inf"),
        ],
    )
    @pytest.mark.parametrize("flag", ["--v1", "--v2"])
    def test_bad_variance_is_refused_by_its_flag(self, capsys, flag, value, message):
        values = {"--v1": "0.5", "--v2": "0.5", flag: value}
        code, out, err = run_cli(capsys, "model", *(cell for item in values.items() for cell in item))
        assert (code, out) == (1, "")
        assert err == f"gaussent: error: {flag}: {message}\n"

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "state.json"
        code, out, _ = run_cli(
            capsys, "model", "--v1", "0.5", "--v2", "0.5", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["order"] == ["xp", "xm", "yp", "ym"]

    def test_model_output_feeds_analyze(self, capsys, tmp_path):
        cm_path = tmp_path / "cm.json"
        run_cli(
            capsys, "model", "--v1", "0.5", "--v2", "0.5", "--eta", "0.8",
            "--out", str(cm_path),
        )
        code, out, _ = run_cli(capsys, "analyze", "--cm", str(cm_path))
        assert code == 0
        payload = json.loads(out)
        # Closed forms for equal pure inputs through equal loss.
        assert payload["inseparability"] == pytest.approx(0.8 * 0.5 + 0.2, abs=1e-12)
        assert payload["epr"] == pytest.approx(
            4.0 * (0.2 + 0.6 / (0.8 * 0.5 + 2.0)) ** 2, abs=1e-12
        )

    def test_analyze_reads_the_state_file_model_writes(self, capsys, tmp_path):
        state_path = tmp_path / "state.json"
        argv = ("model", "--v1", "0.5", "--v2", "0.3", "--eta", "0.86", "--out", str(state_path))
        assert run_cli(capsys, *argv)[0] == 0
        beams = SqueezedBeam.pure(0.5), SqueezedBeam.pure(0.3)
        state = apply_loss(entangle_on_beamsplitter(*beams), 0.86, 0.86)
        assert state_path.read_text() == json.dumps(state.cm.to_json_dict(), indent=2) + "\n"
        code, out, err = run_cli(capsys, "analyze", "--cm", str(state_path))
        assert (code, err) == (0, "")
        assert out == json.dumps(analyze_cm(state.cm), indent=2) + "\n"
        code, out, err = run_cli(capsys, "analyze", "--cm", str(state_path), "--at", "6.5MHz")
        assert (code, out) == (1, "")
        assert err == "gaussent: error: --at applies only to anchor files with labelled matrices\n"

    def test_a_state_file_of_the_earlier_format_still_analyzes(self, capsys, tmp_path):
        # Before model wrote the bare matrix, it wrapped it beside the beams'
        # coherent amplitudes; analyze reads the matrix and ignores the rest.
        bare_path, state_path = tmp_path / "cm.json", tmp_path / "state.json"
        argv = ("model", "--v1", "0.5", "--v2", "0.3", "--eta", "0.86", "--out", str(bare_path))
        assert run_cli(capsys, *argv)[0] == 0
        bare = json.loads(bare_path.read_text())
        state_path.write_text(
            json.dumps({"alpha_x": [0.0, 0.0], "alpha_y": [0.0, 0.0], "cm": bare}, indent=2)
        )
        expected = run_cli(capsys, "analyze", "--cm", str(bare_path))
        assert expected[0] == 0
        assert run_cli(capsys, "analyze", "--cm", str(state_path)) == expected


class TestSweepLoss:
    def test_five_steps(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-loss", "--v", "0.5", "--steps", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eta,inseparability,epr"
        assert len(lines) == 6
        rows = {float(line.split(",")[0]): line for line in lines[1:]}
        eta, insep, epr = (float(cell) for cell in rows[0.5].split(","))
        assert insep == pytest.approx(0.75, abs=1e-12)
        assert epr == pytest.approx(1.0, abs=1e-12)

    def test_endpoints(self, capsys):
        _, out, _ = run_cli(capsys, "sweep-loss", "--v", "0.3", "--steps", "3")
        lines = out.strip().split("\n")[1:]
        first = [float(cell) for cell in lines[0].split(",")]
        last = [float(cell) for cell in lines[-1].split(",")]
        assert first == [0.0, 1.0, 1.0]
        assert last[0] == 1.0
        assert last[1] == pytest.approx(0.3)

    def test_subnormal_variance_reads_unity_at_no_transmission(self, capsys):
        # 1/v overflows below v of about 5.6e-309; E at eta = 0 is still exactly 1.
        code, out, err = run_cli(capsys, "sweep-loss", "--v", "1e-320", "--steps", "3")
        assert (code, err) == (0, "")
        assert out.split("\n")[1] == "0.0,1.0,1.0"

    def test_rejects_single_step(self, capsys):
        code, _, err = run_cli(capsys, "sweep-loss", "--v", "0.5", "--steps", "1")
        assert code == 1

    def test_rejects_non_finite_variance(self, capsys):
        for value in ("inf", "nan"):
            code, out, err = run_cli(capsys, "sweep-loss", "--v", value, "--steps", "3")
            assert code == 1
            assert out == ""
            assert err.startswith("gaussent: error:")

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf"])
    def test_bad_variance_is_refused_by_its_flag(self, capsys, value):
        code, out, err = run_cli(capsys, "sweep-loss", "--v", value, "--steps", "3")
        assert (code, out) == (1, "")
        assert err == (
            "gaussent: error: --v: average squeezed variance must be positive and finite, "
            f"got {float(value)}\n"
        )

    def test_half_a_million_steps_are_written_in_bounded_memory(self, tmp_path):
        """Built as one string, 5e5 rows (28 MB of CSV) peak near 140 MB;
        streamed in blocks of rows, the process stays near 30 MB."""
        out = tmp_path / "sweep.csv"
        argv = [sys.executable, "-m", "gaussent.cli", "sweep-loss",
                "--v", "0.5", "--steps", "500000", "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code, max_rss_kib = run_measuring_peak_rss(argv, env)
        assert code == 0
        assert max_rss_kib / 1024 < 80  # ru_maxrss is in KiB on Linux
        with open(out, "rb") as handle:
            assert sum(1 for _ in handle) == 1 + 500000


class TestContours:
    def test_fidelity_varies_only_with_nmin(self, capsys):
        code, out, _ = run_cli(
            capsys, "contours", "--metric", "fidelity", "--grid", "5",
            "--nmin-max", "2.0", "--nexcess-max", "2.0",
        )
        assert code == 0
        by_nmin = {}
        for line in out.strip().split("\n")[1:]:
            n_min, _, value = line.split(",")
            by_nmin.setdefault(n_min, set()).add(value)
        assert all(len(values) == 1 for values in by_nmin.values())

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # mpmath's values at each cell, row by row.
            (["--metric", "dense_ratio", "--n-encoding", "1e308", "--nmin-max", "1e300"],
             [0.999023584203828, 0.999023584203828, 1.973074919672009, 1.973074919672009]),
            (["--metric", "dense_ratio", "--n-encoding", "1.7e308", "--nmin-max", "1e308",
              "--nexcess-max", "1e308"],
             [0.9990243135101786, 0.9985340307167936, 1.9977871088072783, 1.9970284075983935]),
            (["--metric", "epr", "--nexcess-max", "1e308"],
             [1.0, 4.0, 0.0625, 0.06453292136265967]),
        ],
        ids=["dense_ratio", "dense_ratio_past_the_sum_overflow", "epr"],
    )
    def test_grids_near_the_float_limit_stay_finite(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "contours", *argv, "--grid", "2")
        assert (code, err) == (0, "")
        values = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert values == pytest.approx(expected, rel=1e-14, abs=0)

    def test_a_budget_too_small_for_a_ratio_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "contours", "--metric", "dense_ratio", "--n-encoding", "1e-300", "--grid", "2"
        )
        assert (code, out) == (1, "")
        assert err == (
            "gaussent: error: capacity ratio undefined at photon budget 1e-300: "
            "log2(1 + 2n) rounds to 0 for budgets up to 2^-54\n"
        )

    def test_rejects_non_finite_range(self, capsys):
        for value in ("inf", "nan"):
            code, out, err = run_cli(
                capsys, "contours", "--metric", "fidelity", "--nmin-max", value, "--grid", "3"
            )
            assert code == 1
            assert out == ""
            assert err.startswith("gaussent: error:") and "nmin_range" in err

    def test_rejects_grid_above_limit_before_allocating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid axis was allocated")

        monkeypatch.setattr("numpy.linspace", refuse)
        code, out, err = run_cli(capsys, "contours", "--metric", "epr", "--grid", "4097")
        assert code == 1
        assert out == ""
        assert err.startswith("gaussent: error:") and "4096" in err

    @pytest.mark.parametrize("axis", ["nmin", "nexcess"])
    def test_repeated_axis_value_is_named(self, capsys, monkeypatch, axis):
        def evaluated(*args):
            raise AssertionError("a refused grid evaluated its metric")

        monkeypatch.setattr("gaussent.protocols.epr_from_photons", evaluated)
        code, out, err = run_cli(
            capsys, "contours", "--metric", "epr", "--grid", "4096", f"--{axis}-max", "1e-320"
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"gaussent: error: {axis}_axis must be strictly increasing, got ")
        code, out, err = run_cli(
            capsys, "contours", "--metric", "epr", "--grid", "4", f"--{axis}-max", "1e-323"
        )
        assert (code, out) == (1, "")
        assert err == (
            f"gaussent: error: {axis}_axis must be strictly increasing, "
            "got 1e-323 then 1e-323\n"
        )

    def test_dense_ratio_requires_budget(self, capsys):
        code, _, err = run_cli(capsys, "contours", "--metric", "dense_ratio")
        assert code == 1
        assert "n-encoding" in err

    @pytest.mark.parametrize("metric", ["epr", "fidelity"])
    def test_budget_refused_for_other_metrics(self, capsys, metric):
        code, out, err = run_cli(
            capsys, "contours", "--metric", metric, "--n-encoding", "2", "--grid", "3"
        )
        assert code == 1
        assert out == ""
        assert "--n-encoding applies only to the dense_ratio metric" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "contours", "--metric", "epr", "--grid", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metric"] == "epr"
        assert len(payload["values"]) == 3

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys, "contours", "--metric", "epr", "--grid", "3", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("n_min,n_excess,value")


class TestIngest:
    CSV = (
        "frequency_mhz,vx_plus,vx_minus,vy_plus,vy_minus,v_sum_plus,v_diff_minus\n"
        "6.5,3.3,3.3,3.3,3.3,0.44,0.44\n"
    )

    def test_round_trip(self, capsys, tmp_path):
        source = tmp_path / "spectra.csv"
        source.write_text(self.CSV)
        code, out, _ = run_cli(capsys, "ingest", str(source))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("frequency_mhz,inseparability,epr,")
        values = dict(zip(lines[0].split(","), (float(c) for c in lines[1].split(","))))
        assert values["inseparability"] == pytest.approx(0.44, abs=1e-12)
        assert values["n_min"] == pytest.approx(0.356, abs=1e-3)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_hot_thermal_row_keeps_its_finite_measures(self, capsys, tmp_path, fmt):
        # As the analyze case: only E = 1e400 lies past the float range.
        source = tmp_path / "hot.csv"
        source.write_text(",".join(SPECTRUM_COLUMNS) + "\n1" + ",1e200" * 6 + "\n")
        code, out, err = run_cli(capsys, "ingest", str(source), "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "csv":
            header, line = out.strip().split("\n")
            row = dict(zip(header.split(","), map(float, line.split(","))))
        else:
            (row,) = json.loads(out)
        assert row["inseparability"] == 1e200
        assert (row["n_min"], row["n_bias"], row["n_excess"]) == (0.0, 0.0, 1e200)
        assert row["epr"] == math.inf

    def test_db_flag(self, capsys, tmp_path):
        source = tmp_path / "spectra_db.csv"
        source.write_text(
            "frequency_mhz,vx_plus,vx_minus,vy_plus,vy_minus,v_sum_plus,v_diff_minus\n"
            "6.5,5.185,5.185,5.185,5.185,-3.565,-3.565\n"
        )
        code, out, _ = run_cli(capsys, "ingest", str(source), "--db")
        assert code == 0
        values = out.strip().split("\n")[1].split(",")
        assert float(values[1]) == pytest.approx(0.44, abs=1e-3)  # inseparability

    def test_json_output(self, capsys, tmp_path):
        source = tmp_path / "spectra.csv"
        source.write_text(self.CSV)
        code, out, _ = run_cli(capsys, "ingest", str(source), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["frequency_mhz"] == 6.5

    @pytest.mark.parametrize(
        ("options", "expected"),
        [(["--format", "csv"], "frequency_mhz,"), (["--format", "json", "--db"], "[]\n")],
    )
    def test_header_only_file_writes_an_empty_table_quietly(self, tmp_path, options, expected):
        # A fresh interpreter, outside pytest's warning filters: a warning
        # would reach stderr.
        source = tmp_path / "header_only.csv"
        source.write_text(self.CSV.splitlines(keepends=True)[0])
        result = subprocess.run(
            [sys.executable, "-m", "gaussent.cli", "ingest", str(source), *options],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert result.stdout.startswith(expected) and result.stdout.count("\n") == 1
        assert result.stderr == ""

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "ingest", "/nonexistent/spectra.csv")
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        source = tmp_path / "bad.csv"
        source.write_text("a,b\n1,2\n")
        code, _, err = run_cli(capsys, "ingest", str(source))
        assert code == 1

    @pytest.mark.parametrize(
        ("earlier", "message"),
        [("", "row 2: field larger than field limit"),
         ("-1,2,2,2,2,1,1\n", "row 2, column 'frequency_mhz': must be positive")],
    )
    def test_cell_over_the_csv_field_limit_names_its_row(self, capsys, tmp_path, earlier, message):
        source = tmp_path / "long_cell.csv"
        long_row = "7.5," + "9" * 200_000 + ",2,2,2,1,1\n"
        source.write_text(self.CSV.splitlines(keepends=True)[0] + earlier + long_row)
        code, out, err = run_cli(capsys, "ingest", str(source))
        assert code == 1
        assert out == ""
        assert err.startswith(f"gaussent: error: {message}")
        assert "Traceback" not in err


class TestFixturesCommand:
    def test_prints_bundled_anchors(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures")
        assert code == 0
        payload = json.loads(out)
        assert payload["statistical_error"] == 0.05
        assert set(payload) == {"statistical_error", "3.5MHz", "6.5MHz"}


_NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


# One argv per subcommand and output format; "{spectra}" names a spectrum file.
_EVERY_OUTPUT = {
    "contours csv": ["contours", "--metric", "epr", "--grid", "40"],
    "contours json": ["contours", "--metric", "dense_ratio", "--n-encoding", "2", "--grid", "40",
                      "--format", "json"],
    "ingest csv": ["ingest", "{spectra}"],
    "ingest json": ["ingest", "{spectra}", "--format", "json"],
    "sweep-loss": ["sweep-loss", "--v", "0.5", "--steps", "5000"],  # more than one chunk
    "model": ["model", "--v1", "0.5", "--v2", "0.3", "--eta", "0.8"],
    "analyze": ["analyze", "--at", "6.5MHz"],
    "fixtures": ["fixtures"],
}


def _output_argv(name, tmp_path):
    """``_EVERY_OUTPUT[name]``, with a spectrum file written in ``tmp_path``."""
    spectrum = tmp_path / "spectra.csv"
    rows = [[getattr(row, column) for column in SPECTRUM_COLUMNS] for row in synthesize_spectra()]
    spectrum.write_text(
        ",".join(SPECTRUM_COLUMNS) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)
    )
    return [arg.format(spectra=spectrum) for arg in _EVERY_OUTPUT[name]]


class TestCliContract:
    @pytest.mark.parametrize("command", ["ingest", "analyze", "fixtures"])
    def test_file_not_in_utf8_is_named_with_the_whole_error(
        self, capsys, tmp_path, monkeypatch, command
    ):
        path = tmp_path / "input"
        monkeypatch.setenv("GAUSSENT_FIXTURES", str(path))
        argv = {"ingest": ["ingest", str(path)], "analyze": ["analyze", "--cm", str(path)]}
        # Behind a BOM the bad byte is named at its offset in the file, and a
        # cut-off BOM is bytes that are not UTF-8.
        for content, message in (
            (b"\xff", _NOT_UTF8),
            (codecs.BOM_UTF8 + b"\xff", _NOT_UTF8.replace("position 0", "position 3")),
            (b"\xef\xbb",
             "'utf-8' codec can't decode bytes in position 0-1: unexpected end of data"),
            (b"\xef", "'utf-8' codec can't decode byte 0xef in position 0: unexpected end of data"),
        ):
            path.write_bytes(content)
            code, out, err = run_cli(capsys, *argv.get(command, [command]))
            assert (code, out) == (1, "")
            assert err == f"gaussent: error: {path}: {message}\n"

    @pytest.mark.parametrize("command", ["ingest", "analyze --cm", "analyze --at"])
    def test_leading_bom_reads_as_its_absence(self, capsys, tmp_path, monkeypatch, command):
        """Excel's "CSV UTF-8" and other writers open a file with a BOM."""
        anchors = Path(bundled_fixture_path()).read_text(encoding="utf-8")
        text = {
            "ingest": TestIngest.CSV,
            "analyze --cm": json.dumps(json.loads(anchors)["6.5MHz"]),
            "analyze --at": anchors,
        }[command]
        outputs = []
        # CRLF and CR-only line ends read as LF ones.
        for name, encoding, newline in (
            ("plain", "utf-8", "\n"),
            ("crlf", "utf-8", "\r\n"),
            ("cr", "utf-8", "\r"),
            ("bom", "utf-8-sig", "\n"),
        ):
            path = tmp_path / name
            path.write_text(text, encoding=encoding, newline=newline)
            monkeypatch.setenv("GAUSSENT_FIXTURES", str(path))
            argv = {
                "ingest": ["ingest", str(path)],
                "analyze --cm": ["analyze", "--cm", str(path)],
                "analyze --at": ["analyze", "--at", "6.5MHz"],
            }[command]
            outputs.append(run_cli(capsys, *argv))
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[0][0] == 0 and all(output == outputs[0] for output in outputs)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "{bad}"],
            ["analyze", "--cm", "{bad}"],
            ["contours", "--metric", "dense_ratio"],
        ],
    )
    def test_refused_input_leaves_an_existing_out_file_unchanged(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad"
        bad.write_text("a,b\n1,2\n")
        out = tmp_path / "out"
        out.write_text("kept")
        argv = [arg.format(bad=bad) for arg in argv] + ["--out", str(out)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("gaussent: error:")
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("name", sorted(_EVERY_OUTPUT))
    def test_stdout_holds_the_bytes_of_the_out_file(self, capsysbinary, tmp_path, name):
        argv = _output_argv(name, tmp_path)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_stdout_of_a_fresh_interpreter_holds_the_bytes_of_the_out_file(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = tmp_path / "out"
        for name in sorted(_EVERY_OUTPUT):
            argv = _output_argv(name, tmp_path)
            assert main(argv + ["--out", str(out)]) == 0
            result = subprocess.run([sys.executable, "-m", "gaussent.cli", *argv],
                                    env=env, capture_output=True, timeout=120)
            assert (result.returncode, result.stdout) == (0, out.read_bytes()), name

    def test_stdout_closed_after_one_line_exits_2_with_one_error_line(self):
        # About 9 MB of CSV: far more than a pipe holds.
        argv = [sys.executable, "-m", "gaussent.cli", "contours", "--metric", "epr",
                "--grid", "400"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=str(SRC))) as proc:
            assert proc.stdout.readline() == b"n_min,n_excess,value\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 2
            assert proc.stderr.read() == b"gaussent: i/o error: [Errno 32] Broken pipe\n"

    def test_cli_reads_no_private_name_of_another_module(self):
        """Neither ``from .module import _name`` nor ``module._name``."""
        tree = ast.parse((SRC / "gaussent" / "cli.py").read_text(encoding="utf-8"))
        modules, private = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("gaussent")
            ):
                for alias in node.names:
                    if node.module in (None, "gaussent"):  # from . import spectra
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        private.add(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                private.add(f"{node.value.id}.{node.attr}")
        assert sorted(private) == []

    def test_analyze_cm_is_the_spectra_record(self):
        assert cli.analyze_cm is spectra.analyze_cm

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "model", "--v1", "0.5", "--v2", "0.5", "--verbose")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_documented_flags_in_help(self, capsys):
        parser = build_parser()
        helps = []
        for action in parser._subparsers._group_actions:
            for sub in action.choices.values():
                helps.append(sub.format_help())
        combined = "\n".join(helps)
        for flag in DOCUMENTED_FLAGS:
            assert flag in combined, flag

    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "analyze", "--cm", bundled_fixture_path(), "--at", "6.5MHz")
        second = run_cli(capsys, "analyze", "--cm", bundled_fixture_path(), "--at", "6.5MHz")
        assert first == second
        third = run_cli(capsys, "contours", "--metric", "epr", "--grid", "4")
        fourth = run_cli(capsys, "contours", "--metric", "epr", "--grid", "4")
        assert third == fourth
