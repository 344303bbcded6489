import json

import numpy as np
import pytest

from gaussent.cli import build_parser, main
from gaussent.spectra import bundled_fixture_path

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

    def test_biased_matrix_reports_measures_without_decomposition(self, capsys, tmp_path):
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
        code, out, _ = run_cli(capsys, "analyze", "--cm", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["decomposition_source"] == "unavailable"
        assert payload["n_min"] is None
        assert payload["inseparability"] > 0.0

    def test_defaults_to_bundled_anchors(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--at", "6.5MHz")
        assert code == 0
        assert json.loads(out)["label"] == "6.5MHz"

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


class TestModel:
    def test_pure_inputs(self, capsys):
        code, out, _ = run_cli(capsys, "model", "--v1", "0.5", "--v2", "0.5")
        assert code == 0
        payload = json.loads(out)
        matrix = np.array(payload["cm"]["matrix"])
        assert matrix[0, 0] == pytest.approx(1.25)
        assert matrix[0, 2] == pytest.approx(-0.75)
        assert payload["alpha_x"] == [0.0, 0.0]

    def test_with_loss(self, capsys):
        code, out, _ = run_cli(capsys, "model", "--v1", "0.5", "--v2", "0.5", "--eta", "0.5")
        assert code == 0
        matrix = np.array(json.loads(out)["cm"]["matrix"])
        assert matrix[0, 0] == pytest.approx(1.125)
        assert matrix[0, 2] == pytest.approx(-0.375)

    def test_unphysical_input_rejected(self, capsys):
        for v1 in ("-0.5", "0"):
            code, _, err = run_cli(capsys, "model", "--v1", v1, "--v2", "0.5")
            assert code == 1
            assert err.startswith("gaussent: error:")

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "state.json"
        code, out, _ = run_cli(
            capsys, "model", "--v1", "0.5", "--v2", "0.5", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["cm"]["order"] == ["xp", "xm", "yp", "ym"]

    def test_model_output_feeds_analyze(self, capsys, tmp_path):
        state_path = tmp_path / "state.json"
        run_cli(
            capsys, "model", "--v1", "0.5", "--v2", "0.5", "--eta", "0.8",
            "--out", str(state_path),
        )
        cm_path = tmp_path / "cm.json"
        cm_path.write_text(json.dumps(json.loads(state_path.read_text())["cm"]))
        code, out, _ = run_cli(capsys, "analyze", "--cm", str(cm_path))
        assert code == 0
        payload = json.loads(out)
        # Closed forms for equal pure inputs through equal loss.
        assert payload["inseparability"] == pytest.approx(0.8 * 0.5 + 0.2, abs=1e-12)
        assert payload["epr"] == pytest.approx(
            4.0 * (0.2 + 0.6 / (0.8 * 0.5 + 2.0)) ** 2, abs=1e-12
        )


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

    def test_rejects_single_step(self, capsys):
        code, _, err = run_cli(capsys, "sweep-loss", "--v", "0.5", "--steps", "1")
        assert code == 1

    def test_rejects_non_finite_variance(self, capsys):
        for value in ("inf", "nan"):
            code, out, err = run_cli(capsys, "sweep-loss", "--v", value, "--steps", "3")
            assert code == 1
            assert out == ""
            assert err.startswith("gaussent: error:")


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

    def test_rejects_non_finite_range(self, capsys):
        for value in ("inf", "nan"):
            code, out, err = run_cli(
                capsys, "contours", "--metric", "fidelity", "--nmin-max", value, "--grid", "3"
            )
            assert code == 1
            assert out == ""
            assert err.startswith("gaussent: error:") and "nmin_range" in err

    def test_dense_ratio_requires_budget(self, capsys):
        code, _, err = run_cli(capsys, "contours", "--metric", "dense_ratio")
        assert code == 1
        assert "n-encoding" in err

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

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "ingest", "/nonexistent/spectra.csv")
        assert code == 2

    def test_malformed_file(self, capsys, tmp_path):
        source = tmp_path / "bad.csv"
        source.write_text("a,b\n1,2\n")
        code, _, err = run_cli(capsys, "ingest", str(source))
        assert code == 1


class TestFixturesCommand:
    def test_prints_bundled_anchors(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures")
        assert code == 0
        payload = json.loads(out)
        assert payload["statistical_error"] == 0.05
        assert set(payload) == {"statistical_error", "3.5MHz", "6.5MHz"}


class TestCliContract:
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
