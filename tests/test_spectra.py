import json

import numpy as np
import pytest

from conftest import ANCHOR_35_ENTRIES, ANCHOR_65_ENTRIES, MEASURED_65
from gaussent import spectra
from gaussent.cli import main
from gaussent.spectra import (
    DERIVED_COLUMNS,
    SpectrumRow,
    cm_at_frequency,
    derive_spectra,
    derived_to_csv_text,
    derived_to_json_text,
    load_paper_anchors,
    measured_row,
    parse_spectra,
    synthesize_spectra,
)
from gaussent.states import CorrelationMatrix4, sum_diff_variance

HEADER = "frequency_mhz,vx_plus,vx_minus,vy_plus,vy_minus,v_sum_plus,v_diff_minus"

SAMPLE_CSV = "\n".join(
    [
        HEADER,
        "6.5,3.3,3.3,3.3,3.3,0.44,0.44",
        "3.5,6.2,6.1,6.2,6.1,0.9,0.4",
        "10.0,1.5,1.6,1.5,1.6,0.8,0.85",
    ]
) + "\n"


class TestParse:
    def test_rows_sorted_by_frequency(self):
        rows = parse_spectra(SAMPLE_CSV)
        assert [row.frequency_mhz for row in rows] == [3.5, 6.5, 10.0]
        assert rows[1].v_sum_plus == 0.44

    def test_db_units_converted(self):
        text = HEADER + "\n5.0,0.0,0.0,0.0,0.0,-3.565,-3.565\n"
        row = parse_spectra(text, units="dB")[0]
        assert row.vx_plus == 1.0  # 0 dB is shot noise
        assert row.v_sum_plus == pytest.approx(0.44, abs=1e-3)
        assert row.frequency_mhz == 5.0  # frequency column not converted

    def test_rejects_negative_variance_naming_cell(self):
        for line, units, column in (
            ("5.0,-1.0,1.0,1.0,1.0,1.0,1.0", "linear", "vx_plus"),
            ("5.0,1.0,1.0,1.0,1.0,inf,1.0", "linear", "v_sum_plus"),
            ("5.0,1.0,1.0,1.0,nan,1.0,1.0", "linear", "vy_minus"),
            ("inf,1.0,1.0,1.0,1.0,1.0,1.0", "linear", "frequency_mhz"),
            ("nan,1.0,1.0,1.0,1.0,1.0,1.0", "linear", "frequency_mhz"),
            ("5.0,0.0,0.0,0.0,0.0,-2.0,inf", "dB", "v_diff_minus"),
            ("5.0,0.0,3083.0,0.0,0.0,-2.0,-2.0", "dB", "vx_minus"),
        ):
            with pytest.raises(ValueError, match=rf"row 2, column '{column}'"):
                parse_spectra(HEADER + "\n" + line + "\n", units=units)

    def test_rejects_non_numeric_cell(self):
        text = HEADER + "\n5.0,1.0,oops,1.0,1.0,1.0,1.0\n"
        with pytest.raises(ValueError, match=r"row 2, column 'vx_minus'"):
            parse_spectra(text)

    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="expected columns"):
            parse_spectra("frequency,vx\n1.0,2.0\n")

    def test_rejects_short_row(self):
        text = HEADER + "\n5.0,1.0,1.0\n"
        with pytest.raises(ValueError, match="row 2"):
            parse_spectra(text)

    def test_rejects_unknown_units(self):
        with pytest.raises(ValueError, match="units"):
            parse_spectra(SAMPLE_CSV, units="watts")

    def test_skips_blank_lines(self):
        assert len(parse_spectra(SAMPLE_CSV + "\n\n")) == 3


class TestCmAtFrequency:
    def test_reconstructs_65mhz_anchor(self):
        row = SpectrumRow(6.5, 3.3, 3.3, 3.3, 3.3, 0.4, 0.4)
        expected = np.array(ANCHOR_65_ENTRIES)
        assert np.max(np.abs(cm_at_frequency(row).entries - expected)) <= 1e-12

    def test_reconstructs_35mhz_anchor(self):
        row = SpectrumRow(3.5, 6.2, 6.1, 6.2, 6.1, 0.9, 0.4)
        expected = np.array(ANCHOR_35_ENTRIES)
        assert np.max(np.abs(cm_at_frequency(row).entries - expected)) <= 1e-12

    def test_vacuum_row_gives_identity(self):
        row = SpectrumRow(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert cm_at_frequency(row) == CorrelationMatrix4.identity()

    def test_round_trips_measured_combinations(self, rng):
        for _ in range(200):
            row = SpectrumRow(
                frequency_mhz=float(rng.uniform(1, 10)),
                vx_plus=float(rng.uniform(0.5, 8)),
                vx_minus=float(rng.uniform(0.5, 8)),
                vy_plus=float(rng.uniform(0.5, 8)),
                vy_minus=float(rng.uniform(0.5, 8)),
                v_sum_plus=float(rng.uniform(0.2, 2)),
                v_diff_minus=float(rng.uniform(0.2, 2)),
            )
            cm = cm_at_frequency(row)
            assert abs(sum_diff_variance(cm, "+", "sum") - row.v_sum_plus) <= 1e-12
            assert abs(sum_diff_variance(cm, "-", "diff") - row.v_diff_minus) <= 1e-12


class TestDeriveSpectra:
    def test_matrix_rounded_row(self):
        row = SpectrumRow(6.5, 3.3, 3.3, 3.3, 3.3, 0.4, 0.4)
        derived = derive_spectra([row])[0]
        assert derived.inseparability == pytest.approx(0.40, abs=1e-12)
        assert derived.epr == pytest.approx((3.3 - 2.9**2 / 3.3) ** 2, abs=1e-12)
        assert derived.n_min == pytest.approx(0.45, abs=1e-12)
        assert derived.c_xy_plus == pytest.approx(-2.9, abs=1e-12)
        assert derived.c_xy_minus == pytest.approx(+2.9, abs=1e-12)

    def test_measured_row(self):
        row = SpectrumRow(6.5, 3.3, 3.3, 3.3, 3.3, 0.44, 0.44)
        derived = derive_spectra([row])[0]
        assert derived.inseparability == pytest.approx(0.44, abs=1e-12)
        assert derived.n_min == pytest.approx(0.356, abs=1e-3)
        assert derived.n_bias == pytest.approx(0.0, abs=1e-12)
        assert derived.n_excess == pytest.approx(1.944, abs=2e-3)

    def test_35mhz_row(self):
        row = SpectrumRow(3.5, 6.2, 6.1, 6.2, 6.1, 0.9, 0.4)
        derived = derive_spectra([row])[0]
        assert derived.inseparability == pytest.approx(0.60, abs=1e-12)
        assert derived.n_bias == pytest.approx(0.094, abs=1e-3)

    def test_vacuum_row(self):
        row = SpectrumRow(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        derived = derive_spectra([row])[0]
        assert derived.inseparability == 1.0
        assert derived.epr == 1.0
        assert derived.n_min == derived.n_bias == derived.n_excess == 0.0

    def test_bad_row_skipped_with_warning(self, caplog):
        good = SpectrumRow(6.5, 3.3, 3.3, 3.3, 3.3, 0.4, 0.4)
        # Inconsistent: the claimed sum variance exceeds what the mode
        # variances allow, leaving a negative difference variance.
        bad = SpectrumRow(5.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0)
        with caplog.at_level("WARNING", logger="gaussent.spectra"):
            derived = derive_spectra([bad, good])
        assert len(derived) == 1
        assert derived[0].frequency_mhz == 6.5
        assert "skipping row" in caplog.text


class TestSynthesize:
    def test_high_frequency_rows_approach_vacuum(self):
        rows = synthesize_spectra(freq_grid=[300.0, 500.0])
        for row in rows:
            for name in ("vx_plus", "vx_minus", "v_sum_plus", "v_diff_minus"):
                assert getattr(row, name) == pytest.approx(1.0, abs=0.01)

    def test_sum_channel_degraded_near_relaxation_oscillation(self):
        rows = synthesize_spectra()
        near = min(rows, key=lambda row: abs(row.frequency_mhz - 2.0))
        assert near.v_sum_plus > near.v_diff_minus

    def test_interior_inseparability_optimum(self):
        derived = derive_spectra(synthesize_spectra())
        values = [row.inseparability for row in derived]
        best = int(np.argmin(values))
        assert 0 < best < len(values) - 1

    def test_entangled_across_default_grid(self):
        derived = derive_spectra(synthesize_spectra())
        assert len(derived) == 31
        assert all(row.inseparability < 1.0 for row in derived)

    def test_no_squeezing_no_noise_is_separability_boundary(self):
        derived = derive_spectra(
            synthesize_spectra(v_floor=1.0, relax_amplitude=0.0, freq_grid=[3.0, 6.0])
        )
        for row in derived:
            assert row.inseparability == pytest.approx(1.0, abs=1e-12)

    def test_rows_are_physical(self):
        for row in synthesize_spectra():
            assert cm_at_frequency(row).uncertainty_violation() >= -1e-9

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            synthesize_spectra(v_floor=0.0)
        with pytest.raises(ValueError):
            synthesize_spectra(eta=1.2)
        with pytest.raises(ValueError):
            synthesize_spectra(freq_grid=[-1.0])


class TestWriteOutputs:
    """Derived rows as serialized and written by ``gaussent ingest``."""

    def test_csv_round_trip(self):
        derived = derive_spectra(parse_spectra(SAMPLE_CSV))
        lines = derived_to_csv_text(derived).strip().split("\n")
        assert lines[0] == ",".join(DERIVED_COLUMNS)
        assert len(lines) == 1 + len(derived)
        reparsed = [float(cell) for cell in lines[1].split(",")]
        assert reparsed[0] == derived[0].frequency_mhz
        assert reparsed[1] == derived[0].inseparability  # repr round-trips exactly

    def test_json_round_trip(self):
        derived = derive_spectra(parse_spectra(SAMPLE_CSV))
        data = json.loads(derived_to_json_text(derived))
        assert len(data) == len(derived)
        assert data[0]["inseparability"] == derived[0].inseparability

    def test_empty_list_writes_header_only(self):
        assert derived_to_csv_text([]) == ",".join(DERIVED_COLUMNS) + "\n"

    def test_unknown_format(self, tmp_path, capsys):
        source = tmp_path / "spectra.csv"
        source.write_text(SAMPLE_CSV)
        code = main(["ingest", str(source), "--format", "parquet", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--format" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_io_error_carries_path(self, tmp_path, capsys):
        source = tmp_path / "spectra.csv"
        source.write_text(SAMPLE_CSV)
        missing_dir = tmp_path / "no_such_dir" / "x.csv"
        code = main(["ingest", str(source), "--out", str(missing_dir)])
        assert code == 2
        assert "no_such_dir" in capsys.readouterr().err


class TestAnchors:
    def test_bundled_matrices_bit_for_bit(self):
        anchors = load_paper_anchors()
        assert np.array_equal(
            anchors["3.5MHz"].cm.entries, np.array(ANCHOR_35_ENTRIES)
        )
        assert np.array_equal(
            anchors["6.5MHz"].cm.entries, np.array(ANCHOR_65_ENTRIES)
        )
        assert anchors.statistical_error == 0.05

    def test_bundled_measured_values(self):
        anchor = load_paper_anchors()["6.5MHz"]
        assert anchor.measured == MEASURED_65
        assert anchor.has_measured_variances()
        assert not load_paper_anchors()["3.5MHz"].has_measured_variances()

    def test_derived_anchor_metrics(self):
        from gaussent.epr import degree_of_epr
        from gaussent.photons import decompose
        from gaussent.separability import degree_of_inseparability

        anchors = load_paper_anchors()
        cm65 = anchors["6.5MHz"].cm
        assert degree_of_inseparability(cm65) == pytest.approx(0.40, abs=1e-12)
        assert degree_of_epr(cm65).degree == pytest.approx(
            (3.3 - 2.9**2 / 3.3) ** 2, abs=1e-12
        )
        budget = decompose(cm_at_frequency(measured_row(anchors["6.5MHz"])))
        assert budget.n_min == pytest.approx(0.356, abs=1e-3)
        assert budget.n_excess == pytest.approx(1.944, abs=2e-3)
        assert degree_of_inseparability(anchors["3.5MHz"].cm) == pytest.approx(
            0.60, abs=1e-12
        )

    def test_unknown_label(self):
        with pytest.raises(KeyError, match="available"):
            load_paper_anchors()["9.9MHz"]

    def test_measured_row_requires_measured_block(self):
        with pytest.raises(ValueError, match="measured"):
            measured_row(load_paper_anchors()["3.5MHz"])

    def test_env_var_override(self, tmp_path, monkeypatch):
        custom = {
            "statistical_error": 0.1,
            "1.0MHz": {
                "order": ["xp", "xm", "yp", "ym"],
                "matrix": np.eye(4).tolist(),
            },
        }
        path = tmp_path / "anchors.json"
        path.write_text(json.dumps(custom))
        monkeypatch.setenv(spectra.FIXTURES_ENV_VAR, str(path))
        anchors = load_paper_anchors()
        assert anchors.statistical_error == 0.1
        assert sorted(anchors.anchors) == ["1.0MHz"]
        assert anchors["1.0MHz"].frequency_mhz == 1.0
