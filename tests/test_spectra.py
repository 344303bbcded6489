"""Spectra: the CSV reader, the row and table derivations, the writers and
the anchor files.

Run as a script it sweeps 10^7 seeded dB cells at seed 1 through the reader,
and 10^7 seeded cells at seed 1 through the reader's raw table, beside the
10^6 of each at other seeds that the tier-1 run checks, and exits 1 on a
cell whose value is not the bits of ``10.0 ** (x / 10.0)``, or of
``float()``:

    PYTHONPATH=src python tests/test_spectra.py
"""

import csv
import importlib.util
import json
import logging
import math
import random
import re
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ANCHOR_35_ENTRIES, ANCHOR_65_ENTRIES, MEASURED_65
from oracles import parse_spectra_rowwise
from gaussent import spectra
from gaussent._floattext import read_cells
from gaussent.cli import main
from gaussent.epr import degree_of_epr
from gaussent.photons import decompose
from gaussent.separability import degree_of_inseparability
from gaussent.spectra import (
    DERIVED_COLUMNS,
    SPECTRUM_COLUMNS,
    DerivedRow,
    SpectrumRow,
    cm_at_frequency,
    derive_row,
    derived_to_csv_text,
    derived_to_json_text,
    load_paper_anchors,
    measured_row,
    parse_spectra,
    synthesize_spectra,
)
from gaussent.states import CorrelationMatrix4, sum_diff_variance

HEADER = "frequency_mhz,vx_plus,vx_minus,vy_plus,vy_minus,v_sum_plus,v_diff_minus"

# The benchmark's own spectrum generator (numpy only), loaded read-only.
_GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_GEN_SPEC = importlib.util.spec_from_file_location("perfbench_gen", _GEN_PATH)
_PERFBENCH_GEN = importlib.util.module_from_spec(_GEN_SPEC)
_GEN_SPEC.loader.exec_module(_PERFBENCH_GEN)

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

    @pytest.mark.parametrize("units", ["linear", "dB"])
    def test_blank_looking_lines_fall_back_to_the_same_table(self, units):
        # The decimal reader refuses a line of blank or empty cells, which the
        # csv reader skips; the csv reader's table (its per-cell dB, its
        # per-row gate) must equal the decimal reader's (its column dB) bit
        # for bit.
        text = _PERFBENCH_GEN.spectrum_csv(_PERFBENCH_GEN.spectrum(0, 2000), units == "dB")
        clean = spectra._read_table(text, units).tobytes()
        header, body = text.split("\n", 1)
        for odd in (text + "   \n", header + "\n,,,,,,\n" + body):
            assert spectra._read_table(odd, units).tobytes() == clean

    def test_db_cells_convert_to_the_bits_of_the_scalar_formula(self):
        """The fast path's column conversion gives each variance cell the bits
        of ``10.0 ** (x / 10.0)``, the formula the csv reader applies per cell,
        and refuses, with the csv reader's message, each cell that overflows or
        converts to 0."""
        found = db_sweep(seed=35, count=10**6)
        assert not found, found[:20]

    def test_a_db_cell_out_of_range_is_named(self):
        text = HEADER + "\n5.0,0.0,0.0,0.0,0.0,0.0,0.0\n6.0,0.0,0.0,4000.0,0.0,0.0,0.0\n"
        with pytest.raises(ValueError, match=r"^row 3, column 'vy_plus': '4000.0' dB is out of range$"):
            parse_spectra(text, units="dB")

    def test_rejects_non_positive_frequency_naming_column(self):
        for cell in ("0", "-1"):
            with pytest.raises(
                ValueError,
                match=r"row 2, column 'frequency_mhz': must be positive and finite, got ",
            ):
                parse_spectra(HEADER + f"\n{cell},1.0,1.0,1.0,1.0,1.0,1.0\n")

    def test_rejects_duplicate_frequency_naming_both_rows(self):
        text = SAMPLE_CSV + "6.50,2.0,2.0,2.0,2.0,0.5,0.5\n"
        with pytest.raises(
            ValueError,
            match=r"row 5, column 'frequency_mhz': duplicate frequency 6.5 MHz, also on row 2",
        ):
            parse_spectra(text)


def _parse_outcome(parse, text, units):
    """The rows ``parse`` returns, as hex tuples, or the message it raises."""
    try:
        rows = parse(text, units)
    except ValueError as exc:
        return str(exc)
    return [tuple(float.hex(getattr(row, name)) for name in SPECTRUM_COLUMNS) for row in rows]


# Cells that parse in both units, and cells that fail in one or both: not a
# number, out of range once converted from dB (4000 dB overflows, -4000 dB
# converts to 0), zero, negative, infinite and NaN.  The csv reader and
# float() accept a quoted cell, digit grouping, non-ASCII digits and a form
# feed around a number, which the decimal reader leaves to the csv reader
# or to float().  float() refuses a hex float, a Fortran exponent, a NaN
# payload, a form feed inside a number, a comment and \x1c-\x1f around a
# number, and the decimal reader must refuse each of them as float() does.
_GOOD_CELL = st.sampled_from(["1.5", "0.3", "2", "7.25", " 4.0 ", "1e-3", "0.5", "12"])
_ODD_GOOD_CELL = st.sampled_from(['"1.5"', "1_000", "\u0661", "\x0c2\x0c"])
_BAD_CELL = st.sampled_from(
    ["oops", "", "4000", "-4000", "0", "-0.0", "-1", "inf", "-inf", "nan", "1e400",
     "0x1p3", "1d5", "nan(1)", "1\x0c5", "\x1c2", "2\x1f", "2 # note"]
)
# Lines the csv reader skips, and a comment line and a carriage return
# inside a line, which it refuses (also on a line of blank cells).
_ODD_LINE = st.sampled_from(
    ["", "   ", "\t", ",,,,,,", " , ,", "\x0c", "# note", "2,1,1\r1,1,1,1", ",\r,", " \r ,"]
)


@st.composite
def _spectrum_lines(draw):
    """Lines of a small spectrum table: good rows over a few frequencies, so
    that some repeat, with up to three bad or unusual cells anywhere and, at
    times, a row of the wrong length, an odd line or CRLF line endings."""
    count = draw(st.integers(1, 6))
    frequencies = st.sampled_from(["1", "2", "2.0", "3.5", "5", "8"])
    rows = [[draw(frequencies)] + draw(st.lists(_GOOD_CELL, min_size=6, max_size=6))
            for _ in range(count)]
    for _ in range(draw(st.integers(0, 3))):
        cell = draw(st.one_of(_BAD_CELL, _ODD_GOOD_CELL))
        rows[draw(st.integers(0, count - 1))][draw(st.integers(0, 6))] = cell
    lines = [",".join(row) for row in rows]
    if draw(st.integers(0, 3)) == 0:
        odd = draw(st.lists(_GOOD_CELL, max_size=9).filter(lambda cells: len(cells) != 7))
        lines.insert(draw(st.integers(0, count)), ",".join(odd))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINE))
    if draw(st.booleans()):  # CRLF line endings, once joined
        lines = [line + "\r" for line in lines]
    return lines


def _table_outcome(read, text, units):
    """The table ``read`` returns, as bytes, or the message it raises."""
    try:
        table = read(text, units)
    except ValueError as exc:
        return str(exc)
    return np.array(table, float).reshape(-1, len(SPECTRUM_COLUMNS)).tobytes()


def _rowwise_table(text, units):
    return [spectra._spectrum_values(row) for row in parse_spectra_rowwise(text, units)]


# Over the csv field limit, and 1.0 to float().
_LONG_CELL = "1." + "0" * csv.field_size_limit()


class TestParseErrorOrder:
    """parse_spectra against the row-by-row parser it replaced: the same rows,
    or the same message for the first error in file order."""

    @settings(max_examples=500, deadline=None)
    @given(_spectrum_lines(), st.sampled_from(["linear", "dB"]))
    # A bad value on a row before a non-numeric cell; both on one row; a bad
    # value before a repeated frequency; a repeat, then a short row; dB
    # cells that convert to 0 and that overflow.
    @example(["1,1,1,1,1,1,-1", "2,oops,1,1,1,1,1"], "linear")
    @example(["1,-1,1,1,1,oops,1"], "linear")
    @example(["1,0,1,1,1,1,1", "1,1,1,1,1,1,1"], "linear")
    @example(["2,1,1,1,1,1,1", "2.0,1,1,1,1,1,1", "3,1,1"], "dB")
    @example(["2,1,1,1,1,1,1", "3,1,1,1,-4000,1,1"], "dB")
    @example(["3,1,1,1,1,1,1", "2,1,1,1,4000,1,-1"], "dB")
    # A header-only file; every row one cell short; a comment; numbers that
    # float() refuses; a carriage return inside a line; a cell over the csv
    # field limit, after a bad value; a carriage return inside a line of
    # blank cells.
    @example([], "linear")
    @example(["1,1,1,1,1,1", "2,1,1,1,1,1"], "dB")
    @example(["1,1,1,1,1,1,1 # note"], "linear")
    @example(["1,1,1,1,1,1,\x1c2"], "linear")
    @example(["1,1,1,1,1,1,0x1p3", "2,1,1,1,1,1,1"], "dB")
    @example(["1,1,1,1,1,1,1\r2,1,1,1,1,1,1"], "linear")
    @example(["1,1,1,1,1,1,-1", "2,1,1,1,1,1," + _LONG_CELL], "linear")
    @example([" \r ,", "1,1,1,1,1,1,1"], "linear")
    @example(["1,1,1,1,1,1,1", ",\r,"], "linear")
    def test_matches_rowwise_parser(self, lines, units):
        text = "\n".join([HEADER] + lines) + "\n"
        expected = _parse_outcome(parse_spectra_rowwise, text, units)
        assert _parse_outcome(parse_spectra, text, units) == expected

    @pytest.mark.parametrize("units", ["linear", "dB"])
    @pytest.mark.parametrize(
        "text",
        ["", "\n", HEADER, HEADER + "\n", HEADER + "\r\n\r\n", HEADER + "\n,,,,,,\n  \n",
         HEADER + "\n1,1,1,1,1,1," + _LONG_CELL + "\n",
         '"' + HEADER.replace(",", '","') + '\n"\n1,1,1,1,1,1,1\n',
         HEADER.replace("v_diff_minus", '"v_diff_minus') + "\n1,1,1,1,1,1,1\n",
         HEADER.replace(",", " " * csv.field_size_limit() + ",", 1) + "\n1,1,1,1,1,1,1\n"],
    )
    def test_edge_files_match_rowwise_parser(self, text, units):
        expected = _table_outcome(_rowwise_table, text, units)
        if len(text.split("\n", 1)[0]) > csv.field_size_limit():  # a header cell too long
            assert expected == f"row 1: field larger than field limit ({csv.field_size_limit()})"
        assert _table_outcome(spectra._read_table, text, units) == expected

    @pytest.mark.parametrize("units", ["linear", "dB"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_spectra_read_bit_for_bit(self, seed, units):
        text = _PERFBENCH_GEN.spectrum_csv(_PERFBENCH_GEN.spectrum(seed, 2000), units == "dB")
        expected = _table_outcome(_rowwise_table, text, units)
        assert len(expected) == 2000 * len(SPECTRUM_COLUMNS) * 8
        assert _table_outcome(spectra._read_table, text, units) == expected


class TestReader:
    """The reader of the lines after the header, :func:`read_cells`, on its raw
    table, before the value gate: each cell's bits are ``float()``'s, signs
    and zeros too."""

    def test_seeded_and_edge_cells_read_as_float_reads_them(self):
        found = reader_sweep(seed=39, count=10**6)
        assert not found, found[:20]

    def test_the_search_finds_cells_that_the_product_leaves_to_float(self):
        cells = ambiguous_cells(16)
        assert len(set(cells)) == 16
        assert all(_is_vector_cell(cell) for cell in cells)

    @pytest.mark.parametrize("body", [
        "1,2,3,4,5,6\n",  # six cells
        "1,2,3,4,5,6,7,8\n",
        "1,2,3,4,5,6,7\n\n1,2,3,4,5,6,7\n",  # a blank line
        "1,2,3,4,5,6,7\n,,,,,,\n",
        "1,2,3,4,5,6,oops\n",
        "1.5,2,3,4,5,6,0x1p3\n",
        "1.5,2,3,4,5,6,1.5.5\n",
        "1.5,2,3,4,5,6,1e\n",
        "1.5,2,3,4,5,6,\u0661\n",  # float() reads it, but not ASCII
        "1.5,2,3,4,5,6," + "1." + "0" * 99 + "\n",  # over the limit of 100 below
    ])
    def test_refuses_what_the_csv_reader_must_read(self, body):
        assert read_cells(HEADER + "\n" + body, len(HEADER) + 1, 7, 100) is None

    @pytest.mark.parametrize("body, rows", [("", 0), ("1,2,3,4,5,6,7", 1), ("1,2,3,4,5,6,7\n", 1)])
    def test_a_last_newline_ends_the_last_line(self, body, rows):
        table = read_cells(HEADER + "\n" + body, len(HEADER) + 1, 7, 100)
        assert table.shape == (rows, 7)
        assert table.tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]] * rows


class TestSpectrumRow:
    @pytest.mark.parametrize("column", SPECTRUM_COLUMNS)
    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    def test_rejects_value_naming_column(self, column, bad):
        values = dict.fromkeys(SPECTRUM_COLUMNS, 1.0)
        values[column] = bad
        message = f"column '{column}': must be positive and finite, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpectrumRow(**values)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpectrumRow(*values.values())
        # Every later column bad too: the first bad one is still named.
        values.update(dict.fromkeys(SPECTRUM_COLUMNS[SPECTRUM_COLUMNS.index(column) + 1 :], -1.0))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpectrumRow(*values.values())


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
        assert cm_at_frequency(row) == CorrelationMatrix4(np.eye(4))

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
        derived = _derive([row])[0]
        assert derived.inseparability == pytest.approx(0.40, abs=1e-12)
        assert derived.epr == pytest.approx((3.3 - 2.9**2 / 3.3) ** 2, abs=1e-12)
        assert derived.n_min == pytest.approx(0.45, abs=1e-12)
        assert derived.c_xy_plus == pytest.approx(-2.9, abs=1e-12)
        assert derived.c_xy_minus == pytest.approx(+2.9, abs=1e-12)

    def test_measured_row(self):
        row = SpectrumRow(6.5, 3.3, 3.3, 3.3, 3.3, 0.44, 0.44)
        derived = _derive([row])[0]
        assert derived.inseparability == pytest.approx(0.44, abs=1e-12)
        assert derived.n_min == pytest.approx(0.356, abs=1e-3)
        assert derived.n_bias == pytest.approx(0.0, abs=1e-12)
        assert derived.n_excess == pytest.approx(1.944, abs=2e-3)

    def test_35mhz_row(self):
        row = SpectrumRow(3.5, 6.2, 6.1, 6.2, 6.1, 0.9, 0.4)
        derived = _derive([row])[0]
        assert derived.inseparability == pytest.approx(0.60, abs=1e-12)
        assert derived.n_bias == pytest.approx(0.094, abs=1e-3)

    def test_vacuum_row(self):
        row = SpectrumRow(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        derived = _derive([row])[0]
        assert derived.inseparability == 1.0
        assert derived.epr == 1.0
        assert derived.n_min == derived.n_bias == derived.n_excess == 0.0

    def test_empty_list(self):
        assert _derive([]) == []

    def test_builds_no_correlation_matrix(self, monkeypatch):
        rows = synthesize_spectra()

        def refuse(self, entries):
            raise AssertionError("a correlation matrix was built")

        monkeypatch.setattr(CorrelationMatrix4, "__init__", refuse)
        assert len(_derive(rows)) == len(rows)
        assert derive_row(rows[0]).frequency_mhz == rows[0].frequency_mhz

    def test_derive_row_makes_no_numpy_call(self, monkeypatch):
        rows = synthesize_spectra()
        expected = [_hex(row) for row in _derive(rows)]
        # Rows that fail the positive and I > 0 checks: in the first, C+ =
        # 1 - 1e308 rounds to -1e308, and V+ - |C+| is 0.
        bad = [
            (SpectrumRow(3.0, 1e308, 1.0, 1e308, 1.0, 1.0, 1.0), "non-positive"),
            (SpectrumRow(5.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0), "non-positive"),
            (SpectrumRow(4.0, *[1e-200] * 6), "must be positive, got 0.0"),
        ]
        # Fields that are numpy floats are taken as Python floats: the same
        # bits, and no numpy call or overflow warning.
        def as_numpy(row):
            return SpectrumRow(*map(np.float64, spectra._spectrum_values(row)))

        numpy_rows = list(map(as_numpy, rows))
        bad += [(as_numpy(row), reason) for row, reason in bad]

        def refuse(*args, **kwargs):
            raise AssertionError("numpy was called")

        for name in ("errstate", "isfinite", "atleast_1d", "sqrt"):
            monkeypatch.setattr(np, name, refuse)
        assert [_hex(derive_row(row)) for row in rows] == expected
        assert [_hex(derive_row(row)) for row in numpy_rows] == expected
        for row, reason in bad:
            with pytest.raises(ValueError, match=re.escape(reason)):
                derive_row(row)

    def test_overflowing_variance_product_is_derived_on_both_paths(self):
        # V+ V- = 1e400 overflows, but I = sqrt(V+ V-) = 1e200 does not:
        # n_min = 0, n_bias = 0 and n_excess = 1e200 on both paths.
        row = SpectrumRow(1.0, *[1e200] * 6)
        derived = derive_row(row)
        assert derived.inseparability == 1e200
        assert (derived.n_min, derived.n_bias, derived.n_excess) == (0.0, 0.0, 1e200)
        assert _hex(derived) == _hex(_derive([row])[0])

    @pytest.mark.parametrize("values", [
        (1.7e308, 1.7e308, 1e300, 1e300, 1.7e308, 1e300),  # n_total's four-term sum overflows
        (1.7e308, 2.0, 1.7e308, 2.0, 1.7e308, 0.5),  # vx+ + vy+ overflows
    ])
    def test_mode_variances_that_sum_past_the_float_limit_match_mpmath(self, values):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            vx_p, vx_m, vy_p, vy_m, v_sum, v_diff = map(mpmath.mpf, values)
            v_plus, v_minus = (vx_p + vy_p) / 2, (vx_m + vy_m) / 2
            c_plus, c_minus = v_sum - v_plus, v_minus - v_diff
            s, d = v_plus - abs(c_plus), v_minus - abs(c_minus)
            insep = mpmath.sqrt(s * d)
            n_total = (v_plus + v_minus) / 2 - 1
            n_bias = (s + 1 / s + d + 1 / d) / 4 - (insep + 1 / insep) / 2  # n_min = 0: I > 1
        row = SpectrumRow(1.0, *values)
        derived = derive_row(row)
        assert _hex(derived) == _hex(_derive([row])[0])
        assert derived.n_total == pytest.approx(float(n_total), rel=1e-15)
        assert derived.n_excess == pytest.approx(float(n_total - n_bias), rel=1e-15)
        # S+ = V+ - |C+| cancels in the first row: I keeps 11 digits there.
        assert derived.inseparability == pytest.approx(float(insep), rel=1e-11)
        assert (derived.c_xy_plus, derived.c_xy_minus) == pytest.approx(
            (float(c_plus), float(c_minus)), rel=1e-15, abs=1e-300
        )

    def test_paths_agree_where_some_variance_products_overflow(self):
        rng = np.random.default_rng(27)
        rows = []
        for freq in range(1, 201):
            v_plus, v_minus = (10.0 ** rng.uniform(100.0, 300.0, 2)).tolist()
            v_sum, v_diff = (np.array([v_plus, v_minus]) * rng.uniform(0.01, 1.99, 2)).tolist()
            rows.append(SpectrumRow(float(freq), v_plus, v_minus, v_plus, v_minus, v_sum, v_diff))
        derived = _derive(rows)
        assert len(derived) == len(rows)
        overflows = [row.v_sum_plus * row.v_diff_minus == math.inf for row in rows]
        assert any(overflows) and not all(overflows)
        assert all(math.isfinite(row.inseparability) for row in derived)
        assert [_hex(derive_row(row)) for row in rows] == [_hex(row) for row in derived]

    def test_bad_row_skipped_with_warning(self, caplog):
        good = SpectrumRow(6.5, 3.3, 3.3, 3.3, 3.3, 0.4, 0.4)
        # Inconsistent: the claimed sum variance exceeds what the mode
        # variances allow, leaving a negative difference variance.
        bad = SpectrumRow(5.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0)
        with caplog.at_level("WARNING", logger="gaussent.spectra"):
            derived = _derive([bad, good])
        assert len(derived) == 1
        assert derived[0].frequency_mhz == 6.5
        assert "skipping row" in caplog.text


def _scalar_reference(row):
    """(derived values, None) or (None, reason) from the scalar API on the
    row's correlation matrix."""
    try:
        cm = cm_at_frequency(row)
        insep = degree_of_inseparability(cm)
        epr = degree_of_epr(cm).degree
        budget = decompose(cm)
    except ValueError as exc:
        return None, str(exc)
    values = (
        row.frequency_mhz,
        insep,
        epr,
        budget.n_min,
        budget.n_bias,
        budget.n_excess,
        budget.n_total,
        cm.cxy_plus,
        cm.cxy_minus,
    )
    assert all(type(value) is float for value in values)
    return values, None


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _derive(rows: list[SpectrumRow]) -> list[DerivedRow]:
    """The rows' derived rows from the table kernel that ``gaussent ingest`` runs."""
    # reshape: an empty list gives a 1-D array.
    table = np.array(list(map(spectra._spectrum_values, rows)), float).reshape(-1, 7)
    return list(map(DerivedRow, *(column.tolist() for column in spectra._derive_table(table))))


def _hex(row: DerivedRow) -> list[str]:
    return [float.hex(getattr(row, name)) for name in DERIVED_COLUMNS]


# Ordinary variances, where rows with I >= 1 and rows with a negative
# sum/difference variance are both common, plus magnitudes whose sums
# overflow or whose products underflow.
_VARIANCE = st.one_of(
    st.floats(0.05, 8.0),
    st.floats(0.05, 8.0),
    st.floats(1e-200, 1e-150),
    st.floats(1e150, 1.7e308),
)
_ROW = st.builds(
    SpectrumRow,
    frequency_mhz=st.floats(0.1, 1000.0),
    vx_plus=_VARIANCE,
    vx_minus=_VARIANCE,
    vy_plus=_VARIANCE,
    vy_minus=_VARIANCE,
    v_sum_plus=_VARIANCE,
    v_diff_minus=_VARIANCE,
)


def _seeded_rows(seed: int, count: int = 16) -> list[SpectrumRow]:
    """Rows of uniformly random variances: unlike hypothesis's floats, which
    favour short and boundary values, nearly every one carries a full
    mantissa, so a change in the order of operations shows in the last bit."""
    table = np.random.default_rng(seed).uniform(0.05, 8.0, (count, 7))
    return [SpectrumRow(*values) for values in table.tolist()]


class TestColumnWiseDerivation:
    """The table kernel against the scalar measures on each row's matrix."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ROW, max_size=12), st.integers(0, 2**32 - 1))
    @example([SpectrumRow(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)], 0)  # vacuum, I = 1
    @example([SpectrumRow(2.0, 1.0, 1.0, 1.0, 1.0, 1.8, 1.2)], 0)  # I > 1
    @example([SpectrumRow(3.0, 1e308, 1.0, 1e308, 1.0, 1.0, 1.0)], 0)  # vx+ + vy+ overflows
    @example([SpectrumRow(4.0, *[1e-200] * 6)], 0)  # V+ V- underflows to 0
    @example([SpectrumRow(5.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0)], 0)  # V+ < 0
    @example([SpectrumRow(6.0, 2e-310, 1.0, 2e-310, 1.0, 1e-310, 1.0)], 0)  # 1 / V+ overflows
    def test_matches_scalar_reference(self, rows, seed):
        rows = rows + _seeded_rows(seed)
        messages = _Messages()
        logger = logging.getLogger("gaussent.spectra")
        logger.addHandler(messages)
        try:
            derived = _derive(rows)
        finally:
            logger.removeHandler(messages)

        references = [_scalar_reference(row) for row in rows]
        assert messages.messages == [
            f"skipping row at {row.frequency_mhz:.6g} MHz: {reason}"
            for row, (_, reason) in zip(rows, references)
            if reason is not None
        ]
        assert [_hex(row) for row in derived] == [
            [float.hex(value) for value in values]
            for values, _ in references
            if values is not None
        ]
        for row in derived:
            assert all(type(getattr(row, name)) is float for name in DERIVED_COLUMNS)

        for row, (_, reason) in zip(rows, references):
            if reason is None:
                assert _hex(derive_row(row)) == _hex(_derive([row])[0])
            else:
                with pytest.raises(ValueError) as raised:
                    derive_row(row)
                assert str(raised.value) == reason


class TestRowsPastTheSquareOverflow:
    """Rows whose cross-correlation passes about 1.34e154, where C_xy^2
    overflows: the conditional variances stay finite (E = cv+ cv- itself
    overflows where they pass about 1.34e154), and both paths give the same bits."""

    @staticmethod
    def _rows():
        rng = np.random.default_rng(7)
        rows = []
        for index, exponent in enumerate(np.linspace(155.0, 300.0, 30).tolist()):
            v = 10.0**exponent * rng.uniform(1.0, 5.0)
            d = v * 10.0 ** rng.uniform(-15.0, -1.0)
            rows.append(SpectrumRow(20.0 + index, v, v, v, v, d, d))
        return rows

    def test_one_row_and_table_paths_agree(self):
        big = self._rows()
        ordinary = synthesize_spectra()
        table = np.array([spectra._spectrum_values(row) for row in ordinary + big])
        mixed = np.stack(spectra._derive_table(table), axis=1)
        alone = np.stack(spectra._derive_table(table[: len(ordinary)]), axis=1)
        assert mixed[: len(ordinary)].tobytes() == alone.tobytes()
        for row, values in zip(big, mixed[len(ordinary) :].tolist()):
            derived = derive_row(row)
            assert all(type(getattr(derived, name)) is float for name in DERIVED_COLUMNS)
            assert _hex(derived) == [float.hex(value) for value in values]
            report = degree_of_epr(cm_at_frequency(row))
            assert math.isfinite(report.cv_plus) and math.isfinite(report.cv_minus)
            assert derived.epr == report.degree
        # The row the overflow was seen on reads E = (3.12e144)^2, not inf.
        assert derive_row(SpectrumRow(1.0, *[1e160] * 4, 2e144, 2e144)).epr == pytest.approx(
            9.7453140114e288, rel=1e-10
        )


def test_inseparability_measured_is_the_correctly_rounded_root():
    mpmath = pytest.importorskip("mpmath")
    cm = CorrelationMatrix4.symmetric_form(3.0, 3.0, -1.0, 1.0)
    for v_sum, v_diff in np.random.default_rng(0).uniform(0.01, 5.9, (20000, 2)).tolist():
        record = spectra.analyze_cm(cm, {"v_sum_plus": v_sum, "v_diff_minus": v_diff})
        with mpmath.workprec(53):  # mpmath's square root is correctly rounded
            expected = float(mpmath.sqrt(mpmath.mpf(v_sum * v_diff)))
        assert record["inseparability_measured"] == expected


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
        derived = _derive(synthesize_spectra())
        values = [row.inseparability for row in derived]
        best = int(np.argmin(values))
        assert 0 < best < len(values) - 1

    def test_entangled_across_default_grid(self):
        derived = _derive(synthesize_spectra())
        assert len(derived) == 31
        assert all(row.inseparability < 1.0 for row in derived)

    def test_no_squeezing_no_noise_is_separability_boundary(self):
        derived = _derive(
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
        for freq in (math.inf, math.nan):
            with pytest.raises(ValueError, match="column 'frequency_mhz'"):
                synthesize_spectra(freq_grid=[freq])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "name, rule",
        [
            ("opa_bandwidth_mhz", "positive"),
            ("relax_osc_mhz", "positive"),
            ("relax_amplitude", "non-negative"),
        ],
    )
    def test_non_finite_parameter_is_named(self, name, rule, bad):
        with pytest.raises(ValueError, match=f"^{name} must be {rule} and finite, got {bad}$"):
            synthesize_spectra(**{name: bad})


class TestWriteOutputs:
    """Derived rows as serialized and written by ``gaussent ingest``."""

    def test_csv_round_trip(self):
        derived = _derive(parse_spectra(SAMPLE_CSV))
        lines = derived_to_csv_text(derived).strip().split("\n")
        assert lines[0] == ",".join(DERIVED_COLUMNS)
        assert len(lines) == 1 + len(derived)
        reparsed = [float(cell) for cell in lines[1].split(",")]
        assert reparsed[0] == derived[0].frequency_mhz
        assert reparsed[1] == derived[0].inseparability  # repr round-trips exactly

    def test_json_round_trip(self):
        derived = _derive(parse_spectra(SAMPLE_CSV))
        data = json.loads(derived_to_json_text(derived))
        assert len(data) == len(derived)
        assert data[0]["inseparability"] == derived[0].inseparability

    def test_empty_list_writes_header_only(self):
        assert derived_to_csv_text([]) == ",".join(DERIVED_COLUMNS) + "\n"

    def test_json_matches_json_dumps(self):
        row = _derive(parse_spectra(SAMPLE_CSV))[0]
        odd = [
            replace(row, epr=math.nan),
            replace(row, n_bias=math.inf, n_excess=-math.inf),
            replace(row, inseparability=-0.0, c_xy_plus=1e-310, c_xy_minus=-1e300),
            replace(row, n_min=np.float64(row.n_min)),
            replace(row, n_min=np.float64(row.n_min), epr=np.float64(math.inf)),
        ]
        for derived in ([], [row], [row] + odd):
            expected = json.dumps([asdict(r) for r in derived], indent=2) + "\n"
            assert derived_to_json_text(derived) == expected

    def test_csv_writes_a_numpy_float_as_its_number(self):
        row = _derive(parse_spectra(SAMPLE_CSV))[0]
        as_numpy = replace(row, **{name: np.float64(getattr(row, name)) for name in DERIVED_COLUMNS})
        assert derived_to_csv_text([as_numpy]) == derived_to_csv_text([row])

    def test_ingest_builds_no_row_objects(self, tmp_path, monkeypatch, capsys):
        source = tmp_path / "spectra.csv"
        source.write_text(SAMPLE_CSV)
        expected = {}
        for units in ("linear", "dB"):
            derived = _derive(parse_spectra(SAMPLE_CSV, units))
            expected[units, "csv"] = derived_to_csv_text(derived)
            expected[units, "json"] = derived_to_json_text(derived)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a {type(self).__name__} was built")

        monkeypatch.setattr(SpectrumRow, "__init__", refuse)
        monkeypatch.setattr(DerivedRow, "__init__", refuse)
        for (units, fmt), text in expected.items():
            argv = ["ingest", str(source), "--format", fmt] + (["--db"] if units == "dB" else [])
            assert main(argv) == 0
            assert capsys.readouterr().out == text

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
        row = measured_row(anchor)
        assert (row.v_sum_plus, row.v_diff_minus) == (
            MEASURED_65["v_sum_plus"], MEASURED_65["v_diff_minus"]
        )
        with pytest.raises(ValueError, match="carries no measured variances"):
            measured_row(load_paper_anchors()["3.5MHz"])

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

    def test_file_holding_an_array_is_refused(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_text(json.dumps([{"statistical_error": 0.1}]))
        with pytest.raises(ValueError, match="does not hold a JSON object"):
            load_paper_anchors(str(path))

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_text('{"a": ')
        with pytest.raises(ValueError) as info:
            load_paper_anchors(str(path))
        assert str(info.value) == f"{path}: Expecting value: line 1 column 7 (char 6)"

    def test_file_not_in_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "anchors.json"
        path.write_bytes(b"\xff")
        with pytest.raises(ValueError) as info:
            load_paper_anchors(str(path))
        assert str(info.value) == (
            f"{path}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        )


class TestIngestFile:
    def test_refused_file_raises_before_any_chunk_is_asked_for(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="unexpected header"):
            spectra.ingest_file(str(path))

    def test_chunks_are_the_writers_text(self, tmp_path):
        path = tmp_path / "spectra.csv"
        path.write_text(SAMPLE_CSV)
        derived = _derive(parse_spectra(SAMPLE_CSV))
        assert b"".join(spectra.ingest_file(str(path))).decode() == derived_to_csv_text(derived)
        assert (
            b"".join(spectra.ingest_file(str(path), json=True)).decode()
            == derived_to_json_text(derived)
        )

    @pytest.mark.parametrize("label", ["nanMHz", "-1MHz", "0MHz", "infMHz", "abcMHz", "6.5"])
    def test_label_must_be_a_positive_frequency(self, tmp_path, label):
        path = tmp_path / "anchors.json"
        payload = {"order": ["xp", "xm", "yp", "ym"], "matrix": np.eye(4).tolist()}
        path.write_text(json.dumps({"statistical_error": 0.1, label: payload}))
        with pytest.raises(ValueError, match=f"anchor '{re.escape(label)}': "):
            load_paper_anchors(str(path))


def _db_formula(x: float) -> float:
    """``10.0 ** (x / 10.0)``, the csv reader's conversion, or inf where it overflows."""
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        return math.inf


def db_sweep(seed: int, count: int, piece: int = 6 << 16) -> list[str]:
    """``count`` seeded dB cells, a third on [-3300, 3100], a third on [-30, 30]
    and a third on [-0.01, 0.01], drawn ``piece`` at a time, then every 0.1 dB
    step from -3300 to 3100, through :func:`spectra._read_table`: each cell
    the reader does not convert to the bits of ``10.0 ** (x / 10.0)``, or whose
    refusal (of a value that overflows, or converts to 0) is not the csv
    reader's message.  A warning, such as numpy's of an overflow, raises."""
    rng = np.random.default_rng(seed)
    found = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in range(0, count, piece):
            size = min(piece, count - start)
            third = size // 3
            found += _db_cells(np.concatenate([
                rng.uniform(-3300.0, 3100.0, size - 2 * third),
                rng.uniform(-30.0, 30.0, third),
                rng.uniform(-0.01, 0.01, third),
            ]).tolist())
        found += _db_cells((np.arange(-33000, 31001) / 10.0).tolist())
    return found


def _db_cells(cells: list[float]) -> list[str]:
    """:func:`db_sweep`'s check of ``cells``: those the formula takes to a
    positive finite value are read in one file, six to a row; every other
    cell is read alone, in a row of 0 dB cells, which the reader must refuse."""
    expected = list(map(_db_formula, cells))
    kept = [(x, want) for x, want in zip(cells, expected) if 0.0 < want < math.inf]
    kept += [(0.0, 1.0)] * (-len(kept) % 6)  # whole rows
    lines = [
        f"{row + 1},{','.join(repr(x) for x, _ in kept[6 * row : 6 * row + 6])}"
        for row in range(len(kept) // 6)
    ]
    table = spectra._read_table(HEADER + "\n" + "\n".join(lines) + "\n", "dB")
    assert table[:, 0].tolist() == list(range(1, len(lines) + 1))
    found = [
        f"{x!r} dB: {got!r}, not {want!r}"
        for (x, want), got in zip(kept, table[:, 1:].ravel().tolist())
        if got.hex() != want.hex()
    ]
    for x, want in zip(cells, expected):
        if 0.0 < want < math.inf:
            continue
        message = (f"'{x!r}' dB is out of range" if want == math.inf
                   else "must be positive and finite, got 0.0")
        try:
            spectra._read_table(f"{HEADER}\n1.0,0.0,0.0,0.0,0.0,0.0,{x!r}\n", "dB")
        except ValueError as exc:
            if not str(exc).endswith(message):
                found.append(f"{x!r} dB: refused with {exc}")
        else:
            found.append(f"{x!r} dB: read, though 10.0 ** (x / 10.0) is {want!r}")
    return found


# Cells that the reader's vector path leaves to float(): exponents, spaces,
# signs, underscores, infinities and nan, 20 and 21 digits, a point at
# either end or none, 9 digits before the point.
FLOAT_CELLS = ["1e-05", "-2.5E+300", " 1.5", "1.5\t", "+1.5", "1_0.5", "inf", "-inf", "nan",
               "1.2345678901234567890", "-12.345678901234567890", ".5", "-.5", "5.", "5", "-5",
               "123456789.5", "00000000001.5"]
# 2^53 - 1, 2^53 and 2^53 + 1 as w, 19 digits, 20 digits, both zeros,
# 0.1 + 0.2, and the widest and narrowest w of the vector path.
EDGE_CELLS = ["9007199254740993.0", "0.9007199254740991", "0.9007199254740992",
              "0.9007199254740993", "-9.007199254740993", "99999999.99999999999",
              "0.1234567890123456789", "0.0", "-0.0", "0.30000000000000004",
              "1.000000000000000000", "0.000000000000000001", "12345678.12345678901",
              "-0.999999999999999999", "1.0", "-1.5"]


def _is_vector_cell(cell: str) -> bool:
    """Whether ``cell`` has the form the reader reads by word: [-]D+.D+, at
    most 8 digits before the point and 19 in all."""
    return re.fullmatch(r"-?(\d{1,8})\.(\d+)", cell) is not None and len(cell.lstrip("-")) <= 20


def ambiguous_cells(count: int, seed: int = 39) -> list[str]:
    """``count`` seeded cells of the vector path, w 10^-f with w >= 2^53, whose
    first Eisel–Lemire product, the high word of w (shifted to fill 64 bits)
    times that of fast_float's 128-bit 5^-f, ends in nine 1 bits: where the
    reader must leave the cell to float().  Found by search, in Python integers."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        after = rng.randint(8, 18)
        before = rng.randint(max(1, 16 - after), min(8, 19 - after))
        w = rng.randrange(2**53, 10 ** (before + after))
        five = 5**after
        table = ((1 << (five - 1).bit_length() + 127) // five + 1) >> 64
        high = (w << 64 - w.bit_length()) * table >> 64
        if high & 0x1FF == 0x1FF:
            digits = str(w).rjust(before + after, "0")
            found.append(digits[:before] + "." + digits[before:])
    return found


def reader_sweep(seed: int, count: int, piece: int = 7 << 16) -> list[str]:
    """``count`` seeded cells, seven to a line, ``piece`` a file, through
    :func:`read_cells`: the edge cells, the searched ones and every kind that
    float() reads alone, then reprs of ±10^U(-20, 20), with a tenth short
    decimals and one in a hundred replaced by a cell of :data:`FLOAT_CELLS`.
    Each cell whose value in the raw table is not float()'s bits."""
    rng = np.random.default_rng(seed)
    fixed = EDGE_CELLS + ambiguous_cells(16) + FLOAT_CELLS
    found = []
    for start in range(0, count, piece):
        size = min(piece, count - start)
        values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-20.0, 20.0, size)
        cells = list(map(repr, values.tolist()))
        for at in np.flatnonzero(rng.random(size) < 0.1).tolist():
            cells[at] = f"{math.fmod(values[at], 1000.0):.{at % 6 + 1}f}"
        for at in np.flatnonzero(rng.random(size) < 0.01).tolist():
            cells[at] = FLOAT_CELLS[at % len(FLOAT_CELLS)]
        if not start:
            cells[: len(fixed)] = fixed
        cells += ["1.0"] * (-len(cells) % 7)
        lines = [",".join(cells[row : row + 7]) for row in range(0, len(cells), 7)]
        table = read_cells(HEADER + "\n" + "\n".join(lines) + "\n", len(HEADER) + 1, 7,
                           csv.field_size_limit())
        if table is None:
            return [f"piece at {start}: refused"]
        expected = np.array(list(map(float, cells))).view(np.uint64)
        for at in np.flatnonzero(table.ravel().view(np.uint64) != expected).tolist():
            found.append(f"{cells[at]!r}: {table.flat[at]!r}, not {float(cells[at])!r}")
    return found


if __name__ == "__main__":
    found = db_sweep(seed=1, count=10**7)
    print(f"{len(found)} mismatches in 10000000 dB cells at seed 1", *found[:20], sep="\n")
    read = reader_sweep(seed=1, count=10**7)
    print(f"{len(read)} mismatches in 10000000 reader cells at seed 1", *read[:20], sep="\n")
    sys.exit(1 if found or read else 0)
