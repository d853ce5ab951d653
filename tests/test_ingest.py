"""Calibration and CSV ingestion."""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hubrelease.ingest import (
    HourlyCounts,
    IngestError,
    parse_counts_csv,
    parse_pmf_csv,
    to_lambda,
)


class TestToLambda:
    def test_reference_corridor_calibration(self):
        # 330 veh/h of which 120 stop, 5 s steps: lam = 120 * 5 / 3600 = 1/6.
        counts = HourlyCounts(hour_of_day=8, vehicles_per_hour=330.0)
        lam = to_lambda(counts, stop_fraction=120.0 / 330.0, step_seconds=5.0)
        assert lam == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_zero_count_gives_zero_rate(self):
        counts = HourlyCounts(hour_of_day=3, vehicles_per_hour=0.0)
        assert to_lambda(counts, 0.5, 5.0) == 0.0

    def test_everyone_stops_hour_long_step(self):
        counts = HourlyCounts(hour_of_day=0, vehicles_per_hour=720.0)
        assert to_lambda(counts, 1.0, 3600.0) == pytest.approx(720.0)

    def test_stop_fraction_bounds(self):
        counts = HourlyCounts(0, 100.0)
        with pytest.raises(ValueError):
            to_lambda(counts, -0.1, 5.0)
        with pytest.raises(ValueError):
            to_lambda(counts, 1.1, 5.0)

    def test_step_must_be_positive(self):
        counts = HourlyCounts(0, 100.0)
        with pytest.raises(ValueError):
            to_lambda(counts, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_step_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="step_seconds"):
            to_lambda(HourlyCounts(0, 100.0), 0.5, bad)

    @given(
        vph=st.floats(min_value=0.0, max_value=1e5),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        step=st.floats(min_value=1e-3, max_value=3600.0),
    )
    def test_linear_in_every_factor(self, vph, fraction, step):
        counts = HourlyCounts(12, vph)
        lam = to_lambda(counts, fraction, step)
        assert lam >= 0.0
        assert math.isclose(
            lam, vph * fraction * step / 3600.0, rel_tol=1e-12, abs_tol=0.0
        )

    def test_hour_range_enforced(self):
        with pytest.raises(ValueError):
            HourlyCounts(24, 10.0)
        with pytest.raises(ValueError):
            HourlyCounts(-1, 10.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            HourlyCounts(5, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_count_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            HourlyCounts(5, bad)


class TestParseCountsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,count\n7,120\n8,330\n9,280.5\n")
        rows = parse_counts_csv(str(path))
        assert rows == [
            HourlyCounts(7, 120.0),
            HourlyCounts(8, 330.0),
            HourlyCounts(9, 280.5),
        ]

    def test_whitespace_and_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("Hour , Count\n\n  8 ,  330 \n\n")
        rows = parse_counts_csv(str(path))
        assert rows == [HourlyCounts(8, 330.0)]

    def test_bad_hour_reports_line_number(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,count\n8,330\nnoon,12\n")
        with pytest.raises(IngestError, match=r"line 3.*'noon'"):
            parse_counts_csv(str(path))

    def test_bad_count_reports_line_number(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,count\n8,many\n")
        with pytest.raises(IngestError, match=r"line 2.*'many'"):
            parse_counts_csv(str(path))

    def test_non_finite_count_reports_line_number(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,count\n0,10\n1,nan\n")
        with pytest.raises(IngestError, match=r"line 3.*finite"):
            parse_counts_csv(str(path))

    def test_duplicate_hour_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,count\n8,330\n8,331\n")
        with pytest.raises(IngestError, match=r"line 3.*already given on line 2"):
            parse_counts_csv(str(path))

    def test_out_of_range_hour_reports_line(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,count\n25,330\n")
        with pytest.raises(IngestError, match=r"line 2"):
            parse_counts_csv(str(path))

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hr,n\n8,330\n")
        with pytest.raises(IngestError, match="expected header"):
            parse_counts_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,count\n")
        with pytest.raises(IngestError, match="no data rows"):
            parse_counts_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty"):
            parse_counts_csv(str(path))

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a leading U+FEFF.
        path = tmp_path / "counts.csv"
        path.write_bytes("\ufeffhour,count\n8,330\n".encode())
        assert parse_counts_csv(str(path)) == [HourlyCounts(8, 330.0)]

    def test_an_oversized_field_reports_line_number(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(f"hour,count\n8,330\n9,{'9' * 200_000}\n")
        with pytest.raises(IngestError, match=r"^line 3: field larger than field limit"):
            parse_counts_csv(str(path))

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("hour,count\n8,330,extra\n")
        with pytest.raises(IngestError, match=r"line 2.*expected 2 fields"):
            parse_counts_csv(str(path))


class TestParsePmfCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pmf.csv"
        path.write_text("count,probability\n0,0.5\n1,0.25\n3,0.25\n")
        assert parse_pmf_csv(str(path)) == [(0, 0.5), (1, 0.25), (3, 0.25)]

    def test_bad_probability_reports_line(self, tmp_path):
        path = tmp_path / "pmf.csv"
        path.write_text("count,probability\n0,half\n")
        with pytest.raises(IngestError, match=r"line 2.*'half'"):
            parse_pmf_csv(str(path))

    def test_fractional_count_rejected(self, tmp_path):
        path = tmp_path / "pmf.csv"
        path.write_text("count,probability\n1.5,0.5\n")
        with pytest.raises(IngestError, match=r"line 2.*'1.5'"):
            parse_pmf_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "pmf.csv"
        path.write_text("count,probability\n\n")
        with pytest.raises(IngestError, match="^file has a header but no data rows$"):
            parse_pmf_csv(str(path))

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "pmf.csv"
        path.write_bytes("\ufeffcount,probability\n0,0.5\n2,0.5\n".encode())
        assert parse_pmf_csv(str(path)) == [(0, 0.5), (2, 0.5)]
