"""Calibration from hourly traffic counts to per-step arrival rates.

A count station reports vehicles per hour; only a fraction of them stop
at the hub.  With a step of ``step_seconds`` the per-step Poisson rate is

    lam = vehicles_per_hour * stop_fraction * step_seconds / 3600
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

SECONDS_PER_HOUR = 3600.0


class IngestError(ValueError):
    """Malformed calibration input; messages carry 1-based line numbers."""


@dataclass(frozen=True)
class HourlyCounts:
    hour_of_day: int
    vehicles_per_hour: float

    def __post_init__(self) -> None:
        if not 0 <= self.hour_of_day <= 23:
            raise ValueError(f"hour_of_day must be in 0..23, got {self.hour_of_day!r}")
        if not 0 <= self.vehicles_per_hour < math.inf:
            raise ValueError(
                f"vehicles_per_hour must be nonnegative and finite, "
                f"got {self.vehicles_per_hour!r}"
            )


def to_lambda(counts: HourlyCounts, stop_fraction: float, step_seconds: float) -> float:
    """Expected hub arrivals per step for one hour of the day."""
    if not 0.0 <= stop_fraction <= 1.0:
        raise ValueError(f"stop_fraction must be in [0, 1], got {stop_fraction!r}")
    if not 0 < step_seconds < math.inf:
        raise ValueError(f"step_seconds must be positive and finite, got {step_seconds!r}")
    return counts.vehicles_per_hour * stop_fraction * step_seconds / SECONDS_PER_HOUR


def parse_counts_csv(path: str) -> list[HourlyCounts]:
    """Read an ``hour,count`` CSV; whitespace is tolerated, errors carry line numbers."""
    out: list[HourlyCounts] = []
    seen: dict[int, int] = {}
    for line_no, hour, count in _read_rows(path, ("hour", "count")):
        if hour in seen:
            raise IngestError(
                f"line {line_no}: hour {hour} already given on line {seen[hour]}"
            )
        seen[hour] = line_no
        try:
            out.append(HourlyCounts(hour, count))
        except ValueError as exc:
            raise IngestError(f"line {line_no}: {exc}")
    return out


def parse_pmf_csv(path: str) -> list[tuple[int, float]]:
    """Read a ``count,probability`` CSV into pairs for building a pmf."""
    return [(count, prob) for _, count, prob in _read_rows(path, ("count", "probability"))]


def _read_rows(path: str, header: tuple[str, str]) -> list[tuple[int, int, float]]:
    """``(line, integer, number)`` for each data row of a two-column CSV.

    The header names the columns: an integer, then a number.  A byte-order
    mark, as spreadsheets write one, is not part of the header.
    """
    rows: list[tuple[int, int, float]] = []
    header_seen = False
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for raw in reader:
                # The file line the record ended on: a quoted field can hold
                # a newline, so records and lines need not pair up.
                line_no = reader.line_num
                fields = [f.strip() for f in raw]
                if not any(fields):
                    continue
                if not header_seen:
                    if [f.lower() for f in fields] != list(header):
                        raise IngestError(
                            f"line {line_no}: expected header {','.join(header)!r}, "
                            f"got {','.join(fields)!r}"
                        )
                    header_seen = True
                    continue
                if len(fields) != 2:
                    raise IngestError(
                        f"line {line_no}: expected 2 fields, got {len(fields)}"
                    )
                integer_text, number_text = fields
                try:
                    integer = int(integer_text)
                except ValueError:
                    raise IngestError(
                        f"line {line_no}: {header[0]} {integer_text!r} is not an integer"
                    )
                try:
                    number = float(number_text)
                except ValueError:
                    raise IngestError(
                        f"line {line_no}: {header[1]} {number_text!r} is not numeric"
                    )
                rows.append((line_no, integer, number))
        # csv.Error (a field past the size limit) is neither ValueError nor OSError.
        except csv.Error as exc:
            raise IngestError(f"line {reader.line_num}: {exc}")
    if not header_seen:
        raise IngestError("file is empty")
    if not rows:
        raise IngestError("file has a header but no data rows")
    return rows
