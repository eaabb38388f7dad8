"""Time-series container and CSV ingestion.

Epochs are decimal years in all file I/O. Series are sorted by time on
construction; duplicate epochs are preserved.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError

log = logging.getLogger(__name__)

# 17 significant digits round-trips IEEE float64 exactly.
FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (time, value) samples with optional per-point nominal sigma.

    ``sigma`` is carried for reporting only; it does not enter fitting.
    """

    times: np.ndarray
    values: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.shape != times.shape:
            raise InvalidInputError("times and values must be 1-d arrays of equal length")
        if times.size < 1:
            raise InvalidInputError("time series must contain at least one sample")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise InvalidInputError("times and values must be finite")
        sigma = self.sigma
        if sigma is not None:
            sigma = np.asarray(sigma, dtype=float)
            if sigma.shape != times.shape:
                raise InvalidInputError("sigma must match times in length")
        order = np.argsort(times, kind="stable")
        object.__setattr__(self, "times", times[order])
        object.__setattr__(self, "values", values[order])
        object.__setattr__(self, "sigma", None if sigma is None else sigma[order])

    def __len__(self) -> int:
        return self.times.size

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def subset(self, mask: np.ndarray) -> "TimeSeries":
        sigma = None if self.sigma is None else self.sigma[mask]
        return TimeSeries(self.times[mask], self.values[mask], sigma)

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        return TimeSeries(self.times, values, self.sigma)


def read_timeseries(path) -> TimeSeries:
    """Read a ``time,value[,sigma]`` CSV into a sorted TimeSeries.

    Raises ParseError with a 1-based line number on any malformed row.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot open ({exc})") from exc
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            names = [h.strip().lower() for h in header]
            if names[:2] != ["time", "value"] or len(names) > 3 or (
                len(names) == 3 and names[2] != "sigma"
            ):
                raise ParseError(f"{path}: line 1: header must be time,value[,sigma]")
            has_sigma = len(names) == 3
            times, values, sigmas = [], [], []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(names):
                    raise ParseError(f"{path}: line {lineno}: expected {len(names)} fields, got {len(row)}")
                try:
                    times.append(float(row[0]))
                    values.append(float(row[1]))
                    if has_sigma:
                        sigmas.append(float(row[2]))
                except ValueError as exc:
                    raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    if not times:
        raise ParseError(f"{path}: no data rows")
    try:
        series = TimeSeries(
            np.array(times), np.array(values),
            np.array(sigmas) if has_sigma else None,
        )
    except InvalidInputError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    lo, hi = series.span
    log.info("read %d rows from %s spanning [%s, %s]", len(series), path, lo, hi)
    return series


def write_columns(path, header, columns) -> None:
    """Write a CSV of float ``columns`` under ``header`` in one pass, each
    value as FLOAT_FMT: byte for byte what ``csv.writer`` writes for these
    rows (its CRLF line ends, and no quoting, which no header name or
    formatted float needs)."""
    row = ",".join([FLOAT_FMT] * len(columns)) + "\r\n"
    values = zip(*(np.asarray(c).tolist() for c in columns))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row % v for v in values)


def write_timeseries(path, series: TimeSeries) -> None:
    if series.sigma is not None:
        write_columns(path, ["time", "value", "sigma"], [series.times, series.values, series.sigma])
    else:
        write_columns(path, ["time", "value"], [series.times, series.values])
