import csv

import numpy as np
import pytest

from click.testing import CliRunner

from alps import cli, core, outliers
from alps.errors import InvalidInputError, ParseError
from alps.timeseries import FLOAT_FMT, TimeSeries, read_timeseries, write_timeseries


class TestTimeSeries:
    def test_sorted_on_construction_with_pairing(self):
        series = TimeSeries(np.array([3.0, 1.0, 2.0]), np.array([30.0, 10.0, 20.0]),
                            sigma=np.array([0.3, 0.1, 0.2]))
        np.testing.assert_array_equal(series.times, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(series.values, [10.0, 20.0, 30.0])
        np.testing.assert_array_equal(series.sigma, [0.1, 0.2, 0.3])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TimeSeries(np.array([]), np.array([]))
        with pytest.raises(InvalidInputError):
            TimeSeries(np.array([0.0, np.nan]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            TimeSeries(np.array([0.0]), np.array([1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]), sigma=np.array([0.1]))


class TestReadTimeseries:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("time,value\n2000.5,1.25\n2001.5,2.5\n")
        series = read_timeseries(path)
        assert len(series) == 2
        np.testing.assert_array_equal(series.times, [2000.5, 2001.5])
        assert series.sigma is None

    def test_unsorted_input_sorted_with_pairing(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("time,value\n2002,20\n2000,0\n2001,10\n")
        series = read_timeseries(path)
        np.testing.assert_array_equal(series.times, [2000, 2001, 2002])
        np.testing.assert_array_equal(series.values, [0, 10, 20])

    def test_sigma_attached_but_fit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0, 1, 30))
        y = np.sin(2 * np.pi * t) + rng.normal(0, 0.1, 30)
        plain, with_sigma = tmp_path / "a.csv", tmp_path / "b.csv"
        write_timeseries(plain, TimeSeries(t, y))
        write_timeseries(with_sigma, TimeSeries(t, y, sigma=np.full(30, 0.1)))
        s1, s2 = read_timeseries(plain), read_timeseries(with_sigma)
        assert s2.sigma is not None
        m1, m2 = core.fit(s1), core.fit(s2)
        assert m1.lambda_hat == m2.lambda_hat
        assert np.array_equal(m1.theta, m2.theta)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("time,value\n2000,1\n2001,oops\n")
        with pytest.raises(ParseError, match="line 3"):
            read_timeseries(path)
        path.write_text("time,value\n2000,1,9\n")
        with pytest.raises(ParseError, match="line 2"):
            read_timeseries(path)

    def test_empty_and_headerless_files(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_timeseries(path)
        path.write_text("epoch,thing\n1,2\n")
        with pytest.raises(ParseError, match="header"):
            read_timeseries(path)
        path.write_text("time,value\n")
        with pytest.raises(ParseError, match="no data"):
            read_timeseries(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_timeseries(tmp_path / "nope.csv")

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        series = TimeSeries(np.sort(rng.uniform(0, 1, 20)), rng.normal(size=20),
                            sigma=rng.uniform(0.01, 0.2, 20))
        path = tmp_path / "rt.csv"
        write_timeseries(path, series)
        back = read_timeseries(path)
        assert np.array_equal(back.times, series.times)
        assert np.array_equal(back.values, series.values)
        assert np.array_equal(back.sigma, series.sigma)


def csv_writer_bytes(path, header, columns):
    """The file csv.writer writes for these rows, each value in ``str.format``'s
    17-digit spelling, which FLOAT_FMT's printf spelling must match."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow(["{:.17g}".format(v) for v in row])
    return path.read_bytes()


HOSTILE = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                    2.2250738585072014e-308, 0.1, -2.5, 2009.9999999999998, 1e16, -7.0])


class TestCsvBytes:
    """The one-pass writers against csv.writer, byte for byte."""

    @pytest.mark.parametrize("with_sigma", [False, True])
    def test_write_timeseries(self, tmp_path, with_sigma):
        rng = np.random.default_rng(5)
        values, sigma = rng.permutation(HOSTILE), rng.permutation(HOSTILE)
        series = TimeSeries(np.arange(HOSTILE.size) + 2000.5, values,
                            np.abs(sigma) if with_sigma else None)
        write_timeseries(tmp_path / "new.csv", series)
        header, columns = ["time", "value"], [series.times, series.values]
        if with_sigma:
            header, columns = header + ["sigma"], columns + [series.sigma]
        expected = csv_writer_bytes(tmp_path / "ref.csv", header, columns)
        assert (tmp_path / "new.csv").read_bytes() == expected

    def test_band(self, tmp_path):
        rng = np.random.default_rng(6)
        band = core.PredictionBand(
            epochs=HOSTILE, mean=rng.permutation(HOSTILE), std=np.abs(rng.permutation(HOSTILE)),
            half_width=rng.permutation(HOSTILE), alpha=0.05)
        cli._write_band(tmp_path / "new.csv", band)
        expected = csv_writer_bytes(
            tmp_path / "ref.csv", ["epoch", "mean", "std", "ci_lo", "ci_hi"],
            [band.epochs, band.mean, band.std, band.lower, band.upper])
        assert (tmp_path / "new.csv").read_bytes() == expected

    @pytest.mark.parametrize("threshold", [None, 1e9])
    def test_flags(self, tmp_path, threshold):
        # Spiked campaign data flags points at the default thresholds, and
        # nothing at 1e9.
        rng = np.random.default_rng(7000)
        t = np.repeat(np.sort(rng.uniform(0, 1, 50)), 3)
        y = np.sin(2 * np.pi * t) + rng.normal(0, 0.1, 150)
        y[[30, 70, 110]] += 1.0
        write_timeseries(tmp_path / "s.csv", TimeSeries(t, y))
        thresholds = [] if threshold is None else ["--threshold1", threshold,
                                                   "--threshold2", threshold]
        result = CliRunner().invoke(cli.main, [str(a) for a in [
            "outliers", tmp_path / "s.csv", *thresholds, "--flags-out", tmp_path / "new.csv"]])
        assert result.exit_code == 0, result.output
        series = read_timeseries(tmp_path / "s.csv")
        report = outliers.detect_and_refit(
            series, core.FitConfig(), *([] if threshold is None else [threshold] * 2))
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "time", "value", "level"])
            for level, flagged in ((1, report.level1_indices), (2, report.level2_indices)):
                for i in flagged:
                    writer.writerow([i, FLOAT_FMT % series.times[i],
                                     FLOAT_FMT % series.values[i], level])
        expected = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.csv").read_bytes() == expected
        assert (expected.count(b"\n") > 1) == (threshold is None)
