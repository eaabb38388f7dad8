import builtins
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import alps
from alps import core
from alps.cli import main
from alps.errors import ConfigError
from alps.timeseries import TimeSeries, read_timeseries, write_timeseries

runner = CliRunner()


def run(*args):
    return runner.invoke(main, [str(a) for a in args])


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = {name: np.array([float(r[i]) for r in data]) for i, name in enumerate(header)}
    return cols


@pytest.fixture()
def gl_data(tmp_path):
    data = tmp_path / "data.csv"
    truth = tmp_path / "truth.csv"
    result = run("synth", "gramacy-lee", "--n", 60, "--seed", 3,
                 "--out", data, "--truth-out", truth)
    assert result.exit_code == 0, result.output
    return data, truth


class TestFitPredict:
    def test_round_trip_bit_exact(self, tmp_path, gl_data):
        data, _ = gl_data
        model_path = tmp_path / "model.json"
        result = run("fit", data, "--model-out", model_path)
        assert result.exit_code == 0, result.output
        assert "lambda_hat=" in result.output

        pred_path = tmp_path / "pred.csv"
        deriv_path = tmp_path / "deriv.csv"
        result = run("predict", model_path, "--at", data,
                     "--out", pred_path, "--derivative-out", deriv_path)
        assert result.exit_code == 0, result.output

        series = read_timeseries(data)
        model = core.fit(series)
        band = core.predict(model, series.times)
        cols = read_csv_columns(pred_path)
        assert np.array_equal(cols["mean"], band.mean)
        assert np.array_equal(cols["std"], band.std)
        assert np.array_equal(cols["ci_lo"], band.lower)
        dband = core.predict_derivative(model, series.times)
        dcols = read_csv_columns(deriv_path)
        assert np.array_equal(dcols["mean"], dband.mean)

    def test_grid_prediction(self, tmp_path, gl_data):
        data, _ = gl_data
        model_path = tmp_path / "model.json"
        run("fit", data, "--model-out", model_path)
        out = tmp_path / "grid.csv"
        result = run("predict", model_path, "--grid", 25, "--out", out)
        assert result.exit_code == 0
        cols = read_csv_columns(out)
        assert cols["epoch"].size == 25

    def test_invalid_q_rejected_before_output(self, tmp_path, gl_data):
        data, _ = gl_data
        model_path = tmp_path / "model.json"
        result = run("fit", data, "--q", 4, "--model-out", model_path)
        assert result.exit_code == 2
        assert not model_path.exists()
        assert result.stderr.count("\n") == 1
        assert "error: ConfigError:" in result.stderr

    def test_config_error_line_is_the_librarys(self, gl_data):
        data, _ = gl_data
        with pytest.raises(ConfigError) as err:
            core.FitConfig(q=4)
        result = run("fit", data, "--q", 4)
        assert result.exit_code == 2
        assert result.stderr == f"error: ConfigError: {err.value}\n"

    def test_too_few_distinct_epochs_for_q_exits_2(self, tmp_path):
        data = tmp_path / "two_epochs.csv"
        t = np.repeat([2000.0, 2001.0], 8)
        write_timeseries(data, TimeSeries(t, np.random.default_rng(0).normal(size=t.size)))
        result = run("fit", data, "--q", 3)
        assert result.exit_code == 2
        assert result.stderr.count("\n") == 1
        assert result.stderr.startswith("error: InsufficientDataError: ")

    def test_missing_input_is_parse_error(self, tmp_path):
        result = run("fit", tmp_path / "nope.csv")
        assert result.exit_code == 3

    @pytest.mark.parametrize("field, value", [("sigma2", "NaN"), ("sigma2", "-2.0"),
                                              ("df_res", "0.0"), ("df_res", "-1.0")])
    def test_model_that_gives_broken_bands_is_a_parse_error(self, tmp_path, gl_data,
                                                            field, value):
        data, _ = gl_data
        model_path = tmp_path / "model.json"
        run("fit", data, "--model-out", model_path)
        doc = json.loads(model_path.read_text())
        doc[field] = "@"
        model_path.write_text(json.dumps(doc).replace('"@"', value))
        out = tmp_path / "grid.csv"
        result = run("predict", model_path, "--grid", 5, "--out", out)
        assert result.exit_code == 3
        assert "error: ParseError:" in result.stderr
        assert not out.exists()

    def test_model_with_a_degree_fit_rejects_is_a_parse_error(self, tmp_path, gl_data):
        data, _ = gl_data
        model_path = tmp_path / "model.json"
        run("fit", data, "--model-out", model_path)
        doc = json.loads(model_path.read_text())
        c = len(doc["knots"])  # m + 2p + 1 knots with p = -1
        doc.update(p=-1, m=c + 1, theta=[0.0] * c, normal_factor=np.eye(c).tolist())
        model_path.write_text(json.dumps(doc))
        result = run("predict", model_path, "--grid", 5, "--out", tmp_path / "grid.csv")
        assert result.exit_code == 3
        assert "error: ParseError: malformed model document: degree p" in result.stderr

    def test_out_of_domain_prediction_exit_code(self, tmp_path, gl_data):
        data, _ = gl_data
        model_path = tmp_path / "model.json"
        run("fit", data, "--model-out", model_path)
        epochs = tmp_path / "epochs.csv"
        epochs.write_text("time,value\n99.0,0\n")
        result = run("predict", model_path, "--at", epochs, "--out", tmp_path / "x.csv")
        assert result.exit_code == 5

    def test_batch_mode_matches_single_runs(self, tmp_path):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        for seed in (1, 2):
            run("synth", "gramacy-lee", "--n", 40, "--seed", seed,
                "--out", batch_dir / f"s{seed}.csv")
        out_dir = tmp_path / "models"
        result = run("fit", batch_dir, "--batch", "--out-dir", out_dir)
        assert result.exit_code == 0, result.output
        for seed in (1, 2):
            batch_doc = json.loads((out_dir / f"s{seed}.model.json").read_text())
            single = core.fit(read_timeseries(batch_dir / f"s{seed}.csv"))
            assert batch_doc["theta"] == single.theta.tolist()

    def test_batch_keeps_going_past_a_failing_file(self, tmp_path):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        for name, seed in (("a", 1), ("c", 2), ("e", 3)):
            run("synth", "gramacy-lee", "--n", 40, "--seed", seed,
                "--out", batch_dir / f"{name}.csv")
        (batch_dir / "b.csv").write_text("time,value\n2001.0,1.0\nabc,2.0\n")
        (batch_dir / "d.csv").write_bytes(b"time,value\n2001.0,1.0\n2002.0,\xff\xfe\n")
        out_dir = tmp_path / "models"
        (out_dir / "e.model.json").mkdir(parents=True)  # e's model cannot be written
        result = run("fit", batch_dir, "--batch", "--out-dir", out_dir)
        assert result.exit_code == 3  # b.csv's, the first failure in sorted order
        models = sorted(p.name for p in out_dir.iterdir() if p.is_file())
        assert models == ["a.model.json", "c.model.json"]
        reports = result.stdout.splitlines()
        assert [line.split(":")[0] for line in reports] == ["a.csv", "c.csv"]
        errors = result.stderr.splitlines()
        assert len(errors) == 3
        assert errors[0].startswith("b.csv: error: ParseError: ")
        assert errors[1].startswith("d.csv: error: ParseError: ")
        assert errors[2].startswith("e.csv: error: IsADirectoryError: ")

    def test_batch_rejects_a_bad_config_before_reading_a_file(self, tmp_path, monkeypatch):
        batch_dir = tmp_path / "batch"
        batch_dir.mkdir()
        run("synth", "gramacy-lee", "--n", 40, "--out", batch_dir / "a.csv")
        reads = []
        monkeypatch.setattr("alps.cli.read_timeseries", reads.append)
        with pytest.raises(ConfigError) as err:
            core.FitConfig(q=4)
        out_dir = tmp_path / "models"
        result = run("fit", batch_dir, "--batch", "--out-dir", out_dir, "--q", 4)
        assert result.exit_code == 2
        assert result.stderr == f"error: ConfigError: {err.value}\n"
        assert reads == []
        assert not out_dir.exists()

    def test_batch_requires_out_dir(self, tmp_path):
        result = run("fit", tmp_path, "--batch")
        assert result.exit_code == 2


class TestOutliersCommand:
    def test_flags_written(self, tmp_path):
        rng = np.random.default_rng(7000)
        camp = np.sort(rng.uniform(0, 1, 50)); camp[0], camp[-1] = 0, 1
        t = np.repeat(camp, 3)
        y = np.sin(2 * np.pi * t) + 0.5 * t + rng.normal(0, 0.1, 150)
        idx = [30, 70, 110]
        y[idx] += 1.0
        data = tmp_path / "spiked.csv"
        write_timeseries(data, TimeSeries(t, y))
        flags = tmp_path / "flags.csv"
        result = run("outliers", data, "--flags-out", flags,
                     "--model-out", tmp_path / "clean.json",
                     "--clean-out", tmp_path / "clean.csv")
        assert result.exit_code == 0, result.output
        with open(flags) as fh:
            rows = list(csv.DictReader(fh))
        flagged = {int(r["index"]) for r in rows}
        assert set(idx) <= flagged

    def test_m_scan_reaches_every_fit(self, tmp_path, monkeypatch):
        # Long enough for the strided scan to differ from the exhaustive one.
        series, _ = alps.synth.gramacy_lee_series(n=520, noise_sd=0.05, seed=1)
        data = tmp_path / "long.csv"
        write_timeseries(data, series)
        scans, fit = [], core.fit

        def spy(data, config):
            scans.append(config.m_scan)
            return fit(data, config)

        monkeypatch.setattr(core, "fit", spy)
        # Thresholds this low make both levels flag, so both refits run.
        result = run("outliers", data, "--m-scan", "strided",
                     "--threshold1", 0.5, "--threshold2", 0.5,
                     "--flags-out", tmp_path / "flags.csv")
        assert result.exit_code == 0, result.output
        with open(tmp_path / "flags.csv") as fh:
            levels = {int(r["level"]) for r in csv.DictReader(fh)}
        assert levels == {1, 2}
        assert scans == ["strided"] * 3


class TestFuseCommand:
    def test_reconstruction_written(self, tmp_path):
        obs, dense = tmp_path / "obs.csv", tmp_path / "dense.csv"
        result = run("synth", "fusion", "--seed", 0, "--obs-out", obs,
                     "--dense-out", dense)
        assert result.exit_code == 0
        out = tmp_path / "recon.csv"
        result = run("fuse", obs, dense, "--out", out)
        assert result.exit_code == 0, result.output
        cols = read_csv_columns(out)
        assert set(cols) == {"epoch", "mean", "std", "ci_lo", "ci_hi"}
        assert cols["epoch"].size > 100

    def test_coverage_error_exit_code(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("time,value\n1990.0,1\n2001.0,2\n2002.0,3\n2003.0,2\n2004.0,1\n2005.0,0\n")
        dense = tmp_path / "dense.csv"
        dense.write_text("time,value\n" + "".join(
            f"{2000 + 0.1 * k},0.0\n" for k in range(60)))
        result = run("fuse", obs, dense, "--out", tmp_path / "r.csv")
        assert result.exit_code == 5


class TestCompareCommand:
    def test_emits_expected_rows(self, tmp_path, gl_data):
        data, truth = gl_data
        out = tmp_path / "compare.csv"
        result = run("compare", data, "--truth", truth, "--out", out)
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        names = [r["model"] for r in rows]
        assert names == ["alps", "poly2", "poly3", "poly4", "poly5", "interp"]
        by_name = {r["model"]: r for r in rows}
        assert float(by_name["interp"]["rmse_data"]) == pytest.approx(0.0, abs=1e-12)
        # the penalized fit generalizes better than the stiff quadratic
        assert float(by_name["alps"]["rmse_truth"]) < float(by_name["poly2"]["rmse_truth"])


class TestSynthCommand:
    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("synth", "gramacy-lee", "--n", 30, "--seed", 11, "--out", a)
        run("synth", "gramacy-lee", "--n", 30, "--seed", 11, "--out", b)
        assert a.read_text() == b.read_text()
        c = tmp_path / "c.csv"
        run("synth", "gramacy-lee", "--n", 30, "--seed", 12, "--out", c)
        assert a.read_text() != c.read_text()

    def test_argument_validation(self, tmp_path):
        result = run("synth", "gramacy-lee", "--n", 1, "--out", tmp_path / "x.csv")
        assert result.exit_code == 2
        result = run("synth", "fusion", "--noise", -1, "--obs-out", tmp_path / "o.csv",
                     "--dense-out", tmp_path / "d.csv")
        assert result.exit_code == 2


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A series (alone in ``batch/``), its model and a fusion pair."""
    d = tmp_path_factory.mktemp("inputs")
    (d / "batch").mkdir()
    for args in (["synth", "gramacy-lee", "--n", 60, "--seed", 3, "--out", d / "batch/s.csv"],
                 ["fit", d / "batch/s.csv", "--model-out", d / "model.json"],
                 ["synth", "fusion", "--obs-out", d / "obs.csv", "--dense-out", d / "dense.csv"]):
        assert run(*args).exit_code == 0
    return {"series": d / "batch/s.csv", "batch": d / "batch", "model": d / "model.json",
            "obs": d / "obs.csv", "dense": d / "dense.csv"}


# Each command with one output flag set to BAD; the others are writable.
OUTPUT_FLAGS = [
    ["fit", "{series}", "--model-out", "BAD"],
    ["fit", "{batch}", "--batch", "--out-dir", "BAD"],
    ["predict", "{model}", "--grid", 50, "--out", "BAD"],
    ["predict", "{model}", "--grid", 50, "--out", "v.csv", "--derivative-out", "BAD"],
    ["outliers", "{series}", "--flags-out", "BAD"],
    ["outliers", "{series}", "--flags-out", "f.csv", "--model-out", "BAD"],
    ["outliers", "{series}", "--flags-out", "f.csv", "--clean-out", "BAD"],
    ["fuse", "{obs}", "{dense}", "--out", "BAD"],
    ["compare", "{series}", "--out", "BAD"],
    ["synth", "gramacy-lee", "--out", "BAD"],
    ["synth", "gramacy-lee", "--out", "s.csv", "--truth-out", "BAD"],
    ["synth", "fusion", "--obs-out", "BAD", "--dense-out", "d.csv"],
    ["synth", "fusion", "--obs-out", "o.csv", "--dense-out", "BAD"],
    ["synth", "fusion", "--obs-out", "o.csv", "--dense-out", "d.csv", "--truth-out", "BAD"],
]


def flag_id(args):
    return " ".join([a for a in args[:2] if not a.startswith("{")] + [args[args.index("BAD") - 1]])


@pytest.mark.parametrize("args", OUTPUT_FLAGS, ids=flag_id)
def test_an_output_that_cannot_be_written_exits_1_with_one_error_line(
        tmp_path, monkeypatch, inputs, args):
    monkeypatch.chdir(tmp_path)
    # A path in a missing directory; an output directory that is a file.
    bad = "missing/out"
    if "--out-dir" in args:
        bad = "taken"
        (tmp_path / bad).write_text("")
    result = run(*[bad if a == "BAD" else str(a).format(**inputs) for a in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    line = re.fullmatch(r"error: (\w+): [^\n]+\n", result.stderr)
    assert line, result.stderr
    assert issubclass(getattr(builtins, line[1]), OSError)


def overflowing_series(path, seed):
    series, _ = alps.synth.gramacy_lee_series(n=40, noise_sd=0.05, seed=seed)
    write_timeseries(path, series.with_values(series.values * 1e155))


def run_alps(cwd, *args):
    src = str(Path(alps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "alps.cli", *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def test_values_whose_squares_overflow_exit_2_with_one_error_line(tmp_path):
    overflowing_series(tmp_path / "big.csv", 4)
    proc = run_alps(tmp_path, "fit", "big.csv")
    assert proc.returncode == 2
    assert re.fullmatch(r"error: InvalidInputError: [^\n]+\n", proc.stderr), proc.stderr


def test_batch_goes_on_past_a_file_whose_squares_overflow(tmp_path):
    batch_dir = tmp_path / "batch"
    batch_dir.mkdir()
    overflowing_series(batch_dir / "a.csv", 4)
    for name, seed in (("b", 1), ("c", 2)):
        run("synth", "gramacy-lee", "--n", 40, "--seed", seed, "--out", batch_dir / f"{name}.csv")
    proc = run_alps(tmp_path, "fit", "batch", "--batch", "--out-dir", "models")
    assert proc.returncode == 2
    assert sorted(p.name for p in (tmp_path / "models").iterdir()) == [
        "b.model.json", "c.model.json"]
    # The other fits may log a lambda on a grid end; the one error is a.csv's.
    [error] = [line for line in proc.stderr.splitlines() if not line.startswith("WARNING:")]
    assert error.startswith("a.csv: error: InvalidInputError: ")


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, alps.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(alps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"


def test_predict_never_loads_scipy(tmp_path):
    series, _ = alps.synth.gramacy_lee_series(n=60, noise_sd=0.1, seed=2)
    core.save_model(core.fit(series), tmp_path / "m.json")
    code = (
        "import sys, alps, alps.cli\n"
        "alps.cli.main(['predict', 'm.json', '--grid', '500', '--out', 'v.csv',\n"
        "               '--derivative-out', 'r.csv'], standalone_mode=False)\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(alps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"
    assert len(read_csv_columns(tmp_path / "r.csv")["epoch"]) == 500


@pytest.mark.parametrize("command", [
    ["fit", "s.csv"],
    ["fit", ".", "--batch", "--out-dir", "models"],
    ["outliers", "s.csv", "--flags-out", "flags.csv"],
])
def test_lambda_on_a_grid_end_is_a_warning_on_stderr(tmp_path, command):
    # Criterion-5 seed 1 selects the default grid's lower end exactly.
    series, _ = alps.synth.gramacy_lee_series(n=150, noise_sd=0.05, seed=1)
    write_timeseries(tmp_path / "s.csv", series)
    proc = run_alps(tmp_path, *command)
    assert proc.returncode == 0, proc.stderr
    warning = "WARNING:alps.core:lambda_hat=0.0001 (m_hat="
    assert warning in proc.stderr and "lower end of the lambda grid" in proc.stderr
    assert "WARNING" not in proc.stdout
