"""The benchmark workloads. Each one generates its inputs in ``setup`` and then
runs whole rounds: a round is every operation of the workload once, on
inputs drawn for that round from (seed, round index).

The checks module (and SciPy with it) is imported only when checking, so
that a set-up that does not import the program does not pay for it.

Timings go into ``samples`` (name -> per-operation seconds, or items per
second), from which ``run.py`` takes the end-to-end metrics as medians.
Every operation is counted in ``attempted`` and, if it raises or exits
non-zero, in ``failed``. Outputs are kept per round and checked after the
timed part by ``check``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs

# Rounds a run can hold; inputs for all of them are made during set-up.
MAX_ROUNDS = 12
CHILD_TIMEOUT_S = 120
FAILED = object()


class Workload:
    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed, self.workdir, self.src = seed, workdir, src
        self.samples = defaultdict(list)
        self.attempted = self.failed = 0
        self.outputs = {}
        self.served = {}  # round -> indices of the outputs served by `alps predict`

    def _ops(self, count: int, fn):
        """Run one unit of ``count`` operations and return its result, or
        FAILED if it raised; then every operation of the unit counts as
        failed."""
        self.attempted += count
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += count
            print(f"{self.name}: operation failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return FAILED

    def _cli(self, args, in_process: bool) -> None:
        """`alps <args>`: a `python -m alps.cli` child, or (traced runs)
        the same command in this process so its spans are visible."""
        if in_process:
            from alps import cli
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main.main(args=args, prog_name="alps", standalone_mode=False)
            return
        env = dict(os.environ, PYTHONPATH=str(self.src))
        proc = subprocess.run([sys.executable, "-m", "alps.cli", *args], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")

    def _predict(self, model_path: Path, grid: int, in_process: bool) -> float:
        """`alps predict MODEL --grid N` with value and rate CSVs next to
        the model; returns its wall time."""
        stem = model_path.with_suffix("")
        t0 = time.perf_counter()
        self._cli(["predict", str(model_path), "--grid", str(grid),
                   "--out", f"{stem}.csv", "--derivative-out", f"{stem}.rate.csv"],
                  in_process)
        return time.perf_counter() - t0


def check_predict_outputs(model, ref, model_path: Path, grid: int) -> None:
    """The CSVs of `alps predict MODEL --grid N`: values and rates against
    the independent reference, and bit for bit against an in-process
    load_model + predict."""
    import checks
    from alps import core
    stem = model_path.with_suffix("")
    loaded = core.load_model(model_path)
    epochs = np.linspace(*loaded.domain, grid)
    for suffix, fn, derivative in ((".csv", core.predict, False),
                                   (".rate.csv", core.predict_derivative, True)):
        band = _read_band(f"{stem}{suffix}")
        checks.check_curve(model, ref, band, derivative)
        checks.check_bit_exact(band, fn(loaded, epochs), f"{stem.name}{suffix}")


class IceField(Workload):
    """Many short irregular grid-cell records through outlier rejection,
    monthly value and rate bands, and (some cells) fusion; then two cells'
    models saved and served through `alps predict`."""

    name = "ice-field"

    def setup(self):
        import alps  # noqa: F401  (import time is part of set-up)
        from alps import fusion
        self.fields = [inputs.ice_field(inputs.round_rng(self.seed, k))
                       for k in range(MAX_ROUNDS)]
        self.month_grid = fusion.month_start_grid(*inputs.ICE_GRID_YEARS)
        _warm_up()

    def _grid(self, cell, model):
        lo, hi = model.domain
        if cell.check_spikes:
            return np.linspace(lo, hi, self.month_grid.size)
        g = self.month_grid
        return g[(g >= lo) & (g <= hi)]

    def round(self, k, in_process=False):
        from alps import core, fusion, outliers
        from alps.timeseries import TimeSeries
        fit_time = fit_points = 0.0
        results = []
        for cell in self.fields[k]:
            def one():
                t0 = time.perf_counter()
                report = outliers.detect_and_refit(TimeSeries(cell.times, cell.values))
                t1 = time.perf_counter()
                model = report.final_model
                grid = self._grid(cell, model)
                band = core.predict(model, grid)
                t_value = time.perf_counter()
                rate = core.predict_derivative(model, grid)
                t2 = time.perf_counter()
                fused = None
                if cell.dense_times is not None:
                    dense = TimeSeries(cell.dense_times, cell.dense_values)
                    fused = fusion.reconstruct(fusion.FusionInput(report.clean_data, dense))
                t3 = time.perf_counter()
                return report, band, rate, fused, (t0, t1, t_value, t2, t3)

            out = self._ops(4 if cell.dense_times is not None else 3, one)
            if out is FAILED:
                continue
            report, band, rate, fused, (t0, t1, t_value, t2, t3) = out
            self.samples["cell_s"].append(t3 - t0)
            self.samples["fit_s"].append(t1 - t0)
            # Each evaluation call takes milliseconds; value and rate calls
            # are separate samples.
            self.samples["predict_rate"] += [band.epochs.size / (t_value - t1),
                                             rate.epochs.size / (t2 - t_value)]
            fit_time += (t1 - t0) + (t3 - t2)
            fit_points += len(cell.times) + (len(report.clean_data) if fused else 0)
            results.append((cell, report, band, rate, fused))
        self.samples["batch_s"].append(fit_time)
        self.samples["fit_rate"].append(fit_points / fit_time)
        self.outputs[k] = results
        # Two cells' models (different ones each round) are saved and
        # served through `alps predict` on a grid the size of the monthly one.
        for served in sorted({k % len(results), (k + 3) % len(results)} if results else ()):
            model = results[served][1].final_model
            path = self.workdir / f"round-{k}-cell-{served}.model.json"
            if self._ops(1, lambda: core.save_model(model, path)) is FAILED:
                continue
            wall = self._ops(1, lambda: self._predict(path, self.month_grid.size, in_process))
            if wall is not FAILED:
                self.samples["cli_predict_s"].append(wall)
                self.served.setdefault(k, set()).add(served)

    def check(self, k, last):
        import checks
        for i, (cell, report, band, rate, fused) in enumerate(self.outputs[k]):
            keep = checks.check_outliers(cell.times, cell.values, report)
            model = report.final_model
            ref = checks.check_fit(model, cell.times[keep], cell.values[keep])
            checks.check_scan(model)
            checks.check_curve(model, ref, band)
            checks.check_curve(model, ref, rate, derivative=True)
            if cell.check_spikes:
                checks.check_spikes_flagged(report, cell.spikes)
            if fused is not None:
                clean = report.clean_data
                checks.check_fusion(clean.times, clean.values,
                                    cell.dense_times, cell.dense_values, fused)
            if i in self.served.get(k, ()):
                path = self.workdir / f"round-{k}-cell-{i}.model.json"
                check_predict_outputs(model, ref, path, self.month_grid.size)


class CliBatch(Workload):
    """A directory of CSV series through `alps fit --batch`, then
    `alps predict` on one of the models, one child at a time."""

    name = "cli-batch"

    def setup(self):
        self.series = []
        for k in range(MAX_ROUNDS):
            data = self.workdir / f"round-{k}" / "data"
            data.mkdir(parents=True, exist_ok=True)
            series = inputs.cli_series(inputs.round_rng(self.seed, k))
            for i, (t, y) in enumerate(series):
                _write_csv(data / f"series-{i:02d}.csv", t, y)
            self.series.append(series)

    def _dirs(self, k):
        base = self.workdir / f"round-{k}"
        return base / "data", base / "models"

    def round(self, k, in_process=False):
        data, models = self._dirs(k)
        t0 = time.perf_counter()
        batch = ["fit", str(data), "--batch", "--out-dir", str(models)]
        if self._ops(1, lambda: self._cli(batch, in_process)) is FAILED:
            self.attempted += 1
            self.failed += 1
            return
        batch_s = time.perf_counter() - t0
        # `predict` on one of the models, a different one each round.
        path = models / f"series-{k % inputs.CLI_FILES:02d}.model.json"
        wall = self._ops(1, lambda: self._predict(path, inputs.CLI_GRID, in_process))
        if wall is FAILED:
            return
        self.served[k] = {k % inputs.CLI_FILES}
        files, s = inputs.CLI_FILES, self.samples
        s["batch_s"].append(batch_s)
        s["fit_s"].append(batch_s / files)
        s["fit_rate"].append(files * inputs.CLI_N / batch_s)
        s["cli_predict_s"].append(wall)
        s["predict_rate"].append(2 * inputs.CLI_GRID / wall)
        s["cell_s"].append(batch_s / files + wall)
        self.outputs[k] = True

    def check(self, k, last):
        import checks
        if k not in self.outputs:
            return
        data, models = self._dirs(k)
        for i, (t, y) in enumerate(self.series[k]):
            path = models / f"series-{i:02d}.model.json"
            with open(path, encoding="utf-8") as fh:
                model = _model_from_document(json.load(fh))
            ref = checks.check_fit(model, t, y)
            if i in self.served.get(k, ()):
                check_predict_outputs(model, ref, path, inputs.CLI_GRID)
            if last:
                self._check_single_fit(data / f"series-{i:02d}.csv", path)

    def _check_single_fit(self, csv_path, model_path):
        """The batch's model file is byte-identical to a single-file
        core.fit of the same CSV, saved by core.save_model."""
        import checks
        from alps import core
        from alps.timeseries import TimeSeries
        t, y = _read_columns(csv_path, 2)
        single = core.fit(TimeSeries(t, y))
        checks.check_scan(single)
        single_path = model_path.with_suffix(".single.json")
        core.save_model(single, single_path)
        checks.check_same_file(model_path, single_path,
                               "batch model against single-file core.fit")


WORKLOADS = {w.name: w for w in (IceField, CliBatch)}


def _warm_up():
    """One small fit and evaluation, so lazy loading inside NumPy/SciPy
    happens in set-up rather than in the first timed operation."""
    from alps import core
    from alps.timeseries import TimeSeries
    t = np.linspace(0.0, 1.0, 20)
    model = core.fit(TimeSeries(t, np.sin(6.0 * t)))
    core.predict(model, t)
    core.predict_derivative(model, t)


def _write_csv(path, t, y):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,value\n")
        for a, b in zip(t, y):
            fh.write(f"{float(a)!r},{float(b)!r}\n")


def _read_columns(path, count):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [np.array([float(r[j]) for r in rows]) for j in range(count)]


def _read_band(path):
    """A predict CSV (epoch, mean, std, ci_lo, ci_hi) as a band-like object."""
    epochs, mean, std, lo, hi = _read_columns(path, 5)
    return SimpleNamespace(epochs=epochs, mean=mean, std=std, lower=lo, upper=hi,
                           half_width=(hi - lo) / 2.0, alpha=0.05)


def _model_from_document(doc):
    """The fields the checks read, taken straight from a model document."""
    return SimpleNamespace(
        knot_vector=SimpleNamespace(knots=np.array(doc["knots"], float), m=int(doc["m"])),
        p=int(doc["p"]), q=int(doc["q"]), lambda_hat=float(doc["lambda"]),
        theta=np.array(doc["theta"], float), df_res=float(doc["df_res"]),
        sigma2=float(doc["sigma2"]),
        fit_metadata=SimpleNamespace(gcv_cost=float(doc["gcv_cost"])),
    )
