"""Command-line surface: fit, predict, outliers, fuse, compare, synth.

A failure prints one machine-parsable line to stderr and exits with the
code ``errors.exit_code_for`` documents. The ``alps`` group is the one
place that does this; ``fit --batch`` does it per file.
"""

from __future__ import annotations

import contextlib
import csv
import logging
import sys
from pathlib import Path

import click
import numpy as np

from . import baselines, core, fusion, outliers, synth
from .basis import PLACEMENTS
from .errors import AlpsError, ConfigError, ParseError, exit_code_for
from .solver import LambdaGrid
from .timeseries import FLOAT_FMT, TimeSeries, read_timeseries, write_columns, write_timeseries


def _error_line(exc: AlpsError | OSError) -> str:
    message = " ".join(str(exc).split())
    return f"error: {type(exc).__name__}: {message}"


class _FailureBoundary(click.Group):
    """A group whose subcommands' library errors, and the OSError of an
    output that cannot be written, end the run as one error line and
    their exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (AlpsError, OSError) as exc:
            click.echo(_error_line(exc), err=True)
            sys.exit(exit_code_for(exc))


_DEFAULT = core.FitConfig()


def _fit_options(fn):
    fn = click.option("--p", type=int, default=_DEFAULT.p, show_default=True,
                      help="Basis degree (2-4).")(fn)
    fn = click.option("--q", type=int, default=_DEFAULT.q, show_default=True,
                      help="Penalty order (< p).")(fn)
    fn = click.option("--placement", type=click.Choice(PLACEMENTS),
                      default=_DEFAULT.placement, show_default=True)(fn)
    fn = click.option("--lambda-lo", type=float, default=_DEFAULT.lambda_grid.lo,
                      show_default=True)(fn)
    fn = click.option("--lambda-hi", type=float, default=_DEFAULT.lambda_grid.hi,
                      show_default=True)(fn)
    fn = click.option("--lambda-num", type=int, default=_DEFAULT.lambda_grid.num,
                      show_default=True)(fn)
    fn = click.option("--m-scan", type=click.Choice(core.M_SCANS),
                      default=_DEFAULT.m_scan, show_default=True)(fn)
    return fn


def _fit_config(p, q, placement, lambda_lo, lambda_hi, lambda_num, m_scan) -> core.FitConfig:
    """The FitConfig of the ``_fit_options`` flags."""
    grid = LambdaGrid(lambda_lo, lambda_hi, lambda_num)
    return core.FitConfig(p, q, placement, grid, m_scan)


def _write_band(path, band: core.PredictionBand) -> None:
    write_columns(path, ["epoch", "mean", "std", "ci_lo", "ci_hi"],
                  [band.epochs, band.mean, band.std, band.lower, band.upper])


def _report_lines(model: core.AlpsModel) -> list[str]:
    meta = model.fit_metadata
    return [
        f"m_hat={model.m_hat}",
        f"lambda_hat={FLOAT_FMT % model.lambda_hat}",
        f"gcv_cost={FLOAT_FMT % meta.gcv_cost}",
        f"df_res={FLOAT_FMT % model.df_res}",
        f"sigma2={FLOAT_FMT % model.sigma2}",
        f"n={meta.n}",
    ]


@click.group(cls=_FailureBoundary)
@click.option("--verbose", is_flag=True, help="Enable info-level logging.")
def main(verbose: bool):
    """Penalized-spline smoothing for irregularly sampled time series."""
    logging.basicConfig(level=logging.INFO if verbose else logging.WARNING)


@main.command("fit")
@click.argument("data", type=click.Path())
@_fit_options
@click.option("--model-out", type=click.Path(), default=None,
              help="Serialized model path (single-file mode).")
@click.option("--batch", is_flag=True,
              help="Treat DATA as a directory of CSVs; fit each in turn.")
@click.option("--out-dir", type=click.Path(), default=None,
              help="Output directory for batch mode.")
def fit_cmd(data, model_out, batch, out_dir, **fit_flags):
    """Fit one series (or a directory of them) and write the model(s)."""
    config = _fit_config(**fit_flags)
    if batch:
        if out_dir is None:
            raise ConfigError("--batch requires --out-dir")
        if model_out is not None:
            raise ConfigError("--model-out is for one file; --batch writes to --out-dir")
        _run_batch_fit(Path(data), Path(out_dir), config)
        return
    if out_dir is not None:
        raise ConfigError("--out-dir needs --batch; one file's model goes to --model-out")
    series = read_timeseries(data)
    model = core.fit(series, config)
    if model_out:
        core.save_model(model, model_out)
    for line in _report_lines(model):
        click.echo(line)


def _run_batch_fit(data_dir: Path, out_dir: Path, config: core.FitConfig) -> None:
    if not data_dir.is_dir():
        raise ConfigError(f"{data_dir} is not a directory")
    files = sorted(data_dir.glob("*.csv"))
    if not files:
        raise ParseError(f"no .csv files in {data_dir}")
    out_dir.mkdir(parents=True, exist_ok=True)
    # One file after another, in sorted order. A failing file is reported
    # and the rest are still fitted.
    first_failure = None
    for path in files:
        try:
            series = read_timeseries(path)
            with _logged_as(path.name):
                model = core.fit(series, config)
            core.save_model(model, out_dir / (path.stem + ".model.json"))
        except (AlpsError, OSError) as exc:
            click.echo(f"{path.name}: {_error_line(exc)}", err=True)
            if first_failure is None:
                first_failure = exc
            continue
        click.echo(f"{path.name}: " + " ".join(_report_lines(model)))
    if first_failure is not None:
        sys.exit(exit_code_for(first_failure))


@contextlib.contextmanager
def _logged_as(name: str):
    """Prefix ``name: `` to what ``core`` logs meanwhile, as on the batch's
    error lines (propagated records skip the ``alps`` logger's filters)."""
    def tag(record):
        record.msg, record.args = f"{name}: {record.getMessage()}", None
        return True

    core.log.addFilter(tag)
    try:
        yield
    finally:
        core.log.removeFilter(tag)


def _prediction_epochs(model: core.AlpsModel, grid: int | None, at: str | None) -> np.ndarray:
    if (grid is None) == (at is None):
        raise ConfigError("exactly one of --grid or --at is required")
    if grid is not None:
        if grid < 2:
            raise ConfigError("--grid needs at least 2 points")
        lo, hi = model.domain
        return np.linspace(lo, hi, grid)
    return read_timeseries(at).times


@main.command("predict")
@click.argument("model_path", type=click.Path())
@click.option("--grid", type=int, default=None,
              help="Number of evenly spaced epochs over the model domain.")
@click.option("--at", type=click.Path(), default=None,
              help="CSV whose time column gives the prediction epochs.")
@click.option("--alpha", type=float, default=core.DEFAULT_ALPHA, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--derivative-out", type=click.Path(), default=None)
def predict_cmd(model_path, grid, at, alpha, out, derivative_out):
    """Evaluate a saved model: mean and derivative bands as CSV."""
    model = core.load_model(model_path)
    epochs = _prediction_epochs(model, grid, at)
    _write_band(out, core.predict(model, epochs, alpha=alpha))
    if derivative_out:
        _write_band(derivative_out, core.predict_derivative(model, epochs, alpha=alpha))


@main.command("outliers")
@click.argument("data", type=click.Path())
@_fit_options
@click.option("--threshold1", type=float, default=outliers.DEFAULT_THRESHOLD1, show_default=True)
@click.option("--threshold2", type=float, default=outliers.DEFAULT_THRESHOLD2, show_default=True)
@click.option("--flags-out", type=click.Path(), required=True)
@click.option("--model-out", type=click.Path(), default=None,
              help="Serialized cleaned-fit model.")
@click.option("--clean-out", type=click.Path(), default=None,
              help="CSV of the doubly cleaned series.")
def outliers_cmd(data, threshold1, threshold2, flags_out, model_out, clean_out, **fit_flags):
    """Two-level outlier detection; writes flags and the cleaned fit."""
    config = _fit_config(**fit_flags)
    series = read_timeseries(data)
    report = outliers.detect_and_refit(series, config, threshold1, threshold2)
    index = [*report.level1_indices, *report.level2_indices]
    levels = [1] * len(report.level1_indices) + [2] * len(report.level2_indices)
    write_columns(flags_out, ["index", "time", "value", "level"],
                  [index, series.times[index], series.values[index], levels])
    if model_out:
        core.save_model(report.final_model, model_out)
    if clean_out:
        write_timeseries(clean_out, report.clean_data)
    click.echo(f"level1={list(report.level1_indices)}")
    click.echo(f"level2={list(report.level2_indices)}")
    for line in _report_lines(report.final_model):
        click.echo(line)


@main.command("fuse")
@click.argument("observations", type=click.Path())
@click.argument("dense_model", type=click.Path())
@click.option("--p", type=int, default=_DEFAULT.p, show_default=True)
@click.option("--q", type=int, default=_DEFAULT.q, show_default=True)
@click.option("--alpha", type=float, default=core.DEFAULT_ALPHA, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def fuse_cmd(observations, dense_model, p, q, alpha, out):
    """Reconstruct a dense record from sparse observations plus a dense
    companion series."""
    config = core.FitConfig(p=p, q=q)
    obs = read_timeseries(observations)
    dense = read_timeseries(dense_model)
    result = fusion.reconstruct(fusion.FusionInput(obs, dense), config, alpha=alpha)
    _write_band(out, result.reconstruction)
    model = result.dibc_model
    click.echo(f"m_hat={model.m_hat} lambda_hat={FLOAT_FMT % model.lambda_hat}")


def _rmse(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(np.mean(diff * diff)))


@main.command("compare")
@click.argument("data", type=click.Path())
@_fit_options
@click.option("--degrees", default="2,3,4,5", show_default=True,
              help="Comma-separated polynomial degrees to compare.")
@click.option("--truth", type=click.Path(), default=None,
              help="CSV of noise-free truth for RMSE columns.")
@click.option("--out", type=click.Path(), required=True)
def compare_cmd(data, degrees, truth, out, **fit_flags):
    """Head-to-head table: spline fit vs polynomial and interpolation
    baselines, with RMSE-vs-truth when a truth file is supplied."""
    config = _fit_config(**fit_flags)
    try:
        degree_list = [int(d) for d in degrees.split(",") if d.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --degrees value {degrees!r}") from exc
    series = read_timeseries(data)
    truth_series = read_timeseries(truth) if truth else None
    if truth_series is not None:
        lo, hi = series.span
        keep = (truth_series.times >= lo) & (truth_series.times <= hi)
        truth_series = truth_series.subset(keep)

    model = core.fit(series, config)
    predictors = {"alps": lambda t: core.predict(model, t).mean}
    for d in degree_list:
        poly = baselines.fit_polynomial(series, d)
        predictors[f"poly{d}"] = poly.predict
    interp = baselines.linear_interpolation(series)
    predictors["interp"] = interp.predict

    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["model", "rmse_data"]
        if truth_series is not None:
            header.append("rmse_truth")
        writer.writerow(header)
        for name, predictor in predictors.items():
            row = [name, FLOAT_FMT % _rmse(predictor(series.times), series.values)]
            if truth_series is not None:
                row.append(FLOAT_FMT % _rmse(predictor(truth_series.times),
                                             truth_series.values))
            writer.writerow(row)


@main.group("synth")
def synth_group():
    """Generate the seeded synthetic datasets used by the test suites."""


@synth_group.command("gramacy-lee")
@click.option("--n", type=int, default=150, show_default=True)
@click.option("--noise", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--truth-out", type=click.Path(), default=None)
def synth_gramacy_lee(n, noise, seed, out, truth_out):
    """Noisy irregular samples of the oscillating benchmark function."""
    series, truth = synth.gramacy_lee_series(n=n, noise_sd=noise, seed=seed)
    write_timeseries(out, series)
    if truth_out:
        write_timeseries(truth_out, TimeSeries(series.times, truth))


@synth_group.command("fusion")
@click.option("--n-obs", type=int, default=25, show_default=True)
@click.option("--noise", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--obs-out", type=click.Path(), required=True)
@click.option("--dense-out", type=click.Path(), required=True)
@click.option("--truth-out", type=click.Path(), default=None)
def synth_fusion(n_obs, noise, seed, obs_out, dense_out, truth_out):
    """Seasonal dense series plus sparse observations of seasonal + slow."""
    suite = synth.fusion_suite(n_obs=n_obs, noise_sd=noise, seed=seed)
    write_timeseries(obs_out, suite.observations)
    write_timeseries(dense_out, suite.dense_model)
    if truth_out:
        write_timeseries(truth_out, TimeSeries(suite.dense_model.times, suite.truth_total))


if __name__ == "__main__":
    main()
