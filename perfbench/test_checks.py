"""Each output check accepts the program's output and rejects a
deliberately wrong one. Run with `python3 -m pytest perfbench`."""

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from alps import core, fusion, outliers  # noqa: E402
from alps.synth import fusion_suite  # noqa: E402
from alps.timeseries import TimeSeries  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(11)
    t = np.sort(rng.uniform(0.0, 3.0, 40))
    t[0], t[-1] = 0.0, 3.0
    y = np.sin(2.0 * t) + 0.3 * t + rng.normal(0.0, 0.1, t.size)
    model = core.fit(TimeSeries(t, y))
    epochs = np.linspace(*model.domain, 57)
    return SimpleNamespace(t=t, y=y, model=model,
                           band=core.predict(model, epochs),
                           rate=core.predict_derivative(model, epochs))


@pytest.fixture(scope="module")
def cleaned():
    cell = inputs.criterion7_cell(np.random.default_rng(7))
    return cell, outliers.detect_and_refit(TimeSeries(cell.times, cell.values))


def _nudged(model, **changes):
    return dataclasses.replace(model, **changes)


def _meta(model, **changes):
    return dataclasses.replace(model, fit_metadata=dataclasses.replace(model.fit_metadata, **changes))


def test_fit_checks_accept_program_output(fitted):
    ref = checks.check_fit(fitted.model, fitted.t, fitted.y)
    checks.check_scan(fitted.model)
    checks.check_curve(fitted.model, ref, fitted.band)
    checks.check_curve(fitted.model, ref, fitted.rate, derivative=True)


@pytest.mark.parametrize("change, message", [
    (lambda m: _nudged(m, theta=m.theta + np.eye(m.theta.size)[3] * 1e-3), "fitted values"),
    (lambda m: _nudged(m, df_res=m.df_res + 1e-3), "df_res"),
    (lambda m: _nudged(m, sigma2=m.sigma2 * 1.001), "sigma2"),
    (lambda m: _meta(m, gcv_cost=m.fit_metadata.gcv_cost * 1.001), "GCV cost"),
])
def test_check_fit_rejects(fitted, change, message):
    with pytest.raises(CheckFailed, match=message):
        checks.check_fit(change(fitted.model), fitted.t, fitted.y)


def test_check_fit_rejects_lambda_worse_than_an_endpoint(fitted):
    # A self-consistent fit at the worse of the two grid endpoints: every
    # statistic matches its lambda, but GCV there exceeds the other end.
    m = fitted.model
    probe = checks.Reference(m, fitted.t, fitted.y)
    worse = max((checks.LAMBDA_LO, checks.LAMBDA_HI), key=probe.gcv)
    ref = checks.Reference(_nudged(m, lambda_hat=worse), fitted.t, fitted.y)
    _, df_res, sigma2, gcv = ref.statistics()
    model = _meta(_nudged(m, lambda_hat=worse, theta=ref.theta, df_res=df_res, sigma2=sigma2),
                  gcv_cost=gcv)
    with pytest.raises(CheckFailed, match="endpoint"):
        checks.check_fit(model, fitted.t, fitted.y)


def test_check_scan_rejects(fitted):
    m = fitted.model
    scan = m.fit_metadata.scan
    lower = scan + ((999, 1.0, m.fit_metadata.gcv_cost * 0.5),)
    with pytest.raises(CheckFailed, match="least cost"):
        checks.check_scan(_meta(m, scan=lower))
    without = tuple(r for r in scan if r[0] != m.knot_vector.m)
    with pytest.raises(CheckFailed, match="not a row"):
        checks.check_scan(_meta(m, scan=without))


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("field, change, message", [
    ("mean", lambda b: b.mean + 1e-6, "against BSpline"),
    ("std", lambda b: b.std * 1.0001, "band std"),
    ("half_width", lambda b: b.half_width * 1.0001, "half-width"),
])
def test_check_curve_rejects(fitted, derivative, field, change, message):
    band = fitted.rate if derivative else fitted.band
    ref = checks.Reference(fitted.model, fitted.t, fitted.y)
    wrong = dataclasses.replace(band, **{field: change(band)})
    with pytest.raises(CheckFailed, match=message):
        checks.check_curve(fitted.model, ref, wrong, derivative)


def test_check_curve_rejects_mean_outside_its_interval(fitted):
    b = fitted.band
    ref = checks.Reference(fitted.model, fitted.t, fitted.y)
    wrong = SimpleNamespace(epochs=b.epochs, mean=b.mean, std=b.std, half_width=b.half_width,
                            alpha=b.alpha, lower=b.mean + 1e-3, upper=b.upper)
    with pytest.raises(CheckFailed, match="ci_lo"):
        checks.check_curve(fitted.model, ref, wrong)


def test_outlier_checks(cleaned):
    cell, report = cleaned
    keep = checks.check_outliers(cell.times, cell.values, report)
    checks.check_fit(report.final_model, cell.times[keep], cell.values[keep])
    checks.check_spikes_flagged(report, cell.spikes)

    first = (report.level1_indices + report.level2_indices)[0]
    overlap = dataclasses.replace(
        report, level1_indices=tuple(sorted({*report.level1_indices, first})),
        level2_indices=tuple(sorted({*report.level2_indices, first})))
    with pytest.raises(CheckFailed, match="overlap"):
        checks.check_outliers(cell.times, cell.values, overlap)
    short = dataclasses.replace(report, clean_data=report.clean_data.subset(
        np.arange(len(report.clean_data)) != 5))
    with pytest.raises(CheckFailed, match="minus the flagged"):
        checks.check_outliers(cell.times, cell.values, short)
    missed = dataclasses.replace(report, level1_indices=tuple(
        i for i in report.level1_indices if i != cell.spikes[0]),
        level2_indices=tuple(i for i in report.level2_indices if i != cell.spikes[0]))
    with pytest.raises(CheckFailed, match="not flagged"):
        checks.check_spikes_flagged(missed, cell.spikes)


def test_fusion_check():
    suite = fusion_suite(seed=3)
    obs, dense = suite.observations, suite.dense_model
    result = fusion.reconstruct(fusion.FusionInput(obs, dense))
    args = (obs.times, obs.values, dense.times, dense.values)
    checks.check_fusion(*args, result)
    recon = result.reconstruction
    for field, message in (("mean", "aligned \\+ curve"), ("std", "reconstruction std")):
        wrong = dataclasses.replace(recon, **{field: getattr(recon, field) * (1 + 1e-5)})
        with pytest.raises(CheckFailed, match=message):
            checks.check_fusion(*args, dataclasses.replace(result, reconstruction=wrong))


def test_file_and_bit_exact_checks(fitted, tmp_path):
    path, again, nudged = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    core.save_model(fitted.model, path)
    core.save_model(core.fit(TimeSeries(fitted.t, fitted.y)), again)
    checks.check_same_file(path, again, "refit")
    core.save_model(_nudged(fitted.model, sigma2=fitted.model.sigma2 * 2), nudged)
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_same_file(nudged, path, "nudged")
    band = core.predict(core.load_model(path), fitted.band.epochs)
    checks.check_bit_exact(band, fitted.band, "round trip")
    one_ulp = dataclasses.replace(band, mean=np.nextafter(band.mean, np.inf))
    with pytest.raises(CheckFailed, match="mean not bit-exact"):
        checks.check_bit_exact(one_ulp, fitted.band, "round trip")


def test_self_times_subtract_children():
    spans = [
        (1, "core.scan", 0.0, 10.0, None, 1, None),
        (2, "solver.search", 1.0, 5.0, 1, 1, None),
        (3, "solver.eigh", 2.0, 4.0, 2, 1, {"c": 3}),
        (4, "basis.eval", 6.0, 7.0, 1, 1, {"entries": 12}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["core.scan_s"] == pytest.approx(5.0)
    assert m["solver.search_s"] == pytest.approx(2.0)
    assert m["solver.eigh_s"] == pytest.approx(2.0)
    assert m["solver.eigh_work"] == 27
    assert m["basis.eval_entries"] == 12


def test_traced_counts_repeat_and_wrappers_are_removed(fitted):
    originals = {(mod, attr): getattr(sys.modules[mod], attr)
                 for mod, attr, _, _ in tracing.TARGETS if mod in sys.modules}
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            core.fit(TimeSeries(fitted.t, fitted.y))
        m = tracing.layer_metrics(tracer.spans)
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["solver.search_calls"] > 0
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn
