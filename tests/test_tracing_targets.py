"""The benchmark's tracer wraps library functions by module and name; a
name that has moved makes every traced run fail before it starts, and a
name the library no longer calls through records no span at all."""

import collections
import functools
import importlib
import importlib.util
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.TARGETS]


def test_every_tracer_target_resolves():
    targets = _targets()
    missing = [(module, attr) for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert targets and not missing


def _workload(tmp_path: Path) -> None:
    """Every path the benchmark traces, at n = 40: outlier rejection on a
    planted spike, bands, the model document, fusion, and the CLI's synth,
    batch fit and predict."""
    from alps import cli, core, fusion, outliers, synth

    series, _ = synth.gramacy_lee_series(n=40, noise_sd=0.05, seed=2)
    spiked = series.with_values(series.values + 5.0 * (np.arange(40) == 20))
    report = outliers.detect_and_refit(spiked)
    assert 20 in report.level1_indices + report.level2_indices
    model = report.final_model
    epochs = np.linspace(*model.domain, 25)
    core.predict(model, epochs)
    core.predict_derivative(model, epochs)
    core.save_model(model, tmp_path / "model.json")
    core.load_model(tmp_path / "model.json")
    suite = synth.fusion_suite(n_obs=20, seed=2)
    fusion.reconstruct(fusion.FusionInput(suite.observations, suite.dense_model))
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    for args in (["synth", "gramacy-lee", "--n", "40", "--out", str(data / "a.csv")],
                 ["fit", str(data), "--batch", "--out-dir", str(out)],
                 ["predict", str(out / "a.model.json"), "--grid", "11",
                  "--out", str(tmp_path / "band.csv"),
                  "--derivative-out", str(tmp_path / "rate.csv")]):
        cli.main.main(args, standalone_mode=False)


def test_every_tracer_target_is_called(tmp_path):
    counts = collections.Counter()

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    targets, saved = _targets(), []
    try:
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, counted((module_name, attr), original))
        _workload(tmp_path)
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    assert [key for key in targets if counts[key] == 0] == []
