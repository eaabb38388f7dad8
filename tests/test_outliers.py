import inspect

import numpy as np
import pytest

from alps import core, outliers
from alps.errors import ConfigError, InsufficientDataAfterRejectionError
from alps.timeseries import TimeSeries


def campaign_series(seed, n_campaigns=50, repeats=3, sigma=0.1, spikes=3):
    """Repeat-observation series with isolated 10-sigma spikes injected."""
    rng = np.random.default_rng(seed)
    camp = np.sort(rng.uniform(0, 1, n_campaigns))
    camp[0], camp[-1] = 0.0, 1.0
    t = np.repeat(camp, repeats)
    truth = np.sin(2 * np.pi * t) + 0.5 * t
    y = truth + rng.normal(0, sigma, t.size)
    n = t.size
    while True:
        idx = np.sort(rng.choice(np.arange(10, n - 10), size=spikes, replace=False))
        if spikes < 2 or np.all(np.diff(idx) >= 5):
            break
    y[idx] += rng.choice([-1.0, 1.0], size=spikes) * 10 * sigma
    return TimeSeries(t, y), idx


class TestDetectAndRefit:
    def test_default_thresholds(self):
        sig = inspect.signature(outliers.detect_and_refit)
        assert sig.parameters["threshold1"].default == 3.0
        assert sig.parameters["threshold2"].default == 1.2

    def test_clean_data_nothing_flagged(self):
        t = np.linspace(2000, 2010, 25)
        series = TimeSeries(t, 1.0 + 0.3 * (t - 2000.0))
        report = outliers.detect_and_refit(series)
        assert report.level1_indices == ()
        assert report.level2_indices == ()
        plain = core.fit(series)
        assert np.array_equal(report.final_model.theta, plain.theta)

    def test_injected_spikes_flagged(self):
        for seed in (7000, 7003, 7008):
            series, spike_idx = campaign_series(seed)
            report = outliers.detect_and_refit(series)
            flagged = set(report.level1_indices) | set(report.level2_indices)
            assert set(int(i) for i in spike_idx) <= flagged
            assert len(flagged - set(int(i) for i in spike_idx)) <= 2

    def test_flag_sets_disjoint_and_clean_data_consistent(self):
        series, _ = campaign_series(7001)
        report = outliers.detect_and_refit(series)
        l1, l2 = set(report.level1_indices), set(report.level2_indices)
        assert not (l1 & l2)
        assert len(report.clean_data) == len(series) - len(l1) - len(l2)

    def test_idempotent_on_clean_output(self):
        series, _ = campaign_series(7002)
        report = outliers.detect_and_refit(series)
        again = outliers.detect_and_refit(report.clean_data)
        assert again.level1_indices == ()

    def test_band_narrows_after_removal(self):
        series, _ = campaign_series(7004)
        report = outliers.detect_and_refit(series)
        assert report.level1_indices or report.level2_indices
        full = core.fit(series)
        lo, hi = report.final_model.domain
        epochs = np.clip(series.times, lo, hi)
        hw_full = core.predict(full, epochs).half_width.mean()
        hw_clean = core.predict(report.final_model, epochs).half_width.mean()
        assert hw_clean < hw_full

    def test_threshold_validation(self):
        series, _ = campaign_series(7005)
        with pytest.raises(ConfigError):
            outliers.detect_and_refit(series, threshold1=0.0)
        with pytest.raises(ConfigError):
            outliers.detect_and_refit(series, threshold2=-1.0)
        # NaN passes a "<= 0" test and, as a threshold, flags nothing.
        for value in (np.nan, np.inf, -np.inf):
            for level in ("threshold1", "threshold2"):
                with pytest.raises(ConfigError, match="finite and > 0"):
                    outliers.detect_and_refit(series, **{level: value})

    def test_insufficient_data_after_rejection(self):
        t = np.linspace(0, 1, 7)
        series = TimeSeries(t, np.sin(t))
        with pytest.raises(InsufficientDataAfterRejectionError) as err:
            outliers._fit_stage(
                series.subset(np.arange(7) < 4), core.FitConfig(),
                np.array([4, 5, 6]), "level 2",
            )
        assert err.value.flagged_so_far == (4, 5, 6)

    def test_rejection_that_leaves_too_few_distinct_epochs(self):
        # Eight points survive, past p + 2, but on two epochs a q = 3 penalty
        # leaves B'B + D'D singular: core.fit's rule fails the stage.
        t = np.repeat([0.0, 0.5, 1.0], 4)
        series = TimeSeries(t, np.sin(t))
        with pytest.raises(InsufficientDataAfterRejectionError, match="distinct epochs") as err:
            outliers._fit_stage(
                series.subset(t < 1.0), core.FitConfig(q=3), np.array([8, 9, 10, 11]),
                "final fit",
            )
        assert err.value.flagged_so_far == (8, 9, 10, 11)


def forced_refits(data):
    """The two-pass rejection with a refit after every level, whether it
    flagged anything or not: the oracle the skipped refits are checked
    against. Returns both flag tuples and the final model."""
    indices = np.arange(len(data))
    model1 = core.fit(data)
    mask1 = outliers._flag(model1, data, outliers.DEFAULT_THRESHOLD1)
    survivors = data.subset(~mask1)
    model2 = core.fit(survivors)
    mask2 = outliers._flag(model2, survivors, outliers.DEFAULT_THRESHOLD2)
    final = core.fit(survivors.subset(~mask2))
    return tuple(indices[mask1]), tuple(indices[~mask1][mask2]), final


def one_level2_spike():
    """A sine with a 5-sigma spike at index 20, which only level 2 flags."""
    rng = np.random.default_rng(1)
    t = np.sort(rng.uniform(2000, 2010, 40))
    y = np.sin(t) + rng.normal(0, 0.1, t.size)
    y[20] += 0.5
    return TimeSeries(t, y)


class TestRefitSkip:
    @pytest.mark.parametrize("series, levels, fits", [
        (TimeSeries(np.linspace(2000, 2010, 25), np.linspace(1.0, 4.0, 25)), ((), ()), 1),
        (one_level2_spike(), ((), (20,)), 2),
    ])
    def test_a_level_that_flags_nothing_does_not_refit(self, monkeypatch, series, levels,
                                                       fits):
        want1, want2, want_final = forced_refits(series)
        calls, fit = [], core.fit

        def spy(data, config):
            calls.append(len(data))
            return fit(data, config)

        monkeypatch.setattr(core, "fit", spy)
        report = outliers.detect_and_refit(series)
        assert (report.level1_indices, report.level2_indices) == levels == (want1, want2)
        assert len(calls) == fits
        assert core.model_to_dict(report.final_model) == core.model_to_dict(want_final)
