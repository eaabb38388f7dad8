import numpy as np
import pytest

from alps import core
from alps.baselines import (
    fit_polynomial,
    linear_interpolation,
    windowed_linear,
)
from alps.errors import InvalidInputError, RankDeficiencyError
from alps.timeseries import TimeSeries


class TestFitPolynomial:
    def test_degree_one_exact_on_linear(self):
        t = np.array([2000.0, 2001.0, 2003.0, 2007.0])
        model = fit_polynomial(TimeSeries(t, 5.0 - 2.0 * (t - 2000.0)), 1)
        np.testing.assert_allclose(model.predict(t), 5.0 - 2.0 * (t - 2000.0), atol=1e-10)
        np.testing.assert_allclose(model.predict_derivative(t), -2.0, atol=1e-10)

    def test_cubic_exact_on_cubic(self):
        t = np.linspace(-1, 3, 25)
        y = 0.5 * t**3 - t**2 + 2 * t - 4
        model = fit_polynomial(TimeSeries(t, y), 3)
        assert np.abs(model.predict(t) - y).max() < 1e-8

    def test_centering_invariance(self):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0.0, 2.0, 30))
        y = np.sin(t) + rng.normal(0, 0.1, 30)
        model = fit_polynomial(TimeSeries(t, y), 4)
        # raw uncentered normal equations are fine on this small domain
        V = np.vander(t, 5, increasing=True)
        raw = V @ np.linalg.lstsq(V, y, rcond=None)[0]
        np.testing.assert_allclose(model.predict(t), raw, atol=1e-8)

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        t = np.sort(rng.uniform(2000, 2010, 40))
        y = rng.normal(size=40)
        model = fit_polynomial(TimeSeries(t, y), 5)
        grid = np.linspace(2001, 2009, 50)
        h = 1e-6
        fd = (model.predict(grid + h) - model.predict(grid - h)) / (2 * h)
        np.testing.assert_allclose(model.predict_derivative(grid), fd, rtol=1e-4, atol=1e-8)

    def test_oscillates_in_sparse_gap(self):
        # dense sampling up to 2009.5, a handful of epochs through 2016.5,
        # with a rapid transition near the end of the dense segment
        rng = np.random.default_rng(1)
        epochs_rng = np.random.default_rng(1)
        dense = epochs_rng.uniform(2003.0, 2009.5, 40)
        t = np.sort(np.concatenate((dense, epochs_rng.uniform(2010.5, 2016.5, 5))))
        t[0], t[-1] = 2003.0, 2016.5
        y = -5.0 * np.tanh((t - 2009.0) / 0.7) + rng.normal(0, 0.3, t.size)
        model = fit_polynomial(TimeSeries(t, y), 5)
        gap = np.linspace(2010.0, 2016.5, 400)
        assert np.abs(model.predict(gap)).max() > np.abs(y).max()

    def test_rank_deficiency(self):
        t = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        with pytest.raises(RankDeficiencyError):
            fit_polynomial(TimeSeries(t, np.ones(6)), 3)

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            fit_polynomial(TimeSeries(np.array([0.0, 1.0]), np.zeros(2)), 2)

    def test_negative_degree(self):
        with pytest.raises(InvalidInputError, match="degree must be >= 0"):
            fit_polynomial(TimeSeries(np.array([0.0, 1.0]), np.zeros(2)), -1)


class TestLinearInterpolation:
    def test_reproduces_nodes(self):
        t = np.array([0.0, 1.0, 2.5, 4.0])
        y = np.array([1.0, -1.0, 3.0, 0.0])
        model = linear_interpolation(TimeSeries(t, y))
        np.testing.assert_array_equal(model.predict(t), y)

    def test_duplicate_epochs_averaged(self):
        t = np.array([0.0, 1.0, 1.0, 2.0])
        y = np.array([0.0, 2.0, 4.0, 1.0])
        model = linear_interpolation(TimeSeries(t, y))
        assert model.predict([1.0])[0] == pytest.approx(3.0)

    def test_derivative_is_slope(self):
        t = np.array([0.0, 2.0, 3.0])
        y = np.array([0.0, 4.0, 1.0])
        model = linear_interpolation(TimeSeries(t, y))
        assert model.predict_derivative([1.0])[0] == pytest.approx(2.0)
        assert model.predict_derivative([2.5])[0] == pytest.approx(-3.0)

    def test_noisier_derivative_than_penalized_fit(self):
        rng = np.random.default_rng(9)
        t = np.sort(rng.uniform(0, 5, 60))
        t[0], t[-1] = 0.0, 5.0
        series = TimeSeries(t, np.sin(t) + rng.normal(0, 0.25, 60))
        interp = linear_interpolation(series)
        model = core.fit(series)
        mid = 0.5 * (t[:-1] + t[1:])
        sign_changes = lambda d: int(np.sum(np.diff(np.sign(d)) != 0))
        assert sign_changes(interp.predict_derivative(mid)) >= sign_changes(
            core.predict_derivative(model, mid).mean
        )

    def test_needs_two_distinct_epochs(self):
        with pytest.raises(InvalidInputError):
            linear_interpolation(TimeSeries(np.array([1.0, 1.0]), np.array([0.0, 2.0])))


class TestWindowedLinear:
    def test_single_window_is_global_line(self):
        t = np.linspace(2000.0, 2002.0, 20)
        y = 3.0 + 0.7 * (t - 2000.0)
        model = windowed_linear(TimeSeries(t, y), window=5.0)
        assert model.breakpoints.size == 2
        np.testing.assert_allclose(model.predict(t), y, atol=1e-10)
        np.testing.assert_allclose(model.predict_derivative(t), 0.7, atol=1e-10)

    def test_empty_window_yields_no_estimate(self):
        t = np.concatenate((np.linspace(2000.0, 2000.4, 6), np.linspace(2001.2, 2001.4, 5)))
        y = np.ones(t.size)
        model = windowed_linear(TimeSeries(t, y), window=0.5)
        assert np.isnan(model.predict([2000.7])[0])
        assert np.isnan(model.predict_derivative([2000.7])[0])
        assert not np.isnan(model.predict([2000.2])[0])

    def test_discontinuity_at_window_boundary(self):
        t = np.linspace(2000.0, 2002.0, 40)
        y = 1.0 + 2.0 * (t - 2000.0) + 0.3 * np.sin(8.0 * t)
        model = windowed_linear(TimeSeries(t, y), window=0.5)
        eps = 1e-9
        jumps = [
            abs(model.predict([b + eps])[0] - model.predict([b - eps])[0])
            for b in model.breakpoints[1:-1]
        ]
        assert max(jumps) > 0.0

    def test_half_year_calendar_edges(self):
        t = np.array([2000.1, 2000.2, 2000.7, 2000.9, 2001.1, 2001.3])
        model = windowed_linear(TimeSeries(t, np.arange(6.0)), window=0.5)
        np.testing.assert_allclose(model.breakpoints[0], 2000.0)
        np.testing.assert_allclose(np.diff(model.breakpoints), 0.5)

    def test_window_must_be_positive(self):
        series = TimeSeries(np.array([0.0, 1.0]), np.zeros(2))
        with pytest.raises(InvalidInputError):
            windowed_linear(series, window=0.0)
        # And finite, with a finite anchor: NaN passes a "<= 0" test.
        for window, anchor in ((np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0),
                               (0.5, np.nan), (0.5, np.inf)):
            with pytest.raises(InvalidInputError, match="finite"):
                windowed_linear(series, window, anchor)
