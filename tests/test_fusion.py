import numpy as np
import pytest

from alps import core, fusion
from alps.basis import eval_basis
from alps.errors import CoverageError, InvalidInputError, OutOfDomainError
from alps.solver import LambdaGrid, fit_penalized
from alps.synth import fusion_suite, seasonal_component, slow_component
from alps.timeseries import TimeSeries


def rmse(a, b):
    d = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(np.mean(d * d)))


@pytest.fixture(scope="module")
def suite():
    return fusion_suite(seed=0)


@pytest.fixture(scope="module")
def suite_result(suite):
    inp = fusion.FusionInput(suite.observations, suite.dense_model)
    return inp, fusion.reconstruct(inp)


class TestFusionInput:
    def test_dense_must_increase_strictly(self, suite):
        t = suite.dense_model.times.copy()
        t[5] = t[4]
        with pytest.raises(InvalidInputError):
            fusion.FusionInput(suite.observations, TimeSeries(t, suite.dense_model.values))

    def test_coverage_error_lists_offenders(self, suite):
        obs = TimeSeries(np.array([1999.0, 2003.0]), np.array([0.0, 1.0]))
        with pytest.raises(CoverageError, match="1999"):
            fusion.FusionInput(obs, suite.dense_model)


class TestAlignDenseModel:
    def test_zero_shift_when_already_through_first_observation(self):
        dense = TimeSeries(np.array([0.0, 1.0, 2.0]), np.array([5.0, 6.0, 7.0]))
        obs = TimeSeries(np.array([0.0, 2.0]), np.array([5.0, 9.0]))
        aligned = fusion.align_dense_model(fusion.FusionInput(obs, dense))
        np.testing.assert_array_equal(aligned.values, dense.values)

    def test_constant_shift(self):
        dense = TimeSeries(np.array([1999.0, 2000.0, 2001.0]), np.array([2.0, 3.0, 4.0]))
        obs = TimeSeries(np.array([2000.0, 2001.0]), np.array([100.0, 101.0]))
        aligned = fusion.align_dense_model(fusion.FusionInput(obs, dense))
        np.testing.assert_allclose(aligned.values, dense.values + 97.0)

    def test_interpolated_shift_between_samples(self):
        dense = TimeSeries(np.array([0.0, 1.0]), np.array([10.0, 20.0]))
        obs = TimeSeries(np.array([0.25, 0.9]), np.array([0.0, 1.0]))
        aligned = fusion.align_dense_model(fusion.FusionInput(obs, dense))
        # hand interpolation: dense at 0.25 is 12.5, so shift is -12.5
        np.testing.assert_allclose(aligned.values, [10.0 - 12.5, 20.0 - 12.5])


class TestComputeDifference:
    def test_zero_when_observations_match_aligned_dense(self):
        dense = TimeSeries(np.linspace(0, 1, 50), np.sin(np.linspace(0, 1, 50)))
        obs_t = dense.times[::7]
        obs = TimeSeries(obs_t, np.sin(obs_t) + 4.0)
        diff = fusion.compute_difference(fusion.FusionInput(obs, dense))
        np.testing.assert_allclose(diff.values, 0.0, atol=1e-12)

    def test_recovers_additive_trend_exactly(self):
        t_dense = np.linspace(0, 10, 200)
        dense = TimeSeries(t_dense, np.cos(t_dense))
        obs_t = t_dense[::11]
        trend = 2.0 + 0.3 * obs_t
        obs = TimeSeries(obs_t, np.cos(obs_t) + trend)
        diff = fusion.compute_difference(fusion.FusionInput(obs, dense))
        # alignment removes the trend value at the first epoch
        np.testing.assert_allclose(diff.values, trend - trend[0], atol=1e-10)

    def test_synthetic_decomposition_within_interpolation_bound(self):
        from alps.synth import fusion_suite as make
        suite = make(noise_sd=0.0, seed=3)
        inp = fusion.FusionInput(suite.observations, suite.dense_model)
        diff = fusion.compute_difference(inp)
        expected = slow_component(diff.times)
        # seasonal curvature bound: max |h''| * cadence^2 / 8
        cadence = 10.0 / 365.25
        curvature = 0.75 * (2 * np.pi) ** 2 + 0.2 * (4 * np.pi) ** 2
        bound = curvature * cadence**2 / 8.0
        assert np.abs(diff.values - expected).max() <= bound


class TestReconstruct:
    def test_zero_difference_returns_aligned_dense(self):
        dense = TimeSeries(np.linspace(0, 1, 80), np.sin(8 * np.linspace(0, 1, 80)))
        obs_t = dense.times[::5]
        obs = TimeSeries(obs_t, np.sin(8 * obs_t))
        result = fusion.reconstruct(fusion.FusionInput(obs, dense))
        np.testing.assert_allclose(result.reconstruction.mean, np.sin(8 * result.reconstruction.epochs), atol=1e-9)
        np.testing.assert_allclose(result.reconstruction.std, 0.0, atol=1e-7)

    def test_beats_polynomial_reconstructions(self, suite, suite_result):
        inp, result = suite_result
        recon = result.reconstruction
        mask = (suite.dense_model.times >= recon.epochs[0]) & (
            suite.dense_model.times <= recon.epochs[-1]
        )
        truth = suite.truth_total[mask]
        aligned = fusion.align_dense_model(inp)
        from alps.baselines import fit_polynomial
        r_alps = rmse(recon.mean, truth)
        for degree in (1, 3):
            poly = fit_polynomial(result.difference_series, degree)
            r_poly = rmse(aligned.values[mask] + poly.predict(recon.epochs), truth)
            assert r_alps < r_poly

    def test_additive_construction_identity(self, suite, suite_result):
        inp, result = suite_result
        aligned = fusion.align_dense_model(inp)
        mask = (aligned.times >= result.reconstruction.epochs[0]) & (
            aligned.times <= result.reconstruction.epochs[-1]
        )
        band = core.predict(result.dibc_model, result.reconstruction.epochs,
                            alpha=result.reconstruction.alpha)
        assert np.array_equal(result.reconstruction.mean, aligned.values[mask] + band.mean)
        assert np.array_equal(result.reconstruction.std, band.std)

    def test_self_consistency_at_observation_epochs(self, suite, suite_result):
        inp, result = suite_result
        aligned = fusion.align_dense_model(inp)
        obs = suite.observations
        recon_at_obs = (
            np.interp(obs.times, aligned.times, aligned.values)
            + core.predict(result.dibc_model, obs.times).mean
        )
        fit_resid = result.difference_series.values - core.predict(
            result.dibc_model, obs.times
        ).mean
        np.testing.assert_allclose(recon_at_obs - obs.values, -fit_resid, atol=1e-12)

    def test_shift_invariance_at_fixed_hyperparameters(self, suite, suite_result):
        inp, result = suite_result
        c = 123.0
        shifted = fusion.FusionInput(
            TimeSeries(suite.observations.times, suite.observations.values + c),
            suite.dense_model,
        )
        diff2 = fusion.compute_difference(shifted)
        model = result.dibc_model
        B = eval_basis(model.knot_vector, diff2.times)
        refit = fit_penalized(B, diff2.values, model.q, model.lambda_hat)
        epochs = result.reconstruction.epochs
        Bg = eval_basis(model.knot_vector, epochs)
        aligned2 = fusion.align_dense_model(shifted)
        mask = (aligned2.times >= epochs[0]) & (aligned2.times <= epochs[-1])
        recon2 = aligned2.values[mask] + Bg.values @ refit.theta
        np.testing.assert_allclose(recon2 - result.reconstruction.mean, c, atol=1e-9)

    def test_shift_invariance_end_to_end(self, suite, suite_result):
        # Full pipeline rerun: the re-selected smoothing parameter can move
        # within its refinement bracket, so the tolerance is looser here.
        inp, result = suite_result
        c = 123.0
        shifted = fusion.FusionInput(
            TimeSeries(suite.observations.times, suite.observations.values + c),
            suite.dense_model,
        )
        result2 = fusion.reconstruct(shifted)
        np.testing.assert_allclose(
            result2.reconstruction.mean - result.reconstruction.mean, c, atol=1e-4
        )
        np.testing.assert_allclose(
            result2.reconstruction.std, result.reconstruction.std, atol=1e-6
        )

    def test_config_reaches_the_difference_fit(self, suite, monkeypatch):
        config = core.FitConfig(placement="equidistant",
                                lambda_grid=LambdaGrid(1e-3, 1e3, 21), m_scan="strided")
        seen, fit = [], core.fit

        def spy(data, config):
            seen.append(config)
            return fit(data, config)

        monkeypatch.setattr(core, "fit", spy)
        result = fusion.reconstruct(fusion.FusionInput(suite.observations, suite.dense_model),
                                    config)
        assert seen == [config]
        assert result.dibc_model.fit_metadata.placement == "equidistant"


class TestCrossSeriesTable:
    def test_month_start_grid(self):
        grid = fusion.month_start_grid(2002, 2003)
        assert grid.size == 24
        assert grid[0] == 2002.0
        np.testing.assert_allclose(np.diff(grid), 1 / 12.0)

    def test_linear_series_pairs_slope_with_values(self):
        t = np.linspace(2000, 2005, 40)
        series = TimeSeries(t, 1.0 + 2.0 * (t - 2000.0))
        model = core.fit(series)
        grid = fusion.month_start_grid(2001, 2004)
        table = fusion.cross_series_table(model, model, grid)
        np.testing.assert_allclose(table.rate_a, 2.0, atol=1e-6)
        np.testing.assert_allclose(table.value_b, 1.0 + 2.0 * (grid - 2000.0), atol=1e-7)

    def test_recovers_constructed_linear_relationship(self):
        rng = np.random.default_rng(4)
        t = np.linspace(2001, 2008, 80)
        position = 2.0 + 1.5 * np.sin(0.9 * (t - 2001)) + 0.3 * (t - 2001)
        rate_true = -0.16 * 12.0 * position  # per-year rate, -0.16 per month per unit
        level = np.concatenate(
            ([0.0], np.cumsum(0.5 * (rate_true[1:] + rate_true[:-1]) * np.diff(t)))
        )
        model_a = core.fit(TimeSeries(t, level + rng.normal(0, 0.05, 80)))
        model_b = core.fit(TimeSeries(t, position + rng.normal(0, 0.02, 80)))
        grid = fusion.month_start_grid(2002, 2007)
        table = fusion.cross_series_table(model_a, model_b, grid, monthly_rate=True)
        slope, _ = fusion.linear_trend(table)
        assert slope == pytest.approx(-0.16, rel=0.02)
        assert slope < 0
        # per-month convention is the per-year rate scaled by 1/12
        yearly = fusion.cross_series_table(model_a, model_b, grid)
        np.testing.assert_allclose(table.rate_a * 12.0, yearly.rate_a, rtol=1e-12)

    def test_grid_outside_domain_rejected(self):
        t = np.linspace(2000, 2005, 30)
        model = core.fit(TimeSeries(t, np.sin(t)))
        with pytest.raises(OutOfDomainError):
            fusion.cross_series_table(model, model, [1999.0])
