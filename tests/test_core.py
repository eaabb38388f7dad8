import dataclasses
import inspect
import json
import logging
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

from alps import _blas, core, fusion, outliers, solver
from alps.basis import BasisMatrix, build_knot_vector, eval_basis, eval_basis_derivative
from alps.errors import (
    AlpsError,
    ConfigError,
    DegenerateKnotsError,
    InsufficientDataError,
    FitFailureError,
    InvalidInputError,
    OutOfDomainError,
    ParseError,
)
from alps.penalty import difference_matrix
from alps.solver import LambdaGrid, fit_penalized, gcv_profile, minimize_gcv_lambda
from alps.synth import gramacy_lee, gramacy_lee_series
from alps.timeseries import TimeSeries


DATA = Path(__file__).resolve().parent / "data"


def rmse(a, b):
    d = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(np.mean(d * d)))


@pytest.fixture(scope="module")
def linear_series():
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(2000, 2010, 20))
    return TimeSeries(t, 3.0 + 0.5 * (t - 2000.0))


@pytest.fixture(scope="module")
def linear_model(linear_series):
    return core.fit(linear_series)


@pytest.fixture(scope="module")
def noisy_model():
    series, _ = gramacy_lee_series(n=80, noise_sd=0.1, seed=17)
    return series, core.fit(series)


class TestFit:
    def test_defaults_are_p4_q2(self):
        config = inspect.signature(core.fit).parameters["config"].default
        assert config.p == 4
        assert config.q == 2
        assert config.placement == "quantile"

    def test_noiseless_linear_reproduced_minimal_sections(self, linear_series, linear_model):
        band = core.predict(linear_model, linear_series.times)
        np.testing.assert_allclose(band.mean, linear_series.values, atol=1e-8)
        assert linear_model.m_hat == 1

    def test_gramacy_lee_beats_noise_and_full_knot_fit(self):
        series, truth = gramacy_lee_series(n=150, noise_sd=0.05, seed=0)
        model = core.fit(series)
        fitted = core.predict(model, series.times).mean
        assert rmse(fitted, truth) < 0.05
        # unpenalized fit with knots at every epoch (c = n)
        kv = build_knot_vector(series.times, len(series) - 4, 4)
        B = eval_basis(kv, series.times)
        res = fit_penalized(B, series.values, 2, 0.0)
        assert rmse(fitted, truth) < rmse(B.values @ res.theta, truth)

    def test_scan_optimality(self, noisy_model):
        _, model = noisy_model
        finite = [cost for _, _, cost in model.fit_metadata.scan if np.isfinite(cost)]
        assert model.fit_metadata.gcv_cost <= min(finite) * (1 + 1e-12)

    def test_determinism(self, linear_series):
        a = core.fit(linear_series)
        b = core.fit(linear_series)
        assert a.m_hat == b.m_hat
        assert a.lambda_hat == b.lambda_hat
        assert np.array_equal(a.theta, b.theta)

    def test_validation(self):
        t = np.linspace(0, 1, 10)
        series = TimeSeries(t, np.sin(t))
        with pytest.raises(ConfigError):
            core.fit(series, core.FitConfig(p=5))
        with pytest.raises(ConfigError):
            core.fit(series, core.FitConfig(p=3, q=3))
        with pytest.raises(ConfigError):
            core.fit(series, core.FitConfig(m_scan="fast"))
        with pytest.raises(InsufficientDataError):
            core.fit(TimeSeries(t[:4], np.zeros(4)), core.FitConfig(p=4))

    def test_no_usable_configuration_is_a_fit_failure(self, monkeypatch):
        # Every m's knots degenerate: each scan row scores (nan, inf).
        t = np.linspace(0.0, 1.0, 12)
        series = TimeSeries(t, np.sin(3 * t))
        monkeypatch.setattr(core, "scan_bases", lambda times, ms, p, placement: (None for _ in ms))
        with pytest.raises(FitFailureError) as err:
            core.fit(series)
        rows = err.value.diagnostics
        assert [m for m, _, _ in rows] == list(range(1, t.size))
        assert all(np.isnan(lam) and cost == np.inf for _, lam, cost in rows)

    def test_every_scan_row_is_the_one_design_search(self, noisy_model):
        # The scan scores all section counts together; each row must be
        # exactly what the search gives on that m's basis alone.
        series, model = noisy_model
        rows = model.fit_metadata.scan
        assert [m for m, _, _ in rows] == list(range(1, len(series)))
        for m, lam, cost in rows:
            B = eval_basis(build_knot_vector(series.times, m, 4), series.times)
            (lam_alone,), (cost_alone,) = minimize_gcv_lambda([B], series.values, 2)
            assert (lam, cost) == (lam_alone, cost_alone)

    def test_every_scan_row_is_the_one_design_search_on_repeated_epochs(self):
        # Campaign dates repeated three times, then a sparse tail: the scan
        # merges rows by epoch once for every m, the search on [B] once per
        # basis, and both must give the same bits.
        rng = np.random.default_rng(8)
        dates = np.sort(rng.uniform(2003.0, 2009.0, 20))
        t = np.concatenate((np.repeat(dates, 3), np.sort(rng.uniform(2010.0, 2015.0, 8))))
        y = np.sin(t) + rng.normal(0.0, 0.1, t.size)
        model = core.fit(TimeSeries(t, y))
        rows = model.fit_metadata.scan
        assert [m for m, _, _ in rows] == list(range(1, t.size))
        for m, lam, cost in rows:
            B = eval_basis(build_knot_vector(t, m, 4), t)
            (lam_alone,), (cost_alone,) = minimize_gcv_lambda([B], y, 2)
            assert (lam, cost) == (lam_alone, cost_alone)

    def test_degenerate_rows_and_selection(self):
        # Epochs one and two ulps above 1.0: from m = 10 on, quantile knots
        # coincide beyond the degree, and those rows are degenerate.
        u1 = np.nextafter(1.0, 2.0)
        t = np.sort(np.repeat([0.0, 1.0, u1, np.nextafter(u1, 2.0), 5.0], 4))
        y = np.cos(t) + np.tile([0.1, -0.1, 0.05, 0.0], 5)
        model = core.fit(TimeSeries(t, y), core.FitConfig(p=2, q=1))
        rows = model.fit_metadata.scan
        assert [m for m, lam, cost in rows if np.isnan(lam) and cost == np.inf] == \
            [10] + list(range(12, 20))
        assert all(np.isfinite(lam) for _, lam, cost in rows if np.isfinite(cost))
        assert (model.m_hat, model.lambda_hat, model.fit_metadata.gcv_cost) in rows
        assert core._select([(1, np.nan, np.inf), (2, np.nan, np.inf)])[0] == 1
        assert core._select([(1, 0.5, 2.0), (2, 0.1, 2.0 * (1 - 1e-13)), (3, 1.0, 1.0)]) == \
            (3, 1.0, 1.0)
        assert core._select([(1, 0.5, 2.0), (2, 0.1, 2.0 * (1 - 1e-13))])[0] == 1

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("k, p, q", [(2, 3, 2), (2, 4, 2), (3, 4, 3)])
    def test_exactly_q_distinct_epochs_tie_every_configuration(self, seed, k, p, q):
        # 12 points on q dates: the splines D_q leaves unpenalized
        # interpolate the date means, so every (m, lambda) has the same
        # fitted values and the same cost, and the tie rules pick the
        # smallest m and the largest lambda.
        rng = np.random.default_rng([seed, 8])
        centres = np.sort(rng.uniform(2000.0, 2010.0, k))
        t = np.sort(np.concatenate((centres, rng.choice(centres, 12 - k))))
        y = rng.normal(size=t.size)
        model = core.fit(TimeSeries(t, y), core.FitConfig(p=p, q=q))
        costs = {cost for _, _, cost in model.fit_metadata.scan if np.isfinite(cost)}
        assert costs == {model.fit_metadata.gcv_cost}
        assert (model.m_hat, model.lambda_hat) == (1, LambdaGrid().hi)
        means = np.array([y[t == c].mean() for c in centres])
        np.testing.assert_allclose(core.predict(model, centres).mean, means, atol=1e-9)

    @pytest.mark.parametrize("epochs, q", [([2000.0, 2001.0], 3), ([2000.0], 2), ([2000.0], 1)])
    def test_fewer_distinct_epochs_than_max_2_q_is_insufficient_data(self, epochs, q):
        # Repeats raise n past p + 2, but B'B + D'D is singular below q
        # distinct epochs, and the domain needs two.
        t = np.repeat(epochs, 16 // len(epochs))
        y = np.random.default_rng(0).normal(size=t.size)
        with pytest.raises(InsufficientDataError, match="distinct epochs"):
            core.fit(TimeSeries(t, y), core.FitConfig(q=q))

    def test_lambda_on_a_grid_end_is_flagged_and_logged(self, caplog):
        # Criterion-5 seed 1 selects the default grid's lower end exactly.
        series, _ = gramacy_lee_series(n=150, noise_sd=0.05, seed=1)
        with caplog.at_level(logging.WARNING, logger="alps.core"):
            model = core.fit(series)
        assert model.lambda_hat == LambdaGrid().lo and model.fit_metadata.lambda_at_grid_end
        [record] = caplog.records
        assert record.levelname == "WARNING" and "lower end" in record.getMessage()
        assert "lambda_at_grid_end" not in core.model_to_dict(model)

    def test_grid_end_flag_names_only_the_ends(self, linear_model, noisy_model):
        # A noiseless line ties every lambda and keeps the largest.
        assert linear_model.lambda_hat == LambdaGrid().hi
        assert linear_model.fit_metadata.lambda_at_grid_end
        _, model = noisy_model
        assert LambdaGrid().lo < model.lambda_hat < LambdaGrid().hi
        assert not model.fit_metadata.lambda_at_grid_end

    def test_strided_flag_equals_exhaustive_below_threshold(self, linear_series):
        a = core.fit(linear_series, core.FitConfig(m_scan="exhaustive"))
        b = core.fit(linear_series, core.FitConfig(m_scan="strided"))
        assert a.m_hat == b.m_hat and a.lambda_hat == b.lambda_hat

    def test_a_ridged_refit_is_recorded_in_the_model_and_its_document(
            self, linear_series, linear_model, monkeypatch):
        # The refit's first banded factor reports a matrix that is not
        # positive definite; the scan before it factors as usual.
        refit, dpbtrf = core.fit_penalized, scipy.linalg.lapack.dpbtrf
        calls = []

        def failing_once(ab, *args, **kwargs):
            calls.append(ab.shape)
            return (ab, 1) if len(calls) == 1 else dpbtrf(ab, *args, **kwargs)

        def ridged_refit(*args):
            monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", failing_once)
            return refit(*args)

        monkeypatch.setattr(core, "fit_penalized", ridged_refit)
        model = core.fit(linear_series)
        assert len(calls) == 2 and not linear_model.fit_metadata.ridged
        assert (model.m_hat, model.lambda_hat) == (linear_model.m_hat, linear_model.lambda_hat)
        assert model.fit_metadata.ridged
        doc = core.model_to_dict(model)
        assert doc["ridged"] is True and core.model_from_dict(doc).fit_metadata.ridged


@st.composite
def clustered_fits(draw):
    """Epochs clustered around k >= max(2, q) centres, with repeats and
    jitter, then rescaled and offset; padded by repeats to n >= p + 2."""
    p = draw(st.integers(2, 4))
    q = draw(st.integers(1, p - 1))
    k = draw(st.integers(max(2, q), 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = np.sort(rng.uniform(0.0, 1.0, k))
    u = np.repeat(centres, rng.integers(1, 5, k))
    u = np.concatenate((u, rng.choice(centres, max(0, p + 2 - u.size))))
    u = u + draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3])) * rng.normal(size=u.size)
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
    offset = draw(st.sampled_from([0.0, -50.0, 2000.0, 1e6]))
    t = np.sort(offset + scale * u)
    assume(np.unique(t).size >= max(2, q))
    return t, rng.normal(size=t.size), core.FitConfig(p=p, q=q)


@settings(max_examples=60, deadline=None)
@given(clustered_fits())
def test_enough_distinct_epochs_give_definite_pencils_and_df_res_in_range(case):
    # From max(2, q) distinct epochs on, every scan row's pencil is definite
    # and the fit's residual degrees of freedom lie in (0, n].
    t, y, config = case
    merge, ys = solver._distinct_rows(t, y)
    for m in range(1, t.size):
        try:
            kv = build_knot_vector(t, m, config.p, config.placement)
        except DegenerateKnotsError:
            continue
        Bu = merge(eval_basis(kv, t))
        assert gcv_profile(Bu, ys, float(y @ y), config.p, config.q).mu is not None
    model = core.fit(TimeSeries(t, y), config)
    assert 0 < model.df_res <= t.size


def test_values_whose_squares_overflow_are_invalid_input():
    series, _ = gramacy_lee_series(n=40, noise_sd=0.05, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="overflows"):
            core.fit(series.with_values(series.values * 1e155))
        with pytest.raises(InvalidInputError, match="overflows"):
            core.fit(series.with_values(np.where(np.arange(40) == 7, 1e200, series.values)))
    model = core.fit(series.with_values(series.values * 1e150))
    band = core.predict(model, series.times)
    assert np.all(np.isfinite(band.mean)) and np.all(np.isfinite(band.std))


@st.composite
def hostile_fits(draw):
    """n = p + 2..12 epochs at an offset of 0, 2000 or 1e6 over a span of
    1e-9..1e3, some repeated; constant values or normal noise, scaled
    from 1e-300 to 1e155."""
    p = draw(st.integers(2, 4))
    config = core.FitConfig(p=p, q=draw(st.integers(1, p - 1)),
                            placement=draw(st.sampled_from(["quantile", "equidistant"])))
    n = draw(st.integers(p + 2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(0.0, 1.0, n)
    if draw(st.booleans()):
        u = rng.choice(u[: draw(st.integers(1, n))], n)
    offset = draw(st.sampled_from([0.0, 2000.0, 1e6]))
    t = offset + draw(st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e3])) * u
    y = np.ones(n) if draw(st.booleans()) else rng.normal(size=n)
    return TimeSeries(t, draw(st.sampled_from([1e-300, 1.0, 1e150, 1e155])) * y), config


@settings(max_examples=150, deadline=None)
@given(hostile_fits())
@example((TimeSeries(2000.0 + np.arange(8.0), 1e155 * np.sin(np.arange(8.0))), core.FitConfig()))
def test_hostile_inputs_fit_to_finite_bands_or_raise_an_alps_error(case):
    series, config = case
    try:
        model = core.fit(series, config)
    except AlpsError:
        return
    band = core.predict(model, series.times)
    assert np.all(np.isfinite(band.mean)) and np.all(np.isfinite(band.std))


class TestFitConfig:
    def test_default(self):
        config = core.FitConfig()
        assert (config.p, config.q, config.placement, config.lambda_grid, config.m_scan) == \
            (4, 2, "quantile", LambdaGrid(), "exhaustive")

    @pytest.mark.parametrize("fields", [
        {"p": 1}, {"p": 5}, {"q": 0}, {"q": 4}, {"p": 3, "q": 3},
        {"placement": "uniform"}, {"m_scan": "fast"},
        {"p": 3.0}, {"q": 1.0}, {"p": True}, {"q": True}, {"p": "3"}, {"q": np.float64(1.0)},
        {"lambda_grid": (1e-4, 1e4, 41)}, {"lambda_grid": None},
    ])
    def test_rules(self, fields):
        with pytest.raises(ConfigError):
            core.FitConfig(**fields)

    def test_numpy_integers_are_integers(self):
        config = core.FitConfig(p=np.int64(3), q=np.int32(2))
        t = np.linspace(0.0, 1.0, 12)
        model = core.fit(TimeSeries(t, np.sin(3 * t)), config)
        assert (model.p, model.q) == (3, 2)


class TestPredict:
    def test_consistency_at_training_epochs(self, linear_series, linear_model):
        band = core.predict(linear_model, linear_series.times)
        np.testing.assert_allclose(band.mean, linear_series.values, atol=1e-8)

    def test_alpha_quantile_scaling(self, noisy_model):
        series, model = noisy_model
        epochs = series.times[3:-3]
        hw95 = core.predict(model, epochs, alpha=0.05).half_width
        hw99 = core.predict(model, epochs, alpha=0.01).half_width
        expected = scipy.stats.t.ppf(0.995, model.df_res) / scipy.stats.t.ppf(0.975, model.df_res)
        np.testing.assert_allclose(hw99 / hw95, expected, rtol=1e-12)

    def test_band_nesting(self, noisy_model):
        series, model = noisy_model
        hw95 = core.predict(model, series.times, alpha=0.05).half_width
        hw99 = core.predict(model, series.times, alpha=0.01).half_width
        assert np.all(hw99 > hw95)

    def test_out_of_domain(self, noisy_model):
        _, model = noisy_model
        lo, hi = model.domain
        with pytest.raises(OutOfDomainError):
            core.predict(model, [hi + 0.1])

    def test_alpha_validation(self, noisy_model):
        _, model = noisy_model
        with pytest.raises(ConfigError):
            core.predict(model, [model.domain[0]], alpha=1.5)


class TestPredictDerivative:
    def test_constant_series_zero_rate(self):
        t = np.linspace(0, 1, 15)
        model = core.fit(TimeSeries(t, np.full(15, 5.0)))
        band = core.predict_derivative(model, t)
        np.testing.assert_allclose(band.mean, 0.0, atol=1e-9)

    def test_linear_slope_at_interior(self, linear_series, linear_model):
        interior = linear_series.times[2:-2]
        band = core.predict_derivative(linear_model, interior)
        np.testing.assert_allclose(band.mean, 0.5, atol=1e-6)

    def test_matches_finite_difference_of_predict(self, noisy_model):
        series, model = noisy_model
        lo, hi = model.domain
        span = hi - lo
        epochs = np.linspace(lo + 0.05 * span, hi - 0.05 * span, 50)
        h = 1e-5 * span
        deriv = core.predict_derivative(model, epochs).mean
        fd = (core.predict(model, epochs + h).mean - core.predict(model, epochs - h).mean) / (2 * h)
        scale = max(1.0, np.abs(fd).max())
        np.testing.assert_allclose(deriv / scale, fd / scale, atol=1e-4)


def _model_at(times, y, m, p, q, lam, placement="equidistant"):
    """The model ``fit`` would return at (m, lam), from ``fit_penalized``."""
    kv = build_knot_vector(times, m, p, placement)
    result = fit_penalized(eval_basis(kv, times), y, q, lam)
    meta = core.FitMetadata(gcv_cost=0.0, placement=placement, n=len(times))
    return core.AlpsModel(
        knot_vector=kv, q=q, lambda_hat=lam, theta=result.theta, df_res=result.df_res,
        sigma2=result.sigma2, factor_diagonals=result.factor_diagonals, fit_metadata=meta)


def _dense_lower(model):
    """The factor L (A = LL') as a dense matrix, from its diagonals."""
    c = model.factor_diagonals[0].size
    L = np.zeros((c, c))
    for k, diagonal in enumerate(model.factor_diagonals):
        L[np.arange(k, c), np.arange(c - k)] = diagonal
    return L


def _version_1(model):
    """``model``'s document in version 1: the whole factor, stored lower."""
    doc = core.model_to_dict(model)
    del doc["factor_diagonals"]
    doc.update(version=1, normal_factor=_dense_lower(model).tolist(), factor_lower=True)
    return doc


def _band_inputs():
    """``_model_at``'s arguments for each band case at a fixed (m, lambda)."""
    rng = np.random.default_rng(11)
    # Ten sections without data: at lambda = 1e-12 cond(A) is about 3e13,
    # and a std from the band of A^{-1} is off by 3e-10.
    gap = np.sort(np.concatenate((rng.uniform(0.0, 0.4, 40), rng.uniform(0.6, 1.0, 40))))
    y_gap = np.sin(6.0 * gap) + rng.normal(0.0, 0.05, gap.size)
    for lam in (1e-4, 1e-8, 1e-12):
        yield f"gap-lam{lam:g}", (gap, y_gap, 48, 4, 2, lam)
    offset = 1e6 + np.sort(rng.uniform(0.0, 1e-3, 40))
    yield "offset", (offset, np.cos(4e3 * (offset - 1e6)), 12, 3, 2, 1e-2, "quantile")
    t = np.sort(rng.uniform(2000.0, 2010.0, 50))
    y = np.sin(t) + rng.normal(0.0, 0.1, t.size)
    for p in (2, 3, 4):
        for q in range(1, p):
            yield f"p{p}q{q}", (t, y, 15, p, q, 0.3, "quantile")


_BAND_INPUTS = dict(_band_inputs())


def _band_cases():
    for name, args in _BAND_INPUTS.items():
        yield name, _model_at(*args)
    series, _ = gramacy_lee_series(n=60, noise_sd=0.1, seed=3)
    yield "fit", core.fit(series)


def _dense_band(model, epochs, evaluate):
    """Mean and b'A^{-1}b from the dense basis and a dense triangular solve."""
    B = evaluate(model.knot_vector, epochs).values
    X = scipy.linalg.solve_triangular(_dense_lower(model), B.T, lower=True)
    return B @ model.theta, np.sum(X * X, axis=0)


_BAND_CASES = dict(_band_cases())


@pytest.mark.parametrize("name", _BAND_INPUTS)
def test_factor_diagonals_match_a_dense_cholesky(name):
    # The refit's banded factor against SciPy's dense one, to 1e-12 of each
    # diagonal's largest entry: where cond(A) is large, entries that cancel
    # to near zero differ by more than 1e-12 of themselves.
    times, y, m, p, q, lam, *placement = _BAND_INPUTS[name]
    B = eval_basis(build_knot_vector(times, m, p, *(placement or ["equidistant"])), times)
    D = difference_matrix(q, B.n_bases)
    L = scipy.linalg.cho_factor(B.values.T @ B.values + lam * (D.T @ D), lower=True)[0]
    result = fit_penalized(B, y, q, lam)
    assert not result.ridged and len(result.factor_diagonals) == p + 1
    for k, diagonal in enumerate(result.factor_diagonals):
        want = np.diagonal(L, -k)
        np.testing.assert_allclose(diagonal, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("name", _BAND_CASES)
def test_bands_match_dense_oracle_in_any_block(name, monkeypatch):
    model = _BAND_CASES[name]
    kv = model.knot_vector
    lo, hi = kv.domain
    inner = kv.knots[kv.p : kv.p + kv.m + 1]  # every domain knot, both ends included
    epochs = np.sort(np.concatenate((np.linspace(lo, hi, 301), inner, [hi, hi])))
    sigma = np.sqrt(model.sigma2)
    for fn, evaluate in ((core.predict, eval_basis),
                         (core.predict_derivative, eval_basis_derivative)):
        band = fn(model, epochs)
        mean, quad = _dense_band(model, epochs, evaluate)
        scale = np.abs(mean).max()
        np.testing.assert_allclose(band.mean, mean, rtol=1e-10, atol=1e-10 * scale)
        np.testing.assert_allclose(band.std, sigma * np.sqrt(quad), rtol=1e-10)
        tq = scipy.stats.t.ppf(1 - band.alpha / 2, model.df_res)
        np.testing.assert_allclose(band.half_width, tq * sigma * np.sqrt(quad), rtol=1e-10)
        for block in (1, epochs.size, epochs.size * kv.n_bases):
            monkeypatch.setattr(core, "_BAND_BLOCK", block)
            blocked = fn(model, epochs)
            for a, b in ((band.mean, blocked.mean), (band.std, blocked.std),
                         (band.half_width, blocked.half_width)):
                assert a.tobytes() == b.tobytes(), (name, block)
        monkeypatch.undo()


def _column_by_column_quad(model, B):
    """||Wb||^2 with Wb summed one gathered column of W at a time, k = 0..p
    in order: the oracle for the one einsum that gathers them."""
    columns = model.inverse_factor.T
    x = columns[B.first] * B.local[0, :, None]
    for k in range(1, B.local.shape[0]):
        x += columns[B.first + k] * B.local[k, :, None]
    return np.einsum("ij,ij->i", x, x)


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("evaluate", [eval_basis, eval_basis_derivative])
def test_the_gathered_columns_sum_in_order(p, evaluate):
    model = _BAND_CASES[f"p{p}q1"]
    per = core._BAND_BLOCK // (model.knot_vector.n_bases * (p + 1))
    B = evaluate(model.knot_vector, np.linspace(*model.domain, 3 * per + 7))
    _, quad = core._mean_and_quad(model, B)
    assert quad.tobytes() == _column_by_column_quad(model, B).tobytes()


def test_bands_above_the_one_thread_limit(tmp_path):
    # c = 904 > ONE_THREAD_MAX_BASES: the refit runs on the caller's threads,
    # as every W inversion does; a loaded model's bands are the fit's bytes.
    rng = np.random.default_rng(12)
    t = np.sort(rng.uniform(0.0, 1.0, 1000))
    model = _model_at(t, np.sin(6.0 * t) + rng.normal(0.0, 0.1, t.size), 900, 4, 2, 1e-3)
    assert model.knot_vector.n_bases > _blas.ONE_THREAD_MAX_BASES
    path = tmp_path / "model.json"
    core.save_model(model, path)
    loaded = core.load_model(path)
    epochs = np.linspace(*model.domain, 2001)
    sigma = np.sqrt(model.sigma2)
    for fn, evaluate in ((core.predict, eval_basis),
                         (core.predict_derivative, eval_basis_derivative)):
        band = fn(model, epochs)
        mean, quad = _dense_band(model, epochs, evaluate)
        np.testing.assert_allclose(band.mean, mean, rtol=1e-10, atol=1e-10 * np.abs(mean).max())
        np.testing.assert_allclose(band.std, sigma * np.sqrt(quad), rtol=1e-10)
        again = fn(loaded, epochs)
        for a, b in ((band.mean, again.mean), (band.std, again.std),
                     (band.half_width, again.half_width)):
            assert a.tobytes() == b.tobytes()


def test_bands_and_flags_never_build_a_dense_basis(noisy_model, linear_model, monkeypatch):
    # Bands and flags read each epoch's p + 1 local values only.
    series, model = noisy_model
    epochs = np.linspace(*model.domain, 97)
    grid = np.linspace(*linear_model.domain, 13)

    def outputs():
        table = fusion.cross_series_table(model, model, epochs, monthly_rate=True)
        return [x.tobytes() for x in (
            *(getattr(fn(model, epochs), f) for fn in (core.predict, core.predict_derivative)
              for f in ("mean", "std", "half_width")),
            table.rate_a, table.rate_a_std, table.value_b,
            core.predict(linear_model, grid).std,
            outliers._flag(model, series, outliers.DEFAULT_THRESHOLD1))]

    want = outputs()

    def dense(B):
        raise AssertionError("a dense basis was built")

    monkeypatch.setattr(BasisMatrix, "values", property(dense))
    with pytest.raises(AssertionError, match="dense"):
        eval_basis(model.knot_vector, epochs).values
    assert outputs() == want


def test_a_fit_builds_dense_rows_at_distinct_epochs_only(monkeypatch):
    # Campaign dates repeated three times, a sparse tail and one spike that
    # the outlier pass flags: the scan and every refit merge rows by epoch
    # first, so no dense design has more than one row per distinct epoch.
    rng = np.random.default_rng(8)
    t = np.concatenate((np.repeat(np.sort(rng.uniform(2003.0, 2009.0, 20)), 3),
                        np.sort(rng.uniform(2010.0, 2015.0, 8))))
    y = np.sin(t) + rng.normal(0.0, 0.1, t.size)
    y[30] += 3.0
    rows, values = [], BasisMatrix.values
    monkeypatch.setattr(BasisMatrix, "values",
                        property(lambda B: rows.append(B.first.size) or values.fget(B)))
    report = outliers.detect_and_refit(TimeSeries(t, y))
    assert 30 in report.level1_indices + report.level2_indices
    assert rows and max(rows) <= np.unique(t).size == 28 < t.size


@pytest.mark.parametrize("case", ["gramacy-lee 0", "gramacy-lee 1", "repeated epochs"])
def test_sigma2_is_the_band_mean_residual_over_df_res(case):
    # The refit's fitted values are the band's mean, bit for bit.
    if case == "repeated epochs":
        rng = np.random.default_rng(0)
        t = np.concatenate((np.repeat(np.sort(rng.uniform(2003.0, 2009.0, 12)), 3),
                            np.sort(rng.uniform(2010.0, 2015.0, 6))))
        series = TimeSeries(t, np.sin(t) + rng.normal(0.0, 0.1, t.size))
    else:
        series, _ = gramacy_lee_series(n=40, noise_sd=0.1, seed=int(case[-1]))
    model = core.fit(series)
    r = series.values - core.predict(model, series.times).mean
    assert model.sigma2 == float(r @ r) / model.df_res


def _counted_inversions(monkeypatch) -> list:
    """The shapes of every np.linalg.inv call from now on."""
    calls, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    return calls


def test_fit_save_and_load_invert_nothing(tmp_path, monkeypatch):
    calls = _counted_inversions(monkeypatch)
    series, _ = gramacy_lee_series(n=40, noise_sd=0.1, seed=2)
    core.save_model(core.fit(series), tmp_path / "model.json")
    core.load_model(tmp_path / "model.json")
    assert calls == []


def test_the_first_band_inverts_the_factor_and_later_ones_reuse_it(noisy_model, monkeypatch):
    series, model = noisy_model
    fresh = dataclasses.replace(model)  # a model no band has read yet
    calls = _counted_inversions(monkeypatch)
    epochs = np.linspace(*fresh.domain, 50)
    core.predict(fresh, epochs)
    core.predict_derivative(fresh, epochs)
    outliers._flag(fresh, series, outliers.DEFAULT_THRESHOLD1)
    c = fresh.knot_vector.n_bases
    assert calls == [(c, c)]
    assert fresh.inverse_factor.tobytes() == model.inverse_factor.tobytes()


def test_the_model_holds_only_what_its_document_stores(noisy_model):
    fields = [f.name for f in dataclasses.fields(core.AlpsModel)]
    assert "p" not in fields and "inverse_factor" not in fields
    model = noisy_model[1]
    for m in (model, core.model_from_dict(core.model_to_dict(model))):
        assert m.p == m.knot_vector.p == 4


class TestSerialization:
    def test_round_trip_bit_exact(self, noisy_model, tmp_path):
        series, model = noisy_model
        path = tmp_path / "model.json"
        core.save_model(model, path)
        loaded = core.load_model(path)
        assert loaded.lambda_hat == model.lambda_hat
        assert np.array_equal(loaded.theta, model.theta)
        epochs = np.linspace(*model.domain, 73)
        for fn in (core.predict, core.predict_derivative):
            a, b = fn(model, epochs), fn(loaded, epochs)
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.std, b.std)
            assert np.array_equal(a.half_width, b.half_width)

    def test_malformed_documents(self, tmp_path, noisy_model):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            core.load_model(bad)
        bad.write_text('{"format": "something-else"}')
        with pytest.raises(ParseError):
            core.load_model(bad)
        bad.write_text('{"format": "alps-model", "p": 4}')
        with pytest.raises(ParseError):
            core.load_model(bad)
        # Version 1: a factor with a nonzero beyond p places below its
        # diagonal, or without a positive diagonal.
        _, model = noisy_model
        doc, p = _version_1(model), model.p
        L = np.array(doc["normal_factor"])
        core.model_from_dict(doc)  # the fit's band
        for i, j, value in ((p + 1, 0, 1e-300), (-1, 0, -2.0), (3, 3, 0.0), (3, 3, -1.0)):
            broken = L.copy()
            broken[i, j] = value
            with pytest.raises(ParseError):
                core.model_from_dict(dict(doc, normal_factor=broken.tolist()))
        # Version 2: the wrong number of diagonals, a diagonal of the wrong
        # length, a main diagonal that is not positive and finite, or
        # diagonals that are not a list of lists.
        doc = core.model_to_dict(model)
        diagonals = doc["factor_diagonals"]
        core.model_from_dict(doc)
        cases = [diagonals[:-1], diagonals + [diagonals[-1][1:]],
                 [diagonals[0][1:]] + diagonals[1:], diagonals[:-1] + [diagonals[-1] + [0.0]],
                 diagonals[0], [diagonals], "diagonals", 1.0, None,
                 {str(k): d for k, d in enumerate(diagonals)}]
        for value in (0.0, -1.0, float("nan"), float("inf")):
            cases.append([diagonals[0][:3] + [value] + diagonals[0][4:]] + diagonals[1:])
        for case in cases:
            with pytest.raises(ParseError):
                core.model_from_dict(dict(doc, factor_diagonals=case))
        # Scalar fields of the wrong JSON type, which a lenient reader would
        # coerce and save back changed.
        fixture = json.loads((DATA / "model_v1.json").read_text())
        for field, value in (("p", 4.9), ("m", 18.7), ("q", "2"), ("n", "24"), ("n", True),
                             ("ridged", "no"), ("placement", 7), ("gcv_cost", "nan"),
                             ("lambda", "0.5")):
            bad.write_text(json.dumps(dict(fixture, **{field: value})))
            with pytest.raises(ParseError, match=field):
                core.load_model(bad)
        # Array entries of the wrong JSON type, in version 1's fixture and
        # in a version-2 document's diagonals.
        documents = [(fixture, "knots", None), (fixture, "theta", None),
                     (fixture, "normal_factor", 2), (doc, "factor_diagonals", 1)]
        for document, field, row in documents:
            for value in ("0.5", True, None, [0.5]):
                changed = json.loads(json.dumps(document))
                entries = changed[field] if row is None else changed[field][row]
                entries[1] = value
                bad.write_text(json.dumps(changed))
                with pytest.raises(ParseError, match=field):
                    core.load_model(bad)

    @pytest.mark.parametrize("version", [3, "2", None, 2.0, True, 0],
                             ids=["3", "str2", "missing", "float2", "true", "0"])
    def test_unknown_versions_are_parse_errors(self, noisy_model, version):
        doc = core.model_to_dict(noisy_model[1])
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
        with pytest.raises(ParseError, match=re.escape(f"version {version!r}")):
            core.model_from_dict(doc)

    def test_version_1_factor_must_be_stored_lower(self):
        # A fit's version-1 document: the factorization routine left A's
        # own entries in the upper triangle. Read as L' they pass the band
        # and diagonal checks, and on this model give stds off by up to 125%.
        doc = json.loads((DATA / "model_v1.json").read_text())
        core.model_from_dict(doc)
        for flag in (False, "false", "no", 1, None):
            with pytest.raises(ParseError, match="factor_lower"):
                core.model_from_dict(dict(doc, factor_lower=flag))
        del doc["factor_lower"]
        with pytest.raises(ParseError, match="factor_lower"):
            core.model_from_dict(doc)

    def test_version_1_fixture_loads_and_saves_as_version_2(self, tmp_path):
        # model_v1.json and its band CSV were written by the version-1 writer.
        model = core.load_model(DATA / "model_v1.json")
        want = np.loadtxt(DATA / "model_v1_band.csv", delimiter=",", skiprows=1)
        epochs = want[:, 0]
        bands = [fn(model, epochs) for fn in (core.predict, core.predict_derivative)]
        got = np.column_stack([epochs] + [x for band in bands for x in (band.mean, band.std)])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        path = tmp_path / "model.json"
        core.save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["version"] == 2
        assert "normal_factor" not in doc and "factor_lower" not in doc
        upgraded = core.load_model(path)
        for fn, band in zip((core.predict, core.predict_derivative), bands):
            again = fn(upgraded, epochs)
            for a, b in ((band.mean, again.mean), (band.std, again.std),
                         (band.half_width, again.half_width)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("sigma2", float("nan")), ("sigma2", -2.0), ("sigma2", float("inf")),
        ("df_res", 0.0), ("df_res", -1.0), ("df_res", float("nan")),
        ("lambda", float("nan")), ("lambda", float("inf")), ("gcv_cost", float("inf")),
        ("theta", float("nan")), ("normal_factor", float("inf")),
        ("factor_diagonals", float("inf")), ("knots", float("nan")),
        ("p", -1), ("p", 0), ("p", 1), ("p", 5), ("q", 0), ("q", 4),
    ])
    def test_documents_that_give_broken_bands_are_rejected(self, noisy_model, field, value):
        _, model = noisy_model
        # normal_factor is version 1's; every other field is version 2's.
        doc = _version_1(model) if field == "normal_factor" else core.model_to_dict(model)
        if field == "p":
            # Sections, theta and factor sized for degree p on the same knots.
            c = len(doc["knots"]) - value - 1
            doc.update(m=c - value, theta=[0.0] * c,
                       factor_diagonals=[[float(k == 0)] * (c - k) for k in range(value + 1)])
        if isinstance(doc[field], list):
            nested = field in ("normal_factor", "factor_diagonals")
            doc[field] = [list(row) for row in doc[field]] if nested else list(doc[field])
            if nested:
                doc[field][1][1] = value
            else:
                doc[field][1] = value
        else:
            doc[field] = value
        with pytest.raises(ParseError):
            core.model_from_dict(doc)

    @pytest.mark.parametrize("version, field, resize", [
        (2, "theta", lambda a: a[:-1]),
        (1, "normal_factor", lambda a: a[:-1]),
        (1, "normal_factor", lambda a: [row[:-1] for row in a]),
    ], ids=["theta-short", "factor-row-short", "factor-column-short"])
    def test_arrays_not_sized_by_m_plus_p_are_parse_errors(self, noisy_model, version, field,
                                                          resize):
        _, model = noisy_model
        doc = _version_1(model) if version == 1 else core.model_to_dict(model)
        doc[field] = resize(doc[field])
        with pytest.raises(ParseError, match=r"inconsistent with m \+ p"):
            core.model_from_dict(doc)

    @pytest.mark.parametrize("knots", [lambda k: k[:-1], lambda k: k[::-1],
                                       lambda k: [k[0]] * len(k)])
    def test_malformed_knot_lists_are_parse_errors(self, noisy_model, knots):
        doc = core.model_to_dict(noisy_model[1])
        doc["knots"] = knots(doc["knots"])
        with pytest.raises(ParseError):
            core.model_from_dict(doc)

    def test_fitted_models_still_round_trip(self, noisy_model, linear_model):
        for model in (noisy_model[1], linear_model):
            doc = core.model_to_dict(model)
            assert core.model_to_dict(core.model_from_dict(doc)) == doc
