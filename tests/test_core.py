import inspect
import logging
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import assume, example, given, settings, strategies as st

from alps import _blas, core, solver
from alps.basis import build_knot_vector, eval_basis, eval_basis_derivative
from alps.errors import (
    AlpsError,
    ConfigError,
    DegenerateKnotsError,
    InsufficientDataError,
    InvalidInputError,
    OutOfDomainError,
    ParseError,
)
from alps.solver import LambdaGrid, fit_penalized, gcv_profile, minimize_gcv_lambda
from alps.synth import gramacy_lee, gramacy_lee_series
from alps.timeseries import TimeSeries


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

    def test_every_scan_row_is_the_one_design_search(self, noisy_model):
        # The scan scores all section counts together; each row must be
        # exactly what the search gives on that m's basis alone.
        series, model = noisy_model
        rows = model.fit_metadata.scan
        assert [m for m, _, _ in rows] == list(range(1, len(series)))
        for m, lam, cost in rows:
            B = eval_basis(build_knot_vector(series.times, m, 4), series.times)
            assert (lam, cost) == minimize_gcv_lambda(B, series.values, 2)

    def test_every_scan_row_is_the_one_design_search_on_repeated_epochs(self):
        # Campaign dates repeated three times, then a sparse tail: the scan
        # merges rows by epoch once for every m, the one-design search per
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
            assert (lam, cost) == minimize_gcv_lambda(B, y, 2)

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
        Bu = merge(eval_basis(kv, t).values)
        assert gcv_profile(Bu, ys, float(y @ y), config.q).mu is not None
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
    ])
    def test_rules(self, fields):
        with pytest.raises(ConfigError):
            core.FitConfig(**fields)


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
        knot_vector=kv, p=p, q=q, lambda_hat=lam, theta=result.theta, df_res=result.df_res,
        sigma2=result.sigma2, normal_factorization=result.normal_factorization,
        fit_metadata=meta)


def _stored_upper(model):
    """``model`` loaded from a document whose factor is stored upper."""
    doc = core.model_to_dict(model)
    doc["normal_factor"] = np.tril(model.normal_factorization[0]).T.tolist()
    doc["factor_lower"] = False
    return core.model_from_dict(doc)


def _band_cases():
    rng = np.random.default_rng(11)
    # Ten sections without data: at lambda = 1e-12 cond(A) is about 3e13,
    # and a std from an explicit band of A^{-1} is off by 6e-8.
    gap = np.sort(np.concatenate((rng.uniform(0.0, 0.4, 40), rng.uniform(0.6, 1.0, 40))))
    y_gap = np.sin(6.0 * gap) + rng.normal(0.0, 0.05, gap.size)
    for lam in (1e-4, 1e-8, 1e-12):
        yield f"gap-lam{lam:g}", _model_at(gap, y_gap, 48, 4, 2, lam)
    offset = 1e6 + np.sort(rng.uniform(0.0, 1e-3, 40))
    yield "offset", _model_at(offset, np.cos(4e3 * (offset - 1e6)), 12, 3, 2, 1e-2, "quantile")
    t = np.sort(rng.uniform(2000.0, 2010.0, 50))
    y = np.sin(t) + rng.normal(0.0, 0.1, t.size)
    for p in (2, 3, 4):
        for q in range(1, p):
            yield f"p{p}q{q}", _model_at(t, y, 15, p, q, 0.3, "quantile")
    yield "stored-upper", _stored_upper(_model_at(t, y, 15, 4, 2, 0.3, "quantile"))
    series, _ = gramacy_lee_series(n=60, noise_sd=0.1, seed=3)
    yield "fit", core.fit(series)


def _dense_band(model, epochs, evaluate):
    """Mean and b'A^{-1}b from the dense basis and a dense triangular solve."""
    factor, lower = model.normal_factorization
    L = np.tril(factor) if lower else np.triu(factor).T
    B = evaluate(model.knot_vector, epochs).values
    X = scipy.linalg.solve_triangular(L, B.T, lower=True)
    return B @ model.theta, np.sum(X * X, axis=0)


_BAND_CASES = dict(_band_cases())


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


def test_bands_above_the_one_thread_limit(tmp_path):
    # c = 904 > ONE_THREAD_MAX_BASES: W is inverted on the caller's threads.
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
        # A factor with a nonzero beyond p places off its diagonal in the
        # stored triangle, or without a positive diagonal, stored either way up.
        _, model = noisy_model
        doc, p = core.model_to_dict(model), model.p
        L = np.tril(model.normal_factorization[0])
        for lower, factor in ((True, L), (False, L.T)):
            doc.update(normal_factor=factor.tolist(), factor_lower=lower)
            core.model_from_dict(doc)  # the fit's band
            for i, j, value in ((p + 1, 0, 1e-300), (-1, 0, -2.0), (3, 3, 0.0), (3, 3, -1.0)):
                broken = factor.copy()
                broken[(i, j) if lower else (j, i)] = value
                doc["normal_factor"] = broken.tolist()
                with pytest.raises(ParseError):
                    core.model_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("sigma2", float("nan")), ("sigma2", -2.0), ("sigma2", float("inf")),
        ("df_res", 0.0), ("df_res", -1.0), ("df_res", float("nan")),
        ("lambda", float("nan")), ("lambda", float("inf")),
        ("theta", float("nan")), ("normal_factor", float("inf")), ("knots", float("nan")),
        ("p", -1), ("p", 0), ("p", 1), ("p", 5), ("q", 0), ("q", 4),
    ])
    def test_documents_that_give_broken_bands_are_rejected(self, noisy_model, field, value):
        _, model = noisy_model
        doc = core.model_to_dict(model)
        if field == "p":
            # Sections, theta and factor sized for degree p on the same knots.
            c = len(doc["knots"]) - value - 1
            doc.update(m=c - value, theta=[0.0] * c, normal_factor=np.eye(c).tolist())
        if isinstance(doc[field], list):
            doc[field] = [list(row) for row in doc[field]] if field == "normal_factor" \
                else list(doc[field])
            if field == "normal_factor":
                doc[field][1][1] = value
            else:
                doc[field][1] = value
        else:
            doc[field] = value
        with pytest.raises(ParseError):
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
