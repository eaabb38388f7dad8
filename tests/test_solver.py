import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from alps import solver
from alps.basis import build_knot_vector, eval_basis
from alps.errors import InvalidInputError, RankDeficiencyError
from alps.penalty import difference_matrix
from alps.solver import (
    COST_TIE_RTOL,
    GcvProfile,
    LambdaGrid,
    best_columns,
    fit_penalized,
    gcv_profile,
    minimize_gcv_lambda,
    search_lambda,
)
from alps.synth import gramacy_lee


def uniform_design(n=40, m=8, p=3, lo=0.0, hi=1.0):
    times = np.linspace(lo, hi, n)
    kv = build_knot_vector(times, m, p)
    return times, kv, eval_basis(kv, times)


def penalty(q, c, lam):
    """The c x c penalty lam * D_q' D_q."""
    D = difference_matrix(q, c)
    return lam * (D.T @ D)


def normal_equations_oracle(Bv, y, q, lam):
    """Direct dense solve of (B'B + lam D'D) theta = B'y."""
    return np.linalg.solve(Bv.T @ Bv + penalty(q, Bv.shape[1], lam), Bv.T @ y)


def smoother_matrix(B, q, lam):
    """n x n matrix H mapping observations to fitted values."""
    Bv = B.values
    cho = scipy.linalg.cho_factor(Bv.T @ Bv + penalty(q, Bv.shape[1], lam), lower=True)
    return Bv @ scipy.linalg.cho_solve(cho, Bv.T)


def gcv_score(B, y, q, lam):
    """GCV at one lambda by a direct Cholesky solve: the residual sum of
    squares over (1 - tr(H)/n)^2, +inf when that denominator falls below
    the degeneracy floor. The reference for the profile scorer."""
    Bv, y = B.values, np.asarray(y, dtype=float)
    G = Bv.T @ Bv
    cho = scipy.linalg.cho_factor(G + penalty(q, Bv.shape[1], lam), lower=True)
    resid = y - Bv @ scipy.linalg.cho_solve(cho, Bv.T @ y)
    tr_h = np.trace(scipy.linalg.cho_solve(cho, G))
    return float(solver._gcv_cost(resid @ resid, tr_h, y.size))


def residual_df(H):
    """n - 2 tr(H) + tr(H H') for a square smoother matrix."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidInputError("H must be square")
    n = H.shape[0]
    return float(n - 2.0 * np.trace(H) + np.sum(H * H))


def profile(B, y, q):
    """gcv_profile of a design, its rows merged by epoch as
    minimize_gcv_lambda merges them."""
    y = np.asarray(y, dtype=float)
    merge, ys = solver._distinct_rows(B.epochs, y)
    return gcv_profile(merge(B), ys, float(y @ y), B.local.shape[0] - 1, q)


def error_variance(y, B, theta, df_res):
    """Unbiased residual variance ||y - B theta||^2 / df_res."""
    if df_res <= 0:
        raise ValueError(f"df_res must be positive, got {df_res}")
    Bv = np.asarray(getattr(B, "values", B), dtype=float)
    resid = np.asarray(y, dtype=float) - Bv @ np.asarray(theta, dtype=float)
    return float(resid @ resid) / df_res


# One entry of y replaced: not finite, or finite with y'y past the float range.
BAD_Y = [(np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (1e200, "overflows")]


def _with_bad_entry(y, bad):
    y = np.array(y, dtype=float)
    y[7] = bad
    return y


class TestFitPenalized:
    def test_constant_in_penalty_null_space(self):
        times, kv, B = uniform_design()
        y = np.full(len(times), 7.0)
        for q, lam in [(1, 0.5), (2, 100.0), (1, 1e4)]:
            res = fit_penalized(B, y, q, lam)
            np.testing.assert_allclose(B.values @ res.theta, y, atol=1e-9)

    def test_linear_matches_normal_equations_oracle(self):
        times, kv, B = uniform_design(n=30, m=6, p=3)
        y = 2.0 - 3.0 * times
        res = fit_penalized(B, y, 2, 5.0)
        expected = normal_equations_oracle(B.values, y, 2, 5.0)
        np.testing.assert_allclose(res.theta, expected, atol=1e-9)
        np.testing.assert_allclose(B.values @ res.theta, y, atol=1e-8)

    def test_unpenalized_square_system_interpolates(self):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0, 1, 9))
        kv = build_knot_vector(times, m=6, p=3)  # c = 9 = n
        B = eval_basis(kv, times)
        y = rng.normal(size=9)
        resid = y - B.values @ fit_penalized(B, y, 2, 0.0).theta
        assert resid @ resid < 1e-16 * 9 * np.var(y)

    def test_stationarity_condition(self):
        rng = np.random.default_rng(4)
        times, kv, B = uniform_design(n=50, m=10, p=4)
        y = rng.normal(size=50)
        res = fit_penalized(B, y, 2, 0.37)
        A = B.values.T @ B.values + penalty(2, kv.n_bases, 0.37)
        rhs = B.values.T @ y
        rel = np.linalg.norm(A @ res.theta - rhs) / np.linalg.norm(rhs)
        assert rel < 1e-10

    def test_unsupported_basis_raises_with_index_range(self):
        # Data only in the left half; right-side bases have empty support.
        times = np.linspace(0, 1, 20)
        kv = build_knot_vector(times, m=8, p=2, placement="equidistant")
        B_left = eval_basis(kv, times[times <= 0.4])
        y = np.zeros(B_left.values.shape[0])
        with pytest.raises(RankDeficiencyError, match=r"\d+\.\.\d+"):
            fit_penalized(B_left, y, 2, 0.0)

    def test_shape_mismatch(self):
        times, kv, B = uniform_design()
        with pytest.raises(InvalidInputError):
            fit_penalized(B, np.zeros(len(times) + 1), 2, 1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        times, kv, B = uniform_design()
        with pytest.raises(InvalidInputError, match="smoothing parameter"):
            fit_penalized(B, np.zeros(len(times)), 2, lam)

    @pytest.mark.parametrize("bad, match", BAD_Y)
    def test_y_not_finite_or_overflowing_is_invalid_input(self, bad, match):
        times, kv, B = uniform_design()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=match):
                fit_penalized(B, _with_bad_entry(np.sin(times), bad), 2, 1.0)

    def test_a_failed_factor_is_retried_once_with_a_ridge(self, monkeypatch):
        rng = np.random.default_rng(3)
        times, kv, B = uniform_design()
        y = rng.normal(size=len(times))
        plain = fit_penalized(B, y, 2, 0.1)
        dpbtrf, calls = scipy.linalg.lapack.dpbtrf, []

        def failing(times):
            # The first ``times`` calls report a matrix that is not definite.
            def factor(ab, *args, **kwargs):
                calls.append(ab.shape)
                return (ab, 1) if len(calls) <= times else dpbtrf(ab, *args, **kwargs)
            return factor

        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", failing(1))
        ridged = fit_penalized(B, y, 2, 0.1)
        assert len(calls) == 2 and ridged.ridged and not plain.ridged
        np.testing.assert_allclose(ridged.theta, plain.theta, rtol=1e-8)
        calls.clear()
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", failing(2))
        with pytest.raises(RankDeficiencyError, match="ridge"):
            fit_penalized(B, y, 2, 0.1)
        assert len(calls) == 2

    def test_a_design_must_be_a_basis_matrix(self):
        times, kv, B = uniform_design()
        y = np.sin(times)
        for design in (B.values, B.values.tolist()):
            with pytest.raises(InvalidInputError, match="BasisMatrix"):
                fit_penalized(design, y, 2, 0.1)
            with pytest.raises(InvalidInputError, match="BasisMatrix"):
                minimize_gcv_lambda(design, y, 2)
            with pytest.raises(InvalidInputError, match="BasisMatrix"):
                minimize_gcv_lambda([B, design], y, 2)
        # A bare design is not the iterable of them the search takes.
        with pytest.raises(InvalidInputError, match="iterable"):
            minimize_gcv_lambda(B, y, 2)


class TestSmootherMatrix:
    def test_unpenalized_square_is_identity(self):
        rng = np.random.default_rng(6)
        times = np.sort(rng.uniform(0, 1, 8))
        kv = build_knot_vector(times, m=5, p=3)  # c = 8
        B = eval_basis(kv, times)
        H = smoother_matrix(B, 2, 0.0)
        np.testing.assert_allclose(H, np.eye(8), atol=1e-7)

    def test_huge_lambda_first_order_keeps_only_constant(self):
        times, kv, B = uniform_design(n=25, m=6, p=3)
        H = smoother_matrix(B, 1, 1e12)
        assert abs(np.trace(H) - 1.0) < 1e-3

    def test_consistent_with_fit(self):
        rng = np.random.default_rng(8)
        times, kv, B = uniform_design(n=35, m=7, p=3)
        y = rng.normal(size=35)
        H = smoother_matrix(B, 2, 0.01)
        res = fit_penalized(B, y, 2, 0.01)
        np.testing.assert_allclose(H @ y, B.values @ res.theta, atol=1e-10)


def profile_cost(B, y, q, lam):
    """The profile scorer's GCV cost at one lambda: a one-point grid,
    which the search does not refine."""
    return minimize_gcv_lambda([B], y, q, LambdaGrid(lam, lam, 1))[1][0]


class TestGcvScore:
    """The profile scorer, the library's one GCV evaluator, at one lambda."""

    def test_zero_residuals_zero_score(self):
        rng = np.random.default_rng(10)
        times, kv, B = uniform_design(n=30, m=5, p=3)
        theta = rng.normal(size=kv.n_bases)
        y = B.values @ theta  # exactly representable
        # The profile's rss starts from y'y - sum(w), and an rss within
        # rounding of y'y scores 0.
        assert profile_cost(B, y, 2, 1e-12) == 0.0

    def test_interpolation_limit_is_inf(self):
        times = np.array([0.0, 1.0])
        kv = build_knot_vector(times, m=1, p=1)  # c = 2 = n
        B = eval_basis(kv, times)
        # 1 - tr(H)/n is of order lambda here, below the floor at 1e-12.
        assert profile_cost(B, np.array([0.3, 0.9]), 1, 1e-12) == np.inf

    def test_matches_formula_transcription_oracle(self):
        rng = np.random.default_rng(12)
        times = np.sort(rng.uniform(0.5, 2.5, 10))
        y = gramacy_lee(times) + rng.normal(0, 0.1, 10)
        kv = build_knot_vector(times, m=3, p=3)  # c = 6
        B = eval_basis(kv, times)
        # Literal transcription with an explicit inverse and smoother matrix.
        H = B.values @ np.linalg.inv(B.values.T @ B.values + penalty(2, 6, 0.1)) @ B.values.T
        resid = (np.eye(10) - H) @ y
        oracle = np.sum((resid / (1.0 - np.trace(H) / 10.0)) ** 2)
        assert profile_cost(B, y, 2, 0.1) == pytest.approx(oracle, rel=1e-10)


class TestMinimizeGcvLambda:
    def test_noiseless_linear_prefers_largest_lambda(self):
        times, kv, B = uniform_design(n=20, m=4, p=3)
        y = 1.0 + 2.0 * times
        (lam,), (cost,) = minimize_gcv_lambda([B], y, q=2)
        assert lam == LambdaGrid().hi
        assert cost < 1e-18

    def test_strong_noise_selects_interior_lambda(self):
        times, kv, B = uniform_design(n=60, m=25, p=3)
        truth = np.sin(2 * np.pi * times)
        better = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            y = truth + rng.normal(0, 0.5, 60)
            (lam,), _ = minimize_gcv_lambda([B], y, q=2)
            assert lam > LambdaGrid().lo
            fit_sel = fit_penalized(B, y, 2, lam)
            fit_min = fit_penalized(B, y, 2, LambdaGrid().lo)
            rmse_sel = np.sqrt(np.mean((B.values @ fit_sel.theta - truth) ** 2))
            rmse_min = np.sqrt(np.mean((B.values @ fit_min.theta - truth) ** 2))
            better += rmse_sel < rmse_min
        assert better >= 7

    def test_beats_reference_candidate_set(self):
        # Candidate values from the under/over-smoothing illustration.
        rng = np.random.default_rng(21)
        times = np.sort(rng.uniform(0, 10, 50))
        kv = build_knot_vector(times, m=10, p=4)
        B = eval_basis(kv, times)
        y = np.sin(times) + rng.normal(0, 0.3, 50)
        (lam,), (cost,) = minimize_gcv_lambda([B], y, q=2)
        candidates = [0.5, 0.01, 0.005, 0.001]
        scores = [gcv_score(B, y, 2, c) for c in candidates]
        assert cost <= min(scores) * (1 + 1e-9)

    def test_all_candidates_degenerate(self):
        # Two points with a second-order penalty: the smoothing limit is a
        # line, which interpolates any two points at every lambda.
        times = np.array([0.0, 1.0])
        kv = build_knot_vector(times, m=1, p=2)  # c = 3
        B = eval_basis(kv, times)
        (lam,), (cost,) = minimize_gcv_lambda([B], np.array([0.0, 1.0]), q=2)
        assert np.isnan(lam) and cost == np.inf

    @pytest.mark.parametrize("q", [2, 3])
    def test_one_repeated_epoch_gives_a_factor_dpbtrf_rejects(self, q):
        # Twelve samples at one epoch: B'B has rank 1, so B'B + D'D is
        # singular for q >= 2, and at this epoch dpbtrf rejects its factor
        # (elsewhere rounding can let it through).
        B = eval_basis(build_knot_vector([0.0, 1.0], m=1, p=4), np.zeros(12))
        (lam,), (cost,) = minimize_gcv_lambda([B], np.arange(12.0), q)
        assert np.isnan(lam) and cost == np.inf

    @pytest.mark.parametrize("bad, match", BAD_Y)
    def test_y_not_finite_or_overflowing_raises_before_any_design(self, bad, match):
        times, kv, B = uniform_design()
        drawn = []

        def designs():
            drawn.append(B)
            yield B

        with pytest.raises(InvalidInputError, match=match):
            minimize_gcv_lambda(designs(), _with_bad_entry(np.sin(times), bad), 2)
        assert not drawn

    @pytest.mark.parametrize("y", [np.zeros(39), np.zeros((40, 1))], ids=["39 values", "(40, 1)"])
    def test_y_not_one_value_per_epoch_is_invalid_input(self, y):
        times, kv, B = uniform_design(n=40)
        with pytest.raises(InvalidInputError, match="y must have length"):
            minimize_gcv_lambda([B], y, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        times, kv, B = uniform_design(n=45, m=9, p=4)
        y = np.cos(3 * times) + rng.normal(0, 0.2, 45)
        first = minimize_gcv_lambda([B], y, q=2)
        second = minimize_gcv_lambda([B], y, q=2)
        assert (first[0][0], first[1][0]) == (second[0][0], second[1][0])

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            LambdaGrid(-1.0, 1.0, 10)
        with pytest.raises(InvalidInputError):
            LambdaGrid(1.0, 0.5, 10)
        with pytest.raises(InvalidInputError, match="hi < inf"):
            LambdaGrid(1.0, np.inf, 10)
        for num in (41.0, True, "41", np.float64(41.0)):
            with pytest.raises(InvalidInputError, match="integer"):
                LambdaGrid(1.0, 2.0, num)
        assert LambdaGrid(1.0, 2.0, np.int64(3)).points().size == 3


class TestResidualDf:
    def test_identity_gives_zero(self):
        assert residual_df(np.eye(5)) == pytest.approx(0.0)

    def test_null_smoother_gives_n(self):
        assert residual_df(np.zeros((7, 7))) == pytest.approx(7.0)

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(14)
        n = 12
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        h = rng.uniform(0, 1, n)
        H = Q @ np.diag(h) @ Q.T
        assert residual_df(H) == pytest.approx(np.sum((1 - h) ** 2), abs=1e-9)

    def test_requires_square(self):
        with pytest.raises(InvalidInputError):
            residual_df(np.zeros((3, 4)))


class TestErrorVariance:
    def test_zero_residuals(self):
        B = np.eye(3)
        theta = np.array([1.0, 2.0, 3.0])
        assert error_variance(theta, B, theta, df_res=2.0) == 0.0

    def test_direct_arithmetic(self):
        B = np.eye(2)
        y = np.array([1.0, -1.0])
        theta = np.zeros(2)
        assert error_variance(y, B, theta, df_res=2.0) == pytest.approx(1.0)

    def test_nonpositive_df_rejected(self):
        with pytest.raises(ValueError):
            error_variance(np.ones(3), np.eye(3), np.ones(3), df_res=0.0)

    def test_unbiased_over_replicates(self):
        # Linear truth on uniform knots sits in the penalty null space, so
        # the estimator is exactly unbiased there.
        times, kv, B = uniform_design(n=50, m=8, p=3)
        truth = 1.0 + 0.5 * times
        H = smoother_matrix(B, 2, 1.0)
        df = residual_df(H)
        sigma = 0.3
        rng = np.random.default_rng(99)
        estimates = []
        for _ in range(500):
            y = truth + rng.normal(0, sigma, 50)
            res = fit_penalized(B, y, 2, 1.0)
            estimates.append(error_variance(y, B, res.theta, df))
        assert np.mean(estimates) == pytest.approx(sigma**2, rel=0.10)


class TestInvariants:
    def test_trace_monotone_in_lambda(self):
        times, kv, B = uniform_design(n=30, m=7, p=3)
        traces = [
            np.trace(smoother_matrix(B, 2, lam))
            for lam in np.geomspace(1e-4, 1e4, 17)
        ]
        assert np.all(np.diff(traces) <= 1e-9)

    def test_trace_bounds(self):
        times, kv, B = uniform_design(n=30, m=7, p=3)
        c = kv.n_bases
        for q in (1, 2):
            for lam in (1e-3, 1.0, 1e3):
                tr = np.trace(smoother_matrix(B, q, lam))
                assert q - 1e-9 <= tr <= c + 1e-9

    def test_polynomial_reproduction_on_uniform_knots(self):
        times, kv, B = uniform_design(n=25, m=6, p=3)
        cases = [(np.full(25, 3.0), 1), (np.full(25, 3.0), 2), (2 - 0.7 * times, 2)]
        for y, q in cases:
            for lam in LambdaGrid().points():
                res = fit_penalized(B, y, q, lam)
                np.testing.assert_allclose(B.values @ res.theta, y, atol=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=1, max_value=2),
)
def test_fit_matches_oracle_property(seed, lam, q):
    rng = np.random.default_rng(seed)
    n = rng.integers(15, 40)
    times = np.sort(rng.uniform(0, 5, n))
    if np.unique(times).size < 2:
        return
    m = int(rng.integers(1, 6))
    kv = build_knot_vector(times, m, 3)
    B = eval_basis(kv, times)
    y = rng.normal(size=n)
    res = fit_penalized(B, y, q, lam)
    expected = normal_equations_oracle(B.values, y, q, lam)
    np.testing.assert_allclose(res.theta, expected, atol=1e-8)


class TestTieRule:
    """best_columns, the one tie rule of the lambda search and the m scan."""

    def test_smaller_cost_wins(self):
        cost, key = np.array([[2.0, 1.0, 3.0]]), np.array([[1.0, 2.0, 3.0]])
        assert best_columns(cost, key, 1)[0] == 1

    def test_lambda_tie_goes_to_the_larger_lambda(self):
        cost = np.array([[1.0, 1.0 + 0.3 * COST_TIE_RTOL, 1.0 - 0.3 * COST_TIE_RTOL]])
        key = np.array([[1.0, 3.0, 2.0]])
        assert best_columns(cost, key, 1)[0] == 1

    def test_tiny_costs_compare_by_value(self):
        # There is no absolute floor: costs far below any rounding level
        # tie only by the relative rule.
        cost, key = np.array([[1e-30, 5e-30]]), np.array([[1.0, 2.0]])
        assert best_columns(cost, key, 1)[0] == 0
        assert best_columns(np.array([[1e-30, 1e-30]]), key, 1)[0] == 1

    def test_m_tie_keeps_the_smaller_m(self):
        cost = np.array([[2.0, 2.0 * (1 - 0.5 * COST_TIE_RTOL), 2.0 * (1 - 0.9 * COST_TIE_RTOL)]])
        key = np.array([[3.0, 4.0, 5.0]])
        assert best_columns(cost, key, -1)[0] == 0

    def test_infinite_costs_never_win(self):
        cost = np.array([[np.inf, 5.0, np.inf], [np.inf, np.inf, np.inf]])
        key = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert list(best_columns(cost, key, 1)) == [1, 0]

    def test_rows_are_independent(self):
        cost = np.array([[1.0, 1.0], [2.0, 1.0]])
        key = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert list(best_columns(cost, key, -1)) == [0, 1]

    def test_ties_are_measured_from_the_least_cost(self):
        # Each cost ties with its neighbour, but only the first two tie
        # with the least; a rule that walks the columns would hand the tie
        # on to column 2.
        r = COST_TIE_RTOL
        cost, key = np.array([[1.0, 1.0 + 0.8 * r, 1.0 + 1.6 * r]]), np.array([[1.0, 2.0, 3.0]])
        assert best_columns(cost, key, 1)[0] == 1
        assert best_columns(cost[:, ::-1], key[:, ::-1], 1)[0] == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-8, 8).map(lambda k: 1.0 + k * COST_TIE_RTOL / 4),
                              st.just(np.inf)), min_size=1, max_size=8),
           st.sampled_from([1, -1]), st.data())
    def test_the_pick_does_not_depend_on_the_column_order(self, costs, sign, data):
        # Near-tie clusters a quarter of the tolerance apart; the keys are
        # distinct, so the same (key, cost) is the same column.
        order = data.draw(st.permutations(range(len(costs))))
        cost, key = np.array([costs]), np.arange(len(costs), dtype=float)[None]
        a = best_columns(cost, key, sign)[0]
        b = best_columns(cost[:, order], key[:, order], sign)[0]
        if np.isfinite(cost).any():
            assert order[b] == a
        else:
            assert a == b == 0


def _profiles(n=60, ms=(1, 4, 9, 20, 33, 58), seed=3):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, 10, n))
    y = np.sin(times) + rng.normal(0, 0.3, n)
    designs = [eval_basis(build_knot_vector(times, m, 4), times) for m in ms]
    return y, designs, [profile(B, y, 2) for B in designs]


class TestSearchLambda:
    def test_a_row_does_not_depend_on_its_batch(self):
        # The rows differ in width (c = 5..62), so a row alone, in a small
        # batch and in a batch padded to c = 62 sum over different shapes.
        y, designs, profiles = _profiles()
        points = LambdaGrid().points()
        together = search_lambda(profiles, y.size, points)
        reversed_ = search_lambda(profiles[::-1], y.size, points)
        for i, (B, profile) in enumerate(zip(designs, profiles)):
            alone = search_lambda([profile], y.size, points)
            assert (alone[0][0], alone[1][0]) == (together[0][i], together[1][i])
            assert (alone[0][0], alone[1][0]) == (reversed_[0][-1 - i], reversed_[1][-1 - i])
            lam, cost = minimize_gcv_lambda([B], y, 2)
            assert (alone[0][0], alone[1][0]) == (lam[0], cost[0])

    def test_every_degenerate_row_gives_nan_and_inf(self):
        times = np.array([0.0, 1.0])
        B = eval_basis(build_knot_vector(times, m=1, p=2), times)
        y = np.array([0.0, 1.0])
        lam, cost = search_lambda([profile(B, y, 2)], y.size, LambdaGrid().points())
        assert np.isnan(lam[0]) and cost[0] == np.inf

    def test_rows_without_a_bracket_are_not_refined(self, monkeypatch):
        # A row whose every grid cost is infinite is scored on the grid only,
        # even when other rows of the batch refine.
        y, _, profiles = _profiles(ms=(9,))
        scored, scorer = [], solver._scorer

        def spy(batch, n, k):
            scored.append((list(batch), k))
            return scorer(batch, n, k)

        monkeypatch.setattr(solver, "_scorer", spy)
        points = LambdaGrid().points()
        rows = [profiles[0], GcvProfile(None)]
        lam, cost = search_lambda(rows, y.size, points)
        assert [(len(batch), k) for batch, k in scored] == [(2, points.size), (1, 1)]
        assert scored[1][0][0] is profiles[0]
        assert np.isfinite(cost[0]) and np.isnan(lam[1]) and cost[1] == np.inf

    def test_an_iterable_of_designs_gives_one_row_each(self):
        y, designs, _ = _profiles()
        lam, cost = minimize_gcv_lambda(iter(designs), y, 2)
        alone = [minimize_gcv_lambda([B], y, 2) for B in designs]
        assert [(a[0][0], a[1][0]) for a in alone] == list(zip(lam, cost))
        times = np.array([0.0, 1.0])
        B = eval_basis(build_knot_vector(times, m=1, p=2), times)
        lam, cost = minimize_gcv_lambda([B], np.array([0.0, 1.0]), 2)
        assert np.isnan(lam[0]) and cost[0] == np.inf
        assert minimize_gcv_lambda([], y, 2)[0].size == 0

    def test_a_one_point_grid_is_not_refined(self):
        y, designs, _ = _profiles(ms=(9,))
        (lam,), (cost,) = minimize_gcv_lambda(designs[:1], y, 2, LambdaGrid(0.5, 0.5, 1))
        assert lam == 0.5
        assert cost == pytest.approx(gcv_score(designs[0], y, 2, 0.5), rel=1e-9)

    @pytest.mark.parametrize("shift", [123.0, -50.0])
    def test_a_constant_shift_of_y_keeps_lambda(self, shift):
        # The constant lies in the penalty's null space: the fit moves with
        # it and GCV does not change, so neither should the search.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            times = np.sort(rng.uniform(0, 10, 60))
            y = np.sin(times) + rng.normal(0, 0.3, 60)
            B = eval_basis(build_knot_vector(times, 15, 4), times)
            (lam0,), (cost0,) = minimize_gcv_lambda([B], y, q=2)
            (lam1,), (cost1,) = minimize_gcv_lambda([B], y + shift, q=2)
            assert abs(np.log(lam1 / lam0)) <= 1e-9
            assert cost1 == pytest.approx(cost0, rel=1e-9)

    def test_profile_costs_match_the_direct_factorization(self, monkeypatch):
        # The profile's O(c) cost against the Cholesky path of the gcv_score
        # oracle (the reference). A pencil that is not definite has no
        # profile: its row is degenerate, alone or among others.
        y, designs, profiles = _profiles(ms=(4, 20, 58))
        lams = np.geomspace(1e-4, 1e4, 9)
        costs = solver._scorer(profiles, y.size, lams.size)(np.tile(lams, (len(profiles), 1)))
        for B, row in zip(designs, costs):
            direct = [gcv_score(B, y, 2, lam) for lam in lams]
            np.testing.assert_allclose(row, direct, rtol=1e-9)

        def not_definite(*args, **kwargs):
            raise scipy.linalg.LinAlgError("not definite")

        monkeypatch.setattr(scipy.linalg, "eigh", not_definite)
        lam, cost = minimize_gcv_lambda(iter(designs), y, 2)
        assert np.isnan(lam).all() and (cost == np.inf).all()
        for B in designs:
            assert profile(B, y, 2).mu is None
            (lam,), (cost,) = minimize_gcv_lambda([B], y, 2)
            assert np.isnan(lam) and cost == np.inf


def _repeated(dates, repeats, lo=0.0, span=1.0, seed=0):
    """Sorted epochs: ``dates`` distinct dates in [lo, lo + span], each
    ``repeats`` times."""
    rng = np.random.default_rng(seed)
    return np.repeat(np.sort(lo + span * rng.uniform(0.0, 1.0, dates)), repeats)


@pytest.mark.parametrize("m, p", [(5, 2), (12, 3), (30, 4)])
def test_merged_local_rows_are_byte_equal_to_gathered_dense_rows(m, p):
    epochs = np.concatenate((_repeated(10, 3), _repeated(7, 1, lo=1.0, seed=1)))
    B = eval_basis(build_knot_vector(epochs, m, p), epochs)
    y = np.sin(6.0 * epochs)
    _, first, counts = np.unique(epochs, return_index=True, return_counts=True)
    assert B.at(first).values.tobytes() == B.values[first].tobytes()
    merged = solver._distinct_rows(B.epochs, y)[0](B)
    assert merged.tobytes() == (B.values[first] * np.sqrt(counts)[:, None]).tobytes()


# (epochs, m, p, q, constant y or None for a noisy sine[, placement]): r
# distinct epochs against c = m + p columns, and inputs at the edges of
# what fit accepts.
PROFILE_CASES = {
    "r>c": (_repeated(40, 1), 8, 4, 2, None),
    "r<c": (_repeated(10, 3), 12, 3, 2, None),
    "r=c": (_repeated(12, 2), 9, 3, 2, None),
    "n=p+2": (_repeated(6, 1), 3, 4, 2, None),
    "two epochs, q=2": (_repeated(2, 4), 2, 3, 2, None),
    "three epochs, q=3": (_repeated(3, 3), 4, 4, 3, None),
    "offset 1e6, span 1e-3": (_repeated(15, 2, lo=1e6, span=1e-3), 10, 4, 2, None),
    "offset 1e6, span 1e-3, r>c": (_repeated(30, 1, lo=1e6, span=1e-3), 6, 4, 1, None),
    "constant y": (_repeated(10, 3), 12, 3, 2, 7.0),
    "constant y, r>c": (_repeated(40, 1), 8, 4, 2, -3.5),
    "basis functions without data, r>c": (
        np.concatenate((_repeated(30, 1, span=0.3), _repeated(30, 1, lo=0.7, span=0.3))),
        20, 3, 2, None, "equidistant"),
}


class TestProfileAgainstTheDenseOracle:
    @pytest.mark.parametrize("case", PROFILE_CASES)
    def test_costs_match_gcv_score(self, case):
        # Rows merged by epoch change the eigenproblem, not the costs: they
        # match the direct n-row Cholesky oracle. Where y is reproduced
        # exactly the profile scores 0 and the oracle rounding noise.
        t, m, p, q, level, *placement = PROFILE_CASES[case]
        rng = np.random.default_rng(1)
        y = np.sin(2 * np.pi * (t - t[0]) / np.ptp(t)) + rng.normal(0.0, 0.1, t.size) \
            if level is None else np.full(t.size, level)
        B = eval_basis(build_knot_vector(t, m, p, *placement), t)
        pr = profile(B, y, q)
        assert pr.mu.size == min(np.unique(t).size, m + p)
        lams = np.geomspace(1e-3, 1e3, 7)
        costs = solver._scorer([pr], y.size, lams.size)(lams[None])[0]
        direct = [gcv_score(B, y, q, lam) for lam in lams]
        np.testing.assert_allclose(costs, direct, rtol=1e-9, atol=1e-12 * float(y @ y))

    def test_repeated_epochs_shrink_every_eigh_to_r(self, monkeypatch):
        # On 20 dates x 3 repeats plus a sparse tail of 8 (r = 28 of
        # n = 68), every section count's one eigh is at most r x r.
        sizes, eigh = [], scipy.linalg.eigh

        def spy(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        rng = np.random.default_rng(8)
        t = np.concatenate((_repeated(20, 3, lo=2003.0, span=6.0), 2010.0 + np.arange(8.0)))
        y = np.sin(t) + rng.normal(0.0, 0.1, t.size)
        monkeypatch.setattr(scipy.linalg, "eigh", spy)
        minimize_gcv_lambda((eval_basis(build_knot_vector(t, m, 4), t) for m in range(1, t.size)),
                            y, 2)
        assert len(sizes) == t.size - 1
        assert max(sizes) == np.unique(t).size == 28
