from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from alps import basis
from alps.basis import (
    PLACEMENTS,
    KnotVector,
    build_knot_vector,
    eval_basis,
    eval_basis_derivative,
    scan_bases,
)
from alps.errors import DegenerateKnotsError, InvalidInputError, OutOfDomainError


def naive_basis(knots, i, p, t):
    """Textbook recursive evaluation, scalar and unoptimized; the oracle
    the vectorized implementation is checked against."""
    if p == 0:
        return 1.0 if knots[i] <= t < knots[i + 1] else 0.0
    # A term whose lower-degree factor is 0 is 0, even where a subnormal
    # knot gap overflows its coefficient (inf * 0 would give NaN).
    left, lower = 0.0, naive_basis(knots, i, p - 1, t)
    if lower and knots[i + p] != knots[i]:
        left = (t - knots[i]) / (knots[i + p] - knots[i]) * lower
    right, lower = 0.0, naive_basis(knots, i + 1, p - 1, t)
    if lower and knots[i + p + 1] != knots[i + 1]:
        right = (knots[i + p + 1] - t) / (knots[i + p + 1] - knots[i + 1]) * lower
    return left + right


def quantile_oracle(values, fraction):
    """Type-7 quantile by explicit order statistics."""
    v = np.sort(np.asarray(values, dtype=float))
    pos = (v.size - 1) * fraction
    lo = int(np.floor(pos))
    frac = pos - lo
    if lo + 1 >= v.size:
        return v[-1]
    return v[lo] * (1 - frac) + v[lo + 1] * frac


class TestBuildKnotVector:
    def test_median_interior_knot(self):
        kv = build_knot_vector([0, 0.25, 0.5, 0.75, 1], m=2, p=2)
        np.testing.assert_allclose(kv.interior_knots(), [0.5])

    def test_equidistant_interior_knots(self):
        kv = build_knot_vector(np.linspace(0, 1, 11), m=4, p=3, placement="equidistant")
        np.testing.assert_allclose(kv.interior_knots(), [0.25, 0.5, 0.75])

    def test_quantile_matches_order_statistics_oracle(self):
        rng = np.random.default_rng(7)
        times = rng.lognormal(size=31)  # skewed
        kv = build_knot_vector(times, m=4, p=3)
        unique = np.unique(times)
        expected = [quantile_oracle(unique, a / 4) for a in (1, 2, 3)]
        np.testing.assert_allclose(kv.interior_knots(), expected, rtol=1e-14)

    def test_shape_and_domain(self):
        times = np.array([2000.0, 2001.5, 2004.0, 2009.0, 2016.0])
        kv = build_knot_vector(times, m=3, p=4)
        assert kv.knots.size == 3 + 2 * 4 + 1
        assert kv.n_bases == 3 + 4
        assert kv.domain == (2000.0, 2016.0)
        assert np.all(np.diff(kv.knots) >= 0)
        # p extension knots strictly outside the data domain on each side
        assert np.all(kv.knots[:4] < 2000.0)
        assert np.all(kv.knots[-4:] > 2016.0)

    def test_duplicate_epochs_use_unique_quantiles(self):
        base = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        dup = np.repeat(base, [1, 5, 1, 1, 1])
        kv_dup = build_knot_vector(dup, m=2, p=2)
        kv_base = build_knot_vector(base, m=2, p=2)
        np.testing.assert_array_equal(kv_dup.knots, kv_base.knots)

    def test_too_few_unique_times(self):
        with pytest.raises(InvalidInputError):
            build_knot_vector([3.0, 3.0, 3.0], m=1, p=2)

    def test_colliding_quantiles_beyond_multiplicity(self):
        tiny = np.nextafter(1.0, 2.0)
        with pytest.raises(DegenerateKnotsError):
            build_knot_vector([1.0, tiny, 2.0], m=8, p=1)

    def test_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            build_knot_vector([0.0, 1.0], m=0, p=2)
        with pytest.raises(InvalidInputError):
            build_knot_vector([0.0, 1.0], m=1, p=0)
        with pytest.raises(InvalidInputError):
            build_knot_vector([0.0, 1.0], m=1, p=2, placement="random")


class TestEvalBasis:
    def test_degree_zero_indicator(self):
        kv = KnotVector(np.array([0.0, 1.0, 2.0, 3.0]), p=0, m=3)
        B = eval_basis(kv, [0.5, 1.5, 2.5])
        np.testing.assert_array_equal(
            B.values, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )

    def test_hat_function_peak(self):
        kv = KnotVector(np.arange(6.0), p=1, m=3)
        B = eval_basis(kv, [2.0])  # center of basis 1's support [1, 3)
        assert B.values[0, 1] == pytest.approx(1.0)
        assert np.count_nonzero(B.values[0]) == 1

    def test_matches_naive_recursion_uniform(self):
        kv = build_knot_vector(np.linspace(0, 1, 7), m=6, p=3)
        rng = np.random.default_rng(11)
        epochs = rng.uniform(0, 1, 100)
        B = eval_basis(kv, epochs)
        np.testing.assert_allclose(B.values.sum(axis=1), 1.0, atol=1e-10)
        for j, t in enumerate(epochs):
            expected = [naive_basis(kv.knots, i, 3, t) for i in range(kv.n_bases)]
            np.testing.assert_allclose(B.values[j], expected, atol=1e-12)

    def test_right_endpoint_closed(self):
        kv = build_knot_vector(np.linspace(0, 1, 9), m=4, p=3)
        B_end = eval_basis(kv, [1.0])
        assert B_end.values.sum() == pytest.approx(1.0, abs=1e-10)
        B_near = eval_basis(kv, [1.0 - 1e-12])
        np.testing.assert_allclose(B_end.values, B_near.values, atol=1e-9)

    def test_out_of_domain(self):
        kv = build_knot_vector(np.linspace(0, 1, 9), m=3, p=3)
        with pytest.raises(OutOfDomainError):
            eval_basis(kv, [1.0001])
        with pytest.raises(OutOfDomainError):
            eval_basis(kv, [-0.0001])


class TestEvalBasisDerivative:
    def test_hat_rising_slope(self):
        kv = KnotVector(np.arange(6.0), p=1, m=3)
        D = eval_basis_derivative(kv, [1.5])  # basis 1 rises on [1, 2)
        assert D.values[0, 1] == pytest.approx(1.0)  # 1 / (u2 - u1)

    def test_rows_sum_to_zero(self):
        kv = build_knot_vector(np.linspace(0, 1, 11), m=5, p=3)
        rng = np.random.default_rng(3)
        D = eval_basis_derivative(kv, rng.uniform(0.01, 0.99, 50))
        np.testing.assert_allclose(D.values.sum(axis=1), 0.0, atol=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0, 10, 25))
        kv = build_knot_vector(times, m=5, p=3)
        epochs = rng.uniform(0.5, 9.5, 100)
        h = 1e-6
        D = eval_basis_derivative(kv, epochs)
        fd = (eval_basis(kv, epochs + h).values - eval_basis(kv, epochs - h).values) / (2 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        np.testing.assert_allclose(D.values / scale, fd / scale, atol=1e-5)

    def test_requires_degree_one(self):
        kv = KnotVector(np.array([0.0, 1.0, 2.0]), p=0, m=2)
        with pytest.raises(InvalidInputError):
            eval_basis_derivative(kv, [0.5])


@st.composite
def random_knot_setup(draw):
    n = draw(st.integers(min_value=6, max_value=25))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=n, max_size=n, unique=True,
        )
    )
    p = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=1, max_value=min(8, n - 1)))
    return np.array(sorted(times)), m, p


# Knots a subnormal distance apart once gave NaN basis values and
# derivatives: an overflowed weight times a zero lower-degree value.
SUBNORMAL_GAP_1 = (np.array([0.0, 5.29e-308, 1.0, 2.0, 3.0, 4.0, 20.0]), 6, 2)
SUBNORMAL_GAP_2 = (np.array([0.0, 2.2250738585e-309, 1.0, 2.0, 3.0, 4.0, 5.0]), 6, 2)


@settings(max_examples=60, deadline=None)
@given(random_knot_setup(), st.floats(min_value=0.0, max_value=1.0))
@example(SUBNORMAL_GAP_1, 0.5)
@example(SUBNORMAL_GAP_2, 1.0)
def test_partition_of_unity_property(setup, frac):
    times, m, p = setup
    kv = build_knot_vector(times, m, p)
    lo, hi = kv.domain
    t = lo + frac * (hi - lo)
    B = eval_basis(kv, [t])
    assert abs(B.values.sum() - 1.0) < 1e-10
    assert np.all(B.values >= 0.0)


@settings(max_examples=60, deadline=None)
@given(random_knot_setup(), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@example((np.array([0.0, 1.1125369292536007e-308, 0.5, 1.0, 2.0, 3.0, 4.0]), 6, 2), 0.5)
def test_local_support_and_oracle_property(setup, frac):
    times, m, p = setup
    kv = build_knot_vector(times, m, p)
    lo, hi = kv.domain
    t = lo + frac * (hi - lo)
    B = eval_basis(kv, [t]).values[0]
    for i in range(kv.n_bases):
        expected = naive_basis(kv.knots, i, p, t)
        assert abs(B[i] - expected) < 1e-12
        if not (kv.knots[i] <= t < kv.knots[i + p + 1]):
            assert B[i] == 0.0


@settings(max_examples=40, deadline=None)
@given(random_knot_setup(), st.floats(min_value=0.05, max_value=0.95))
@example(SUBNORMAL_GAP_1, 0.5)
@example(SUBNORMAL_GAP_2, 1.0)
def test_derivative_rows_sum_property(setup, frac):
    times, m, p = setup
    kv = build_knot_vector(times, m, p)
    lo, hi = kv.domain
    t = lo + frac * (hi - lo)
    D = eval_basis_derivative(kv, [t])
    span = hi - lo
    assert abs(D.values.sum()) * span < 1e-9 * max(1.0, span)


def dense_recursion(kv, t, degree):
    """The full two-term recursion over every span of the knot list, from
    degree-0 indicators with right-endpoint epochs snapped into the last
    positive-length span; the oracle the local evaluation is checked
    against byte for byte."""
    knots = kv.knots
    values = ((knots[None, :-1] <= t[:, None]) & (t[:, None] < knots[None, 1:])).astype(float)
    at_end = t == kv.domain[1]
    values[at_end, :] = 0.0
    values[at_end, int(np.searchsorted(knots, kv.domain[1], side="left")) - 1] = 1.0

    def term(weight, lower):
        with np.errstate(invalid="ignore"):
            return np.where(lower == 0.0, 0.0, weight * lower)

    for d in range(1, degree + 1):
        n_funcs = knots.size - 1 - d
        den1 = knots[d : d + n_funcs] - knots[:n_funcs]
        den2 = knots[d + 1 : d + 1 + n_funcs] - knots[1 : 1 + n_funcs]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            w1 = np.where(den1 > 0, (t[:, None] - knots[None, :n_funcs]) / den1, 0.0)
            w2 = np.where(den2 > 0, (knots[None, d + 1 : d + 1 + n_funcs] - t[:, None]) / den2, 0.0)
        values = term(w1, values[:, :n_funcs]) + term(w2, values[:, 1 : 1 + n_funcs])
    return values


def dense_derivative(kv, t):
    lower = dense_recursion(kv, t, kv.p - 1)
    knots, p, c = kv.knots, kv.p, kv.n_bases
    den1 = knots[p : p + c] - knots[:c]
    den2 = knots[p + 1 : p + 1 + c] - knots[1 : 1 + c]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f1 = np.where(den1 > 0, p / den1, 0.0)
        f2 = np.where(den2 > 0, p / den2, 0.0)
        return (np.where(lower[:, :c] == 0.0, 0.0, f1 * lower[:, :c])
                - np.where(lower[:, 1:] == 0.0, 0.0, f2 * lower[:, 1:]))


@st.composite
def rounded_epoch_setup(draw):
    """Rounded epochs (so duplicates occur), a degree, a placement and a
    section count; evaluation epochs add the domain ends, the interior
    knots and a few uniform draws."""
    n = draw(st.integers(min_value=6, max_value=60))
    decimals = draw(st.integers(min_value=0, max_value=2))
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=n, max_size=n))
    times = np.sort(np.round(np.array(raw), decimals))
    p = draw(st.integers(min_value=2, max_value=4))
    placement = draw(st.sampled_from(["quantile", "equidistant"]))
    unique = np.unique(times).size
    m = draw(st.integers(min_value=1, max_value=max(1, unique - 1)))
    fracs = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=5))
    return times, m, p, placement, fracs


@settings(max_examples=150, deadline=None)
@given(rounded_epoch_setup())
@example((SUBNORMAL_GAP_1[0], SUBNORMAL_GAP_1[1], SUBNORMAL_GAP_1[2], "quantile", [0.5]))
@example((SUBNORMAL_GAP_2[0], SUBNORMAL_GAP_2[1], SUBNORMAL_GAP_2[2], "quantile", [1.0]))
def test_local_evaluation_is_byte_equal_to_the_dense_recursion(setup):
    times, m, p, placement, fracs = setup
    try:
        kv = build_knot_vector(times, m, p, placement)
    except (DegenerateKnotsError, InvalidInputError):
        return
    lo, hi = kv.domain
    epochs = np.concatenate(
        (times, [lo, hi], kv.interior_knots(), lo + np.array(fracs) * (hi - lo)))
    epochs = np.clip(epochs, lo, hi)
    assert eval_basis(kv, epochs).values.tobytes() == dense_recursion(kv, epochs, p).tobytes()
    assert (eval_basis_derivative(kv, epochs).values.tobytes()
            == dense_derivative(kv, epochs).tobytes())


def test_nan_epoch_is_out_of_domain():
    kv = build_knot_vector(np.linspace(0, 1, 9), m=3, p=3)
    with pytest.raises(OutOfDomainError):
        eval_basis(kv, [0.5, np.nan])


def knot_oracle(times, m, p, placement):
    """Knots of one section count from one quantile call of its own, or None
    where coincident knots exceed multiplicity p: the per-m placement the
    stacked scan is checked against."""
    unique = np.unique(times)
    u0, um = unique[0], unique[-1]
    if m == 1:
        interior = np.empty(0)
    elif placement == "quantile":
        interior = np.quantile(unique, np.arange(1, m) / m, method="linear")
    else:
        interior = u0 + np.arange(1, m) * (um - u0) / m
    domain = np.concatenate(([u0], interior, [um]))
    if np.unique(domain, return_counts=True)[1].max() > p:
        return None
    step = (um - u0) / m
    return np.concatenate((u0 - step * np.arange(p, 0, -1), domain,
                           um + step * np.arange(1, p + 1)))


@st.composite
def scan_setup(draw):
    """Rounded epochs, some repeated many times over, shifted so that some
    quantiles collide; a degree, a placement, and a row budget that puts
    block boundaries inside the m range."""
    n = draw(st.integers(min_value=3, max_value=30))
    decimals = draw(st.integers(min_value=0, max_value=2))
    raw = draw(st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=n, max_size=n))
    repeats = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=n, max_size=n))
    # Gaps of a few ulps at 2000 make coincident knots, hence degenerate m.
    scale = draw(st.sampled_from([1.0, 1e-12, 1e-13]))
    times = np.sort(2000.0 + scale * np.repeat(np.round(np.array(raw), decimals), repeats))
    p = draw(st.integers(min_value=2, max_value=4))
    placement = draw(st.sampled_from(PLACEMENTS))
    rows = draw(st.integers(min_value=1, max_value=times.size ** 2))
    return times, p, placement, rows


@settings(max_examples=80, deadline=None)
@given(scan_setup())
@example((SUBNORMAL_GAP_1[0], SUBNORMAL_GAP_1[2], "quantile", 15))
@example((SUBNORMAL_GAP_2[0], SUBNORMAL_GAP_2[2], "quantile", 1))
def test_stacked_scan_is_byte_equal_to_per_m_evaluation(setup):
    # Every m = 1..n-1, so m runs past the unique epochs into degenerate knots.
    times, p, placement, rows = setup
    assume(np.unique(times).size >= 2)
    ms = range(1, times.size)
    with mock.patch.object(basis, "_SCAN_ROWS", rows):
        stacked = [B if B is None else B.values.tobytes()
                   for B in scan_bases(times, ms, p, placement)]
    want = []
    for m in ms:
        knots = knot_oracle(times, m, p, placement)
        if knots is None:
            with pytest.raises(DegenerateKnotsError):
                build_knot_vector(times, m, p, placement)
            want.append(None)
            continue
        kv = build_knot_vector(times, m, p, placement)
        assert kv.knots.tobytes() == knots.tobytes()
        values = eval_basis(kv, times).values.tobytes()
        assert values == dense_recursion(kv, times, p).tobytes()
        want.append(values)
    assert [m for m, B in zip(ms, stacked) if B is None] == [
        m for m, B in zip(ms, want) if B is None]
    assert stacked == want
