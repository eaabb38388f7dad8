import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alps.basis import build_knot_vector, eval_basis
from alps.errors import InvalidInputError
from alps.penalty import difference_band, difference_matrix
from alps.solver import fit_penalized


def compose_first_differences(q, c):
    """Oracle: build D_q by explicitly chaining first-difference matrices."""
    def d1(k):
        out = np.zeros((k - 1, k))
        for i in range(k - 1):
            out[i, i] = -1.0
            out[i, i + 1] = 1.0
        return out

    D = d1(c)
    for _ in range(q - 1):
        D = d1(D.shape[0]) @ D
    return D


class TestDifferenceMatrix:
    def test_first_order_c5(self):
        expected = [
            [-1, 1, 0, 0, 0],
            [0, -1, 1, 0, 0],
            [0, 0, -1, 1, 0],
            [0, 0, 0, -1, 1],
        ]
        np.testing.assert_array_equal(difference_matrix(1, 5), expected)

    def test_second_order_c5(self):
        expected = [
            [1, -2, 1, 0, 0],
            [0, 1, -2, 1, 0],
            [0, 0, 1, -2, 1],
        ]
        np.testing.assert_array_equal(difference_matrix(2, 5), expected)

    def test_third_order_matches_composition_oracle(self):
        np.testing.assert_array_equal(
            difference_matrix(3, 5), compose_first_differences(3, 5)
        )
        assert difference_matrix(3, 5)[0].tolist() == [-1, 3, -3, 1, 0]

    def test_full_row_rank(self):
        for q, c in [(1, 5), (2, 8), (3, 10)]:
            D = difference_matrix(q, c)
            assert D.shape == (c - q, c)
            assert np.linalg.matrix_rank(D) == c - q

    def test_annihilates_low_order_polynomials(self):
        for q in (1, 2, 3):
            D = difference_matrix(q, 9)
            for r in range(q):
                v = np.arange(9.0) ** r
                np.testing.assert_allclose(D @ v, 0.0, atol=1e-10)

    def test_invalid_order(self):
        with pytest.raises(InvalidInputError):
            difference_matrix(5, 5)
        with pytest.raises(InvalidInputError):
            difference_matrix(0, 5)


class TestPenaltyMatrix:
    """The penalty lam * D_q' D_q that fit_penalized adds to B'B."""

    def test_zero_lambda_gives_zero_matrix(self):
        # lambda = 0 is plain least squares.
        times = np.linspace(0.0, 1.0, 30)
        B = eval_basis(build_knot_vector(times, 5, 3), times)
        y = np.sin(3.0 * times)
        theta = fit_penalized(B, y, 2, 0.0).theta
        np.testing.assert_allclose(theta, np.linalg.lstsq(B.values, y, rcond=None)[0],
                                   rtol=1e-9, atol=1e-12)

    def test_first_order_expansion(self):
        lam = 0.7
        D = difference_matrix(1, 5)
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = rng.normal(size=5)
            explicit = lam * np.sum(np.diff(theta) ** 2)
            assert theta @ (lam * (D.T @ D)) @ theta == pytest.approx(explicit, rel=1e-12)

    def test_linear_coefficients_unpenalized_for_q2(self):
        D = difference_matrix(2, 7)
        theta = 2.5 + 0.3 * np.arange(7.0)
        assert theta @ (13.0 * (D.T @ D)) @ theta == pytest.approx(0.0, abs=1e-12)

    def test_negative_lambda_rejected(self):
        times = np.linspace(0.0, 1.0, 12)
        B = eval_basis(build_knot_vector(times, 3, 3), times)
        with pytest.raises(InvalidInputError):
            fit_penalized(B, times, 2, -1.0)

    def test_psd_and_rank(self):
        D = difference_matrix(2, 8)
        P = 3.0 * (D.T @ D)
        np.testing.assert_allclose(P, P.T)
        eigvals = np.linalg.eigvalsh(P)
        assert np.all(eigvals > -1e-10)
        assert np.sum(eigvals > 1e-10) == 8 - 2


class TestDifferenceGram:
    """difference_band: D_q'D_q as its q + 1 lower diagonals, built without D."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_bytes_equal_the_product(self, q):
        for c in range(q + 1, 160):
            D = difference_matrix(q, c)
            band = difference_band(q, c)
            assert band.shape == (q + 1, c) and not band.flags.writeable, c
            for k in range(q + 1):
                assert band[k, : c - k].tobytes() == np.diagonal(D.T @ D, -k).tobytes(), (c, k)
                assert not band[k, c - k :].any(), (c, k)

    @pytest.mark.parametrize("q, c", [(0, 5), (5, 5), (6, 5)])
    def test_invalid_order_rejected(self, q, c):
        with pytest.raises(InvalidInputError):
            difference_band(q, c)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=5, max_value=12),
    st.floats(min_value=0.0, max_value=1e4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_quadratic_form_matches_difference_sum(q, c, lam, seed):
    D = difference_matrix(q, c)
    theta = np.random.default_rng(seed).normal(size=c)
    quad = theta @ (lam * (D.T @ D)) @ theta
    explicit = lam * np.sum(np.diff(theta, n=q) ** 2)
    assert quad >= -1e-12
    assert quad == pytest.approx(explicit, rel=1e-10, abs=1e-12)
