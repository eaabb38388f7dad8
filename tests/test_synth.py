import numpy as np
import pytest

from alps import synth
from alps.errors import InvalidInputError


class TestInputRules:
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_gramacy_lee_needs_two_points(self, n):
        with pytest.raises(InvalidInputError, match="n must be at least 2"):
            synth.gramacy_lee_series(n=n)

    @pytest.mark.parametrize("n_obs", [0, 1])
    def test_fusion_needs_two_observations(self, n_obs):
        with pytest.raises(InvalidInputError, match="n_obs must be at least 2"):
            synth.fusion_suite(n_obs=n_obs)

    @pytest.mark.parametrize("make", [synth.gramacy_lee_series, synth.fusion_suite])
    @pytest.mark.parametrize("noise_sd", [-1.0, -1e-300, np.nan, np.inf])
    def test_noise_must_be_finite_and_nonnegative(self, make, noise_sd):
        with pytest.raises(InvalidInputError, match="noise_sd must be finite and >= 0"):
            make(noise_sd=noise_sd)

    @pytest.mark.parametrize("n", [40.0, True, "40"])
    def test_sizes_must_be_integers(self, n):
        with pytest.raises(InvalidInputError, match="n must be an integer"):
            synth.gramacy_lee_series(n=n)
        with pytest.raises(InvalidInputError, match="n_obs must be an integer"):
            synth.fusion_suite(n_obs=n)

    def test_the_smallest_valid_inputs_pin_both_ends(self):
        series, truth = synth.gramacy_lee_series(n=2, noise_sd=0.0)
        assert series.span == synth.GRAMACY_LEE_DOMAIN
        assert np.array_equal(series.values, truth)
        suite = synth.fusion_suite(n_obs=np.int64(2), noise_sd=0.0)
        assert suite.observations.span == suite.dense_model.span
