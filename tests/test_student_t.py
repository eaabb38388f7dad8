"""The Student-t quantile of the bands, which needs no SciPy, against
``scipy.special.stdtrit``."""

import numpy as np
import pytest
import scipy.special

from alps import _student_t

DFS = np.geomspace(0.5, 1e5, 300)


@pytest.mark.parametrize("alpha", [0.2, 0.1, 0.05, 0.01, 1e-3, 1e-4])
def test_matches_stdtrit_across_df(alpha):
    got = [_student_t.quantile(float(df), alpha) for df in DFS]
    np.testing.assert_allclose(got, scipy.special.stdtrit(DFS, 1 - alpha / 2), rtol=1e-12, atol=0)
    # Each root is reached by the step rule, after at most three
    # evaluations of the tail, well before the cap.
    steps = [_student_t._solve(float(df), 1.0 - (1.0 - alpha / 2))[1] for df in DFS]
    assert max(steps) <= 3 < _student_t._MAX_STEPS


@pytest.mark.parametrize("df, alpha", [
    (0.5, 0.5), (0.5, 0.9), (3.0, 0.9), (1e4, 0.5),  # near the centre
    (0.3, 1e-6), (0.5, 1e-12), (0.8, 1e-12),  # power-law tails, t from 5e14 to 3e19
])
def test_centre_and_far_tail(df, alpha):
    t, steps = _student_t._solve(df, 1.0 - (1.0 - alpha / 2))
    assert steps < _student_t._MAX_STEPS
    assert t == pytest.approx(scipy.special.stdtrit(df, 1 - alpha / 2), rel=1e-12, abs=0)
