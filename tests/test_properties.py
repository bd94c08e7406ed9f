"""Property-based tests at the numeric edges of the charts."""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from simplex_flows.coords import softmax_rows
from simplex_flows.descent import step_rows
from simplex_flows.rng import make_rng, random_simplex_point

# (B, n) exponential-coordinate rows up to the edge of exp's range
THETA_ROWS = arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                    elements=st.floats(-700.0, 700.0))


@given(THETA_ROWS)
def test_softmax_rows_are_probability_rows(theta):
    p = softmax_rows(theta)
    assert p.shape == (theta.shape[0], theta.shape[1] + 1)
    assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-14


@given(THETA_ROWS, st.floats(1e-6, 30.0), st.integers(0, 2 ** 16))
def test_gd_theta_step_stays_finite_at_extreme_theta(theta, alpha, seed):
    target = random_simplex_point(make_rng(seed), theta.shape[1]).probs[:-1]
    assert np.all(np.isfinite(step_rows("gd_theta", theta, target, alpha)))
