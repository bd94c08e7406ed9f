"""normal_rows is the one Box-Muller, and random_simplex_batch the simplex
draws: the same streams, drawn in one call."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from simplex_flows.rng import (TWO_PI, make_rng, normal_matrix, normal_rows,
                               normal_vector, random_simplex_batch,
                               random_simplex_point)


def _former_normal_vector(rng, dim):
    # normal_vector as it was before normal_rows: one call per vector
    pairs = (dim + 1) // 2
    u = rng.random((pairs, 2))
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    ang = TWO_PI * u[:, 1]
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)])
    return z[:dim]


def _assert_rows_match_successive_vectors(seed, count, dim):
    rng_rows, rng_loop = make_rng(seed), make_rng(seed)
    rows = normal_rows(rng_rows, count, dim)
    assert rows.shape == (count, dim)
    for k in range(count):
        assert rows[k].tobytes() == normal_vector(rng_loop, dim).tobytes()
    # the generator ends in the same state
    assert rng_rows.random() == rng_loop.random()


@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
def test_normal_rows_equals_successive_normal_vectors(dim, count):
    _assert_rows_match_successive_vectors(11, count, dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
def test_normal_vector_equals_former_implementation(dim):
    rng_new, rng_old = make_rng(3), make_rng(3)
    for _ in range(5):
        assert (normal_vector(rng_new, dim).tobytes()
                == _former_normal_vector(rng_old, dim).tobytes())


@pytest.mark.parametrize("rows,cols", [(3, 3), (1, 5), (2, 2), (4, 3)])
def test_normal_matrix_equals_former_implementation(rows, cols):
    rng_new, rng_old = make_rng(5), make_rng(5)
    for _ in range(3):
        new = normal_matrix(rng_new, rows, cols)
        old = _former_normal_vector(rng_old, rows * cols).reshape(rows, cols)
        assert new.shape == (rows, cols)
        assert new.tobytes() == old.tobytes()
    assert rng_new.random() == rng_old.random()


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 50), st.integers(1, 12))
def test_normal_rows_stream_property(seed, count, dim):
    _assert_rows_match_successive_vectors(seed, count, dim)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
def test_simplex_batch_rows_equal_successive_points(n):
    for seed in range(20):
        rng_rows, rng_loop = make_rng(seed), make_rng(seed)
        for row in random_simplex_batch(rng_rows, n, 75):
            point = random_simplex_point(rng_loop, n)
            assert row.tobytes() == point.probs.tobytes()
        # the generator ends in the same state
        assert rng_rows.random() == rng_loop.random()


def test_additive_noise_statistics():
    rng = make_rng(9)
    draws = np.array([normal_vector(rng, 2) for _ in range(20000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.03
    assert np.abs(draws.std(axis=0) - 1.0).max() < 0.03
