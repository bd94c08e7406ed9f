"""Seeded randomness helpers.

All experiments draw from a counter-based 64-bit generator (Philox), so a
given seed reproduces the same stream on every platform regardless of how
many draws other components consumed.  Normal variates are produced by the
Box-Muller transform on top of the uniform stream, in one place:
``normal_rows(rng, count, dim)``.  Its row k equals, bit for bit, the k-th of
``count`` successive ``normal_vector(rng, dim)`` calls, and it leaves the
generator in the same state, so a loop that draws one vector per step can
draw all of its steps in one call up front.  In the same way,
``first_simplex_point`` screens many simplex draws at once, yet returns the
draw and leaves the state that a loop of single draws would.
"""

import numpy as np

from .coords import SimplexPoint

TWO_PI = 2.0 * np.pi
DRAW_BLOCK = 1024  # simplex draws screened at once by first_simplex_point


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def normal_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """(count, dim) i.i.d. standard normals via Box-Muller, one row per
    vector: each row pairs its own (dim + 1) // 2 uniform pairs, lists the
    cosine halves before the sine halves and drops the last sine when dim
    is odd."""
    pairs = (dim + 1) // 2
    u = rng.random((count, pairs, 2))
    r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))  # 1 - u is in (0, 1], log is finite
    ang = TWO_PI * u[..., 1]
    z = np.concatenate([r * np.cos(ang), r * np.sin(ang)], axis=1)
    return z[:, :dim]


def normal_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """dim i.i.d. standard normals via Box-Muller."""
    return normal_rows(rng, 1, dim)[0]


def normal_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # one vector of rows*cols, not normal_rows(rng, rows, cols): the cosine
    # and sine halves are laid out per vector, so the two streams differ
    return normal_rows(rng, 1, rows * cols).reshape(rows, cols)


def random_simplex_point(rng: np.random.Generator, n: int) -> SimplexPoint:
    """Uniform (flat Dirichlet) draw from the interior of the n-simplex,
    via normalized standard exponentials."""
    x = -np.log1p(-rng.random(n + 1))
    return SimplexPoint(x / x.sum())


def random_simplex_batch(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count independent flat-Dirichlet draws, one per row."""
    x = -np.log1p(-rng.random((count, n + 1)))
    return x / x.sum(axis=1, keepdims=True)


def first_simplex_point(rng: np.random.Generator, n: int, floor: float,
                        budget: int) -> "SimplexPoint | None":
    """The first of up to budget random_simplex_point draws whose smallest
    probability is at least floor, or None.

    Draws are screened DRAW_BLOCK rows at a time with random_simplex_batch.
    The screen passes a band of 1e-9 below the floor, so that no rounding
    difference between its row sums and a single draw's sum can hide a hit;
    the first hit is drawn again as a single point from its place in the
    stream, and that draw decides.
    """
    while budget > 0:
        state = rng.bit_generator.state
        rows = random_simplex_batch(rng, n, min(DRAW_BLOCK, budget))
        hits = np.flatnonzero(rows.min(axis=1) >= floor * (1.0 - 1e-9))
        if hits.size == 0:
            budget -= rows.shape[0]
            continue
        rng.bit_generator.state = state
        rng.random((hits[0], n + 1))  # the rejected draws before the hit
        q = random_simplex_point(rng, n)
        budget -= hits[0] + 1
        if q.probs.min() >= floor:
            return q
    return None
