"""Seeded randomness helpers.

All experiments draw from a counter-based 64-bit generator (Philox), so a
given seed reproduces the same stream on every platform regardless of how
many draws other components consumed.  Normal variates are produced by the
Box-Muller transform on top of the uniform stream, in one place:
``normal_rows(rng, count, dim)``.  Its row k equals, bit for bit, the k-th of
``count`` successive ``normal_vector(rng, dim)`` calls, and it leaves the
generator in the same state, so a loop that draws one vector per step can
draw all of its steps in one call up front.  In the same way,
``random_simplex_point`` is a one-row ``random_simplex_batch``, and row k of
a batch is the k-th single draw bit for bit, so ``first_simplex_point``
scans a block of draws at once, yet returns the draw and leaves the state
that a loop of single draws would.
"""

import numpy as np

from .coords import SimplexPoint, row_min

TWO_PI = 2.0 * np.pi
DRAW_BLOCK = 1024  # draws made at once: first_simplex_point, rate_bounds


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


def random_simplex_batch(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count independent uniform (flat Dirichlet) draws from the interior of
    the n-simplex, one per row, via normalized standard exponentials."""
    x = -np.log1p(-rng.random((count, n + 1)))
    return x / x.sum(axis=1, keepdims=True)


def random_simplex_point(rng: np.random.Generator, n: int) -> SimplexPoint:
    """One flat-Dirichlet draw: a one-row random_simplex_batch."""
    return SimplexPoint(random_simplex_batch(rng, n, 1)[0])


def first_simplex_point(rng: np.random.Generator, n: int, floor: float,
                        budget: int) -> "SimplexPoint | None":
    """The first of up to budget random_simplex_point draws whose smallest
    probability is at least floor, or None.

    Draws are scanned DRAW_BLOCK rows at a time with random_simplex_batch,
    whose rows are the single draws.  On a hit the generator is rewound to
    just after the hit's row, where a loop of single draws would stop.
    """
    while budget > 0:
        state = rng.bit_generator.state
        rows = random_simplex_batch(rng, n, min(DRAW_BLOCK, budget))
        hits = np.flatnonzero(row_min(rows) >= floor)
        if hits.size:
            rng.bit_generator.state = state
            rng.random((hits[0] + 1, n + 1))  # the draws up to the hit
            return SimplexPoint(rows[hits[0]])
        budget -= rows.shape[0]
    return None
