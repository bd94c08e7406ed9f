"""Symmetric eigenproblems: LAPACK for dense matrices, secular equations
for diagonal-plus-rank-one rows, and a few derived quantities.

eigh is one np.linalg.eigh call, which also resolves graded Hessians near a
face.  It fixes the arbitrary eigenvector signs by a convention (largest-
magnitude component positive), so its output is deterministic on one build,
as byte-identical reruns need.  eigvalsh_batch is the same call on a stack:
the dense oracle.  rank_one_extremes gives the extreme eigenvalues of
diag(d) + c 11^T, the form of the Fisher information in both charts, at
O(n) per row, where a dense decomposition costs O(n^3).
"""

from dataclasses import dataclass

import numpy as np

from .coords import EtaCoord
from .geometry import SymMatrix


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in ascending order; eigenvectors as matching columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vecs = np.array(self.vectors, dtype=float)
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise ValueError("inconsistent decomposition shapes")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", vecs)


def eigh(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix."""
    entries = m.entries if isinstance(m, SymMatrix) else SymMatrix(m).entries
    vals, vecs = np.linalg.eigh(entries)
    # sign convention: largest-magnitude component of each vector is positive
    k = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.where(vecs[k, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    return EigenDecomposition(vals, vecs)


def eigvalsh_batch(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a stack of symmetric matrices, shape (B, n, n).

    The dense oracle: the LAPACK call of eigh, so the two agree bit for bit
    (the values-only driver would differ in the last bits).  No experiment
    calls it; tests check rank_one_extremes against it.
    """
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"need a (B, n, n) stack, got shape {a.shape}")
    return np.linalg.eigh(a)[0]


def _newton_rows(fun, tau, *data):
    """Per-row root of a concave increasing function by Newton steps from
    tau at or left of it: each step lands left of the root again, so the
    rows climb to it.  fun(t, *data) gives value and slope.  A row stops on
    a step at roundoff, or on a step below 1e-8 of tau, where Newton is
    quadratic, that fails to shrink (it would only follow rounding noise);
    it then leaves t and the data, so only rows still moving are stepped.
    """
    root, idx, t, last = tau.copy(), np.arange(tau.size), tau, np.inf
    for _ in range(100):
        val, slope = fun(t, *data)
        root[idx] = new = np.fmax(t, t - val / slope)
        step = new - t
        keep = ((step > 4.0 * np.finfo(float).eps * new)
                & ((step < last) | (step > 1e-8 * new)))
        if not keep.all():
            idx, new, step, *data = (x[keep] for x in (idx, new, step, *data))
            if not idx.size:
                break
        t, last = new, step
    return root


def rank_one_extremes(d, c):
    """Smallest and largest eigenvalue of diag(d) + c 11^T for each row of
    d (B, n) and entry of c (B,), all positive, at O(n) per row and step.

    The eigenvalues interlace with d, so each extreme is the one root of the
    secular equation f(lam) = 1 + c sum_i 1/(d_i - lam) = 0 in a known
    bracket (Golub 1973; Bunch, Nielsen & Sorensen 1978).  Each is solved
    for as an offset tau from its nearest pole, which keeps full relative
    accuracy in graded rows, by Newton steps on a concave form of f.
    """
    d, c = np.asarray(d, dtype=float), np.asarray(c, dtype=float)
    if not (np.all(d > 0) and np.all(c > 0)):
        raise ValueError("rank_one_extremes needs positive d and c")
    n, ones = d.shape[1], np.ones(d.shape[1])  # row sums by one BLAS call
    top = d.max(axis=1)

    # lam_max = d_max + tau, tau in [c, n c]: s = c sum 1/(delta_i + tau) = 1,
    # where 1/s - 1 is concave and increasing, and s >= 1 at tau = c
    def outer(t, delta, c):
        w = 1.0 / (delta + t[:, None])
        s = c * (w @ ones)
        return 1.0 / s - 1.0, c * ((w * w) @ ones) / (s * s)

    lmax = top + np.minimum(_newton_rows(outer, c, top[:, None] - d, c), n * c)
    if n == 1:
        return lmax, lmax.copy()
    # lam_min = d_(1) + tau, tau in (0, gap = d_(2) - d_(1)), where
    # (gap - tau) f is concave; poles tied with d_(2) join its term with
    # their weight c.  A row with d_(1) = d_(2) deflates to lam_min = d_(1)
    part = np.partition(d, 1, axis=1)
    lmin = part[:, 0].copy()
    rows = np.flatnonzero(part[:, 1] > lmin)
    gap, far = part[rows, 1] - lmin[rows], part[rows, 2:] - lmin[rows, None]
    tied = far == gap[:, None]
    cc, weight, far[tied] = c[rows], c[rows] * (1.0 + tied.sum(axis=1)), np.inf

    def inner(t, gap, far, c, weight):
        w = 1.0 / (far - t[:, None])
        r = 1.0 + c * (w @ ones[2:])
        return ((gap - t) * r + weight + c - c * gap / t,
                (gap - t) * c * ((w * w) @ ones[2:]) - r + c * gap / (t * t))

    # start left of the root: 1/(far - tau) >= 1/far bounds the root by up,
    # and below up f <= a - c/tau + weight/(gap - tau), whose smaller zero
    # (a quadratic's, exact at n = 2) lies left of f's
    up = cc / (1.0 + weight / gap + cc * (1.0 / far).sum(axis=1))
    a = 1.0 + cc * (1.0 / (far - up[:, None])).sum(axis=1)
    b = a * gap + cc + weight
    tau0 = 2.0 * cc * gap / (b + np.sqrt(b * b - 4.0 * a * cc * gap))
    lmin[rows] += _newton_rows(inner, tau0, gap, far, cc, weight)
    return lmin, lmax


def cond(m) -> float:
    """Spectral condition number of a symmetric positive definite matrix,
    which may also be given as its EigenDecomposition."""
    vals = (m if isinstance(m, EigenDecomposition) else eigh(m)).values
    if vals[0] <= 0:
        raise ValueError(f"matrix is not positive definite (min eig {vals[0]:g})")
    return float(vals[-1] / vals[0])


def kappa_lower_bound(eq: EtaCoord) -> float:
    """Ratio of the two smallest probabilities of q.

    By Weyl's inequality this bounds from below the condition number of the
    curvature of L_q at its optimum, in either coordinate chart.
    """
    p = np.append(eq.eta, 1.0 - eq.eta.sum())
    two_smallest = np.sort(p)[:2]
    return float(two_smallest[1] / two_smallest[0])


def sym_sqrt(m) -> SymMatrix:
    """Symmetric square root of a symmetric positive definite matrix."""
    dec = eigh(m)
    if dec.values[0] <= 0:
        raise ValueError("matrix must be positive definite")
    root = dec.vectors @ np.diag(np.sqrt(dec.values)) @ dec.vectors.T
    return SymMatrix(0.5 * (root + root.T))


def solve_lyapunov(q_matrix, alpha: float) -> SymMatrix:
    """Stationary covariance of x(k+1) = (I - alpha Q) x(k) + w(k), w ~ N(0, I).

    With M = I - alpha Q symmetric, the fixed point of P -> M P M + I is
    U diag(1/(1 - mu_i^2)) U^T where mu_i are M's eigenvalues; it exists only
    if the spectral radius of M is below 1.  q_matrix may also be given as
    its EigenDecomposition, so a caller that needs Q's eigenbasis anyway
    decomposes it once.
    """
    dec = q_matrix if isinstance(q_matrix, EigenDecomposition) else eigh(q_matrix)
    mu = 1.0 - alpha * dec.values
    rho = float(np.abs(mu).max())
    if rho >= 1.0:
        raise ValueError(f"iteration is not a contraction (spectral radius {rho:g})")
    p = dec.vectors @ np.diag(1.0 / (1.0 - mu ** 2)) @ dec.vectors.T
    return SymMatrix(0.5 * (p + p.T))
