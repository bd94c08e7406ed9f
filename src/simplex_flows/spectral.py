"""Symmetric eigenproblems: cyclic Jacobi solver and a few derived quantities.

One batched Jacobi routine serves both entry points: eigvalsh_batch runs it
on a stack of matrices, and eigh is a stack of one that also accumulates
the eigenvectors.  It sweeps all off-diagonal pairs in a fixed row-major
order and applies Givens rotations until the off-diagonal Frobenius norm
drops below 1e-15 (relative to the matrix scale).  The fixed order and a
sign convention on the eigenvectors (largest-magnitude component positive)
make the output fully deterministic, which downstream experiments rely on
for byte-identical reruns.
"""

from dataclasses import dataclass

import numpy as np

from .coords import EtaCoord
from .geometry import SymMatrix

OFF_DIAG_TOL = 1e-15
MAX_SWEEPS = 100


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


def _as_symmetric(m) -> np.ndarray:
    if isinstance(m, SymMatrix):
        return np.array(m.entries, dtype=float)
    return SymMatrix(m).entries.copy()


def _jacobi(a: np.ndarray, vectors: bool):
    """Cyclic Jacobi on a (B, n, n) stack, in place; returns the unsorted
    diagonals and, if asked, the accumulated rotations (else None).
    Sweeps continue until every matrix of the stack has converged.
    """
    b, n, _ = a.shape
    v = np.broadcast_to(np.eye(n), (b, n, n)).copy() if vectors else None
    scale = np.maximum(1.0, np.sqrt((a * a).sum(axis=(1, 2))))
    mask = ~np.eye(n, dtype=bool)
    for _sweep in range(MAX_SWEEPS):
        off = np.sqrt((a[:, mask] ** 2).sum(axis=1))
        if np.all(off < OFF_DIAG_TOL * scale):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p, q]
                active = np.abs(apq) >= 1e-300
                if not active.any():
                    continue
                tau = (a[:, q, q] - a[:, p, p]) / np.where(active, 2.0 * apq, 1.0)
                # tau * tau overflows for huge tau; the rotation is then 0
                with np.errstate(over="ignore"):
                    t = (np.where(tau >= 0.0, 1.0, -1.0)
                         / (np.abs(tau) + np.sqrt(1.0 + tau * tau)))
                t = np.where(active, t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cc, ss = c[:, None], s[:, None]
                # A <- G^T A G with G the rotation in the (p, q) plane
                rp, rq = a[:, p, :].copy(), a[:, q, :].copy()
                a[:, p, :] = cc * rp - ss * rq
                a[:, q, :] = ss * rp + cc * rq
                cp, cq = a[:, :, p].copy(), a[:, :, q].copy()
                a[:, :, p] = cc * cp - ss * cq
                a[:, :, q] = ss * cp + cc * cq
                if vectors:
                    vp, vq = v[:, :, p].copy(), v[:, :, q].copy()
                    v[:, :, p] = cc * vp - ss * vq
                    v[:, :, q] = ss * vp + cc * vq
    return np.einsum("bii->bi", a), v


def eigh(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix: a stack of one."""
    diag, v = _jacobi(_as_symmetric(m)[None], vectors=True)
    order = np.argsort(diag[0], kind="stable")
    vals = diag[0][order]
    vecs = v[0][:, order]
    # sign convention: largest-magnitude component of each vector is positive
    for j in range(vecs.shape[1]):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return EigenDecomposition(vals, vecs)


def eigvalsh_batch(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a stack of symmetric matrices, shape (B, n, n).

    The same Jacobi sweeps as eigh, without accumulating eigenvectors, so
    sublevel-set scans over thousands of Hessians stay cheap.
    """
    a = np.array(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"need a (B, n, n) stack, got shape {a.shape}")
    return np.sort(_jacobi(a, vectors=False)[0], axis=1)


def cond(m) -> float:
    """Spectral condition number of a symmetric positive definite matrix."""
    vals = eigh(m).values
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
    if the spectral radius of M is below 1.
    """
    dec = eigh(q_matrix)
    mu = 1.0 - alpha * dec.values
    rho = float(np.abs(mu).max())
    if rho >= 1.0:
        raise ValueError(f"iteration is not a contraction (spectral radius {rho:g})")
    p = dec.vectors @ np.diag(1.0 / (1.0 - mu ** 2)) @ dec.vectors.T
    return SymMatrix(0.5 * (p + p.T))
