"""Symmetric eigenproblems: one LAPACK eigensolver and a few derived quantities.

Both entry points go through one np.linalg.eigh call: eigvalsh_batch
decomposes a stack of matrices and keeps the values, and eigh is a stack
of one that also keeps the eigenvectors, so the two return the same
eigenvalues bit for bit.  LAPACK also resolves the O(1) eigenvalues of
graded Hessians near a face, whose entries span hundreds of orders of
magnitude.  Its eigenvector signs are arbitrary, so eigh fixes them by a
convention (largest-magnitude component positive); with that, the output
is deterministic on one build, which downstream experiments rely on for
byte-identical reruns.
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


def _eigh_stack(stack):
    """Ascending eigenvalues (B, n) and eigenvector columns (B, n, n) of a
    stack of symmetric matrices: the one LAPACK call behind this module."""
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"need a (B, n, n) stack, got shape {a.shape}")
    return np.linalg.eigh(a)


def eigh(m) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix: a stack of one."""
    entries = m.entries if isinstance(m, SymMatrix) else SymMatrix(m).entries
    vals, vecs = _eigh_stack(entries[None])
    vecs = vecs[0]
    # sign convention: largest-magnitude component of each vector is positive
    k = np.argmax(np.abs(vecs), axis=0)
    vecs = vecs * np.where(vecs[k, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    return EigenDecomposition(vals[0], vecs)


def eigvalsh_batch(stack: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a stack of symmetric matrices, shape (B, n, n).

    The same LAPACK call as eigh, one call for the whole stack, so
    sublevel-set scans over thousands of Hessians stay cheap.  The vectors
    it also computes are dropped: the values-only driver would differ from
    eigh in the last bits.
    """
    return _eigh_stack(stack)[0]


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
