"""Divergences, gradients and Hessians on the simplex, plus affine recharts.

Everything here is a closed form.  The KL divergence D(q||p) coincides with
the Bregman divergence of psi between the theta coordinates (arguments
swapped) and with the Bregman divergence of phi between the eta coordinates.
Two loss families appear throughout:

    L_q(p)    = D(q||p)   minimized over p, target q fixed (convex in both charts)
    L*_p(q)   = D(q||p)   minimized over q, target p fixed (convex in eta only)

The Hessians of the potentials are mutually inverse at matching points,
hess_psi(theta) = hess_phi(eta)^-1 (lab's theta rate bounds rely on it):

    hess_phi(eta) = diag(1/eta_i) + (1/(1 - sum eta)) * ones
    hess_psi(theta) = diag(eta) - eta eta^T,   eta = grad psi(theta)

Natural gradients (Hessian-preconditioned) collapse to coordinate
differences and need no linear solve.
"""

from dataclasses import dataclass, field

import numpy as np

from .coords import (EtaCoord, SimplexPoint, ThetaCoord, eta_from_theta, phi,
                     psi, simplex_from_theta, theta_from_eta)

SYM_TOL = 1e-12


def _check_same_n(a, b):
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")


@dataclass(frozen=True)
class SymMatrix:
    """A dense symmetric matrix (symmetry enforced at construction)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"need a square matrix, got shape {arr.shape}")
        scale = max(1.0, np.abs(arr).max())
        if np.abs(arr - arr.T).max() > SYM_TOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self):
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# divergences


def kl(q: SimplexPoint, p: SimplexPoint) -> float:
    """KL divergence D(q||p) = sum q_i log(q_i/p_i)."""
    _check_same_n(q, p)
    return float(np.dot(q.probs, np.log(q.probs) - np.log(p.probs)))


def kl_rows(q: np.ndarray, probs_rows: np.ndarray) -> np.ndarray:
    """D(q||p) for every row p of probs_rows (q a probability vector).

    Computed as sum q log q - log(p) . q, a difference of two sums that can
    round to just below zero near p = q, so the result is clipped at 0.  A
    row with a zero entry gives inf, a row with a negative entry NaN.
    """
    return np.maximum(0.0, (q * np.log(q)).sum() - np.log(probs_rows) @ q)


def bregman_psi(tp: ThetaCoord, tq: ThetaCoord) -> float:
    """Bregman divergence of the log-partition:
    psi(tp) - psi(tq) - grad psi(tq).(tp - tq).  Equals kl(q, p)."""
    _check_same_n(tp, tq)
    eq = eta_from_theta(tq).eta
    return psi(tp) - psi(tq) - float(np.dot(eq, tp.theta - tq.theta))


def bregman_phi(eq: EtaCoord, ep: EtaCoord) -> float:
    """Bregman divergence of the negative entropy:
    phi(eq) - phi(ep) - grad phi(ep).(eq - ep).  Equals kl(q, p)."""
    _check_same_n(eq, ep)
    tp = theta_from_eta(ep).theta
    return phi(eq) - phi(ep) - float(np.dot(tp, eq.eta - ep.eta))


# ---------------------------------------------------------------------------
# gradients of the two losses in both charts


def grad_Lq_eta(ep: EtaCoord, eq: EtaCoord) -> np.ndarray:
    """Gradient of L_q in mixture coordinates: -hess_phi(ep) (eq - ep)."""
    _check_same_n(ep, eq)
    return -hess_phi_matvec(ep, eq.eta - ep.eta)


def grad_Lq_theta(tp: ThetaCoord, tq: ThetaCoord) -> np.ndarray:
    """Gradient of L_q in exponential coordinates: eta(tp) - eta(tq)."""
    _check_same_n(tp, tq)
    return eta_from_theta(tp).eta - eta_from_theta(tq).eta


def grad_Lstar_eta(eq: EtaCoord, ep: EtaCoord) -> np.ndarray:
    """Gradient of L*_p in mixture coordinates: theta(eq) - theta(ep)."""
    _check_same_n(eq, ep)
    return theta_from_eta(eq).theta - theta_from_eta(ep).theta


def grad_Lstar_theta(tq: ThetaCoord, tp: ThetaCoord) -> np.ndarray:
    """Gradient of L*_p in exponential coordinates:
    -hess_psi(tq) (tp - tq)."""
    _check_same_n(tq, tp)
    return -hess_psi_matvec(eta_from_theta(tq), tp.theta - tq.theta)


def natural_grad_Lq(ep: EtaCoord, eq: EtaCoord) -> np.ndarray:
    """Fisher-preconditioned gradient of L_q in eta: simply ep - eq."""
    _check_same_n(ep, eq)
    return ep.eta - eq.eta


def natural_grad_Lstar(tq: ThetaCoord, tp: ThetaCoord) -> np.ndarray:
    """Fisher-preconditioned gradient of L*_p in theta: simply tq - tp."""
    _check_same_n(tq, tp)
    return tq.theta - tp.theta


# ---------------------------------------------------------------------------
# Hessians


def hess_phi(e: EtaCoord) -> SymMatrix:
    """diag(1/eta_i) + ones/(1 - sum eta); eigenvalues all exceed 1."""
    rest = 1.0 - e.eta.sum()
    h = np.diag(1.0 / e.eta) + 1.0 / rest
    return SymMatrix(h)


def hess_psi(t: ThetaCoord) -> SymMatrix:
    """diag(eta) - eta eta^T with eta = grad psi(t); eigenvalues in (0, 1).

    eta is not built as an EtaCoord: its check 1 - sum(eta) cancels to 0
    once the last probability is below the sum's roundoff, as at (37, 0)."""
    eta = simplex_from_theta(t).probs[:-1]
    return SymMatrix(np.diag(eta) - np.outer(eta, eta))


def hess_phi_matvec(e: EtaCoord, v: np.ndarray) -> np.ndarray:
    """hess_phi(e) @ v without forming the matrix (O(n))."""
    return v / e.eta + v.sum() / (1.0 - e.eta.sum())


def hess_psi_matvec(e: EtaCoord, v: np.ndarray) -> np.ndarray:
    """hess_psi at the point with mixture coordinates e, applied to v (O(n))."""
    return e.eta * v - e.eta * float(np.dot(e.eta, v))


def hess_Lq_eta(ep: EtaCoord, eq: EtaCoord) -> SymMatrix:
    """Hessian of L_q in mixture coordinates:
    diag(eta_q_i / eta_i^2) + (1 - sum eta_q)/(1 - sum eta)^2 * ones."""
    _check_same_n(ep, eq)
    rest_p = 1.0 - ep.eta.sum()
    rest_q = 1.0 - eq.eta.sum()
    h = np.diag(eq.eta / ep.eta ** 2) + rest_q / rest_p ** 2
    return SymMatrix(h)


def loss_Lstar_theta(t: ThetaCoord, p: SimplexPoint) -> float:
    """L*_p as a function of theta: D(q(theta) || p).  Not convex in theta."""
    return kl(simplex_from_theta(t), p)


def loss_Lq_theta(t: ThetaCoord, q: SimplexPoint) -> float:
    """L_q as a function of theta: D(q || p(theta)).  Convex in theta."""
    return kl(q, simplex_from_theta(t))


# ---------------------------------------------------------------------------
# affine recharts theta = A thetabar + b


@dataclass(frozen=True)
class AffineChart:
    """An invertible affine change of exponential coordinates.

    thetabar relates to theta via theta = A thetabar + b; the dual mixture
    coordinates transform covariantly as etabar = A^T eta.  scale_c records
    the curvature target when the chart was built to equalize conditioning
    (see make_identity_chart); it is 1.0 for generic charts.
    """

    a_matrix: np.ndarray
    b_offset: np.ndarray
    scale_c: float = 1.0
    a_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.array(self.a_matrix, dtype=float)
        b = np.array(self.b_offset, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("a_matrix must be square")
        if b.shape != (a.shape[0],):
            raise ValueError("b_offset length must match a_matrix")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("chart entries must be finite")
        if not self.scale_c > 0:
            raise ValueError("scale_c must be positive")
        a_inv = np.linalg.inv(a)
        condition = np.linalg.norm(a, 2) * np.linalg.norm(a_inv, 2)
        if not np.isfinite(condition) or condition > 1e12:
            raise ValueError("a_matrix is numerically singular")
        a.setflags(write=False)
        b.setflags(write=False)
        a_inv.setflags(write=False)
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "b_offset", b)
        object.__setattr__(self, "a_inv", a_inv)

    @property
    def n(self):
        return self.a_matrix.shape[0]

    # chart maps ------------------------------------------------------------

    def theta_from_barred(self, theta_bar: np.ndarray) -> ThetaCoord:
        return ThetaCoord(self.a_matrix @ theta_bar + self.b_offset)

    def barred_from_theta(self, t: ThetaCoord) -> np.ndarray:
        return self.a_inv @ (t.theta - self.b_offset)

    def barred_from_eta(self, e: EtaCoord) -> np.ndarray:
        return self.a_matrix.T @ e.eta

    def eta_from_barred(self, eta_bar: np.ndarray) -> EtaCoord:
        return EtaCoord(self.a_inv.T @ eta_bar)


def make_identity_chart(tq: ThetaCoord, c: float) -> AffineChart:
    """Chart that makes both Hessians at the optimum proportional to identity.

    With D the symmetric square root of hess_phi at the optimum and
    A = D / sqrt(c), the loss Hessian at the optimum becomes
    A^-1 hess_phi A^-T = c*I in the barred mixture chart (etabar = A^T eta)
    and A^T hess_psi A = (1/c)*I in the barred exponential chart
    (theta = A thetabar + b), so the flows decay at rates 2c and 2/c.
    """
    from .spectral import sym_sqrt  # local import to avoid a cycle

    if not c > 0:
        raise ValueError("c must be positive")
    d = sym_sqrt(hess_phi(eta_from_theta(tq))).entries
    return AffineChart(d / np.sqrt(c), np.zeros(tq.n), scale_c=c)

