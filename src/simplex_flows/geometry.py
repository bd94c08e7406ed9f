"""Divergences, vector fields and Hessians on the simplex; affine recharts.

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

The vector fields -grad L, and the natural -hess^-1 grad L, of both losses
in the four base charts are one table, FIELDS, read through field().  Three
primitives build all eight: the mixture pull hess_phi(e) (eta_q - e), the
theta of an eta row, and the exponential pull hess_psi v = e*v - e (e.v).
The natural fields need no linear solve: in the chart where the plain
field is a Hessian times a difference, the natural one is the difference,
and in the other chart it is the first chart's plain formula.  The flows
integrate these fields, descent steps along them, and the scalar
gradients are one-row calls of field.  loss_rows is the KL of probability
rows for both losses, and loss_Lq_theta and loss_Lstar_theta its one-row calls.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .coords import (EtaCoord, SimplexPoint, ThetaCoord, eta_from_theta, phi,
                     psi, simplex_from_theta, softmax_rows, theta_from_eta)

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
    """KL divergence D(q||p) = sum q_i log(q_i/p_i), clipped at 0."""
    _check_same_n(q, p)
    return kl_probs(q.probs, p.probs)


def kl_probs(q: np.ndarray, p: np.ndarray) -> float:
    """kl of probability vectors, unchecked: a zero in p gives inf."""
    return max(0.0, float(np.dot(q, np.log(q) - np.log(p))))


def kl_rows(q: np.ndarray, probs_rows: np.ndarray) -> np.ndarray:
    """D(q||p) for every row p of probs_rows (q a probability vector).

    Computed as sum q log q - log(p) . q, a difference of two sums that can
    round to just below zero near p = q, so the result is clipped at 0.  A
    row with a zero entry gives inf, a row with a negative entry NaN.
    """
    return np.maximum(0.0, (q * np.log(q)).sum() - np.log(probs_rows) @ q)


def loss_rows(loss: str, target: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per probability row p: "Lq" D(target||p) by kl_rows, or "Lstar"
    D(p||target) as the row sum of p (log p - log target), clipped at 0.  A
    row sum rounds a row as it rounds that row alone, so a one-row "Lstar"
    call gives the row of any batch bit for bit (kl_rows' gemv does not)."""
    if loss == "Lq":
        return kl_rows(target, probs)
    if loss != "Lstar":
        raise ValueError(f"unknown loss {loss!r}")
    log_ratio = np.log(probs) - np.log(target)
    return np.maximum(0.0, (probs * log_ratio).sum(axis=1))


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
# vector fields of the two losses


def _mixture_pull(e, eta_q, rest):
    """hess_phi(e) (eta_q - e) per row; rest is each row's last probability."""
    v = eta_q - e
    return v / e + v.sum(axis=1, keepdims=True) / rest


def _theta_of_eta(e):
    """Exponential coordinates of mixture rows."""
    return np.log(e) - np.log(1.0 - e.sum(axis=1, keepdims=True))


def _exponential_pull(e, v):
    """hess_psi v per row, at the point with mixture coordinates e."""
    return e * v - e * (e * v).sum(axis=1, keepdims=True)


def _lq_natural_theta(x, eta_q):
    p = softmax_rows(x)  # the last probability itself: 1 - sum(eta) cancels
    return _mixture_pull(p[:, :-1], eta_q, p[:, -1:])


FIELDS = {
    ("Lq", "eta"): lambda x, t: _mixture_pull(
        x, t, 1.0 - x.sum(axis=1, keepdims=True)),
    ("Lq", "theta"): lambda x, t: t - softmax_rows(x)[:, :-1],
    ("Lq", "natural_eta"): lambda x, t: t - x,
    ("Lq", "natural_theta"): _lq_natural_theta,
    ("Lstar", "eta"): lambda x, t: t - _theta_of_eta(x),
    ("Lstar", "theta"): lambda x, t: _exponential_pull(
        softmax_rows(x)[:, :-1], t - x),
    ("Lstar", "natural_eta"): lambda x, t: _exponential_pull(
        x, t - _theta_of_eta(x)),
    ("Lstar", "natural_theta"): lambda x, t: t - x,
}


def field(loss: str, chart: str, x: np.ndarray,
          target: np.ndarray) -> np.ndarray:
    """The field FIELDS[loss, chart] of loss "Lq" or "Lstar" at the (B, n)
    state rows x of a base chart: -grad L in eta and theta, -hess^-1 grad L
    in natural_eta and natural_theta.  The target, (n,) or one row per
    state, is in the coordinates the loss needs: eta_q for L_q, theta_p
    for L*_p."""
    return FIELDS[loss, chart](x, target)


# ---------------------------------------------------------------------------
# the same fields as gradients at one point


def grad_Lq_eta(ep: EtaCoord, eq: EtaCoord) -> np.ndarray:
    """Gradient of L_q in mixture coordinates: -hess_phi(ep) (eq - ep)."""
    _check_same_n(ep, eq)
    return -field("Lq", "eta", ep.eta[None], eq.eta)[0]


def grad_Lq_theta(tp: ThetaCoord, tq: ThetaCoord) -> np.ndarray:
    """Gradient of L_q in exponential coordinates: eta(tp) - eta(tq)."""
    _check_same_n(tp, tq)
    return -field("Lq", "theta", tp.theta[None], eta_from_theta(tq).eta)[0]


def grad_Lstar_eta(eq: EtaCoord, ep: EtaCoord) -> np.ndarray:
    """Gradient of L*_p in mixture coordinates: theta(eq) - theta(ep)."""
    _check_same_n(eq, ep)
    return -field("Lstar", "eta", eq.eta[None], theta_from_eta(ep).theta)[0]


def grad_Lstar_theta(tq: ThetaCoord, tp: ThetaCoord) -> np.ndarray:
    """Gradient of L*_p in exponential coordinates:
    -hess_psi(tq) (tp - tq)."""
    _check_same_n(tq, tp)
    return -field("Lstar", "theta", tq.theta[None], tp.theta)[0]


def natural_grad_Lq(ep: EtaCoord, eq: EtaCoord) -> np.ndarray:
    """Fisher-preconditioned gradient of L_q in eta: simply ep - eq."""
    _check_same_n(ep, eq)
    return -field("Lq", "natural_eta", ep.eta[None], eq.eta)[0]


def natural_grad_Lstar(tq: ThetaCoord, tp: ThetaCoord) -> np.ndarray:
    """Fisher-preconditioned gradient of L*_p in theta: simply tq - tp."""
    _check_same_n(tq, tp)
    return -field("Lstar", "natural_theta", tq.theta[None], tp.theta)[0]


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
    return _loss_theta("Lstar", t, p)


def loss_Lq_theta(t: ThetaCoord, q: SimplexPoint) -> float:
    """L_q as a function of theta: D(q || p(theta)).  Convex in theta."""
    return _loss_theta("Lq", t, q)


def _loss_theta(loss, t, target):
    """One-row loss_rows; raises ValueError where a probability underflows."""
    point = simplex_from_theta(t)
    _check_same_n(point, target)
    return float(loss_rows(loss, target.probs, point.probs[None])[0])


# ---------------------------------------------------------------------------
# affine recharts theta = A thetabar + b


@dataclass(frozen=True)
class AffineChart:
    """An invertible affine change of exponential coordinates.

    thetabar relates to theta via theta = A thetabar + b; the dual mixture
    coordinates transform covariantly as etabar = A^T eta.
    """

    a_matrix: np.ndarray
    b_offset: np.ndarray
    a_inv: np.ndarray = dataclasses.field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        a = np.array(self.a_matrix, dtype=float)
        b = np.array(self.b_offset, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("a_matrix must be square")
        if b.shape != (a.shape[0],):
            raise ValueError("b_offset length must match a_matrix")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("chart entries must be finite")
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

    def barred_from_theta(self, t: ThetaCoord) -> np.ndarray:
        return self.a_inv @ (t.theta - self.b_offset)

    def barred_from_eta(self, e: EtaCoord) -> np.ndarray:
        return self.a_matrix.T @ e.eta


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
    return AffineChart(d / np.sqrt(c), np.zeros(tq.n))

