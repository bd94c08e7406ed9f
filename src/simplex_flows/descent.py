"""Discrete-time gradient and natural-gradient descent on the KL loss L_q.

Three methods, each stepping toward a target q with mixture coordinates
eta_q at step size alpha:

    gd_eta   plain gradient descent in mixture coordinates (iterates eta):
             eta <- eta + alpha hess_phi(eta) (eta_q - eta)
    gd_theta plain gradient descent in exponential coordinates (iterates
             theta): theta <- theta - alpha (eta(theta) - eta_q)
    ngd      natural gradient descent.  The inverse Fisher metric turns the
             gradient in eta into the coordinate difference, so ngd iterates
             eta <- eta - alpha (eta - eta_q): a mixture of the iterate and
             the target, affine invariant, landing on q in one step at
             alpha = 1.  Its nonlinear and linearized variants coincide up
             to rounding.

Each method is an Euler step x <- x + alpha field along the L_q vector
field of its chart (eta, theta and natural_eta): the geometry.field that
the flows integrate, taken for (B, n) state rows by step_rows.  The one
descent loop is the generator descend_rows: run, the minibatch descent of
the empirical module and the learning-rate sweeps of the lab module drain
it (a run is a batch of one row, a sweep steps all its rates in one batch
with a column of step sizes).

The linearized variant freezes the curvature at the optimum, so the error
e = x - x* follows e(k+1) = (I - alpha Q) e(k) with Q the Hessian there.
Noise enters only the linearized dynamics: multiplicative noise replaces
the (preconditioned) gradient v by (I + Delta(k)) v; additive noise adds a
unit-covariance Gaussian vector to the state after the update.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .coords import (EtaCoord, SimplexPoint, ThetaCoord, probs_rows,
                     state_rows, to_eta, to_theta, valid_rows)
from .errors import BoundaryEscape, NonFinite
from .flows import Trajectory
from .geometry import SymMatrix, field, hess_phi, hess_psi, kl_rows
from .rng import make_rng, normal_vector
from .spectral import EigenDecomposition, eigh

# the chart each method iterates, along the L_q field of that chart
METHOD_CHARTS = {"gd_eta": "eta", "gd_theta": "theta", "ngd": "natural_eta"}
METHODS = tuple(METHOD_CHARTS)
VARIANTS = ("nonlinear", "linearized")


@dataclass(frozen=True)
class NoiseModel:
    """Gradient noise for the linearized dynamics.

    kind "multiplicative": delta is an (n, n) matrix; the update uses
    (I + delta) times the gradient.
    kind "additive": i.i.d. N(0, I) vectors drawn from a counter-based
    generator seeded with `seed` are added to the state each step.
    """

    kind: str = "none"
    delta: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "multiplicative", "additive"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "multiplicative" and self.delta is None:
            raise ValueError("multiplicative noise needs a delta")


@dataclass(frozen=True)
class DescentSpec:
    """One descent run: method ("gd_eta", "gd_theta" or "ngd", where ngd is
    the mixture update eta <- eta - alpha (eta - eta_q) in either variant),
    variant ("nonlinear" or "linearized" about the target), target and
    initial points, step size alpha, noise (linearized only) and the
    iteration cap."""

    method: str
    variant: str
    target: SimplexPoint
    init: SimplexPoint
    learning_rate: float
    noise: NoiseModel = NoiseModel()
    max_iters: int = 100

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.target.n != self.init.n:
            raise ValueError("target and init dimension mismatch")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.noise.kind != "none" and self.variant != "linearized":
            raise ValueError("noise models apply to the linearized variant only")


def check_rows(method: str, x: np.ndarray, k: int, alpha: float) -> None:
    """Raise BoundaryEscape (a mixture state left the simplex) or NonFinite
    (an exponential state overflowed) unless every row is valid; the
    message names the method, the iteration k of x and the step size."""
    if valid_rows(method, x).all():
        return
    where = f"at iteration {k} (step size {alpha:.9g})"
    if method == "gd_theta":
        raise NonFinite(f"{method} iterate overflowed {where}; "
                        "reduce the step size")
    raise BoundaryEscape(f"{method} iterate left the simplex {where}; "
                         "reduce the step size")


def step_rows(method: str, x: np.ndarray, target_eta: np.ndarray,
              alpha: Union[float, np.ndarray]) -> np.ndarray:
    """One nonlinear update x + alpha field of every (B, n) state row toward
    the mixture point target_eta ((n,) or one per row), with step size alpha
    (a float, or a (B, 1) column of one step size per row)."""
    return x + alpha * field("Lq", METHOD_CHARTS[method], x, target_eta)


def _curvature_at_optimum(spec: DescentSpec) -> np.ndarray:
    if spec.method == "gd_eta":
        return hess_phi(to_eta(spec.target)).entries
    if spec.method == "gd_theta":
        return hess_psi(to_theta(spec.target)).entries
    return np.eye(spec.target.n)


def _error_update(spec: DescentSpec, e: np.ndarray, q_mat: np.ndarray,
                  rng) -> np.ndarray:
    """One linearized step in error coordinates e = x - x*."""
    a = spec.learning_rate
    v = q_mat @ e
    if spec.noise.kind == "multiplicative":
        v = v + np.asarray(spec.noise.delta, dtype=float) @ v
    e_next = e - a * v
    if spec.noise.kind == "additive":
        if rng is None:
            raise ValueError("additive noise requires an rng")
        e_next = e_next + normal_vector(rng, e.size)
    return e_next


def step(spec: DescentSpec, state, rng=None):
    """One descent update of an EtaCoord (gd_eta, ngd) or ThetaCoord
    (gd_theta) state; returns the same coordinate type."""
    x = state.eta if isinstance(state, EtaCoord) else state.theta
    if spec.variant == "nonlinear":
        x = step_rows(spec.method, x[None, :], spec.target.probs[:-1],
                      spec.learning_rate)[0]
    else:
        x_star = state_rows(spec.method, spec.target.probs[None, :])[0]
        x = x_star + _error_update(spec, x - x_star,
                                   _curvature_at_optimum(spec), rng)
    return ThetaCoord(x) if spec.method == "gd_theta" else EtaCoord(x)


def descend_rows(method: str, x: np.ndarray, lr, q: np.ndarray,
                 tol: Optional[float], max_iters: int,
                 decay_a: Optional[float] = None,
                 draw: Optional[Callable] = None, group: Optional[int] = None):
    """Nonlinear descent of the (R, n) state rows x toward the probability
    vector q: yields (k, rows, x, gaps) for k = 0, ..., max_iters, the live
    row indices, their states and their gaps kl_rows(q, p) (inf, silently,
    where a probability underflows to 0).  Row r steps from iteration k
    with lr[r] (times a/(k + a) given decay_a = a) toward q, or toward the
    rows of draw(rows).  A row leaves once its gap is within tol; one that
    leaves the domain finishes its group of rows (r // group) or, with no
    group, raises check_rows' error."""
    rows, lr = np.arange(len(x)), np.asarray(lr, dtype=float)[:, None]
    for k in range(max_iters + 1):
        if k:
            alpha = lr if decay_a is None else lr * decay_a / (k - 1 + decay_a)
            x = step_rows(method, x, draw(rows) if draw else q[:-1], alpha)
            ok = valid_rows(method, x)
            if not ok.all():
                if group is None:
                    check_rows(method, x, k, alpha[np.argmin(ok), 0])
                ok = ~np.isin(rows // group, rows[~ok] // group)
                rows, x, lr = rows[ok], x[ok], lr[ok]
        with np.errstate(divide="ignore"):
            gaps = kl_rows(q, probs_rows(method, x))
        yield k, rows, x, gaps
        live = slice(None) if tol is None else ~(gaps <= tol)
        rows, x, lr = rows[live], x[live], lr[live]
        if not rows.size:
            return


def descend(spec: DescentSpec, q: np.ndarray, tol: Optional[float],
            decay_a: Optional[float] = None, draw: Optional[Callable] = None):
    """States and gaps of descend_rows from spec.init with step size
    spec.learning_rate, its initial state checked too, for at most
    spec.max_iters iterations."""
    x = state_rows(spec.method, spec.init.probs[None, :])
    check_rows(spec.method, x, 0, spec.learning_rate)
    path = [(x[0], gaps[0]) for _, _, x, gaps in descend_rows(
        spec.method, x, [spec.learning_rate], q, tol, spec.max_iters,
        decay_a, draw)]
    return tuple(np.array(v) for v in zip(*path))


def run(spec: DescentSpec, tol: Optional[float] = None) -> Trajectory:
    """Iterate the update, recording the state and KL to the target.

    Stops early once KL drops to tol (if given).  Noise-free runs whose
    mixture state leaves the simplex raise BoundaryEscape; overflowing
    exponential states raise NonFinite.  Noisy runs record NaN for the KL
    whenever the state has no interior representation.
    """
    method, q = spec.method, spec.target.probs
    if spec.variant == "nonlinear":
        states, kls = descend(spec, q, tol)
        return Trajectory(np.arange(len(states), dtype=float), states, kls)
    x_star = state_rows(method, q[None, :])
    q_mat = _curvature_at_optimum(spec)
    rng = make_rng(spec.noise.seed) if spec.noise.kind == "additive" else None
    x = state_rows(method, spec.init.probs[None, :])
    e = x[0] - x_star[0]

    def kl_of(xv, k):
        if spec.noise.kind != "none" and not valid_rows(method, xv)[0]:
            return np.nan
        check_rows(method, xv, k, spec.learning_rate)
        return kl_rows(q, probs_rows(method, xv))[0]

    states, kls = [x[0]], [kl_of(x, 0)]
    for k in range(spec.max_iters):
        if tol is not None and kls[-1] <= tol:
            break
        e = _error_update(spec, e, q_mat, rng)
        x = x_star + e
        states.append(x[0])
        kls.append(kl_of(x, k + 1))
    return Trajectory(np.arange(len(states), dtype=float),
                      np.array(states), np.array(kls))


# ---------------------------------------------------------------------------
# step sizes and adversarial noise


def optimal_lr(q_matrix, rule: str = "optimal") -> float:
    """Step size from the extreme eigenvalues of the curvature Q.

    "standard": 1/lambda_max, worst-case contraction (1 - 1/kappa)^2 per step.
    "optimal":  2/(lambda_min + lambda_max), contraction (1 - 2/(kappa+1))^2.
    Q may also be given as its EigenDecomposition.
    """
    dec = q_matrix if isinstance(q_matrix, EigenDecomposition) else eigh(q_matrix)
    vals = dec.values
    if vals[0] <= 0:
        raise ValueError("curvature matrix must be positive definite")
    if rule == "standard":
        return float(1.0 / vals[-1])
    if rule == "optimal":
        return float(2.0 / (vals[0] + vals[-1]))
    raise ValueError(f"unknown rule {rule!r}")


def destabilizing_delta(q_matrix) -> SymMatrix:
    """Smallest-norm multiplicative perturbation that breaks the optimally
    tuned iteration.

    Delta = u_max u_max^T / kappa inflates the largest curvature direction
    just enough that I - alpha (I + Delta) Q, alpha = 2/(l_min + l_max),
    has an eigenvalue at exactly -1: the error along u_max flips sign
    forever instead of contracting.  Its norm 1/kappa matches the classical
    stability margin of the optimal step size.
    """
    dec = eigh(q_matrix)
    if dec.values[0] <= 0:
        raise ValueError("curvature matrix must be positive definite")
    kappa = dec.values[-1] / dec.values[0]
    u = dec.vectors[:, -1]
    return SymMatrix(np.outer(u, u) / kappa)

