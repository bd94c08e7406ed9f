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
descent loop is the generator descend_rows: run (and through it
empirical.run_empirical, run with the KL to the true q) and the
learning-rate sweeps of the lab module drain it (a run is a batch of one
row, a sweep steps all its rates in one batch with a column of step sizes,
and in sgd mode draws each row's minibatch target every iteration).

The linearized variant freezes the curvature at the optimum, so the error
e = x - x* follows e(k+1) = (I - alpha Q) e(k) with Q the Hessian there,
geometry.curvature of the method's chart.
closed_loop is that update's matrix, I - alpha (I + Delta) Q with an
optional multiplicative gradient perturbation Delta: step takes one
linearized step with it, and the robustness study of the lab module runs
its closed loops with it.  The descent loops run the nonlinear update.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .coords import (EtaCoord, SimplexPoint, ThetaCoord, probs_rows,
                     state_rows, valid_rows)
from .errors import BoundaryEscape, NonFinite
from .flows import Trajectory
from .geometry import SymMatrix, curvature, field, kl_rows, lq_theta_pull
from .spectral import cond, positive_spectrum

# the chart each method iterates, along the L_q field of that chart
METHOD_CHARTS = {"gd_eta": "eta", "gd_theta": "theta", "ngd": "natural_eta"}
METHODS = tuple(METHOD_CHARTS)
VARIANTS = ("nonlinear", "linearized")


@dataclass(frozen=True)
class DescentSpec:
    """One descent run: method ("gd_eta", "gd_theta" or "ngd", where ngd is
    the mixture update eta <- eta - alpha (eta - eta_q) in either variant),
    variant ("nonlinear", or "linearized" about the target, which only step
    takes), target and initial points, step size alpha and the iteration
    cap."""

    method: str
    variant: str
    target: SimplexPoint
    init: SimplexPoint
    learning_rate: float
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
              alpha: Union[float, np.ndarray],
              probs: Optional[np.ndarray] = None) -> np.ndarray:
    """One nonlinear update x + alpha field of every (B, n) state row toward
    the mixture point target_eta ((n,) or one per row), with step size alpha
    (a float, or a (B, 1) column of one step size per row).  probs, the
    probability rows of x when the caller has them, spare the gd_theta
    field its softmax."""
    if method == "gd_theta" and probs is not None:
        return x + alpha * lq_theta_pull(probs, target_eta)
    return x + alpha * field("Lq", METHOD_CHARTS[method], x, target_eta)


def closed_loop(q_mat: np.ndarray, alpha: float, delta=0.0) -> np.ndarray:
    """The linearized update e <- (I - alpha (I + delta) Q) e of the error
    e = x - x* about the optimum, as its matrix: Q the curvature there,
    alpha the step size and delta an (n, n) multiplicative perturbation of
    the gradient (none by default)."""
    eye = np.eye(len(q_mat))
    return eye - alpha * (eye + delta) @ q_mat


def step(spec: DescentSpec, state):
    """One descent update of an EtaCoord (gd_eta, ngd) or ThetaCoord
    (gd_theta) state; returns the same coordinate type.  The linearized
    variant steps x* + closed_loop(Q, alpha) (x - x*).  A step that leaves
    the domain raises check_rows' error for iteration 1."""
    x = state.eta if isinstance(state, EtaCoord) else state.theta
    if spec.variant == "nonlinear":
        x = step_rows(spec.method, x[None, :], spec.target.probs[:-1],
                      spec.learning_rate)[0]
    else:
        x_star = state_rows(spec.method, spec.target.probs[None, :])[0]
        q_mat = curvature(METHOD_CHARTS[spec.method], spec.target)
        x = x_star + closed_loop(q_mat, spec.learning_rate) @ (x - x_star)
    check_rows(spec.method, x[None], 1, spec.learning_rate)
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
    group, raises check_rows' error.  The probability rows of the gaps are
    carried into the next step, so gd_theta takes one softmax per
    iteration."""
    rows, lr = np.arange(len(x)), np.asarray(lr, dtype=float)[:, None]
    for k in range(max_iters + 1):
        if k:
            alpha = lr if decay_a is None else lr * decay_a / (k - 1 + decay_a)
            x = step_rows(method, x, draw(rows) if draw else q[:-1], alpha,
                          probs=p)
            ok = valid_rows(method, x)
            if not ok.all():
                if group is None:
                    check_rows(method, x, k, alpha[np.argmin(ok), 0])
                ok = ~np.isin(rows // group, rows[~ok] // group)
                rows, x, lr = rows[ok], x[ok], lr[ok]
        with np.errstate(divide="ignore"):
            p = probs_rows(method, x)
            gaps = kl_rows(q, p)
        yield k, rows, x, gaps
        live = slice(None) if tol is None else ~(gaps <= tol)
        rows, x, lr, p = rows[live], x[live], lr[live], p[live]
        if not rows.size:
            return


def run(spec: DescentSpec, tol: Optional[float] = None) -> Trajectory:
    """Iterate the nonlinear update from spec.init, recording the state and
    KL to the target: descend_rows for one row with step size
    spec.learning_rate, at most spec.max_iters iterations.

    Stops early once KL drops to tol (if given).  A mixture state that
    leaves the simplex raises BoundaryEscape; an overflowing exponential
    state raises NonFinite (the initial state is checked too).  A
    linearized spec raises ValueError: its update is stepped with step.
    """
    if spec.variant != "nonlinear":
        raise ValueError("descent loops run the nonlinear update, not the "
                         f"{spec.variant} variant")
    x = state_rows(spec.method, spec.init.probs[None, :])
    check_rows(spec.method, x, 0, spec.learning_rate)
    path = [(x[0], gaps[0]) for _, _, x, gaps in descend_rows(
        spec.method, x, [spec.learning_rate], spec.target.probs, tol,
        spec.max_iters)]
    states, kls = (np.array(v) for v in zip(*path))
    return Trajectory(np.arange(len(states), dtype=float), states, kls)


# ---------------------------------------------------------------------------
# step sizes and adversarial noise


def optimal_lr(q_matrix, rule: str = "optimal") -> float:
    """Step size from the extreme eigenvalues of the curvature Q.

    "standard": 1/lambda_max, worst-case contraction (1 - 1/kappa)^2 per step.
    "optimal":  2/(lambda_min + lambda_max), contraction (1 - 2/(kappa+1))^2.
    Q may also be given as its EigenDecomposition.
    """
    vals = positive_spectrum(q_matrix).values
    if rule == "standard":
        return float(1.0 / vals[-1])
    if rule == "optimal":
        return float(2.0 / (vals[0] + vals[-1]))
    raise ValueError(f"unknown rule {rule!r}")


def destabilizing_delta(q_matrix) -> SymMatrix:
    """Smallest-norm multiplicative perturbation that breaks the optimally
    tuned iteration on Q, given as a matrix or as its EigenDecomposition.

    Delta = u_max u_max^T / kappa inflates the largest curvature direction
    just enough that I - alpha (I + Delta) Q, alpha = 2/(l_min + l_max),
    has an eigenvalue at exactly -1: the error along u_max flips sign
    forever instead of contracting.  Its norm 1/kappa matches the classical
    stability margin of the optimal step size.
    """
    dec = positive_spectrum(q_matrix)
    u = dec.vectors[:, -1]
    return SymMatrix(np.outer(u, u) / cond(dec))

