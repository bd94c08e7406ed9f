"""Gradient and natural-gradient flows of the two KL losses.

Each flow is an ODE x'(t) = -grad L(x) in one of the coordinate charts
(mixture eta, exponential theta, their Fisher-preconditioned "natural"
versions, or an affine rechart).  Integration is adaptive Dormand-Prince
5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980; Hairer, Norsett &
Wanner, Solving ODEs I, II.4-II.6).  The step size follows the embedded error
estimate, so the mixture chart's curvature, which grows like 1/eta_min^2 near
a face, costs small steps only where it is large; a step that leaves the
chart's valid set is retried smaller.  Samples on the fixed grid k*dt come
from the dense output, so recorded times line up across flows.

The natural flow of L_q has the closed-form solution
eta(t) = eta_q + exp(-t) (eta_0 - eta_q), exposed as natural_flow_exact
and used as an oracle for the integrator.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coords import EtaCoord, SimplexPoint, softmax_rows, to_eta, to_theta
from .errors import BoundaryEscape
from .geometry import AffineChart, kl_rows

CHARTS = ("eta", "theta", "natural_eta", "natural_theta",
          "affine_eta", "affine_theta")
LOSSES = ("Lq", "Lstar")

# step-size control: error tolerances per state entry, and the bounds on
# how far one step may shrink or grow the next
RTOL, ATOL = 1e-10, 1e-12
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


@dataclass(frozen=True)
class FlowSpec:
    """One flow: which loss, which chart, target and initial distribution."""

    loss: str
    chart: str
    target: SimplexPoint
    init: SimplexPoint
    affine: Optional[AffineChart] = None

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.chart not in CHARTS:
            raise ValueError(f"unknown chart {self.chart!r}")
        if self.target.n != self.init.n:
            raise ValueError("target and init dimension mismatch")
        if self.chart.startswith("affine"):
            if self.affine is None:
                raise ValueError("affine chart requires an AffineChart")
            if self.affine.n != self.target.n:
                raise ValueError("affine chart dimension mismatch")
        elif self.affine is not None:
            raise ValueError("affine chart given but chart is not affine")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states of one run: times, chart states and KL to the target."""

    times: np.ndarray
    states: np.ndarray
    kl_values: np.ndarray
    loss_gaps: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        x = np.array(self.states, dtype=float)
        k = np.array(self.kl_values, dtype=float)
        if not (t.ndim == 1 and x.ndim == 2 and k.ndim == 1
                and t.size == x.shape[0] == k.size):
            raise ValueError("inconsistent trajectory shapes")
        if t.size >= 2 and np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        for arr in (t, x, k):
            arr.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "kl_values", k)
        if self.loss_gaps is not None:
            g = np.array(self.loss_gaps, dtype=float)
            if g.shape != t.shape:
                raise ValueError("loss_gaps length mismatch")
            g.setflags(write=False)
            object.__setattr__(self, "loss_gaps", g)


# ---------------------------------------------------------------------------
# chart engines (batched: states are rows of a (B, n) array)


class _Engine:
    """rhs / validity / conversions for one (loss, chart) pair."""

    def __init__(self, loss, chart, target, affine=None):
        self.loss = loss
        self.chart = chart
        self.affine = affine
        self.q = target.probs
        self.eta_q = target.probs[:-1]
        self.theta_q = to_theta(target).theta

    # conversions ----------------------------------------------------------

    def init_state(self, p0: SimplexPoint) -> np.ndarray:
        if self.chart in ("eta", "natural_eta"):
            return p0.probs[:-1].copy()
        if self.chart in ("theta", "natural_theta"):
            return to_theta(p0).theta.copy()
        if self.chart == "affine_eta":
            return self.affine.barred_from_eta(to_eta(p0))
        return self.affine.barred_from_theta(to_theta(p0))

    def _eta_rows(self, y):
        """Mixture coordinates of every row, whatever the chart."""
        if self.chart in ("eta", "natural_eta"):
            return y
        if self.chart in ("theta", "natural_theta"):
            return softmax_rows(y)[:, :-1]
        if self.chart == "affine_eta":
            return y @ self.affine.a_inv  # rows (A^-T etabar)^T = etabar^T A^-1
        th = y @ self.affine.a_matrix.T + self.affine.b_offset
        return softmax_rows(th)[:, :-1]

    def probs(self, y):
        e = self._eta_rows(y)
        return np.hstack([e, 1.0 - e.sum(axis=1, keepdims=True)])

    def valid(self, y):
        """Per row: finite, and inside the simplex for the eta-side charts."""
        ok = np.isfinite(y).all(axis=1)
        if self.chart in ("theta", "natural_theta", "affine_theta"):
            return ok
        e = self._eta_rows(y)
        return ok & (e > 0.0).all(axis=1) & (e.sum(axis=1) < 1.0)

    def kl_to_target(self, y):
        """KL to the target per row, clipped at 0 (both forms are sums that
        round to just below 0 near the optimum)."""
        p = self.probs(y)
        if self.loss == "Lq":
            return kl_rows(self.q, p)
        return np.maximum(0.0, (p * (np.log(p) - np.log(self.q))).sum(axis=1))

    # dynamics -------------------------------------------------------------

    def rhs(self, y):
        if self.loss == "Lq":
            return self._rhs_lq(y)
        return self._rhs_lstar(y)

    def _mixture_pull(self, e):
        """-grad L_q in mixture coordinates: hess_phi(e) (eta_q - e), rowwise."""
        v = self.eta_q - e
        rest = 1.0 - e.sum(axis=1, keepdims=True)
        return v / e + v.sum(axis=1, keepdims=True) / rest

    def _rhs_lq(self, y):
        if self.chart == "eta":
            return self._mixture_pull(y)
        if self.chart == "theta":
            return self.eta_q - softmax_rows(y)[:, :-1]
        if self.chart == "natural_eta":
            return self.eta_q - y
        if self.chart == "natural_theta":
            e = softmax_rows(y)[:, :-1]
            return self._mixture_pull(e)
        if self.chart == "affine_eta":
            e = self._eta_rows(y)
            return self._mixture_pull(e) @ self.affine.a_inv.T
        th = y @ self.affine.a_matrix.T + self.affine.b_offset
        g = softmax_rows(th)[:, :-1] - self.eta_q
        return -(g @ self.affine.a_matrix)

    def _rhs_lstar(self, y):
        tp = self.theta_q  # for Lstar the fixed target plays the role of p
        if self.chart == "eta":
            rest = 1.0 - y.sum(axis=1, keepdims=True)
            return tp - (np.log(y) - np.log(rest))
        if self.chart == "natural_theta":
            return tp - y
        if self.chart == "theta":
            e = softmax_rows(y)[:, :-1]
            v = tp - y
            return e * v - e * (e * v).sum(axis=1, keepdims=True)
        if self.chart == "natural_eta":
            rest = 1.0 - y.sum(axis=1, keepdims=True)
            v = tp - (np.log(y) - np.log(rest))
            return y * v - y * (y * v).sum(axis=1, keepdims=True)
        if self.chart == "affine_eta":
            e = self._eta_rows(y)
            rest = 1.0 - e.sum(axis=1, keepdims=True)
            v = tp - (np.log(e) - np.log(rest))
            return v @ self.affine.a_inv.T
        th = y @ self.affine.a_matrix.T + self.affine.b_offset
        e = softmax_rows(th)[:, :-1]
        v = tp - th
        w = e * v - e * (e * v).sum(axis=1, keepdims=True)
        return w @ self.affine.a_matrix


# Dormand-Prince 5(4).  Row s of _A weighs the earlier stages for stage s;
# row 6 is the 5th-order solution, so stage 7 is the next step's stage 1
# (FSAL).  _E: 5th minus embedded 4th-order weights.  _P: Shampine's free
# 4th-order dense output y(t + s h) = y + h sum_i k_i (_P[i] @ [s..s^4]).
_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]])
_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
               22 / 525, -1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
# The stages are kept as one (7, B*n) matrix, so each combination of them is
# one np.dot of a weight row block with it: the call, shapes and layouts that
# np.tensordot makes inside, without its per-call reshapes and transposes.
# _A_ROWS[s] is stage s's (1, s) block.
_A_ROWS = [_A[s, None, :s] for s in range(7)]
_E_ROW = _E[None, :]


def check_settings(dt, sample_every, t_end=None):
    """Raise ValueError naming the first integrator setting out of range:
    dt and t_end (unless None) must be finite and positive, sample_every
    at least 1."""
    for name, value in (("t_end", t_end), ("dt", dt)):
        if value is not None and not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not sample_every >= 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")


def integrate_batch(loss, chart, target, init_probs, t_end, dt=1e-3,
                    sample_every=10, affine=None):
    """Integrate one flow from many initializations at once.

    init_probs is a (B, n+1) array of probability rows.  Returns
    (times, states, kls) with shapes (K,), (K, B, n), (K, B).  The samples
    sit at k*dt for every k divisible by sample_every, plus t_end; dt also
    sets the first trial step.  All rows share one adaptive step size.
    Raises ValueError on settings that check_settings rejects.
    """
    check_settings(dt, sample_every, t_end)
    eng = _Engine(loss, chart, target, affine)
    init_probs = np.atleast_2d(np.asarray(init_probs, dtype=float))
    y = np.vstack([eng.init_state(SimplexPoint(row)) for row in init_probs])
    valid = eng.valid(y)
    if not valid.all():
        raise BoundaryEscape(
            f"{loss}/{chart}: initial state is not in the chart's valid set; "
            f"failing batch rows {np.flatnonzero(~valid).tolist()}")
    grid = dt * np.arange(0, np.ceil(t_end / dt) + 1, sample_every)
    times = np.append(grid[grid < t_end - 1e-9 * dt], t_end)
    states = np.empty((times.size,) + y.shape)
    kls = np.empty(times.shape + y.shape[:1])
    states[0], kls[0] = y, eng.kl_to_target(y)
    k = np.empty((7,) + y.shape)
    k2 = k.reshape(7, -1)
    k[0] = eng.rhs(y)
    size = y.shape[1]
    t, h, j, grow = 0.0, dt, 1, MAX_FACTOR
    while j < times.size:
        last = h >= t_end - t
        h = t_end - t if last else h
        with np.errstate(all="ignore"):  # trial stages may leave the chart
            for s in range(1, 7):
                y_new = y + h * np.dot(_A_ROWS[s], k2[:s]).reshape(y.shape)
                k[s] = eng.rhs(y_new)
            scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
            # RMS norms as np.mean computes them: a sum, then one division
            row_err = np.sqrt(np.add.reduce(
                (h * np.dot(_E_ROW, k2).reshape(y.shape) / scale) ** 2, 1)
                / size)
            err = float(np.sqrt(np.add.reduce(row_err ** 2) / row_err.size))
            valid = eng.valid(y_new)
        if err <= 1.0 and valid.all():
            t_new = t_end if last else t + h
            m = j + int(np.searchsorted(times[j:], t_new, side="right"))
            if m > j:  # dense output at the samples inside this step
                s = np.power.outer((times[j:m] - t) / h, np.arange(1, 5))
                states[j:m] = y + np.dot((h * _P @ s.T).T.copy(),
                                         k2).reshape((m - j,) + y.shape)
                kls[j:m] = eng.kl_to_target(
                    states[j:m].reshape(-1, size)).reshape(m - j, -1)
            y, t, j, k[0] = y_new, t_new, m, k[6]
            h *= min(grow, SAFETY * err ** -0.2) if err > 0 else grow
            grow = MAX_FACTOR
            continue
        # rejected: shrink (no growth on the next accepted step either)
        h *= max(MIN_FACTOR, min(1.0, SAFETY * err ** -0.2)) \
            if 1.0 < err < np.inf else MIN_FACTOR
        grow = 1.0
        if h < 10.0 * np.spacing(t_end):
            bad = np.flatnonzero(~(row_err <= 1.0) | ~valid).tolist()
            raise BoundaryEscape(
                f"{loss}/{chart}: step size underflow at t={t:.9g} "
                f"(h={h:.3g}); failing batch rows {bad}")
    return times, states, kls


def integrate(spec: FlowSpec, t_end: float, dt: float = 1e-3,
              sample_every: int = 10) -> Trajectory:
    """Integrate a single flow; thin wrapper over the batched integrator."""
    times, states, kls = integrate_batch(
        spec.loss, spec.chart, spec.target, spec.init.probs[None, :],
        t_end, dt=dt, sample_every=sample_every, affine=spec.affine)
    return Trajectory(times, states[:, 0, :], kls[:, 0])


def natural_flow_exact(eq: EtaCoord, e0: EtaCoord, t: float) -> EtaCoord:
    """Closed-form natural-gradient flow of L_q:
    eta(t) = eta_q + exp(-t) (eta_0 - eta_q)."""
    if eq.n != e0.n:
        raise ValueError("dimension mismatch")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return EtaCoord(eq.eta + np.exp(-t) * (e0.eta - eq.eta))
