"""Gradient and natural-gradient flows of the two KL losses.

Each flow is an ODE x'(t) = field(x) in one of the coordinate charts
(mixture eta, exponential theta, their Fisher-preconditioned "natural"
versions, or an affine rechart).  The field is geometry.field, looked up
once per integration; an affine chart theta = A thetabar + b is a pullback
of its base chart, the eta field at etabar^T A^-1 times A^-T (as rows) or
the theta field at A thetabar + b times A.  Integration is adaptive
Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980;
Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6).  The step size
follows the embedded error estimate, so the mixture chart's curvature,
which grows like 1/eta_min^2 near a face, costs small steps only where it
is large; a step that leaves the chart's valid set is retried smaller.
Samples on the fixed grid k*dt come from the dense output, so recorded
times line up across flows.

integrate_blocks is the integrator: a generator that yields each accepted
step's samples (times, states, KLs) as one block, so a caller that reduces
the blocks as they come holds no (samples, batch, n) array.
integrate_batch collects the blocks into full arrays; integrate wraps it
for a single flow.

The natural flow of L_q has the closed-form solution
eta(t) = eta_q + exp(-t) (eta_0 - eta_q), exposed as natural_flow_exact
and used as an oracle for the integrator.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coords import (EtaCoord, SimplexPoint, ThetaCoord, probs_rows,
                     state_rows, to_theta, valid_rows)
from .errors import BoundaryEscape
from .geometry import FIELDS, AffineChart, loss_rows

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
# one flow's field and chart maps (batched: states are rows of a (B, n) array)


def _pullback(loss, chart, affine=None):
    """(to_base, rhs) of a chart: the map of its state rows to its base chart
    (eta or theta for an affine chart, else the chart itself) and its field
    rhs(y, target).  An affine chart's field is the base field at the
    mapped rows, mapped back by one matrix product."""
    f = FIELDS[loss, chart.replace("affine_", "")]
    if chart == "affine_eta":  # eta = A^-T etabar, as rows etabar^T A^-1
        m = affine.a_inv
        return (lambda y: y @ m), (lambda y, t: f(y @ m, t) @ m.T)
    if chart == "affine_theta":  # theta = A thetabar + b
        a, b = affine.a_matrix, affine.b_offset
        return (lambda y: y @ a.T + b), (lambda y, t: f(y @ a.T + b, t) @ a)
    return (lambda y: y), f


class _Engine:
    """The field, chart maps and KL of one (loss, chart) pair, resolved once
    per integration; validity and probabilities are the base chart's."""

    def __init__(self, loss, chart, target, affine=None):
        self.loss, self.chart, self.affine = loss, chart, affine
        self.q, self.base = target.probs, chart.replace("affine_", "")
        self.to_base, field = _pullback(loss, chart, affine)
        goal = target.probs[:-1] if loss == "Lq" else to_theta(target).theta
        self.rhs = lambda y: field(y, goal)

    def init_state(self, probs):
        """States of (B, n+1) probability rows (affine: row by row)."""
        x = state_rows(self.base, probs)
        if self.chart == "affine_eta":
            return np.array([self.affine.barred_from_eta(EtaCoord(r))
                             for r in x])
        if self.chart == "affine_theta":
            return np.array([self.affine.barred_from_theta(ThetaCoord(r))
                             for r in x])
        return x

    def valid(self, y):
        return valid_rows(self.base, self.to_base(y))

    def kl_to_target(self, y):
        """The loss per row: geometry.loss_rows, clipped at 0."""
        p = probs_rows(self.base, self.to_base(y))
        if self.base.endswith("theta"):  # every chart reads 1 - sum(eta)
            p[:, -1:] = 1.0 - p[:, :-1].sum(axis=1, keepdims=True)
        return loss_rows(self.loss, self.q, p)


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


def sample_times(t_end, dt, sample_every):
    """The sample grid: k*dt for every k divisible by sample_every, below
    t_end, then t_end itself.  Raises ValueError on settings that
    check_settings rejects."""
    check_settings(dt, sample_every, t_end)
    grid = dt * np.arange(0, np.ceil(t_end / dt) + 1, sample_every)
    return np.append(grid[grid < t_end - 1e-9 * dt], t_end)


def integrate_blocks(loss, chart, target, init_probs, t_end, dt=1e-3,
                     sample_every=10, affine=None):
    """Integrate one flow from many initializations at once, as a stream.

    init_probs is a (B, n+1) array of probability rows.  Yields
    (times, states, kls) blocks of shapes (m,), (m, B, n), (m, B): the
    sample at 0, then the samples inside each accepted step, whose times
    concatenate to sample_times(t_end, dt, sample_every).  dt also sets the
    first trial step; all rows share one adaptive step size.  Raises
    ValueError (settings) or BoundaryEscape (initial state) when the first
    block is drawn.
    """
    times = sample_times(t_end, dt, sample_every)
    eng = _Engine(loss, chart, target, affine)
    init_probs = np.atleast_2d(np.asarray(init_probs, dtype=float))
    for row in init_probs:
        SimplexPoint(row)  # raises ValueError unless a probability row
    y = eng.init_state(init_probs)
    valid = eng.valid(y)
    if not valid.all():
        raise BoundaryEscape(
            f"{loss}/{chart}: initial state is not in the chart's valid set; "
            f"failing batch rows {np.flatnonzero(~valid).tolist()}")
    yield times[:1], y[None], eng.kl_to_target(y)[None]
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
                states = y + np.dot((h * _P @ s.T).T.copy(),
                                    k2).reshape((m - j,) + y.shape)
                # one KL call per step: kl_rows' gemv rounds by row count
                kls = eng.kl_to_target(
                    states.reshape(-1, size)).reshape(m - j, -1)
                yield times[j:m], states, kls
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


def integrate_batch(loss, chart, target, init_probs, t_end, dt=1e-3,
                    sample_every=10, affine=None):
    """Integrate one flow from many initializations at once: the blocks of
    integrate_blocks collected into (times, states, kls) of shapes (K,),
    (K, B, n), (K, B).  Raises ValueError on settings that check_settings
    rejects."""
    times = sample_times(t_end, dt, sample_every)
    rows, cols = np.atleast_2d(np.asarray(init_probs)).shape
    states = np.empty((times.size, rows, cols - 1))
    kls = np.empty((times.size, rows))
    j = 0
    for _, block_states, block_kls in integrate_blocks(
            loss, chart, target, init_probs, t_end, dt, sample_every, affine):
        m = j + len(block_kls)
        states[j:m], kls[j:m], j = block_states, block_kls, m
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
