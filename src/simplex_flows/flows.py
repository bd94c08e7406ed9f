"""Gradient and natural-gradient flows of the two KL losses.

Each flow is an ODE x'(t) = field(x) in one of the coordinate charts
(mixture eta, exponential theta, their Fisher-preconditioned "natural"
versions, or an affine rechart).  The field is geometry.field, looked up
once per integration; an affine chart theta = A thetabar + b is a pullback
of its base chart, the eta field at etabar^T A^-1 times A^-T (as rows) or
the theta field at A thetabar + b times A.  Integration is adaptive
DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving
ODEs I, II.10): 12 field calls a step, the last at the new state and the
next step's first (FSAL).  The step size follows the embedded error
estimate, so the mixture chart's curvature, which grows like 1/eta_min^2
near a face, costs small steps only where it is large; a step that leaves
the chart's valid set is retried smaller.  Samples on the fixed grid k*dt
come from the 7th-order dense output, as accurate as the steps, at 3 more
field calls a step that holds samples; recorded times line up across flows.

integrate_blocks is the integrator: a generator that yields each accepted
step's samples (times, states, KLs) in blocks of at most BLOCK_ROWS
(sample, batch row) pairs, so a caller that reduces the blocks as they
come holds no (samples, batch, n) array.  integrate_batch concatenates
the blocks into full arrays; integrate wraps it for a single flow.

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
# samples times batch rows per yielded block: bounds the block's temporaries
BLOCK_ROWS = 4096
# the default sample grid: a sample every SAMPLE_EVERY-th multiple of DT
DT, SAMPLE_EVERY = 1e-3, 10


@dataclass(frozen=True)
class FlowSpec:
    """One flow: which loss, which chart, target and initial distribution."""

    loss: str
    chart: str
    target: SimplexPoint
    init: SimplexPoint
    affine: Optional[AffineChart] = None

    def __post_init__(self):
        _check_flow(self.loss, self.chart, self.target, self.init.n,
                    self.affine)


def _check_flow(loss, chart, target, n, affine=None):
    """Raise ValueError naming loss and chart unless both are known, affine
    is an AffineChart just when the chart is affine, and target, init (n
    coordinates) and affine chart share one dimension."""
    if loss not in LOSSES:
        problem = f"unknown loss {loss!r}"
    elif chart not in CHARTS:
        problem = f"unknown chart {chart!r}"
    elif target.n != n:
        problem = f"init has {n} coordinates, target {target.n}"
    elif not chart.startswith("affine"):
        if affine is None:
            return
        problem = "affine chart given but chart is not affine"
    elif not isinstance(affine, AffineChart):
        problem = f"affine chart requires an AffineChart, got {affine!r}"
    elif affine.n != n:
        problem = f"affine chart has {affine.n} coordinates, target {n}"
    else:
        return
    raise ValueError(f"{loss}/{chart}: {problem}")


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


# DOP853 (Hairer's dop853.f).  Row s of _A weighs the earlier stages for
# stage s; row 12 is the 8th-order solution, whose field, stage 12, is the
# next step's stage 0 (FSAL); rows 13-15 give the dense output's 3 stages.
_A = np.array([r + [0] * (16 - len(r)) for r in (
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987])])
# rows: the 8th-order weights minus the embedded 5th-order ones, and minus
# the 3rd-order ones, which differ from them only at stages 0, 8 and 11
_E = np.array([[0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571,
                -0.022355307863886294], _A[12, :12]])
_E[1, [0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118,
                      0.022058823529411766]
# dense output at t + x h: y + h sum_c x^a (1 - x)^b (_W[:, c] . K), with
# (a, b) = _BASIS[:, c]; _W's columns: B, e_0 - B, 2 B - e_0 - e_12, _D
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564]])
_W = np.vstack([_A[12], np.eye(16)[0] - _A[12],
                2 * _A[12] - np.eye(16)[0] - np.eye(16)[12], _D]).T
_BASIS = np.array([[1, 1, 2, 2, 3, 3, 4], [0, 1, 1, 2, 2, 3, 3]])
# Each combination of the (16, B*n) stage matrix is one np.dot of a weight
# row block with it, the call that np.tensordot makes inside.
_A_ROWS = [_A[s, None, :s] for s in range(16)]
_TINY = np.finfo(float).tiny


def _error_norm(h, e5, e3, entries):
    """DOP853's error norm from the sums e5, e3 of squared scaled errors."""
    return h * e5 / np.sqrt(np.maximum(e5 + 0.01 * e3, _TINY) * entries)


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


def integrate_blocks(loss, chart, target, init_probs, t_end, dt=DT,
                     sample_every=SAMPLE_EVERY, affine=None):
    """Integrate one flow from many initializations at once, as a stream.

    init_probs is a (B, n+1) array of probability rows.  Yields
    (times, states, kls) blocks of shapes (m,), (m, B, n), (m, B): the
    sample at 0, then the samples inside each accepted step, at most
    max(1, BLOCK_ROWS // B) to a block, whose times concatenate to
    sample_times(t_end, dt, sample_every).  dt also sets the
    first trial step; all rows share one adaptive step size.  Raises
    ValueError (settings) or BoundaryEscape (initial state) when the first
    block is drawn; the ValueError of _check_flow names loss and chart.
    """
    times = sample_times(t_end, dt, sample_every)
    init_probs = np.atleast_2d(np.asarray(init_probs, dtype=float))
    _check_flow(loss, chart, target, init_probs.shape[1] - 1, affine)
    eng = _Engine(loss, chart, target, affine)
    for row in init_probs:
        SimplexPoint(row)  # raises ValueError unless a probability row
    y = eng.init_state(init_probs)
    valid = eng.valid(y)
    if not valid.all():
        raise BoundaryEscape(
            f"{loss}/{chart}: initial state is not in the chart's valid set; "
            f"failing batch rows {np.flatnonzero(~valid).tolist()}")
    yield times[:1], y[None], eng.kl_to_target(y)[None]
    shape, size = y.shape, y.shape[1]
    per_block = max(1, BLOCK_ROWS // shape[0])
    k = np.empty((16,) + shape)
    k2 = k.reshape(16, -1)
    k[0] = eng.rhs(y)
    t, h, j, grow = 0.0, dt, 1, MAX_FACTOR
    while j < times.size:
        last = h >= t_end - t
        h = t_end - t if last else h
        with np.errstate(all="ignore"):  # trial stages may leave the chart
            for s in range(1, 13):
                y_new = y + h * np.dot(_A_ROWS[s], k2[:s]).reshape(shape)
                k[s] = eng.rhs(y_new)
            scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
            e5, e3 = np.add.reduce((np.dot(_E, k2[:12]).reshape(
                (2,) + shape) / scale) ** 2, 2)  # per row
            err = float(_error_norm(h, e5.sum(), e3.sum(), y.size))
            valid = eng.valid(y_new)
        if err <= 1.0 and valid.all():
            t_new = t_end if last else t + h
            m = j + int(np.searchsorted(times[j:], t_new, side="right"))
            if m > j:  # the dense output's 3 stages, inside this step
                for s in range(13, 16):
                    k[s] = eng.rhs(
                        y + h * np.dot(_A_ROWS[s], k2[:s]).reshape(shape))
            for lo in range(j, m, per_block):  # the samples inside this step
                hi = min(lo + per_block, m)
                x = ((times[lo:hi] - t) / h)[:, None]
                w = x ** _BASIS[0] * (1.0 - x) ** _BASIS[1] @ _W.T
                states = y + np.dot(h * w, k2).reshape((hi - lo,) + shape)
                # one KL call per block: kl_rows' gemv rounds by row count
                kls = eng.kl_to_target(
                    states.reshape(-1, size)).reshape(hi - lo, -1)
                yield times[lo:hi], states, kls
            y, t, j, k[0] = y_new, t_new, m, k[12]
            h *= min(grow, SAFETY * err ** -0.125) if err > 0 else grow
            grow = MAX_FACTOR
            continue
        # rejected: shrink (no growth on the next accepted step either)
        factor = max(MIN_FACTOR, min(1.0, SAFETY * err ** -0.125)) \
            if 1.0 < err < np.inf else MIN_FACTOR
        if h * factor < 10.0 * np.spacing(t_end):
            with np.errstate(all="ignore"):  # per row, at this step's h
                row_err = _error_norm(h, e5, e3, size)
            bad = np.flatnonzero(~(row_err <= 1.0) | ~valid).tolist()
            raise BoundaryEscape(
                f"{loss}/{chart}: step size underflow at t={t:.9g} "
                f"(h={h * factor:.3g}); failing batch rows {bad}")
        h, grow = h * factor, 1.0


def integrate_batch(loss, chart, target, init_probs, t_end, dt=DT,
                    sample_every=SAMPLE_EVERY, affine=None):
    """Integrate one flow from many initializations at once: the blocks of
    integrate_blocks concatenated into (times, states, kls) of shapes (K,),
    (K, B, n), (K, B).  Raises ValueError on settings that check_settings
    rejects."""
    blocks = integrate_blocks(loss, chart, target, init_probs, t_end, dt,
                              sample_every, affine)
    return tuple(np.concatenate(part) for part in zip(*blocks))


def integrate(spec: FlowSpec, t_end: float, dt: float = DT,
              sample_every: int = SAMPLE_EVERY) -> Trajectory:
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
