"""Experiment harness: rate fits, rate bounds, sweeps, robustness, witnesses.

Every experiment takes an explicit seed, runs deterministically (results
are aggregated in a fixed order even when work is farmed out to threads)
and can emit a CSV of per-unit rows plus a JSON summary with the config
echo and pass/fail flags.  All floats are written with 9 significant
digits so reruns with the same seed are byte-identical.
"""

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coords import (MIN_PROB, SimplexPoint, ThetaCoord, probs_rows, row_min,
                     simplex_from_theta, simplex_rows_ok, softmax_rows,
                     to_theta, valid_rows)
from .descent import (METHOD_CHARTS, METHODS, DescentSpec, closed_loop,
                      descend_rows, destabilizing_delta, optimal_lr, state_rows)
from .empirical import run_empirical
from .errors import (ExperimentFailure, InsufficientDecay, WitnessNotFound,
                     ZeroCount)
from .flows import (DT, SAMPLE_EVERY, FlowSpec, check_settings, integrate,
                    integrate_blocks, sample_times)
from .geometry import (curvature, kl, kl_probs, kl_rows, loss_rows,
                       make_identity_chart)
from .rng import (DRAW_BLOCK, first_simplex_point, make_rng, normal_matrix,
                  normal_rows, normal_vector, random_simplex_batch,
                  random_simplex_point)
from .spectral import cond, eigh, rank_one_extremes, solve_lyapunov

KL_FLOOR = 1e-13
FIT_WINDOW = 0.6
FIT_BLOCK = 16  # columns fitted at once: bounds the fit's (16, K) temporaries
DECAY_REASONS = ("trajectory KL is identically zero",
                 "KL never dropped below 0.9x its initial value",
                 "fewer than 10 samples above the KL floor")
R2_MIN = 0.99
NG_BAND = (1.9, 2.1)
NEAR_OPT_KL = 0.05
SANDWICH_KL_CAP = 0.1  # sandwich inits are pulled to kl(q||p0) <= this
AFFINE_RTOL = 0.10  # fitted affine rates within 10% of 2c and 2/c
ORDERING_FROM = 5  # empirical sandwich: first iteration the ordering holds
SECTION_S, SECTION_TOL = 0.05, 0.05  # sections: |s| checked, relative slack
BALANCE = 0.3  # draw_instance's targets have min q_i >= BALANCE / (n + 1)
BOUNDS_POOL = 10000  # rate_bounds' Monte Carlo sample of the simplex
# the ngd perturbation study: spectral norm of each Delta(k), and its steps
PERTURB_NORM, PERTURB_STEPS = 0.9, 400
WITNESS_BLOCK = 256  # probes drawn and screened at once; bounds scan memory
# Monte Carlo chain: steps per block scan, whose (n, L, L) power stack is
# n * 32 KiB (L = 256 would make it 1 MiB at n = 2), and steps of noise drawn
# and reduced at once, which bounds the chain's working memory to a few
# (chunk, n) arrays however long the chain runs (a 16,384-step chunk raised
# the descent-noise benchmark's peak RSS by 0.18 MiB; 4,096 steps did not)
MC_BLOCK = 64
MC_CHUNK = 4096


# ---------------------------------------------------------------------------
# plumbing: formatting, output, parallelism


def fmt9(x) -> str:
    """Canonical 9-significant-digit rendering used in every output file."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _round9(obj):
    """Round floats to 9 significant digits recursively (stable JSON)."""
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(fmt9(obj))
    if isinstance(obj, np.ndarray):
        return _round9(obj.tolist())
    return obj


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt9(v) for v in row) + "\n")


def write_json(path, summary):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_round9(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(out_dir, stem, summary, header=None, rows=()):
    """Write <stem>.csv (when a header is given) and <stem>.json, the summary
    without its rows and private keys, into out_dir; no-op without one."""
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    if header is not None:
        write_csv(os.path.join(out_dir, f"{stem}.csv"), header, rows)
    write_json(os.path.join(out_dir, f"{stem}.json"),
               {k: v for k, v in summary.items()
                if k != "rows" and not k.startswith("_")})


def worker_count() -> int:
    """Worker cap from SIMPLEX_FLOWS_THREADS (0 or unset = auto)."""
    raw = os.environ.get("SIMPLEX_FLOWS_THREADS", "0")
    try:
        k = int(raw)
    except ValueError as exc:
        raise ValueError(f"SIMPLEX_FLOWS_THREADS must be an integer, got {raw!r}") from exc
    if k < 0:
        raise ValueError("SIMPLEX_FLOWS_THREADS must be nonnegative")
    return k if k > 0 else (os.cpu_count() or 1)


def parallel_map(fn, items):
    """Order-preserving map, threaded when more than one worker is allowed.

    The calling thread maps the first item itself while a pool of
    workers - 1 threads maps the rest: every pool thread keeps its own
    malloc arena, whose freed memory stays resident after the map.
    """
    items = list(items)
    workers = min(worker_count(), max(1, len(items)))
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        rest = pool.map(fn, items[1:])
        return [fn(items[0])] + list(rest)


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log KL vs time over the tail window."""

    slope: float       # positive decay rate
    intercept: float
    r_squared: float
    window: tuple      # (t_lo, t_hi)

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError("r_squared must lie in [0, 1]")


@dataclass(frozen=True)
class RateBounds:
    """Twice the extreme Hessian eigenvalues over a sublevel set."""

    m_lo: float
    l_hi: float

    def __post_init__(self):
        if not 0.0 < self.m_lo <= self.l_hi:
            raise ValueError("need 0 < m_lo <= l_hi")


def fit_rate(traj) -> RateFit:
    """fit_rates of the one column traj.kl_values as a RateFit; raises
    InsufficientDecay with the reason where it is not fitted."""
    rate, intercept, r2, window, reason = fit_rates(traj.times,
                                                    traj.kl_values[:, None])
    if reason[0]:
        raise InsufficientDecay(reason[0])
    return RateFit(float(rate[0]), float(intercept[0]), float(r2[0]),
                   tuple(window[0].tolist()))


def fit_rates(times, kls):
    """Fit log KL vs t per column of kls (K, C), sampled at times (K,), on
    its window: the last ceil(FIT_WINDOW m) of its m finite samples above
    KL_FLOOR, as the decay is exponential only after a burn-in.  Returns
    (C,) rates -slope, intercepts and R^2 = slope S_tv / S_vv in [0, 1] (1
    if S_vv = 0) from centred sums, the (C, 2) window ends and (C,) reasons:
    "" or, for a column not fitted (numbers NaN), the first DECAY_REASONS
    entry that holds.  A column is a row of a FIT_BLOCK-row C-order block,
    so it gets the same bits in any block."""
    times, kls = np.asarray(times, dtype=float), np.asarray(kls, dtype=float)
    out = np.full((5, kls.shape[1]), np.nan)
    code = np.zeros(kls.shape[1], dtype=np.int64)
    for lo in range(0, kls.shape[1], FIT_BLOCK):
        cols = slice(lo, lo + FIT_BLOCK)
        v = kls[:, cols].T.copy()
        positive = np.isfinite(v) & (v > 0.0)
        first = v[np.arange(len(v)), positive.argmax(axis=1)]
        low = np.min(v, axis=1, where=positive, initial=np.inf)
        mask = positive & (v > KL_FLOOR)
        m = mask.sum(axis=1)
        code[cols] = np.select([~positive.any(axis=1), low > 0.9 * first,
                                m < 10], [1, 2, 3])
        need = np.ceil(FIT_WINDOW * m)[:, None]  # the last `need` masked ones
        win = mask & (np.cumsum(mask[:, ::-1], axis=1, dtype=np.int32)
                      [:, ::-1] <= need)
        # in place, so a block holds three (FIT_BLOCK, K) float arrays
        with np.errstate(divide="ignore", invalid="ignore"):
            tc = np.multiply(win, times)
            t_mean = tc.sum(axis=1, keepdims=True) / need
            tc -= t_mean
            tc *= win
            v[~win] = 1.0
            lv = np.log(v, out=v)  # 0 outside the window
            v_mean = lv.sum(axis=1, keepdims=True) / need
            lv -= v_mean
            lv *= win
            s_tt = (tc * tc).sum(axis=1)
            s_tv = np.multiply(tc, lv, out=tc).sum(axis=1)
            s_vv = np.square(lv, out=lv).sum(axis=1)
            slope = s_tv / s_tt
            r2 = np.where(s_vv == 0.0, 1.0, slope * s_tv / s_vv)
        ends = times[[win.argmax(axis=1), -1 - win[:, ::-1].argmax(axis=1)]]
        out[:, cols] = np.where(code[cols] == 0, [
            -slope, (v_mean - slope[:, None] * t_mean)[:, 0],
            np.clip(r2, 0.0, 1.0), *ends], np.nan)
        del v, lv, tc, positive, mask, win  # before the next block's
    return (*out[:3], out[3:].T, np.array(("",) + DECAY_REASONS)[code])


def _horizon(kl0, rate, dt):
    """(t_end, dt) running a flow of asymptotic rate `rate` from KL kl0 down
    to ~20x KL_FLOOR, so the fit window is asymptotic, on at most 20,000
    intervals, which bounds the samples kept (n=10 theta: t_end ~1,500).
    Raises InsufficientDecay when kl0 is not above 20x KL_FLOOR."""
    if not kl0 > 20.0 * KL_FLOOR:
        raise InsufficientDecay(f"initial KL {kl0:.9g} is not above "
                                f"20x KL_FLOOR ({20.0 * KL_FLOOR:g})")
    t_end = np.log(kl0 / (20.0 * KL_FLOOR)) / rate
    return t_end, max(dt, t_end / 20000.0)


# ---------------------------------------------------------------------------
# rate bounds over sublevel sets


def _hessian_extremes(loss, q, probs):
    """Extreme Hessian eigenvalues of L_q at each row of probs.  In eta the
    Hessian is diag(q_i/e_i^2) + q_n/rest^2 11^T; in theta it is hess_psi =
    hess_phi^-1, so its extremes are the reciprocals of those of hess_phi =
    diag(1/e) + 11^T/rest, free of the cancellation in diag(e) - ee^T."""
    e, rest = probs[:, :-1], probs[:, -1]
    if loss == "Lq_eta":
        return rank_one_extremes(q[:-1] / e ** 2, q[-1] / rest ** 2)
    if loss == "Lq_theta":
        lo, hi = rank_one_extremes(1.0 / e, 1.0 / rest)
        return 1.0 / hi, 1.0 / lo
    raise ValueError(f"unknown loss {loss!r}")


def rate_bounds(loss: str, q: SimplexPoint, p0: SimplexPoint, seed: int = 0,
                extra_probs: Optional[np.ndarray] = None) -> RateBounds:
    """Bracket the asymptotic flow rate: (2m, 2L) with m, L the extreme
    Hessian eigenvalues over a Monte Carlo sample of {x : L(x) <= L(p0)}:
    q and BOUNDS_POOL flat-Dirichlet points drawn from the seed.

    extra_probs (rows of probability vectors, e.g. a trajectory's own
    states) are always included so the bound covers the path actually
    taken.

    The pool streams from the one generator in blocks of DRAW_BLOCK rows
    (a batch's rows are its single draws), the secular equations run only
    on the rows inside the sublevel set, and the extra rows pass in blocks
    too: memory does not grow with BOUNDS_POOL.
    """
    if q.n != p0.n:
        raise ValueError("dimension mismatch")
    rng, level = make_rng(seed), kl(q, p0) + 1e-15
    draws = (random_simplex_batch(rng, q.n, min(DRAW_BLOCK, BOUNDS_POOL - i))
             for i in range(0, BOUNDS_POOL, DRAW_BLOCK))
    extra = (() if extra_probs is None or not len(extra_probs)
             else np.atleast_2d(np.asarray(extra_probs, dtype=float)))
    blocks = itertools.chain(
        [q.probs[None, :]],  # the optimum always participates
        (rows[kl_rows(q.probs, rows) <= level] for rows in draws),
        (extra[i:i + DRAW_BLOCK] for i in range(0, len(extra), DRAW_BLOCK)))
    m, big = np.inf, 0.0
    for rows in blocks:
        if len(rows):
            lo, hi = _hessian_extremes(loss, q.probs, rows)
            m, big = min(m, float(lo.min())), max(big, float(hi.max()))
    return RateBounds(2.0 * m, 2.0 * big)


# ---------------------------------------------------------------------------
# experiments


def draw_near(q: SimplexPoint, p0: SimplexPoint,
              kl_max: float = NEAR_OPT_KL) -> SimplexPoint:
    """Shrink p0 toward q along the mixture line until kl(q||p0) <= kl_max."""
    return SimplexPoint(draw_near_rows(q, p0.probs[None], kl_max)[0][0])


def draw_near_rows(q: SimplexPoint, p0_rows: np.ndarray,
                   kl_max: float = NEAR_OPT_KL):
    """draw_near of each (B, n+1) row at once: (rows, kls), the shrunk rows
    and their kl(q||row).  The rows shrink together, level k at the scale
    s *= 0.7 repeated k times; candidates pass simplex_rows_ok and their KL
    is kl_probs.  Raises what draw_near row by row raises first: the lowest
    row decides, whether its input or a candidate is not a probability
    vector or it does not reach kl_max in 200 levels."""
    p0_rows = np.asarray(p0_rows, dtype=float)
    rows, kls = np.empty_like(p0_rows), np.empty(len(p0_rows))
    d = p0_rows - q.probs
    bad = np.flatnonzero(~simplex_rows_ok(p0_rows))
    # the lowest failing row, and the row SimplexPoint rejects for it (None:
    # its shrink ran out); only the rows below it still shrink
    first, reject = (bad[0], p0_rows[bad[0]]) if bad.size else (len(d), None)
    todo, s = np.arange(first), 1.0
    for _ in range(200):
        cand = q.probs + s * d[todo]
        ok = simplex_rows_ok(cand)
        if not ok.all():
            k = int(np.argmin(ok))
            first, reject, todo, cand = todo[k], cand[k], todo[:k], cand[:k]
        kl_cand = np.array([kl_probs(q.probs, row) for row in cand])
        near = kl_cand <= kl_max
        rows[todo[near]], kls[todo[near]] = cand[near], kl_cand[near]
        todo = todo[~near]
        if not todo.size:
            break
        s *= 0.7
    else:
        first, reject = todo[0], None
    if first < len(d):
        if reject is None:
            raise ExperimentFailure(
                "could not shrink p0 into the near-optimum regime")
        SimplexPoint(reject)  # raises its reason: simplex_rows_ok failed it
    return rows, kls


def draw_instance(rng, n: int) -> SimplexPoint:
    """A random target whose smallest probability is not degenerate.

    Flat-Dirichlet draws are rejected until min_i q_i >= BALANCE/(n+1), for
    at most 100,000 draws.  Very lopsided targets make every flow's
    transient so long and violent that no finite window of the KL curve is
    a clean exponential.
    """
    q = first_simplex_point(rng, n, BALANCE / (n + 1), 100000)
    if q is None:
        raise ExperimentFailure("could not draw a balanced target in 100,000 draws")
    return q


def sandwich_experiment(n: int, n_inits: int, seed: int,
                        t_end: Optional[float] = None, dt: float = DT,
                        sample_every: int = SAMPLE_EVERY,
                        out_dir: Optional[str] = None) -> dict:
    """Fit decay rates of the three flows of L_q from many random inits.

    Checks, per init fitted in all three charts (and that there is one):
    theta-rate < 2 < eta-rate, natural rate inside NG_BAND, every fit
    R^2 >= R2_MIN; also that the integrated natural flow matches its
    closed-form solution to 1e-8.

    The rate claims are asymptotic, so random inits are pulled along the
    mixture line toward the optimum until kl(q||p0) <= SANDWICH_KL_CAP, and
    each chart gets its own horizon, long enough that the tail fit window sits
    in the regime where the slowest curvature mode at the optimum
    dominates.  (With a single shared horizon the slow theta flow is still
    mid-transient when the fast eta flow is already at the KL floor, and
    the fits pick up the drifting transient slope.)

    Each chart's samples stream from integrate_blocks and are reduced as
    they come: the KLs go into a (K, B) array, fitted by fit_rates when the
    chart's stream ends and then dropped, and the natural-flow check into a
    running maximum, so at most one chart's (K, B) KLs are held at a time,
    never its (K, B, n) states.  The returned summary carries _target,
    _inits and _grids[chart] = (t_end, dt) of each chart's integration.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n_inits < 1:
        raise ValueError(f"n_inits must be at least 1, got {n_inits}")
    check_settings(dt, sample_every, t_end)
    rng = make_rng(seed)
    q = draw_instance(rng, n)
    inits, kl0s = draw_near_rows(q, random_simplex_batch(rng, n, n_inits),
                                 SANDWICH_KL_CAP)

    vals = eigh(curvature("eta", q)).values
    kl0_max = float(kl0s.max())
    # asymptotic decay rates: 2 lambda_min of the curvature in each chart,
    # theta's as 2 / eta's lambda_max: the theta fits depend on its last bit
    rate_est = {"eta": 2.0 * vals[0], "natural_eta": 2.0, "theta": 2.0 / vals[-1]}
    eta_q = q.probs[:-1]
    offset = (inits[:, :-1] - eta_q).ravel()
    eta_q_rows = np.tile(eta_q, n_inits)
    fits, grids, natural_exact_err = [], {}, 0.0
    for chart in ("eta", "natural_eta", "theta"):
        # the max-KL init sets the auto horizon
        t_chart, dt_chart = grids[chart] = (
            (t_end, dt) if t_end is not None
            else _horizon(kl0_max, rate_est[chart], dt))
        times = sample_times(t_chart, dt_chart, sample_every)
        kls = np.empty((times.size, n_inits))
        j = 0
        for block_times, states, block_kls in integrate_blocks(
                "Lq", chart, q, inits, t_chart, dt=dt_chart,
                sample_every=sample_every):
            m = j + block_times.size
            kls[j:m] = block_kls
            if chart == "natural_eta":  # no block's deviations are kept
                dev_max = _natural_error(block_times, states, offset,
                                         eta_q_rows).max()
                natural_exact_err = np.maximum(natural_exact_err, dev_max)
            j = m
        # rates and R^2 per init; then the chart's KLs and last block go,
        # before the next chart allocates its own
        fits.append(fit_rates(times, kls))
        kls = states = block_kls = None
    natural_exact_err = float(natural_exact_err)

    # rates and R^2 per chart (eta, natural_eta, theta) of the fitted inits
    fitted = np.all([f[4] == "" for f in fits], axis=0)
    rates = np.array([f[0][fitted] for f in fits])
    r2 = np.array([f[2][fitted] for f in fits])
    r_eta, r_ng, r_theta = rates
    ok_order = fitted.any() and np.all((r_theta < 2.0) & (2.0 < r_eta))
    ok_band = fitted.any() and np.all((NG_BAND[0] <= r_ng)
                                      & (r_ng <= NG_BAND[1]))
    ok_r2 = fitted.any() and np.all(r2 >= R2_MIN)
    rows = list(zip(np.flatnonzero(fitted).tolist(), *rates.tolist(),
                    *r2.tolist()))

    summary = {
        "experiment": "sandwich",
        "config": {"n": n, "n_inits": n_inits, "seed": seed, "t_end": t_end,
                   "dt": dt, "sample_every": sample_every, "r2_min": R2_MIN,
                   "ng_band": list(NG_BAND), "kl_cap": SANDWICH_KL_CAP},
        "horizons": {c: float(t) for c, (t, _) in grids.items()},
        "excluded_inits": np.flatnonzero(~fitted).tolist(),
        "seed": seed,
        "target": q.probs.tolist(),
        "assertions": {
            "ordering_theta_lt_2_lt_eta": bool(ok_order),
            "natural_rate_in_band": bool(ok_band),
            "r_squared_min": bool(ok_r2),
            "natural_matches_exact_1e-8": bool(natural_exact_err < 1e-8),
        },
        "natural_exact_max_err": natural_exact_err,
        "rows": [list(r) for r in rows],
    }
    _emit(out_dir, f"sandwich_n{n}", summary,
          ["init_id", "rate_eta", "rate_ng", "rate_theta",
           "r2_eta", "r2_ng", "r2_theta"], rows)
    summary["_target"] = q
    summary["_inits"] = inits
    summary["_grids"] = grids
    return summary


def _natural_error(times, states, offset, eta_q_rows):
    """|eta_q + exp(-t) (eta_0 - eta_q) - state|, the natural flow of L_q
    against its closed form, at (m,) times and (m, B, n) states, as (m, B*n)
    rows: offset is the B rows eta_0 - eta_q, eta_q_rows eta_q B times."""
    dev = np.exp(-times)[:, None] * offset
    dev += eta_q_rows
    dev -= states.reshape(times.size, -1)
    return np.abs(dev, out=dev)


def affine_rate_experiment(c_values: Sequence[float], q: SimplexPoint,
                           p0: SimplexPoint, dt: float = DT,
                           out_dir: Optional[str] = None) -> dict:
    """Fitted rates in conditioning-equalized affine charts vs 2c and 2/c.

    The claim is local, so p0 is pulled toward q until kl(q||p0) <= 0.05
    before integrating.
    """
    if not len(c_values):
        raise ValueError("c_values is empty: no chart to check")
    for c in c_values:
        if not 0 < c < np.inf:
            raise ValueError(f"every c must be finite and positive, got {c}")
    check_settings(dt, SAMPLE_EVERY)
    p_near = draw_near(q, p0)
    hq_eta = curvature("eta", q)
    hq_theta = curvature("theta", q)

    rows, ok_rates, hess_dev = [], True, 0.0
    for c in c_values:
        chart = make_identity_chart(to_theta(q), c)
        for base, h, identity in (("eta", hq_eta, c * np.eye(q.n)),
                                  ("theta", hq_theta, np.eye(q.n) / c)):
            m = chart.base_map(base)[0]
            hess_dev = max(hess_dev,
                           float(np.abs(m @ h @ m.T - identity).max()))
        kl0 = kl(q, p_near)
        fits = []
        for chart_kind, expected in (("affine_eta", 2.0 * c),
                                     ("affine_theta", 2.0 / c)):
            try:
                t_end, dt_chart = _horizon(kl0, expected, dt)
                fit = fit_rate(integrate(
                    FlowSpec("Lq", chart_kind, q, p_near, chart), t_end,
                    dt=dt_chart))
            except InsufficientDecay as exc:
                raise InsufficientDecay(f"c = {c:g}, {chart_kind}: {exc}") from exc
            fits.append((fit.slope, fit.r_squared))
            ok_rates &= abs(fit.slope - expected) <= AFFINE_RTOL * expected
        (r_eta, r2_eta), (r_theta, r2_theta) = fits
        rows.append((c, r_eta, 2.0 * c, r_theta, 2.0 / c, r2_eta, r2_theta))

    summary = {
        "experiment": "affine",
        "config": {"c_values": list(map(float, c_values)), "dt": dt,
                   "sample_every": SAMPLE_EVERY, "rtol": AFFINE_RTOL},
        "target": q.probs.tolist(),
        "init": p_near.probs.tolist(),
        "assertions": {
            "rates_within_rtol": bool(ok_rates),
            "hessians_identity_1e-10": bool(hess_dev < 1e-10),
        },
        "hessian_identity_max_dev": hess_dev,
        "rows": [list(r) for r in rows],
    }
    _emit(out_dir, "affine", summary,
          ["c", "rate_eta_bar", "expected_eta_bar", "rate_theta_bar",
           "expected_theta_bar", "r2_eta_bar", "r2_theta_bar"], rows)
    return summary


# --- learning-rate sweeps ---------------------------------------------------


def draw_dataset(rng, q: SimplexPoint, n_samples: int):
    """Counts of n_samples i.i.d. draws from q and the empirical target
    q_hat = counts / counts.sum(), which is interior only when every
    outcome was seen: a dataset that missed one raises ZeroCount."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    counts = rng.multinomial(n_samples, q.probs)
    if np.any(counts == 0):
        raise ZeroCount("dataset missed an outcome; increase n_samples")
    return counts, counts / counts.sum()


def _batch_convergence_times(method, mode, counts, init_probs, lrs, idxs,
                             tolerance, max_iters, minibatch, decay_a, seed):
    """Worst convergence iteration (to the empirical target) over the
    initializations, per learning rate: shape (G,), for the G rates lrs at
    grid indices idxs.

    All rates step in one descend_rows batch of the B inits tiled G times,
    a rate's B rows forming a group: a rate with a row that leaves the
    domain is finished at max_iters, the worst time there is.  In sgd mode
    the rate at grid index idx draws its minibatch targets from its own
    generator [seed, 91, idx], B per iteration while any of its rows lives.
    """
    b = init_probs.shape[0]
    draw = None
    if mode == "sgd":
        rngs = [make_rng([seed, 91, idx]) for idx in idxs]

        def draw(rows):
            live, first = np.unique(rows // b, return_index=True)
            return np.concatenate([
                rngs[r].multivariate_hypergeometric(
                    counts, minibatch, size=b)[i, :-1] / minibatch
                for r, i in zip(live, np.split(rows % b, first[1:]))])
    times = np.full(len(lrs) * b, max_iters, dtype=np.int64)
    for k, rows, _, gaps in descend_rows(
            method, np.tile(state_rows(method, init_probs), (len(lrs), 1)),
            np.repeat(lrs, b), counts / counts.sum(), tolerance, max_iters,
            decay_a if mode == "sgd" else None, draw, b):
        times[rows[gaps <= tolerance]] = k
    return times.reshape(len(lrs), b).max(axis=1)


def lr_sweep(method: str, lr_grid: Sequence[float], n_inits: int,
             tolerance: float, seed: int, mode: str = "full_batch",
             n: int = 10, n_samples: int = 100000, minibatch: int = 1000,
             decay_a: float = 1000.0, max_iters: int = 100,
             out_dir: Optional[str] = None) -> dict:
    """Worst-case convergence time to the empirical target per learning rate.

    One dataset (draw_dataset) and one pool of initializations are drawn
    from the seed and shared across the whole grid (and across methods
    given the same seed), so times are comparable.  A rate's time saturates
    at max_iters when any init fails to converge; a rate with an init that
    leaves the domain is finished at max_iters then and there, and stops
    stepping and drawing.  The grid is split into worker_count() interleaved
    shares (rates w, w + workers, ...), each stepped as one batch; the
    result does not depend on the number of workers.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if mode not in ("full_batch", "sgd"):
        raise ValueError(f"unknown mode {mode!r}")
    lr_grid = [float(x) for x in lr_grid]
    if not lr_grid or not all(math.isfinite(x) and x > 0 for x in lr_grid):
        raise ValueError("lr_grid must be nonempty, finite and positive")
    if n_inits < 1:
        raise ValueError(f"n_inits must be at least 1, got {n_inits}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
    if not 1 <= minibatch <= n_samples:
        raise ValueError(f"minibatch must be in 1..n_samples ({n_samples}), "
                         f"got {minibatch}")
    if not (math.isfinite(decay_a) and decay_a > 0):
        raise ValueError(f"decay_a must be finite and positive, got {decay_a}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    rng = make_rng(seed)
    q = draw_instance(rng, n)
    counts, _ = draw_dataset(rng, q, n_samples)
    inits = random_simplex_batch(rng, n, n_inits)
    workers = min(worker_count(), len(lr_grid))
    shares = [range(w, len(lr_grid), workers) for w in range(workers)]

    def worst_times(share):
        return _batch_convergence_times(
            method, mode, counts, inits, [lr_grid[i] for i in share], share,
            tolerance, max_iters, minibatch, decay_a, seed)

    times = np.empty(len(lr_grid), dtype=np.int64)
    for share, worst in zip(shares, parallel_map(worst_times, shares)):
        times[share] = worst
    times = times.tolist()
    rows = list(zip(lr_grid, times))
    best = min(times)
    argmin_lrs = [lr for lr, t in rows if t == best]
    summary = {
        "experiment": "sweep",
        "config": {"method": method, "mode": mode, "n": n, "seed": seed,
                   "n_inits": n_inits, "tolerance": tolerance,
                   "n_samples": n_samples, "minibatch": minibatch,
                   "decay_a": decay_a, "max_iters": max_iters,
                   "grid_size": len(lr_grid)},
        "target": q.probs.tolist(),
        "argmin_time": int(best),
        "argmin_lrs": argmin_lrs,
        "rows": [[lr, t] for lr, t in rows],
    }
    _emit(out_dir, f"sweep_{method}_{mode}", summary,
          ["learning_rate", "convergence_time"], rows)
    return summary


def empirical_sandwich(n: int, seed: int, alpha: Optional[float] = None,
                       n_samples: int = 100000, max_iters: int = 100,
                       out_dir: Optional[str] = None) -> dict:
    """Full-batch descent at one small shared step size, all three methods.

    With a tiny common alpha the discrete iterates track the continuous
    flows, so the per-iteration KL to the true q must interleave as
    eta <= natural <= theta from early on; the curves plateau at
    D(q || q_hat), not at zero.
    """
    if alpha is None:
        alpha = 0.01 if n == 2 else 0.001
    rng = make_rng(seed)
    q = random_simplex_point(rng, n)
    q_hat = SimplexPoint(draw_dataset(rng, q, n_samples)[1])
    p0 = random_simplex_point(rng, n)
    curves = {}
    for method in ("gd_eta", "ngd", "gd_theta"):
        spec = DescentSpec(method, "nonlinear", q_hat, p0, alpha,
                           max_iters=max_iters)
        traj = run_empirical(spec, q)
        curves[method] = traj.kl_values
    ks = np.arange(max_iters + 1)
    slack = 1e-12
    tail = slice(ORDERING_FROM, None)
    ordered = bool(
        np.all(curves["gd_eta"][tail] <= curves["ngd"][tail] + slack)
        and np.all(curves["ngd"][tail] <= curves["gd_theta"][tail] + slack))
    plateau = kl(q, q_hat)
    rows = list(zip(ks, curves["gd_eta"], curves["ngd"], curves["gd_theta"]))
    summary = {
        "experiment": "empirical_sandwich",
        "config": {"n": n, "seed": seed, "alpha": alpha,
                   "n_samples": n_samples, "max_iters": max_iters,
                   "ordering_from": ORDERING_FROM},
        "target": q.probs.tolist(),
        "plateau_kl_q_qhat": plateau,
        "assertions": {
            f"ordering_eta_le_ng_le_theta_from_k{ORDERING_FROM}": ordered,
        },
        "rows": [list(map(float, r)) for r in rows],
    }
    _emit(out_dir, f"empirical_sandwich_n{n}", summary,
          ["k", "kl_eta", "kl_ng", "kl_theta"], rows)
    return summary


# --- noise robustness -------------------------------------------------------


def robustness_experiment(kind: str, q: SimplexPoint, seeds: Sequence[int],
                          out_dir: Optional[str] = None) -> dict:
    """Noise studies around the optimum of L_q at q, on the linearized
    error dynamics.

    multiplicative: natural-gradient descent at step 1 contracts under any
    per-step perturbation of spectral norm 0.9, while a rank-one
    perturbation of norm only 1/kappa makes optimally tuned plain gradient
    descent oscillate forever (closed-loop eigenvalue at -1).

    additive: the stationary covariance of the error matches the discrete
    Lyapunov solution (and its top eigenvalue the closed form
    (kappa+1)^2 / (4 kappa)); for natural-gradient descent it is exactly
    the identity.  The Monte Carlo side runs one chain per method in M's
    eigenbasis, in blocks and streamed chunks (`_mc_covariance`).  A gd
    chain's slowest mode, mu = (kappa-1)/(kappa+1), stays correlated for
    about kappa steps, so over N steps its variance has a relative standard
    error of about sqrt(kappa/N) (Bartlett; Priestley, Spectral Analysis
    and Time Series, 5.3): N = max(100,000, 3600 kappa) steps make the 5%
    check at least a 3-sigma bound, after a burn-in of
    max(1,000, 2.5 (kappa+1)) steps that leaves mu^(2 burn_in) < e^-10 of
    the zero start.  The ngd chain is white noise and keeps 100,000 steps.
    """
    if kind not in ("multiplicative", "additive"):
        raise ValueError(f"unknown kind {kind!r}")
    if not len(seeds):
        raise ValueError("seeds is empty: no noise draw to check")
    if kind == "multiplicative":
        summary = _robustness_multiplicative(q, seeds)
    else:
        summary = _robustness_additive(q, seeds)
    summary["target"] = q.probs.tolist()
    summary["config"] = {"kind": kind, "n": q.n, "seeds": list(map(int, seeds))}
    _emit(out_dir, f"robustness_{kind}", summary)
    return summary


def _robustness_multiplicative(q, seeds):
    """ngd at step 1 under random perturbations of spectral norm
    PERTURB_NORM.  Per seed the noise is drawn once: the start e, then all
    PERTURB_STEPS matrices in one `normal_rows` call (the same stream as
    one `normal_matrix` per step)."""
    n = q.n
    final_norms, envelope_ok = [], True
    for seed in seeds:
        rng = make_rng(seed)
        e = normal_vector(rng, n)
        e = e / np.linalg.norm(e)
        e0_norm = 1.0
        ms = normal_rows(rng, PERTURB_STEPS, n * n).reshape(-1, n, n)
        s_norms = np.linalg.norm(ms, 2, axis=(1, 2))
        deltas = PERTURB_NORM * ms / s_norms[:, None, None]
        for k, delta in enumerate(deltas):
            # ngd, alpha = 1: e(k+1) = e - (I + Delta) e = -Delta e; the
            # norm is np.linalg.norm's own sqrt(e . e)
            e = -(delta @ e)
            envelope_ok &= (math.sqrt(e @ e)
                            <= PERTURB_NORM ** (k + 1) * e0_norm + 1e-12)
        final_norms.append(float(np.linalg.norm(e)))
    ngd_ok = all(fn < 1e-8 for fn in final_norms)

    gd_results = {}
    for name in ("gd_eta", "gd_theta"):
        mat = curvature(METHOD_CHARTS[name], q)
        dec = eigh(mat)
        delta = destabilizing_delta(dec).entries
        alpha = optimal_lr(dec, "optimal")
        m_mat = closed_loop(mat, alpha, delta)
        eigvals = np.linalg.eigvals(m_mat)
        dist = float(np.abs(eigvals + 1.0).min())
        # error direction of the -1 eigenvalue = null vector of M + I
        _u, _s, vt = np.linalg.svd(m_mat + np.eye(n))
        e = vt[-1]
        min_norm = 1.0
        for _ in range(1000):
            e = m_mat @ e
            min_norm = min(min_norm, float(np.linalg.norm(e)))
        gd_results[name] = {
            "delta_norm": float(np.linalg.norm(delta, 2)),
            "eig_dist_to_minus_1": dist,
            "min_error_norm_1e3_steps": min_norm,
            "non_convergent": bool(min_norm >= 0.5),
        }
    return {
        "experiment": "robustness_multiplicative",
        "assertions": {
            "ngd_converges_all_seeds": bool(ngd_ok),
            "ngd_envelope_0.9^k": bool(envelope_ok),
            "gd_eta_destabilized": gd_results["gd_eta"]["non_convergent"],
            "gd_theta_destabilized": gd_results["gd_theta"]["non_convergent"],
            "closed_loop_eig_at_minus_1":
                bool(max(r["eig_dist_to_minus_1"]
                         for r in gd_results.values()) < 1e-10),
        },
        "ngd_final_norms": final_norms,
        "gd": gd_results,
    }


def _mc_covariance(mu, vectors, seed, burn_in=1000, steps=100000):
    """Sample covariance of e(k+1) = M e(k) + w(k), w ~ N(0, I), e(0) = 0,
    over the `steps` states after `burn_in`, for a symmetric
    M = U diag(mu) U^T given by its eigenvalues `mu` and eigenvectors
    `vectors` = U.

    In M's eigenbasis, z = e U, each mode is an independent scalar AR(1),
    z_m(k+1) = mu_m z_m(k) + (w U)_m(k).  The modes advance MC_BLOCK steps
    at a time: one batched matmul with the lower-triangular powers
    T[m, j, i] = mu_m^(j-i) gives every block's states from a zero start,
    and the state entering a block adds mu^(j+1) times itself at step j.
    The noise is drawn MC_CHUNK steps at a time by `normal_rows`, the same
    stream as one call for the whole chain (or one `normal_vector` per
    step), and z^T z is summed chunk by chunk, so the chain is never held
    whole; the result is U (z^T z / steps) U^T.  It matches the
    step-by-step recurrence up to roundoff (within 1e-12 of max |P|); with
    mu = 0 and U = I it is the noise's own w^T w / steps.
    """
    mu = np.asarray(mu, dtype=float)
    n = mu.size
    j = np.arange(MC_BLOCK)
    lag = j[None, :] - j[:, None]  # lag[i, j] = j - i
    # powers[m, i, j] = mu_m^(j - i) for j >= i: block noise @ powers = states
    powers = np.where(lag >= 0, mu[:, None, None] ** np.maximum(lag, 0), 0.0)
    rise = mu[:, None] ** (j + 1)
    gain = rise[:, -1]
    rng = make_rng(seed)
    total = burn_in + steps
    state = np.zeros(n)
    acc = np.zeros((n, n))
    for start in range(0, total, MC_CHUNK):
        count = min(MC_CHUNK, total - start)
        blocks = -(-count // MC_BLOCK)
        w = np.zeros((n, blocks * MC_BLOCK))
        w[:, :count] = (normal_rows(rng, count, n) @ vectors).T
        y = w.reshape(n, blocks, MC_BLOCK) @ powers
        enter = np.empty((n, blocks))
        for b in range(blocks):
            enter[:, b] = state
            state = gain * state + y[:, b, -1]
        z = (y + rise[:, None, :] * enter[:, :, None]).reshape(n, -1)
        state = z[:, count - 1]  # a partial last block ran on zero padding
        z = np.ascontiguousarray(z[:, max(burn_in - start, 0):count].T)
        acc += z.T @ z
    cov = vectors @ (acc / steps) @ vectors.T
    return 0.5 * (cov + cov.T)


def _robustness_additive(q, seeds):
    n = q.n
    seed0 = int(seeds[0])
    report = {}
    ok_resid = ok_analytic = ok_mc = True
    for sub, name in enumerate(("gd_eta", "gd_theta")):
        mat = curvature(METHOD_CHARTS[name], q)
        dec = eigh(mat)
        alpha = optimal_lr(dec, "optimal")
        kappa = cond(dec)
        p_stat = solve_lyapunov(dec, alpha).entries
        m_mat = closed_loop(mat, alpha)
        resid = float(np.abs(m_mat @ p_stat @ m_mat + np.eye(n) - p_stat).max())
        lam_max = float(eigh(p_stat).values[-1])
        closed_form = (kappa + 1.0) ** 2 / (4.0 * kappa)
        # chain length by kappa: see robustness_experiment
        steps = max(100_000, math.ceil(3600.0 * kappa))
        burn_in = max(1000, math.ceil(2.5 * (kappa + 1.0)))
        mc = _mc_covariance(1.0 - alpha * dec.values, dec.vectors,
                            [seed0, 17, sub], burn_in, steps)
        entry_dev = float(np.abs(mc - p_stat).max())
        mc_lam = float(eigh(mc).values[-1])
        ok_resid &= resid < 1e-10
        ok_analytic &= abs(lam_max - closed_form) < 1e-8
        ok_mc &= entry_dev <= 0.05 * lam_max and abs(mc_lam - lam_max) <= 0.05 * lam_max
        report[name] = {
            "alpha": alpha, "kappa": kappa,
            "lyapunov_residual": resid,
            "lambda_max": lam_max, "closed_form": closed_form,
            "mc_entry_dev": entry_dev, "mc_lambda_max": mc_lam,
        }
    # ngd at alpha = 1: errors are exactly the i.i.d. noise, covariance I
    mc_ngd = _mc_covariance(np.zeros(n), np.eye(n), [seed0, 17, 999])
    ngd_dev = float(np.abs(mc_ngd - np.eye(n)).max())
    report["ngd"] = {"mc_entry_dev": ngd_dev}
    return {
        "experiment": "robustness_additive",
        "assertions": {
            "lyapunov_residual_1e-10": bool(ok_resid),
            "lambda_max_closed_form_1e-8": bool(ok_analytic),
            "mc_matches_lyapunov_5pct": bool(ok_mc),
            "ngd_covariance_identity_3pct": bool(ngd_dev < 0.03),
        },
        "per_method": report,
    }


# --- nonconvexity witness ---------------------------------------------------


def nonconvexity_witness(p: SimplexPoint, search_seed: int,
                         budget: int = 10000, box: float = 8.0,
                         loss: str = "Lstar") -> dict:
    """Random search for a midpoint-convexity violation in theta.

    Draws pairs theta_a, theta_b uniformly from [-box, box]^n and accepts
    when the loss at the midpoint exceeds the max of the endpoint losses
    by more than 1e-9 max(1, |level|) (so both endpoints sit in a sublevel
    set the midpoint leaves).  For loss="Lstar" (KL with the moving point
    as first argument) a witness exists for asymmetric p; for loss="Lq"
    convexity guarantees none.

    The probes are drawn in blocks of WITNESS_BLOCK with one
    rng.random((k, 2, n)) call each, the same Philox stream as one (2, n)
    draw per probe, so memory stays bounded at any budget.  A block's 3k
    points take one softmax_rows and one loss_rows call, so the L* values
    are loss_Lstar_theta's bit for bit.  (L_q's gemv rounds by row count,
    but by convexity its margin is at most -1e-9 max(1, |level|).)  The
    first probe, in order and skipping degenerate pairs, that is a witness
    or holds a probability below MIN_PROB decides: the witness is returned,
    or the point's ValueError is raised again naming the probe and point,
    as a probe-by-probe loop would.
    """
    if loss not in ("Lstar", "Lq"):
        raise ValueError(f"unknown loss {loss!r}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if not (np.isfinite(box) and box > 0):
        raise ValueError(f"box must be finite and positive, got {box}")
    rng = make_rng(search_seed)
    n = p.n
    names = ("theta_a", "theta_b", "theta_mid")
    for start in range(0, budget, WITNESS_BLOCK):
        k = min(WITNESS_BLOCK, budget - start)
        pairs = (2.0 * rng.random((k, 2, n)) - 1.0) * box
        points = np.concatenate([pairs, 0.5 * (pairs[:, :1] + pairs[:, 1:])],
                                axis=1)
        probs = softmax_rows(points.reshape(-1, n))
        bad = ~(row_min(probs) >= MIN_PROB).reshape(k, 3)
        # an underflowed row gives log 0 and NaN values; bad decides it
        with np.errstate(divide="ignore", invalid="ignore"):
            f_a, f_b, f_mid = loss_rows(loss, p.probs, probs).reshape(k, 3).T
            level = np.maximum(f_a, f_b)
            hit = f_mid > level + 1e-9 * np.maximum(1.0, np.abs(level))
        for i in np.flatnonzero(bad.any(axis=1) | hit):
            if np.linalg.norm(pairs[i, 0] - pairs[i, 1]) < 1e-6:
                continue  # degenerate pair carries no information
            probe = start + int(i) + 1
            # a point the loss cannot represent raises as in loss_*_theta
            for name, th in zip(names, points[i]):
                try:
                    simplex_from_theta(ThetaCoord(th))
                except ValueError as exc:
                    raise ValueError(f"probe {probe}: {name}: {exc}") from exc
            return {"theta_a": points[i, 0], "theta_b": points[i, 1],
                    "theta_mid": points[i, 2],
                    "values": {"f_a": float(f_a[i]), "f_b": float(f_b[i]),
                               "f_mid": float(f_mid[i]),
                               "level": float(level[i])},
                    "probes": probe}
    raise WitnessNotFound(f"no midpoint violation in {budget} probes")


# --- local sections ---------------------------------------------------------


def local_sections(q: SimplexPoint, n_directions: int, s_grid: Sequence[float],
                   seed: int = 0, out_dir: Optional[str] = None) -> dict:
    """One-dimensional slices of L_q through the optimum in both charts.

    For each unit direction v the table holds L_q(eta_q + s v),
    L_q(theta_q + s v) and the reference s^2/2.  Because the curvature is
    above identity in the mixture chart and below identity in the
    exponential chart, for small |s| (up to SECTION_S) the eta-sections
    dominate the reference and the theta-sections stay below it, within a
    relative SECTION_TOL.  Grid points that push eta out of the simplex
    are truncated (reported as NaN); a theta point whose softmax underflows
    raises its ValueError naming the direction and s.  With no direction,
    or no grid point with 0 < |s| <= SECTION_S, nothing would be checked:
    ValueError.
    """
    s_grid = np.asarray(sorted(float(s) for s in s_grid))
    if n_directions < 1:
        raise ValueError(f"n_directions must be at least 1, got {n_directions}")
    if not np.any((s_grid != 0.0) & (np.abs(s_grid) <= SECTION_S)):
        raise ValueError(f"s_grid has no point with 0 < |s| <= {SECTION_S}: "
                         "no section is checked")
    n = q.n
    if n == 2:
        ang = 2.0 * np.pi * np.arange(n_directions) / n_directions
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        rng = make_rng(seed)
        dirs = normal_matrix(rng, n_directions, n)
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    eta_q = q.probs[:-1]
    theta_q = to_theta(q).theta
    rows = []
    ok_eta = ok_theta = True
    for i, v in enumerate(dirs):
        steps = s_grid[:, None] * v
        eta = eta_q + steps
        for s, inside, p_eta, theta in zip(s_grid, valid_rows("eta", eta),
                                           probs_rows("eta", eta),
                                           theta_q + steps):
            ref = 0.5 * s * s
            sec_eta = kl(q, SimplexPoint(p_eta)) if inside else float("nan")
            try:
                sec_theta = kl(q, simplex_from_theta(ThetaCoord(theta)))
            except ValueError as exc:
                raise ValueError(f"direction {i}, s = {s:.9g}: {exc}") from exc
            if 0 < abs(s) <= SECTION_S:
                if np.isfinite(sec_eta):
                    ok_eta &= sec_eta >= ref * (1.0 - SECTION_TOL)
                ok_theta &= sec_theta <= ref * (1.0 + SECTION_TOL)
            rows.append((i, float(s), sec_eta, sec_theta, ref))
    summary = {
        "experiment": "sections",
        "config": {"n": n, "n_directions": n_directions,
                   "s_grid": s_grid.tolist(), "seed": seed,
                   "small_s": SECTION_S, "tol": SECTION_TOL},
        "target": q.probs.tolist(),
        "assertions": {
            "eta_sections_above_reference": bool(ok_eta),
            "theta_sections_below_reference": bool(ok_theta),
        },
        "rows": [list(r) for r in rows],
    }
    _emit(out_dir, "sections", summary,
          ["direction_id", "s", "eta_section", "theta_section", "reference"],
          rows)
    return summary
