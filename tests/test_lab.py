import json
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplex_flows import descent, geometry, lab, spectral
from simplex_flows import rng as rng_module
from simplex_flows.coords import (SimplexPoint, ThetaCoord,
                                  simplex_rows_ok, to_eta, to_theta)
from simplex_flows.descent import (DescentSpec, probs_rows, run, state_rows,
                                   step_rows, valid_rows)
from simplex_flows.errors import (BoundaryEscape, ExperimentFailure,
                                  InsufficientDecay, NonFinite,
                                  WitnessNotFound, ZeroCount)
from simplex_flows.flows import (FlowSpec, Trajectory, integrate,
                                 integrate_batch, sample_times)
from simplex_flows.geometry import (hess_phi, kl, kl_rows, loss_Lq_theta,
                                    loss_Lstar_theta, make_identity_chart)
from simplex_flows.rng import (make_rng, normal_matrix, normal_vector,
                               random_simplex_batch, random_simplex_point)
from simplex_flows.spectral import eigh


def test_fmt9():
    assert lab.fmt9(True) == "true"
    assert lab.fmt9(3) == "3"
    assert lab.fmt9(1.0 / 3.0) == "0.333333333"
    assert lab.fmt9(1.23456789012e-7) == "1.23456789e-07"


def test_write_csv_and_json_are_deterministic(tmp_path):
    rows = [(1, 0.1234567891234, 2.0), (2, 5e-9, 1.0 / 7.0)]
    summary = {"b": [0.12345678912, True], "a": {"x": 3}}
    for tag in ("one", "two"):
        lab._emit(tmp_path / tag, "out", dict(summary, rows=rows, _private=1),
                  ["i", "x", "y"], rows)
    for ext in ("csv", "json"):
        assert ((tmp_path / "one" / f"out.{ext}").read_bytes()
                == (tmp_path / "two" / f"out.{ext}").read_bytes())
    assert (tmp_path / "one" / "out.csv").read_text() == (
        "i,x,y\n1,0.123456789,2\n2,5e-09,0.142857143\n")
    loaded = json.loads((tmp_path / "one" / "out.json").read_text())
    assert loaded == {"a": {"x": 3}, "b": [0.123456789, True]}


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SIMPLEX_FLOWS_THREADS", "3")
    assert lab.worker_count() == 3
    monkeypatch.setenv("SIMPLEX_FLOWS_THREADS", "0")
    assert lab.worker_count() >= 1
    monkeypatch.setenv("SIMPLEX_FLOWS_THREADS", "zebra")
    with pytest.raises(ValueError):
        lab.worker_count()
    monkeypatch.setenv("SIMPLEX_FLOWS_THREADS", "-1")
    with pytest.raises(ValueError):
        lab.worker_count()


def test_parallel_map_preserves_order(monkeypatch):
    monkeypatch.setenv("SIMPLEX_FLOWS_THREADS", "4")
    out = lab.parallel_map(lambda x: x * x, range(20))
    assert out == [x * x for x in range(20)]


def test_parallel_map_runs_first_item_in_calling_thread(monkeypatch):
    monkeypatch.setenv("SIMPLEX_FLOWS_THREADS", "3")
    threads = lab.parallel_map(lambda _: threading.get_ident(), range(3))
    assert threads[0] == threading.get_ident()
    assert threading.get_ident() not in threads[1:]
    with pytest.raises(ZeroDivisionError):
        lab.parallel_map(lambda x: 1 // x, [1, 0, 2])
    with pytest.raises(ZeroDivisionError):
        lab.parallel_map(lambda x: 1 // x, [0, 1, 2])


def _synthetic_traj(rate, t_end=5.0, k=500, kl0=1.0):
    t = np.linspace(0.0, t_end, k)
    kls = kl0 * np.exp(-rate * t)
    return Trajectory(t, t[:, None], kls)


def test_fit_rate_recovers_synthetic_slope():
    fit = lab.fit_rate(_synthetic_traj(2.0))
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared > 1.0 - 1e-12
    # the head of the trajectory is excluded by the tail window
    assert fit.window[0] > 0.0


def test_fit_rate_respects_floor():
    # samples below the floor carry no information and must be dropped
    traj = _synthetic_traj(10.0, t_end=20.0, k=2000)
    fit = lab.fit_rate(traj)
    assert fit.slope == pytest.approx(10.0, rel=1e-6)
    assert traj.kl_values[np.searchsorted(traj.times, fit.window[1])] > 1e-14


def test_fit_rate_insufficient_decay():
    t = np.linspace(0.0, 1.0, 50)
    flat = Trajectory(t, t[:, None], np.full(50, 0.5))
    with pytest.raises(InsufficientDecay):
        lab.fit_rate(flat)
    tiny = Trajectory(t[:5], t[:5, None], np.exp(-t[:5]) * 1e-20)
    with pytest.raises(InsufficientDecay):
        lab.fit_rate(tiny)


def _fit_reference(times, kls):
    """One column fitted by np.polyfit: (rate, intercept, r2, window), or
    the InsufficientDecay reason."""
    positive = np.isfinite(kls) & (kls > 0.0)
    if not positive.any():
        return "trajectory KL is identically zero"
    if kls[positive].min() > 0.9 * kls[positive][0]:
        return "KL never dropped below 0.9x its initial value"
    mask = positive & (kls > lab.KL_FLOOR)
    tt, vv = times[mask], np.log(kls[mask])
    if tt.size < 10:
        return "fewer than 10 samples above the KL floor"
    start = tt.size - int(np.ceil(lab.FIT_WINDOW * tt.size))
    tt, vv = tt[start:], vv[start:]
    slope, intercept = np.polyfit(tt, vv, 1)
    resid = vv - (slope * tt + intercept)
    ss_tot = ((vv - vv.mean()) ** 2).sum()
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - (resid ** 2).sum() / ss_tot
    return -slope, intercept, min(1.0, max(0.0, r2)), (tt[0], tt[-1])


def _decay_columns(seed=5, k=400):
    """Read-only KL columns on [0, 10]: every InsufficientDecay reason,
    NaN/inf/0/negative entries, a dip under the floor that comes back, and
    decays that leave the floor at many times (windows of many lengths)."""
    t = np.linspace(0.0, 10.0, k)
    rng = np.random.default_rng(seed)
    cols = [np.zeros(k), np.full(k, np.nan), -np.exp(-t),  # none positive
            np.full(k, 0.5), np.exp(0.1 * t),  # never below 0.9x the first
            np.exp(-125.0 * t), np.exp(-140.0 * t),  # 10 and 9 above floor
            np.exp(np.where(t < 6.0, -5.0 * t, -42.0 + 2.0 * t))]  # dip
    for rate in (0.3, 0.9, 2.0, 3.7, 7.0, 12.0, 30.0, 60.0):
        cols.append(np.exp(-rate * t + 0.05 * rng.standard_normal(k)))
        bad = np.exp(-rate * t)
        bad[rng.choice(k, 12, replace=False)] = [np.nan, np.inf, -np.inf, 0.0,
                                                 -1e-3, -np.exp(-rate)] * 2
        cols.append(bad)
    head = np.exp(-2.0 * t)
    head[:7] = np.nan  # the first positive sample comes late
    cols.append(head)
    kls = np.column_stack(cols)
    kls.setflags(write=False)
    return t, kls


def _assert_fits_match_reference(t, kls):
    """Every column as the reference fits it, and as a one-column call
    fits it, bit for bit; returns the reasons and window lengths seen."""
    fits = lab.fit_rates(t, kls)
    slope, intercept, r2, window, reason = fits
    reasons, lengths = set(), set()
    for j in range(kls.shape[1]):
        alone = lab.fit_rates(t, kls[:, j:j + 1])
        assert all(a[j:j + 1].tobytes() == b.tobytes()
                   for a, b in zip(fits, alone))
        want = _fit_reference(t, kls[:, j])
        if isinstance(want, str):
            assert reason[j] == want
            assert np.isnan([slope[j], intercept[j], r2[j], *window[j]]).all()
            reasons.add(want)
            continue
        assert reason[j] == ""
        # relative to the rate, or for a rate near 0 (a window across the
        # dip) to the rate that moves log KL by its intercept over [0, t_hi]
        scale = abs(want[0]) + abs(want[1]) / want[3][1]
        assert abs(slope[j] - want[0]) <= 1e-12 * scale
        assert abs(intercept[j] - want[1]) <= 1e-12 * scale * want[3][1]
        assert abs(r2[j] - want[2]) <= 1e-12
        assert tuple(window[j].tolist()) == want[3]
        lengths.add(int(np.count_nonzero((t >= want[3][0])
                                         & (t <= want[3][1]))))
    return reasons, lengths


def test_fit_rates_match_polyfit_per_column():
    t, kls = _decay_columns()
    assert kls.shape[1] > lab.FIT_BLOCK  # two blocks
    reasons, lengths = _assert_fits_match_reference(t, kls)
    assert reasons == set(lab.DECAY_REASONS)
    assert len(lengths) >= 8


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(12, 600))
def test_fit_rates_match_polyfit_per_column_property(seed, k):
    _assert_fits_match_reference(*_decay_columns(seed, k))


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        lab.RateFit(1.0, 0.0, 1.5, (0.0, 1.0))
    with pytest.raises(ValueError):
        lab.RateBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        lab.RateBounds(-1.0, 1.0)


def test_draw_near_caps_initial_kl():
    rng = make_rng(0)
    q = random_simplex_point(rng, 5)
    p0 = random_simplex_point(rng, 5)
    rows, kls = lab.draw_near_rows(q, p0.probs[None], kl_max=0.02)
    assert rows.shape == (1, 6) and kls.shape == (1,)
    assert kls[0] == kl(q, SimplexPoint(rows[0])) <= 0.02


def _draw_near_former(q, p0, kl_max):
    """draw_near as it was: one SimplexPoint per candidate."""
    d = p0.probs - q.probs
    s = 1.0
    for _ in range(200):
        cand = SimplexPoint(q.probs + s * d)
        if kl(q, cand) <= kl_max:
            return cand
        s *= 0.7
    raise ExperimentFailure("could not shrink p0 into the near-optimum regime")


def _draw_near_rows_former(q, p0_rows, kl_max):
    """The sandwich's inits as they were: draw_near row by row in order."""
    near = [_draw_near_former(q, SimplexPoint(row), kl_max) for row in p0_rows]
    return (np.array([p.probs for p in near]),
            np.array([kl(q, p) for p in near]))


def _near_outcome(f, *args):
    try:
        rows, kls = f(*args)
    except (ValueError, ExperimentFailure) as exc:
        return f"{type(exc).__name__}: {exc}"
    return rows.tobytes() + kls.tobytes()


def _low_start(q, p0):
    """p0 with its first entry below ulp(q_0): q + (p0 - q) rounds it to 0."""
    low = p0.probs.copy()
    low[0] = np.spacing(q.probs[0]) / 4.0
    low[1:] *= (1.0 - low[0]) / low[1:].sum()
    return SimplexPoint(low)


@pytest.mark.parametrize("n", [2, 10])
def test_draw_near_equals_the_former_candidate_loop(n):
    outcomes = set()
    for seed in range(20):
        rng = make_rng([32, seed])
        q, p0 = lab.draw_instance(rng, n), random_simplex_point(rng, n)
        low = _low_start(q, p0)
        batch = random_simplex_batch(rng, n, 8)
        for kl_max in (lab.SANDWICH_KL_CAP, lab.NEAR_OPT_KL, 1e-9, -1.0):
            # every start the former loop accepts or exhausts: the same bits
            for rows in (p0.probs[None], np.vstack([batch, p0.probs])):
                got = _near_outcome(lab.draw_near_rows, q, rows, kl_max)
                assert got == _near_outcome(_draw_near_rows_former, q, rows,
                                            kl_max)
                outcomes.add(type(got))
            # the former loop raised at the low start's first candidate; it
            # now shrinks past it to a probability vector within the cap
            assert _near_outcome(_draw_near_former, q, low, kl_max) == (
                "ValueError: probabilities must be strictly positive "
                "(min entry 0)")
            if kl_max < 0:
                with pytest.raises(ExperimentFailure):
                    lab.draw_near_rows(q, np.vstack([batch, low.probs]),
                                       kl_max)
                continue
            rows, kls = lab.draw_near_rows(q, np.vstack([batch, low.probs]),
                                           kl_max)
            assert simplex_rows_ok(rows[-1:]).all()
            assert kls[-1] == kl(q, SimplexPoint(rows[-1])) <= kl_max
            assert (rows[:-1].tobytes() + kls[:-1].tobytes()
                    == _near_outcome(_draw_near_rows_former, q, batch, kl_max))
    assert outcomes == {bytes, str}


@pytest.mark.parametrize("row3, row5", [
    ("zero", "far"), ("far", "zero"), ("low", "far"), ("far", "low"),
    ("zero", "low"), ("low", "zero")])
def test_draw_near_rows_raises_what_the_row_loop_raises_first(
        monkeypatch, row3, row5):
    # the inputs are checked first, then the rows shrink as one loop.
    # "zero": an input row with a 0 entry; "low": an entry below ulp(q_0),
    # so the first candidate has a 0 entry; "far": a row that never reaches
    # the cap, as each candidate at or above q_0 reads a KL of 1
    rng = make_rng(35)
    q = lab.draw_instance(rng, 3)
    rows = random_simplex_batch(rng, 3, 8)
    rows[:, 0] = q.probs[0] / 2.0  # the other rows start below q_0
    rows[:, 1:] *= (1.0 - rows[:, :1]) / rows[:, 1:].sum(axis=1,
                                                          keepdims=True)
    kinds = {"zero": [0.0, 0.5, 0.25, 0.25],
             "low": [np.spacing(q.probs[0]) / 4.0, 0.5, 0.25, 0.25],
             "far": [min(1.0, 2.0 * q.probs[0]), 0.5, 0.25, 0.25]}
    for i, kind in ((3, row3), (5, row5)):
        row = np.array(kinds[kind])
        row[1:] *= (1.0 - row[0]) / row[1:].sum()
        rows[i] = row
    real, calls = lab.kl_probs, []

    def capped(q_probs, p):
        calls.append(p)
        return 1.0 if p[0] >= q_probs[0] else real(q_probs, p)

    monkeypatch.setattr(lab, "kl_probs", capped)
    monkeypatch.setattr(geometry, "kl_probs", capped)  # the former's kl
    # a "zero" row raises its reason before any shrinking, wherever it
    # sits; else the "far" row is out of reach, and the "low" row shrinks
    want = ("ValueError: probabilities must be strictly positive "
            "(min entry 0)" if "zero" in (row3, row5) else
            "ExperimentFailure: could not shrink p0 into the near-optimum "
            "regime")
    assert _near_outcome(lab.draw_near_rows, q, rows, 0.1) == want
    assert bool(calls) == ("zero" not in (row3, row5))
    # without the "zero" and "far" rows every row reaches the cap: the
    # others as the former did, the "low" row past its zero candidate
    low = [i for i, kind in ((3, row3), (5, row5)) if kind == "low"]
    keep = [i for i in range(len(rows)) if i not in (3, 5) or i in low]
    got, kls = lab.draw_near_rows(q, rows[keep], 0.1)
    assert simplex_rows_ok(got).all() and np.all(kls <= 0.1)
    others = [k for k, i in enumerate(keep) if i not in low]
    assert (got[others].tobytes() + kls[others].tobytes() == _near_outcome(
        _draw_near_rows_former, q, np.delete(rows, [3, 5], axis=0), 0.1))


def test_natural_error_equals_the_former_3d_form():
    rng = make_rng(36)
    for n in (2, 10):
        m, b = 40, 100
        times = np.sort(rng.random(m)) * 5.0
        inits = random_simplex_batch(rng, n, b)
        eta_q = random_simplex_point(rng, n).probs[:-1]
        states = rng.random((m, b, n))
        offset = inits[None, :, :-1] - eta_q
        want = np.exp(-times)[:, None, None] * offset
        want += eta_q
        want -= states
        got = lab._natural_error(times, states,
                                 (inits[:, :-1] - eta_q).ravel(),
                                 np.tile(eta_q, b))
        assert got.shape == (m, b * n)
        assert got.tobytes() == np.abs(want).tobytes()


def test_draw_instance_is_balanced():
    rng = make_rng(1)
    for n in (2, 10):
        q = lab.draw_instance(rng, n)
        assert q.probs.min() >= 0.3 / (n + 1)


def test_draw_near_out_of_reach_is_an_experiment_failure():
    rng = make_rng(0)
    q = random_simplex_point(rng, 3)
    p0 = random_simplex_point(rng, 3)
    with pytest.raises(ExperimentFailure, match="could not shrink p0"):
        lab.draw_near_rows(q, p0.probs[None], kl_max=-1.0)


def test_unbalanced_draws_are_an_experiment_failure(lopsided_draws):
    with pytest.raises(ExperimentFailure, match="balanced target"):
        lab.draw_instance(make_rng(0), 2)


def _draw_instance_per_point(rng, n, balance=0.3):
    """draw_instance as one point per draw: the stream reference."""
    for _ in range(100000):
        q = random_simplex_point(rng, n)
        if q.probs.min() >= balance / (n + 1):
            return q
    raise ExperimentFailure("could not draw a balanced target; lower balance")


def _assert_same_draw_and_stream(n, seed, balance=lab.BALANCE):
    rng, ref = make_rng(seed), make_rng(seed)
    q = (lab.draw_instance(rng, n) if balance == lab.BALANCE else
         rng_module.first_simplex_point(rng, n, balance / (n + 1), 100000))
    assert np.array_equal(q.probs, _draw_instance_per_point(ref, n, balance).probs)
    assert np.array_equal(rng.random(9), ref.random(9))


@pytest.mark.parametrize("n", [2, 3, 10, 20])
@pytest.mark.parametrize("block", [1, 3, 1024])
def test_draw_instance_equals_per_point_draws(monkeypatch, n, block):
    monkeypatch.setattr(rng_module, "DRAW_BLOCK", block)
    for seed in range(8):
        _assert_same_draw_and_stream(n, seed)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       balance=st.floats(0.0, 0.5))
def test_draw_instance_equals_per_point_draws_property(n, seed, balance):
    _assert_same_draw_and_stream(n, seed, balance)


def test_draw_instance_at_n40_is_an_experiment_failure():
    # acceptance is about 0.7^40 per draw: the budget of 100,000 draws runs out
    with pytest.raises(ExperimentFailure, match="balanced target"):
        lab.draw_instance(make_rng(0), 40)


def test_rate_bounds_bracket_curvature_at_optimum(monkeypatch):
    rng = make_rng(2)
    q = lab.draw_instance(rng, 2)
    p0 = random_simplex_point(rng, 2)
    vals = eigh(hess_phi(to_eta(q))).values
    monkeypatch.setattr(lab, "BOUNDS_POOL", 2000)
    b = lab.rate_bounds("Lq_eta", q, p0)
    # the sublevel set contains the optimum, so the bracket must include
    # twice the extreme eigenvalues there
    assert b.m_lo <= 2.0 * vals[0] + 1e-9
    assert b.l_hi >= 2.0 * vals[-1] - 1e-9
    with pytest.raises(ValueError):
        lab.rate_bounds("nope", q, p0)


def test_affine_rate_experiment_needs_a_c():
    rng = make_rng(5)
    q, p0 = lab.draw_instance(rng, 2), random_simplex_point(rng, 2)
    with pytest.raises(ValueError, match="c_values is empty"):
        lab.affine_rate_experiment([], q, p0)


@pytest.mark.filterwarnings("error")
def test_affine_init_at_the_target_is_insufficient_decay():
    # no decay to fit from KL 0: the horizon rule says so before any log
    q = lab.draw_instance(make_rng(5), 2)
    with pytest.raises(InsufficientDecay, match=re.escape(
            "c = 1, affine_eta: initial KL 0 is not above 20x KL_FLOOR "
            "(2e-12)")):
        lab.affine_rate_experiment([1.0], q, q)


def _affine_fit_former(q, p0, c, base):
    """An affine fit as it was: draw_near, then integrate and fit_rate of
    one Trajectory: (rate, R^2), or the error text."""
    p_near = _draw_near_former(q, p0, lab.NEAR_OPT_KL)
    expected = 2.0 * c if base == "eta" else 2.0 / c
    try:
        t_end, dt = lab._horizon(kl(q, p_near), expected, lab.DT)
        fit = lab.fit_rate(integrate(
            FlowSpec("Lq", "affine_" + base, q, p_near,
                     make_identity_chart(to_theta(q), c)), t_end, dt=dt))
    except InsufficientDecay as exc:
        return f"c = {c:g}, affine_{base}: {exc}"
    return fit.slope, fit.r_squared


@pytest.mark.parametrize("n", [2, 10])
def test_affine_fits_equal_the_former_integrate_path(n):
    c_values = [0.5, 1.0, 2.0]
    for seed in range(5):
        rng = make_rng(seed)  # the affine command's draws
        q, p0 = random_simplex_point(rng, n), random_simplex_point(rng, n)
        want = [(_affine_fit_former(q, p0, c, "eta"),
                 _affine_fit_former(q, p0, c, "theta")) for c in c_values]
        try:
            rows = lab.affine_rate_experiment(c_values, q, p0)["rows"]
        except InsufficientDecay as exc:
            first = next(w for pair in want for w in pair
                         if isinstance(w, str))
            assert str(exc) == first
            continue
        got = [((r_eta, r2_eta), (r_theta, r2_theta))
               for _, r_eta, _, r_theta, _, r2_eta, r2_theta in rows]
        assert got == want


def test_affine_start_near_a_face_is_pulled_past_its_zero_candidate():
    # q = (0.1885, 0.3306, 0.4809), p0 = (6.9e-18, 0.2446, 0.7554): the
    # first candidate q + (p0 - q) rounds p0's first entry to 0
    rng = make_rng([32, 0])
    q = lab.draw_instance(rng, 2)
    p0 = _low_start(q, random_simplex_point(rng, 2))
    assert p0.probs[0] < np.spacing(q.probs[0])
    summary = lab.affine_rate_experiment([0.5, 1.0, 2.0], q, p0)
    assert all(summary["assertions"].values())
    init = SimplexPoint(summary["init"])
    assert kl(q, init) <= lab.NEAR_OPT_KL


def test_rate_bounds_reported_sides_stable_under_refinement(monkeypatch):
    # quadrupling the sample only nudges the sides each loss actually
    # reports (the lower bound for the eta chart, the upper for theta)
    rng = make_rng(3)
    q = lab.draw_instance(rng, 2)
    p0 = random_simplex_point(rng, 2)
    lo_c = lab.rate_bounds("Lq_eta", q, p0).m_lo
    hi_c = lab.rate_bounds("Lq_theta", q, p0).l_hi
    monkeypatch.setattr(lab, "BOUNDS_POOL", 4 * lab.BOUNDS_POOL)
    lo_f = lab.rate_bounds("Lq_eta", q, p0).m_lo
    assert abs(lo_f - lo_c) <= 0.02 * lo_c
    hi_f = lab.rate_bounds("Lq_theta", q, p0).l_hi
    assert abs(hi_f - hi_c) <= 0.02 * hi_c


def _one_shot_rate_bounds(loss, q, p0, seed, extra_probs=None):
    # the whole pool stacked and solved at once, filtered afterwards
    draws = random_simplex_batch(make_rng(seed), q.n, lab.BOUNDS_POOL)
    pool = np.vstack([q.probs[None, :], draws])
    lmin, lmax = lab._hessian_extremes(loss, q.probs, pool)
    keep = kl_rows(q.probs, pool) <= kl(q, p0) + 1e-15
    keep[0] = True
    m, big = float(lmin[keep].min()), float(lmax[keep].max())
    if extra_probs is not None:
        xmin, xmax = lab._hessian_extremes(loss, q.probs, extra_probs)
        m, big = min(m, float(xmin.min())), max(big, float(xmax.max()))
    return 2.0 * m, 2.0 * big


@pytest.mark.parametrize("pool", [500, 2500, 10000])
def test_streamed_rate_bounds_equal_the_one_shot_pool(monkeypatch, pool):
    # below one block, not a multiple of the block, and the default pool;
    # the extra rows span two blocks and lie near q, inside the sublevel set
    monkeypatch.setattr(lab, "BOUNDS_POOL", pool)
    for seed in range(10):
        rng = make_rng(seed)
        q = lab.draw_instance(rng, 10)
        p0 = random_simplex_point(rng, 10)
        extra = 0.9 * q.probs + 0.1 * random_simplex_batch(rng, 10, 1500)
        for loss in ("Lq_eta", "Lq_theta"):
            for rows in (None, extra):
                b = lab.rate_bounds(loss, q, p0, seed=seed, extra_probs=rows)
                assert (b.m_lo, b.l_hi) == _one_shot_rate_bounds(
                    loss, q, p0, seed, rows), (pool, seed, loss)


def test_rate_bounds_memory_does_not_grow_with_the_pool():
    # the one-shot pool of 10,001 rows peaked at 6.9 MiB
    rng = make_rng(0)
    q = lab.draw_instance(rng, 10)
    p0 = random_simplex_point(rng, 10)
    lab.rate_bounds("Lq_eta", q, p0)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        lab.rate_bounds("Lq_eta", q, p0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_witness_found_for_asymmetric_target_only():
    p = SimplexPoint(np.array([0.7, 0.2, 0.1]))
    w = lab.nonconvexity_witness(p, search_seed=0, budget=2000)
    assert w["values"]["f_mid"] > w["values"]["level"]
    with pytest.raises(WitnessNotFound):
        lab.nonconvexity_witness(p, search_seed=0, budget=500, loss="Lq")
    with pytest.raises(ValueError):
        lab.nonconvexity_witness(p, 0, loss="nope")


def _witness_loss(loss, p):
    return ((lambda th: loss_Lstar_theta(ThetaCoord(th), p)) if loss == "Lstar"
            else (lambda th: loss_Lq_theta(ThetaCoord(th), p)))


def _witness_per_probe(p, search_seed, budget, box, loss):
    """The witness search drawing and testing one probe at a time, as it
    was before the block scan; returns the witness or the exception."""
    f = _witness_loss(loss, p)
    rng = make_rng(search_seed)
    n = p.n
    for probe in range(1, budget + 1):
        pair = (2.0 * rng.random((2, n)) - 1.0) * box
        th_a, th_b = pair[0], pair[1]
        if np.linalg.norm(th_a - th_b) < 1e-6:
            continue  # degenerate pair carries no information
        th_mid = 0.5 * (th_a + th_b)
        try:
            level = max(f(th_a), f(th_b))
            f_mid = f(th_mid)
        except ValueError as exc:
            points = (("theta_a", th_a), ("theta_b", th_b),
                      ("theta_mid", th_mid))
            name = next(name for name, th in points
                        if isinstance(_outcome(lambda: f(th)), ValueError))
            return ValueError(f"probe {probe}: {name}: {exc}")
        if f_mid > level + 1e-9 * max(1.0, abs(level)):
            return {
                "theta_a": th_a, "theta_b": th_b, "theta_mid": th_mid,
                "values": {"f_a": f(th_a), "f_b": f(th_b), "f_mid": f_mid,
                           "level": level},
                "probes": probe,
            }
    return WitnessNotFound(f"no midpoint violation in {budget} probes")


def _outcome(call):
    try:
        return call()
    except (ValueError, WitnessNotFound) as exc:
        return exc


def _assert_same_witness(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        return
    assert got["probes"] == expected["probes"]
    for key in ("theta_a", "theta_b", "theta_mid"):
        assert np.array_equal(got[key], expected[key])
    assert got["values"] == expected["values"]


WITNESS_TARGETS = [SimplexPoint(np.array([0.7, 0.2, 0.1])),
                   random_simplex_point(make_rng(5), 10)]


@pytest.mark.parametrize("box", [0.5, 8.0, 30.0, 350.0, 800.0])
@pytest.mark.parametrize("budget", [1023, 1024, 1025, 2500])
@pytest.mark.parametrize("loss", ["Lstar", "Lq"])
@pytest.mark.parametrize("p", WITNESS_TARGETS, ids=["n2", "n10"])
def test_witness_scan_equals_per_probe_loop(p, loss, budget, box):
    # box 350 at n = 2 first underflows at probe 1068, past a block boundary
    got = _outcome(lambda: lab.nonconvexity_witness(p, 0, budget, box, loss))
    _assert_same_witness(got, _witness_per_probe(p, 0, budget, box, loss))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(1, 3000), st.floats(0.01, 1000.0),
       st.sampled_from(["Lstar", "Lq"]))
def test_witness_scan_equals_per_probe_loop_property(seed, budget, box, loss):
    p = WITNESS_TARGETS[0]
    got = _outcome(lambda: lab.nonconvexity_witness(p, seed, budget, box,
                                                    loss))
    _assert_same_witness(got, _witness_per_probe(p, seed, budget, box, loss))


def test_witness_scan_emits_no_runtime_warning():
    # at box 800 probabilities underflow to 0, and the block's losses take
    # their logs before the first probe raises
    for p in WITNESS_TARGETS:
        for loss in ("Lstar", "Lq"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(lambda: lab.nonconvexity_witness(
                    p, 0, 2000, 800.0, loss))
            assert isinstance(got, ValueError)
            assert str(got).startswith("probe 1: theta_")


def test_local_sections_ordering():
    rng = make_rng(4)
    for n in (2, 10):
        q = lab.draw_instance(rng, n)
        s = lab.local_sections(q, 6, np.linspace(-0.15, 0.15, 13), seed=0)
        assert all(s["assertions"].values())


def test_small_learning_rate_halving_doubles_time():
    # in the small-alpha regime the full-batch natural-gradient gap contracts
    # by (1 - alpha) per step, so halving alpha about doubles the time
    summary = lab.lr_sweep("ngd", [0.125, 0.25], n_inits=20, tolerance=1e-4,
                           seed=0, n=2, n_samples=20000, max_iters=400)
    times = dict(summary["rows"])
    ratio = times[0.125] / times[0.25]
    assert 1.7 <= ratio <= 2.3


def test_lr_sweep_validation(monkeypatch):
    with pytest.raises(ValueError):
        lab.lr_sweep("nope", [0.1], 5, 1e-4, 0)
    with pytest.raises(ValueError):
        lab.lr_sweep("ngd", [0.1], 5, 1e-4, 0, mode="nope")
    with pytest.raises(ValueError):
        lab.lr_sweep("ngd", [], 5, 1e-4, 0)
    with pytest.raises(ValueError):
        lab.lr_sweep("ngd", [-0.1], 5, 1e-4, 0)

    def no_draws(*_args):
        raise AssertionError("drew a target before validating the settings")

    # each bad setting is refused, by name, before any work starts
    monkeypatch.setattr(lab, "draw_instance", no_draws)
    nan, inf = float("nan"), float("inf")
    for setting, bad in [("lr_grid", [0.1, nan]), ("lr_grid", [0.1, inf]),
                         ("n_inits", 0), ("tolerance", nan),
                         ("tolerance", -1.0), ("tolerance", inf),
                         ("minibatch", 0), ("minibatch", 200000),
                         ("decay_a", 0.0), ("decay_a", -5.0),
                         ("decay_a", nan), ("max_iters", 0)]:
        args = {"method": "ngd", "lr_grid": [0.1], "n_inits": 5,
                "tolerance": 1e-4, "seed": 0, "mode": "sgd", setting: bad}
        with pytest.raises(ValueError, match=setting):
            lab.lr_sweep(**args)


@pytest.mark.parametrize("n_samples", [1000, 100000])
def test_draw_dataset_is_one_multinomial_draw(n_samples):
    q = SimplexPoint(np.array([0.1, 0.2, 0.3, 0.4]))
    rng, ref = make_rng(4), make_rng(4)
    counts, q_hat = lab.draw_dataset(rng, q, n_samples)
    assert np.array_equal(counts, ref.multinomial(n_samples, q.probs))
    # the generator is left where a bare draw leaves it
    assert np.array_equal(rng.random(8), ref.random(8))
    assert np.array_equal(q_hat, counts / n_samples)


def test_draw_dataset_refuses_a_missed_outcome_and_no_samples():
    q = SimplexPoint(np.array([0.96, 0.01, 0.01, 0.01, 0.01]))
    with pytest.raises(ZeroCount,
                       match="^dataset missed an outcome; increase n_samples$"):
        lab.draw_dataset(make_rng(0), q, 5)
    for bad in (0, -5):
        with pytest.raises(ValueError,
                           match=f"^n_samples must be at least 1, got {bad}$"):
            lab.draw_dataset(make_rng(0), q, bad)


def _one_rate_times(method, mode, counts, init_probs, lr, tolerance,
                    max_iters, minibatch, decay_a, sgd_seed):
    """The sweep's former kernel: one learning rate at a time, every row
    stepped every iteration."""
    q_hat = counts / counts.sum()
    b = init_probs.shape[0]
    y = state_rows(method, init_probs)
    rng = make_rng(sgd_seed)
    times = np.full(b, max_iters, dtype=np.int64)
    alive = np.ones(b, dtype=bool)

    def gaps_of(yv):
        with np.errstate(divide="ignore", invalid="ignore"):
            return kl_rows(q_hat, probs_rows(method, yv))

    hit = gaps_of(y) <= tolerance
    times[hit] = 0
    alive &= ~hit
    for k in range(max_iters):
        if not alive.any():
            break
        if mode == "sgd":
            draw = rng.multivariate_hypergeometric(counts, minibatch, size=b)
            target_eta = draw[:, :-1] / minibatch
            a = lr * decay_a / (k + decay_a)
        else:
            target_eta = q_hat[:-1]
            a = lr
        y = step_rows(method, y, target_eta, a)
        dead = alive & ~valid_rows(method, y)
        if dead.any():
            alive &= ~dead
            y[dead] = state_rows(method, init_probs[dead])
        if not alive.any():
            break
        hit = alive & (gaps_of(y) <= tolerance)
        times[hit] = k + 1
        alive &= ~hit
    return times


# per method: rates that converge, saturate and leave the domain (gd_theta
# never leaves it; at 1e4 its states underflow probabilities instead)
SWEEP_TEST_GRIDS = {"ngd": [0.05, 0.4, 1.0, 1.7, 2.05, 2.5, 3.0],
                    "gd_theta": [0.5, 2.0, 5.0, 12.0, 25.0, 200.0, 1e4],
                    "gd_eta": [1e-3, 0.01, 0.03, 0.08, 0.2, 0.5, 2.0]}
SWEEP_TEST_TOL = {"full_batch": 1e-4, "sgd": 1e-2}


def _sweep_instance(seed, n=4, n_samples=5000, n_inits=37):
    """The dataset and inits lr_sweep(seed, n, n_samples, n_inits) draws."""
    rng = make_rng(seed)
    counts, _ = lab.draw_dataset(rng, lab.draw_instance(rng, n), n_samples)
    return counts, random_simplex_batch(rng, n, n_inits)


@pytest.mark.parametrize("mode,tol,minibatch,instances", [
    pytest.param("full_batch", SWEEP_TEST_TOL["full_batch"], 200, (3, 5, 7),
                 id="full_batch"),
    pytest.param("sgd", SWEEP_TEST_TOL["sgd"], 200, (3, 5, 7), id="sgd"),
    # at n = 4 every minibatch of 2 misses an outcome
    pytest.param("sgd", 0.1, 2, (3,), id="sgd-minibatch-2")])
@pytest.mark.parametrize("method", sorted(SWEEP_TEST_GRIDS))
def test_stacked_sweep_kernel_equals_one_rate_loop(method, mode, tol,
                                                   minibatch, instances):
    # times, not gaps: BLAS may block the KL matrix-vector product
    # differently for another number of rows, moving a gap in its last bit;
    # worst times, since a rate stops stepping once a row leaves the domain
    grid = SWEEP_TEST_GRIDS[method]
    args = (tol, 60, minibatch, 30.0)
    for instance in instances:
        counts, inits = _sweep_instance(instance)
        ref = np.array([_one_rate_times(method, mode, counts, inits, lr,
                                        *args, sgd_seed=[instance, 91, idx])
                        for idx, lr in enumerate(grid)])
        assert (ref < 60).any() and (ref == 60).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = lab._batch_convergence_times(
                method, mode, counts, inits, grid, range(len(grid)), *args,
                seed=instance)
        assert np.array_equal(stacked, ref.max(axis=1))
        # a share of the grid draws from the streams of its own grid indices
        share = range(1, len(grid), 3)
        part = lab._batch_convergence_times(method, mode, counts, inits,
                                            [grid[i] for i in share], share,
                                            *args, seed=instance)
        assert np.array_equal(part, ref[list(share)].max(axis=1))


def _first_hit(gaps, tolerance, max_iters):
    hit = np.nonzero(np.asarray(gaps) <= tolerance)[0]
    return int(hit[0]) if hit.size else max_iters


@pytest.mark.parametrize("mode", ["full_batch", "sgd"])
@pytest.mark.parametrize("method", sorted(SWEEP_TEST_GRIDS))
def test_one_row_sweep_time_is_the_first_hit_of_a_single_run(method, mode):
    # a one-row sweep follows run (full batch), where a run that leaves the
    # domain raises where the sweep saturates the rate, or the one-rate loop
    # with one init row, drawing from the rate's stream [seed, 91, idx] (sgd)
    grid = SWEEP_TEST_GRIDS[method]
    tol, max_iters, minibatch, decay_a = SWEEP_TEST_TOL[mode], 60, 200, 30.0
    for seed in range(20):
        counts, inits = _sweep_instance(seed, n_inits=3)
        q_hat = SimplexPoint(counts / counts.sum())
        for i in range(3):
            idx = (seed + 2 * i) % len(grid)
            lr = grid[idx]
            time = lab._batch_convergence_times(
                method, mode, counts, inits[i:i + 1], [lr], [idx], tol,
                max_iters, minibatch, decay_a, seed=seed)
            if mode == "sgd":
                want = int(_one_rate_times(
                    method, mode, counts, inits[i:i + 1], lr, tol, max_iters,
                    minibatch, decay_a, sgd_seed=[seed, 91, idx])[0])
            else:
                spec = DescentSpec(method, "nonlinear", q_hat,
                                   SimplexPoint(inits[i]), lr,
                                   max_iters=max_iters)
                try:
                    want = _first_hit(run(spec, tol).kl_values, tol,
                                      max_iters)
                except (BoundaryEscape, NonFinite):
                    want = max_iters
            assert time.tolist() == [want], (seed, i, lr)


@pytest.mark.parametrize("mode", ["full_batch", "sgd"])
@pytest.mark.parametrize("method", ["gd_eta", "ngd"])
def test_rate_leaving_domain_stops_stepping_and_drawing(monkeypatch, method,
                                                        mode):
    grid = SWEEP_TEST_GRIDS[method]
    counts, inits = _sweep_instance(3)
    tol, max_iters, minibatch, decay_a = SWEEP_TEST_TOL[mode], 60, 200, 30.0
    stepped = []  # per iteration: the grid index of every row stepped
    left = {}     # grid index -> iteration at which one of its rows left
    draws = {}    # grid index -> minibatch draws of its generator

    def step(m, y, target, alpha, **carried):
        k = len(stepped)
        lrs = np.array(grid) if mode == "full_batch" else (
            np.array(grid) * decay_a / (k + decay_a))
        match = alpha == lrs  # (rows, G): the rate of each row
        assert (match.sum(axis=1) == 1).all()
        stepped.append(match.argmax(axis=1))
        return step_rows(m, y, target, alpha, **carried)

    def valid(m, y):
        ok = valid_rows(m, y)
        for r in stepped[-1][~ok]:
            left.setdefault(int(r), len(stepped) - 1)
        return ok

    class CountingRng:
        def __init__(self, idx):
            self.idx, self.gen = idx, make_rng([3, 91, idx])

        def multivariate_hypergeometric(self, *a, **kw):
            draws[self.idx] = draws.get(self.idx, 0) + 1
            return self.gen.multivariate_hypergeometric(*a, **kw)

    monkeypatch.setattr(descent, "step_rows", step)
    monkeypatch.setattr(descent, "valid_rows", valid)
    monkeypatch.setattr(lab, "make_rng", lambda key: CountingRng(key[2]))
    worst = lab._batch_convergence_times(
        method, mode, counts, inits, grid, range(len(grid)), tol, max_iters,
        minibatch, decay_a, seed=3)
    assert left and all(worst[r] == max_iters for r in left)
    for r, k in left.items():
        # a rate still had live rows when it left, and none is stepped after
        assert (stepped[k] == r).sum() > 1
        assert not any((rates == r).any() for rates in stepped[k + 1:])
    for r in range(len(grid)):
        iters = sum(bool((rates == r).any()) for rates in stepped)
        assert draws.get(r, 0) == (iters if mode == "sgd" else 0)


@pytest.mark.parametrize("mode", ["full_batch", "sgd"])
@pytest.mark.parametrize("method", sorted(SWEEP_TEST_GRIDS))
def test_lr_sweep_output_does_not_depend_on_workers(monkeypatch, tmp_path,
                                                    method, mode):
    grid = SWEEP_TEST_GRIDS[method]  # 7 rates: no share count divides it
    tol = SWEEP_TEST_TOL[mode]
    counts, inits = _sweep_instance(5)
    kwargs = {"n": 4, "n_samples": 5000, "minibatch": 200, "decay_a": 30.0,
              "max_iters": 60}
    worst = [int(_one_rate_times(method, mode, counts, inits, lr, tol, 60,
                                 200, 30.0, sgd_seed=[5, 91, idx]).max())
             for idx, lr in enumerate(grid)]
    files = {}
    for threads in (1, 2, 3):
        monkeypatch.setenv("SIMPLEX_FLOWS_THREADS", str(threads))
        out = tmp_path / str(threads)
        s = lab.lr_sweep(method, grid, 37, tol, 5, mode=mode,
                         out_dir=str(out), **kwargs)
        assert s["rows"] == [[lr, t] for lr, t in zip(grid, worst)]
        files[threads] = [(out / f"sweep_{method}_{mode}.{ext}").read_bytes()
                          for ext in ("csv", "json")]
    assert files[1] == files[2] == files[3]


@pytest.mark.parametrize("threads, grid_size, shares", [
    (1, 7, 1), (2, 7, 2), (3, 7, 3), (8, 2, 2)])
def test_lr_sweep_maps_once_over_worker_shares(monkeypatch, threads,
                                               grid_size, shares):
    calls = []
    original = lab.parallel_map

    def counting(fn, items):
        calls.append([list(share) for share in items])
        return original(fn, items)

    monkeypatch.setenv("SIMPLEX_FLOWS_THREADS", str(threads))
    monkeypatch.setattr(lab, "parallel_map", counting)
    lab.lr_sweep("ngd", list(np.linspace(0.2, 1.4, grid_size)), 10, 1e-4, 0,
                 n=2, n_samples=2000)
    assert len(calls) == 1 and len(calls[0]) == shares
    assert sorted(i for share in calls[0] for i in share) == list(range(grid_size))
    assert all(share == list(range(w, grid_size, shares))
               for w, share in enumerate(calls[0]))


@pytest.mark.parametrize("mode", ["full_batch", "sgd"])
def test_criterion_10_sweeps_emit_no_runtime_warning(mode):
    grids = {"ngd": list(np.linspace(0.1, 1.9, 19)),
             "gd_theta": list(np.linspace(1.0, 30.0, 30)),
             "gd_eta": list(np.geomspace(5e-4, 0.1, 24))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method, grid in grids.items():
            lab.lr_sweep(method, grid, n_inits=100,
                         tolerance=SWEEP_TEST_TOL[mode], seed=0, mode=mode,
                         n=10)


def test_sandwich_rerun_is_byte_identical(tmp_path):
    for tag in ("a", "b"):
        d = tmp_path / tag
        lab.sandwich_experiment(2, 10, seed=3, out_dir=str(d))
    for name in ("sandwich_n2.csv", "sandwich_n2.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def _sandwich_from_full_states(summary):
    """The sandwich's natural-flow error and rows as they were computed
    from the full (K, B, n) states of integrate_batch."""
    q, inits = summary["_target"], summary["_inits"]
    results = {}
    for chart, (t_chart, dt_chart) in summary["_grids"].items():
        assert summary["horizons"][chart] == t_chart
        results[chart] = integrate_batch(
            "Lq", chart, q, inits, t_chart, dt=dt_chart,
            sample_every=summary["config"]["sample_every"])
    nat_times, nat_states, _ = results["natural_eta"]
    eta_q = q.probs[:-1]
    dev = np.exp(-nat_times)[:, None, None] * (inits[None, :, :-1] - eta_q)
    dev += eta_q
    dev -= nat_states
    fits = {c: lab.fit_rates(times, kls)
            for c, (times, _, kls) in results.items()}
    rows = []
    for b in range(len(inits)):
        if all(fits[c][4][b] == "" for c in ("eta", "natural_eta", "theta")):
            rows.append([b] + [float(fits[c][i][b]) for i in (0, 2)
                               for c in ("eta", "natural_eta", "theta")])
    return float(np.abs(dev).max()), rows


@pytest.mark.parametrize("n, seed, n_inits", [(2, 7, 100), (10, 3, 30)])
def test_streamed_sandwich_equals_full_states(n, seed, n_inits):
    summary = lab.sandwich_experiment(n, n_inits, seed)
    natural_err, rows = _sandwich_from_full_states(summary)
    assert summary["natural_exact_max_err"] == natural_err
    assert summary["rows"] == rows


def test_sandwich_holds_no_full_state_array():
    # one chart's (K, B) KLs at a time, and no (K, B, n) states: the peak
    # stays within a small multiple of the theta chart's KLs
    tracemalloc.start()
    try:
        summary = lab.sandwich_experiment(10, 100, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    times = sample_times(*summary["_grids"]["theta"],
                         summary["config"]["sample_every"])
    theta_kls_bytes = times.size * 100 * 8
    assert peak < 2.5 * theta_kls_bytes


# per gd method: its curvature Q, and in the additive study the Lyapunov
# solution and the Monte Carlo estimate
@pytest.mark.parametrize("kind, calls", [("additive", 6),
                                         ("multiplicative", 2)])
def test_robustness_decomposes_each_matrix_once(monkeypatch, kind, calls):
    seen = []
    original = spectral.eigh

    def recording(m):
        seen.append(np.asarray(getattr(m, "entries", m)).tobytes())
        return original(m)

    for module in (spectral, lab):
        monkeypatch.setattr(module, "eigh", recording)
    q = random_simplex_point(make_rng(1), 3)
    lab.robustness_experiment(kind, q, [0])
    assert len(seen) == calls and len(set(seen)) == calls


def test_robustness_rejects_unknown_kind():
    q = random_simplex_point(make_rng(5), 2)
    with pytest.raises(ValueError):
        lab.robustness_experiment("nope", q, [0])


def _per_step_mc_covariance(m_mat, n, seed, burn_in, steps):
    # the former _mc_covariance: one normal_vector call per step
    rng = make_rng(seed)
    e = np.zeros(n)
    for _ in range(burn_in):
        e = m_mat @ e + normal_vector(rng, n)
    rows = np.empty((steps, n))
    for k in range(steps):
        e = m_mat @ e + normal_vector(rng, n)
        rows[k] = e
    return rows.T @ rows / steps


# The block scan and the step loop round differently: each sums a state's
# noise terms in its own order, and the loop's M = U diag(mu) U^T is itself
# rounded, which moves mu^p by about p * 1.1e-16.  Both errors grow with the
# chain's memory K = min(burn_in + steps, 1 / (1 - max |mu|)) and with n.
# Every chain below has K * n <= 2,730 (the first test's n = 10 case); over
# 7,000 random spectra in that range the worst difference measured was
# 5.3e-13 of max |P| (4e-15 in the first test), so the bound is 1e-12.
MC_RTOL = 1e-12


def _assert_mc_close(got, want):
    assert np.abs(got - want).max() <= MC_RTOL * np.abs(want).max()


def _orthogonal(n, seed):
    # a random orthogonal basis, far from symmetric for n >= 3
    return np.linalg.qr(normal_matrix(make_rng(seed), n, n))[0]


@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("contraction", [True, False], ids=["gd", "ngd"])
def test_mc_covariance_equals_per_step_draws(n, contraction):
    seed = [0, 17, n]
    if contraction:
        q = random_simplex_point(make_rng(n), n)
        mat = hess_phi(to_eta(q)).entries
        alpha = 1.0 / np.abs(mat).sum()
        dec = eigh(mat)
        got = lab._mc_covariance(1.0 - alpha * dec.values, dec.vectors, seed,
                                 burn_in=50, steps=2000)
        want = _per_step_mc_covariance(np.eye(n) - alpha * mat, n, seed,
                                       burn_in=50, steps=2000)
        _assert_mc_close(got, want)
    else:
        # M = 0, U = I: the chain is the noise itself, bit for bit
        got = lab._mc_covariance(np.zeros(n), np.eye(n), seed,
                                 burn_in=50, steps=2000)
        want = _per_step_mc_covariance(np.zeros((n, n)), n, seed,
                                       burn_in=50, steps=2000)
        assert np.array_equal(got, want)


def _check_against_per_step(mu, vectors, seed, burn_in, steps):
    n = len(mu)
    m_mat = vectors @ np.diag(mu) @ vectors.T
    got = lab._mc_covariance(mu, vectors, seed, burn_in, steps)
    want = _per_step_mc_covariance(m_mat, n, seed, burn_in, steps)
    _assert_mc_close(got, want)
    return got


@pytest.mark.parametrize("block, chunk", [(7, 100), (64, 96), (5, 5), (1, 7)])
def test_mc_covariance_does_not_depend_on_block_or_chunk(monkeypatch, block,
                                                         chunk):
    # steps and burn_in are multiples of neither block nor chunk, and the
    # burn-in of 150 ends inside a chunk (or on a boundary for chunk 5)
    kappa = 40.0
    mu = np.array([-(kappa - 1) / (kappa + 1), 0.0, 0.5, 0.97])
    vectors = _orthogonal(4, 3)
    seed, burn_in, steps = [1, 17, 0], 150, 1003
    default = lab._mc_covariance(mu, vectors, seed, burn_in, steps)
    monkeypatch.setattr(lab, "MC_BLOCK", block)
    monkeypatch.setattr(lab, "MC_CHUNK", chunk)
    got = _check_against_per_step(mu, vectors, seed, burn_in, steps)
    _assert_mc_close(got, default)


@pytest.mark.parametrize("kappa", [3.0, 112.0, 1791.0])
def test_mc_covariance_negative_and_zero_modes(kappa):
    # the optimal step size puts the fastest mode at -(kappa-1)/(kappa+1),
    # which alternates in sign every step; a mode at 0 is white noise
    mu = np.array([-(kappa - 1) / (kappa + 1), 0.0, (kappa - 1) / (kappa + 1)])
    _check_against_per_step(mu, _orthogonal(3, 4), [2, 17, 1], 70, 400)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-0.9999, 0.9999), min_size=1, max_size=5),
       st.integers(0, 2 ** 16), st.integers(0, 200), st.integers(1, 300))
def test_mc_covariance_matches_per_step_property(mu, seed, burn_in, steps):
    mu = np.array(mu)
    _check_against_per_step(mu, _orthogonal(mu.size, seed), [seed, 17, 5],
                            burn_in, steps)


def _per_step_multiplicative(seeds, n, norm=0.9, steps=400):
    # the former ngd loop of _robustness_multiplicative: one normal_matrix
    # and one spectral norm per step
    final_norms, envelope_ok = [], True
    for seed in seeds:
        rng = make_rng(seed)
        e = normal_vector(rng, n)
        e = e / np.linalg.norm(e)
        for k in range(steps):
            m = normal_matrix(rng, n, n)
            delta = norm * m / float(np.linalg.norm(m, 2))
            e = -(delta @ e)
            envelope_ok &= np.linalg.norm(e) <= norm ** (k + 1) + 1e-12
        final_norms.append(float(np.linalg.norm(e)))
    return final_norms, envelope_ok


def test_a_vector_norm_is_the_root_of_its_dot():
    # the perturbation study's envelope reads math.sqrt(e @ e), which is
    # np.linalg.norm(e)'s own arithmetic: the same value, bit for bit
    rng = make_rng(37)
    for n in range(1, 11):
        scale = 10.0 ** rng.integers(-150, 151, (200, 1))
        for e in rng.standard_normal((200, n)) * scale:
            assert math.sqrt(e @ e) == np.linalg.norm(e)


@pytest.mark.parametrize("n", [2, 3])
def test_robustness_multiplicative_equals_per_step_draws(n):
    q = random_simplex_point(make_rng(5), n)
    seeds = [0, 1, 2]
    summary = lab.robustness_experiment("multiplicative", q, seeds)
    final_norms, envelope_ok = _per_step_multiplicative(seeds, n)
    assert summary["ngd_final_norms"] == final_norms
    assert summary["assertions"]["ngd_envelope_0.9^k"] == bool(envelope_ok)
    assert summary["assertions"]["ngd_converges_all_seeds"] == all(
        fn < 1e-8 for fn in final_norms)
