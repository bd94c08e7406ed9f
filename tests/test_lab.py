import json
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplex_flows import descent, lab, spectral
from simplex_flows import rng as rng_module
from simplex_flows.coords import SimplexPoint, ThetaCoord, to_eta
from simplex_flows.descent import (DescentSpec, probs_rows, run, state_rows,
                                   step_rows, valid_rows)
from simplex_flows.empirical import Dataset, empirical_target, run_empirical
from simplex_flows.errors import (BoundaryEscape, ExperimentFailure,
                                  InsufficientDecay, NonFinite,
                                  WitnessNotFound)
from simplex_flows.flows import Trajectory, integrate_batch
from simplex_flows.geometry import (hess_phi, kl, kl_rows, loss_Lq_theta,
                                    loss_Lstar_theta)
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
        lab.write_csv(tmp_path / f"{tag}.csv", ["i", "x", "y"], rows)
        lab.write_json(tmp_path / f"{tag}.json", summary)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
    loaded = json.loads((tmp_path / "one.json").read_text())
    assert loaded["a"]["x"] == 3


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
    near = lab.draw_near(q, p0, kl_max=0.02)
    assert kl(q, near) <= 0.02


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
        lab.draw_near(q, p0, kl_max=-1.0)


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
    q = lab.draw_instance(rng, n)
    counts = rng.multinomial(n_samples, q.probs)
    return counts, random_simplex_batch(rng, n, n_inits)


@pytest.mark.parametrize("mode", ["full_batch", "sgd"])
@pytest.mark.parametrize("method", sorted(SWEEP_TEST_GRIDS))
def test_stacked_sweep_kernel_equals_one_rate_loop(method, mode):
    # times, not gaps: BLAS may block the KL matrix-vector product
    # differently for another number of rows, moving a gap in its last bit;
    # worst times, since a rate stops stepping once a row leaves the domain
    grid = SWEEP_TEST_GRIDS[method]
    args = (SWEEP_TEST_TOL[mode], 60, 200, 30.0)
    for instance in (3, 5, 7):
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
    # a one-row sweep follows run (full batch) or the minibatch run of
    # run_empirical seeded with the rate's stream [seed, 91, idx] (sgd); a
    # run that leaves the domain raises where the sweep saturates the rate
    grid = SWEEP_TEST_GRIDS[method]
    tol, max_iters, minibatch, decay_a = SWEEP_TEST_TOL[mode], 60, 200, 30.0
    for seed in range(20):
        counts, inits = _sweep_instance(seed, n_inits=3)
        d = Dataset(counts)
        q_hat = empirical_target(d)
        for i in range(3):
            idx = (seed + 2 * i) % len(grid)
            lr = grid[idx]
            time = lab._batch_convergence_times(
                method, mode, counts, inits[i:i + 1], [lr], [idx], tol,
                max_iters, minibatch, decay_a, seed=seed)
            spec = DescentSpec(method, "nonlinear", q_hat,
                               SimplexPoint(inits[i]), lr, max_iters=max_iters)
            try:
                if mode == "sgd":
                    traj = run_empirical(spec, d, minibatch=minibatch,
                                         decay_a=decay_a,
                                         seed=[seed, 91, idx], tol=tol)
                else:
                    traj = run(spec, tol)
                want = _first_hit(traj.kl_values, tol, max_iters)
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

    def step(m, y, target, alpha):
        k = len(stepped)
        lrs = np.array(grid) if mode == "full_batch" else (
            np.array(grid) * decay_a / (k + decay_a))
        match = alpha == lrs  # (rows, G): the rate of each row
        assert (match.sum(axis=1) == 1).all()
        stepped.append(match.argmax(axis=1))
        return step_rows(m, y, target, alpha)

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
    """The sandwich's KLs, paths, natural-flow error and rows as they were
    computed from the full (K, B, n) states of integrate_batch."""
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
    return results, float(np.abs(dev).max()), rows


@pytest.mark.parametrize("n, seed, n_inits", [(2, 7, 100), (10, 3, 30)])
def test_streamed_sandwich_equals_full_states(n, seed, n_inits):
    summary = lab.sandwich_experiment(n, n_inits, seed)
    results, natural_err, rows = _sandwich_from_full_states(summary)
    assert summary["natural_exact_max_err"] == natural_err
    assert summary["rows"] == rows
    for chart, (times, states, kls) in results.items():
        got_times, path, got_kls = summary["_trajectories"][chart]
        assert np.array_equal(got_times, times)
        assert np.array_equal(got_kls, kls)
        assert np.array_equal(path, states[::lab.PATH_STRIDE])


def test_sandwich_holds_no_full_state_array():
    tracemalloc.start()
    try:
        summary = lab.sandwich_experiment(10, 100, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    times = summary["_trajectories"]["theta"][0]
    theta_states_bytes = times.size * 100 * 10 * 8
    assert peak < theta_states_bytes / 2


def test_additive_robustness_decomposes_each_matrix_once(monkeypatch):
    seen = []
    original = spectral.eigh

    def recording(m):
        seen.append(np.asarray(getattr(m, "entries", m)).tobytes())
        return original(m)

    for module in (spectral, descent, lab):
        monkeypatch.setattr(module, "eigh", recording)
    q = random_simplex_point(make_rng(1), 3)
    lab.robustness_experiment("additive", q, [0])
    # per gd method: its curvature Q, the Lyapunov solution and the estimate
    assert len(seen) == 6 and len(set(seen)) == 6


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
