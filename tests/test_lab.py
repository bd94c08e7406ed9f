import json
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplex_flows import descent, lab, spectral
from simplex_flows import rng as rng_module
from simplex_flows.coords import SimplexPoint, ThetaCoord, to_eta
from simplex_flows.descent import (probs_rows, state_rows, step_rows,
                                   valid_rows)
from simplex_flows.errors import (ExperimentFailure, InsufficientDecay,
                                  WitnessNotFound)
from simplex_flows.flows import Trajectory
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


def _assert_same_draw_and_stream(n, seed, balance=0.3):
    rng, ref = make_rng(seed), make_rng(seed)
    q = lab.draw_instance(rng, n, balance)
    assert np.array_equal(q.probs, _draw_instance_per_point(ref, n, balance).probs)
    assert np.array_equal(rng.random(9), ref.random(9))


@pytest.mark.parametrize("n", [2, 3, 10, 20])
@pytest.mark.parametrize("block", [1, 3, 1024])
def test_draw_instance_equals_per_point_draws(monkeypatch, n, block):
    monkeypatch.setattr(rng_module, "DRAW_BLOCK", block)
    for seed in range(8):
        _assert_same_draw_and_stream(n, seed)


def test_draw_instance_confirms_every_screened_hit(monkeypatch):
    # a screen that passes every row: each row is confirmed by a single draw
    # from its own place in the stream, and rejected ones are scanned past
    def uniform_rows(rng, n, count):
        random_simplex_batch(rng, n, count)
        return np.full((count, n + 1), 1.0 / (n + 1))

    monkeypatch.setattr(rng_module, "random_simplex_batch", uniform_rows)
    for n, seed in ((2, 0), (5, 1), (10, 2)):
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


def test_rate_bounds_bracket_curvature_at_optimum():
    rng = make_rng(2)
    q = lab.draw_instance(rng, 2)
    p0 = random_simplex_point(rng, 2)
    vals = eigh(hess_phi(to_eta(q))).values
    b = lab.rate_bounds("Lq_eta", q, p0, grid_density=2000)
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


def test_rate_bounds_reported_sides_stable_under_refinement():
    # quadrupling the sample only nudges the sides each loss actually
    # reports (the lower bound for the eta chart, the upper for theta)
    rng = make_rng(3)
    q = lab.draw_instance(rng, 2)
    p0 = random_simplex_point(rng, 2)
    lo_c = lab.rate_bounds("Lq_eta", q, p0, grid_density=10000).m_lo
    lo_f = lab.rate_bounds("Lq_eta", q, p0, grid_density=40000).m_lo
    assert abs(lo_f - lo_c) <= 0.02 * lo_c
    hi_c = lab.rate_bounds("Lq_theta", q, p0, grid_density=10000).l_hi
    hi_f = lab.rate_bounds("Lq_theta", q, p0, grid_density=40000).l_hi
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


@pytest.mark.parametrize("loss", ["Lstar", "Lq"])
@pytest.mark.parametrize("p", WITNESS_TARGETS, ids=["n2", "n10"])
def test_witness_screen_within_its_band_of_scalar_loss(p, loss):
    # the screen may only pass over a probe the scalar loss would neither
    # accept nor reject, so its error bound and its ok flags are checked
    f = _witness_loss(loss, p)
    rng = make_rng(1)
    for box in (0.5, 8.0, 30.0, 350.0):
        rows = (2.0 * rng.random((300, p.n)) - 1.0) * box
        with np.errstate(divide="ignore", invalid="ignore"):
            values, err, ok = lab._screen_losses(loss, rows, p)
        for th, value, bound, good in zip(rows, values, err, ok):
            exact = _outcome(lambda: f(th))
            if isinstance(exact, ValueError):
                assert not good
            elif good:
                assert abs(value - exact) <= bound


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
    # differently for another number of rows, moving a gap in its last bit
    grid = SWEEP_TEST_GRIDS[method]
    counts, inits = _sweep_instance(3)
    args = (SWEEP_TEST_TOL[mode], 60, 200, 30.0)
    ref = np.array([_one_rate_times(method, mode, counts, inits, lr, *args,
                                    sgd_seed=[3, 91, idx])
                    for idx, lr in enumerate(grid)])
    assert (ref < 60).any() and (ref == 60).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = lab._batch_convergence_times(
            method, mode, counts, inits, grid, range(len(grid)), *args, seed=3)
    assert np.array_equal(stacked, ref)
    # a share of the grid draws from the streams of its own grid indices
    share = range(1, len(grid), 3)
    part = lab._batch_convergence_times(method, mode, counts, inits,
                                        [grid[i] for i in share], share,
                                        *args, seed=3)
    assert np.array_equal(part, ref[list(share)])


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
