import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simplex_flows import lab
from simplex_flows.coords import SimplexPoint, ThetaCoord, to_eta
from simplex_flows.errors import (ExperimentFailure, InsufficientDecay,
                                  WitnessNotFound)
from simplex_flows.flows import Trajectory
from simplex_flows.geometry import (hess_phi, kl, loss_Lq_theta,
                                    loss_Lstar_theta)
from simplex_flows.rng import (make_rng, normal_matrix, normal_vector,
                               random_simplex_point)
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


def test_lr_sweep_validation():
    with pytest.raises(ValueError):
        lab.lr_sweep("nope", [0.1], 5, 1e-4, 0)
    with pytest.raises(ValueError):
        lab.lr_sweep("ngd", [0.1], 5, 1e-4, 0, mode="nope")
    with pytest.raises(ValueError):
        lab.lr_sweep("ngd", [], 5, 1e-4, 0)
    with pytest.raises(ValueError):
        lab.lr_sweep("ngd", [-0.1], 5, 1e-4, 0)


def test_sandwich_rerun_is_byte_identical(tmp_path):
    for tag in ("a", "b"):
        d = tmp_path / tag
        lab.sandwich_experiment(2, 10, seed=3, out_dir=str(d))
    for name in ("sandwich_n2.csv", "sandwich_n2.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


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
