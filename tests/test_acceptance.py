"""End-to-end acceptance checks, one test per headline claim.

Each test records a single pass/fail line (printed in the terminal summary)
and enforces its own runtime budget where one applies.  The heavyweight
sandwich runs are shared between the rate-ordering and the rate-bound tests
through a module-scoped fixture.
"""

import time

import numpy as np
import pytest

from conftest import fd_gradient, fd_hessian, interior_point, record_criterion
from simplex_flows import lab
from simplex_flows.coords import (EtaCoord, SimplexPoint, ThetaCoord, phi,
                                  psi, simplex_from_eta, simplex_from_theta,
                                  to_eta, to_theta)
from simplex_flows.descent import DescentSpec, optimal_lr, step
from simplex_flows.errors import WitnessNotFound
from simplex_flows.flows import integrate_batch
from simplex_flows.geometry import (hess_Lq_eta, hess_phi, hess_psi, kl)
from simplex_flows.rng import make_rng, random_simplex_point
from simplex_flows.spectral import cond, eigh, kappa_lower_bound


@pytest.fixture(scope="module")
def sandwich_runs():
    """The full 100-init sandwich experiment for both problem sizes."""
    out = {}
    for n in (2, 10):
        t0 = time.perf_counter()
        summary = lab.sandwich_experiment(n, 100, seed=0)
        out[n] = (summary, time.perf_counter() - t0)
    return out


def test_criterion_01_conjugacy_and_charts():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 10):
        rng = make_rng(100 + n)
        for _ in range(1000):
            p = random_simplex_point(rng, n)
            e, t = to_eta(p), to_theta(p)
            ok &= abs(phi(e) + psi(t) - float(t.theta @ e.eta)) < 1e-10
            ok &= np.abs(simplex_from_theta(t).probs - p.probs).max() < 1e-10
            ok &= np.abs(simplex_from_eta(e).probs - p.probs).max() < 1e-10
        # inverse-Hessian product on a subsample
        rng = make_rng(200 + n)
        for _ in range(100):
            p = random_simplex_point(rng, n)
            prod = hess_phi(to_eta(p)).entries @ hess_psi(to_theta(p)).entries
            ok &= np.abs(prod - np.eye(n)).max() < 1e-10
    elapsed = time.perf_counter() - t0
    record_criterion(1, "conjugacy, chart round-trips, inverse Hessians "
                        f"(1e-10, {elapsed:.1f}s)", ok and elapsed < 5.0)


def test_criterion_02_gradients_and_hessians_vs_finite_differences():
    t0 = time.perf_counter()
    rng = make_rng(17)
    ok = True
    for _ in range(50):
        # margin keeps 1/eta^2 curvature moderate so the finite-difference
        # stencil's truncation error stays below the comparison tolerance
        q = interior_point(rng, 3, margin=0.2)
        p = interior_point(rng, 3, margin=0.2)
        e, t = to_eta(p), to_theta(p)
        from simplex_flows.geometry import (grad_Lq_eta, grad_Lq_theta,
                                            grad_Lstar_eta, grad_Lstar_theta,
                                            natural_grad_Lq,
                                            natural_grad_Lstar)

        def rel_ok(analytic, numeric, tol=1e-5):
            scale = max(1.0, float(np.abs(analytic).max()))
            return np.abs(analytic - numeric).max() <= tol * scale

        ok &= rel_ok(grad_Lq_eta(e, to_eta(q)), fd_gradient(
            lambda x: kl(q, simplex_from_eta(EtaCoord(x))), e.eta))
        ok &= rel_ok(grad_Lq_theta(t, to_theta(q)), fd_gradient(
            lambda x: kl(q, simplex_from_theta(ThetaCoord(x))), t.theta))
        ok &= rel_ok(grad_Lstar_eta(to_eta(q), e), fd_gradient(
            lambda x: kl(simplex_from_eta(EtaCoord(x)), p), to_eta(q).eta))
        ok &= rel_ok(grad_Lstar_theta(to_theta(q), t), fd_gradient(
            lambda x: kl(simplex_from_theta(ThetaCoord(x)), p),
            to_theta(q).theta))
        # natural gradients are inverse-Hessian preconditioned gradients
        ok &= rel_ok(natural_grad_Lq(e, to_eta(q)),
                     np.linalg.solve(hess_phi(e).entries,
                                     grad_Lq_eta(e, to_eta(q))), 1e-10)
        ok &= rel_ok(natural_grad_Lstar(to_theta(q), t),
                     np.linalg.solve(hess_psi(to_theta(q)).entries,
                                     grad_Lstar_theta(to_theta(q), t)), 1e-10)
        ok &= rel_ok(hess_phi(e).entries,
                     fd_hessian(lambda x: phi(EtaCoord(x)), e.eta), 1e-4)
        ok &= rel_ok(hess_psi(t).entries,
                     fd_hessian(lambda x: psi(ThetaCoord(x)), t.theta), 1e-4)
        ok &= rel_ok(hess_Lq_eta(e, to_eta(q)).entries, fd_hessian(
            lambda x: kl(q, simplex_from_eta(EtaCoord(x))), e.eta), 1e-4)
    elapsed = time.perf_counter() - t0
    record_criterion(2, "analytic gradients and Hessians vs finite "
                        f"differences ({elapsed:.1f}s)",
                     ok and elapsed < 10.0)


def test_criterion_03_rate_sandwich(sandwich_runs):
    ok = True
    total = 0.0
    for n in (2, 10):
        summary, elapsed = sandwich_runs[n]
        total += elapsed
        ok &= all(summary["assertions"].values())
        ok &= not summary["excluded_inits"]       # 100% of inits fitted
        ok &= len(summary["rows"]) == 100
    record_criterion(3, "rate sandwich theta < 2 < eta, natural in "
                        f"[1.9, 2.1], R^2 >= 0.99, exact match 1e-8 "
                        f"({total:.0f}s)", ok and total < 120.0)


def _trajectory_probs(summary, chart):
    """Probability rows of every 20th state of the sandwich's chart flow,
    integrated again from the summary's target, inits and grid."""
    t_chart, dt_chart = summary["_grids"][chart]
    _, states, _ = integrate_batch(
        "Lq", chart, summary["_target"], summary["_inits"], t_chart,
        dt=dt_chart, sample_every=summary["config"]["sample_every"])
    path = states[::20]
    flat = path.reshape(-1, path.shape[-1])
    if chart == "theta":
        m = np.maximum(0.0, flat.max(axis=1))
        w = np.exp(flat - m[:, None])
        denom = w.sum(axis=1) + np.exp(-m)
        flat = w / denom[:, None]
    return np.hstack([flat, 1.0 - flat.sum(axis=1, keepdims=True)])


def test_criterion_04_rates_respect_sublevel_bounds(sandwich_runs):
    ok = True
    for n in (2, 10):
        summary, _ = sandwich_runs[n]
        q = summary["_target"]
        inits = summary["_inits"]
        levels = [kl(q, SimplexPoint(row)) for row in inits]
        p_worst = SimplexPoint(inits[int(np.argmax(levels))])
        rows = np.array(summary["rows"])
        r_eta, r_theta = rows[:, 1], rows[:, 3]
        b_eta = lab.rate_bounds("Lq_eta", q, p_worst,
                                extra_probs=_trajectory_probs(summary, "eta"))
        b_theta = lab.rate_bounds(
            "Lq_theta", q, p_worst,
            extra_probs=_trajectory_probs(summary, "theta"))
        ok &= bool(r_eta.min() >= 0.95 * b_eta.m_lo)
        ok &= bool(r_theta.max() <= 1.05 * b_theta.l_hi)
    record_criterion(4, "fitted rates bracketed by sublevel-set curvature "
                        "bounds", ok)


def test_criterion_05_affine_chart_rates():
    t0 = time.perf_counter()
    rng = make_rng(0)
    q = lab.draw_instance(rng, 2)
    p0 = random_simplex_point(rng, 2)
    summary = lab.affine_rate_experiment([0.5, 1.0, 2.0], q, p0)
    elapsed = time.perf_counter() - t0
    ok = all(summary["assertions"].values())
    record_criterion(5, "affine-chart rates within 10% of 2c and 2/c, "
                        f"Hessians identity to 1e-10 ({elapsed:.0f}s)",
                     ok and elapsed < 60.0)


def test_criterion_06_discrete_contraction_factors():
    rng = make_rng(21)
    q = random_simplex_point(rng, 10)
    ok = True
    for q_mat in (hess_phi(to_eta(q)).entries, hess_psi(to_theta(q)).entries):
        dec = eigh(q_mat)
        kappa = dec.values[-1] / dec.values[0]
        for rule, expect in (("standard", (1.0 - 1.0 / kappa) ** 2),
                             ("optimal", (1.0 - 2.0 / (kappa + 1.0)) ** 2)):
            alpha = optimal_lr(q_mat, rule)
            e = dec.vectors[:, 0] * 1e-5          # slowest direction
            e_next = e - alpha * (q_mat @ e)      # one linearized step
            ratio = (e_next @ q_mat @ e_next) / (e @ q_mat @ e)
            ok &= abs(ratio - expect) < 1e-6
    # linearized natural gradient at alpha 1: exactly one step
    p0 = random_simplex_point(rng, 10)
    spec = DescentSpec("ngd", "linearized", q, p0, 1.0)
    out = step(spec, to_eta(p0))
    ok &= bool(np.array_equal(out.eta, to_eta(q).eta))
    record_criterion(6, "per-step loss contraction (1-1/k)^2 and "
                        "(1-2/(k+1))^2; one-step natural gradient", ok)


def test_criterion_07_condition_number_bound_and_chart_equality():
    rng = make_rng(23)
    ok = True
    for _ in range(100):
        q = random_simplex_point(rng, 10)
        eq, tq = to_eta(q), to_theta(q)
        k_eta = cond(hess_Lq_eta(eq, eq))    # loss curvature at the optimum
        k_theta = cond(hess_psi(tq))
        ok &= kappa_lower_bound(eq) <= k_eta * (1.0 + 1e-9)
        ok &= abs(k_eta - k_theta) <= 1e-8 * k_eta
    record_criterion(7, "probability-ratio lower bound and chart-independent "
                        "condition number at the optimum", ok)


def test_criterion_08_multiplicative_noise():
    t0 = time.perf_counter()
    q = random_simplex_point(make_rng(29), 2)
    summary = lab.robustness_experiment("multiplicative", q,
                                        seeds=list(range(10)))
    elapsed = time.perf_counter() - t0
    ok = all(summary["assertions"].values())
    # the constructed perturbation has norm exactly 1/kappa
    for name, mat in (("gd_eta", hess_phi(to_eta(q)).entries),
                      ("gd_theta", hess_psi(to_theta(q)).entries)):
        kappa = cond(mat)
        delta_norm = summary["gd"][name]["delta_norm"]
        ok &= abs(delta_norm - 1.0 / kappa) < 1e-10
    record_criterion(8, "natural gradient survives norm-0.9 noise; "
                        f"rank-one 1/kappa noise destabilizes ({elapsed:.0f}s)",
                     ok and elapsed < 30.0)


def test_criterion_09_additive_noise_covariance():
    q = random_simplex_point(make_rng(31), 2)
    summary = lab.robustness_experiment("additive", q, seeds=[0])
    ok = all(summary["assertions"].values())
    record_criterion(9, "stationary covariance: Lyapunov residual 1e-10, "
                        "lambda_max closed form, Monte Carlo 5%, natural "
                        "gradient identity", ok)


SWEEP_GRIDS = {
    "ngd": list(np.linspace(0.1, 1.9, 19)),
    "gd_theta": list(np.linspace(1.0, 30.0, 30)),
    "gd_eta": list(np.geomspace(5e-4, 0.1, 24)),
}


def test_criterion_10_empirical_orderings_and_sweeps():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 10):
        summary = lab.empirical_sandwich(n, seed=0)
        ok &= all(summary["assertions"].values())
    for mode, tol in (("full_batch", 1e-4), ("sgd", 1e-2)):
        argmins = {}
        for method, grid in SWEEP_GRIDS.items():
            s = lab.lr_sweep(method, grid, n_inits=100, tolerance=tol,
                             seed=0, mode=mode, n=10)
            argmins[method] = s["argmin_time"]
        ok &= argmins["ngd"] < argmins["gd_theta"] < argmins["gd_eta"]
        ok &= argmins["ngd"] <= 3
    elapsed = time.perf_counter() - t0
    record_criterion(10, "small-step ordering from k=5; sweep argmins "
                         "ngd < theta-GD < eta-GD in both modes, ngd <= 3 "
                         f"({elapsed:.0f}s)", ok and elapsed < 300.0)


def test_criterion_11_nonconvexity_witness():
    p = SimplexPoint(np.array([0.7, 0.2, 0.1]))
    witness = lab.nonconvexity_witness(p, search_seed=0, budget=10000)
    ok = witness["probes"] <= 10000
    try:
        lab.nonconvexity_witness(p, search_seed=0, budget=10000, loss="Lq")
        ok = False
    except WitnessNotFound:
        pass
    record_criterion(11, "midpoint-convexity violation found for the "
                         "reversed KL, none for the convex loss", ok)


def test_criterion_12_byte_identical_reruns(tmp_path):
    ok = True
    for tag in ("a", "b"):
        d = tmp_path / tag
        lab.sandwich_experiment(2, 10, seed=4, out_dir=str(d))
        rng = make_rng(5)
        q = lab.draw_instance(rng, 2)
        lab.affine_rate_experiment([0.5, 2.0], q, random_simplex_point(rng, 2),
                                   out_dir=str(d))
        lab.lr_sweep("ngd", [0.5, 1.0], 10, 1e-4, seed=6, n=2,
                     n_samples=10000, mode="sgd", minibatch=200,
                     out_dir=str(d))
        lab.robustness_experiment("multiplicative", q, [0, 1],
                                  out_dir=str(d))
    names = ["sandwich_n2.csv", "sandwich_n2.json", "affine.csv",
             "affine.json", "sweep_ngd_sgd.csv", "sweep_ngd_sgd.json",
             "robustness_multiplicative.json"]
    for name in names:
        ok &= ((tmp_path / "a" / name).read_bytes()
               == (tmp_path / "b" / name).read_bytes())
    record_criterion(12, "identical seed and config give byte-identical "
                         "CSV/JSON outputs", ok)
