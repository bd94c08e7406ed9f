import re
import warnings

import numpy as np
import pytest

from simplex_flows.coords import (EtaCoord, SimplexPoint, ThetaCoord, to_eta,
                                  to_theta)
from simplex_flows.descent import (DescentSpec, NoiseModel, check_rows,
                                   destabilizing_delta, optimal_lr, run,
                                   step)
from simplex_flows.errors import BoundaryEscape, NonFinite
from simplex_flows.geometry import hess_phi, hess_psi, kl
from simplex_flows.rng import make_rng, normal_vector, random_simplex_point
from simplex_flows.spectral import cond, eigh


def _pair(seed, n):
    rng = make_rng(seed)
    return random_simplex_point(rng, n), random_simplex_point(rng, n)


def test_spec_validation():
    q, p0 = _pair(0, 2)
    with pytest.raises(ValueError):
        DescentSpec("nope", "nonlinear", q, p0, 0.1)
    with pytest.raises(ValueError):
        DescentSpec("ngd", "nope", q, p0, 0.1)
    with pytest.raises(ValueError):
        DescentSpec("ngd", "nonlinear", q, p0, -0.1)
    with pytest.raises(ValueError):
        DescentSpec("ngd", "nonlinear", q, p0, 0.1,
                    noise=NoiseModel("additive"))
    with pytest.raises(ValueError):
        NoiseModel("multiplicative")   # needs a delta


def test_linearized_ngd_converges_in_one_step_at_alpha_one():
    q, p0 = _pair(1, 5)
    spec = DescentSpec("ngd", "linearized", q, p0, 1.0)
    out = step(spec, to_eta(p0))
    assert np.array_equal(out.eta, to_eta(q).eta)   # exact, not approximate
    traj = run(spec, tol=None)
    assert traj.kl_values[1] == 0.0


def test_linearized_run_matches_matrix_recursion():
    # the linearized iterates must follow e(k+1) = (I - alpha Q) e(k) exactly
    q, p0 = _pair(2, 3)
    alpha = 0.05
    for method, x_star, q_mat in (
            ("gd_eta", to_eta(q).eta, hess_phi(to_eta(q)).entries),
            ("gd_theta", to_theta(q).theta, hess_psi(to_theta(q)).entries)):
        spec = DescentSpec(method, "linearized", q, p0, alpha, max_iters=20)
        traj = run(spec)
        x0 = (to_eta(p0).eta if method == "gd_eta" else to_theta(p0).theta)
        e = x0 - x_star
        m = np.eye(q.n) - alpha * q_mat
        for k, state in enumerate(traj.states):
            assert np.abs(state - (x_star + e)).max() < 1e-12
            e = m @ e


@pytest.mark.parametrize("rule,factor", [
    ("standard", lambda k: (1.0 - 1.0 / k) ** 2),
    ("optimal", lambda k: (1.0 - 2.0 / (k + 1.0)) ** 2),
])
def test_linearized_gd_worst_case_loss_contraction(rule, factor):
    # with the error along the slowest eigendirection, the quadratic loss
    # contracts by exactly the classical per-step factor
    q, _ = _pair(3, 4)
    for method, q_mat in (("gd_eta", hess_phi(to_eta(q)).entries),
                          ("gd_theta", hess_psi(to_theta(q)).entries)):
        dec = eigh(q_mat)
        kappa = dec.values[-1] / dec.values[0]
        alpha = optimal_lr(q_mat, rule)
        m = np.eye(q.n) - alpha * q_mat
        e = dec.vectors[:, 0] * 1e-4
        loss = 0.5 * e @ q_mat @ e
        e_next = m @ e
        loss_next = 0.5 * e_next @ q_mat @ e_next
        assert loss_next / loss == pytest.approx(factor(kappa), abs=1e-6)


def test_optimal_lr_values():
    q_mat = np.diag([1.0, 4.0])
    assert optimal_lr(q_mat, "standard") == pytest.approx(0.25, abs=1e-12)
    assert optimal_lr(q_mat, "optimal") == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ValueError):
        optimal_lr(q_mat, "nope")
    with pytest.raises(ValueError):
        optimal_lr(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        optimal_lr(eigh(np.diag([1.0, -1.0])))
    # Q given as its decomposition
    q_mat = hess_phi(to_eta(random_simplex_point(make_rng(2), 5))).entries
    for rule in ("standard", "optimal"):
        assert optimal_lr(eigh(q_mat), rule) == optimal_lr(q_mat, rule)


def test_destabilizing_delta_places_eigenvalue_at_minus_one():
    q_mat = np.array([[6.0, 3.0], [3.0, 6.0]])   # eigenvalues 3 and 9
    delta = destabilizing_delta(q_mat).entries
    kappa = 3.0
    assert np.linalg.norm(delta, 2) == pytest.approx(1.0 / kappa, abs=1e-12)
    alpha = optimal_lr(q_mat, "optimal")
    closed = np.eye(2) - alpha * (np.eye(2) + delta) @ q_mat
    eigs = np.linalg.eigvals(closed)
    assert np.abs(eigs + 1.0).min() < 1e-10


def test_nonlinear_ngd_is_the_mixture_update_from_far_away():
    # ngd iterates eta <- eta - alpha (eta - eta_q) in both variants, so it
    # lands on the target in one step at alpha = 1 even from far away
    q, p0 = _pair(8, 2)
    assert kl(q, p0) > 0.1
    one = run(DescentSpec("ngd", "nonlinear", q, p0, 1.0, max_iters=1))
    assert one.kl_values[1] < 1e-15
    runs = [run(DescentSpec("ngd", variant, q, p0, 0.3, max_iters=40))
            for variant in ("nonlinear", "linearized")]
    assert np.abs(runs[0].states - runs[1].states).max() < 1e-14
    assert np.abs(runs[0].kl_values - runs[1].kl_values).max() < 1e-14


def test_nonlinear_methods_descend(rng):
    q, p0 = _pair(5, 3)
    for method, alpha in (("gd_eta", 0.01), ("gd_theta", 0.5), ("ngd", 0.5)):
        spec = DescentSpec(method, "nonlinear", q, p0, alpha, max_iters=3000)
        traj = run(spec, tol=1e-10)
        assert traj.kl_values[-1] < 1e-6


def test_gd_theta_direction_matches_finite_difference():
    from simplex_flows.geometry import loss_Lq_theta
    q, p0 = _pair(6, 3)
    alpha = 0.3
    spec = DescentSpec("gd_theta", "nonlinear", q, p0, alpha)
    t0 = to_theta(p0)
    out = step(spec, t0)
    update = (out.theta - t0.theta) / alpha
    h = 1e-6
    grad = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        grad[i] = (loss_Lq_theta(ThetaCoord(t0.theta + e), q)
                   - loss_Lq_theta(ThetaCoord(t0.theta - e), q)) / (2 * h)
    assert np.abs(update + grad).max() < 1e-5


def test_linearized_ngd_is_affine_invariant():
    # the linearized ngd error recursion is scalar: kl curves from two
    # different targets with matched initial error contraction coincide
    q, p0 = _pair(7, 2)
    alpha = 0.25
    spec = DescentSpec("ngd", "linearized", q, p0, alpha, max_iters=10)
    traj = run(spec)
    e0 = to_eta(p0).eta - to_eta(q).eta
    for k, state in enumerate(traj.states):
        expect = to_eta(q).eta + (1.0 - alpha) ** k * e0
        assert np.abs(state - expect).max() < 1e-12


def test_multiplicative_noise_enters_update():
    q, p0 = _pair(4, 2)   # a nearby pair, so the perturbed step stays interior
    delta = 0.5 * np.eye(2)
    spec = DescentSpec("gd_eta", "linearized", q, p0, 0.05,
                       noise=NoiseModel("multiplicative", delta))
    noisy = step(spec, to_eta(p0))
    clean = step(DescentSpec("gd_eta", "linearized", q, p0, 0.05), to_eta(p0))
    q_mat = hess_phi(to_eta(q)).entries
    e = to_eta(p0).eta - to_eta(q).eta
    expect = clean.eta - 0.05 * (delta @ (q_mat @ e))
    assert np.abs(noisy.eta - expect).max() < 1e-12


def test_additive_noise_statistics():
    rng = make_rng(9)
    draws = np.array([normal_vector(rng, 2) for _ in range(20000)])
    assert np.abs(draws.mean(axis=0)).max() < 0.03
    assert np.abs(draws.std(axis=0) - 1.0).max() < 0.03


def test_run_raises_boundary_escape_on_huge_step():
    q, p0 = _pair(10, 2)
    spec = DescentSpec("gd_eta", "nonlinear", q, p0, 5.0, max_iters=50)
    with pytest.raises(BoundaryEscape):
        run(spec)


def test_run_failure_names_method_iteration_and_step_size():
    q, p0 = _pair(10, 2)
    spec = DescentSpec("ngd", "nonlinear", q, p0, 5.0, max_iters=50)
    with pytest.raises(BoundaryEscape, match=re.escape(
            "ngd iterate left the simplex at iteration 1 (step size 5); "
            "reduce the step size")):
        run(spec)
    with pytest.raises(NonFinite, match=re.escape(
            "gd_theta iterate overflowed at iteration 3 (step size 0.25); "
            "reduce the step size")):
        check_rows("gd_theta", np.array([[np.inf, 0.0]]), 3, 0.25)
    check_rows("gd_theta", np.array([[700.0, -700.0]]), 3, 0.25)


def test_run_gap_of_an_underflowed_state_is_inf_without_warnings():
    # at step size 1e4 the theta iterates stay finite but their softmax
    # underflows a probability to 0: the gap is inf, silently
    spec = DescentSpec("gd_theta", "nonlinear",
                       SimplexPoint(np.array([0.2, 0.3, 0.5])),
                       SimplexPoint(np.array([0.6, 0.3, 0.1])), 1e4,
                       max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(spec)
    assert len(traj.kl_values) == 6 and np.isfinite(traj.kl_values[0])
    assert np.isinf(traj.kl_values[1:]).all()


def test_noisy_run_records_nan_instead_of_raising():
    q, p0 = _pair(11, 2)
    spec = DescentSpec("gd_eta", "linearized", q, p0, 3.0,
                       noise=NoiseModel("additive", seed=3), max_iters=30)
    traj = run(spec)
    assert traj.kl_values.size == 31   # ran to completion
    assert np.isnan(traj.kl_values).any()
