import re
import warnings

import numpy as np
import pytest

from simplex_flows import coords, geometry, lab
from simplex_flows.coords import (SimplexPoint, ThetaCoord, probs_rows,
                                  softmax_rows, state_rows, to_eta, to_theta)
from simplex_flows.descent import (VARIANTS, DescentSpec, check_rows,
                                   closed_loop, descend_rows,
                                   destabilizing_delta, optimal_lr, run, step,
                                   step_rows)
from simplex_flows.errors import BoundaryEscape, NonFinite
from simplex_flows.geometry import hess_phi, hess_psi, kl, kl_rows
from simplex_flows.rng import (make_rng, random_simplex_batch,
                               random_simplex_point)
from simplex_flows.spectral import eigh


def _pair(seed, n):
    rng = make_rng(seed)
    return random_simplex_point(rng, n), random_simplex_point(rng, n)


def _step_path(spec, state):
    # the states of spec.max_iters linearized steps, the start included
    path = [state]
    for _ in range(spec.max_iters):
        path.append(step(spec, path[-1]))
    return np.array([s.theta if spec.method == "gd_theta" else s.eta
                     for s in path])


def test_spec_validation():
    q, p0 = _pair(0, 2)
    with pytest.raises(ValueError):
        DescentSpec("nope", "nonlinear", q, p0, 0.1)
    with pytest.raises(ValueError):
        DescentSpec("ngd", "nope", q, p0, 0.1)
    with pytest.raises(ValueError):
        DescentSpec("ngd", "nonlinear", q, p0, -0.1)
    with pytest.raises(ValueError, match="not the linearized variant"):
        run(DescentSpec("ngd", "linearized", q, p0, 0.1))


def test_linearized_ngd_converges_in_one_step_at_alpha_one():
    q, p0 = _pair(1, 5)
    spec = DescentSpec("ngd", "linearized", q, p0, 1.0)
    out = step(spec, to_eta(p0))
    assert np.array_equal(out.eta, to_eta(q).eta)   # exact, not approximate
    assert kl_rows(q.probs, probs_rows("ngd", out.eta[None, :]))[0] == 0.0


def test_linearized_run_matches_matrix_recursion():
    # the linearized iterates must follow e(k+1) = (I - alpha Q) e(k) exactly
    q, p0 = _pair(2, 3)
    alpha = 0.05
    for method, x_star, q_mat in (
            ("gd_eta", to_eta(q).eta, hess_phi(to_eta(q)).entries),
            ("gd_theta", to_theta(q).theta, hess_psi(to_theta(q)).entries)):
        spec = DescentSpec(method, "linearized", q, p0, alpha, max_iters=20)
        start = to_eta(p0) if method == "gd_eta" else to_theta(p0)
        states = _step_path(spec, start)
        e = states[0] - x_star
        m = np.eye(q.n) - alpha * q_mat
        for k, state in enumerate(states):
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
    eigs = np.linalg.eigvals(closed_loop(q_mat, alpha, delta))
    assert np.abs(eigs + 1.0).min() < 1e-10


@pytest.mark.parametrize("method", ["gd_eta", "gd_theta", "ngd"])
def test_closed_loop_is_the_one_linearized_update(method):
    # closed_loop at no perturbation is I - alpha Q, and the linearized step
    # is x* + closed_loop(Q, alpha) (x - x*), both bit for bit; the start is
    # close enough to q that a step at either stable rate stays interior
    for seed in range(10):
        for n in (2, 10):
            q, r = _pair(seed, n)
            p0 = SimplexPoint(0.999 * q.probs + 0.001 * r.probs)
            if method == "gd_theta":
                x_star, x0 = to_theta(q).theta, to_theta(p0).theta
                q_mat = hess_psi(to_theta(q)).entries
            else:
                x_star, x0 = to_eta(q).eta, to_eta(p0).eta
                q_mat = (hess_phi(to_eta(q)).entries if method == "gd_eta"
                         else np.eye(n))
            for rule in ("optimal", "standard"):
                alpha = optimal_lr(q_mat, rule)
                m = closed_loop(q_mat, alpha)
                assert m.tobytes() == (np.eye(n) - alpha * q_mat).tobytes()
                spec = DescentSpec(method, "linearized", q, p0, alpha)
                start = to_theta(p0) if method == "gd_theta" else to_eta(p0)
                out = step(spec, start)
                got = out.theta if method == "gd_theta" else out.eta
                assert got.tobytes() == (x_star + m @ (x0 - x_star)).tobytes()


@pytest.mark.parametrize("kind", ["multiplicative", "additive"])
def test_robustness_studies_use_closed_loop(monkeypatch, kind):
    # both noise studies build each gd closed loop with closed_loop: the
    # destabilizing perturbation in the multiplicative study, none in the
    # additive one
    q = random_simplex_point(make_rng(0), 2)
    calls = []

    def counted(q_mat, alpha, delta=0.0):
        calls.append((q_mat, alpha, delta))
        return closed_loop(q_mat, alpha, delta)

    monkeypatch.setattr(lab, "closed_loop", counted)
    summary = lab.robustness_experiment(kind, q, [0])
    assert all(summary["assertions"].values())
    curvatures = (hess_phi(to_eta(q)).entries, hess_psi(to_theta(q)).entries)
    assert len(calls) == len(curvatures)
    for (q_mat, alpha, delta), expect in zip(calls, curvatures):
        assert q_mat.tobytes() == expect.tobytes()
        assert alpha == optimal_lr(expect, "optimal")
        if kind == "multiplicative":
            assert np.array_equal(delta, destabilizing_delta(expect).entries)
        else:
            assert np.array_equal(delta, 0.0)


def test_nonlinear_ngd_is_the_mixture_update_from_far_away():
    # ngd iterates eta <- eta - alpha (eta - eta_q) in both variants, so it
    # lands on the target in one step at alpha = 1 even from far away
    q, p0 = _pair(8, 2)
    assert kl(q, p0) > 0.1
    one = run(DescentSpec("ngd", "nonlinear", q, p0, 1.0, max_iters=1))
    assert one.kl_values[1] < 1e-15
    nonlinear = run(DescentSpec("ngd", "nonlinear", q, p0, 0.3, max_iters=40))
    states = _step_path(DescentSpec("ngd", "linearized", q, p0, 0.3,
                                    max_iters=40), to_eta(p0))
    kls = [kl_rows(q.probs, probs_rows("ngd", x[None, :]))[0] for x in states]
    assert np.abs(nonlinear.states - states).max() < 1e-14
    assert np.abs(nonlinear.kl_values - kls).max() < 1e-14


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
    states = _step_path(spec, to_eta(p0))
    e0 = to_eta(p0).eta - to_eta(q).eta
    for k, state in enumerate(states):
        expect = to_eta(q).eta + (1.0 - alpha) ** k * e0
        assert np.abs(state - expect).max() < 1e-12


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_leaving_the_simplex_raises_boundary_escape(variant):
    q, p0 = _pair(10, 2)
    spec = DescentSpec("gd_eta", variant, q, p0, 5.0)
    with pytest.raises(BoundaryEscape, match=re.escape(
            "gd_eta iterate left the simplex at iteration 1 (step size 5)")):
        step(spec, to_eta(p0))


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_overflowing_theta_raises_non_finite(variant):
    q = SimplexPoint(np.array([0.1, 0.8, 0.1]))
    spec = DescentSpec("gd_theta", variant, q, q, 1e308)
    message = "gd_theta iterate overflowed at iteration 1 (step size 1e+308)"
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFinite, match=re.escape(message)):
        step(spec, ThetaCoord(np.array([1.5e308, 1.5e308])))


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


@pytest.mark.parametrize("drawn", [False, True])
def test_gd_theta_descent_carries_its_probability_rows(monkeypatch, drawn):
    # the gaps' probability rows feed the next step: one softmax per
    # iteration, and the states and gaps of stepping by the field itself
    rng = make_rng(4)
    q = random_simplex_point(rng, 5).probs
    x0 = state_rows("gd_theta", random_simplex_batch(rng, 5, 8))
    lr = np.geomspace(0.5, 4.0, 8)
    targets = random_simplex_batch(rng, 5, 8)[:, :-1]
    draw = (lambda rows: targets[rows]) if drawn else None
    calls = []

    def counted(x):
        calls.append(len(x))
        return softmax_rows(x)

    monkeypatch.setattr(coords, "softmax_rows", counted)
    monkeypatch.setattr(geometry, "softmax_rows", counted)
    got = list(descend_rows("gd_theta", x0, lr, q, 1e-3, 30, draw=draw))
    monkeypatch.undo()
    assert len(calls) == len(got) == 31
    rows, x, lr_col = np.arange(8), x0, lr[:, None]
    for k, got_rows, got_x, got_gaps in got:
        if k:
            x = step_rows("gd_theta", x, targets[rows] if drawn else q[:-1],
                          lr_col)
        gaps = kl_rows(q, probs_rows("gd_theta", x))
        assert got_rows.tolist() == rows.tolist()
        assert got_x.tobytes() == x.tobytes()
        assert got_gaps.tobytes() == gaps.tobytes()
        live = ~(gaps <= 1e-3)
        rows, x, lr_col = rows[live], x[live], lr_col[live]
    assert 0 < len(rows) < 8 or drawn
