import numpy as np
import pytest

from conftest import fd_gradient, fd_hessian, interior_point
from simplex_flows.coords import (EtaCoord, SimplexPoint, ThetaCoord, phi,
                                  psi, simplex_from_eta, simplex_from_theta,
                                  to_eta, to_theta)
from simplex_flows.geometry import (AffineChart, SymMatrix, bregman_phi,
                                    bregman_psi, curvature, field, grad_Lq_eta,
                                    grad_Lq_theta, grad_Lstar_eta,
                                    grad_Lstar_theta, hess_Lq_eta, hess_phi,
                                    hess_psi, kl, loss_Lq_theta,
                                    loss_Lstar_theta, loss_rows,
                                    make_identity_chart,
                                    natural_grad_Lq, natural_grad_Lstar)
from simplex_flows.rng import (make_rng, random_simplex_batch,
                               random_simplex_point)


def test_kl_basic_properties(rng):
    q = random_simplex_point(rng, 5)
    p = random_simplex_point(rng, 5)
    assert kl(q, q) == pytest.approx(0.0, abs=1e-15)
    assert kl(q, p) > 0.0
    with pytest.raises(ValueError):
        kl(q, random_simplex_point(rng, 3))


def test_kl_at_the_target_is_not_negative():
    # the sum q (log q - log p) rounds to just below 0 for about a third of
    # these targets when p is q rebuilt from its mixture coordinates
    rng = make_rng(0)
    for n in (2, 10):
        for _ in range(100):
            q = random_simplex_point(rng, n)
            assert kl(q, simplex_from_eta(to_eta(q))) >= 0.0


@pytest.mark.parametrize("n", [1, 2, 10, 20])
@pytest.mark.parametrize("m", [1, 3, 768])
def test_lstar_loss_rows_equal_one_row_calls(m, n):
    rng = make_rng(n)
    target = random_simplex_point(rng, n).probs
    probs = random_simplex_batch(rng, n, m)
    values = loss_rows("Lstar", target, probs)
    for row, value in zip(probs, values):
        alone = loss_rows("Lstar", target, row[None])[0]
        assert value.tobytes() == alone.tobytes()


def test_three_divergences_coincide(rng):
    for _ in range(50):
        q = random_simplex_point(rng, 4)
        p = random_simplex_point(rng, 4)
        d = kl(q, p)
        assert bregman_psi(to_theta(p), to_theta(q)) == pytest.approx(d, abs=1e-12)
        assert bregman_phi(to_eta(q), to_eta(p)) == pytest.approx(d, abs=1e-12)


def test_hessians_match_finite_differences(rng):
    for _ in range(20):
        p = interior_point(rng, 3)
        e, t = to_eta(p), to_theta(p)
        fd_phi = fd_hessian(lambda x: phi(EtaCoord(x)), e.eta, h=1e-4)
        fd_psi = fd_hessian(lambda x: psi(ThetaCoord(x)), t.theta, h=1e-4)
        h_phi = hess_phi(e).entries
        h_psi = hess_psi(t).entries
        assert np.abs(fd_phi - h_phi).max() <= 1e-4 * max(1.0, np.abs(h_phi).max())
        assert np.abs(fd_psi - h_psi).max() <= 1e-4 * max(1.0, np.abs(h_psi).max())


def test_hessians_are_mutually_inverse(rng):
    for n in (2, 10):
        for _ in range(20):
            p = random_simplex_point(rng, n)
            prod = hess_phi(to_eta(p)).entries @ hess_psi(to_theta(p)).entries
            assert np.abs(prod - np.eye(n)).max() < 1e-10


@pytest.mark.parametrize("n", [2, 5, 10])
def test_curvature_is_the_hessian_of_lq_at_its_optimum(n):
    for seed in range(5):
        q = random_simplex_point(make_rng(seed), n)
        eq, tq = to_eta(q), to_theta(q)
        h_eta, h_theta = curvature("eta", q), curvature("theta", q)
        # the arithmetic of the potentials' Hessians, bit for bit
        assert h_eta.tobytes() == hess_phi(eq).entries.tobytes()
        assert h_theta.tobytes() == hess_psi(tq).entries.tobytes()
        h_lq = hess_Lq_eta(eq, eq).entries
        assert np.abs(h_eta - h_lq).max() <= 1e-12 * np.abs(h_lq).max()
        fd = fd_hessian(lambda x: loss_Lq_theta(ThetaCoord(x), q), tq.theta)
        assert np.abs(h_theta - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())
        # the natural fields at their optimum: Jacobian -I
        natural = (("natural_eta", eq.eta), ("natural_theta", tq.theta))
        for chart, x_q in natural:
            assert np.array_equal(curvature(chart, q), np.eye(n))
            jac = np.array([fd_gradient(
                lambda x: field("Lq", chart, x[None], eq.eta)[0, i], x_q)
                for i in range(n)])
            assert np.abs(jac + np.eye(n)).max() <= 1e-7
    with pytest.raises(ValueError, match="unknown chart"):
        curvature("affine_eta", q)


def test_gradients_match_finite_differences(rng):
    for _ in range(20):
        q = interior_point(rng, 3)
        p = interior_point(rng, 3)
        ep, eq = to_eta(p), to_eta(q)
        tp, tq = to_theta(p), to_theta(q)

        def lq_eta(x):
            return kl(q, simplex_from_eta(EtaCoord(x)))

        def lq_theta(x):
            return kl(q, simplex_from_theta(ThetaCoord(x)))

        def lstar_eta(x):
            return kl(simplex_from_eta(EtaCoord(x)), p)

        def lstar_theta(x):
            return kl(simplex_from_theta(ThetaCoord(x)), p)

        checks = [
            (grad_Lq_eta(ep, eq), fd_gradient(lq_eta, ep.eta)),
            (grad_Lq_theta(tp, tq), fd_gradient(lq_theta, tp.theta)),
            (grad_Lstar_eta(eq, ep), fd_gradient(lstar_eta, eq.eta)),
            (grad_Lstar_theta(tq, tp), fd_gradient(lstar_theta, tq.theta)),
        ]
        for analytic, numeric in checks:
            scale = max(1.0, np.abs(analytic).max())
            assert np.abs(analytic - numeric).max() <= 1e-5 * scale


def test_hess_Lq_eta_matches_finite_differences(rng):
    q = interior_point(rng, 3)
    p = interior_point(rng, 3)

    def loss(x):
        return kl(q, simplex_from_eta(EtaCoord(x)))

    h = hess_Lq_eta(to_eta(p), to_eta(q)).entries
    fd = fd_hessian(loss, to_eta(p).eta, h=1e-4)
    assert np.abs(h - fd).max() <= 1e-4 * max(1.0, np.abs(h).max())


def test_natural_gradients_are_coordinate_differences(rng):
    q = random_simplex_point(rng, 4)
    p = random_simplex_point(rng, 4)
    ep, eq = to_eta(p), to_eta(q)
    tp, tq = to_theta(p), to_theta(q)
    assert np.allclose(natural_grad_Lq(ep, eq), ep.eta - eq.eta)
    assert np.allclose(natural_grad_Lstar(tq, tp), tq.theta - tp.theta)
    # preconditioning the plain gradient by the inverse Fisher gives the same
    h_inv = np.linalg.inv(hess_phi(ep).entries)
    assert np.abs(h_inv @ grad_Lq_eta(ep, eq)
                  - natural_grad_Lq(ep, eq)).max() < 1e-10


def test_field_rows_agree_with_dense_hessians(rng):
    # five rows, each against its own target: the plain fields are the
    # Hessian of the potential times a coordinate difference, and each
    # natural field is the inverse Hessian times the plain one
    points = random_simplex_batch(rng, 6, 5)
    targets = random_simplex_batch(rng, 6, 5)
    e, eq = points[:, :-1], targets[:, :-1]
    th = np.log(points[:, :-1]) - np.log(points[:, -1:])
    tp = np.log(targets[:, :-1]) - np.log(targets[:, -1:])
    fields = {(loss, chart): field(loss, chart, th if chart.endswith("theta")
                                   else e, eq if loss == "Lq" else tp)
              for loss in ("Lq", "Lstar")
              for chart in ("eta", "theta", "natural_eta", "natural_theta")}
    for b, p in enumerate(points):
        h_phi = hess_phi(to_eta(SimplexPoint(p))).entries
        h_psi = hess_psi(to_theta(SimplexPoint(p))).entries
        row = {key: value[b] for key, value in fields.items()}
        assert np.abs(row["Lq", "eta"] - h_phi @ (eq[b] - e[b])).max() < 1e-10
        assert np.abs(row["Lstar", "theta"]
                      - h_psi @ (tp[b] - th[b])).max() < 1e-10
        for loss, plain, natural, h in (
                ("Lq", "eta", "natural_eta", h_phi),
                ("Lq", "theta", "natural_theta", h_psi),
                ("Lstar", "eta", "natural_eta", h_phi),
                ("Lstar", "theta", "natural_theta", h_psi)):
            want = np.linalg.inv(h) @ row[loss, plain]
            scale = max(1.0, np.abs(want).max())
            assert np.abs(row[loss, natural] - want).max() < 1e-10 * scale


def test_sym_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[1.0, 2.0], [3.0, 1.0]]))
    with pytest.raises(ValueError):
        SymMatrix(np.ones((2, 3)))


def test_affine_chart_roundtrip(rng):
    # base rows are barred rows @ m + b, and w @ (x - b) inverts the map
    chart = AffineChart(np.array([[2.0, 0.3], [0.1, 1.5]]),
                        np.array([0.5, -0.2]))
    p = random_simplex_point(rng, 2)
    for base, x in (("theta", to_theta(p).theta), ("eta", to_eta(p).eta)):
        m, b, w = chart.base_map(base)
        barred = w @ (x - b)
        assert np.abs(barred @ m + b - x).max() < 1e-12
        assert np.abs(m @ w.T - np.eye(2)).max() < 1e-12
    assert np.array_equal(chart.base_map("eta")[1], np.zeros(2))
    with pytest.raises(ValueError):
        chart.base_map("natural_eta")
    with pytest.raises(ValueError):
        AffineChart(np.zeros((2, 2)), np.zeros(2))


def test_affine_chart_gradient_transformation(rng):
    # the gradient in the barred theta chart is the theta gradient @ m^T
    q = interior_point(rng, 2)
    p = interior_point(rng, 2)
    chart = AffineChart(np.array([[1.2, -0.4], [0.2, 0.8]]), np.array([0.1, 0.3]))
    m, b, w = chart.base_map("theta")
    tb = w @ (to_theta(p).theta - b)

    def barred_loss(x):
        return loss_Lq_theta(ThetaCoord(x @ m + b), q)

    analytic = grad_Lq_theta(to_theta(p), to_theta(q)) @ m.T
    numeric = fd_gradient(barred_loss, tb)
    assert np.abs(analytic - numeric).max() < 1e-5 * max(1.0, np.abs(analytic).max())


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_make_identity_chart_equalizes_hessians(rng, c):
    # m H m^T of each base chart's curvature: c I in etabar, I / c in thetabar
    q = random_simplex_point(rng, 5)
    tq = to_theta(q)
    chart = make_identity_chart(tq, c)
    n = q.n
    for base, h, identity in (("eta", hess_phi(to_eta(q)).entries, c * np.eye(n)),
                              ("theta", hess_psi(tq).entries, np.eye(n) / c)):
        m = chart.base_map(base)[0]
        assert np.abs(m @ h @ m.T - identity).max() < 1e-10
    for bad in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="c must be finite and positive"):
            make_identity_chart(tq, bad)


def test_lstar_theta_loss_value(rng):
    p = random_simplex_point(rng, 2)
    q = random_simplex_point(rng, 2)
    assert loss_Lstar_theta(to_theta(q), p) == pytest.approx(kl(q, p), abs=1e-14)
    assert loss_Lq_theta(to_theta(p), q) == pytest.approx(kl(q, p), abs=1e-14)
