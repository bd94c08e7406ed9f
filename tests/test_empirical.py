import numpy as np
import pytest

from simplex_flows.coords import SimplexPoint
from simplex_flows.descent import DescentSpec, run
from simplex_flows.empirical import run_empirical
from simplex_flows.geometry import kl
from simplex_flows.lab import draw_dataset
from simplex_flows.rng import make_rng, random_simplex_point


def _q_hat(rng, q, n_samples):
    return SimplexPoint(draw_dataset(rng, q, n_samples)[1])


def test_full_batch_is_bit_identical_to_descent():
    rng = make_rng(1)
    q = random_simplex_point(rng, 3)
    q_hat = _q_hat(make_rng(2), q, 10000)
    p0 = random_simplex_point(rng, 3)
    for method, lr in (("gd_eta", 0.001), ("ngd", 0.3), ("gd_theta", 0.3)):
        spec = DescentSpec(method, "nonlinear", q_hat, p0, lr, max_iters=40)
        emp, ref = run_empirical(spec, q), run(spec)
        assert np.array_equal(emp.times, ref.times)
        assert np.array_equal(emp.states, ref.states)
        # toward q_hat itself, the recorded KL is run's gap up to rounding
        assert np.allclose(run_empirical(spec, q_hat).kl_values,
                           ref.kl_values, rtol=1e-9, atol=1e-15)


def test_true_kl_plateaus_at_dataset_gap():
    # descent drives the gap to q_hat to zero while the KL to the true q
    # plateaus at the irreducible D(q||q_hat)
    rng = make_rng(3)
    q = random_simplex_point(rng, 2)
    q_hat = _q_hat(make_rng(1), q, 5000)
    p0 = random_simplex_point(rng, 2)
    spec = DescentSpec("ngd", "nonlinear", q_hat, p0, 0.9, max_iters=200)
    traj = run_empirical(spec, q)
    assert run(spec).kl_values[-1] < 1e-10
    assert traj.kl_values[0] == pytest.approx(kl(q, p0), rel=1e-12)
    assert traj.kl_values[-1] == pytest.approx(kl(q, q_hat), abs=1e-8)


def test_true_kl_is_inf_where_the_softmax_underflows():
    # a gd_theta step of 1e4 underflows a probability to 0: the KL to the
    # true target is then inf, as the gap to q_hat is, not a ValueError
    q_hat = SimplexPoint(np.array([30, 50, 20]) / 100)
    p0 = SimplexPoint(np.array([0.6, 0.3, 0.1]))
    q = SimplexPoint(np.array([0.25, 0.5, 0.25]))
    spec = DescentSpec("gd_theta", "nonlinear", q_hat, p0, 1e4, max_iters=5)
    assert np.isinf(run(spec).kl_values[1:]).all()
    traj = run_empirical(spec, q)
    assert traj.kl_values[0] == kl(q, p0)
    assert np.isinf(traj.kl_values[1:]).all()


def test_run_empirical_argument_validation():
    rng = make_rng(7)
    q = random_simplex_point(rng, 2)
    q_hat = _q_hat(make_rng(0), q, 1000)
    lin = DescentSpec("ngd", "linearized", q_hat, q, 0.5)
    with pytest.raises(ValueError, match="not the linearized variant"):
        run_empirical(lin, q)
