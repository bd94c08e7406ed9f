import numpy as np
import pytest

from simplex_flows.coords import SimplexPoint
from simplex_flows.descent import DescentSpec, run
from simplex_flows.empirical import Dataset, empirical_target, run_empirical
from simplex_flows.errors import ZeroCount
from simplex_flows.geometry import kl
from simplex_flows.rng import make_rng, random_simplex_point


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([1.5, 2.5]))            # not integers
    with pytest.raises(ValueError):
        Dataset(np.array([-1, 2]))
    with pytest.raises(ValueError):
        Dataset(np.array([0, 0]))
    d = Dataset(np.array([3, 4, 5]))
    assert d.total == 12 and d.n == 2


def test_empirical_target_and_zero_count():
    d = Dataset(np.array([10, 20, 70]))
    q_hat = empirical_target(d)
    assert np.allclose(q_hat.probs, [0.1, 0.2, 0.7])
    with pytest.raises(ZeroCount):
        empirical_target(Dataset(np.array([5, 0, 5])))


def test_full_batch_is_bit_identical_to_descent():
    rng = make_rng(1)
    q = random_simplex_point(rng, 3)
    d = Dataset(make_rng(2).multinomial(10000, q.probs))
    q_hat = empirical_target(d)
    p0 = random_simplex_point(rng, 3)
    spec = DescentSpec("gd_theta", "nonlinear", q_hat, p0, 0.3, max_iters=40)
    emp = run_empirical(spec, d)
    ref = run(spec)
    assert np.array_equal(emp.states, ref.states)
    assert np.array_equal(emp.kl_values, ref.kl_values)


def test_run_empirical_checks_target():
    rng = make_rng(2)
    q = random_simplex_point(rng, 2)
    d = Dataset(make_rng(0).multinomial(1000, q.probs))
    spec = DescentSpec("ngd", "nonlinear", q, q, 0.5)   # target is q, not q_hat
    with pytest.raises(ValueError):
        run_empirical(spec, d)


def test_true_kl_plateaus_at_dataset_gap():
    # descent drives the gap to q_hat to zero while the KL to the true q
    # plateaus at the irreducible D(q||q_hat)
    rng = make_rng(3)
    q = random_simplex_point(rng, 2)
    d = Dataset(make_rng(1).multinomial(5000, q.probs))
    q_hat = empirical_target(d)
    p0 = random_simplex_point(rng, 2)
    spec = DescentSpec("ngd", "nonlinear", q_hat, p0, 0.9, max_iters=200)
    traj = run_empirical(spec, d, true_target=q)
    assert run(spec).kl_values[-1] < 1e-10
    assert traj.kl_values[-1] == pytest.approx(kl(q, q_hat), abs=1e-8)


def test_true_kl_is_inf_where_the_softmax_underflows():
    # a gd_theta step of 1e4 underflows a probability to 0: the KL to the
    # true target is then inf, as the gap to q_hat is, not a ValueError
    d = Dataset(np.array([30, 50, 20]))
    p0 = SimplexPoint(np.array([0.6, 0.3, 0.1]))
    q = SimplexPoint(np.array([0.25, 0.5, 0.25]))
    spec = DescentSpec("gd_theta", "nonlinear", empirical_target(d), p0, 1e4,
                       max_iters=5)
    assert np.isinf(run_empirical(spec, d).kl_values[1:]).all()
    traj = run_empirical(spec, d, true_target=q)
    assert traj.kl_values[0] == kl(q, p0)
    assert np.isinf(traj.kl_values[1:]).all()


def test_run_empirical_argument_validation():
    rng = make_rng(7)
    q = random_simplex_point(rng, 2)
    d = Dataset(make_rng(0).multinomial(1000, q.probs))
    q_hat = empirical_target(d)
    lin = DescentSpec("ngd", "linearized", q_hat, q, 0.5)
    with pytest.raises(ValueError, match="not the linearized variant"):
        run_empirical(lin, d)
