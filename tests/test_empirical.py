import re

import numpy as np
import pytest

from simplex_flows.coords import SimplexPoint
from simplex_flows.descent import DescentSpec, run
from simplex_flows.empirical import (Dataset, empirical_target, run_empirical,
                                     sample_dataset)
from simplex_flows.errors import BoundaryEscape, ZeroCount
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


def test_sample_dataset_reproducible():
    q = random_simplex_point(make_rng(0), 3)
    d1 = sample_dataset(q, 1000, seed=5)
    d2 = sample_dataset(q, 1000, seed=5)
    assert np.array_equal(d1.counts, d2.counts)
    assert d1.total == 1000


def test_empirical_target_and_zero_count():
    d = Dataset(np.array([10, 20, 70]))
    q_hat = empirical_target(d)
    assert np.allclose(q_hat.probs, [0.1, 0.2, 0.7])
    with pytest.raises(ZeroCount):
        empirical_target(Dataset(np.array([5, 0, 5])))


def test_full_batch_is_bit_identical_to_descent():
    rng = make_rng(1)
    q = random_simplex_point(rng, 3)
    d = sample_dataset(q, 10000, seed=2)
    q_hat = empirical_target(d)
    p0 = random_simplex_point(rng, 3)
    spec = DescentSpec("gd_theta", "nonlinear", q_hat, p0, 0.3, max_iters=40)
    emp = run_empirical(spec, d)
    ref = run(spec)
    assert np.array_equal(emp.states, ref.states)
    assert np.array_equal(emp.loss_gaps, ref.kl_values)


@pytest.mark.parametrize("n", [2, 10])
@pytest.mark.parametrize("method,alpha", [("gd_eta", 0.001), ("gd_theta", 0.3),
                                          ("ngd", 0.3)])
def test_whole_dataset_minibatch_is_bit_identical_to_full_batch(method, alpha,
                                                                n):
    # drawing every sample without replacement gives q_hat exactly, so each
    # step must be the full-batch step: one method, one update
    rng = make_rng(13)
    q = random_simplex_point(rng, n)
    d = sample_dataset(q, 10000, seed=3)
    p0 = random_simplex_point(rng, n)
    spec = DescentSpec(method, "nonlinear", empirical_target(d), p0, alpha,
                       max_iters=40)
    full = run_empirical(spec, d, true_target=q)
    mini = run_empirical(spec, d, minibatch=d.total, true_target=q, seed=5)
    assert np.array_equal(mini.states, full.states)
    assert np.array_equal(mini.loss_gaps, full.loss_gaps)
    assert np.array_equal(mini.kl_values, full.kl_values)


def test_run_empirical_checks_target():
    rng = make_rng(2)
    q = random_simplex_point(rng, 2)
    d = sample_dataset(q, 1000, seed=0)
    spec = DescentSpec("ngd", "nonlinear", q, q, 0.5)   # target is q, not q_hat
    with pytest.raises(ValueError):
        run_empirical(spec, d)


def test_true_kl_plateaus_at_dataset_gap():
    # descent drives the gap to q_hat to zero while the KL to the true q
    # plateaus at the irreducible D(q||q_hat)
    rng = make_rng(3)
    q = random_simplex_point(rng, 2)
    d = sample_dataset(q, 5000, seed=1)
    q_hat = empirical_target(d)
    p0 = random_simplex_point(rng, 2)
    spec = DescentSpec("ngd", "nonlinear", q_hat, p0, 0.9, max_iters=200)
    traj = run_empirical(spec, d, true_target=q)
    assert traj.loss_gaps[-1] < 1e-10
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


def test_minibatch_gradient_is_unbiased():
    # the mean minibatch frequency over many draws approaches q_hat
    rng = make_rng(4)
    q = random_simplex_point(rng, 3)
    d = sample_dataset(q, 50000, seed=7)
    q_hat = empirical_target(d)
    draw_rng = make_rng(8)
    size, reps = 64, 3000
    acc = np.zeros(d.n + 1)
    for _ in range(reps):
        acc += draw_rng.multivariate_hypergeometric(d.counts, size) / size
    assert np.abs(acc / reps - q_hat.probs).max() < 0.02 * q_hat.probs.max()


def test_minibatch_run_approaches_qhat():
    rng = make_rng(5)
    q = random_simplex_point(rng, 2)
    d = sample_dataset(q, 100000, seed=3)
    q_hat = empirical_target(d)
    p0 = random_simplex_point(rng, 2)
    spec = DescentSpec("ngd", "nonlinear", q_hat, p0, 0.5, max_iters=300)
    traj = run_empirical(spec, d, minibatch=1000,
                         decay_a=100.0, seed=11)
    assert traj.loss_gaps[-1] < 0.01
    assert traj.loss_gaps[-1] < traj.loss_gaps[0]


def test_minibatch_survives_missed_outcomes():
    # tiny minibatches routinely miss an outcome; the cross-entropy form of
    # the gradient must stay finite anyway
    rng = make_rng(6)
    q = SimplexPoint(np.array([0.90, 0.05, 0.05]))
    d = sample_dataset(q, 10000, seed=4)
    q_hat = empirical_target(d)
    p0 = random_simplex_point(rng, 2)
    spec = DescentSpec("gd_theta", "nonlinear", q_hat, p0, 0.2, max_iters=100)
    traj = run_empirical(spec, d, minibatch=2, seed=12)
    assert np.all(np.isfinite(traj.states))


def test_minibatch_failure_names_method_iteration_and_step_size():
    rng = make_rng(10)
    random_simplex_point(rng, 2)
    p0 = random_simplex_point(rng, 2)
    d = Dataset(np.array([30, 50, 20]))
    spec = DescentSpec("gd_eta", "nonlinear", empirical_target(d), p0, 5.0,
                       max_iters=50)
    with pytest.raises(BoundaryEscape, match=re.escape(
            "gd_eta iterate left the simplex at iteration 1 (step size 5); "
            "reduce the step size")):
        run_empirical(spec, d, minibatch=10, seed=1)


def test_run_empirical_argument_validation():
    rng = make_rng(7)
    q = random_simplex_point(rng, 2)
    d = sample_dataset(q, 1000, seed=0)
    q_hat = empirical_target(d)
    spec = DescentSpec("ngd", "nonlinear", q_hat, q, 0.5)
    with pytest.raises(ValueError):
        run_empirical(spec, d, minibatch=0)
    with pytest.raises(ValueError):
        run_empirical(spec, d, minibatch=10 ** 9)
    with pytest.raises(ValueError):
        run_empirical(spec, d, decay_a=1000.0)   # decay, no minibatch
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="decay_a must be finite"):
            run_empirical(spec, d, minibatch=10, decay_a=bad)
    lin = DescentSpec("ngd", "linearized", q_hat, q, 0.5)
    with pytest.raises(ValueError):
        run_empirical(lin, d, minibatch=10)
