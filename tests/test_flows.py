import re

import numpy as np
import pytest

from simplex_flows import flows
from simplex_flows.coords import SimplexPoint, to_eta
from simplex_flows.errors import BoundaryEscape
from simplex_flows.flows import (FlowSpec, Trajectory, integrate,
                                 integrate_batch, natural_flow_exact)
from simplex_flows.geometry import make_identity_chart
from simplex_flows.lab import draw_instance, sandwich_experiment
from simplex_flows.coords import to_theta
from simplex_flows.rng import make_rng, random_simplex_point


def _pair(seed, n):
    rng = make_rng(seed)
    return random_simplex_point(rng, n), random_simplex_point(rng, n)


def test_spec_validation():
    q, p0 = _pair(0, 2)
    with pytest.raises(ValueError):
        FlowSpec("nope", "eta", q, p0)
    with pytest.raises(ValueError):
        FlowSpec("Lq", "nope", q, p0)
    with pytest.raises(ValueError):
        FlowSpec("Lq", "affine_eta", q, p0)   # missing chart
    with pytest.raises(ValueError):
        FlowSpec("Lq", "eta", q, random_simplex_point(make_rng(1), 3))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), np.zeros(2))


@pytest.mark.parametrize("n", [2, 10])
def test_natural_flow_matches_closed_form(n):
    q, p0 = _pair(2, n)
    spec = FlowSpec("Lq", "natural_eta", q, p0)
    traj = integrate(spec, 2.0, dt=1e-3, sample_every=50)
    eq, e0 = to_eta(q), to_eta(p0)
    for t, state in zip(traj.times, traj.states):
        exact = natural_flow_exact(eq, e0, float(t)).eta
        assert np.abs(state - exact).max() < 1e-8


def test_natural_flow_exact_validation():
    q, p0 = _pair(3, 2)
    with pytest.raises(ValueError):
        natural_flow_exact(to_eta(q), to_eta(p0), -1.0)


@pytest.mark.parametrize("chart", ["eta", "theta", "natural_eta"])
def test_kl_decreases_monotonically(chart):
    q, p0 = _pair(4, 3)
    spec = FlowSpec("Lq", chart, q, p0)
    traj = integrate(spec, 2.0, dt=1e-3, sample_every=10)
    assert traj.kl_values[0] > traj.kl_values[-1]
    assert np.all(np.diff(traj.kl_values) <= 1e-12)


def test_lstar_flows_decrease_kl():
    q, p0 = _pair(5, 3)
    for chart in ("eta", "theta", "natural_theta", "natural_eta"):
        spec = FlowSpec("Lstar", chart, q, p0)
        traj = integrate(spec, 1.0, dt=1e-3, sample_every=10)
        assert traj.kl_values[-1] < traj.kl_values[0]
        assert np.all(np.diff(traj.kl_values) <= 1e-12)


@pytest.mark.parametrize("loss", ["Lq", "Lstar"])
def test_converged_kl_is_never_negative(loss):
    # a lopsided target reached early: thousands of samples sit at the
    # optimum, where KL as a difference of sums rounds to about -5e-17
    q = SimplexPoint(np.array([0.98, 0.01, 0.01]))
    p0 = SimplexPoint(np.array([0.001, 0.499, 0.5]))
    traj = integrate(FlowSpec(loss, "eta", q, p0), 20.0, dt=1e-3,
                     sample_every=1)
    assert traj.kl_values.min() >= 0.0
    assert traj.kl_values[-1] < 1e-15


@pytest.mark.parametrize("dt", [0.2, 0.1, 1e-3])
def test_accuracy_does_not_depend_on_dt(dt):
    # dt only sets the sample grid and the first trial step; the adaptive
    # step keeps the path on the closed form at every sample
    q, p0 = _pair(6, 2)
    spec = FlowSpec("Lq", "natural_eta", q, p0)
    traj = integrate(spec, 1.0, dt=dt, sample_every=1)
    eq, e0 = to_eta(q), to_eta(p0)
    for t, state in zip(traj.times, traj.states):
        exact = natural_flow_exact(eq, e0, float(t)).eta
        assert np.abs(state - exact).max() < 1e-9


def test_last_sample_is_exactly_t_end():
    q, p0 = _pair(6, 2)
    spec = FlowSpec("Lq", "eta", q, p0)
    traj = integrate(spec, 1.0, dt=0.3, sample_every=1)
    assert traj.times[:-1] == pytest.approx([0.0, 0.3, 0.6, 0.9])
    assert traj.times[-1] == 1.0
    # n*dt equal to t_end up to rounding gives no duplicate end point
    traj = integrate(spec, 1.0, dt=0.1, sample_every=1)
    assert traj.times.size == 11 and traj.times[-1] == 1.0
    assert np.all(np.diff(traj.times) > 0)


def test_sandwich_trajectories_end_at_horizons():
    summary = sandwich_experiment(2, 3, seed=1)
    for chart, (times, _states, _kls) in summary["_trajectories"].items():
        assert times[-1] == summary["horizons"][chart]


def test_flows_in_different_charts_agree_on_the_path():
    # the eta flow and the theta flow solve different ODEs, but both end
    # near the optimum; compare each against a refined version of itself
    q, p0 = _pair(7, 3)
    for chart in ("eta", "theta"):
        spec = FlowSpec("Lq", chart, q, p0)
        coarse = integrate(spec, 1.0, dt=1e-2, sample_every=10 ** 6)
        fine = integrate(spec, 1.0, dt=1e-3, sample_every=10 ** 6)
        assert np.abs(coarse.states[-1] - fine.states[-1]).max() < 1e-5


def test_trivial_affine_chart_reproduces_plain_flows():
    from simplex_flows.geometry import AffineChart
    q, p0 = _pair(8, 2)
    chart = AffineChart(np.eye(2), np.zeros(2))
    for affine_chart, plain_chart in (("affine_theta", "theta"),
                                      ("affine_eta", "eta")):
        spec = FlowSpec("Lq", affine_chart, q, p0, affine=chart)
        traj = integrate(spec, 1.0, dt=1e-3, sample_every=100)
        ref = integrate(FlowSpec("Lq", plain_chart, q, p0), 1.0, dt=1e-3,
                        sample_every=100)
        assert np.abs(traj.kl_values - ref.kl_values).max() < 1e-10


def test_integrate_batch_shapes_and_consistency():
    rng = make_rng(9)
    q = random_simplex_point(rng, 3)
    inits = np.array([random_simplex_point(rng, 3).probs for _ in range(4)])
    times, states, kls = integrate_batch("Lq", "eta", q, inits, 0.5,
                                         dt=1e-3, sample_every=100)
    assert states.shape == (times.size, 4, 3)
    assert kls.shape == (times.size, 4)
    # batch row b equals a solo integration from init b
    solo = integrate(FlowSpec("Lq", "eta", q, SimplexPoint(inits[2])), 0.5,
                     dt=1e-3, sample_every=100)
    # the batch shares one step size, so the row follows other steps than
    # the solo run; both are accurate to the tolerances (RTOL = 1e-10)
    assert np.abs(states[:, 2, :] - solo.states).max() < 1e-9


def test_large_first_step_near_face_is_rejected_not_fatal():
    # a stiff mixture-chart flow from near the boundary: a first trial step
    # of 0.5 leaves the simplex, is rejected and retried smaller
    q = SimplexPoint(np.array([0.98, 0.01, 0.01]))
    p0 = SimplexPoint(np.array([0.001, 0.499, 0.5]))
    times, states, kls = integrate_batch("Lq", "eta", q, p0.probs[None, :],
                                         4.0, dt=0.5, sample_every=1)
    assert times[-1] == 4.0
    assert kls[-1, 0] < 1e-8


def test_invalid_initial_state_names_flow_and_rows():
    # eta = (0.5, 0.5) sums to 1, so the third point is on the eta chart's face
    q, p0 = _pair(12, 2)
    inits = np.array([p0.probs, q.probs, [0.5, 0.5, 1e-300]])
    with pytest.raises(BoundaryEscape, match=re.escape(
            "Lq/eta: initial state is not in the chart's valid set; "
            "failing batch rows [2]")):
        integrate_batch("Lq", "eta", q, inits, 1.0)


@pytest.mark.parametrize("t_end, dt, sample_every", [
    (-1.0, 1e-3, 10), (0.0, 1e-3, 10), (np.inf, 1e-3, 10), (np.nan, 1e-3, 10),
    (1.0, 0.0, 10), (1.0, -1.0, 10), (1.0, np.inf, 10), (1.0, np.nan, 10),
    (1.0, 1e-3, 0), (1.0, 1e-3, -3)])
def test_integrate_batch_rejects_bad_settings(t_end, dt, sample_every):
    q, p0 = _pair(10, 2)
    with pytest.raises(ValueError, match="finite and positive|at least 1"):
        integrate_batch("Lq", "eta", q, p0.probs[None, :], t_end, dt=dt,
                        sample_every=sample_every)


def test_boundary_escape_on_step_size_underflow(monkeypatch):
    # an rhs that turns NaN partway makes every later step fail, so the
    # step shrinks until it underflows; the error names where it stopped
    rhs = flows._Engine.rhs
    calls = []

    def failing_rhs(self, y):
        calls.append(1)
        out = rhs(self, y)
        return out if len(calls) < 50 else np.full_like(out, np.nan)

    monkeypatch.setattr(flows._Engine, "rhs", failing_rhs)
    q, p0 = _pair(11, 2)
    inits = np.array([p0.probs, q.probs])
    with pytest.raises(BoundaryEscape) as exc:
        integrate_batch("Lq", "theta", q, inits, 2.0, dt=1e-3)
    msg = str(exc.value)
    assert "Lq/theta" in msg and "h=" in msg and "rows [0, 1]" in msg
    assert 0.0 < float(re.search(r"t=(\S+)", msg).group(1)) < 2.0


def _oracle_cases(seed=0):
    """The 12 (loss, chart) pairs from a random start and a start near a
    face (min prob 0.01), with a c = 2 affine chart."""
    rng = make_rng(seed)
    q = draw_instance(rng, 2)
    random_start = random_simplex_point(rng, 2)
    face = random_simplex_point(rng, 2).probs.copy()
    k = int(np.argmin(face))
    face *= 0.99 / (face.sum() - face[k])
    face[k] = 0.01
    chart = make_identity_chart(to_theta(q), 2.0)
    for loss in flows.LOSSES:
        for name in flows.CHARTS:
            affine = chart if name.startswith("affine") else None
            for start, p0 in (("random", random_start),
                              ("near_face", SimplexPoint(face))):
                yield pytest.param(FlowSpec(loss, name, q, p0, affine),
                                   id=f"{loss}-{name}-{start}")


@pytest.mark.parametrize("spec", _oracle_cases())
def test_paths_match_high_order_oracle(spec):
    integrate_ivp = pytest.importorskip("scipy.integrate")
    traj = integrate(spec, 2.0, dt=1e-3, sample_every=1)
    eng = flows._Engine(spec.loss, spec.chart, spec.target, spec.affine)
    ref = integrate_ivp.solve_ivp(
        lambda t, y: eng.rhs(y[None, :])[0], (0.0, 2.0),
        eng.init_state(spec.init), method="DOP853", rtol=1e-13, atol=1e-15,
        t_eval=traj.times)
    assert ref.success
    assert np.abs(ref.y.T - traj.states).max() < 1e-8


def _tensordot_integrate(loss, chart, target, init_probs, t_end, dt,
                         sample_every, affine=None):
    """The integrator as it was written with one np.tensordot per stage
    combination, error estimate and dense-output block: the reference that
    the stage-matrix loop must reproduce bit for bit."""
    eng = flows._Engine(loss, chart, target, affine)
    y = np.vstack([eng.init_state(SimplexPoint(row)) for row in init_probs])
    grid = dt * np.arange(0, np.ceil(t_end / dt) + 1, sample_every)
    times = np.append(grid[grid < t_end - 1e-9 * dt], t_end)
    states = np.empty((times.size,) + y.shape)
    kls = np.empty(times.shape + y.shape[:1])
    states[0], kls[0] = y, eng.kl_to_target(y)
    k = np.empty((7,) + y.shape)
    k[0] = eng.rhs(y)
    t, h, j, grow = 0.0, dt, 1, flows.MAX_FACTOR
    while j < times.size:
        last = h >= t_end - t
        h = t_end - t if last else h
        with np.errstate(all="ignore"):
            for s in range(1, 7):
                y_new = y + h * np.tensordot(flows._A[s, :s], k[:s], axes=1)
                k[s] = eng.rhs(y_new)
            scale = flows.ATOL + flows.RTOL * np.maximum(np.abs(y),
                                                         np.abs(y_new))
            row_err = np.sqrt(np.mean(
                (h * np.tensordot(flows._E, k, axes=1) / scale) ** 2, axis=1))
            err = float(np.sqrt(np.mean(row_err ** 2)))
            valid = eng.valid(y_new)
        if err <= 1.0 and valid.all():
            t_new = t_end if last else t + h
            m = j + int(np.searchsorted(times[j:], t_new, side="right"))
            if m > j:
                s = np.power.outer((times[j:m] - t) / h, np.arange(1, 5))
                states[j:m] = y + np.tensordot(h * flows._P @ s.T, k,
                                               axes=(0, 0))
                kls[j:m] = eng.kl_to_target(
                    states[j:m].reshape(-1, y.shape[1])).reshape(m - j, -1)
            y, t, j, k[0] = y_new, t_new, m, k[6]
            h *= min(grow, flows.SAFETY * err ** -0.2) if err > 0 else grow
            grow = flows.MAX_FACTOR
            continue
        h *= max(flows.MIN_FACTOR, min(1.0, flows.SAFETY * err ** -0.2)) \
            if 1.0 < err < np.inf else flows.MIN_FACTOR
        grow = 1.0
    return times, states, kls


def _stage_matrix_cases():
    rng = make_rng(4)
    q = draw_instance(rng, 2)
    inits = np.vstack([random_simplex_point(rng, 2).probs for _ in range(37)])
    chart = make_identity_chart(to_theta(q), 2.0)
    for loss in flows.LOSSES:
        for name in flows.CHARTS:
            affine = chart if name.startswith("affine") else None
            for batch in (1, 37):
                yield pytest.param(loss, name, q, inits[:batch], 2.0, 1e-3, 7,
                                   affine, id=f"{loss}-{name}-B{batch}")
    # a first trial step of 0.5 leaves the simplex: rejected steps
    yield pytest.param("Lq", "eta", SimplexPoint(np.array([0.98, 0.01, 0.01])),
                       np.array([[0.001, 0.499, 0.5]]), 4.0, 0.5, 1, None,
                       id="near-face-dt-0.5")


@pytest.mark.parametrize("loss, chart, target, inits, t_end, dt, every, affine",
                         _stage_matrix_cases())
def test_stage_matrix_step_equals_tensordot_step(loss, chart, target, inits,
                                                 t_end, dt, every, affine):
    got = integrate_batch(loss, chart, target, inits, t_end, dt=dt,
                          sample_every=every, affine=affine)
    want = _tensordot_integrate(loss, chart, target, inits, t_end, dt, every,
                                affine)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_dense_output_coefficients_match_scipy():
    rk = pytest.importorskip("scipy.integrate._ivp.rk")
    assert np.array_equal(flows._P, rk.RK45.P)
    assert np.array_equal(flows._A[:6, :5], rk.RK45.A)
    assert np.array_equal(flows._A[6], rk.RK45.B)
    assert np.array_equal(flows._E, -rk.RK45.E)


def test_substepping_keeps_stiff_flow_stable():
    # same setup, small first step: integrates cleanly to the optimum
    q = SimplexPoint(np.array([0.98, 0.01, 0.01]))
    p0 = SimplexPoint(np.array([0.001, 0.499, 0.5]))
    times, states, kls = integrate_batch("Lq", "eta", q, p0.probs[None, :],
                                         4.0, dt=1e-2, sample_every=100)
    assert kls[-1, 0] < 1e-8


def test_integrate_rejects_bad_arguments():
    q, p0 = _pair(10, 2)
    spec = FlowSpec("Lq", "eta", q, p0)
    with pytest.raises(ValueError):
        integrate(spec, -1.0)
    with pytest.raises(ValueError):
        integrate(spec, 1.0, dt=0.0)
