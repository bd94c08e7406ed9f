import re

import numpy as np
import pytest

from simplex_flows import flows
from simplex_flows.coords import SimplexPoint, to_eta, valid_rows
from simplex_flows.errors import BoundaryEscape
from simplex_flows.flows import (FlowSpec, Trajectory, integrate,
                                 integrate_batch, integrate_blocks,
                                 natural_flow_exact, sample_times)
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


_AFFINE = make_identity_chart(to_theta(_pair(0, 2)[0]), 2.0)


@pytest.mark.parametrize("entry", ["spec", "blocks", "batch"])
@pytest.mark.parametrize("loss, chart, affine, n_init, problem", [
    ("nope", "eta", None, 2, "unknown loss 'nope'"),
    ("Lq", "nope", None, 2, "unknown chart 'nope'"),
    ("Lq", "eta", None, 3, "init has 3 coordinates, target 2"),
    ("Lstar", "affine_theta", _AFFINE, 1, "init has 1 coordinates, target 2"),
    ("Lq", "affine_eta", None, 2,
     "affine chart requires an AffineChart, got None"),
    ("Lstar", "affine_theta", "chart", 2,
     "affine chart requires an AffineChart, got 'chart'"),
    ("Lq", "theta", _AFFINE, 2, "affine chart given but chart is not affine"),
    ("Lq", "affine_eta", make_identity_chart(to_theta(_pair(0, 3)[0]), 2.0), 2,
     "affine chart has 3 coordinates, target 2"),
], ids=["loss", "chart", "init", "affine-init", "no-affine", "not-affine",
        "affine-on-plain", "affine-dim"])
def test_flow_arguments_raise_value_error_naming_loss_and_chart(
        entry, loss, chart, affine, n_init, problem):
    q = _pair(0, 2)[0]
    p0 = random_simplex_point(make_rng(1), n_init)
    message = re.escape(f"{loss}/{chart}: {problem}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        if entry == "spec":
            FlowSpec(loss, chart, q, p0, affine)
        elif entry == "blocks":
            next(integrate_blocks(loss, chart, q, p0.probs[None], 1.0,
                                  affine=affine))
        else:
            integrate_batch(loss, chart, q, p0.probs[None], 1.0, affine=affine)


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
    # the last time the sandwich's own stream yields for each chart
    summary = sandwich_experiment(2, 3, seed=1)
    for chart, (t_chart, dt_chart) in summary["_grids"].items():
        *_, (block_times, _, _) = integrate_blocks(
            "Lq", chart, summary["_target"], summary["_inits"], t_chart,
            dt=dt_chart, sample_every=summary["config"]["sample_every"])
        assert block_times[-1] == summary["horizons"][chart]


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
    # the affine eta chart maps the eta chart's states: the same row fails
    chart = make_identity_chart(to_theta(q), 2.0)
    with pytest.raises(BoundaryEscape, match=re.escape(
            "Lq/affine_eta: initial state is not in the chart's valid set; "
            "failing batch rows [2]")):
        integrate_batch("Lq", "affine_eta", q, inits, 1.0, affine=chart)


@pytest.mark.parametrize("bad_row, reason", [
    ([np.nan, 0.5, 0.5], "probabilities must be finite"),
    ([1.25, -0.25, 0.0], "probabilities must be strictly positive "
     "(min entry -0.25)"),
    ([0.5, 0.5, 1e-301], "probabilities must be strictly positive "
     "(min entry 1e-301)"),
    ([0.25 + 2e-9, 0.25, 0.5], "probabilities must sum to 1, got "
     "1.000000002")])
def test_bad_init_rows_name_the_flow_and_the_rows(bad_row, reason):
    # every failing row is named, with SimplexPoint's reason for the first
    q = random_simplex_point(make_rng(13), 2)
    inits = np.tile([0.25, 0.25, 0.5], (5, 1))
    inits[[1, 3]] = bad_row
    inits[4, -1] += 5e-10  # a sum off by 5e-10 is within SUM_TOL
    for chart in ("theta", "natural_eta"):
        with pytest.raises(ValueError, match=re.escape(
                f"Lq/{chart}: init rows [1, 3] are not probability "
                f"vectors: {reason}")):
            integrate_batch("Lq", chart, q, inits, 1.0)
    # a one-column input has no coordinates: the flow check names it first
    with pytest.raises(ValueError, match=re.escape(
            "Lq/theta: init has 0 coordinates, target 2")):
        integrate_batch("Lq", "theta", q, np.ones((3, 1)), 1.0)


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
    # a field that turns NaN partway makes every later step fail, so the
    # step shrinks until it underflows; the error names where it stopped
    rhs = flows.FIELDS["Lq", "theta"]
    calls = []

    def failing_rhs(y, target):
        calls.append(1)
        out = rhs(y, target)
        return out if len(calls) < 50 else np.full_like(out, np.nan)

    monkeypatch.setitem(flows.FIELDS, ("Lq", "theta"), failing_rhs)
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
        eng.init_state(spec.init.probs[None])[0], method="RK45",
        rtol=1e-13, atol=1e-15, t_eval=traj.times)
    assert ref.success
    assert np.abs(ref.y.T - traj.states).max() < 1e-8


def test_oracle_flows_take_few_calls_and_yield_valid_samples(monkeypatch):
    # the 24 oracle flows, a sample every dt, cost at most 8,000 rhs
    # evaluations and 600 steps tried (accepted or rejected).  The dense
    # output's 3 extra stages evaluate the field inside the step, so every
    # sample must lie in the chart.
    counts = {"rhs": 0, "steps": 0}
    for key, field in list(flows.FIELDS.items()):
        def counted(y, target, field=field):
            counts["rhs"] += 1
            return field(y, target)
        monkeypatch.setitem(flows.FIELDS, key, counted)

    def counted_valid(chart, x):  # the initial state, then each step tried
        counts["steps"] += 1
        return valid_rows(chart, x)
    monkeypatch.setattr(flows, "valid_rows", counted_valid)
    paths = []
    for case in _oracle_cases():
        spec = case.values[0]
        blocks = list(integrate_blocks(
            spec.loss, spec.chart, spec.target, spec.init.probs[None], 2.0,
            dt=1e-3, sample_every=1, affine=spec.affine))
        counts["steps"] -= 1
        paths.append((spec, np.concatenate([b[1] for b in blocks])))
    assert counts["rhs"] <= 8000 and counts["steps"] <= 600
    for spec, states in paths:
        eng = flows._Engine(spec.loss, spec.chart, spec.target, spec.affine)
        assert states.shape == (2001, 1, 2)
        assert eng.valid(states[:, 0]).all()


def _tensordot_integrate(loss, chart, target, init_probs, t_end, dt,
                         sample_every, affine=None):
    """The integrator as it is written with one np.tensordot per stage
    combination, error estimate and dense-output block: the reference that
    the stage-matrix loop must reproduce bit for bit."""
    eng = flows._Engine(loss, chart, target, affine)
    y = eng.init_state(init_probs)
    grid = dt * np.arange(0, np.ceil(t_end / dt) + 1, sample_every)
    times = np.append(grid[grid < t_end - 1e-9 * dt], t_end)
    states = np.empty((times.size,) + y.shape)
    kls = np.empty(times.shape + y.shape[:1])
    states[0], kls[0] = y, eng.kl_to_target(y)
    k = np.empty((16,) + y.shape)
    k[0] = eng.rhs(y)
    per_block = max(1, flows.BLOCK_ROWS // len(y))
    t, h, j, grow = 0.0, dt, 1, flows.MAX_FACTOR
    while j < times.size:
        last = h >= t_end - t
        h = t_end - t if last else h
        with np.errstate(all="ignore"):
            for s in range(1, 13):
                y_new = y + h * np.tensordot(flows._A[s, :s], k[:s], axes=1)
                k[s] = eng.rhs(y_new)
            scale = flows.ATOL + flows.RTOL * np.maximum(np.abs(y),
                                                         np.abs(y_new))
            e5, e3 = np.sum((np.tensordot(flows._E, k[:12], axes=1)
                             / scale) ** 2, axis=2).sum(axis=1)  # rows, then all
            err = float(h * e5 / np.sqrt(
                np.maximum(e5 + 0.01 * e3, flows._TINY) * y.size))
            valid = eng.valid(y_new)
        if err <= 1.0 and valid.all():
            t_new = t_end if last else t + h
            m = j + int(np.searchsorted(times[j:], t_new, side="right"))
            if m > j:
                for s in range(13, 16):
                    k[s] = eng.rhs(y + h * np.tensordot(
                        flows._A[s, :s], k[:s], axes=1))
            for lo in range(j, m, per_block):
                hi = min(lo + per_block, m)
                x = ((times[lo:hi] - t) / h)[:, None]
                w = x ** flows._BASIS[0] * (1.0 - x) ** flows._BASIS[1] \
                    @ flows._W.T
                states[lo:hi] = y + np.tensordot(h * w, k, axes=1)
                kls[lo:hi] = eng.kl_to_target(
                    states[lo:hi].reshape(-1, y.shape[1])).reshape(hi - lo, -1)
            y, t, j, k[0] = y_new, t_new, m, k[12]
            h *= min(grow, flows.SAFETY * err ** -0.125) if err > 0 else grow
            grow = flows.MAX_FACTOR
            continue
        h *= max(flows.MIN_FACTOR, min(1.0, flows.SAFETY * err ** -0.125)) \
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
    # steps that hold more than BLOCK_ROWS // 37 samples: split blocks
    yield pytest.param("Lq", "natural_eta", q, inits, 2.0, 1e-3, 1, None,
                       id="natural_eta-B37-every-1")
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


@pytest.mark.parametrize("loss, chart, target, inits, t_end, dt, every, affine",
                         _stage_matrix_cases())
def test_integrate_batch_is_the_concatenated_blocks(loss, chart, target, inits,
                                                    t_end, dt, every, affine):
    blocks = list(integrate_blocks(loss, chart, target, inits, t_end, dt=dt,
                                   sample_every=every, affine=affine))
    got = integrate_batch(loss, chart, target, inits, t_end, dt=dt,
                          sample_every=every, affine=affine)
    assert len(blocks) > 2 and len(blocks[0][0]) == 1
    for part, whole in zip(zip(*blocks), got):
        assert np.array_equal(np.concatenate(part), whole)
    assert np.array_equal(got[0], sample_times(t_end, dt, every))


def test_dense_output_coefficients_match_scipy():
    c = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    rk = pytest.importorskip("scipy.integrate._ivp.rk")
    assert np.array_equal(flows._A, c.A)  # with the 3 dense-output rows
    assert np.array_equal(flows._A[12, :12], c.B)
    assert np.array_equal(flows._E, [c.E5[:12], c.E3[:12]])
    assert c.E5[12] == c.E3[12] == 0
    assert np.array_equal(flows._D, c.D)
    # the weights _W on the basis x^a (1 - x)^b give scipy's dense output
    k = make_rng(0).standard_normal((16, 3))
    y, h = np.array([0.2, -0.1, 0.4]), 0.3
    y_new = y + h * c.B @ k[:12]
    f = np.vstack([y_new - y, h * k[0] - (y_new - y),
                   2 * (y_new - y) - h * (k[12] + k[0]), h * c.D @ k])
    dense = rk.Dop853DenseOutput(0.0, h, y, f)
    x = np.linspace(0.0, 1.0, 11)[:, None]
    w = x ** flows._BASIS[0] * (1.0 - x) ** flows._BASIS[1] @ flows._W.T
    assert np.allclose(y + h * w @ k, dense(h * x[:, 0]).T, rtol=0,
                       atol=1e-13)


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
