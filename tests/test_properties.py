"""Property-based tests at the numeric edges of the charts."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from simplex_flows.coords import (MIN_PROB, EtaCoord, ThetaCoord,
                                  eta_from_theta, psi, simplex_from_theta,
                                  softmax_rows, theta_from_eta, to_eta,
                                  to_theta, valid_rows)
from simplex_flows.descent import step_rows
from simplex_flows.geometry import (bregman_phi, bregman_psi, field, hess_psi,
                                    kl)
from simplex_flows.rng import make_rng, random_simplex_point
from simplex_flows.spectral import eigh, eigvalsh_batch

EPS = np.finfo(float).eps
# (B, n) exponential-coordinate rows up to the edge of exp's range
THETA_ROWS = arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 12)),
                    elements=st.floats(-700.0, 700.0))


@given(THETA_ROWS)
def test_softmax_rows_are_probability_rows(theta):
    p = softmax_rows(theta)
    assert p.shape == (theta.shape[0], theta.shape[1] + 1)
    assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-14


@given(THETA_ROWS, st.floats(1e-6, 30.0), st.integers(0, 2 ** 16))
def test_gd_theta_step_stays_finite_at_extreme_theta(theta, alpha, seed):
    target = random_simplex_point(make_rng(seed), theta.shape[1]).probs[:-1]
    assert np.all(np.isfinite(step_rows("gd_theta", theta, target, alpha)))


# (B, n+1) weights 10^u, u in [-298, 0]: normalized, every probability is
# at least 1e-298 / 13 > 1e-300
WEIGHT_ROWS = arrays(np.float64,
                     st.tuples(st.integers(1, 4), st.integers(2, 13)),
                     elements=st.floats(-298.0, 0.0)).map(lambda u: 10.0 ** u)


def _target(loss, n, seed):
    q = random_simplex_point(make_rng(seed), n)
    return q.probs[:-1] if loss == "Lq" else to_theta(q).theta


@given(THETA_ROWS, st.integers(0, 2 ** 16))
def test_theta_side_fields_stay_finite(theta, seed):
    # the natural L_q field divides by every probability
    representable = theta[softmax_rows(theta).min(axis=1) >= MIN_PROB]
    for loss, chart, x in (("Lq", "theta", theta), ("Lstar", "theta", theta),
                           ("Lstar", "natural_theta", theta),
                           ("Lq", "natural_theta", representable)):
        target = _target(loss, theta.shape[1], seed)
        assert np.all(np.isfinite(field(loss, chart, x, target)))


@given(WEIGHT_ROWS, st.integers(0, 2 ** 16))
def test_eta_side_fields_stay_finite(weights, seed):
    eta = (weights / weights.sum(axis=1, keepdims=True))[:, :-1]
    eta = eta[valid_rows("eta", eta)]  # rows whose 1 - sum(eta) is 0 are not
    for loss in ("Lq", "Lstar"):
        target = _target(loss, eta.shape[1], seed)
        for chart in ("eta", "natural_eta"):
            assert np.all(np.isfinite(field(loss, chart, eta, target)))


@given(arrays(np.float64, st.integers(1, 12), elements=st.floats(-300.0, 300.0)))
def test_hess_psi_spectrum_at_large_theta(theta):
    t = ThetaCoord(theta)
    try:
        simplex_from_theta(t)
    except ValueError:
        assume(False)
    h = hess_psi(t)
    dec = eigh(h)
    vals = dec.values
    assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) >= 0.0)
    assert vals[0] >= -1e-14 and vals[-1] < 1.0
    assert vals.tobytes() == eigvalsh_batch(h.entries[None])[0].tobytes()
    cols = np.arange(vals.size)
    assert np.all(dec.vectors[np.abs(dec.vectors).argmax(axis=0), cols] > 0)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(-30.0, 30.0)),
    arrays(np.float64, n, elements=st.floats(-30.0, 30.0)))))
def test_bregman_divergences_equal_kl(thetas):
    # bregman_phi goes through eta: p_{n+1} = 1 - sum(eta_p) is exact only
    # to eps absolute, so theta_p, and with it the divergence, is good to
    # about eps max(1, KL) / min_i p_i.  bregman_psi subtracts potentials:
    # psi(theta_q) = -log q_{n+1}, up to ~32 here, leaves eps psi(theta_q)
    # even where p is near uniform (theta_p = 0, theta_q = 28 at n = 1).
    tp, tq = ThetaCoord(thetas[0]), ThetaCoord(thetas[1])
    p, q = simplex_from_theta(tp), simplex_from_theta(tq)
    d = kl(q, p)
    tol = 4.0 * EPS * (max(1.0, d) / p.probs.min() + psi(tq))
    assert abs(bregman_psi(tp, tq) - d) <= tol
    assert abs(bregman_phi(to_eta(q), to_eta(p)) - d) <= tol


@given(arrays(np.float64, st.integers(2, 13), elements=st.floats(-300.0, 0.0)))
def test_chart_round_trips_at_extreme_eta(exponents):
    # probabilities 10^x / sum, entries down to 1e-300
    p = 10.0 ** exponents
    p /= p.sum()
    assume(p.min() >= MIN_PROB and 1.0 - p[:-1].sum() >= MIN_PROB)
    e = EtaCoord(p[:-1])
    t = theta_from_eta(e)
    assert np.all(np.isfinite(t.theta))
    if 1.0 - e.eta.sum() <= EPS:
        return  # the sum's roundoff edge, pinned by the next test
    back = eta_from_theta(t)
    assert np.all(np.abs(back.eta - e.eta) <= 1e-12 * e.eta)


@pytest.mark.xfail(raises=ValueError, strict=True, reason=(
    "eta_from_theta rejects the theta of an eta whose last probability "
    "1 - sum(eta) is at the sum's roundoff: the softmax entries sum to 1.0"))
def test_eta_round_trip_at_the_sum_roundoff_edge():
    p = 10.0 ** np.array([-2.0, -0.5, 0.0] + [-0.5] * 7 + [-16.0])
    p /= p.sum()
    e = EtaCoord(p[:-1])  # 1 - sum(eta) is eps / 2
    back = eta_from_theta(theta_from_eta(e))
    assert np.all(np.abs(back.eta - e.eta) <= 1e-12 * e.eta)


@given(arrays(np.float64, st.integers(1, 12), elements=st.floats(-700.0, 700.0)))
def test_psi_is_a_finite_log_sum_exp(theta):
    value = psi(ThetaCoord(theta))
    reference = np.logaddexp.reduce(np.append(theta, 0.0))
    assert np.isfinite(value)
    assert abs(value - reference) <= 4 * (theta.size + 2) * EPS * max(
        1.0, abs(reference))
