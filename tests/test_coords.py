import numpy as np
import pytest

from simplex_flows.coords import (MIN_PROB, EtaCoord, SimplexPoint,
                                  ThetaCoord, eta_from_theta, phi, probs_rows,
                                  psi, simplex_from_eta, simplex_from_theta,
                                  softmax_rows, state_rows, theta_from_eta,
                                  to_eta, to_theta)
from simplex_flows.rng import (make_rng, random_simplex_batch,
                               random_simplex_point)


def test_softmax_rows_matches_one_point_softmax():
    # w / sum(w) over the n+1 shifted exponentials, one point at a time: the
    # same bits at these sizes (summation order differs at some others)
    rng = make_rng(3)
    for n in (2, 10):
        theta = 5.0 * rng.standard_normal((50, n))
        for t, row in zip(theta, softmax_rows(theta)):
            w = np.exp(np.concatenate([t, [0.0]]) - max(0.0, t.max()))
            assert np.array_equal(w / w.sum(), row)


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_typed_conversions_are_rows_of_the_rows_maps(n):
    # each typed conversion of a point equals its row of the rows map over
    # a whole batch, bit for bit, at the numeric edges: probabilities and
    # mixture rows within 1e-12 of a face, and theta up to +-700
    rng = make_rng([41, n])
    probs = random_simplex_batch(rng, n, 60)
    for k, row in enumerate(probs[:40]):  # one entry 1e-12, cycling
        j = k % (n + 1)
        row *= (1.0 - 1e-12) / (row.sum() - row[j])
        row[j] = 1e-12
    eta = probs[:, :-1]
    edge = np.full((2, n), -690.0)  # probabilities near exp(-690) > MIN_PROB
    edge[1] = np.eye(n)[0] * 690.0
    theta = np.vstack([700.0 * (2.0 * rng.random((60, n)) - 1.0), edge,
                       state_rows("theta", probs)])
    for chart, typed in (("eta", to_eta), ("theta", to_theta)):
        states = state_rows(chart, probs)
        for p, x in zip(probs, states):
            assert np.array_equal(getattr(typed(SimplexPoint(p)), chart), x)
    for e, p in zip(eta, probs_rows("eta", eta)):
        assert np.array_equal(simplex_from_eta(EtaCoord(e)).probs, p)
    kept = 0
    for t, p in zip(theta, probs_rows("theta", theta)):
        try:
            point = simplex_from_theta(ThetaCoord(t))
        except ValueError:  # the row has an entry below MIN_PROB
            assert p.min() < MIN_PROB
            continue
        assert np.array_equal(point.probs, p)
        kept += 1
    assert kept >= 62


def test_roundtrips_all_charts():
    rng = make_rng(0)
    for n in (2, 5, 10):
        for _ in range(50):
            p = random_simplex_point(rng, n)
            back_t = simplex_from_theta(to_theta(p)).probs
            back_e = simplex_from_eta(to_eta(p)).probs
            assert np.abs(back_t - p.probs).max() < 1e-12
            assert np.abs(back_e - p.probs).max() < 1e-14


def test_eta_theta_conversions_are_mutually_inverse():
    rng = make_rng(1)
    p = random_simplex_point(rng, 4)
    e = to_eta(p)
    t = theta_from_eta(e)
    assert np.abs(eta_from_theta(t).eta - e.eta).max() < 1e-12


def test_uniform_point_has_zero_theta():
    p = SimplexPoint(np.full(3, 1.0 / 3.0))
    assert np.abs(to_theta(p).theta).max() < 1e-15


def test_simplex_point_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SimplexPoint(np.array([0.5, 0.6]))           # does not sum to 1
    with pytest.raises(ValueError):
        SimplexPoint(np.array([1.0, 0.0]))           # boundary
    with pytest.raises(ValueError):
        SimplexPoint(np.array([1.2, -0.2]))          # negative
    with pytest.raises(ValueError):
        SimplexPoint(np.array([1.0]))                # single outcome
    with pytest.raises(ValueError):
        SimplexPoint(np.array([[0.5, 0.5]]))         # wrong rank
    with pytest.raises(ValueError):
        SimplexPoint(np.array([np.nan, 1.0]))


def test_eta_coord_rejects_boundary():
    with pytest.raises(ValueError):
        EtaCoord(np.array([0.6, 0.4]))               # implied last prob is 0
    with pytest.raises(ValueError):
        EtaCoord(np.array([0.0, 0.4]))
    EtaCoord(np.array([0.3, 0.3]))                   # valid


def test_theta_coord_rejects_nonfinite():
    with pytest.raises(ValueError):
        ThetaCoord(np.array([np.inf, 0.0]))
    ThetaCoord(np.array([100.0, -100.0]))            # any finite value is fine


def test_coordinates_are_readonly():
    p = random_simplex_point(make_rng(2), 3)
    with pytest.raises(ValueError):
        p.probs[0] = 0.5


def test_psi_is_overflow_safe():
    t = ThetaCoord(np.array([1000.0, 0.0]))
    val = psi(t)
    assert np.isfinite(val)
    assert abs(val - 1000.0) < 1e-6


def test_phi_matches_direct_entropy():
    p = random_simplex_point(make_rng(3), 5)
    direct = float(np.dot(p.probs, np.log(p.probs)))
    assert abs(phi(to_eta(p)) - direct) < 1e-14


def test_fenchel_equality_at_matched_points():
    # phi and psi are convex conjugates: phi(eta) + psi(theta) = theta . eta
    rng = make_rng(4)
    for _ in range(100):
        p = random_simplex_point(rng, 6)
        e, t = to_eta(p), to_theta(p)
        gap = phi(e) + psi(t) - float(np.dot(t.theta, e.eta))
        assert abs(gap) < 1e-12


def test_fenchel_young_inequality_off_diagonal():
    # at mismatched points the same expression is strictly positive
    rng = make_rng(5)
    for _ in range(100):
        e = to_eta(random_simplex_point(rng, 4))
        t = to_theta(random_simplex_point(rng, 4))
        assert phi(e) + psi(t) - float(np.dot(t.theta, e.eta)) > -1e-14
