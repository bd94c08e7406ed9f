"""The vector fields against the per-chart branches they replaced.

_BranchEngine and _branch_step_rows are the rhs branches, chart maps and
descent steps as they were written before one table of fields
(geometry.FIELDS) defined them all, kept verbatim as the reference.  One
branch is mended on purpose: the natural-theta L_q branch reads the last
probability from softmax_rows, not as 1 - sum(eta), which cancels to 0 once
that probability is below the sum's roundoff (_BranchEngine(mended=False)
keeps the old form for the comparison below).
"""

import numpy as np
import pytest

from simplex_flows import flows
from simplex_flows.coords import (SimplexPoint, eta_from_theta, softmax_rows,
                                  theta_from_eta, to_eta, to_theta)
from simplex_flows.descent import METHODS, step_rows
from simplex_flows.flows import integrate_batch
from simplex_flows.geometry import (grad_Lq_eta, grad_Lq_theta,
                                    grad_Lstar_eta, grad_Lstar_theta, kl_rows,
                                    make_identity_chart, natural_grad_Lq,
                                    natural_grad_Lstar)
from simplex_flows.rng import make_rng, random_simplex_batch

EPS = np.finfo(float).eps


class _BranchEngine:
    """rhs / validity / conversions for one (loss, chart) pair."""

    def __init__(self, loss, chart, target, affine=None, mended=True):
        self.loss = loss
        self.chart = chart
        self.affine = affine
        self.mended = mended
        self.q = target.probs
        self.eta_q = target.probs[:-1]
        self.theta_q = to_theta(target).theta

    def init_state(self, probs):
        return np.vstack([self._init_one(SimplexPoint(row)) for row in probs])

    def _init_one(self, p0):
        if self.chart in ("eta", "natural_eta"):
            return p0.probs[:-1].copy()
        if self.chart in ("theta", "natural_theta"):
            return to_theta(p0).theta.copy()
        if self.chart == "affine_eta":  # etabar = A^T eta
            return self.affine.a_matrix.T @ to_eta(p0).eta
        # thetabar = A^-1 (theta - b)
        return self.affine.a_inv @ (to_theta(p0).theta - self.affine.b_offset)

    def _eta_rows(self, y):
        if self.chart in ("eta", "natural_eta"):
            return y
        if self.chart in ("theta", "natural_theta"):
            return softmax_rows(y)[:, :-1]
        if self.chart == "affine_eta":
            return y @ self.affine.a_inv
        th = y @ self.affine.a_matrix.T + self.affine.b_offset
        return softmax_rows(th)[:, :-1]

    def probs(self, y):
        e = self._eta_rows(y)
        return np.hstack([e, 1.0 - e.sum(axis=1, keepdims=True)])

    def valid(self, y):
        ok = np.isfinite(y).all(axis=1)
        if self.chart in ("theta", "natural_theta", "affine_theta"):
            return ok
        e = self._eta_rows(y)
        return ok & (e > 0.0).all(axis=1) & (e.sum(axis=1) < 1.0)

    def kl_to_target(self, y):
        p = self.probs(y)
        if self.loss == "Lq":
            return kl_rows(self.q, p)
        return np.maximum(0.0, (p * (np.log(p) - np.log(self.q))).sum(axis=1))

    def rhs(self, y):
        if self.loss == "Lq":
            return self._rhs_lq(y)
        return self._rhs_lstar(y)

    def _mixture_pull(self, e, rest=None):
        v = self.eta_q - e
        if rest is None:
            rest = 1.0 - e.sum(axis=1, keepdims=True)
        return v / e + v.sum(axis=1, keepdims=True) / rest

    def _rhs_lq(self, y):
        if self.chart == "eta":
            return self._mixture_pull(y)
        if self.chart == "theta":
            return self.eta_q - softmax_rows(y)[:, :-1]
        if self.chart == "natural_eta":
            return self.eta_q - y
        if self.chart == "natural_theta":
            if self.mended:
                p = softmax_rows(y)
                return self._mixture_pull(p[:, :-1], p[:, -1:])
            e = softmax_rows(y)[:, :-1]
            return self._mixture_pull(e)
        if self.chart == "affine_eta":
            e = self._eta_rows(y)
            return self._mixture_pull(e) @ self.affine.a_inv.T
        th = y @ self.affine.a_matrix.T + self.affine.b_offset
        g = softmax_rows(th)[:, :-1] - self.eta_q
        return -(g @ self.affine.a_matrix)

    def _rhs_lstar(self, y):
        tp = self.theta_q
        if self.chart == "eta":
            rest = 1.0 - y.sum(axis=1, keepdims=True)
            return tp - (np.log(y) - np.log(rest))
        if self.chart == "natural_theta":
            return tp - y
        if self.chart == "theta":
            e = softmax_rows(y)[:, :-1]
            v = tp - y
            return e * v - e * (e * v).sum(axis=1, keepdims=True)
        if self.chart == "natural_eta":
            rest = 1.0 - y.sum(axis=1, keepdims=True)
            v = tp - (np.log(y) - np.log(rest))
            return y * v - y * (y * v).sum(axis=1, keepdims=True)
        if self.chart == "affine_eta":
            e = self._eta_rows(y)
            rest = 1.0 - e.sum(axis=1, keepdims=True)
            v = tp - (np.log(e) - np.log(rest))
            return v @ self.affine.a_inv.T
        th = y @ self.affine.a_matrix.T + self.affine.b_offset
        e = softmax_rows(th)[:, :-1]
        v = tp - th
        w = e * v - e * (e * v).sum(axis=1, keepdims=True)
        return w @ self.affine.a_matrix


def _branch_step_rows(method, x, target_eta, alpha):
    if method == "gd_eta":
        v = target_eta - x
        rest = 1.0 - x.sum(axis=1, keepdims=True)
        return x + alpha * (v / x + v.sum(axis=1, keepdims=True) / rest)
    if method == "gd_theta":
        return x - alpha * (softmax_rows(x)[:, :-1] - target_eta)
    return x - alpha * (x - target_eta)


def _case(n, batch, seed=5):
    """A target, a c = 2 affine chart at it, (batch, n+1) probability rows
    and (batch, n+1) per-row targets."""
    rng = make_rng([seed, n, batch])
    q = SimplexPoint(random_simplex_batch(rng, n, 1)[0])
    chart = make_identity_chart(to_theta(q), 2.0)
    return (q, chart, random_simplex_batch(rng, n, batch),
            random_simplex_batch(rng, n, batch))


GRID = [(n, batch) for n in (1, 2, 5, 10) for batch in (1, 37)]


@pytest.mark.parametrize("per_row", [False, True], ids=["fixed", "per_row"])
@pytest.mark.parametrize("n, batch", GRID)
@pytest.mark.parametrize("chart", flows.CHARTS)
@pytest.mark.parametrize("loss", flows.LOSSES)
def test_fields_equal_the_branches_bit_for_bit(loss, chart, n, batch,
                                               per_row):
    q, affine, probs, targets = _case(n, batch)
    affine = affine if chart.startswith("affine") else None
    ref = _BranchEngine(loss, chart, q, affine)
    eng = flows._Engine(loss, chart, q, affine)
    y = ref.init_state(probs)
    assert eng.init_state(probs).tobytes() == y.tobytes()
    with np.errstate(all="ignore"):
        edge = np.vstack([y, -y, y + 1.0, y * np.inf, y * np.nan])
        same = eng.valid(edge).tobytes() == ref.valid(edge).tobytes()
    assert same
    assert eng.kl_to_target(y).tobytes() == ref.kl_to_target(y).tobytes()
    if not per_row:
        assert eng.rhs(y).tobytes() == ref.rhs(y).tobytes()
        return
    ref.eta_q = targets[:, :-1]
    ref.theta_q = np.log(targets[:, :-1]) - np.log(targets[:, -1:])
    goal = ref.eta_q if loss == "Lq" else ref.theta_q
    rhs = flows._pullback(loss, chart, affine)[1]
    assert rhs(y, goal).tobytes() == ref.rhs(y).tobytes()


@pytest.mark.parametrize("per_row_alpha", [False, True],
                         ids=["alpha", "alpha_rows"])
@pytest.mark.parametrize("per_row", [False, True], ids=["fixed", "per_row"])
@pytest.mark.parametrize("n, batch", GRID)
@pytest.mark.parametrize("method", METHODS)
def test_step_rows_equals_the_branches_bit_for_bit(method, n, batch, per_row,
                                                   per_row_alpha):
    q, _, probs, targets = _case(n, batch)
    chart = "theta" if method == "gd_theta" else "eta"
    x = _BranchEngine("Lq", chart, q).init_state(probs)
    target = targets[:, :-1] if per_row else q.probs[:-1]
    alpha = (np.linspace(0.01, 2.0, batch)[:, None] if per_row_alpha
             else 0.37)
    want = _branch_step_rows(method, x, target, alpha)
    assert step_rows(method, x, target, alpha).tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [1, 37])
@pytest.mark.parametrize("chart", flows.CHARTS)
@pytest.mark.parametrize("loss", flows.LOSSES)
def test_trajectories_equal_the_branches_bit_for_bit(loss, chart, batch,
                                                     monkeypatch):
    q, affine, probs, _ = _case(2, batch, seed=6)
    affine = affine if chart.startswith("affine") else None
    got = integrate_batch(loss, chart, q, probs, 2.0, dt=1e-3,
                          sample_every=7, affine=affine)
    monkeypatch.setattr(flows, "_Engine", _BranchEngine)
    want = integrate_batch(loss, chart, q, probs, 2.0, dt=1e-3,
                           sample_every=7, affine=affine)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_mended_natural_theta_field_is_finite_where_the_old_one_was_not():
    q = SimplexPoint(np.array([0.2, 0.3, 0.5]))
    y = np.array([[37.0, 37.0], [40.0, -5.0], [20.0, 20.0], [0.3, -0.2]])
    new = flows._Engine("Lq", "natural_theta", q).rhs(y)
    with np.errstate(divide="ignore"):
        old = _BranchEngine("Lq", "natural_theta", q, mended=False).rhs(y)
    assert np.all(np.isfinite(new))
    assert np.all(np.isinf(old[:2]))
    # at (20, 20) p_last is 1e-9: 1 - sum(eta) keeps only ~7 digits of it
    assert 1e-9 < np.abs(old[2] / new[2] - 1.0).max() < 1e-6
    assert np.abs(old[3] / new[3] - 1.0).max() <= 4 * EPS


def test_mended_natural_theta_flow_moves_by_rounding_only():
    # paths from a random start and from a start near a face stay within
    # 1e-13 of the old ones, relative to the largest entry
    rng = make_rng(0)
    q = SimplexPoint(random_simplex_batch(rng, 2, 1)[0])
    probs = np.vstack([random_simplex_batch(rng, 2, 1),
                       [[0.01, 0.2, 0.79]]])
    got = integrate_batch("Lq", "natural_theta", q, probs, 2.0,
                          sample_every=1)[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_Engine", lambda *a: _BranchEngine(*a,
                                                              mended=False))
        old = integrate_batch("Lq", "natural_theta", q, probs, 2.0,
                              sample_every=1)[1]
    assert np.abs(got - old).max() <= 1e-13 * np.abs(old).max()


def test_one_row_gradients_match_the_scalar_forms():
    # grad_Lq_eta, grad_Lq_theta and the natural gradients are the scalar
    # forms bit for bit.  The L* gradient in theta sums e*v as a row where
    # the scalar form took np.dot (fused multiply-adds); the one in eta
    # takes the logs of a row, not of a vector.  Both within 1e-13.
    for seed in range(50):
        rng = make_rng([seed, 2])
        n = 1 + seed % 10
        p, q = (SimplexPoint(r) for r in random_simplex_batch(rng, n, 2))
        ep, eq, tp, tq = to_eta(p), to_eta(q), to_theta(p), to_theta(q)
        e_tq = eta_from_theta(tq).eta
        assert grad_Lq_eta(ep, eq).tobytes() == (-(
            (eq.eta - ep.eta) / ep.eta + (eq.eta - ep.eta).sum()
            / (1.0 - ep.eta.sum()))).tobytes()
        assert grad_Lq_theta(tp, tq).tobytes() == (
            eta_from_theta(tp).eta - e_tq).tobytes()
        assert natural_grad_Lq(ep, eq).tobytes() == (ep.eta - eq.eta).tobytes()
        assert natural_grad_Lstar(tq, tp).tobytes() == (
            tq.theta - tp.theta).tobytes()
        want = theta_from_eta(eq).theta - theta_from_eta(ep).theta
        got = grad_Lstar_eta(eq, ep)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        v = tp.theta - tq.theta
        want = -(e_tq * v - e_tq * float(np.dot(e_tq, v)))
        got = grad_Lstar_theta(tq, tp)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
