import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from simplex_flows import lab
from simplex_flows.coords import EtaCoord, to_eta, to_theta
from simplex_flows.geometry import SymMatrix, hess_phi, hess_psi
from simplex_flows.rng import (make_rng, normal_matrix, random_simplex_batch,
                               random_simplex_point)
from simplex_flows.spectral import (EigenDecomposition, cond, eigh,
                                    eigvalsh_batch, kappa_lower_bound,
                                    rank_one_extremes, solve_lyapunov,
                                    sym_sqrt)

EPS = np.finfo(float).eps


def _random_symmetric(rng, n, scale=1.0):
    m = normal_matrix(rng, n, n) * scale
    return 0.5 * (m + m.T)


def test_eigh_matches_reference_solver():
    rng = make_rng(7)
    for n in (2, 5, 10):
        for _ in range(20):
            a = _random_symmetric(rng, n)
            dec = eigh(a)
            ref = np.linalg.eigvalsh(a)
            assert np.abs(dec.values - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())


def test_eigh_reconstruction_and_orthogonality():
    rng = make_rng(8)
    for _ in range(20):
        a = _random_symmetric(rng, 6)
        dec = eigh(a)
        recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
        assert np.abs(recon - a).max() < 1e-10 * max(1.0, np.abs(a).max())
        assert np.abs(dec.vectors.T @ dec.vectors - np.eye(6)).max() < 1e-12
        # sign convention: largest-magnitude component of each column > 0
        cols = np.arange(6)
        assert np.all(dec.vectors[np.abs(dec.vectors).argmax(axis=0), cols] > 0)


def test_eigh_is_deterministic():
    a = _random_symmetric(make_rng(9), 5)
    d1, d2 = eigh(a), eigh(a.copy())
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(d1.vectors, d2.vectors)


def test_eigh_handles_tiny_off_diagonals():
    # off-diagonals far below the matrix scale must still be resolved,
    # not silently treated as converged
    a = np.diag([1.0, 1.0 + 1e-6]) + np.array([[0.0, 3e-7], [3e-7, 0.0]])
    dec = eigh(a)
    ref = np.linalg.eigvalsh(a)
    assert np.abs(dec.values - ref).max() < 1e-13
    recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
    assert np.abs(recon - a).max() < 1e-13


@pytest.mark.parametrize("eps", [1e-12, 1e-60, 1e-140])
def test_eigh_resolves_graded_hessians(eps):
    # eta = (eps, a, a): (0, 1, -1) is an exact eigenvector of hess_phi with
    # eigenvalue 1/a, however many orders of magnitude eps sits below a
    a = 0.3
    h = hess_phi(EtaCoord([eps, a, a])).entries
    dec = eigh(h)
    assert np.abs(dec.values - 1.0 / a).min() <= 1e-12 / a
    recon = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
    assert np.abs(recon - h).max() <= 1e-13 * np.linalg.norm(h, 2)


def test_eigvalsh_batch_matches_reference():
    rng = make_rng(10)
    stack = np.array([_random_symmetric(rng, 7) for _ in range(50)])
    vals = eigvalsh_batch(stack)
    ref = np.linalg.eigvalsh(stack)
    assert np.abs(vals - ref).max() < 1e-9
    with pytest.raises(ValueError):
        eigvalsh_batch(np.zeros((3, 2, 4)))


def test_decomposition_validation():
    with pytest.raises(ValueError):
        EigenDecomposition(np.array([2.0, 1.0]), np.eye(2))  # not ascending
    with pytest.raises(ValueError):
        EigenDecomposition(np.array([1.0, 2.0]), np.eye(3))  # shape mismatch


def test_cond_of_simplex_hessians():
    rng = make_rng(11)
    p = random_simplex_point(rng, 4)
    h = hess_phi(to_eta(p))
    k = cond(h)
    ref = np.linalg.cond(h.entries)
    assert k == pytest.approx(ref, rel=1e-9)
    assert cond(eigh(h)) == k
    with pytest.raises(ValueError):
        cond(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        cond(eigh(np.diag([1.0, -1.0])))


def test_kappa_lower_bound():
    rng = make_rng(12)
    for _ in range(20):
        q = random_simplex_point(rng, 6)
        lo = kappa_lower_bound(to_eta(q))
        two = np.sort(q.probs)[:2]
        assert lo == pytest.approx(two[1] / two[0], abs=1e-12)
        assert lo <= cond(hess_phi(to_eta(q))) + 1e-9


def test_sym_sqrt():
    rng = make_rng(13)
    a = _random_symmetric(rng, 5)
    spd = a @ a.T + 5.0 * np.eye(5)
    root = sym_sqrt(spd).entries
    assert np.abs(root @ root - spd).max() < 1e-9
    with pytest.raises(ValueError):
        sym_sqrt(np.diag([1.0, -2.0]))


def test_solve_lyapunov_fixed_point():
    rng = make_rng(14)
    q = _random_symmetric(rng, 4)
    q = q @ q.T + np.eye(4)
    alpha = 0.9 / np.linalg.eigvalsh(q).max()
    p = solve_lyapunov(q, alpha).entries
    m = np.eye(4) - alpha * q
    assert np.abs(m @ p @ m + np.eye(4) - p).max() < 1e-10
    # given Q's decomposition instead of Q, the same solve
    assert np.array_equal(solve_lyapunov(eigh(q), alpha).entries, p)


def test_solve_lyapunov_scalar_case():
    # x(k+1) = (1 - 0.5) x + w: variance 1/(1 - 0.25) = 4/3
    p = solve_lyapunov(np.eye(1), 0.5).entries
    assert p[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_solve_lyapunov_requires_contraction():
    with pytest.raises(ValueError):
        solve_lyapunov(np.eye(2), 2.0)   # spectral radius exactly 1
    with pytest.raises(ValueError):
        solve_lyapunov(np.eye(2), 3.0)


def test_hess_psi_eigenvalues_below_one():
    rng = make_rng(15)
    for _ in range(20):
        p = random_simplex_point(rng, 5)
        vals = eigh(hess_psi(to_theta(p))).values
        assert vals[0] > 0.0
        assert vals[-1] < 1.0
        vals_phi = eigh(hess_phi(to_eta(p))).values
        assert vals_phi[0] > 1.0


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_eigh_values_equal_batch_of_one_bit_for_bit(n):
    rng = make_rng(16)
    mats = []
    for _ in range(10):
        mats.append(_random_symmetric(rng, n))
        p = random_simplex_point(rng, n)
        mats.append(hess_phi(to_eta(p)).entries)
        mats.append(hess_psi(to_theta(p)).entries)
    for a in mats:
        assert eigh(a).values.tobytes() == eigvalsh_batch(a[None])[0].tobytes()


def test_rate_bounds_pool_emits_no_runtime_warning():
    # the n = 10 pool holds Hessians whose entries span many orders of
    # magnitude; decomposing them must not overflow or divide by zero.
    # The extra rows tie diagonal entries: all of them (uniform), the two
    # smallest, the two largest and the second with the third
    rng = make_rng(0)
    q = lab.draw_instance(rng, 10)
    p0 = random_simplex_point(rng, 10)
    tied = np.array([np.full(11, 1.0 / 11),
                     np.r_[0.02, 0.02, np.full(9, 0.96 / 9)],
                     np.r_[np.full(9, 0.04), 0.32, 0.32],
                     np.r_[0.01, 0.05, 0.05, np.full(8, 0.89 / 8)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss in ("Lq_eta", "Lq_theta"):
            bounds = lab.rate_bounds(loss, q, p0, seed=0)
            assert 0.0 < bounds.m_lo < bounds.l_hi < np.inf
            bounds = lab.rate_bounds(loss, q, p0, seed=0, extra_probs=tied)
            assert 0.0 < bounds.m_lo < bounds.l_hi < np.inf


def _dense_rank_one(d, c):
    b, n = d.shape
    h = np.broadcast_to(c[:, None, None], (b, n, n)).copy()
    h[:, np.arange(n), np.arange(n)] += d
    return h


def _check_against_eigh(d, c):
    """lam_max to 1e-14 relative; lam_min to LAPACK's own bound, about
    n eps ||H||, which on graded rows is far above the secular root's
    error (test_secular_root_beats_lapack_on_a_graded_row)."""
    lo, hi = rank_one_extremes(d, c)
    vals = eigvalsh_batch(_dense_rank_one(d, c))
    assert np.all(np.abs(hi - vals[:, -1]) <= 1e-14 * vals[:, -1])
    assert np.all(np.abs(lo - vals[:, 0]) <= d.shape[1] * EPS * vals[:, -1])
    return lo, hi


@pytest.mark.parametrize("n", [1, 2, 10, 50])
def test_rank_one_extremes_match_eigh_on_random_rows(n):
    rng = make_rng(40 + n)
    d = np.exp(3.0 * normal_matrix(rng, 300, n))
    c = np.exp(3.0 * normal_matrix(rng, 300, 1)[:, 0])
    lo, hi = _check_against_eigh(d, c)
    if n == 1:
        assert np.array_equal(lo, d[:, 0] + c) and np.array_equal(hi, lo)


@pytest.mark.parametrize("n", [2, 10, 50])
def test_rank_one_extremes_near_a_face(n):
    # pool rows with a smallest probability near 1e-12, in both charts'
    # forms: Lq_eta's diag(q/e^2) + q_n/rest^2 and hess_phi's diag(1/e) + 1/rest
    rng = make_rng(50 + n)
    probs = random_simplex_batch(rng, n, 200)
    cols = rng.integers(0, n + 1, size=200)
    probs[np.arange(200), cols] = 1e-12 * (1.0 + rng.random(200))
    probs /= probs.sum(axis=1, keepdims=True)
    q = random_simplex_point(rng, n).probs
    e, rest = probs[:, :-1], probs[:, -1]
    _check_against_eigh(q[:-1] / e ** 2, q[-1] / rest ** 2)
    lo, hi = _check_against_eigh(1.0 / e, 1.0 / rest)
    # the theta extremes are the reciprocals of hess_phi's: hess_psi =
    # hess_phi^-1.  Against LAPACK on the dense diag(e) - ee^T they agree
    # to 64 eps ||H||: its entries are rounded, its last probability is
    # 1 - sum(e), not the row's own, and at n = 2 LAPACK is off by up to
    # 59 eps ||H|| from a long-double reference (the reciprocals by 2 eps)
    psi_lo, psi_hi = lab._hessian_extremes("Lq_theta", q, probs)
    assert np.array_equal(psi_lo, 1.0 / hi) and np.array_equal(psi_hi, 1.0 / lo)
    dense = eigvalsh_batch(np.stack([np.diag(row) - np.outer(row, row)
                                     for row in e]))
    assert np.all(np.abs(psi_hi - dense[:, -1]) <= 64 * EPS * dense[:, -1])
    assert np.all(np.abs(psi_lo - dense[:, 0]) <= 64 * EPS * dense[:, -1])


def test_rank_one_extremes_on_tied_diagonals():
    d = np.array([[1.0, 1.0, 2.0, 3.0],    # tied minima
                  [1.0, 1.0, 1.0, 3.0],    # three tied minima
                  [1.0, 2.0, 3.0, 3.0],    # tied maxima
                  [1.0, 2.0, 2.0, 5.0],    # the second and third tied
                  [3.0, 2.0, 5.0, 2.0],    # the same, unsorted
                  [2.0, 2.0, 2.0, 2.0],    # all tied
                  [1.0, 1.0 + 1e-15, 2.0, 3.0]])  # nearly tied minima
    c = np.array([0.5, 2.0, 0.1, 1e3, 1e-3, 0.7, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo, hi = _check_against_eigh(d, c)
    # a tie at the smallest entry deflates: lam_min is that entry exactly
    assert np.array_equal(lo[[0, 1, 5]], [1.0, 1.0, 2.0])
    assert hi[5] == 2.0 + 4 * 0.7


def test_rank_one_extremes_rejects_nonpositive_input():
    with pytest.raises(ValueError):
        rank_one_extremes(np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        rank_one_extremes(np.array([[1.0, 2.0]]), np.array([-1.0]))


@pytest.mark.filterwarnings("error")
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    arrays(np.float64, (3, n), elements=st.floats(1e-6, 1e6)),
    arrays(np.float64, 3, elements=st.floats(1e-6, 1e6)))))
def test_rank_one_extremes_interlace_with_the_diagonal(dc):
    d, c = dc
    n = d.shape[1]
    lo, hi = rank_one_extremes(d, c)
    s = np.sort(d, axis=1)
    assert np.all(s[:, 0] <= lo) and np.all(lo <= hi)
    if n > 1:
        assert np.all(lo <= s[:, 1])
    assert np.all(s[:, -1] <= hi) and np.all(hi <= s[:, -1] + n * c)


def _newton_correction(lam, d, c):
    """(f/f')/lam for the secular function f(lam) = 1 + c sum 1/(d_i - lam),
    in long double: the relative distance from lam to the nearest root."""
    ld = np.longdouble
    lam, d, c = ld(lam), d.astype(ld), ld(c)
    w = 1 / (d - lam)
    return float(abs((1 + c * w.sum()) / (c * (w * w).sum()) / lam))


def test_secular_root_beats_lapack_on_a_graded_row():
    # a row of the seed-0 n = 10 pool of criterion 04, at 3e-8 from a face:
    # ||H|| = 3.7e13 makes LAPACK's absolute error (~eps ||H||) a 1.7e-5
    # relative error in lam_min = 1.48, which the secular root avoids
    q = np.array([0.17024185335147604, 0.11068618280646345,
                  0.03239886906279704, 0.06743168175913718,
                  0.1289504045022741, 0.07010884567812757,
                  0.04351125987557487, 0.0487190957905304,
                  0.14799007985337553, 0.08653482544609568,
                  0.09342690187414798])
    p = np.array([7.8947756218202492e-02, 1.0907959297249269e-01,
                  2.9551606589709542e-08, 1.1575870265164619e-01,
                  7.1536126447314566e-02, 2.8527521837840406e-03,
                  2.4203024044264485e-01, 6.4187865349409318e-02,
                  8.6453487436586440e-03, 1.6078750470540679e-01,
                  1.4617408073383384e-01])
    d, c = q[None, :-1] / p[None, :-1] ** 2, np.array([q[-1] / p[-1] ** 2])
    lo, _ = rank_one_extremes(d, c)
    lapack = eigvalsh_batch(_dense_rank_one(d, c))[0, 0]
    ours = _newton_correction(lo[0], d[0], c[0])
    assert ours <= 1e-15
    assert ours <= _newton_correction(lapack, d[0], c[0])


def test_rate_bounds_calls_no_dense_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    rng = make_rng(3)
    q = lab.draw_instance(rng, 10)
    p0 = random_simplex_point(rng, 10)
    extra = random_simplex_batch(rng, 10, 20)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(lab, "BOUNDS_POOL", 500)
    for loss in ("Lq_eta", "Lq_theta"):
        bounds = lab.rate_bounds(loss, q, p0, seed=3, extra_probs=extra)
        assert 0.0 < bounds.m_lo < bounds.l_hi < np.inf


def test_hessian_extremes_build_no_dense_stack():
    # a (B, n, n) stack at B = 2,000, n = 50 is 40 MB; the secular
    # iteration holds a few (B, n) arrays of 0.8 MB
    rng = make_rng(4)
    probs = random_simplex_batch(rng, 50, 2000)
    q = random_simplex_point(rng, 50).probs
    tracemalloc.start()
    try:
        for loss in ("Lq_eta", "Lq_theta"):
            lab._hessian_extremes(loss, q, probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 50 * 50 * 8 / 4
