import warnings

import numpy as np
import pytest

from simplex_flows import lab
from simplex_flows.coords import EtaCoord, to_eta, to_theta
from simplex_flows.geometry import SymMatrix, hess_phi, hess_psi
from simplex_flows.rng import make_rng, normal_matrix, random_simplex_point
from simplex_flows.spectral import (EigenDecomposition, cond, eigh,
                                    eigvalsh_batch, kappa_lower_bound,
                                    solve_lyapunov, sym_sqrt)


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
    # magnitude; decomposing them must not overflow or divide by zero
    rng = make_rng(0)
    q = lab.draw_instance(rng, 10)
    p0 = random_simplex_point(rng, 10)
    lab._bounds_pool.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for loss in ("Lq_eta", "Lq_theta"):
            bounds = lab.rate_bounds(loss, q, p0, seed=0)
            assert 0.0 < bounds.m_lo < bounds.l_hi < np.inf
