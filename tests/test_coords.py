import numpy as np
import pytest

from simplex_flows.coords import (MIN_PROB, EtaCoord, SimplexPoint,
                                  ThetaCoord, eta_from_theta, phi, probs_rows,
                                  psi, row_max, row_min, row_sum,
                                  simplex_from_eta, simplex_from_theta,
                                  simplex_rows_ok, softmax_rows, state_rows,
                                  theta_from_eta, to_eta, to_theta,
                                  valid_rows)
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


_EDGES = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 700.0,
                   -700.0, 1e-301, 0.5])


def _edge_rows(rng, b, n):
    """(b, n) rows mixing theta up to +-700 with NaN, +-inf and +-0.0."""
    x = 700.0 * (2.0 * rng.random((b, n)) - 1.0)
    pick = rng.random((b, n)) < 0.3
    x[pick] = rng.choice(_EDGES, size=int(pick.sum()))
    return x


def _softmax_rows_former(theta_rows):
    """softmax_rows as it was, with numpy's per-row max."""
    m = theta_rows.max(axis=1, keepdims=True, initial=0.0)
    p = np.empty((theta_rows.shape[0], theta_rows.shape[1] + 1))
    np.subtract(theta_rows, m, out=p[:, :-1])
    np.negative(m, out=p[:, -1:])
    np.exp(p, out=p)
    p /= p[:, :-1].sum(axis=1, keepdims=True) + p[:, -1:]
    return p


def _valid_rows_former(chart, x):
    """valid_rows as it was: finite, and for mixture rows positive and
    summing to less than 1, as three separate per-row tests."""
    ok = np.isfinite(x).all(axis=1)
    if not chart.endswith("theta"):
        ok &= (x > 0.0).all(axis=1) & (x.sum(axis=1) < 1.0)
    return ok


def _nan_positive(a):
    """a with every NaN made numpy's positive NaN: blind to a NaN's sign."""
    a = a.copy()
    a[np.isnan(a)] = np.nan
    return a


@pytest.mark.parametrize("n", [1, 2, 10])
def test_row_max_and_row_min_are_the_row_reductions(n):
    # bit for bit (tobytes: the sign of zero and NaN count) at any row count,
    # but for two signs the row loop itself picks by position in the row: a
    # zero's where a row ties 0.0 and -0.0, and a NaN's where a row holds a
    # negative NaN (the default NaN of inf - inf)
    rng = make_rng([28, n])
    for b in (0, 1, 100, 4096):
        plus = _edge_rows(rng, b, n)  # positive NaNs, both zeros
        minus = -np.abs(_edge_rows(rng, b, n))  # negative NaNs, -0.0 only
        loose = 0
        for x in (plus, rng.choice([0.0, -0.0], (b, n)), minus):
            zeros = [(x == 0.0) & (np.signbit(x) == sign) for sign in (0, 1)]
            for got, want, initial in (
                    (row_max(x, initial=0.0), x.max(axis=1, initial=0.0), 0),
                    (row_max(x), x.max(axis=1, initial=-np.inf), None),
                    (row_min(x), x.min(axis=1), None)):
                assert got.shape == want.shape == (b,)
                differ = got.view(np.uint64) != want.view(np.uint64)
                tie = zeros[1].any(axis=1) & (zeros[0].any(axis=1)
                                              | (initial == 0))
                zero_tie = (got == 0.0) & (want == 0.0) & tie
                nan = np.isnan(got) & np.isnan(want) & (x is minus)
                assert not np.any(differ & ~zero_tie & ~nan)
                loose += int(differ.sum())
        if b == 4096 and n > 1:  # the two freedoms are real
            assert loose > 0
        plus[plus == 0.0] = 0.0  # no ties: every bit agrees
        for got, want in ((row_max(plus, initial=0.0),
                           plus.max(axis=1, initial=0.0)),
                          (row_max(plus), plus.max(axis=1)),
                          (row_min(plus), plus.min(axis=1))):
            assert got.tobytes() == want.tobytes()
        flags = rng.random((b, n)) < 0.9
        assert row_min(flags).tobytes() == flags.all(axis=1).tobytes()


@pytest.mark.parametrize("n", [1, 2, 10])
def test_softmax_rows_equals_the_former_row_max_form(n):
    # the shift m is the only changed step.  A zero's sign in m cancels (t - m
    # and -m then differ only in a zero's sign, and exp(+-0) = 1), so rows
    # without a negative NaN agree bit for bit; with one, only a NaN's sign
    rng = make_rng([29, n])
    with np.errstate(all="ignore"):
        for b in (0, 1, 100, 4096):
            for x in (_edge_rows(rng, b, n), rng.choice([0.0, -0.0], (b, n)),
                      np.clip(_edge_rows(rng, b, n), -710.0, 710.0)):
                assert (softmax_rows(x).tobytes()
                        == _softmax_rows_former(x).tobytes())
            x = -np.abs(_edge_rows(rng, b, n))
            assert (_nan_positive(softmax_rows(x)).tobytes()
                    == _nan_positive(_softmax_rows_former(x)).tobytes())


@pytest.mark.parametrize("n", [1, 2, 10])
def test_valid_rows_equals_the_former_three_test_form(n):
    rng = make_rng([30, n])
    eta = random_simplex_batch(rng, n, 200)[:, :-1]
    # sums at 1 - 1 ulp, 1 and 1 + 1 ulp: the last entry takes what the
    # rest leave, nudged a few ulps either way
    edge = np.repeat(eta[:20], 9, axis=0)
    rest = edge[:, :-1].sum(axis=1)
    edge[:, -1] = 1.0 - rest + np.tile(np.arange(-4, 5), 20) * 2.0 ** -53
    sums = edge.sum(axis=1)
    assert {np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)} <= set(sums)
    x = np.vstack([eta, edge, _edge_rows(rng, 300, n),
                   rng.choice(_EDGES, (100, n)) / (n + 1)])
    for chart in ("eta", "theta", "natural_eta", "natural_theta"):
        with np.errstate(invalid="ignore"):  # sums of inf and -inf
            assert (valid_rows(chart, x).tobytes()
                    == _valid_rows_former(chart, x).tobytes())
        assert valid_rows(chart, x[:0]).shape == (0,)


def test_row_sums_stay_along_rows():
    # a left-to-right sum over a column-major copy matches numpy's row sum on
    # rows of up to 7 entries, but from 8 on numpy sums a row pairwise over
    # 8 accumulators, and the column order differs in the last bit
    rng = make_rng(33)
    for cols in (2, 3, 7, 8, 11, 17):
        x = rng.random((4096, cols))
        differ = x.sum(axis=1) != np.add.reduce(x.T.copy(), axis=0)
        assert differ.mean() > 0.2 if cols >= 8 else not differ.any()


# +-0, +-inf, NaNs with payloads (quiet and signalling, both signs),
# +-subnormal, +-max and +-1, by their bits
_SPECIAL_BITS = np.array([
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
    0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
    0x7FF8000000000123, 0xFFF8000000000456, 0x7FF0000000000001,
    0xFFF4000000000789, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, 0x3FF0000000000000,
    0xBFF0000000000000], dtype=np.uint64).view(float)


def test_row_sum_is_the_row_sum_bit_for_bit():
    # tobytes: a zero's sign and a NaN's sign and payload count
    rng = make_rng(34)
    pairs = np.array([[a, b] for a in _SPECIAL_BITS for b in _SPECIAL_BITS])
    assert np.isnan(pairs).any(axis=1).sum() == 16 * 16 - 10 * 10
    sign = rng.choice([-1.0, 1.0], (20000, 2))
    wide = sign * rng.random((20000, 2)) * 10.0 ** rng.integers(
        -300, 301, (20000, 2))
    with np.errstate(all="ignore"):
        for x in (pairs, wide):
            three = np.hstack([x, x[:, :1]])
            for two in (x, np.asfortranarray(x), three[:, :2],
                        np.roll(three, 1, axis=1)[:, 1:], x[:0], x[:1]):
                assert (row_sum(two).tobytes()
                        == two.sum(axis=1, keepdims=True).tobytes())
        for cols in (1, 3, 8, 11):  # numpy's own row sum
            x = np.resize(np.concatenate([_SPECIAL_BITS, wide.ravel()]),
                          (4096, cols))
            assert (row_sum(x).tobytes()
                    == x.sum(axis=1, keepdims=True).tobytes())
    assert row_sum(np.array([[-0.0, -0.0]]))[0, 0].hex() == "0x0.0p+0"


def test_simplex_rows_ok_is_simplex_point_acceptance():
    rng = make_rng(31)
    for n in (1, 2, 10):
        probs = random_simplex_batch(rng, n, 50)
        bad = probs[:10].copy()
        bad[0, 0] = np.nan
        bad[1, 0] = np.inf
        bad[2, 0] = -np.inf
        bad[3, -1] = -bad[3, -1]
        bad[4, 0] = 1e-301
        bad[5] = np.roll(bad[5], 1)
        bad[5, 0] += 2e-9
        bad[6, 0] = 0.0
        bad[7, 0] = MIN_PROB
        bad[7, -1] = 1.0 - bad[7, :-1].sum()
        bad[8] *= 1.0 + 9e-10
        rows = np.vstack([probs, bad])
        for row, ok in zip(rows, simplex_rows_ok(rows)):
            try:
                SimplexPoint(row)
                accepted = True
            except ValueError:
                accepted = False
            assert ok == accepted


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
