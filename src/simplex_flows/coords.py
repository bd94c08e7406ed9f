"""Interior of the probability simplex in three interchangeable parameterizations.

A distribution over n+1 outcomes is stored either as the full probability
vector p (SimplexPoint), as mixture coordinates eta = (p_1, ..., p_n)
(EtaCoord), or as exponential coordinates theta_i = log(p_i / p_{n+1})
(ThetaCoord).  The log-partition function

    psi(theta) = log(1 + sum_i exp(theta_i))

and the negative entropy

    phi(eta) = sum_{i=1}^{n+1} eta_i log eta_i,   eta_{n+1} = 1 - sum eta_i

are convex conjugates of each other: grad psi maps theta to eta and
grad phi maps eta back to theta.  Only the open simplex is representable;
constructors reject boundary and malformed inputs instead of repairing them.
"""

from dataclasses import dataclass

import numpy as np

# Constructors reject rather than renormalize: a probability vector whose sum
# is off by more than this is a caller bug, not noise.
SUM_TOL = 1e-9
# Anything below this is treated as on the boundary (log would underflow).
MIN_PROB = 1e-300


def _readonly_vector(values, name):
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    arr.setflags(write=False)
    return arr


def row_max(x: np.ndarray, initial: float = -np.inf) -> np.ndarray:
    """x.max(axis=1, initial=initial) over a column-major copy, several times
    faster on short rows.  Max does not round, so it is exact but for the
    sign of a zero or NaN result, which the row loop picks by position.
    Sums round, so they keep numpy's row order (row_sum)."""
    return np.maximum.reduce(x.T.copy(), axis=0, initial=initial)


def row_min(x: np.ndarray) -> np.ndarray:
    """x.min(axis=1) as row_max; of a bool array, each row's all."""
    return np.minimum.reduce(x.T.copy(), axis=0)


def row_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=1, keepdims=True) bit for bit.  A two-entry row sums as
    a0 + a1 + 0.0 (numpy gives +0 for -0 + -0): one column addition in place
    of numpy's per-row loop.  Wider rows keep that loop, which sums 8 or
    more entries pairwise."""
    if x.shape[1] == 2:
        return x[:, :1] + x[:, 1:] + 0.0
    return np.add.reduce(x, axis=1, keepdims=True)


@dataclass(frozen=True)
class SimplexPoint:
    """A strictly positive probability vector over n+1 >= 2 outcomes."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _readonly_vector(self.probs, "probs")
        object.__setattr__(self, "probs", arr)
        if arr.size < 2:
            raise ValueError("need at least two outcomes")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite")
        if np.any(arr < MIN_PROB):
            raise ValueError("probabilities must be strictly positive "
                             f"(min entry {arr.min():g})")
        s = arr.sum()
        if abs(s - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {float(s)!r}")

    @property
    def n(self):
        """Dimension of the simplex (number of outcomes minus one)."""
        return self.probs.size - 1


def simplex_rows_ok(p: np.ndarray) -> np.ndarray:
    """Per (B, n+1) row: SimplexPoint's tests at once (NaN and -inf fail the
    min, +inf the sum); SimplexPoint of a failing row gives its reason."""
    return (row_min(p) >= MIN_PROB) & (np.abs(p.sum(axis=1) - 1.0) <= SUM_TOL)


@dataclass(frozen=True)
class EtaCoord:
    """Mixture coordinates: the first n probabilities of an interior point."""

    eta: np.ndarray

    def __post_init__(self):
        arr = _readonly_vector(self.eta, "eta")
        object.__setattr__(self, "eta", arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("eta must be finite")
        if np.any(arr < MIN_PROB):
            raise ValueError("eta entries must be strictly positive")
        # the implied last probability 1 - sum(eta) must stay positive
        if 1.0 - arr.sum() < MIN_PROB:
            raise ValueError("eta entries must sum to less than 1, "
                             f"got {float(arr.sum())!r}")

    @property
    def n(self):
        return self.eta.size


@dataclass(frozen=True)
class ThetaCoord:
    """Exponential coordinates: log-odds against the last outcome."""

    theta: np.ndarray

    def __post_init__(self):
        arr = _readonly_vector(self.theta, "theta")
        object.__setattr__(self, "theta", arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("theta must be finite")

    @property
    def n(self):
        return self.theta.size


# ---------------------------------------------------------------------------
# conversions: chart maps of (B, n) state rows of a base chart (eta, theta,
# natural_eta, natural_theta) or a descent method, where a name that ends in
# theta holds exponential coordinates and every other one mixture
# coordinates; the typed conversions are their one-row calls


def softmax_rows(theta_rows: np.ndarray) -> np.ndarray:
    """Probability rows (B, n+1) of exponential-coordinate rows (B, n).

    A softmax over (theta, 0), shifted by m = max(0, max theta) so every
    exponential is at most 1 and the denominator at least 1: rows stay
    finite for any finite theta (underflowing entries become 0).
    """
    m = row_max(theta_rows, initial=0.0)[:, None]
    p = np.empty((theta_rows.shape[0], theta_rows.shape[1] + 1))
    np.subtract(theta_rows, m, out=p[:, :-1])
    np.negative(m, out=p[:, -1:])
    np.exp(p, out=p)
    p /= row_sum(p[:, :-1]) + p[:, -1:]
    return p


def state_rows(chart: str, probs: np.ndarray) -> np.ndarray:
    """The (B, n) states of a chart from (B, n+1) probability rows."""
    if chart.endswith("theta"):
        return np.log(probs[:, :-1]) - np.log(probs[:, -1:])
    return probs[:, :-1].copy()


def probs_rows(chart: str, x: np.ndarray) -> np.ndarray:
    """The (B, n+1) probability rows of (B, n) states of a chart."""
    if chart.endswith("theta"):
        return softmax_rows(x)
    return np.hstack([x, 1.0 - row_sum(x)])


def valid_rows(chart: str, x: np.ndarray) -> np.ndarray:
    """Per row: finite, and inside the simplex for mixture states."""
    if chart.endswith("theta"):
        return row_min(np.isfinite(x))
    # NaN and -inf fail the min, +inf the sum
    return (row_min(x) > 0.0) & (row_sum(x)[:, 0] < 1.0)


def to_eta(p: SimplexPoint) -> EtaCoord:
    """Drop the last probability."""
    return EtaCoord(state_rows("eta", p.probs[None])[0])


def to_theta(p: SimplexPoint) -> ThetaCoord:
    """Log-odds of each outcome against the last one."""
    return ThetaCoord(state_rows("theta", p.probs[None])[0])


def simplex_from_eta(e: EtaCoord) -> SimplexPoint:
    return SimplexPoint(probs_rows("eta", e.eta[None])[0])


def simplex_from_theta(t: ThetaCoord) -> SimplexPoint:
    return SimplexPoint(probs_rows("theta", t.theta[None])[0])


def eta_from_theta(t: ThetaCoord) -> EtaCoord:
    return to_eta(simplex_from_theta(t))


def theta_from_eta(e: EtaCoord) -> ThetaCoord:
    return to_theta(simplex_from_eta(e))


# ---------------------------------------------------------------------------
# potentials


def psi(t: ThetaCoord) -> float:
    """Log-partition log(1 + sum exp(theta_i)), overflow-safe.

    Shifting by m = max(0, max theta) keeps every exponential <= 1, so
    psi(1000, 0) evaluates to ~1000 instead of inf.
    """
    th = t.theta
    m = max(0.0, th.max())
    return m + np.log(np.exp(-m) + np.exp(th - m).sum())


def phi(e: EtaCoord) -> float:
    """Negative entropy sum p_i log p_i over all n+1 probabilities."""
    p = simplex_from_eta(e).probs
    return float(np.dot(p, np.log(p)))
