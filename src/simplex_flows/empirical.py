"""Learning from samples: empirical targets, full-batch and minibatch descent.

A dataset is a multinomial count vector drawn from a true distribution q.
The empirical loss is the KL divergence to the empirical distribution
q_hat, so full-batch descent on the empirical loss is exactly descent
toward q_hat and reuses the descent module unchanged.  Minibatch descent
is the same descent loop (descent.descend) with a drawn target: each
iteration resamples a small sub-dataset (uniformly from the stored counts,
without replacement) and substitutes its empirical distribution into the
cross-entropy form of the gradient, which stays finite even when the
minibatch misses an outcome.  Convergence is always measured against
q_hat -- the minimizer of what is actually being optimized -- while the KL
to the true q is recorded alongside to show the irreducible gap D(q||q_hat).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import descent
from .coords import SimplexPoint
from .errors import ZeroCount
from .flows import Trajectory
from .geometry import kl_probs
from .rng import make_rng


@dataclass(frozen=True)
class Dataset:
    """Outcome counts of n_samples i.i.d. categorical draws."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.array(self.counts)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("counts must be a vector over at least two outcomes")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("counts must be integers")
        if np.any(arr < 0) or arr.sum() < 1:
            raise ValueError("counts must be nonnegative with at least one sample")
        arr = arr.astype(np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def total(self):
        return int(self.counts.sum())

    @property
    def n(self):
        return self.counts.size - 1


def sample_dataset(q: SimplexPoint, n_samples: int, seed: int) -> Dataset:
    """Multinomial counts from q, reproducible across platforms by seed."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = make_rng(seed)
    return Dataset(rng.multinomial(n_samples, q.probs))


def empirical_target(d: Dataset) -> SimplexPoint:
    """q_hat = counts / total; only defined when every outcome was seen."""
    if np.any(d.counts == 0):
        raise ZeroCount("an outcome has zero observations; q_hat is on the boundary")
    return SimplexPoint(d.counts / d.total)


def _check_target_is_qhat(spec, d):
    q_hat = d.counts / d.total
    if spec.target.probs.shape != q_hat.shape or \
            np.abs(spec.target.probs - q_hat).max() > 1e-12:
        raise ValueError("spec.target must be the dataset's empirical distribution")


def run_empirical(spec: descent.DescentSpec, d: Dataset,
                  minibatch: Optional[int] = None,
                  decay_a: Optional[float] = None,
                  true_target: Optional[SimplexPoint] = None,
                  seed: int = 0, tol: Optional[float] = None) -> Trajectory:
    """Descend the empirical loss of a dataset.

    Full batch (minibatch=None) delegates to descent.run against q_hat --
    the exact same code path, hence bit-identical states; a minibatch of
    the whole dataset takes the same steps bit for bit.  With a minibatch
    size, each iteration draws that many samples uniformly from the dataset
    and uses their empirical distribution in the gradient, step k (from 0)
    with the spec's step size alpha, or alpha a / (k + a) given decay_a = a.
    The returned trajectory carries the loss gap to q_hat in loss_gaps and,
    when true_target is given, the KL from the true q in kl_values
    (otherwise the gap again).
    """
    _check_target_is_qhat(spec, d)
    if minibatch is None:
        if decay_a is not None:
            raise ValueError("decay_a applies to minibatch runs only")
        traj = descent.run(spec, tol=tol)
        states, gaps = traj.states, traj.kl_values
    else:
        if not 1 <= minibatch <= d.total:
            raise ValueError("minibatch size must be between 1 and the dataset size")
        if decay_a is not None and not (math.isfinite(decay_a) and decay_a > 0):
            raise ValueError(f"decay_a must be finite and positive, got {decay_a}")
        rng = make_rng(seed)

        def draw(rows):
            return rng.multivariate_hypergeometric(d.counts,
                                                   minibatch)[:-1] / minibatch
        states, gaps = descent.descend(spec, d.counts / d.total, tol,
                                       decay_a, draw)
    if true_target is None:
        kls = gaps
    else:  # on the raw rows: a row with a zero gives inf
        with np.errstate(divide="ignore"):
            kls = [kl_probs(true_target.probs, p)
                   for p in descent.probs_rows(spec.method, states)]
    return Trajectory(np.arange(len(states), dtype=float), states, kls,
                      loss_gaps=gaps)
