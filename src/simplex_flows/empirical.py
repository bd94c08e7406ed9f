"""Learning from samples: datasets, empirical targets, full-batch descent.

A dataset is a multinomial count vector drawn from a true distribution q.
The empirical loss is the KL divergence to the empirical distribution
q_hat, so full-batch descent on the empirical loss is exactly descent
toward q_hat: run_empirical is descent.run unchanged.  Convergence is
measured against q_hat -- the minimizer of what is actually being
optimized -- while the KL to the true q can be recorded instead to show
the irreducible gap D(q||q_hat).  Minibatch descent, with a target drawn
each iteration, is the sgd mode of the lab module's learning-rate sweeps.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import descent
from .coords import SimplexPoint
from .errors import ZeroCount
from .flows import Trajectory
from .geometry import kl_probs


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


def empirical_target(d: Dataset) -> SimplexPoint:
    """q_hat = counts / total; only defined when every outcome was seen."""
    if np.any(d.counts == 0):
        raise ZeroCount("an outcome has zero observations; q_hat is on the boundary")
    return SimplexPoint(d.counts / d.total)


def run_empirical(spec: descent.DescentSpec, d: Dataset,
                  true_target: Optional[SimplexPoint] = None) -> Trajectory:
    """Descend the empirical loss of a dataset: descent.run toward q_hat,
    which spec.target must be, so states and gaps are run's bit for bit.
    Given true_target, kl_values holds the KL from the true q instead of
    the gap to q_hat."""
    q_hat = d.counts / d.total
    if spec.target.probs.shape != q_hat.shape or \
            np.abs(spec.target.probs - q_hat).max() > 1e-12:
        raise ValueError("spec.target must be the dataset's empirical distribution")
    traj = descent.run(spec)
    if true_target is None:
        return traj
    with np.errstate(divide="ignore"):  # a row with a zero gives inf
        kls = [kl_probs(true_target.probs, p)
               for p in descent.probs_rows(spec.method, traj.states)]
    return Trajectory(traj.times, traj.states, kls)
