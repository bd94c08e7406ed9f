"""Learning from samples: full-batch descent on the empirical loss.

A dataset is a multinomial count vector drawn from a true distribution q
(the lab module's draw_dataset).  The empirical loss is the KL divergence
to the empirical distribution q_hat, so full-batch descent on the
empirical loss is exactly descent toward q_hat: descent.run with q_hat as
the target.  run_empirical is that run with the KL to the true q recorded
instead of the gap to q_hat, to show the irreducible gap D(q||q_hat).
Minibatch descent, with a target drawn each iteration, is the sgd mode of
the lab module's learning-rate sweeps.
"""

import numpy as np

from . import descent
from .coords import SimplexPoint
from .flows import Trajectory
from .geometry import kl_probs


def run_empirical(spec: descent.DescentSpec,
                  true_target: SimplexPoint) -> Trajectory:
    """descent.run(spec), toward q_hat as spec.target, with kl_values the
    KL from the true q to each state: its states are run's bit for bit."""
    traj = descent.run(spec)
    with np.errstate(divide="ignore"):  # a row with a zero gives inf
        kls = [kl_probs(true_target.probs, p)
               for p in descent.probs_rows(spec.method, traj.states)]
    return Trajectory(traj.times, traj.states, kls)
