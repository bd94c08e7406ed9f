"""Gradient flows and descent for KL divergence on the probability simplex.

The interior of the simplex carries two global coordinate charts: mixture
coordinates eta (the first n probabilities) and exponential coordinates
theta (log-odds against the last outcome).  This package implements the
conversions, the dual potentials and their Hessians, continuous gradient
flows of the KL loss in either chart, their natural-gradient counterpart,
discrete-time descent (exact, linearized, and noisy), learning from
sampled data, and an experiment harness with a CLI front end.
"""

from .coords import (EtaCoord, SimplexPoint, ThetaCoord, eta_from_theta,
                     phi, psi, simplex_from_eta, simplex_from_theta,
                     theta_from_eta, to_eta, to_theta)
from .descent import (DescentSpec, NoiseModel, destabilizing_delta,
                      optimal_lr, run, step)
from .empirical import (Dataset, empirical_target, run_empirical,
                        sample_dataset)
from .errors import (BoundaryEscape, ExperimentFailure, InsufficientDecay,
                     NonFinite, SimplexFlowsError, WitnessNotFound, ZeroCount)
from .flows import (FlowSpec, Trajectory, integrate, integrate_batch,
                    integrate_blocks, natural_flow_exact)
from .geometry import (AffineChart, SymMatrix, bregman_phi, bregman_psi,
                       grad_Lq_eta, grad_Lq_theta, grad_Lstar_eta,
                       grad_Lstar_theta, hess_Lq_eta, hess_phi, hess_psi,
                       kl, loss_Lq_theta, loss_Lstar_theta,
                       make_identity_chart, natural_grad_Lq,
                       natural_grad_Lstar)
from .lab import (RateBounds, RateFit, affine_rate_experiment,
                  empirical_sandwich, fit_rate, fit_rates, local_sections,
                  lr_sweep, nonconvexity_witness, rate_bounds,
                  robustness_experiment, sandwich_experiment)
from .rng import make_rng, random_simplex_batch, random_simplex_point
from .spectral import (EigenDecomposition, cond, eigh, eigvalsh_batch,
                       kappa_lower_bound, rank_one_extremes, solve_lyapunov,
                       sym_sqrt)

__version__ = "1.0.0"
