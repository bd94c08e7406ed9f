"""Semantic exceptions shared across the library."""


class SimplexFlowsError(Exception):
    """Base class for all library-specific failures."""


class BoundaryEscape(SimplexFlowsError):
    """A mixture-coordinate state left the open simplex during integration.

    Usually means the step size is too large for the local curvature.
    """


class NonFinite(SimplexFlowsError):
    """An iterate overflowed or produced NaN/Inf."""


class ZeroCount(SimplexFlowsError):
    """An empirical distribution has an outcome with zero observations,
    so it has no interior representation."""


class InsufficientDecay(SimplexFlowsError):
    """A trajectory did not decay enough for a rate fit to be meaningful."""


class WitnessNotFound(SimplexFlowsError):
    """Random search exhausted its probe budget without finding a
    counterexample to convexity."""


class ExperimentFailure(SimplexFlowsError):
    """An experiment could not set up its inputs within its budget, such as
    a balanced target or a start near the optimum."""
