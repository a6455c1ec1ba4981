"""Exception types shared across the package."""


class GranulabError(Exception):
    """Base class for all package errors."""


class InvalidCollisionError(GranulabError):
    """Collision algebra called with momenta that violate the approach condition."""


class SamplingFailureError(GranulabError):
    """Rejection sampler exhausted its attempt budget."""

    def __init__(self, message, acceptance_rate=None):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate


class EventStormError(GranulabError):
    """Event-driven run aborted: too many collisions per particle per unit time.

    Usually indicates inelastic collapse.  See Simulation(tc_threshold=...) for
    the optional elastic-cutoff regularization.
    """


class DtGuardError(GranulabError):
    """DSMC step called with a dt too large for the acceptance scheme."""


class ConfigError(GranulabError):
    """Invalid run configuration."""


class NotImplementedOrderError(GranulabError):
    """Requested expansion order is outside the implemented range."""
