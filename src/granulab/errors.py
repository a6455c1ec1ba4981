"""Exception types shared across the package."""


class GranulabError(Exception):
    """Base class for all package errors."""


class InvalidCollisionError(GranulabError):
    """Collision algebra called with momenta that violate the approach condition."""


class SamplingFailureError(GranulabError):
    """No allowed configuration was found (or none exists)."""


class EventStormError(GranulabError):
    """Event-driven run aborted: too many collisions per particle per unit
    time, or an inverse-flow collision whose momenta or energy overflow.

    The first usually indicates inelastic collapse; see
    Simulation(tc_threshold=...) for the optional elastic-cutoff
    regularization.  The second comes from the inverse flow multiplying the
    normal relative speed by 1/(1-2*eps) at every contact.
    """


class DtGuardError(GranulabError):
    """DSMC step called with a dt too large for the acceptance scheme."""


class ConfigError(GranulabError):
    """Invalid run configuration."""
