"""Exception types shared across the package."""


class GranulabError(Exception):
    """Base class for all package errors."""


class InvalidCollisionError(GranulabError):
    """Collision algebra called with momenta that violate the approach condition."""


class SamplingFailureError(GranulabError):
    """No allowed configuration was found (or none exists)."""


class EventStormError(GranulabError):
    """Event-driven run aborted: too many collisions per particle per unit time.

    Usually indicates inelastic collapse.  See Simulation(tc_threshold=...) for
    the optional elastic-cutoff regularization.
    """


class DtGuardError(GranulabError):
    """DSMC step called with a dt too large for the acceptance scheme."""


class ConfigError(GranulabError):
    """Invalid run configuration."""
