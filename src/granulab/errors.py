"""Exception types shared across the package."""


class GranulabError(Exception):
    """Base class for all package errors."""


class InvalidCollisionError(GranulabError):
    """Collision algebra called with momenta that violate the approach condition."""


class SamplingFailureError(GranulabError):
    """No allowed configuration was found (or none exists)."""


class EventStormError(GranulabError):
    """Event-driven run aborted, under either rule: an event storm (more
    than ``storm_limit`` collisions per particle per unit time, usually
    inelastic collapse, which Simulation(tc_threshold=...) regularizes; or
    ``evolve_rods_ensemble`` out of rounds); a collision whose momenta or
    kinetic energy overflow (the inverse flow multiplies the normal
    relative speed by 1/(1-2*eps) at every contact), or an all-pairs
    prediction that is not finite; or a contact closer than the clock
    resolves (an all-pairs pair that overlaps without approaching).
    """


class DtGuardError(GranulabError):
    """DSMC step called with a dt too large for the acceptance scheme."""


class ConfigError(GranulabError, ValueError):
    """Invalid run configuration; a ValueError, as its cause is a value."""
