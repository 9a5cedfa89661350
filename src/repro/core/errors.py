"""Exception hierarchy for the UMS / KTS / BRK services."""


class ServiceError(Exception):
    """Base class for errors raised by the update-management services."""


class IncomparableTimestampsError(ServiceError):
    """Timestamps generated for *different* keys were compared.

    The paper's KTS only guarantees a total order among the timestamps of a
    single key (Definition 2); comparing across keys is a programming error.
    """

    def __init__(self, first_key, second_key):
        super().__init__(
            f"timestamps for different keys are not comparable: {first_key!r} vs {second_key!r}")
        self.first_key = first_key
        self.second_key = second_key


class ReplicationConfigurationError(ServiceError):
    """The replication scheme is malformed (empty, duplicate names, ...)."""
