"""Exception hierarchy for the DHT substrate."""


class DHTError(Exception):
    """Base class for all errors raised by the DHT substrate."""


class EmptyNetworkError(DHTError):
    """An operation required at least one live peer but the network is empty."""


class NoSuchPeerError(DHTError):
    """The peer identifier does not designate a live peer of the network."""

    def __init__(self, peer_id):
        super().__init__(f"no live peer with id {peer_id!r}")
        self.peer_id = peer_id


class NodeAlreadyPresentError(DHTError):
    """A node identifier was added twice to the same overlay."""

    def __init__(self, node_id):
        super().__init__(f"node {node_id!r} is already part of the overlay")
        self.node_id = node_id


class InvalidConfigurationError(DHTError):
    """A structural parameter (bits, dimensions, ...) is out of range."""
