"""Name-keyed backend registry: one seam, two execution substrates.

The repo's third pluggable registry, mirroring the overlay registry
(:mod:`repro.dht.registry`) and the service registry
(:mod:`repro.api.services`): a *backend* is a factory returning a cluster
handle with a ``session(...)`` method, so the same ``Session`` code path
drives either execution substrate by name:

* ``"sim"`` — the in-process simulation substrate
  (:meth:`repro.api.cluster.Cluster.build`);
* ``"tcp"`` — a :class:`~repro.net.client.RemoteCluster` speaking the wire
  protocol to a :class:`~repro.net.server.NodeServer` over TCP
  (``address=(host, port)`` or ``"host:port"``);
* ``"uds"`` — the same over a Unix domain socket (``address=<path>``).

Example::

    from repro.net.backends import build_backend

    cluster = build_backend("sim", peers=64, seed=2007)
    # ... or, against a running server:
    cluster = build_backend("tcp", address="127.0.0.1:9207")
    with cluster.session() as session:
        session.insert("k", {"v": 1})
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

__all__ = ["backend_names", "build_backend", "is_backend_registered",
           "parse_tcp_address", "register_backend"]

#: A backend factory: keyword arguments in, cluster-like handle out.
BackendFactory = Callable[..., Any]

_BACKENDS: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory, *,
                     replace: bool = False) -> None:
    """Register ``factory`` under ``name`` (case-insensitive)."""
    key = name.lower()
    if not key:
        raise ValueError("backend name must be a non-empty string")
    if key in _BACKENDS and not replace:
        raise ValueError(f"backend {key!r} is already registered; "
                         "pass replace=True to override it")
    _BACKENDS[key] = factory


def is_backend_registered(name: str) -> bool:
    """Whether ``name`` resolves to a registered backend factory."""
    return name.lower() in _BACKENDS


def backend_names() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def build_backend(name: str, **options: Any) -> Any:
    """Build the backend registered under ``name`` with ``options``."""
    key = name.lower()
    factory = _BACKENDS.get(key)
    if factory is None:
        known = ", ".join(repr(known_name) for known_name in backend_names())
        raise ValueError(f"unknown backend {key!r}; registered backends: {known}")
    return factory(**options)


def parse_tcp_address(address: Any) -> Tuple[str, int]:
    """Normalise a TCP address: ``(host, port)`` or a ``"host:port"`` string."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"expected 'host:port', got {address!r}")
        return host, int(port)
    host, port = address
    return str(host), int(port)


# --------------------------------------------------------- built-in backends
def _build_sim(**options: Any) -> Any:
    """The in-process simulation backend (``Cluster.build`` verbatim)."""
    from repro.api.cluster import Cluster

    return Cluster.build(**options)


def _build_tcp(*, address: Any, pool_size: int = 2, timeout_s: float = 5.0,
               max_retries: int = 2, **_ignored: Any) -> Any:
    """The TCP service backend; cluster-construction options are the server's."""
    from repro.net.client import connect

    return connect(parse_tcp_address(address), pool_size=pool_size,
                   timeout_s=timeout_s, max_retries=max_retries)


def _build_uds(*, address: str, pool_size: int = 2, timeout_s: float = 5.0,
               max_retries: int = 2, **_ignored: Any) -> Any:
    """The Unix-domain-socket service backend (``address`` is the path)."""
    from repro.net.client import connect

    return connect(str(address), pool_size=pool_size, timeout_s=timeout_s,
                   max_retries=max_retries)


register_backend("sim", _build_sim)
register_backend("tcp", _build_tcp)
register_backend("uds", _build_uds)
