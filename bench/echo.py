"""A byte-echo process: the floor under every loopback round trip.

Run as ``python -m bench.echo``.  Prints ``{"address": [host, port]}``,
accepts one connection and echoes what it reads until the peer closes.  It
imports nothing from the repo, so ``env.echo_rtt_us`` moves with the machine
(scheduler wake-ups, syscalls) and never with the code under test.
"""

from __future__ import annotations

import json
import socket
import sys


def main() -> int:
    """Serve one echo connection, then exit."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        print(json.dumps({"address": list(listener.getsockname()[:2])}),
              flush=True)
        connection, _peer = listener.accept()
        with connection:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                data = connection.recv(4096)
                if not data:
                    return 0
                connection.sendall(data)


if __name__ == "__main__":
    sys.exit(main())
