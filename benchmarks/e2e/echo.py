"""A byte-echo TCP server in its own process: the loopback floor.

``socket.loopback_rtt_us`` is the round trip of a request-sized frame
between the generator and this process — two socket hops and two
process wake-ups with no Velox code in between — so whatever of
``p50_ms`` exceeds it was spent inside the server under test.

Prints its port on stdout, serves one connection, exits when it closes.
"""

from __future__ import annotations

import socket
import sys


def main() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        sys.stdout.write(f"{listener.getsockname()[1]}\n")
        sys.stdout.flush()
        conn, _addr = listener.accept()
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while chunk := conn.recv(1 << 16):
            conn.sendall(chunk)
    return 0


if __name__ == "__main__":
    sys.exit(main())
