"""Front-end transport counters, exported by the status endpoint.

The event-loop server feeds one :class:`FrontendCounters` instance and
publishes its snapshot under the ``"frontend"`` key of the status
response, so operators can see transport-level pressure — open sockets,
bytes in/out, read-paused (backpressured) connections, and in-flight
dispatch depth — next to the serving engine's queue metrics.

The loop thread mutates these; status requests and tests read them from
other threads. A lock keeps every snapshot consistent (the per-call
cost is one uncontended lock acquire, far below a syscall).
"""

from __future__ import annotations

import threading


class FrontendCounters:
    """Thread-safe transport counters for one server instance.

    Gauges (``open_connections``, ``read_paused``, ``dispatch_depth``)
    track current state; totals only ever grow. ``snapshot`` returns a
    plain dict safe to serialize over the wire codec.
    """

    def __init__(self):
        self._lock = threading.Lock()
        # gauges
        self.open_connections = 0
        self.read_paused = 0
        self.dispatch_depth = 0
        # totals
        self.total_connections = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.frames_out = 0
        self.dispatched_total = 0
        self.pause_events = 0
        self.protocol_errors = 0

    # -- connection lifecycle -------------------------------------------------

    def connection_opened(self) -> None:
        with self._lock:
            self.open_connections += 1
            self.total_connections += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.open_connections -= 1

    # -- traffic --------------------------------------------------------------

    def add_bytes_in(self, n: int) -> None:
        with self._lock:
            self.bytes_in += n

    def add_bytes_out(self, n: int) -> None:
        with self._lock:
            self.bytes_out += n

    def frame_in(self) -> None:
        with self._lock:
            self.frames_in += 1

    def frame_out(self) -> None:
        with self._lock:
            self.frames_out += 1

    def protocol_error(self) -> None:
        with self._lock:
            self.protocol_errors += 1

    # -- dispatch depth -------------------------------------------------------

    def dispatch_started(self) -> None:
        with self._lock:
            self.dispatch_depth += 1
            self.dispatched_total += 1

    def dispatch_finished(self) -> None:
        with self._lock:
            self.dispatch_depth -= 1

    # -- backpressure ---------------------------------------------------------

    def read_pause(self) -> None:
        with self._lock:
            self.read_paused += 1
            self.pause_events += 1

    def read_resume(self) -> None:
        with self._lock:
            self.read_paused -= 1

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter (plain, serializable values)."""
        with self._lock:
            return {
                "open_connections": self.open_connections,
                "total_connections": self.total_connections,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "frames_in": self.frames_in,
                "frames_out": self.frames_out,
                "dispatch_depth": self.dispatch_depth,
                "dispatched_total": self.dispatched_total,
                "read_paused": self.read_paused,
                "pause_events": self.pause_events,
                "protocol_errors": self.protocol_errors,
            }
