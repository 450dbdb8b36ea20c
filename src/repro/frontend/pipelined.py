"""Pipelined socket client: many in-flight requests per connection.

A client that sends one request and blocks for its response bounds a
connection's throughput by one round trip per request, and a
server-side adaptive batcher only ever sees batches of one from it.
:class:`PipelinedClient` keeps a window of correlated requests in flight
on a single socket: ``submit`` frames and sends immediately and returns
a future; a reader thread completes futures as response frames arrive
(out of order is fine — the correlation id routes them). This is the
one socket client; :class:`~repro.frontend.resilient.ResilientClient`
holds several of them per endpoint and owns reconnects, breakers and
every other policy.

Transport failures (a refused hello, timeouts, connection loss,
truncated frames) surface as
:class:`~repro.common.errors.TransportError` with the connection closed
and every pending future failed — nothing blocks forever on a dead
socket.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import Future

from repro.common.errors import TransportError
from repro.frontend import wire
from repro.frontend.api import AnalyticsApiRequest, ApiResponse


class PipelinedClient:
    """One socket, many in-flight correlated requests.

    Usage::

        with PipelinedClient(host, port) as client:
            futures = [client.submit(request) for request in burst]
            responses = [f.result() for f in futures]
            one = client.call(request)          # submit + wait

    ``timeout`` bounds connect and each blocking ``call``; ``submit``
    itself never blocks on the network beyond the socket send buffer.

    ``max_inflight`` caps the pipelining window: at the cap ``submit``
    waits (up to ``timeout``) for a response to free a slot — a
    closed-loop generator self-paces to the server instead of queueing
    unboundedly. A caller that stops waiting for a future it got from
    ``submit`` hands it to :meth:`abandon`, which frees the slot.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        max_inflight: int | None = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise TransportError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._max_inflight = max_inflight
        self._timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()
        #: signalled whenever an in-flight slot frees (response arrived
        #: or the connection died) — what blocked submits wait on.
        self._slot = threading.Condition(self._lock)
        self._closed = False
        #: set on any fatal transport error (reader death, failed send)
        #: — the connection is unusable even though close() wasn't called.
        self._dead = False
        self._next_corr = 0
        #: corr id -> future.
        self._pending: dict[int, Future] = {}
        #: window slots reclaimed by :meth:`abandon`.
        self.timed_out = 0
        self._negotiate()
        # ``timeout`` bounds connect and negotiation only. Clear it so
        # the reader thread blocks indefinitely between responses — an
        # idle window is not a transport failure; per-call deadlines are
        # enforced on the futures in ``call``.
        self._sock.settimeout(None)
        self._reader = threading.Thread(
            target=self._read_loop, name="pipelined-reader", daemon=True
        )
        self._reader.start()

    def _negotiate(self) -> None:
        """Send the hello; the server must echo it before frames flow."""
        try:
            self._sock.sendall(wire.HELLO_V2)
            answer = self._rfile.readline()
        except OSError as err:
            self._teardown()
            raise TransportError(f"protocol negotiation failed: {err}") from err
        if answer != wire.HELLO_V2:
            self._teardown()
            raise TransportError(
                f"protocol negotiation failed: unexpected answer {answer!r}"
            )

    # -- submission ----------------------------------------------------------

    def _reserve_slot_locked(self) -> None:
        """Enforce the ``max_inflight`` window; callers hold the lock."""
        if self._max_inflight is None:
            return
        if len(self._pending) < self._max_inflight:
            return
        deadline = time.monotonic() + self._timeout
        while len(self._pending) >= self._max_inflight:
            if self._closed or self._dead:
                raise TransportError("client is closed")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"pipeline window full ({self._max_inflight} in "
                    f"flight) for {self._timeout}s"
                )
            self._slot.wait(remaining)
        if self._closed or self._dead:
            raise TransportError("client is closed")

    def submit(self, request) -> "Future[ApiResponse]":
        """Send one request without waiting; the future yields its
        :class:`~repro.frontend.api.ApiResponse`."""
        future: Future = Future()
        with self._lock:
            if self._closed or self._dead:
                raise TransportError("client is closed")
            self._reserve_slot_locked()
            corr_id = self._next_corr
            self._next_corr += 1
            frame = wire.encode_request_frame(request, corr_id)
            future._velox_corr = corr_id
            self._pending[corr_id] = future
            try:
                self._sock.sendall(frame)
            except OSError as err:
                self._pending.pop(corr_id, None)
                self._fail_pending_locked(err)
                raise TransportError(f"send failed: {err}") from err
        return future

    def call(self, request, timeout: float | None = None) -> ApiResponse:
        """Blocking convenience: submit and wait for the response.

        A timed-out call abandons its future — the window slot is
        reclaimed (``timed_out`` counts these) instead of leaking until
        the connection dies.
        """
        future = self.submit(request)
        try:
            return future.result(timeout if timeout is not None else self._timeout)
        except TimeoutError as err:
            self.abandon(future)
            raise TransportError(
                f"no response within {timeout or self._timeout}s"
            ) from err

    def abandon(self, future: Future) -> bool:
        """Stop waiting for a future :meth:`submit` returned: drop its
        correlation entry and free its window slot (the reader ignores a
        late response for an unknown id). True when an entry was
        removed; a future already answered or failed holds no slot, so
        abandoning it changes nothing and returns False."""
        with self._lock:
            if self._pending.pop(future._velox_corr, None) is None:
                return False
            self.timed_out += 1
            self._slot.notify()
            return True

    def analytics(
        self,
        uid: int | None = None,
        item: int | None = None,
        time_start: float | None = None,
        time_end: float | None = None,
        group_by: str | None = None,
        agg: str = "count",
        force_scan: bool = False,
        model: str | None = None,
        timeout: float | None = None,
    ) -> ApiResponse:
        """Blocking convenience for one observation-log rollup query."""
        return self.call(
            AnalyticsApiRequest(
                uid=uid,
                item=item,
                time_start=time_start,
                time_end=time_end,
                group_by=group_by,
                agg=agg,
                force_scan=force_scan,
                model=model,
            ),
            timeout=timeout,
        )

    @property
    def in_flight(self) -> int:
        """Number of submitted requests still awaiting responses."""
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        """Whether this connection can no longer carry requests —
        explicitly closed, or dead after a transport failure."""
        with self._lock:
            return self._closed or self._dead

    # -- reader thread -------------------------------------------------------

    def _read_loop(self) -> None:
        try:
            while True:
                frame = wire.read_frame(self._rfile)
                if frame is None:
                    raise TransportError("server closed the connection")
                opcode, corr_id, payload = frame
                if opcode != wire.OP_RESPONSE:
                    raise TransportError(
                        f"unexpected opcode {opcode} from server"
                    )
                response = wire.decode_response_payload(payload)
                with self._lock:
                    future = self._pending.pop(corr_id, None)
                    self._slot.notify()
                if future is not None:
                    future.set_result(response)
        except Exception as err:
            with self._lock:
                closing = self._closed
                self._fail_pending_locked(err)
            if not closing:
                self._teardown()

    def _fail_pending_locked(self, cause: Exception) -> None:
        """Fail every outstanding future; callers hold ``self._lock``.

        Also marks the connection dead: every caller has just hit a
        fatal transport condition, so nothing may route onto it again.
        """
        self._dead = True
        error = (
            cause
            if isinstance(cause, TransportError)
            else TransportError(f"connection lost: {cause}")
        )
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        self._slot.notify_all()

    # -- lifecycle -----------------------------------------------------------

    def _teardown(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._rfile.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Close the connection; outstanding futures fail with
        :class:`TransportError`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fail_pending_locked(TransportError("client closed"))
        self._teardown()
        if threading.current_thread() is not self._reader:
            self._reader.join(timeout=5)

    def __enter__(self) -> "PipelinedClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
