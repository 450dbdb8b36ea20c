"""Pipelined socket client: many in-flight requests per connection.

A client that sends one request and blocks for its response bounds a
connection's throughput by one round trip per request, and a
server-side adaptive batcher only ever sees batches of one from it.
:class:`PipelinedClient` keeps a window of correlated requests in flight
on a single socket: ``submit`` frames and sends immediately and returns
a future; a reader thread completes futures as response frames arrive
(out of order is fine — the correlation id routes them). A small
:class:`ConnectionPool` spreads submissions across several pipelined
connections for multi-connection load generators.

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

from repro.common.errors import OverloadedError, TransportError
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

    ``max_inflight`` caps the pipelining window. With the default
    ``block_on_full=True``, ``submit`` waits (up to ``timeout``) for a
    response to free a slot — a closed-loop generator self-paces to the
    server instead of queueing unboundedly. With ``block_on_full=False``
    a full window raises :class:`~repro.common.errors.OverloadedError`
    immediately, for callers that shed their own load.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        max_inflight: int | None = None,
        block_on_full: bool = True,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise TransportError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self._max_inflight = max_inflight
        self._block_on_full = block_on_full
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
        #: calls abandoned at timeout (window slots recovered).
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
        inflight = len(self._pending)
        if inflight < self._max_inflight:
            return
        if not self._block_on_full:
            raise OverloadedError(
                "client-pipeline",
                f"window full ({inflight}/{self._max_inflight} in flight)",
            )
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
            self._abandon(future)
            raise TransportError(
                f"no response within {timeout or self._timeout}s"
            ) from err

    def _abandon(self, future: Future) -> None:
        """Release a timed-out call's window slot: drop its correlation
        entry (the reader ignores a late response for an unknown id)."""
        with self._lock:
            self.timed_out += 1
            if self._pending.pop(future._velox_corr, None) is not None:
                self._slot.notify()

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
        fatal transport condition, so pools must stop routing onto it.
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


class ConnectionPool:
    """A self-healing pool of :class:`PipelinedClient` connections.

    ``submit``/``call`` round-robin across the pool, so a load generator
    gets both pipelining depth (per connection) and connection
    parallelism without managing sockets itself. Dead connections (a
    restarted server, a dropped socket) are detected at pick time and
    transparently reconnected with a doubling, capped backoff — the
    pool never round-robins onto a closed socket forever. Reconnect
    attempts and successes are surfaced as counters.
    """

    def __init__(
        self,
        host: str,
        port: int,
        size: int = 4,
        timeout: float = 10.0,
        reconnect_backoff: float = 0.05,
        max_reconnect_backoff: float = 2.0,
        max_inflight: int | None = None,
        block_on_full: bool = True,
        breaker=None,
    ):
        """``breaker`` (optional) is a
        :class:`~repro.frontend.resilient.CircuitBreaker` guarding this
        pool's target: every submit/call asks it for permission first
        (raising :class:`~repro.common.errors.CircuitOpenError` while
        open) and reports transport success/failure back to it.
        """
        if size < 1:
            raise TransportError(f"pool size must be >= 1, got {size}")
        if reconnect_backoff <= 0 or max_reconnect_backoff < reconnect_backoff:
            raise TransportError(
                "reconnect backoff must satisfy "
                f"0 < initial ({reconnect_backoff}) <= "
                f"cap ({max_reconnect_backoff})"
            )
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_inflight = max_inflight
        self._block_on_full = block_on_full
        self._initial_backoff = reconnect_backoff
        self._max_backoff = max_reconnect_backoff
        self._breaker = breaker
        self._clients: list[PipelinedClient | None] = []
        #: per-slot current backoff and earliest next attempt (monotonic).
        self._backoff: list[float] = [reconnect_backoff] * size
        self._retry_at: list[float] = [0.0] * size
        #: successful transparent reconnections across the pool's life.
        self.reconnects = 0
        #: reconnect attempts that failed (the server was still down).
        self.failed_reconnects = 0
        self._closed = False
        # Connect eagerly but tolerate a down endpoint: a dead slot is
        # left None (in backoff) and healed by the reconnect path on a
        # later pick. A resilience stack (breaker/retry) sitting on top
        # of the pool must be constructible while its target is down.
        now = time.monotonic()
        for index in range(size):
            try:
                self._clients.append(self._connect())
            except (TransportError, OSError):
                self.failed_reconnects += 1
                self._clients.append(None)
                self._retry_at[index] = now + self._backoff[index]
                self._backoff[index] = min(
                    self._backoff[index] * 2, self._max_backoff
                )
        self._lock = threading.Lock()
        self._next = 0

    def _connect(self) -> PipelinedClient:
        return PipelinedClient(
            self._host,
            self._port,
            timeout=self._timeout,
            max_inflight=self._max_inflight,
            block_on_full=self._block_on_full,
        )

    def __len__(self) -> int:
        return len(self._clients)

    def _reconnect_locked(self, index: int) -> PipelinedClient | None:
        """Try to heal one dead slot; None while in backoff or still down."""
        now = time.monotonic()
        if now < self._retry_at[index]:
            return None
        try:
            client = self._connect()
        except Exception:
            self.failed_reconnects += 1
            self._retry_at[index] = now + self._backoff[index]
            self._backoff[index] = min(
                self._backoff[index] * 2, self._max_backoff
            )
            self._clients[index] = None
            return None
        self._clients[index] = client
        self._backoff[index] = self._initial_backoff
        self._retry_at[index] = 0.0
        self.reconnects += 1
        return client

    def _pick(self) -> PipelinedClient:
        """The next usable connection, healing dead slots on the way.

        Scans at most one full round: live slots win immediately; dead
        slots whose backoff has elapsed get one reconnect attempt. When
        every slot is down (and backing off), the submission fails with
        :class:`TransportError` rather than blocking.
        """
        with self._lock:
            if self._closed:
                raise TransportError("pool is closed")
            for _ in range(len(self._clients)):
                index = self._next % len(self._clients)
                self._next += 1
                client = self._clients[index]
                if client is not None and not client.closed:
                    return client
                healed = self._reconnect_locked(index)
                if healed is not None:
                    return healed
            raise TransportError(
                f"all {len(self._clients)} pooled connections are down "
                f"({self.failed_reconnects} failed reconnects so far)"
            )

    def submit(self, request) -> "Future[ApiResponse]":
        """Submit on the next usable connection (round-robin)."""
        if self._breaker is not None:
            self._breaker.before_call()
        try:
            return self._pick().submit(request)
        except TransportError:
            if self._breaker is not None:
                self._breaker.on_failure()
            raise

    def call(self, request, timeout: float | None = None) -> ApiResponse:
        """Blocking submit + wait on the next usable connection."""
        if self._breaker is not None:
            self._breaker.before_call()
        try:
            response = self._pick().call(request, timeout=timeout)
        except TransportError:
            if self._breaker is not None:
                self._breaker.on_failure()
            raise
        if self._breaker is not None:
            self._breaker.on_success()
        return response

    def close(self) -> None:
        """Close every pooled connection."""
        self._closed = True
        for client in self._clients:
            if client is not None:
                client.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
