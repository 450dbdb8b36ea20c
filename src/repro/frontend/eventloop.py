"""Single-threaded event-loop TCP front end: C10k-scale connection intake.

A thread per connection bounds capacity by thread spawn cost, stack
memory, and scheduler churn long before the serving engine's queues
saturate. This module decouples connection count from thread count the
way Clipper and InferLine's front ends do: one thread, one
``selectors`` loop, and per-connection state machines.

Design:

* **Non-blocking everything.** The listener, every accepted socket, and
  the wake pipe are non-blocking; the loop thread never sleeps inside a
  read or write. Incoming bytes feed a per-connection incremental
  reassembler (:class:`~repro.frontend.wire.FrameDecoder`), so a
  slow-loris client trickling one byte per call costs one buffer
  append, not a parked thread.
* **One protocol, negotiated by one line.** A connection must open with
  the :data:`~repro.frontend.wire.HELLO_V2` preamble; the server echoes
  it and switches to correlated binary frames. The first byte that
  breaks the preamble closes the socket without a reply, so the
  negotiation buffer never holds more than ``len(HELLO_V2)`` bytes.
* **Engine-coupled dispatch.** Decoded requests enter the serving
  engine through :meth:`VeloxClient.dispatch_async`, stamped with the
  loop's ``recv`` time so admission control's age-bound shedding sees
  transport delay (reassembly + backpressure pauses), not just queue
  residence. Completion callbacks run on engine worker threads; they
  only enqueue a closure and wake the loop — all connection state is
  mutated by the loop thread alone, so no per-connection locks exist.
* **The lone predict is served where it was decoded.** An ordinary
  predict that is alone in its read and finds the engine idle is
  admitted, scored and framed on the loop thread
  (:meth:`VeloxClient.predict_inline`): no queue entry, no future, no
  wake byte. At most one attempt per turn, hit or miss, and none for
  the head of a burst, so frames that arrive together still fill a
  batch together and the loop computes at most one cached-feature row
  before it returns to ``select``.
* **One wake and one send per turn.** A completion wakes the loop
  through the self-pipe only when the loop may be asleep in ``select``
  with no wake byte on its way; responses queued during a turn leave in
  one ``send`` per connection at the end of it.
* **Write-side backpressure.** Responses queue in a per-connection
  outbound buffer flushed at the end of each turn and on writability.
  A buffer above ``high_water`` stops the socket's reads (the client's
  own sends eventually block — TCP propagates the pressure); reads
  resume below ``low_water``. Counters for paused sockets, buffered
  bytes, and dispatch depth are exported through the status endpoint.
* **Clean teardown.** ``stop()`` wakes the loop, which closes every
  connection (paused or mid-drain), the listener, the wake pipe, and
  the selector before exiting — repeated start/stop cycles leak no
  file descriptors. In-flight responses for a closed connection are
  dropped on completion; the peer observes the close as a
  :class:`~repro.common.errors.TransportError` on its pending futures.

Requests without an engine path (status, retrain, observe) execute
inline on the loop thread and are framed as soon as they return; the
hot path — predict/top-k with an engine attached — never blocks the
loop for more than that one row.
"""

from __future__ import annotations

import selectors
import socket
import threading
from collections import deque

from repro import chaos
from repro.common.errors import TransportError, ValidationError
from repro.frontend import wire
from repro.frontend.api import ApiResponse, PredictApiRequest
from repro.frontend.client import VeloxClient
from repro.metrics.frontend import FrontendCounters

#: Outbound-buffer high-water mark (bytes): a connection buffering more
#: unsent response bytes than this stops being read until it drains.
HIGH_WATER = 1 << 20
#: Resume reading once the outbound buffer falls below this.
LOW_WATER = 1 << 16
#: Per-recv chunk size.
_RECV_SIZE = 1 << 16
#: recv() calls per readable event before yielding to other sockets.
_RECV_ROUNDS = 4
#: Listen backlog — deep on purpose: connection bursts queue in the
#: kernel and drain at accept speed instead of being refused.
_LISTEN_BACKLOG = 1024

#: Selector registration markers for the non-connection fds.
_ACCEPT = object()
_WAKE = object()


class _Connection:
    """Per-socket state: reassembly buffers and in-flight futures."""

    __slots__ = (
        "sock",
        "hello",
        "decoder",
        "outbuf",
        "pending",
        "interest",
        "registered",
        "read_paused",
        "draining",
        "closed",
        "recv_stamp",
        "stalled",
    )

    def __init__(self, sock: socket.socket):
        self.sock = sock
        #: Opening bytes matched against the hello so far; never longer
        #: than the hello itself.
        self.hello = bytearray()
        #: Frame reassembler; None until the hello has been accepted.
        self.decoder: wire.FrameDecoder | None = None
        self.outbuf = bytearray()
        #: In-flight dispatch futures (order-free).
        self.pending: set = set()
        self.interest = 0
        self.registered = False
        self.read_paused = False
        self.draining = False
        self.closed = False
        #: Engine-clock stamp of the latest recv (enqueue_time source).
        self.recv_stamp: float | None = None
        #: Injected write stall (chaos ``frontend.stall_write``): while
        #: set, the outbound buffer accumulates but nothing is sent.
        self.stalled = False


def _response_of(done) -> ApiResponse:
    """A completed dispatch future's response; a raise becomes the
    error envelope."""
    try:
        return done.result()
    except Exception as err:
        return ApiResponse(ok=False, error=f"{type(err).__name__}: {err}")


class EventLoopServer:
    """Serves a Velox deployment on a TCP port (also exported as
    ``VeloxServer``).

    Usage::

        server = EventLoopServer(velox, port=0)   # 0 = ephemeral port
        server.start()
        ... PipelinedClient(server.host, server.port) ...
        server.stop()

    With ``engine`` set to a :class:`~repro.serving.ServingEngine`,
    predict/top-k requests are enqueued through the serving engine
    (adaptive batching across connections, admission control, load
    shedding) instead of dispatched inline; the engine's lifecycle
    follows the server's. The backpressure watermarks and the
    frame-size cap are exposed for tests and tuning.
    """

    def __init__(
        self,
        velox,
        host: str = "127.0.0.1",
        port: int = 0,
        engine=None,
        high_water: int = HIGH_WATER,
        low_water: int = LOW_WATER,
        max_frame_bytes: int | None = None,
        sndbuf: int | None = None,
    ):
        if not 0 < low_water < high_water:
            raise ValidationError(
                f"watermarks must satisfy 0 < low ({low_water}) < "
                f"high ({high_water})"
            )
        self.high_water = high_water
        self.low_water = low_water
        self.max_frame_bytes = (
            wire.MAX_FRAME_BYTES if max_frame_bytes is None else max_frame_bytes
        )
        self._sndbuf = sndbuf
        self._engine = engine
        self.velox_client = VeloxClient(velox, engine=engine)
        self.counters = FrontendCounters()
        self.velox_client.frontend_status = self.counters.snapshot
        self._clock = engine.clock if engine is not None else None

        self._listen = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listen.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listen.bind((host, port))
            self._listen.listen(_LISTEN_BACKLOG)
            self._listen.setblocking(False)
            self._wake_r, self._wake_w = socket.socketpair()
            self._wake_r.setblocking(False)
            self._wake_w.setblocking(False)
        except OSError:
            self._listen.close()
            raise
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listen, selectors.EVENT_READ, _ACCEPT)
        self._selector.register(self._wake_r, selectors.EVENT_READ, _WAKE)

        self._conns: set[_Connection] = set()
        #: Closures handed from completion callbacks to the loop thread.
        self._completions: deque = deque()
        #: True while a scheduled closure needs no wake byte: the loop is
        #: between ``select`` returning and its completion drain, or a
        #: byte that will end its ``select`` is already on its way.
        self._awake = False
        #: Whether this turn has already tried the inline predict leg.
        self._inline_tried = False
        #: Connections with bytes queued this turn, flushed at its end.
        self._dirty: set[_Connection] = set()
        #: Live chaos-delay timers (cancelled on teardown).
        self._timers: set[threading.Timer] = set()
        self._thread: threading.Thread | None = None
        self._stop_requested = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def server_address(self) -> tuple:
        """Bound (host, port)."""
        return self._listen.getsockname()

    @property
    def host(self) -> str:
        """Bound host address."""
        return self.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (useful with port 0 / ephemeral binding)."""
        return self.server_address[1]

    def start(self) -> "EventLoopServer":
        """Start the loop thread; returns self.

        An attached serving engine that is not yet running is started
        alongside the listener.
        """
        if self._thread is not None:
            raise ValidationError("server already started")
        if self._closed:
            raise ValidationError("server already stopped")
        if self._engine is not None and not self._engine.running:
            self._engine.start()
        self._thread = threading.Thread(
            target=self._run, name="velox-eventloop", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the loop, release every fd, then stop any attached
        engine (idempotent).

        Connections with unsent responses or in-flight dispatches are
        closed outright: their engine futures complete into a closed
        connection and are dropped, and the peers observe the dead
        socket as a ``TransportError`` on their pending futures.
        """
        if self._thread is None:
            self._teardown()  # bound but never started: release the fds
            return
        self._stop_requested = True
        self._wake()
        self._thread.join(timeout=5)
        self._thread = None
        if self._engine is not None:
            self._engine.stop()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # a wake byte is already pending, or we are torn down

    def _schedule(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the loop thread (any-thread safe).

        Append first, then read the flag: the loop clears it *before*
        draining, so a closure that saw it set was appended before that
        drain began and cannot be missed. Two threads seeing it clear at
        once cost a spare byte, never a lost wake.
        """
        self._completions.append((fn, args))
        if not self._awake:
            self._awake = True
            self._wake()

    def _later(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` on the loop thread after ``delay`` seconds.

        Used only by chaos injection: the delay ticks on a timer thread
        so an injected latency spike never blocks the loop itself (one
        slow connection must not stall the other thousands).
        """
        timer: threading.Timer | None = None

        def fire() -> None:
            self._timers.discard(timer)
            if not self._closed:
                self._schedule(fn, *args)

        timer = threading.Timer(delay, fire)
        timer.daemon = True
        self._timers.add(timer)
        timer.start()

    # -- the loop -------------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self._stop_requested:
                events = self._selector.select(timeout=1.0)
                self._awake = True
                self._inline_tried = False
                for key, mask in events:
                    data = key.data
                    if data is _ACCEPT:
                        self._on_accept()
                    elif data is _WAKE:
                        self._drain_wake()
                    else:
                        conn = data
                        if conn.closed:
                            continue  # closed earlier in this batch
                        if mask & selectors.EVENT_WRITE:
                            self._flush(conn)
                        if mask & selectors.EVENT_READ and not conn.closed:
                            self._on_readable(conn)
                self._awake = False
                self._drain_completions()
                for conn in self._dirty:
                    self._flush(conn)
                self._dirty.clear()
        finally:
            self._teardown()

    def _drain_wake(self) -> None:
        while True:
            try:
                if not self._wake_r.recv(4096):
                    return
            except (BlockingIOError, OSError):
                return

    def _drain_completions(self) -> None:
        while True:
            try:
                fn, args = self._completions.popleft()
            except IndexError:
                return
            fn(*args)

    def _teardown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for timer in list(self._timers):
            timer.cancel()
        self._timers.clear()
        for conn in list(self._conns):
            self._close(conn)
        for sock in (self._listen, self._wake_r, self._wake_w):
            try:
                self._selector.unregister(sock)
            except (KeyError, ValueError, OSError):
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._selector.close()
        self._completions.clear()
        self._dirty.clear()

    # -- accept / read --------------------------------------------------------

    def _on_accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listen.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                if self._sndbuf is not None:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF, self._sndbuf
                    )
            except OSError:
                pass
            conn = _Connection(sock)
            self._conns.add(conn)
            self.counters.connection_opened()
            accept_delay = chaos.latency("frontend.slow_accept")
            if accept_delay > 0.0:
                # Injected slow accept: the connection exists but is not
                # read until the delay elapses.
                self._later(
                    accept_delay, self._set_interest, conn,
                    selectors.EVENT_READ,
                )
                continue
            self._set_interest(conn, selectors.EVENT_READ)

    def _on_readable(self, conn: _Connection) -> None:
        for _ in range(_RECV_ROUNDS):
            try:
                chunk = conn.sock.recv(_RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close(conn)
                return
            if not chunk:
                self._start_drain(conn)  # clean EOF: flush, then close
                return
            self.counters.add_bytes_in(len(chunk))
            if self._clock is not None:
                conn.recv_stamp = self._clock.now()
            try:
                self._consume(conn, chunk)
            except Exception:
                # Wrong hello or corrupt framing: the stream is
                # unrecoverable; drop the connection without a reply.
                self.counters.protocol_error()
                self._close(conn)
                return
            if conn.closed or conn.read_paused:
                return
            if len(chunk) < _RECV_SIZE:
                return  # socket likely drained; don't spin on recv

    # -- protocol state machine -----------------------------------------------

    def _consume(self, conn: _Connection, chunk: bytes) -> None:
        if conn.decoder is None:
            chunk = self._negotiate(conn, chunk)
            if chunk is None:
                return  # strict prefix: the rest is still in flight
        conn.decoder.feed(chunk)
        for opcode, corr_id, payload in conn.decoder.drain():
            if conn.closed:
                break  # a write failure killed the socket mid-batch
            self._dispatch_frame(conn, opcode, corr_id, payload)

    def _negotiate(self, conn: _Connection, chunk: bytes) -> bytes | None:
        """Match the opening bytes against the hello.

        Returns what follows the hello once it is complete (the echo is
        queued and the decoder created), ``None`` while more bytes are
        needed, and raises at the first byte that breaks the prefix.
        Only the bytes still missing from the hello are buffered.
        """
        need = len(wire.HELLO_V2) - len(conn.hello)
        conn.hello += chunk[:need]
        if not wire.HELLO_V2.startswith(conn.hello):
            raise TransportError(
                f"connection did not open with {wire.HELLO_V2!r}"
            )
        if len(conn.hello) < len(wire.HELLO_V2):
            return None
        conn.decoder = wire.FrameDecoder(self.max_frame_bytes)
        self._queue_bytes(conn, wire.HELLO_V2)
        return chunk[need:]

    def _dispatch_frame(
        self, conn: _Connection, opcode: int, corr_id: int, payload: bytes
    ) -> None:
        self.counters.frame_in()
        try:
            request = wire.decode_request_payload(opcode, payload)
        except Exception as err:
            self._queue_frame(
                conn,
                corr_id,
                ApiResponse(ok=False, error=f"{type(err).__name__}: {err}"),
            )
            return
        if type(request) is PredictApiRequest and not self._inline_tried:
            self._inline_tried = True
            # Lone: nothing behind it in this read. The head of a burst
            # is not worth answering apart from the batch it belongs to.
            if not conn.decoder.buffered:
                response = self.velox_client.predict_inline(
                    request, conn.recv_stamp
                )
                if response is not None:
                    self._queue_frame(conn, corr_id, response)
                    return
        future = self.velox_client.dispatch_async(
            request, enqueue_time=conn.recv_stamp
        )
        if future.done():
            # Answered on this thread (observe, status, a degraded read,
            # a shed at admission): there is no hand-off to route back.
            self._queue_frame(conn, corr_id, _response_of(future))
            return
        conn.pending.add(future)
        self.counters.dispatch_started()
        future.add_done_callback(
            lambda done, conn=conn, corr_id=corr_id: self._schedule(
                self._complete_frame, conn, corr_id, done
            )
        )

    def _complete_frame(self, conn: _Connection, corr_id: int, done) -> None:
        """Loop-thread completion: route a response to its frame."""
        if done in conn.pending:
            conn.pending.discard(done)
            self.counters.dispatch_finished()
        if conn.closed:
            return  # the socket died while the engine worked
        self._queue_frame(conn, corr_id, _response_of(done))
        self._maybe_finish_drain(conn)

    # -- writes & backpressure ------------------------------------------------

    def _queue_frame(
        self, conn: _Connection, corr_id: int, response: ApiResponse
    ) -> None:
        try:
            frame = wire.encode_response_frame(response, corr_id)
        except Exception as err:  # unserializable payload
            frame = wire.encode_response_frame(
                ApiResponse(ok=False, error=f"{type(err).__name__}: {err}"),
                corr_id,
            )
        if chaos.active() is not None:
            # Wire-codec fault injection, response path. Evaluated per
            # frame, keyed-free (consultation order on the loop thread
            # is the request completion order).
            if chaos.should("wire.reset"):
                self._close(conn)
                return
            if chaos.should("wire.drop_response"):
                return
            if chaos.should("wire.garble_response"):
                frame = chaos.garble(frame)
            delay = chaos.latency("wire.delay_response")
            if delay > 0.0:
                self.counters.frame_out()
                self._later(delay, self._queue_bytes, conn, frame)
                return
        self.counters.frame_out()
        self._queue_bytes(conn, frame)

    def _queue_bytes(self, conn: _Connection, data: bytes) -> None:
        if conn.closed:
            return
        conn.outbuf += data
        if (
            not conn.stalled
            and chaos.active() is not None
        ):
            stall = chaos.latency("frontend.stall_write")
            if stall > 0.0:
                conn.stalled = True
                self._later(stall, self._unstall, conn)
        self._dirty.add(conn)

    def _unstall(self, conn: _Connection) -> None:
        """End an injected write stall and drain what accumulated."""
        conn.stalled = False
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        if conn.closed:
            return
        while not conn.stalled and conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close(conn)
                return
            if sent == 0:
                break
            del conn.outbuf[:sent]
            self.counters.add_bytes_out(sent)
        if conn.read_paused:
            if len(conn.outbuf) <= self.low_water:
                conn.read_paused = False
                self.counters.read_resume()
        elif len(conn.outbuf) >= self.high_water:
            conn.read_paused = True
            self.counters.read_pause()
        self._update_interest(conn)
        self._maybe_finish_drain(conn)

    def _update_interest(self, conn: _Connection) -> None:
        mask = 0
        if not conn.draining and not conn.read_paused:
            mask |= selectors.EVENT_READ
        # A stalled connection must not watch writability: the socket is
        # writable the whole time, and the loop would spin on it.
        if conn.outbuf and not conn.stalled:
            mask |= selectors.EVENT_WRITE
        self._set_interest(conn, mask)

    def _set_interest(self, conn: _Connection, mask: int) -> None:
        if conn.closed:
            return
        try:
            if mask == 0:
                if conn.registered:
                    self._selector.unregister(conn.sock)
                    conn.registered = False
            elif not conn.registered:
                self._selector.register(conn.sock, mask, conn)
                conn.registered = True
            elif mask != conn.interest:
                self._selector.modify(conn.sock, mask, conn)
        except (KeyError, ValueError, OSError):
            self._close(conn)
            return
        conn.interest = mask

    # -- drain & close --------------------------------------------------------

    def _start_drain(self, conn: _Connection) -> None:
        """Peer EOF: stop reading, finish in-flight work, then close."""
        if conn.closed or conn.draining:
            return
        conn.draining = True
        self._update_interest(conn)
        self._maybe_finish_drain(conn)

    def _maybe_finish_drain(self, conn: _Connection) -> None:
        if (
            conn.draining
            and not conn.closed
            and not conn.outbuf
            and not conn.pending
        ):
            self._close(conn)

    def _close(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        if conn.registered:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.registered = False
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.discard(conn)
        if conn.read_paused:
            conn.read_paused = False
            self.counters.read_resume()
        # In-flight dispatches are abandoned: their completions find the
        # connection closed and drop the response. Balance the gauge now
        # so dispatch_depth never counts work with nowhere to land.
        for _ in range(len(conn.pending)):
            self.counters.dispatch_finished()
        conn.pending.clear()
        self.counters.connection_closed()

    def __enter__(self) -> "EventLoopServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
