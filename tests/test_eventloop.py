"""Event-loop front end: bounded negotiation, framing robustness under
hostile clients, write-side backpressure, clean teardown, and the
pipelined client's in-flight window."""

from __future__ import annotations

import io
import json
import os
import queue
import socket
import struct
import sys
import threading
import time
from concurrent.futures import Future

import pytest

import repro.frontend
from repro import VeloxConfig
from repro.common.errors import (
    ConfigError,
    TransportError,
    ValidationError,
)
from repro.frontend import (
    ApiResponse,
    EventLoopServer,
    HealthApiRequest,
    ObserveApiRequest,
    PipelinedClient,
    PredictApiRequest,
    StatusApiRequest,
    VeloxServer,
)
from repro.frontend import wire
from repro.serving import ServingConfig

from tests.conftest import SilentServer


def _read_hello(sock: socket.socket) -> None:
    """Consume the server's echoed hello line off a raw socket."""
    got = b""
    while not got.endswith(b"\n"):
        chunk = sock.recv(1)
        assert chunk, "server closed during negotiation"
        got += chunk
    assert got == wire.HELLO_V2


def _poll(predicate, timeout: float = 5.0, interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestOneFrontEnd:
    def test_velox_server_is_the_event_loop_server(self):
        assert VeloxServer is EventLoopServer
        assert not hasattr(repro.frontend, "RemoteClient")

    def test_config_has_no_frontend_field(self):
        assert not hasattr(VeloxConfig(), "frontend")
        saved = json.loads(VeloxConfig().to_json())
        saved["frontend"] = "threaded"
        with pytest.raises(ConfigError, match="unknown config keys"):
            VeloxConfig.from_json(json.dumps(saved))

    def test_eventloop_rejects_bad_watermarks(self, deployed_velox):
        with pytest.raises(ValidationError, match="watermark"):
            EventLoopServer(deployed_velox, high_water=100, low_water=100)

    def test_engine_lifecycle_follows_the_server(self, deployed_velox):
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        server = EventLoopServer(deployed_velox, engine=engine)
        assert not engine.running
        server.start()
        try:
            assert engine.running
            assert (server.host, server.port) == server.server_address
        finally:
            server.stop()
        assert not engine.running
        engine.stop()  # a later explicit stop stays harmless
        server.stop()


class TestRefusedConnections:
    """A connection that does not open with ``VLXB2\\n`` is closed at
    the first byte that breaks the prefix, without a reply, and nobody
    else on the server notices."""

    @pytest.mark.parametrize(
        "opening",
        [
            b'{"method": "predict", "uid": 1, "item": 2}\n',
            b"VLXB1\n",
            bytes(range(200, 256)) * 4,
        ],
        ids=["json-line", "v1-hello", "random-bytes"],
    )
    def test_wrong_opening_is_refused(self, deployed_velox, opening):
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as good:
                sock = socket.create_connection(
                    (server.host, server.port), timeout=5
                )
                try:
                    sock.sendall(opening)
                    assert sock.recv(64) == b""  # closed, nothing said
                except ConnectionResetError:
                    pass  # unread bytes at close turn the FIN into a RST
                finally:
                    sock.close()
                assert _poll(
                    lambda: server.counters.snapshot()["protocol_errors"] == 1
                )
                assert _poll(
                    lambda: server.counters.snapshot()["open_connections"] == 1
                )
                response = good.call(PredictApiRequest(uid=1, item=2))
                assert response.ok, response.error
            with PipelinedClient(server.host, server.port) as later:
                assert later.call(PredictApiRequest(uid=1, item=3)).ok

    def test_negotiation_buffer_is_bounded_by_the_hello(self, deployed_velox):
        """Only the bytes still missing from the hello are ever kept,
        however much arrives with them."""
        server = EventLoopServer(deployed_velox)
        try:
            ours, theirs = socket.socketpair()
            conn = repro.frontend.eventloop._Connection(theirs)
            assert server._negotiate(conn, b"VLX") is None
            assert bytes(conn.hello) == b"VLX"
            with pytest.raises(TransportError, match="did not open with"):
                server._negotiate(conn, b"x" * 100_000)
            assert len(conn.hello) <= len(wire.HELLO_V2)
            ours.close()
            theirs.close()
        finally:
            server.stop()


class TestSlowAndHostileClients:
    def test_byte_at_a_time_binary_request(self, deployed_velox):
        """A slow-loris client trickling one byte per send — hello
        included — still gets a correct response: the server
        reassembles incrementally."""
        with VeloxServer(deployed_velox) as server:
            sock = socket.create_connection((server.host, server.port), timeout=10)
            try:
                request = wire.encode_request_frame(
                    PredictApiRequest(uid=1, item=2), 77
                )
                for i in range(len(wire.HELLO_V2)):
                    sock.sendall(wire.HELLO_V2[i : i + 1])
                    time.sleep(0.002)  # one recv per byte, not one per hello
                _read_hello(sock)
                for i in range(len(request)):
                    sock.sendall(request[i : i + 1])
                rfile = sock.makefile("rb")
                frame = wire.read_frame(rfile)
                assert frame is not None
                opcode, corr_id, payload = frame
                assert opcode == wire.OP_RESPONSE
                assert corr_id == 77
                response = wire.decode_response_payload(payload)
                assert response.ok, response.error
                assert response.payload["item"] == 2
                assert server.counters.snapshot()["protocol_errors"] == 0
            finally:
                sock.close()

    def test_mid_frame_disconnect_does_not_wedge(self, deployed_velox):
        """A client dying mid-frame must not wedge the server: later
        connections are served normally."""
        with VeloxServer(deployed_velox) as server:
            sock = socket.create_connection((server.host, server.port), timeout=10)
            sock.sendall(wire.HELLO_V2)
            _read_hello(sock)
            # Header promising a 1000-byte frame, then vanish mid-body.
            sock.sendall(struct.pack(">IBQ", 1000, wire.OP_PREDICT, 5))
            sock.sendall(b"\x00" * 10)
            sock.close()
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(PredictApiRequest(uid=1, item=2))
                assert response.ok, response.error

    def test_oversized_frame_rejected_before_allocation(self, deployed_velox):
        """A hostile length prefix drops the connection with a typed
        error, and the server keeps serving everyone else."""
        with VeloxServer(deployed_velox) as server:
            sock = socket.create_connection((server.host, server.port), timeout=10)
            sock.sendall(wire.HELLO_V2)
            _read_hello(sock)
            sock.sendall(
                struct.pack(">IBQ", wire.MAX_FRAME_BYTES + 1, wire.OP_PREDICT, 5)
            )
            # The server must close on us rather than buffer toward 64MB.
            sock.settimeout(5)
            assert sock.recv(1) == b""
            sock.close()
            with PipelinedClient(server.host, server.port) as client:
                assert client.call(PredictApiRequest(uid=1, item=2)).ok


class TestEventLoopServing:
    def test_pipelined_burst_through_engine(self, deployed_velox):
        """Many in-flight correlated requests over one socket, through
        the serving engine, all routed back to the right futures."""
        engine = deployed_velox.serving_engine(
            ServingConfig(num_workers=2, batching="adaptive", slo_p99=1.0)
        )
        expected = {
            item: deployed_velox.service.predict("songs", 3, item).score
            for item in range(40)
        }
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                futures = {
                    item: client.submit(PredictApiRequest(uid=3, item=item))
                    for item in range(40)
                }
                for item, future in futures.items():
                    response = future.result(timeout=10)
                    assert response.ok, response.error
                    assert response.payload["item"] == item
                    assert response.payload["score"] == pytest.approx(
                        expected[item], abs=1e-9
                    )

    def test_status_exposes_frontend_counters(self, deployed_velox):
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as client:
                payload = client.call(StatusApiRequest()).payload
                counters = payload["frontend"]
                assert counters["open_connections"] >= 1
                assert counters["frames_in"] >= 1
                assert counters["bytes_in"] > 0
                assert counters["bytes_out"] > 0
                assert counters["read_paused"] == 0


class TestBackpressure:
    def test_write_pressure_pauses_and_resumes_reads(self, deployed_velox):
        """A client that sends but never reads must trip the high-water
        pause (visible in counters) and resume once it drains."""
        server = EventLoopServer(
            deployed_velox,
            high_water=32 * 1024,
            low_water=4 * 1024,
            sndbuf=8 * 1024,
        ).start()
        host, port = server.server_address
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 8 * 1024)
        try:
            sock.connect((host, port))
            sock.sendall(wire.HELLO_V2)
            _read_hello(sock)
            total = 1200
            burst = b"".join(
                wire.encode_request_frame(PredictApiRequest(uid=1, item=2), i)
                for i in range(total)
            )
            sender = threading.Thread(target=sock.sendall, args=(burst,))
            sender.start()
            assert _poll(lambda: server.counters.snapshot()["read_paused"] >= 1), (
                "outbound pressure never paused reads: "
                f"{server.counters.snapshot()}"
            )
            # Drain every response; the pause must lift.
            rfile = sock.makefile("rb")
            seen = 0
            while seen < total:
                frame = wire.read_frame(rfile)
                assert frame is not None
                seen += 1
            sender.join(timeout=10)
            assert not sender.is_alive()
            snap = server.counters.snapshot()
            assert snap["pause_events"] >= 1
            assert _poll(lambda: server.counters.snapshot()["read_paused"] == 0)
        finally:
            sock.close()
            server.stop()


class _CountingSocket:
    """Stands in for a socket and counts its ``send`` calls."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.sends = 0

    def send(self, data) -> int:
        self.sends += 1
        return self._sock.send(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _held_dispatch(server) -> queue.Queue:
    """Make every request's future the test's to complete: they arrive
    on the returned queue as the loop dispatches them."""
    held: queue.Queue = queue.Queue()

    def dispatch_async(request, enqueue_time=None):
        future: Future = Future()
        held.put(future)
        return future

    server.velox_client.dispatch_async = dispatch_async
    return held


class TestReactorTurn:
    """One wake byte and one ``send`` per connection per turn, and no
    wake ever lost to the elision."""

    def test_completions_mid_turn_cost_one_wake_and_one_send(
        self, deployed_velox
    ):
        total = 32
        server = VeloxServer(deployed_velox)
        held = _held_dispatch(server)
        server.start()
        sock = socket.create_connection((server.host, server.port), timeout=5)
        try:
            sock.sendall(wire.HELLO_V2)
            _read_hello(sock)
            sock.sendall(
                b"".join(
                    wire.encode_request_frame(PredictApiRequest(uid=1, item=i), i)
                    for i in range(total)
                )
            )
            futures = [held.get(timeout=5) for _ in range(total)]
            # Park the loop inside a turn, then count what the
            # completions cost once it moves again.
            parked, release = threading.Event(), threading.Event()
            server._schedule(lambda: (parked.set(), release.wait(5)))
            assert parked.wait(5)
            (conn,) = server._conns
            conn.sock = counted = _CountingSocket(conn.sock)
            server._wake_w = wake = _CountingSocket(server._wake_w)
            worker = threading.Thread(
                target=lambda: [
                    f.set_result(ApiResponse(ok=True, payload={"n": n}))
                    for n, f in enumerate(futures)
                ]
            )
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive()
            release.set()
            rfile = sock.makefile("rb")
            answered = {wire.read_frame(rfile)[1] for _ in range(total)}
            assert answered == set(range(total))
            assert wake.sends == 1
            assert counted.sends == 1
            assert server.counters.snapshot()["frames_out"] == total
        finally:
            sock.close()
            server.stop()

    def test_completion_racing_the_loop_to_sleep_is_never_lost(
        self, deployed_velox
    ):
        """Each future completes from this thread just as the loop
        finishes the turn that dispatched it; a wake elided wrongly
        would leave the response waiting out ``select``'s 1 s timeout."""
        server = VeloxServer(deployed_velox)
        held = _held_dispatch(server)
        server.start()
        sock = socket.create_connection((server.host, server.port), timeout=0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sock.sendall(wire.HELLO_V2)
            _read_hello(sock)
            rfile = sock.makefile("rb")
            frame = wire.encode_request_frame(PredictApiRequest(uid=1, item=2), 7)
            for _ in range(10_000):
                sock.sendall(frame)
                held.get(timeout=0.5).set_result(ApiResponse(ok=True))
                assert wire.read_frame(rfile)[1] == 7
            assert server.counters.snapshot()["frames_out"] == 10_000
        finally:
            sys.setswitchinterval(interval)
            sock.close()
            server.stop()

    def test_lone_predict_on_idle_engine_is_answered_in_its_own_turn(
        self, deployed_velox, monkeypatch
    ):
        """No future, no queue entry, no wake byte, one ``send``: the
        reactor admits, scores and frames it where it decoded it."""
        engine = deployed_velox.serving_engine(ServingConfig())
        server = VeloxServer(deployed_velox, engine=engine).start()
        sock = socket.create_connection((server.host, server.port), timeout=5)
        try:
            sock.sendall(wire.HELLO_V2)
            _read_hello(sock)
            (conn,) = server._conns
            conn.sock = counted = _CountingSocket(conn.sock)
            server._wake_w = wake = _CountingSocket(server._wake_w)
            futures = []
            init = Future.__init__
            monkeypatch.setattr(
                Future, "__init__",
                lambda self: (futures.append(self), init(self))[1],
            )
            sock.sendall(
                wire.encode_request_frame(PredictApiRequest(uid=1, item=2), 7)
            )
            _opcode, corr_id, payload = wire.read_frame(sock.makefile("rb"))
            response = wire.decode_response_payload(payload)
            assert corr_id == 7 and response.ok, response.error
            assert response.payload["item"] == 2
            assert futures == []
            assert (wake.sends, counted.sends) == (0, 1)
            assert server.counters.snapshot()["dispatch_depth"] == 0
            (snapshot,) = engine.metrics_snapshot().values()
            assert (
                snapshot["enqueued"], snapshot["inline"], snapshot["completed"]
            ) == (1, 1, 1)
            status = server.velox_client.status().payload["serving"]
            assert sum(q["inline"] for q in status.values()) == 1
        finally:
            sock.close()
            server.stop()

    def test_frames_sharing_a_read_fill_batches_not_the_reactor(
        self, deployed_velox
    ):
        """40 predicts in one read: the head of a burst is not a lone
        predict, so none is served inline; they queue up and batch."""
        total = 40
        engine = deployed_velox.serving_engine(
            ServingConfig(num_workers=1, batching="adaptive", slo_p99=5.0)
        )
        server = VeloxServer(deployed_velox, engine=engine).start()
        sock = socket.create_connection((server.host, server.port), timeout=5)
        try:
            sock.sendall(wire.HELLO_V2)
            _read_hello(sock)
            # Park the loop so that every frame is in the socket buffer
            # when its next turn reads.
            parked, release = threading.Event(), threading.Event()
            server._schedule(lambda: (parked.set(), release.wait(5)))
            assert parked.wait(5)
            sock.sendall(
                b"".join(
                    wire.encode_request_frame(PredictApiRequest(uid=1, item=i), i)
                    for i in range(total)
                )
            )
            release.set()
            rfile = sock.makefile("rb")
            answered = {wire.read_frame(rfile)[1] for _ in range(total)}
            assert answered == set(range(total))
            (snapshot,) = engine.metrics_snapshot().values()
            assert snapshot["completed"] == total
            assert snapshot["inline"] == 0
            assert snapshot["batch_size_mean"] > 1.0
        finally:
            sock.close()
            server.stop()

    def test_one_inline_attempt_per_turn(self, deployed_velox):
        """Two sockets, one lone predict each, read in the same turn: the
        reactor answers one itself and queues the other."""
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        server = VeloxServer(deployed_velox, engine=engine).start()
        socks = [
            socket.create_connection((server.host, server.port), timeout=5)
            for _ in range(2)
        ]
        try:
            for sock in socks:
                sock.sendall(wire.HELLO_V2)
                _read_hello(sock)
            parked, release = threading.Event(), threading.Event()
            server._schedule(lambda: (parked.set(), release.wait(5)))
            assert parked.wait(5)
            for n, sock in enumerate(socks):
                sock.sendall(
                    wire.encode_request_frame(PredictApiRequest(uid=1, item=n), n)
                )
            release.set()
            for n, sock in enumerate(socks):
                assert wire.read_frame(sock.makefile("rb"))[1] == n
            (snapshot,) = engine.metrics_snapshot().values()
            assert (snapshot["inline"], snapshot["completed"]) == (1, 2)
        finally:
            for sock in socks:
                sock.close()
            server.stop()

    def test_inline_requests_schedule_no_self_wake(self, deployed_velox):
        server = VeloxServer(deployed_velox)
        server._wake_w = wake = _CountingSocket(server._wake_w)
        with server:
            with PipelinedClient(server.host, server.port) as client:
                for request in (
                    ObserveApiRequest(uid=1, item=2, label=4.0),
                    StatusApiRequest(),
                    HealthApiRequest(),
                ):
                    response = client.call(request)
                    assert response.ok, response.error
            assert wake.sends == 0  # answered within the turn that read them


class TestTeardown:
    def test_no_fd_leak_over_restart_cycles(self, deployed_velox):
        """Repeated start/serve/stop cycles hold the process fd count
        flat: listener, wake pipe, selector, and conns all released."""

        def cycle() -> None:
            with VeloxServer(deployed_velox) as server:
                with PipelinedClient(server.host, server.port) as client:
                    assert client.call(PredictApiRequest(uid=1, item=2)).ok

        cycle()  # warm up lazily-created interpreter state
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            cycle()
        after = len(os.listdir("/proc/self/fd"))
        assert after <= before + 2, f"fd count grew {before} -> {after}"

    def test_stop_fails_pending_client_futures(self, deployed_velox):
        """Stopping the server mid-flight surfaces TransportError on the
        client's pending futures instead of hanging them."""
        server = VeloxServer(deployed_velox).start()
        stuck: Future = Future()  # never completes
        server.velox_client.dispatch_async = (
            lambda request, enqueue_time=None: stuck
        )
        client = PipelinedClient(server.host, server.port)
        try:
            future = client.submit(PredictApiRequest(uid=1, item=2))
            server.stop()
            with pytest.raises(TransportError):
                future.result(timeout=10)
        finally:
            client.close()
            server.stop()

    def test_stop_before_start_releases_listener(self, deployed_velox):
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            VeloxServer(deployed_velox).stop()
        after = len(os.listdir("/proc/self/fd"))
        assert after <= before + 2


class TestMaxInflight:
    def test_blocking_submit_times_out(self):
        with SilentServer() as stub:
            with PipelinedClient(
                stub.host, stub.port, timeout=0.3, max_inflight=1
            ) as client:
                client.submit(PredictApiRequest(uid=1, item=1))
                start = time.monotonic()
                with pytest.raises(TransportError, match="window full"):
                    client.submit(PredictApiRequest(uid=1, item=2))
                assert time.monotonic() - start >= 0.25

    def test_window_rejects_nonpositive(self):
        with pytest.raises(TransportError, match="max_inflight"):
            PipelinedClient("127.0.0.1", 1, max_inflight=0)

    def test_blocking_window_paces_against_live_server(self, deployed_velox):
        """With a responsive server the window never exceeds the cap and
        every submission eventually lands."""
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(
                server.host, server.port, max_inflight=4
            ) as client:
                futures = []
                for item in range(50):
                    futures.append(
                        client.submit(PredictApiRequest(uid=1, item=item))
                    )
                    assert client.in_flight <= 4
                for item, future in enumerate(futures):
                    response = future.result(timeout=10)
                    assert response.ok, response.error
                    assert response.payload["item"] == item


class TestFrameDecoder:
    def test_incremental_single_bytes(self):
        frame = wire.encode_request_frame(PredictApiRequest(uid=9, item=4), 123)
        decoder = wire.FrameDecoder()
        for i in range(len(frame) - 1):
            decoder.feed(frame[i : i + 1])
            assert decoder.next_frame() is None
        decoder.feed(frame[-1:])
        opcode, corr_id, payload = decoder.next_frame()
        assert opcode == wire.OP_PREDICT
        assert corr_id == 123
        request = wire.decode_request_payload(opcode, payload)
        assert request == PredictApiRequest(uid=9, item=4)
        assert decoder.buffered == 0

    def test_drain_yields_every_buffered_frame(self):
        frames = [
            wire.encode_request_frame(PredictApiRequest(uid=1, item=i), i)
            for i in range(5)
        ]
        decoder = wire.FrameDecoder()
        decoder.feed(b"".join(frames))
        corr_ids = [corr_id for _, corr_id, _ in decoder.drain()]
        assert corr_ids == [0, 1, 2, 3, 4]
        assert decoder.next_frame() is None

    def test_oversized_prefix_rejected_with_only_four_bytes(self):
        decoder = wire.FrameDecoder(max_frame_bytes=64)
        decoder.feed(struct.pack(">I", 1_000_000))
        with pytest.raises(TransportError, match="invalid frame length"):
            decoder.next_frame()

    def test_undersized_prefix_rejected(self):
        decoder = wire.FrameDecoder()
        decoder.feed(struct.pack(">I", 3))  # below the 9-byte header floor
        with pytest.raises(TransportError, match="invalid frame length"):
            decoder.next_frame()

    def test_decoder_rejects_absurd_limit(self):
        with pytest.raises(ValidationError, match="max_frame_bytes"):
            wire.FrameDecoder(max_frame_bytes=4)

    def test_read_frame_honours_custom_limit(self):
        frame = wire.encode_frame(wire.OP_PREDICT, 1, b"\x00" * 100)
        with pytest.raises(TransportError, match="invalid frame length"):
            wire.read_frame(io.BytesIO(frame), max_frame_bytes=50)
        # The same frame passes under the default limit.
        opcode, corr_id, payload = wire.read_frame(io.BytesIO(frame))
        assert (opcode, corr_id, len(payload)) == (wire.OP_PREDICT, 1, 100)
