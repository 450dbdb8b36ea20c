"""The load generator: one thread, one selector, a few connections.

Runs in the benchmark's own process, apart from the server's, so it
never shares the GIL with the reactor it is timing. Inside a timed loop
it only sends pre-encoded bytes and splits response frames off the
stream; payloads are kept raw and decoded after the window closes.

All stamps are ``time.monotonic()``, which on Linux is one clock across
processes, so the server's span times line up with the generator's.
"""

from __future__ import annotations

import json
import pathlib
import selectors
import socket
import subprocess
import sys
import time

import numpy as np

from repro.frontend import wire
from repro.frontend.api import PredictApiRequest

HERE = pathlib.Path(__file__).resolve().parent
#: Give up on answers when the server has been silent this long.
SILENCE_TIMEOUT = 5.0
STOP_TIMEOUT = 30.0
SPIN_S = 300e-6


class ServerLost(RuntimeError):
    """The server closed a connection or stopped talking."""


class FramePoolExhausted(RuntimeError):
    """A closed loop outran the frames pre-encoded for it."""


def _connect(address) -> socket.socket:
    """A blocking connection negotiated to the v2 binary wire."""
    sock = socket.create_connection(address, timeout=SILENCE_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(wire.HELLO_V2)
    answer = b""
    while len(answer) < len(wire.HELLO_V2):
        chunk = sock.recv(len(wire.HELLO_V2) - len(answer))
        if not chunk:
            raise ServerLost("connection closed during the hello")
        answer += chunk
    if answer != wire.HELLO_V2:
        raise ServerLost(f"server did not accept the v2 wire: {answer!r}")
    return sock


class _Conn:
    __slots__ = ("sock", "decoder", "outbuf")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = wire.FrameDecoder()
        self.outbuf = bytearray()


class Generator:
    """Sends ``frames`` (index = correlation id) and records, per frame,
    when it was sent and when its answer was split off the stream."""

    def __init__(self, address, frames: list[bytes], connections: int = 2):
        self.frames = frames
        self.sent = np.zeros(len(frames))
        self.done = np.zeros(len(frames))  # 0.0 = never answered
        self.payloads: list[bytes | None] = [None] * len(frames)
        # select() takes its timeout in microseconds; poll and epoll round
        # it up to a millisecond, which would make every open-loop send late.
        self._selector = selectors.SelectSelector()
        self._conns = []
        for _ in range(connections):
            sock = _connect(address)
            sock.setblocking(False)
            conn = _Conn(sock)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._conns.append(conn)

    def close(self) -> None:
        for conn in self._conns:
            conn.sock.close()
        self._selector.close()

    def _flush(self, conn: _Conn) -> None:
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                return
            del conn.outbuf[:sent]

    def _read(self, conn: _Conn) -> int:
        """Split off every complete answer; returns how many."""
        try:
            chunk = conn.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return 0
        if not chunk:
            raise ServerLost("server closed the connection")
        now = time.monotonic()
        conn.decoder.feed(chunk)
        count = 0
        for _opcode, corr_id, payload in conn.decoder.drain():
            self.done[corr_id] = now
            self.payloads[corr_id] = payload
            count += 1
        return count

    def open_loop(self, first: int, stop: int, due: np.ndarray) -> None:
        """Send frame ``i`` at ``due[i]`` (absolute monotonic seconds)
        whatever the server is doing, then wait for the stragglers.

        ``sent`` records when a frame really left; latency is taken from
        ``due``, so a stall charges every request that came due in it.
        """
        conns, frames, sent = self._conns, self.frames, self.sent
        nconn = len(conns)
        due = due.tolist()  # plain floats: no numpy scalar per comparison
        i, outstanding = first, 0
        while i < stop or outstanding:
            now = time.monotonic()
            while i < stop and due[i] <= now:
                conns[i % nconn].outbuf += frames[i]
                sent[i] = now
                i += 1
                outstanding += 1
            backlog = False
            for conn in conns:
                if conn.outbuf:
                    self._flush(conn)
                    backlog = backlog or bool(conn.outbuf)
            if i < stop:
                # A timed select wakes ~150 us late on an idle core; poll
                # through the last stretch so sends leave on time.
                timeout = max(0.0, due[i] - time.monotonic() - SPIN_S)
            else:
                timeout = SILENCE_TIMEOUT
            if backlog:
                timeout = min(timeout, 1e-3)
            events = self._selector.select(timeout)
            for key, _mask in events:
                outstanding -= self._read(key.data)
            if not events and i >= stop and not backlog:
                return  # silent for SILENCE_TIMEOUT: the rest are lost

    def closed_loop(self, first: int, seconds: float, depth: int) -> int:
        """Keep ``depth`` requests in flight per connection for
        ``seconds``, then collect the tail. Returns the next unused
        frame index."""
        frames, sent = self.frames, self.sent
        i, outstanding = first, 0
        end = time.monotonic() + seconds

        def send(conn: _Conn, count: int) -> None:
            nonlocal i, outstanding
            if i + count > len(frames):
                raise FramePoolExhausted(
                    f"closed loop used all {len(frames)} pre-encoded frames; "
                    "raise the workload's pool_rps"
                )
            conn.outbuf += b"".join(frames[i : i + count])
            sent[i : i + count] = time.monotonic()
            i += count
            outstanding += count
            self._flush(conn)

        for conn in self._conns:
            send(conn, depth)
        while outstanding:
            events = self._selector.select(SILENCE_TIMEOUT)
            if not events:
                break  # the rest are lost
            for key, _mask in events:
                conn = key.data
                answered = self._read(conn)
                outstanding -= answered
                if answered and time.monotonic() < end:
                    send(conn, answered)
                elif conn.outbuf:
                    self._flush(conn)
        return i


class ServerProcess:
    """Handle on one ``launcher.py`` subprocess."""

    def __init__(self, seed: int, spans_path=None, cpu: int | None = None):
        command = [sys.executable, str(HERE / "launcher.py"), "--seed", str(seed)]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        spawned = time.monotonic()
        self._proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.ready = self._receive("ready")
            self.address = ("127.0.0.1", self.ready["port"])
            first_answer = self._first_predict()
        except BaseException:
            self.kill()
            raise
        #: The program's set-up: importing it, then Velox.deploy -> the
        #: first answered predict. Interpreter start and input generation
        #: (``process_start_s``) are the benchmark's own cost.
        self.setup_s = self.ready["import_s"] + (
            first_answer - self.ready["deploy_started"]
        )
        self.process_start_s = (first_answer - spawned) - self.setup_s

    def _receive(self, event: str) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise ServerLost(
                f"launcher exited with code {self._proc.wait()} "
                f"before sending {event!r}"
            )
        message = json.loads(line)
        if message.get("event") != event:
            raise ServerLost(f"expected {event!r} from launcher, got {message}")
        return message

    def _command(self, command: str, event: str) -> dict:
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()
        return self._receive(event)

    def _first_predict(self) -> float:
        """When the first predict was answered (monotonic seconds)."""
        with _connect(self.address) as sock:
            sock.sendall(
                wire.encode_request_frame(PredictApiRequest(uid=0, item=0), 0)
            )
            decoder = wire.FrameDecoder()
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise ServerLost("connection closed before the first answer")
                decoder.feed(chunk)
                frame = decoder.next_frame()
                if frame is not None:
                    answered = time.monotonic()
                    if not wire.decode_response_payload(frame[2]).ok:
                        raise ServerLost("the first predict was refused")
                    return answered

    def snapshot(self) -> dict:
        return self._command("snapshot", "snapshot")

    def trace(self) -> None:
        self._command("trace", "tracing")

    def stop(self) -> None:
        """Stop the server and wait for the process to end (it writes its
        spans, if tracing was switched on, before it exits)."""
        try:
            self._proc.stdin.write("stop\n")
            self._proc.stdin.close()
            self._proc.stdout.read()
            self._proc.wait(timeout=STOP_TIMEOUT)
        except BaseException:
            self.kill()
            raise

    def kill(self) -> None:
        self._proc.kill()
        self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def loopback_rtt_us(frame: bytes, rounds: int = 2000) -> tuple[float, int]:
    """Median round trip of ``frame`` to a byte-echo process and back,
    waiting on a selector as the timed loops do. Returns (us, samples)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "echo.py")], stdout=subprocess.PIPE, text=True
    )
    try:
        port = int(proc.stdout.readline())
        selector = selectors.SelectSelector()
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            selector.register(sock, selectors.EVENT_READ)
            trips = np.empty(rounds)
            for k in range(rounds):
                started = time.monotonic()
                sock.send(frame)
                got = 0
                while got < len(frame):
                    if not selector.select(SILENCE_TIMEOUT):
                        raise ServerLost("echo process went silent")
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        raise ServerLost("echo process closed the connection")
                    got += len(chunk)
                trips[k] = time.monotonic() - started
        selector.close()
        proc.wait(timeout=SILENCE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    # The first trips pay for cold caches and socket set-up.
    return float(np.median(trips[rounds // 10 :]) * 1e6), rounds - rounds // 10
