"""Front-end connection sweep: p99 stays flat from 16 to 2,048 clients.

The event loop (`repro.frontend.eventloop`) multiplexes every
connection onto one selector thread, decoupling intake capacity from
client count. The experiment holds the *aggregate offered load fixed*
(open loop, a single multiplexed generator pacing requests on a
wall-clock schedule) and sweeps how many pipelined connections that
load is spread across: 16 -> 256 -> 1024 -> 2048. A connection-scalable
front end does not care; p99 stays flat. (Closed-loop throughput is
measured by the `predict_saturation` workload in `benchmarks/e2e`.)

Shape assertions: every connection at the top rung is established and
served (nothing refused/lost) and p99 stays within 2x of the
16-connection baseline (+5 ms of slack for scheduler noise).

The thread-per-connection arm this sweep was first run against (it
refused 1,618 of 2,048 clients) was removed in PR 13; the recorded
comparison is `BENCH_frontend.json` / `results/ablation_frontend.txt`
and can be re-run at commit 44bac12. This script writes only under
`.bench_out/`, so neither a smoke nor a full run touches those records.

Set ``FRONTEND_SMOKE=1`` for the fast CI configuration (16 -> 256 only).
"""

from __future__ import annotations

import errno
import os
import pathlib
import selectors
import socket
import time

import numpy as np

from repro.frontend import PredictApiRequest, VeloxServer, wire
from repro.serving import ServingConfig
from repro.tools.bench_report import write_json_summary

from conftest import build_mf_serving

SMOKE = os.environ.get("FRONTEND_SMOKE", "") not in ("", "0")
OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / ".bench_out"

DIMENSION = 34
NUM_ITEMS = 1000
NUM_USERS = 64

RUNGS = [16, 256] if SMOKE else [16, 256, 1024, 2048]
#: Aggregate offered load (requests/second) held fixed across rungs.
RATE = 150.0 if SMOKE else 300.0
OPEN_LOOP_REQUESTS = 600 if SMOKE else 3000
#: Connections not fully negotiated by this deadline count as refused.
CONNECT_DEADLINE = 6.0 if SMOKE else 10.0
DRAIN_DEADLINE = 10.0


def _stack() -> VeloxServer:
    velox = build_mf_serving(
        DIMENSION, NUM_ITEMS, num_users=NUM_USERS, num_nodes=1
    )
    engine = velox.serving_engine(
        ServingConfig(
            num_workers=2,
            max_queue_depth=8192,
            max_queue_age=10.0,
            batching="adaptive",
            max_batch_size=64,
            slo_p99=0.1,
        )
    )
    return VeloxServer(velox, engine=engine)


# -- multiplexed load generator ---------------------------------------------
#
# Thousands of concurrent clients cannot be thousands of client threads
# on this box — the generator itself would be the bottleneck. One
# selectors loop drives every connection: non-blocking connects, the
# hello on each, then paced raw frames with client-side
# FrameDecoder reassembly. The generator is the mirror image of the
# server under test.


class _Conn:
    __slots__ = ("sock", "decoder", "outbuf", "mask", "dead")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = wire.FrameDecoder()
        self.outbuf = bytearray()
        self.mask = selectors.EVENT_READ
        self.dead = False


def _establish(
    host: str, port: int, count: int, deadline_s: float
) -> tuple[list[socket.socket], int, float]:
    """Open ``count`` negotiated connections concurrently.

    Returns ``(sockets, refused, elapsed_s)`` where refused counts
    connections that failed or missed the deadline — the observable
    symptom of an accept path that cannot keep up with a burst.
    """
    sel = selectors.DefaultSelector()
    established: list[socket.socket] = []
    hello: dict[socket.socket, bytes] = {}
    refused = 0
    start = time.monotonic()
    inflight = 0
    for _ in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        err = sock.connect_ex((host, port))
        if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            refused += 1
            sock.close()
            continue
        sel.register(sock, selectors.EVENT_WRITE, "connecting")
        inflight += 1
    deadline = start + deadline_s
    while inflight and time.monotonic() < deadline:
        for key, _mask in sel.select(timeout=0.2):
            sock = key.fileobj
            if key.data == "connecting":
                err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if err:
                    sel.unregister(sock)
                    sock.close()
                    refused += 1
                    inflight -= 1
                    continue
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    sock.sendall(wire.HELLO_V2)
                except OSError:
                    sel.unregister(sock)
                    sock.close()
                    refused += 1
                    inflight -= 1
                    continue
                hello[sock] = b""
                sel.modify(sock, selectors.EVENT_READ, "hello")
                continue
            try:
                chunk = sock.recv(64)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                chunk = b""
            if not chunk:
                sel.unregister(sock)
                sock.close()
                hello.pop(sock, None)
                refused += 1
                inflight -= 1
                continue
            hello[sock] += chunk
            if len(hello[sock]) >= len(wire.HELLO_V2):
                assert hello[sock] == wire.HELLO_V2, hello[sock]
                sel.unregister(sock)
                hello.pop(sock)
                established.append(sock)
                inflight -= 1
    for key in list(sel.get_map().values()):  # missed the deadline
        sel.unregister(key.fileobj)
        key.fileobj.close()
        refused += 1
    sel.close()
    return established, refused, time.monotonic() - start


def _flush(sel: selectors.DefaultSelector, conn: _Conn) -> None:
    if conn.dead:
        return
    while conn.outbuf:
        try:
            sent = conn.sock.send(conn.outbuf)
        except (BlockingIOError, InterruptedError):
            break
        except OSError:
            conn.dead = True
            sel.unregister(conn.sock)
            return
        del conn.outbuf[:sent]
    mask = selectors.EVENT_READ | (
        selectors.EVENT_WRITE if conn.outbuf else 0
    )
    if mask != conn.mask:
        sel.modify(conn.sock, mask, conn)
        conn.mask = mask


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def _open_loop(
    socks: list[socket.socket], rate: float, num_requests: int, seed: int
) -> dict:
    """Fixed-rate open-loop run: requests fire on a wall-clock schedule
    round-robin across connections; latency is measured against the
    *scheduled* send time, so server-side stalls cannot hide by slowing
    the generator down."""
    rng = np.random.default_rng(seed)
    uids = rng.integers(0, NUM_USERS, num_requests)
    items = rng.integers(0, NUM_ITEMS, num_requests)
    sel = selectors.DefaultSelector()
    conns = []
    for sock in socks:
        conn = _Conn(sock)
        sel.register(sock, selectors.EVENT_READ, conn)
        conns.append(conn)
    interval = 1.0 / rate
    send_times: dict[int, float] = {}
    latencies: list[float] = []
    errors = 0
    sent = received = 0
    start = time.monotonic()
    next_send = start
    hard_deadline = start + num_requests * interval + DRAIN_DEADLINE
    while received < num_requests and time.monotonic() < hard_deadline:
        now = time.monotonic()
        if sent < num_requests and now >= next_send:
            conn = conns[sent % len(conns)]
            if not conn.dead:
                request = PredictApiRequest(
                    uid=int(uids[sent]), item=int(items[sent])
                )
                conn.outbuf += wire.encode_request_frame(request, sent)
                send_times[sent] = next_send
                _flush(sel, conn)
            else:
                received += 1  # a dead conn's slot; count it lost below
            sent += 1
            next_send += interval
            continue
        wait = 0.05
        if sent < num_requests:
            wait = max(0.0, min(next_send - now, wait))
        for key, mask in sel.select(timeout=wait):
            conn = key.data
            if mask & selectors.EVENT_WRITE:
                _flush(sel, conn)
            if not (mask & selectors.EVENT_READ) or conn.dead:
                continue
            try:
                chunk = conn.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                continue
            except OSError:
                chunk = b""
            if not chunk:
                conn.dead = True
                sel.unregister(conn.sock)
                continue
            conn.decoder.feed(chunk)
            for _opcode, corr_id, payload in conn.decoder.drain():
                scheduled = send_times.pop(corr_id, None)
                if scheduled is None:
                    continue
                latencies.append(time.monotonic() - scheduled)
                if not wire.decode_response_payload(payload).ok:
                    errors += 1
                received += 1
    sel.close()
    return {
        "offered": num_requests,
        "answered": len(latencies),
        "lost": num_requests - len(latencies),
        "errors": errors,
        "p50_ms": _percentile(latencies, 50) * 1e3,
        "p99_ms": _percentile(latencies, 99) * 1e3,
    }


def _close_all(socks: list[socket.socket]) -> None:
    for sock in socks:
        try:
            sock.close()
        except OSError:
            pass


def _sweep() -> list[dict]:
    rows = []
    for clients in RUNGS:
        with _stack() as server:
            socks, refused, establish_s = _establish(
                server.host, server.port, clients, CONNECT_DEADLINE
            )
            if socks:
                result = _open_loop(socks, RATE, OPEN_LOOP_REQUESTS, seed=clients)
            else:
                result = {
                    "offered": OPEN_LOOP_REQUESTS,
                    "answered": 0,
                    "lost": OPEN_LOOP_REQUESTS,
                    "errors": 0,
                    "p50_ms": float("nan"),
                    "p99_ms": float("nan"),
                }
            _close_all(socks)
            rows.append(
                {
                    "clients": clients,
                    "established": len(socks),
                    "refused": refused,
                    "establish_s": establish_s,
                    **result,
                }
            )
    return rows


def test_frontend_summary(benchmark):
    sweep = _sweep()

    lines = [
        f"== open loop: fixed {RATE:.0f} rps aggregate, "
        f"{OPEN_LOOP_REQUESTS} predicts, client-count sweep =="
    ]
    lines.append(
        "clients  established  refused  establish_s  "
        "answered  lost  p50_ms   p99_ms"
    )
    for row in sweep:
        lines.append(
            f"{row['clients']:<9d}{row['established']:<13d}"
            f"{row['refused']:<9d}{row['establish_s']:<13.2f}"
            f"{row['answered']:<10d}{row['lost']:<6d}"
            f"{row['p50_ms']:<9.2f}{row['p99_ms']:.2f}"
        )
    print("\n[ablation_frontend]\n" + "\n".join(lines))
    OUT_DIR.mkdir(exist_ok=True)
    write_json_summary(
        OUT_DIR / "ablation_frontend.json",
        "ablation_frontend",
        {
            "smoke": SMOKE,
            "rate_rps": RATE,
            "open_loop_requests": OPEN_LOOP_REQUESTS,
            "rungs": RUNGS,
            "sweep": sweep,
        },
    )

    by_clients = {row["clients"]: row for row in sweep}
    base, top = by_clients[RUNGS[0]], by_clients[RUNGS[-1]]

    # The event loop serves every client at the top rung and holds p99
    # within 2x of the 16-connection baseline.
    assert top["refused"] == 0, f"event loop refused: {top}"
    assert top["lost"] == 0, f"event loop lost requests: {top}"
    assert top["p99_ms"] <= max(
        2.0 * base["p99_ms"], base["p99_ms"] + 5.0
    ), f"event loop p99 not flat: base={base} top={top}"
    assert all(row["errors"] == 0 for row in sweep), sweep
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
