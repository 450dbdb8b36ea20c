"""Self-tests of the benchmark's own arithmetic and plumbing.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not collected by tier-1 (``testpaths = ["tests"]``); the smoke test
launches real servers and takes about a minute and a half.
"""

from __future__ import annotations

import io
import json
import pathlib
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import bench
import loadgen
import results
import tracing
import workloads
from repro.frontend import wire
from repro.frontend.api import ApiResponse, PredictApiRequest

CONTRACT = results.load_contract()


def test_sub_window_quantile_ignores_stalled_sub_windows():
    # Forty 1 s sub-windows starting at t=100; sub-window k holds three
    # samples of value k+1, except the first twenty, which stalls inflate.
    count = results.SUB_WINDOWS
    times = np.repeat(100.0 + np.arange(count), 3) + np.tile([0.1, 0.5, 0.9], count)
    values = np.repeat(np.arange(1.0, count + 1.0), 3)
    values[: 20 * 3] = 1e6
    value, samples, parts = results.sub_window_quantile(
        values, times, 100.0, float(count), np.mean
    )
    assert samples == 3 * count
    assert sorted(parts) == [*range(21, 41), *[1e6] * 20]
    # The lowest decile of the forty means: rank 0.1 * 39 = 3.9 of the
    # sorted parts, between 24 and 25. Half the run stalled and it is clean.
    assert value == pytest.approx(24.9)
    median = results.sub_window_quantile(
        values, times, 100.0, float(count), np.mean, 0.5
    )[0]
    assert median > 1e5  # the median is not


def test_sub_window_quantile_skips_empty_and_outside():
    times = np.array([0.5, 1.5, 99.0, -1.0])
    value, samples, parts = results.sub_window_quantile(
        [10.0, 20.0, 30.0, 40.0], times, 0.0, float(results.SUB_WINDOWS), np.median, 0.5
    )
    assert (value, samples, parts) == (15.0, 2, [10.0, 20.0])


def test_self_time_is_duration_minus_children():
    # span 0 [0, 10] has children 1 [1, 4] and 2 [5, 7]; 2 has child 3 [5, 6].
    own = tracing.self_times(
        span_id=np.array([3, 1, 2, 0]),
        start=np.array([5.0, 1.0, 5.0, 0.0]),
        end=np.array([6.0, 4.0, 7.0, 10.0]),
        parent=np.array([2, 0, 0, -1]),
    )
    assert own.tolist() == [1.0, 3.0, 1.0, 5.0]


class _StallingServer:
    """Speaks just enough of the v2 wire to answer every frame ``ok``,
    and answers nothing during ``[stall_start, stall_end)``."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.stall_start = self.stall_end = 0.0
        self._threads = [
            threading.Thread(target=self._serve, daemon=True) for _ in range(2)
        ]
        for thread in self._threads:
            thread.start()

    def _serve(self):
        conn, _addr = self.listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = b""
            while len(hello) < len(wire.HELLO_V2):
                hello += conn.recv(len(wire.HELLO_V2) - len(hello))
            conn.sendall(wire.HELLO_V2)
            decoder = wire.FrameDecoder()
            while chunk := conn.recv(1 << 16):
                now = time.monotonic()
                if self.stall_start <= now < self.stall_end:
                    time.sleep(self.stall_end - now)
                decoder.feed(chunk)
                for _opcode, corr_id, _payload in decoder.drain():
                    conn.sendall(
                        wire.encode_response_frame(ApiResponse(ok=True), corr_id)
                    )

    def close(self):
        self.listener.close()
        for thread in self._threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


def test_open_loop_times_latency_from_the_due_time():
    count, gap = 60, 0.01
    frames = [
        wire.encode_request_frame(PredictApiRequest(uid=0, item=0), i)
        for i in range(count)
    ]
    server = _StallingServer()
    generator = loadgen.Generator(server.address, frames)
    try:
        start = time.monotonic() + 0.05
        due = start + gap * np.arange(count)
        server.stall_start, server.stall_end = start + 0.2, start + 0.4
        generator.open_loop(0, count, due)
    finally:
        generator.close()
        server.close()
    assert (generator.done > 0).all()
    latency = generator.done - due
    # The generator kept to its schedule through the stall...
    assert (generator.sent - due).max() < 0.05
    # ...so a request due inside the stall waited for the stall's end,
    stalled = (due > server.stall_start + gap) & (due < server.stall_end - 0.05)
    assert stalled.sum() >= 10
    assert (latency[stalled] >= server.stall_end - due[stalled] - 1e-3).all()
    # and the ones due after it were answered at once.
    assert np.median(latency[due > server.stall_end + 0.05]) < 0.02


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_smoke_emits_exactly_the_declared_metrics(workload, trace):
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(bench.__file__)), "--workload", workload,
         "--seed", "1", "--seconds", "3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_contract_names_the_workloads_this_directory_defines():
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def _result_set(scale: dict[str, float], jitter: float = 0.0) -> dict:
    """Three synthetic runs per workload; ``scale`` multiplies metrics."""
    base = {"p50_ms": 2.0, "p95_ms": 3.0, "throughput_rps": 5000.0,
            "server_cpu_us_per_req": 150.0, "server_rss_mb": 200.0, "setup_s": 1.0}
    out = {}
    for spec in CONTRACT["workloads"]:
        out[spec["name"]] = [
            {
                "attempted": 1000,
                "failed": 0,
                "metrics": {
                    name: {"value": value * scale.get(name, 1.0) * (1 + jitter * k)}
                    for name, value in base.items()
                },
            }
            for k in (-1, 0, 1)
        ]
    return out


def test_compare_passes_an_identical_pair_and_flags_a_regression():
    bound = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    out = io.StringIO()
    assert results.compare(_result_set({}), _result_set({}), out=out) == 0
    assert "regressed" not in out.getvalue()

    # Lower is better: worse by 1.2x the bound regresses on every
    # workload, worse by 0.8x the bound does not.
    out = io.StringIO()
    slower = _result_set({"p50_ms": 1 + 1.2 * bound["p50_ms"]})
    assert results.compare(_result_set({}), slower, out=out) == len(CONTRACT["workloads"])
    regressed = [line for line in out.getvalue().splitlines() if "regressed" in line]
    assert all("p50_ms" in line for line in regressed)
    within = _result_set({"p50_ms": 1 + 0.8 * bound["p50_ms"]})
    assert results.compare(_result_set({}), within, out=io.StringIO()) == 0

    # Higher is better: the same, the other way round.
    less = _result_set({"throughput_rps": 1 - 1.2 * bound["throughput_rps"]})
    assert results.compare(_result_set({}), less, out=io.StringIO()) > 0
    assert results.compare(less, _result_set({}), out=io.StringIO()) == 0


def test_compare_reports_wide_overlapping_runs_as_unresolved():
    out = io.StringIO()
    noisy_a = _result_set({}, jitter=0.5)
    noisy_b = _result_set({"p50_ms": 1.5}, jitter=0.5)
    assert results.compare(noisy_a, noisy_b, out=out) == 0
    assert "unresolved" in out.getvalue()


def test_compare_counts_more_failures_as_a_regression():
    failing = _result_set({})
    failing["mixed_observe"][0]["failed"] = 3
    assert results.compare(_result_set({}), failing, out=io.StringIO()) == 1
