"""Ablation: no batching vs fixed-delay vs adaptive (AIMD) batching.

Clipper (NSDI 2017), the successor to Velox, showed that an adaptive
batching queue in front of the model layer is the highest-leverage
serving optimization: coalescing concurrent requests into one vectorized
evaluation amortizes per-request overhead, and AIMD sizing rides just
under the latency SLO. This ablation offers increasing closed-loop load
(concurrent clients) to a deployment behind each batching policy and
reports throughput, p99 end-to-end latency, mean batch size, and SLO
attainment; a final experiment drives the engine far past capacity and
shows load shedding bounding latency instead of letting it collapse.

Shape assertions: at the highest load level adaptive batching beats
no-batching on throughput while holding the configured SLO, and under
overload requests are shed (typed rejections) while served requests keep
bounded latency.

Set ``BATCHING_SMOKE=1`` for the fast CI configuration.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.common.errors import OverloadedError
from repro.serving import ServingConfig

from conftest import build_mf_serving, write_result

SMOKE = os.environ.get("BATCHING_SMOKE", "") not in ("", "0")

DIMENSION = 34
NUM_ITEMS = 1000
NUM_USERS = 64
SLO_P99 = 0.1

#: Closed-loop offered-load levels (concurrent clients).
LOAD_LEVELS = [1, 8] if SMOKE else [1, 4, 16]
REQUESTS_PER_CLIENT = 60 if SMOKE else 250

MODES = {
    "no_batching": dict(batching="none"),
    "fixed_delay": dict(batching="fixed_delay", batch_delay=0.002),
    # Clipper-style: serve whatever is queued the moment a worker frees
    # (no linger); AIMD only caps the batch.
    "adaptive": dict(batching="adaptive"),
}


def run_load_level(mode: str, clients: int) -> dict[str, float]:
    """Drive one policy at one closed-loop load level; fresh deployment
    per run so caches and AIMD state never leak across series."""
    velox = build_mf_serving(
        DIMENSION, NUM_ITEMS, num_users=NUM_USERS, num_nodes=1
    )
    config = ServingConfig(
        num_workers=2,
        max_queue_depth=4096,
        max_queue_age=5.0,
        max_batch_size=64,
        slo_p99=SLO_P99,
        **MODES[mode],
    )
    engine = velox.serving_engine(config)
    rng = np.random.default_rng(17)
    plans = [
        list(
            zip(
                rng.integers(0, NUM_USERS, REQUESTS_PER_CLIENT).tolist(),
                rng.integers(0, NUM_ITEMS, REQUESTS_PER_CLIENT).tolist(),
            )
        )
        for _ in range(clients)
    ]
    errors: list[Exception] = []

    def client(plan) -> None:
        try:
            for uid, item in plan:
                engine.predict(uid, item, timeout=30)
        except Exception as err:  # pragma: no cover - surfaced below
            errors.append(err)

    with engine:
        threads = [
            threading.Thread(target=client, args=(plan,)) for plan in plans
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        snapshots = engine.metrics_snapshot()
    assert errors == []
    total = clients * REQUESTS_PER_CLIENT
    (snapshot,) = snapshots.values()  # single node -> single queue
    assert snapshot["completed"] == total
    return {
        "throughput_rps": total / elapsed,
        "p99_s": snapshot["end_to_end_p99_s"],
        "batch_mean": snapshot["batch_size_mean"],
        "slo_attainment": snapshot["slo_attainment"],
    }


def test_batching_summary(benchmark):
    results = {
        (mode, clients): run_load_level(mode, clients)
        for mode in MODES
        for clients in LOAD_LEVELS
    }
    lines = [
        "policy       clients  throughput_rps  p99_ms    batch_mean  slo_attainment"
    ]
    for (mode, clients), row in results.items():
        lines.append(
            f"{mode:<13}{clients:<9d}{row['throughput_rps']:<16.1f}"
            f"{row['p99_s'] * 1e3:<10.3f}{row['batch_mean']:<12.2f}"
            f"{row['slo_attainment']:.3f}"
        )
    write_result("ablation_batching", lines)

    top = LOAD_LEVELS[-1]
    adaptive = results[("adaptive", top)]
    none = results[("no_batching", top)]
    # The tentpole claim: at the highest offered load, adaptive batching
    # wins on throughput while holding the configured p99 SLO.
    assert adaptive["throughput_rps"] > none["throughput_rps"]
    assert adaptive["slo_attainment"] >= 0.9
    # Batching actually coalesced work (mean batch > 1 under load).
    assert adaptive["batch_mean"] > 1.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_overload_sheds_instead_of_collapsing(benchmark):
    """Far past capacity: depth/age bounds shed requests with a typed
    error while latency for everything actually served stays bounded."""
    velox = build_mf_serving(
        DIMENSION, NUM_ITEMS, num_users=NUM_USERS, num_nodes=1
    )
    max_age = 0.05
    engine = velox.serving_engine(
        ServingConfig(
            num_workers=1,
            max_queue_depth=64,
            max_queue_age=max_age,
            batching="adaptive",
            max_batch_size=16,
            slo_p99=SLO_P99,
        )
    )
    burst = 1000 if SMOKE else 4000
    rng = np.random.default_rng(23)
    shed_at_admission = 0
    futures = []
    with engine:
        for uid, item in zip(
            rng.integers(0, NUM_USERS, burst), rng.integers(0, NUM_ITEMS, burst)
        ):
            try:
                futures.append(engine.submit_predict(int(uid), int(item)))
            except OverloadedError:
                shed_at_admission += 1
        served, shed_by_age = 0, 0
        for future in futures:
            try:
                future.result(timeout=30)
                served += 1
            except OverloadedError:
                shed_by_age += 1
        (snapshot,) = engine.metrics_snapshot().values()
    lines = [
        f"burst_size          {burst}",
        f"served              {served}",
        f"shed_admission      {shed_at_admission}",
        f"shed_age            {shed_by_age}",
        f"served_p99_ms       {snapshot['end_to_end_p99_s'] * 1e3:.3f}",
    ]
    write_result("ablation_batching_overload", lines)
    total_shed = shed_at_admission + shed_by_age
    assert served + total_shed == burst
    assert total_shed > 0  # overload was actually shed, not absorbed
    assert served > 0
    # Served requests never waited past the age bound, so their latency
    # is bounded by queue age + one batch's service time — far from the
    # unbounded queueing delay an unprotected queue would exhibit.
    assert snapshot["end_to_end_p99_s"] < max_age + SLO_P99
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
