"""Ablation: resilience policies under a recorded fault schedule.

The chaos layer (``repro/chaos``) + resilience stack (deadline budgets,
retries, hedged reads, circuit breaking, the degradation ladder) claim
that under injected trouble — a node kill, 10% dropped response frames,
latency spikes — the resilient configuration holds its p99 SLO with
zero client-visible errors, while the baseline (the same client with
every policy turned off: a plain round-robin pool) blows the SLO and
surfaces errors. This experiment records:

* **determinism** — the same seeded :class:`FaultSchedule` replayed
  twice produces bit-identical injected-fault sequences (the property
  that makes any chaos run reproducible),
* **baseline vs resilient** — the same fault schedule driven against
  the same server stack with :class:`ResilientClient` twice, policies
  off and policies on: per-config p99, client-visible errors, and the
  resilience counters explaining the difference,
* **deadline sheds** — a burst of spent-budget requests is shed
  entirely at pre-compute stages (admission/queue/pre-compute), never
  after model compute.

Writes ``benchmarks/results/ablation_chaos.txt`` and the
machine-readable ``BENCH_chaos.json`` at the repo root.
``RESILIENCE_SMOKE=1`` is the fast CI configuration; it writes both
under ``.bench_out/`` so the tracked record of the full run is never
overwritten by a smoke run.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import time

import numpy as np

from repro import Velox, VeloxConfig, chaos
from repro.chaos import ChaosInjector, FaultRule, FaultSchedule
from repro.common.clock import SimulatedClock
from repro.common.errors import DeadlineExceededError, DegradedError, TransportError
from repro.core.models import MatrixFactorizationModel
from repro.frontend import (
    HedgePolicy,
    PredictApiRequest,
    ResilientClient,
    RetryPolicy,
    VeloxServer,
)
from repro.serving import ServingConfig
from repro.tools.bench_report import write_json_summary

from conftest import write_result

SMOKE = os.environ.get("RESILIENCE_SMOKE", "") not in ("", "0")

NUM_NODES = 4
NUM_USERS = 64 if SMOKE else 128
NUM_ITEMS = 200 if SMOKE else 800
RANK = 8
REQUESTS = 150 if SMOKE else 400
WARMUP = 30
SLO_P99_MS = 50.0
BASELINE_TIMEOUT = 0.2  # what one lost response costs the plain client
SEED = 42

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = REPO_ROOT / ".bench_out"


def fault_schedule() -> FaultSchedule:
    """The recorded schedule: node kill + 10% drops + latency spikes."""
    return FaultSchedule(
        [
            # One node dies shortly into the run (first alive node the
            # heartbeat tick consults; keyed by node id).
            FaultRule(
                "replication.dead_node",
                probability=1.0,
                max_faults=1,
                start=0.1,
            ),
            # One in ten response frames silently vanishes.
            FaultRule("wire.drop_response", probability=0.10),
            # One in twenty responses takes a 20ms (+/-10ms) spike.
            FaultRule(
                "wire.delay_response",
                probability=0.05,
                magnitude=0.020,
                jitter=0.010,
            ),
        ],
        seed=SEED,
    )


def build_deployment() -> tuple[Velox, object]:
    rng = np.random.default_rng(SEED)
    model = MatrixFactorizationModel(
        "bench",
        item_factors=rng.normal(0, 0.1, (NUM_ITEMS, RANK)),
        item_bias=rng.normal(0, 0.1, NUM_ITEMS),
        global_mean=3.5,
    )
    weights = {
        uid: model.pack_user_weights(rng.normal(0, 0.1, RANK), 0.0)
        for uid in range(NUM_USERS)
    }
    velox = Velox.deploy(
        VeloxConfig(num_nodes=NUM_NODES, replication_factor=2),
        auto_retrain=False,
    )
    velox.add_model(model, initial_user_weights=weights)
    engine = velox.serving_engine(
        ServingConfig(num_workers=2, batching="adaptive", slo_p99=0.05)
    )
    return velox, engine


def replay_offline(schedule: FaultSchedule) -> tuple:
    """A scripted consultation sequence against a simulated clock.

    This is the determinism artifact: the exact consultation pattern a
    test would drive, replayed from scratch. Two calls must produce
    bit-identical signatures.
    """
    clock = SimulatedClock()
    injector = ChaosInjector(schedule, clock=clock)
    for node_id in range(NUM_NODES):
        injector.fire("replication.dead_node", key=node_id)
    clock.advance(0.2)  # into the kill window
    for node_id in range(NUM_NODES):
        injector.fire("replication.dead_node", key=node_id)
    for _ in range(2000):
        injector.fire("wire.drop_response")
        injector.fire("wire.delay_response")
        clock.advance(0.001)
    return injector.signature()


def request_stream(rng: np.random.Generator, count: int):
    for _ in range(count):
        yield int(rng.integers(NUM_USERS)), int(rng.integers(NUM_ITEMS))


def percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies), q) * 1e3)


def run_baseline() -> dict:
    """A plain pool under the schedule: one endpoint, every policy off
    (one attempt, no hedge, no degraded rung, a breaker no run trips)."""
    velox, engine = build_deployment()
    injector = ChaosInjector(fault_schedule())
    latencies, errors = [], 0
    try:
        with VeloxServer(velox, engine=engine) as server:
            pool = ResilientClient(
                [(server.host, server.port)],
                pool_size=2,
                timeout=BASELINE_TIMEOUT,
                retry=RetryPolicy(max_attempts=1),
                hedge=HedgePolicy(max_hedges=0),
                breaker_threshold=WARMUP + REQUESTS + 1,
                degrade=False,
            )
            try:
                rng = np.random.default_rng(SEED + 1)
                for uid, item in request_stream(rng, WARMUP):
                    pool.call(PredictApiRequest(uid=uid, item=item))
                injector.start()
                with chaos.installed(injector):
                    for uid, item in request_stream(rng, REQUESTS):
                        begin = time.perf_counter()
                        try:
                            response = pool.call(
                                PredictApiRequest(uid=uid, item=item)
                            )
                            if not response.ok:
                                errors += 1
                        except (TransportError, DegradedError):
                            errors += 1
                        latencies.append(time.perf_counter() - begin)
                in_flight = pool.in_flight
            finally:
                pool.close()
    finally:
        velox.shutdown()
    return {
        "errors": errors,
        "timed_out": pool.metrics.timed_out,
        "in_flight_after": in_flight,
        "p50_ms": percentile_ms(latencies, 50),
        "p99_ms": percentile_ms(latencies, 99),
        "injected": injector.event_count(),
        "injected_by_point": {
            point: injector.event_count(point)
            for point in fault_schedule().points()
        },
    }


def run_resilient() -> dict:
    """The full policy stack under the identical schedule."""
    velox, engine = build_deployment()
    injector = ChaosInjector(fault_schedule())
    latencies, errors = [], 0
    try:
        # Two endpoints over the same deployment: hedges and retries
        # have somewhere else to go when a response is lost.
        with VeloxServer(velox, engine=engine) as primary, VeloxServer(
            velox, engine=engine
        ) as backup:
            client = ResilientClient(
                [(primary.host, primary.port), (backup.host, backup.port)],
                pool_size=2,
                timeout=2.0,
                retry=RetryPolicy(max_attempts=3, base_backoff=0.005),
                hedge=HedgePolicy(
                    percentile=95.0,
                    min_samples=16,
                    max_delay=0.05,
                    max_hedges=3,
                ),
            )
            try:
                rng = np.random.default_rng(SEED + 1)
                for uid, item in request_stream(rng, WARMUP):
                    client.predict(uid=uid, item=item)
                injector.start()
                with chaos.installed(injector):
                    for uid, item in request_stream(rng, REQUESTS):
                        begin = time.perf_counter()
                        try:
                            response = client.predict(
                                uid=uid, item=item, deadline=1.0
                            )
                            if not response.ok:
                                errors += 1
                        except (TransportError, DegradedError):
                            errors += 1
                        latencies.append(time.perf_counter() - begin)
                in_flight = client.in_flight
            finally:
                client.close()
    finally:
        velox.shutdown()
    snapshot = client.metrics.snapshot()
    return {
        "errors": errors,
        "in_flight_after": in_flight,
        "p50_ms": percentile_ms(latencies, 50),
        "p99_ms": percentile_ms(latencies, 99),
        "injected": injector.event_count(),
        "injected_by_point": {
            point: injector.event_count(point)
            for point in fault_schedule().points()
        },
        "client_metrics": snapshot,
        "engine_resilience": engine.resilience.snapshot(),
    }


def run_deadline_sheds() -> dict:
    """Spent-budget burst: everything sheds at a pre-compute stage."""
    velox, engine = build_deployment()
    try:
        engine.start()
        shed, served = 0, 0
        # Impossible budgets (already spent at submit) plus very tight
        # ones (may expire while queued): whatever the mix of outcomes,
        # no shed may happen after compute starts.
        rng = np.random.default_rng(SEED + 2)
        futures = []
        for index, (uid, item) in enumerate(request_stream(rng, 80)):
            deadline = 0.0 if index % 2 == 0 else 0.001
            try:
                futures.append(
                    engine.submit_predict(uid, item, deadline=deadline)
                )
            except DeadlineExceededError:
                shed += 1
        for future in futures:
            try:
                future.result(timeout=10.0)
                served += 1
            except DeadlineExceededError:
                shed += 1
        stages = engine.resilience.snapshot()["deadline_sheds"]
    finally:
        velox.shutdown()
        engine.stop()
    return {"shed": shed, "served": served, "stages": stages}


def test_chaos_resilience_summary(benchmark):
    # -- determinism: the same schedule replayed twice ----------------------
    schedule = fault_schedule()
    signature_a = replay_offline(schedule)
    signature_b = replay_offline(FaultSchedule.from_dict(schedule.to_dict()))
    assert signature_a == signature_b, "seeded schedule replay diverged"
    assert len(signature_a) > 0
    signature_hash = hashlib.blake2b(
        repr(signature_a).encode(), digest_size=16
    ).hexdigest()

    # -- the two configurations under identical trouble ---------------------
    baseline = run_baseline()
    resilient = run_resilient()
    sheds = run_deadline_sheds()

    lines = [
        f"== chaos ablation ({NUM_NODES} nodes rf=2, {REQUESTS} requests, "
        f"SLO p99 {SLO_P99_MS:.0f}ms, smoke={SMOKE}) ==",
        f"schedule: seed={schedule.seed}, "
        f"{len(schedule)} rules (node kill + 10% drops + latency spikes)",
        f"determinism: two offline replays -> identical "
        f"{len(signature_a)}-event signatures (blake2b {signature_hash})",
        "",
        "config      p50_ms   p99_ms   errors  injected_faults",
        f"baseline    {baseline['p50_ms']:7.2f} {baseline['p99_ms']:8.2f} "
        f"{baseline['errors']:7d}  {baseline['injected']}",
        f"resilient   {resilient['p50_ms']:7.2f} {resilient['p99_ms']:8.2f} "
        f"{resilient['errors']:7d}  {resilient['injected']}",
        "",
        f"baseline violates SLO: p99 {baseline['p99_ms']:.1f}ms > "
        f"{SLO_P99_MS:.0f}ms with {baseline['errors']} client-visible errors",
        f"resilient holds SLO: p99 {resilient['p99_ms']:.1f}ms <= "
        f"{SLO_P99_MS:.0f}ms with {resilient['errors']} errors",
        f"  retries={resilient['client_metrics']['retries']} "
        f"hedges={resilient['client_metrics']['hedges_launched']} "
        f"(won {resilient['client_metrics']['hedges_won']}) "
        f"degraded={resilient['client_metrics']['degraded']}",
        f"sends abandoned (slot released): baseline {baseline['timed_out']}, "
        f"resilient {resilient['client_metrics']['timed_out']}; still in "
        f"flight after the run: {baseline['in_flight_after']} and "
        f"{resilient['in_flight_after']}",
        "",
        f"deadline burst: {sheds['shed']} shed / {sheds['served']} served; "
        f"shed stages {sheds['stages']} (all pre-compute)",
    ]
    summary = {
        "smoke": SMOKE,
        "slo_p99_ms": SLO_P99_MS,
        "workload": {
            "num_nodes": NUM_NODES,
            "replication_factor": 2,
            "num_users": NUM_USERS,
            "num_items": NUM_ITEMS,
            "requests": REQUESTS,
            "baseline_timeout_s": BASELINE_TIMEOUT,
        },
        "schedule": schedule.to_dict(),
        "determinism": {
            "replay_events": len(signature_a),
            "signatures_identical": signature_a == signature_b,
            "signature_blake2b": signature_hash,
        },
        "baseline": baseline,
        "resilient": resilient,
        "deadline_sheds": sheds,
    }
    if SMOKE:
        # Never over the tracked record of the full run.
        write_result("ablation_chaos", lines, OUT_DIR)
        json_path = OUT_DIR / "ablation_chaos.json"
    else:
        write_result("ablation_chaos", lines)
        json_path = REPO_ROOT / "BENCH_chaos.json"
    write_json_summary(json_path, "ablation_chaos", summary)

    # -- shape assertions ----------------------------------------------------
    # The baseline configuration blows its SLO under the schedule...
    assert baseline["p99_ms"] > SLO_P99_MS
    assert baseline["errors"] > 0
    assert baseline["injected_by_point"]["wire.drop_response"] > 0
    assert baseline["injected_by_point"]["replication.dead_node"] == 1
    # ...the resilient configuration absorbs the identical trouble.
    assert resilient["errors"] == 0, "resilient config leaked client errors"
    assert resilient["p99_ms"] <= SLO_P99_MS
    assert resilient["client_metrics"]["hedges_launched"] > 0
    # Every send nobody waited for any more gave its slot back.
    assert baseline["timed_out"] == baseline["errors"]
    assert resilient["client_metrics"]["timed_out"] > 0
    assert baseline["in_flight_after"] == resilient["in_flight_after"] == 0
    assert resilient["injected_by_point"]["replication.dead_node"] == 1
    # Deadline sheds happen before model compute, never after.
    assert sheds["shed"] > 0
    assert set(sheds["stages"]) <= {"admission", "queue", "pre-compute"}
    assert sum(sheds["stages"].values()) == sheds["shed"]

    benchmark.extra_info.update(
        baseline_p99_ms=baseline["p99_ms"],
        resilient_p99_ms=resilient["p99_ms"],
        resilient_errors=resilient["errors"],
    )
    benchmark(lambda: replay_offline(schedule))
