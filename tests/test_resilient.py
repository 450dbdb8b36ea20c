"""Resilience policies: retry backoff + budget, the circuit breaker
state machine, hedging triggers, end-to-end deadline propagation and
pre-compute shedding, the degradation ladder, and the release of
every send nobody waits for any more (timed out, or out-run by a hedge)."""

from __future__ import annotations

import contextlib
import socket
import threading
import time

import pytest

from repro.common.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DegradedError,
    OverloadedError,
    TransportError,
    ValidationError,
)
from repro.frontend import (
    CircuitBreaker,
    HedgePolicy,
    PipelinedClient,
    PredictApiRequest,
    ResilientClient,
    RetryBudget,
    RetryPolicy,
    TopKApiRequest,
    VeloxServer,
    wire,
)
from repro.metrics.resilience import ResilienceMetrics
from repro.serving import ServingConfig

from tests.conftest import SilentServer


class FakeTime:
    """A settable monotonic time source for breaker tests."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(base_backoff=0.5, max_backoff=0.1)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff=0.01, multiplier=2.0, max_backoff=0.05, jitter=0.0
        )
        assert policy.backoff(0, 0.0) == pytest.approx(0.01)
        assert policy.backoff(1, 0.0) == pytest.approx(0.02)
        assert policy.backoff(2, 0.0) == pytest.approx(0.04)
        assert policy.backoff(10, 0.0) == pytest.approx(0.05)  # capped

    def test_jitter_only_shrinks(self):
        policy = RetryPolicy(base_backoff=0.1, jitter=0.5)
        raw = policy.backoff(0, 0.0)
        assert policy.backoff(0, 1.0) == pytest.approx(raw * 0.5)
        assert raw * 0.5 <= policy.backoff(0, 0.3) <= raw


class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryBudget(ratio=-0.1)
        with pytest.raises(ValidationError):
            RetryBudget(max_tokens=0)

    def test_starts_full_and_drains(self):
        budget = RetryBudget(ratio=0.0, max_tokens=2.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()  # dry: no deposits came in

    def test_deposits_refill_at_ratio_and_cap(self):
        budget = RetryBudget(ratio=0.5, max_tokens=2.0)
        while budget.try_spend():
            pass
        budget.deposit()
        assert not budget.try_spend()  # 0.5 tokens: not a whole retry
        budget.deposit()
        assert budget.try_spend()  # 1.0 accumulated
        for _ in range(100):
            budget.deposit()
        assert budget.tokens == pytest.approx(2.0)  # capped


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeTime()
        metrics = ResilienceMetrics("test")
        breaker = CircuitBreaker(
            "node-0",
            failure_threshold=kwargs.pop("failure_threshold", 3),
            reset_timeout=kwargs.pop("reset_timeout", 1.0),
            time_source=clock,
            metrics=metrics,
        )
        return breaker, clock, metrics

    def test_validation(self):
        with pytest.raises(ValidationError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValidationError):
            CircuitBreaker("x", reset_timeout=0.0)

    def test_trips_after_consecutive_failures_only(self):
        breaker, _, _ = self.make()
        breaker.on_failure()
        breaker.on_failure()
        breaker.on_success()  # resets the consecutive count
        breaker.on_failure()
        breaker.on_failure()
        assert breaker.state == "closed"
        breaker.on_failure()
        assert breaker.state == "open"

    def test_open_rejects_with_retry_after(self):
        breaker, clock, metrics = self.make(reset_timeout=2.0)
        for _ in range(3):
            breaker.on_failure()
        clock.advance(0.5)
        with pytest.raises(CircuitOpenError) as exc:
            breaker.before_call()
        assert exc.value.target == "node-0"
        assert exc.value.retry_after == pytest.approx(1.5)
        assert metrics.snapshot()["breaker_rejections"] == 1

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock, _ = self.make(reset_timeout=1.0)
        for _ in range(3):
            breaker.on_failure()
        clock.advance(1.0)
        assert breaker.state == "half_open"
        breaker.before_call()  # the probe goes through
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # concurrent caller refused

    def test_probe_success_closes(self):
        breaker, clock, metrics = self.make()
        for _ in range(3):
            breaker.on_failure()
        clock.advance(1.0)
        breaker.before_call()
        breaker.on_success()
        assert breaker.state == "closed"
        breaker.before_call()  # flows freely again
        transitions = metrics.snapshot()["breaker_transitions"]
        assert transitions["node-0:closed->open"] == 1
        assert transitions["node-0:open->half_open"] == 1
        assert transitions["node-0:half_open->closed"] == 1

    def test_probe_failure_reopens_and_restarts_timeout(self):
        breaker, clock, _ = self.make(reset_timeout=1.0)
        for _ in range(3):
            breaker.on_failure()
        clock.advance(1.0)
        breaker.before_call()
        breaker.on_failure()  # the probe failed
        assert breaker.state == "open"
        clock.advance(0.5)
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # the fresh timeout is still running
        clock.advance(0.5)
        breaker.before_call()  # a new probe slot opened


class TestHedgePolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            HedgePolicy(percentile=0.0)
        with pytest.raises(ValidationError):
            HedgePolicy(window=4, min_samples=5)
        with pytest.raises(ValidationError):
            HedgePolicy(max_delay=0.0)

    def test_disabled_until_warm(self):
        policy = HedgePolicy(min_samples=4)
        for _ in range(3):
            policy.observe(0.01)
        assert policy.hedge_delay() is None
        policy.observe(0.01)
        assert policy.hedge_delay() is not None

    def test_delay_tracks_percentile_and_clamps(self):
        policy = HedgePolicy(percentile=50.0, min_samples=4, max_delay=0.05)
        for latency in (0.01, 0.02, 0.03, 0.04):
            policy.observe(latency)
        assert policy.hedge_delay() == pytest.approx(0.025)
        for _ in range(64):
            policy.observe(10.0)  # a disaster window
        assert policy.hedge_delay() == pytest.approx(0.05)  # clamped


class TestDeadlineCodec:
    def test_v2_frame_round_trips_deadline_and_degraded(self):
        request = PredictApiRequest(
            uid=3, item=7, model="songs", deadline=0.25, degraded=True
        )
        frame = wire.encode_request_frame(request, corr_id=1)
        decoder = wire.FrameDecoder()
        decoder.feed(frame)
        opcode, _, payload = decoder.next_frame()
        decoded = wire.decode_request_payload(opcode, payload)
        assert decoded == request


@contextlib.contextmanager
def _running_engine(velox):
    engine = velox.serving_engine(
        ServingConfig(num_workers=2, batching="adaptive", slo_p99=1.0)
    )
    engine.start()
    try:
        yield engine
    finally:
        engine.stop()


@pytest.fixture
def engine(deployed_velox):
    with _running_engine(deployed_velox) as engine:
        yield engine


@pytest.fixture
def caching_engine(caching_velox):
    """An engine over a model whose predictions are cached."""
    with _running_engine(caching_velox) as engine:
        yield engine


class TestEngineDeadlines:
    def test_generous_deadline_serves_normally(self, deployed_velox, engine):
        result = engine.predict(3, 5, deadline=30.0, timeout=5.0)
        expected = deployed_velox.service.predict("songs", 3, 5).score
        assert result.score == pytest.approx(expected, abs=1e-9)
        assert engine.resilience.deadline_sheds == 0

    def test_spent_budget_sheds_at_admission(self, engine):
        with pytest.raises(DeadlineExceededError, match="admission"):
            engine.submit_predict(3, 5, deadline=0.0)
        snapshot = engine.resilience.snapshot()
        assert snapshot["deadline_sheds"] == {"admission": 1}

    def test_sheds_never_happen_post_compute(self, deployed_velox, engine):
        """Whatever mix of outcomes a tight-deadline burst produces,
        every shed stage is pre-compute, and every request either
        errors with DeadlineExceededError or completes correctly."""
        futures = [
            engine.submit_predict(uid, uid % 7, deadline=0.002)
            for uid in range(40)
        ]
        served, shed = 0, 0
        for uid, future in enumerate(futures):
            try:
                result = future.result(timeout=5.0)
            except DeadlineExceededError:
                shed += 1
            else:
                served += 1
                expected = deployed_velox.service.predict(
                    "songs", uid, uid % 7
                ).score
                assert result.score == pytest.approx(expected, abs=1e-9)
        assert served + shed == 40
        stages = set(engine.resilience.snapshot()["deadline_sheds"])
        assert stages <= {"admission", "queue", "pre-compute"}

    def test_deadline_error_envelope_over_wire(self, deployed_velox, engine):
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(
                    PredictApiRequest(uid=3, item=5, deadline=0.0),
                    timeout=5.0,
                )
        assert not response.ok
        assert response.error.startswith("DeadlineExceededError")
        assert engine.resilience.deadline_sheds >= 1


class TestDegradedLadderRung:
    def test_cache_hit_serves_degraded(self, caching_velox, caching_engine):
        with VeloxServer(caching_velox, engine=caching_engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                warm = client.call(
                    PredictApiRequest(uid=3, item=5), timeout=5.0
                )
                assert warm.ok
                degraded = client.call(
                    PredictApiRequest(uid=3, item=5, degraded=True),
                    timeout=5.0,
                )
        assert degraded.ok
        assert degraded.payload["degraded"] is True
        assert degraded.payload["score"] == pytest.approx(
            warm.payload["score"], abs=1e-9
        )
        assert caching_engine.resilience.snapshot()["degraded"].get("cached", 0) >= 1

    def test_cold_cache_is_typed_bottom(self, deployed_velox, engine):
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(
                    PredictApiRequest(uid=3, item=113, degraded=True),
                    timeout=5.0,
                )
        assert not response.ok
        assert response.error.startswith("DegradedError")

    def test_model_that_does_not_cache_is_typed_bottom(
        self, deployed_velox, engine
    ):
        """A model that scores directly keeps no predictions, so a warm
        answer does not make a degraded one: the rung never scores, and
        a predict or top-k on it is the typed bottom, reached without a
        prediction-cache lookup."""
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                warm = client.call(PredictApiRequest(uid=3, item=5), timeout=5.0)
                assert warm.ok
                predict = client.call(
                    PredictApiRequest(uid=3, item=5, degraded=True),
                    timeout=5.0,
                )
                top_k = client.call(
                    TopKApiRequest(uid=3, items=(5, 6, 7), k=2, degraded=True),
                    timeout=5.0,
                )
        for response in (predict, top_k):
            assert not response.ok
            assert response.error.startswith("DegradedError")
        stats = deployed_velox.service.cache_stats()
        assert stats["prediction_hits"] == stats["prediction_misses"] == 0
        assert engine.resilience.snapshot()["degraded"] == {"error": 2}


class TestTimedOutSlotRecovery:
    def test_binary_timeout_releases_window_slot(self):
        with SilentServer() as server:
            client = PipelinedClient(
                "127.0.0.1",
                server.port,
                timeout=0.2,
                max_inflight=1,
            )
            try:
                with pytest.raises(TransportError, match="no response"):
                    client.call(PredictApiRequest(uid=1, item=2))
                assert client.timed_out == 1
                assert client.in_flight == 0
                # The window recovered: this call must reserve the slot
                # cleanly — not wait on a full window (the leaked-slot
                # failure mode) — and time out on its own terms.
                with pytest.raises(TransportError, match="no response"):
                    client.call(PredictApiRequest(uid=1, item=3))
                assert client.timed_out == 2
                assert client.in_flight == 0
            finally:
                client.close()

    def test_abandon_counts_only_a_slot_it_reclaimed(self, deployed_velox):
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as client:
                future = client.submit(PredictApiRequest(uid=1, item=2))
                assert future.result(timeout=5.0).ok
                assert client.abandon(future) is False  # already answered
                assert client.timed_out == 0

    def test_no_send_outlives_its_attempt(self):
        """Every attempt that times out gives its window slot back: the
        fifth call against a silent endpoint with ``max_inflight=4``
        times out like the first, not on a window of leaked entries."""
        with SilentServer() as server, ResilientClient(
            [("127.0.0.1", server.port)],
            pool_size=1,
            timeout=0.1,
            retry=RetryPolicy(max_attempts=1),
            breaker_threshold=100,  # six timeouts must not open it
            degrade=False,
            max_inflight=4,
        ) as client:
            for item in range(6):
                with pytest.raises(DegradedError, match="no response within"):
                    client.predict(uid=1, item=item)
            assert client.in_flight == 0
            assert client.metrics.timed_out == 6

    def test_degraded_rung_spends_the_callers_budget(self):
        """``predict(timeout=0.1)`` on a client built with ``timeout=2.0``
        gives the cache-only rung what is left of 0.1 s (floored at
        50 ms), not another 2 s."""
        with SilentServer() as server, ResilientClient(
            [("127.0.0.1", server.port)],
            timeout=2.0,
            retry=RetryPolicy(max_attempts=1),
        ) as client:
            start = time.monotonic()
            with pytest.raises(DegradedError):
                client.predict(uid=1, item=1, timeout=0.1)
            assert time.monotonic() - start < 0.5
            # The fresh attempt and the rung's, both released.
            assert client.metrics.timed_out == 2
            assert client.in_flight == 0

    def test_probe_out_run_by_a_hedge_frees_its_slot(self, deployed_velox):
        """A half-open probe to a stalled endpoint that loses the race to
        a hedge on a live one is abandoned without a verdict: the next
        call to the stalled endpoint is admitted as a new probe, not
        refused for the life of the client."""
        clock = FakeTime()
        with SilentServer() as stalled, VeloxServer(deployed_velox) as live:
            with ResilientClient(
                [("127.0.0.1", stalled.port), (live.host, live.port)],
                pool_size=1,
                timeout=5.0,
                hedge=HedgePolicy(min_samples=8, max_delay=0.05),
                breaker_threshold=1,
                breaker_reset=1.0,
            ) as client:
                for _ in range(8):
                    client.hedge.observe(0.001)  # hedge after ~1 ms
                breaker = client._endpoints[0].breaker
                breaker._now = clock
                breaker.on_failure()
                assert breaker.state == "open"
                clock.advance(1.0)
                assert breaker.state == "half_open"
                # Round-robin starts at the stalled endpoint: its probe
                # is the primary, and the hedge to the live one wins.
                assert client.predict(uid=3, item=5).ok
                assert client.metrics.hedges_won == 1
                assert client.in_flight == 0
                breaker.before_call()  # admitted: the slot was freed
                with pytest.raises(CircuitOpenError):
                    breaker.before_call()  # ...and it is the one probe


class TestResilientClient:
    def test_plain_predict_succeeds(self, deployed_velox, engine):
        with VeloxServer(deployed_velox, engine=engine) as server:
            with ResilientClient([(server.host, server.port)]) as client:
                response = client.predict(uid=3, item=5, deadline=10.0)
        assert response.ok
        expected = deployed_velox.service.predict("songs", 3, 5).score
        assert response.payload["score"] == pytest.approx(expected, abs=1e-9)
        assert client.metrics.retries == 0

    def test_retry_rides_over_a_dead_endpoint(self, deployed_velox, engine):
        dead = socket.create_server(("127.0.0.1", 0))
        dead_port = dead.getsockname()[1]
        dead.close()  # nothing listens here any more
        with VeloxServer(deployed_velox, engine=engine) as server:
            with ResilientClient(
                [("127.0.0.1", dead_port), (server.host, server.port)],
                timeout=3.0,
                retry=RetryPolicy(max_attempts=3, base_backoff=0.001),
            ) as client:
                response = client.predict(uid=3, item=5)
        assert response.ok
        assert client.metrics.retries >= 1

    def test_breaker_opens_on_dead_endpoint(self):
        dead = socket.create_server(("127.0.0.1", 0))
        dead_port = dead.getsockname()[1]
        dead.close()
        with ResilientClient(
            [("127.0.0.1", dead_port)],
            timeout=0.5,
            retry=RetryPolicy(max_attempts=4, base_backoff=0.001),
            breaker_threshold=2,
            degrade=False,
        ) as client:
            with pytest.raises(DegradedError):
                client.predict(uid=1, item=2)
            states = client.breaker_states()
            assert states[f"127.0.0.1:{dead_port}"] in ("open", "half_open")
            snapshot = client.metrics.snapshot()
            assert any(
                key.endswith("closed->open")
                for key in snapshot["breaker_transitions"]
            )

    def test_non_retryable_error_returned_verbatim(
        self, deployed_velox, engine
    ):
        with VeloxServer(deployed_velox, engine=engine) as server:
            with ResilientClient([(server.host, server.port)]) as client:
                response = client.predict(uid=3, item="no-such-item")
        assert not response.ok
        assert not response.error.startswith(
            ("OverloadedError", "DeadlineExceededError")
        )
        assert client.metrics.retries == 0

    def test_ladder_degrades_to_cache_under_impossible_deadline(
        self, caching_velox, caching_engine
    ):
        """Every fresh attempt is shed server-side (deadline already
        spent), so the client walks the ladder and answers from the
        prediction cache — response flagged degraded, zero errors."""
        with VeloxServer(caching_velox, engine=caching_engine) as server:
            with ResilientClient(
                [(server.host, server.port)],
                retry=RetryPolicy(max_attempts=2, base_backoff=0.001),
            ) as client:
                warm = client.predict(uid=3, item=5)  # populates the cache
                assert warm.ok
                degraded = client.predict(uid=3, item=5, deadline=0.0)
        assert degraded.ok
        assert degraded.payload["degraded"] is True
        assert degraded.payload["score"] == pytest.approx(
            warm.payload["score"], abs=1e-9
        )
        assert client.metrics.snapshot()["degraded"].get("cached", 0) >= 1

    def test_ladder_bottom_is_typed(self, deployed_velox, engine):
        """Cold cache + impossible deadline: every rung fails and the
        client raises the typed DegradedError, not a transport error."""
        with VeloxServer(deployed_velox, engine=engine) as server:
            with ResilientClient(
                [(server.host, server.port)],
                retry=RetryPolicy(max_attempts=2, base_backoff=0.001),
            ) as client:
                with pytest.raises(DegradedError):
                    client.predict(uid=3, item=101, deadline=0.0)
        assert client.metrics.snapshot()["degraded"].get("error", 0) >= 1

    def test_writes_never_retry(self, deployed_velox, engine):
        dead = socket.create_server(("127.0.0.1", 0))
        dead_port = dead.getsockname()[1]
        dead.close()
        from repro.frontend import ObserveApiRequest

        with ResilientClient(
            [("127.0.0.1", dead_port)],
            timeout=0.5,
            retry=RetryPolicy(max_attempts=4, base_backoff=0.001),
            degrade=True,
        ) as client:
            with pytest.raises(DegradedError):
                client.write(
                    ObserveApiRequest(uid=1, item=2, label=1.0)
                )
        assert client.metrics.retries == 0

    def test_hedge_launches_and_wins_on_stalled_primary(
        self, deployed_velox, engine
    ):
        """Prime the hedge window with fast calls, then stall the
        primary's responses via a chaos write stall on one endpoint:
        the hedge fires against the second endpoint and wins."""
        from repro import chaos
        from repro.chaos import ChaosInjector, FaultRule, FaultSchedule

        with VeloxServer(deployed_velox, engine=engine) as primary, \
                VeloxServer(deployed_velox, engine=engine) as backup:
            with ResilientClient(
                [
                    (primary.host, primary.port),
                    (backup.host, backup.port),
                ],
                pool_size=1,
                hedge=HedgePolicy(
                    percentile=95.0, min_samples=8, max_delay=0.2
                ),
            ) as client:
                for _ in range(10):
                    assert client.predict(uid=3, item=5).ok
                schedule = FaultSchedule(
                    [
                        FaultRule(
                            "wire.delay_response",
                            probability=1.0,
                            magnitude=0.8,
                        )
                    ],
                    seed=1,
                )
                injector = ChaosInjector(schedule)
                # Chaos is process-wide; with max_faults unbounded the
                # delay hits whichever server answers first (the
                # primary), and the hedge path pays it at most once
                # more — the winner is whoever clears first.
                with chaos.installed(injector):
                    response = client.predict(uid=3, item=5)
                assert response.ok
                # The send the race's winner out-ran holds no slot.
                assert client.in_flight == 0
        assert client.metrics.hedges_launched >= 1
        assert client.metrics.timed_out >= 1


def test_concurrent_callers_share_the_connections(deployed_velox, engine):
    """Eight threads on two sockets with a four-deep window: every call
    is answered with its own item and no slot stays held."""
    import sys

    items = range(40)
    failures: list = []

    def worker(client, uid):
        try:
            for item in items:
                response = client.predict(uid=uid, item=item)
                if not response.ok or response.payload["item"] != item:
                    failures.append((uid, item, response))
        except Exception as err:  # surfaced by the assert below
            failures.append((uid, err))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with VeloxServer(deployed_velox, engine=engine) as server:
            with ResilientClient(
                [(server.host, server.port)], pool_size=2, max_inflight=4
            ) as client:
                threads = [
                    threading.Thread(target=worker, args=(client, uid))
                    for uid in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert failures == []
                assert client.in_flight == 0
                sends = sum(
                    c._next_corr for c in client._endpoints[0].clients
                )
                assert sends == (
                    8 * len(items)
                    + client.metrics.hedges_launched
                    + client.metrics.retries
                )
    finally:
        sys.setswitchinterval(interval)


def test_one_client_transport():
    """There is one pooled transport, and a full window has one meaning."""
    import repro.frontend
    from repro.frontend import pipelined

    assert not hasattr(repro.frontend, "ConnectionPool")
    assert not hasattr(pipelined, "ConnectionPool")
    with pytest.raises(TypeError):
        PipelinedClient("127.0.0.1", 1, block_on_full=False)
