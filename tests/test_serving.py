"""Serving engine: queues, batching policies, shedding, predict_batch."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Velox, VeloxConfig
from repro.common.clock import SimulatedClock
from repro.common.errors import (
    ConfigError,
    DeadlineExceededError,
    OverloadedError,
    ValidationError,
)
from repro.serving import (
    AdaptiveAimdPolicy,
    BatchFormer,
    FixedDelayPolicy,
    NoBatchingPolicy,
    QueuedRequest,
    RequestQueue,
    ServingConfig,
    ServingEngine,
    make_batching_policy,
)
from tests.conftest import make_initial_weights, make_mf_model


def queued(uid: int, item: int, t: float, model: str = "songs") -> QueuedRequest:
    return QueuedRequest(
        kind="predict", model=model, uid=uid, enqueue_time=t, item=item
    )


class TestServingConfig:
    def test_defaults_valid(self):
        config = ServingConfig()
        assert config.batching == "adaptive"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"max_queue_depth": -1},
            {"max_queue_age": 0.0},
            {"batching": "psychic"},
            {"max_batch_size": 0},
            {"batch_delay": -0.1},
            {"slo_p99": 0.0},
            {"aimd_additive_step": 0},
            {"aimd_backoff": 1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ServingConfig(**kwargs)

    def test_policy_factory(self):
        assert isinstance(
            make_batching_policy(ServingConfig(batching="none")), NoBatchingPolicy
        )
        assert isinstance(
            make_batching_policy(ServingConfig(batching="fixed_delay")),
            FixedDelayPolicy,
        )
        assert isinstance(
            make_batching_policy(ServingConfig(batching="adaptive")),
            AdaptiveAimdPolicy,
        )


class TestRequestQueue:
    def test_fifo_and_bound(self):
        queue = RequestQueue("q", max_depth=2)
        assert queue.offer(queued(1, 10, 0.0))
        assert queue.offer(queued(2, 20, 0.0))
        assert not queue.offer(queued(3, 30, 0.0))  # depth bound
        taken = queue.pop_up_to(5)
        assert [r.uid for r in taken] == [1, 2]
        assert len(queue) == 0

    def test_pop_expired_only_takes_stale_head(self):
        queue = RequestQueue("q", max_depth=10)
        queue.offer(queued(1, 10, t=0.0))
        queue.offer(queued(2, 20, t=0.4))
        expired = queue.pop_expired(now=0.5, max_age=0.2)
        assert [r.uid for r in expired] == [1]
        assert len(queue) == 1

    def test_oldest_age(self):
        queue = RequestQueue("q", max_depth=10)
        assert queue.oldest_age(1.0) is None
        queue.offer(queued(1, 10, t=1.0))
        assert queue.oldest_age(1.25) == pytest.approx(0.25)


class TestBatchFormation:
    """Batch formation is a pure function of queue, policy, and clock."""

    def test_no_batching_takes_one_immediately(self):
        former = BatchFormer(NoBatchingPolicy())
        queue = RequestQueue("q", max_depth=10)
        for i in range(3):
            queue.offer(queued(i, i, t=0.0))
        assert [r.uid for r in former.form(queue, now=0.0)] == [0]
        assert [r.uid for r in former.form(queue, now=0.0)] == [1]

    def test_fixed_delay_lingers_then_takes_all(self):
        former = BatchFormer(FixedDelayPolicy(max_batch_size=8, delay=0.01))
        clock = SimulatedClock()
        queue = RequestQueue("q", max_depth=10)
        for i in range(3):
            queue.offer(queued(i, i, t=clock.now()))
        # Under the delay window with spare capacity: keep lingering.
        clock.advance(0.005)
        assert former.form(queue, clock.now()) == []
        assert former.ready_in(queue, clock.now()) == pytest.approx(0.005)
        # Window elapsed: the whole queue forms one batch.
        clock.advance(0.005)
        batch = former.form(queue, clock.now())
        assert [r.uid for r in batch] == [0, 1, 2]

    def test_full_batch_forms_without_waiting(self):
        former = BatchFormer(FixedDelayPolicy(max_batch_size=2, delay=10.0))
        queue = RequestQueue("q", max_depth=10)
        for i in range(5):
            queue.offer(queued(i, i, t=0.0))
        assert [r.uid for r in former.form(queue, now=0.0)] == [0, 1]
        assert [r.uid for r in former.form(queue, now=0.0)] == [2, 3]

    def test_formation_is_deterministic(self):
        def run() -> list[list[int]]:
            former = BatchFormer(FixedDelayPolicy(max_batch_size=4, delay=0.01))
            clock = SimulatedClock()
            queue = RequestQueue("q", max_depth=64)
            batches = []
            for step in range(20):
                queue.offer(queued(step, step, t=clock.now()))
                batch = former.form(queue, clock.now())
                if batch:
                    batches.append([r.uid for r in batch])
                clock.advance(0.004)
            return batches

        assert run() == run()


class TestAimdPolicy:
    def test_grows_additively_on_slo_hit(self):
        policy = AdaptiveAimdPolicy(
            slo_p99=0.1, max_batch_size=8, additive_step=2
        )
        assert policy.batch_limit() == 1
        policy.observe(1, 0.01)
        assert policy.batch_limit() == 3
        for _ in range(10):
            policy.observe(3, 0.01)
        assert policy.batch_limit() == 8  # capped

    def test_backs_off_multiplicatively_on_slo_miss(self):
        policy = AdaptiveAimdPolicy(
            slo_p99=0.1, max_batch_size=64, backoff=0.5
        )
        for _ in range(15):
            policy.observe(1, 0.01)
        assert policy.batch_limit() == 16
        policy.observe(16, 0.5)  # SLO violation
        assert policy.batch_limit() == 8
        policy.observe(8, 0.5)
        assert policy.batch_limit() == 4

    def test_never_shrinks_below_one(self):
        policy = AdaptiveAimdPolicy(slo_p99=0.1, max_batch_size=8)
        for _ in range(5):
            policy.observe(1, 1.0)
        assert policy.batch_limit() == 1


class TestPredictBatch:
    def test_matches_scalar_predict(self, deployed_velox):
        rng = np.random.default_rng(7)
        uids = [int(u) for u in rng.integers(0, 40, 60)]
        items = [int(i) for i in rng.integers(0, 100, 60)]
        batch = deployed_velox.service.predict_batch("songs", uids, items)
        assert len(batch) == 60
        for uid, item, result in zip(uids, items, batch):
            scalar = deployed_velox.service.predict("songs", uid, item)
            assert result.score == pytest.approx(scalar.score, abs=1e-9)
            assert result.item == item

    def test_second_pass_hits_prediction_cache(self, deployed_velox):
        uids = [1, 2, 3]
        items = [4, 5, 6]
        first = deployed_velox.service.predict_batch("songs", uids, items)
        assert not any(r.prediction_cache_hit for r in first)
        second = deployed_velox.service.predict_batch("songs", uids, items)
        assert all(r.prediction_cache_hit for r in second)
        for a, b in zip(first, second):
            assert a.score == pytest.approx(b.score)

    def test_empty_batch(self, deployed_velox):
        assert deployed_velox.service.predict_batch("songs", [], []) == []

    def test_length_mismatch_rejected(self, deployed_velox):
        with pytest.raises(ValidationError):
            deployed_velox.service.predict_batch("songs", [1, 2], [3])

    def test_duplicate_users_and_items_share_lookups(self, deployed_velox):
        uids = [5, 5, 5, 5]
        items = [7, 7, 8, 8]
        results = deployed_velox.service.predict_batch("songs", uids, items)
        assert results[0].score == pytest.approx(results[1].score)
        assert results[2].score == pytest.approx(results[3].score)

    def test_predict_cached_cold_then_warm(self, deployed_velox):
        assert deployed_velox.service.predict_cached("songs", 1, 9) is None
        warm = deployed_velox.service.predict("songs", 1, 9)
        cached = deployed_velox.service.predict_cached("songs", 1, 9)
        assert cached is not None
        assert cached.prediction_cache_hit
        assert cached.score == pytest.approx(warm.score)

    def test_top_k_cached_serves_only_cached_subset(self, deployed_velox):
        for item in (1, 2):
            deployed_velox.service.predict("songs", 3, item)
        ranked = deployed_velox.service.top_k_cached(
            "songs", 3, [1, 2, 3, 4], k=4
        )
        assert {r.item for r in ranked} == {1, 2}
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)


class TestServingEngine:
    def test_engine_matches_scalar_results(self, deployed_velox):
        rng = np.random.default_rng(3)
        pairs = [
            (int(u), int(i))
            for u, i in zip(rng.integers(0, 40, 50), rng.integers(0, 100, 50))
        ]
        engine = deployed_velox.serving_engine(
            ServingConfig(num_workers=2, batching="adaptive")
        )
        with engine:
            futures = [engine.submit_predict(u, x) for u, x in pairs]
            results = [f.result(timeout=10) for f in futures]
        for (uid, item), result in zip(pairs, results):
            scalar = deployed_velox.service.predict("songs", uid, item)
            assert result.score == pytest.approx(scalar.score, abs=1e-9)
            assert result.item == item

    def test_top_k_through_engine(self, deployed_velox):
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        with engine:
            ranked = engine.top_k(2, [1, 2, 3, 4, 5], k=3, timeout=10)
        expected = deployed_velox.service.top_k("songs", 2, [1, 2, 3, 4, 5], k=3)
        assert [r.item for r in ranked] == [r.item for r in expected]
        for got, want in zip(ranked, expected):
            assert got.score == pytest.approx(want.score, abs=1e-9)

    def test_queue_full_sheds_with_typed_error(self, deployed_velox):
        engine = deployed_velox.serving_engine(
            ServingConfig(max_queue_depth=0)
        )
        with pytest.raises(OverloadedError):
            engine.submit_predict(1, 2)
        name = f"songs@node{deployed_velox.cluster.router.route_index(1)}"
        metrics = engine.queue_metrics()[name]
        assert metrics.shed_count == 1
        assert metrics.snapshot()["shed_admission"] == 1

    def test_degraded_top_k_serves_from_cache(self, deployed_velox):
        warm = deployed_velox.service.predict("songs", 1, 5)
        engine = deployed_velox.serving_engine(
            ServingConfig(max_queue_depth=0, degrade_top_k_on_overload=True)
        )
        future = engine.submit_top_k(1, [5, 6, 7], k=3)
        ranked = future.result(timeout=1)
        assert [r.item for r in ranked] == [5]
        assert ranked[0].score == pytest.approx(warm.score)
        name = f"songs@node{deployed_velox.cluster.router.route_index(1)}"
        assert engine.queue_metrics()[name].degraded_count == 1

    def test_age_bound_sheds_stale_requests(self, deployed_velox):
        clock = SimulatedClock()
        engine = deployed_velox.serving_engine(
            ServingConfig(max_queue_age=0.1), clock=clock
        )
        stale = engine.submit_predict(1, 2)
        clock.advance(0.2)  # past the age bound before any worker runs
        fresh = engine.submit_predict(1, 3)
        with engine._cond:
            job, _ = engine._next_batch()
        assert job is not None  # the fresh request still forms a batch
        _, batch = job
        assert [r.item for r in batch] == [3]
        with pytest.raises(OverloadedError):
            stale.result(timeout=0)
        assert fresh.done() is False
        name = f"songs@node{deployed_velox.cluster.router.route_index(1)}"
        assert engine.queue_metrics()[name].snapshot()["shed_age"] == 1

    def test_stop_fails_pending_futures(self, deployed_velox):
        engine = deployed_velox.serving_engine(ServingConfig())
        future = engine.submit_predict(1, 2)  # engine never started
        engine.stop()
        with pytest.raises(OverloadedError):
            future.result(timeout=0)

    def test_double_start_rejected(self, deployed_velox):
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        engine.start()
        try:
            with pytest.raises(ValidationError):
                engine.start()
        finally:
            engine.stop()

    def test_metrics_record_batches_and_slo(self, deployed_velox):
        engine = deployed_velox.serving_engine(
            ServingConfig(num_workers=1, batching="fixed_delay", slo_p99=5.0)
        )
        with engine:
            futures = [engine.submit_predict(1, x) for x in range(20)]
            for future in futures:
                future.result(timeout=10)
        name = f"songs@node{deployed_velox.cluster.router.route_index(1)}"
        snapshot = engine.metrics_snapshot()[name]
        assert snapshot["completed"] == 20
        assert snapshot["slo_attainment"] == 1.0
        assert snapshot["batch_size_mean"] >= 1.0
        assert sum(
            size * count
            for size, count in snapshot["batch_size_counts"].items()
        ) == 20

    def test_bad_request_fails_alone_not_its_batch(self, deployed_velox):
        engine = deployed_velox.serving_engine(
            ServingConfig(num_workers=1, batching="fixed_delay", batch_delay=0.05)
        )
        with engine:
            good = engine.submit_predict(1, 5)
            bad = engine.submit_predict(1, object())  # unkeyable item
            assert good.result(timeout=10).item == 5
            with pytest.raises(ValidationError):
                bad.result(timeout=10)


@pytest.fixture
def four_node_velox(trained_als):
    model = make_mf_model(trained_als)
    velox = Velox.deploy(VeloxConfig(num_nodes=4), auto_retrain=False)
    velox.add_model(
        model, initial_user_weights=make_initial_weights(model, trained_als)
    )
    return velox


def uid_on_node(velox, node: int) -> int:
    route = velox.cluster.router.route_index
    return next(uid for uid in range(60) if route(uid) == node)


def next_batch(engine):
    with engine._cond:
        job, wait_hint = engine._next_batch()
    return job, wait_hint


class TestWorkConservingDispatch:
    """Under the default policy a free worker takes what is queued now,
    and across queues the oldest head goes first."""

    def test_default_policy_never_lingers(self):
        policy = make_batching_policy(ServingConfig())
        for _ in range(10):
            policy.observe(1, 0.0)  # AIMD limit well above the depths below
        former = BatchFormer(policy)
        queue = RequestQueue("q", max_depth=10)
        assert former.form(queue, now=0.0) == []  # empty: nothing to form
        for depth in range(1, 4):
            for uid in range(depth):
                queue.offer(queued(uid, uid, t=0.0))
            # Under the limit and zero seconds old: formable all the same.
            assert former.ready_in(queue, now=0.0) == 0.0
            assert len(former.form(queue, now=0.0)) == depth

    def test_lone_request_waits_zero_clock_seconds(self, deployed_velox):
        clock = SimulatedClock()
        engine = deployed_velox.serving_engine(ServingConfig(), clock=clock)
        for item in (2, 3):  # the first batch grows the AIMD limit past 1
            future = engine.submit_predict(1, item)
            job, _ = next_batch(engine)
            assert job is not None
            engine._execute(*job)
            assert future.result(timeout=0).item == item
            clock.advance(1.0)
        name = f"songs@node{deployed_velox.cluster.router.route_index(1)}"
        assert engine.queue_metrics()[name].wait.samples == [0.0, 0.0]

    def test_oldest_head_first_across_queues(self, four_node_velox):
        clock = SimulatedClock()
        engine = four_node_velox.serving_engine(
            ServingConfig(max_queue_age=10.0), clock=clock
        )
        on0, on2 = (uid_on_node(four_node_velox, n) for n in (0, 2))
        clock.advance(1.0)
        # Node 0's queue is created (and scanned) first, but node 2's
        # head is a second older.
        engine.submit_predict(on0, 1, enqueue_time=1.0)
        engine.submit_predict(on2, 2, enqueue_time=0.0)
        keys = [next_batch(engine)[0][0] for _ in range(2)]
        assert keys == [("songs", 2), ("songs", 0)]
        assert next_batch(engine) == (None, pytest.approx(0.05))

    def test_refilled_queue_cannot_starve_another(self, four_node_velox):
        """Node 0 gets a new request every tick; node 2's lone request,
        stamped t=3, is served after exactly the three that arrived
        before it, however long the refilling goes on."""
        clock = SimulatedClock()
        engine = four_node_velox.serving_engine(
            ServingConfig(max_queue_age=100.0), clock=clock
        )
        on0, on2 = (uid_on_node(four_node_velox, n) for n in (0, 2))
        served = []
        for tick in range(8):
            engine.submit_predict(on0, tick, enqueue_time=float(tick))
            if tick == 3:
                engine.submit_predict(on2, 99, enqueue_time=3.0)
            if tick >= 2:  # the worker falls two requests behind
                (_, node), batch = next_batch(engine)[0]
                served.append((node, batch[0].item))
            clock.advance(1.0)
        assert served == [(0, 0), (0, 1), (0, 2), (0, 3), (2, 99), (0, 4)]

    def test_fixed_delay_queue_lingers_behind_the_hint(self, deployed_velox):
        clock = SimulatedClock()
        engine = deployed_velox.serving_engine(
            ServingConfig(batching="fixed_delay", batch_delay=0.01), clock=clock
        )
        engine.submit_predict(1, 2)
        clock.advance(0.004)
        assert next_batch(engine) == (None, pytest.approx(0.006))
        clock.advance(0.006)
        job, _ = next_batch(engine)
        assert [r.item for r in job[1]] == [2]

    def test_sheds_happen_before_selection(self, four_node_velox):
        """The oldest head is expired, the next oldest has spent its
        deadline: both are shed and the batch comes from what is left."""
        clock = SimulatedClock()
        engine = four_node_velox.serving_engine(
            ServingConfig(max_queue_age=0.5), clock=clock
        )
        on0, on1, on2 = (uid_on_node(four_node_velox, n) for n in (0, 1, 2))
        aged = engine.submit_predict(on0, 1, enqueue_time=0.0)
        dead = engine.submit_predict(on1, 2, enqueue_time=0.2, deadline=0.3)
        live = engine.submit_predict(on2, 3, enqueue_time=0.4)
        clock.advance(0.6)
        (key, batch), _ = next_batch(engine)
        assert key == ("songs", 2) and [r.item for r in batch] == [3]
        with pytest.raises(OverloadedError):
            aged.result(timeout=0)
        with pytest.raises(DeadlineExceededError):
            dead.result(timeout=0)
        assert not live.done()
        assert engine.resilience.snapshot()["deadline_sheds"] == {"queue": 1}
