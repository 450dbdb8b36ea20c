"""Serving engine: queues, batching policies, shedding, predict_batch."""

from __future__ import annotations

import contextlib
import threading
import time

import numpy as np
import pytest

from repro import Velox, VeloxConfig, chaos
from repro.chaos import ChaosInjector, FaultSchedule
from repro.common.clock import SimulatedClock
from repro.common.errors import (
    ConfigError,
    DeadlineExceededError,
    OverloadedError,
    ValidationError,
)
from repro.core.models.linear import PersonalizedLinearModel
from repro.frontend import PipelinedClient, VeloxServer
from repro.frontend.api import PredictApiRequest
from repro.frontend.client import VeloxClient
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

    def test_second_pass_hits_prediction_cache(self, caching_velox):
        uids = [1, 2, 3]
        items = [4, 5, 6]
        first = caching_velox.service.predict_batch("songs", uids, items)
        assert not any(r.prediction_cache_hit for r in first)
        second = caching_velox.service.predict_batch("songs", uids, items)
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

    def test_predict_cached_cold_then_warm(self, caching_velox):
        assert caching_velox.service.predict_cached("songs", 1, 9) is None
        warm = caching_velox.service.predict("songs", 1, 9)
        cached = caching_velox.service.predict_cached("songs", 1, 9)
        assert cached is not None
        assert cached.prediction_cache_hit
        assert cached.score == pytest.approx(warm.score)

    def test_top_k_cached_serves_only_cached_subset(self, caching_velox):
        for item in (1, 2):
            caching_velox.service.predict("songs", 3, item)
        ranked = caching_velox.service.top_k_cached(
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

    def test_degraded_top_k_serves_from_cache(self, caching_velox):
        warm = caching_velox.service.predict("songs", 1, 5)
        engine = caching_velox.serving_engine(
            ServingConfig(max_queue_depth=0, degrade_top_k_on_overload=True)
        )
        future = engine.submit_top_k(1, [5, 6, 7], k=3)
        ranked = future.result(timeout=1)
        assert [r.item for r in ranked] == [5]
        assert ranked[0].score == pytest.approx(warm.score)
        name = f"songs@node{caching_velox.cluster.router.route_index(1)}"
        assert engine.queue_metrics()[name].degraded_count == 1
        assert engine.resilience.snapshot()["degraded"] == {"cached": 1}

    def test_degraded_top_k_with_an_empty_slate_counts_an_error(
        self, deployed_velox
    ):
        """At d = 7 nothing is cached: the degraded answer is an empty
        slate, which the resilience ladder counts as its error rung."""
        engine = deployed_velox.serving_engine(
            ServingConfig(max_queue_depth=0, degrade_top_k_on_overload=True)
        )
        future = engine.submit_top_k(1, [5, 6, 7], k=3)
        assert future.result(timeout=1) == []
        assert engine.resilience.snapshot()["degraded"] == {"error": 1}

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


def _blocked_worker(engine):
    """Start ``engine`` and park its one worker inside a batch: returns
    the event that lets the batch finish."""
    executing, release = threading.Event(), threading.Event()
    execute = engine._execute

    def held(key, batch):
        executing.set()
        assert release.wait(10)
        execute(key, batch)

    engine._execute = held
    engine.start()
    engine.submit_predict(1, 99)
    assert executing.wait(10)
    return release


class TestInlinePredict:
    """The lone predict is served on the caller's thread by an idle
    engine, and by the queued path — with the counters it has always
    kept — in every other case."""

    def test_idle_engine_serves_and_accounts_a_batch_of_one(self, deployed_velox):
        clock = SimulatedClock()
        engine = deployed_velox.serving_engine(
            ServingConfig(num_workers=1), clock=clock
        )
        expected = deployed_velox.service.predict("songs", 1, 2).score
        with engine:
            clock.advance(0.002)  # on the wire since the recv stamp
            result = engine.predict_inline(1, 2, enqueue_time=0.0, deadline=1.0)
            key = ("songs", deployed_velox.cluster.router.route_index(1))
            limit = engine._formers[key].policy.batch_limit()
        assert result.score == pytest.approx(expected, abs=1e-12)
        metrics = engine.queue_metrics()[f"songs@node{key[1]}"]
        snapshot = metrics.snapshot()
        assert (
            snapshot["enqueued"], snapshot["inline"], snapshot["completed"],
            snapshot["shed_total"], snapshot["slo_hits"],
        ) == (1, 1, 1, 0, 1)
        assert snapshot["batch_size_counts"] == {1: 1}
        assert metrics.wait.samples == [pytest.approx(0.002)]
        assert metrics.service.samples == [0.0]
        assert metrics.end_to_end.samples == [pytest.approx(0.002)]
        assert limit == 1  # AIMD sizes its cap against queued load only
        assert engine.queue_depths() == {f"songs@node{key[1]}": 0}

    def test_compute_error_is_accounted_then_raised(self, deployed_velox):
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        with engine:
            with pytest.raises(ValidationError):
                engine.predict_inline(1, object())  # unkeyable item
        (snapshot,) = engine.metrics_snapshot().values()
        assert (snapshot["enqueued"], snapshot["completed"]) == (1, 1)

    @pytest.mark.parametrize(
        "case",
        [
            "fixed_delay", "zero_depth", "queued_work", "batch_executing",
            "chaos_plan", "stopped", "not_started", "degraded",
            "spent_deadline", "computed_features_cold",
        ],
    )
    def test_gate_declines_and_todays_path_keeps_its_counters(
        self, deployed_velox, case
    ):
        clock = SimulatedClock()
        config = {
            "fixed_delay": ServingConfig(num_workers=1, batching="fixed_delay",
                                         batch_delay=60.0),
            "zero_depth": ServingConfig(num_workers=1, max_queue_depth=0),
        }.get(case, ServingConfig(num_workers=1))
        engine = deployed_velox.serving_engine(config, clock=clock)
        client = VeloxClient(deployed_velox, engine=engine)
        request = PredictApiRequest(
            uid=1, item=2,
            degraded=case == "degraded",
            deadline=0.01 if case == "spent_deadline" else None,
        )
        if case == "computed_features_cold":
            # f(x) would have to be run: that is a worker's job.
            deployed_velox.add_model(PersonalizedLinearModel("lin", 2))
            request = PredictApiRequest(uid=1, item=(0.5, 2.0), model="lin")
        plan = contextlib.nullcontext()
        release = None
        if case == "batch_executing":
            release = _blocked_worker(engine)
        elif case == "queued_work":
            # Running, with no worker thread to race the assertions.
            engine._running = True
            engine.submit_predict(1, 99)
        elif case == "stopped":
            engine.start()
            engine.stop()
        elif case != "not_started":
            engine.start()
        if case == "chaos_plan":
            plan = chaos.installed(ChaosInjector(FaultSchedule([])))
        if case == "spent_deadline":
            clock.advance(0.05)
        try:
            with plan:
                assert client.predict_inline(request, enqueue_time=0.0) is None
                future = client.dispatch_async(request, enqueue_time=0.0)
                if release is not None:
                    release.set()
                answered = case not in ("fixed_delay", "queued_work", "not_started")
                if answered:
                    response = future.result(timeout=10)
                else:
                    assert not future.done()  # lingering, or no worker yet
        finally:
            engine.stop()
        snapshots = engine.metrics_snapshot().values()
        total = {
            key: sum(s[key] for s in snapshots)
            for key in ("enqueued", "inline", "completed", "shed_admission")
        }
        assert total["inline"] == 0
        prior = 1 if case in ("queued_work", "batch_executing") else 0
        if case == "zero_depth":
            assert response.error.startswith(
                "OverloadedError: queue 'songs@node"
            ) and "queue depth bound 0 reached" in response.error
            assert (total["enqueued"], total["shed_admission"]) == (0, 1)
        elif case == "stopped":
            assert response.error.startswith(
                "OverloadedError: queue 'songs@node"
            ) and response.error.endswith("engine stopped")
            assert (total["enqueued"], total["shed_admission"]) == (0, 1)
        elif case == "degraded":
            assert response.error.startswith("DegradedError: no cached prediction")
            assert total["enqueued"] == 0
            assert engine.resilience.snapshot()["degraded"] == {"error": 1}
        elif case == "spent_deadline":
            assert response.error.startswith(
                "DeadlineExceededError: deadline exceeded at admission: "
                "budget spent before enqueue on songs@node"
            )
            assert (total["enqueued"], total["shed_admission"]) == (0, 1)
            assert engine.resilience.snapshot()["deadline_sheds"] == {"admission": 1}
        else:
            assert total["enqueued"] == prior + 1
            if answered:
                assert response.ok, response.error
                assert total["completed"] == prior + 1

    def test_computed_model_is_inline_once_every_node_caches_the_features(
        self, deployed_velox
    ):
        """The reactor never runs a feature function: a computed model's
        predict is inline only when f(x) is cached wherever the router,
        or a failover inside the read, may serve it."""
        model = PersonalizedLinearModel("lin", 2)
        deployed_velox.add_model(model)
        calls = []
        features = model.features
        model.features = lambda x: (calls.append(x), features(x))[1]
        service = deployed_velox.service
        x = (0.5, 2.0)
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        with engine:
            assert engine.predict_inline(1, x, model="lin") is None
            served_by = engine.predict(1, x, model="lin", timeout=10).node_id
            assert len(calls) == 1
            # Warm where it was served, cold on the other node.
            assert engine.predict_inline(1, x, model="lin") is None
            service.get_features(model, x, 1 - served_by)
            assert len(calls) == 2
            result = engine.predict_inline(1, x, model="lin")
            # A dead node's cold cache does not count against the rest.
            other = (3.0, 4.0)
            service.get_features(model, other, served_by)
            deployed_velox.cluster.fail_node(1 - served_by)
            on_survivor = engine.predict_inline(1, other, model="lin")
        assert result is not None and on_survivor is not None
        assert len(calls) == 3  # neither inline serve ran f(x)
        inline = sum(
            s["inline"] for s in engine.metrics_snapshot().values()
        )
        assert inline == 2

    def test_worker_retires_its_batch_and_the_engine_is_idle_again(
        self, deployed_velox
    ):
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        release = _blocked_worker(engine)
        try:
            assert engine.predict_inline(1, 2) is None
            release.set()
            deadline = time.monotonic() + 10
            while engine.predict_inline(1, 2) is None:
                assert time.monotonic() < deadline
                time.sleep(0.001)
        finally:
            release.set()
            engine.stop()
        assert engine._executing == 0

    def test_submit_after_stop_is_refused_not_parked(self, deployed_velox):
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        engine.start()
        engine.stop()
        with pytest.raises(OverloadedError, match="engine stopped"):
            engine.submit_predict(1, 2)
        with pytest.raises(OverloadedError, match="engine stopped"):
            engine.submit_top_k(1, [2, 3], k=1)
        assert engine.queue_depths() == {
            f"songs@node{deployed_velox.cluster.router.route_index(1)}": 0
        }
        with engine:  # a restart serves again
            assert engine.predict(1, 2, timeout=10).item == 2

    def test_zero_depth_bound_is_still_an_overloaded_envelope_over_tcp(
        self, deployed_velox
    ):
        engine = deployed_velox.serving_engine(ServingConfig(max_queue_depth=0))
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(PredictApiRequest(uid=1, item=2))
        assert not response.ok
        assert response.error.startswith("OverloadedError: queue 'songs@node")
        assert "shed request: queue depth bound 0 reached" in response.error
