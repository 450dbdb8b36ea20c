"""Retraining: one path for every trigger. The job trains off the write
lock on the retrain worker while serving continues, and the swap replays
the observes acked meanwhile."""

import sys
import threading
import time

import numpy as np
import pytest

from repro import Velox, VeloxConfig
from repro.common.errors import ValidationError
from repro.core.models import MatrixFactorizationModel
from repro.frontend import (
    PipelinedClient,
    PredictApiRequest,
    RetrainApiRequest,
    VeloxServer,
)
from repro.store.slab import ArrayMapping
from tests.conftest import make_initial_weights, make_mf_model


def feed_stream(velox, stream, count=150):
    for r in stream[:count]:
        velox.observe(uid=r.uid, x=r.item_id, y=r.rating)


class TestRetrainAsync:
    def test_completes_and_bumps_version(self, deployed_velox, small_split):
        feed_stream(deployed_velox, small_split.stream)
        handle = deployed_velox.retrain_async(reason="nightly")
        event = handle.result(timeout=60)
        assert handle.done()
        assert event.new_version == 1
        assert event.reason == "nightly"
        assert deployed_velox.model().version == 1

    def test_serving_continues_during_retrain(self, deployed_velox, small_split):
        feed_stream(deployed_velox, small_split.stream)
        handle = deployed_velox.retrain_async()
        served = 0
        while True:
            finished = handle.done()
            __, score = deployed_velox.predict(None, served % 10, served % 20)
            assert np.isfinite(score)
            served += 1
            if finished:
                break
        handle.result(timeout=60)
        assert served >= 1  # queries were answered throughout the retrain

    def test_observes_during_retrain_are_logged(self, deployed_velox, small_split):
        feed_stream(deployed_velox, small_split.stream, count=100)
        log = deployed_velox.manager.observation_log("songs")
        handle = deployed_velox.retrain_async()
        deployed_velox.observe(uid=1, x=2, y=4.0)
        event = handle.result(timeout=60)
        # The retrain used the snapshot; the during-retrain observation
        # is preserved for the next one.
        assert event.observations_used <= 101
        assert len(log) >= 101

    def test_concurrent_retrains_rejected(self, deployed_velox, small_split):
        feed_stream(deployed_velox, small_split.stream)
        handle = deployed_velox.retrain_async()
        with pytest.raises(ValidationError):
            deployed_velox.retrain_async()
        handle.result(timeout=60)
        # once finished, a new one is allowed
        second = deployed_velox.retrain_async()
        assert second.result(timeout=60).new_version == 2

    def test_wait_timeout(self, deployed_velox, small_split):
        feed_stream(deployed_velox, small_split.stream)
        handle = deployed_velox.retrain_async()
        try:
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.0)
        finally:
            handle.result(timeout=60)

    def test_failure_surfaces_through_wait(self, deployed_velox):
        # No observations at all -> MF retrain raises ValidationError.
        handle = deployed_velox.retrain_async()
        with pytest.raises(ValidationError):
            handle.result(timeout=60)
        assert deployed_velox.model().version == 0  # no swap happened
        # the failed run releases the per-model guard
        handle2 = deployed_velox.retrain_async()
        with pytest.raises(ValidationError):
            handle2.result(timeout=60)

    def test_new_version_serves_after_swap(self, deployed_velox, small_split):
        feed_stream(deployed_velox, small_split.stream)
        before = deployed_velox.predict(None, 1, 3)[1]
        handle = deployed_velox.retrain_async()
        handle.result(timeout=60)
        after = deployed_velox.predict_detailed(None, 1, 3)
        assert not after.prediction_cache_hit or after.score != before
        assert np.isfinite(after.score)


# -- one retrain path: tail replay, off-caller triggers, the guard --------

NUM_USERS = 40
NUM_ITEMS = 12
RANK = 3


class GatedRetrainModel(MatrixFactorizationModel):
    """An MF model whose retrain waits on ``gate`` (2 s at most, so a
    caller blocked behind it fails instead of hanging), then returns the
    preset ``new_user_weights`` under the same feature parameters."""

    gate: threading.Event | None = None
    entered: threading.Event | None = None
    timed_out: bool = False
    new_user_weights: ArrayMapping | None = None

    def retrain(self, batch_context, observations, user_weights):
        self.entered.set()
        if self.gate is not None and not self.gate.wait(2.0):
            self.timed_out = True
        return self.with_version(self.version + 1), self.new_user_weights


class FailingRetrainModel(GatedRetrainModel):
    def retrain(self, batch_context, observations, user_weights):
        raise ValidationError("retrain UDF failed")


def deploy_gated(
    config=None, auto_retrain=False, covered=NUM_USERS, cls=GatedRetrainModel
):
    """A deployment of a fresh gated model whose retrain returns new
    weights for users ``[0, covered)``. Same seed, same deployment."""
    rng = np.random.default_rng(21)
    model = cls(
        "songs",
        item_factors=rng.normal(0.0, 0.3, (NUM_ITEMS, RANK)),
        item_bias=rng.normal(0.0, 0.1, NUM_ITEMS),
        global_mean=3.0,
    )
    model.gate = threading.Event()
    model.entered = threading.Event()
    model.new_user_weights = ArrayMapping(
        np.arange(covered, dtype=np.int64),
        rng.normal(0.0, 0.3, (covered, model.dimension)),
    )
    velox = Velox.deploy(
        config or VeloxConfig(num_nodes=2), auto_retrain=auto_retrain
    )
    velox.add_model(
        model,
        initial_user_weights=ArrayMapping(
            np.arange(NUM_USERS, dtype=np.int64),
            rng.normal(0.0, 0.3, (NUM_USERS, model.dimension)),
        ),
    )
    return velox, model


def user_states(velox):
    table = velox.manager.user_state_table("songs")
    return {uid: table.get(uid) for uid in table.keys()}


class TestTailReplay:
    def test_acked_observes_survive_the_swap(self):
        # Users [0, 34) get new weights; [34, 40) exist but are not
        # covered; uids 40+ are new since the snapshot.
        covered = NUM_USERS - 6
        rng = np.random.default_rng(5)
        before = [(int(u), int(rng.integers(NUM_ITEMS)), float(rng.normal(3, 1)))
                  for u in rng.integers(0, covered, 20)]
        tail = [(int(u), int(rng.integers(NUM_ITEMS)), float(rng.normal(3, 1)))
                for u in rng.integers(0, NUM_USERS + 5, 50)]
        live, live_model = deploy_gated(covered=covered)
        twin, twin_model = deploy_gated(covered=covered)
        for velox in (live, twin):
            for uid, item, label in before:
                velox.observe(uid, item, label)

        future = live.retrain_async()
        for uid, item, label in tail:
            live.observe(uid, item, label)
        live_model.gate.set()
        event = future.result(timeout=10)

        twin_model.gate.set()
        twin.retrain()
        for uid, item, label in tail:
            twin.observe(uid, item, label)

        assert event.replayed_observations == 50
        assert event.observations_used == len(before)
        got, want = user_states(live), user_states(twin)
        assert got.keys() == want.keys()
        for uid, state in want.items():
            np.testing.assert_allclose(
                got[uid].weights, state.weights, rtol=0, atol=1e-12
            )
            assert got[uid].weight_version == state.weight_version
            assert got[uid].observation_count == state.observation_count
        np.testing.assert_allclose(
            live.manager.averager("songs").mean(),
            twin.manager.averager("songs").mean(),
            rtol=0, atol=1e-12,
        )
        assert len(live.manager.observation_log("songs")) == 70


    def test_concurrent_observers_race_the_swap(self):
        """Six observer threads run through the swap: every observe
        lands exactly once, on the old states (then replayed) or on the
        new ones."""
        velox, model = deploy_gated()
        rng = np.random.default_rng(9)
        work = [
            list(zip(
                rng.integers(0, NUM_USERS + 10, 50).tolist(),
                rng.integers(0, NUM_ITEMS, 50).tolist(),
                rng.normal(3.0, 1.0, 50).tolist(),
            ))
            for _ in range(6)
        ]
        errors = []

        def observer(records):
            try:
                for uid, item, label in records:
                    velox.observe(uid, item, label)
            except Exception as err:  # reported by the main thread
                errors.append(err)

        threads = [threading.Thread(target=observer, args=(w,)) for w in work]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            future = velox.retrain_async()
            for thread in threads:
                thread.start()
            model.gate.set()
            event = future.result(timeout=30)
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert not any(thread.is_alive() for thread in threads)
        assert len(velox.manager.observation_log("songs")) == 300
        assert 0 <= event.replayed_observations <= 300
        states = user_states(velox)
        assert sum(state.observation_count for state in states.values()) == 300
        averager = velox.manager.averager("songs")
        assert len(averager) == len(states)
        np.testing.assert_allclose(
            averager.mean(),
            np.mean([state.weights for state in states.values()], axis=0),
            rtol=0, atol=1e-9,
        )


STALENESS = VeloxConfig(
    num_nodes=2,
    staleness_window=5,
    min_observations_for_staleness=10,
    staleness_loss_ratio=2.0,
)


def observe_until_stale(velox):
    """Exact labels for a near-zero baseline, then wrong ones until an
    observe starts a retrain; returns that observe's seconds."""
    for uid in range(5):
        velox.observe(uid, 1, velox.predict(None, uid, 1)[1])
    for uid in range(5, NUM_USERS):
        begin = time.perf_counter()
        if velox.observe(uid, 2, 10.0).retrained:
            return time.perf_counter() - begin
    return None


class TestTriggersDoNotBlockTheirCaller:
    def test_staleness_trigger_returns_before_the_job_finishes(self):
        velox, model = deploy_gated(STALENESS, auto_retrain=True)
        started = observe_until_stale(velox)
        assert started is not None
        assert started < 1.0
        assert not model.timed_out
        running = velox.manager._async_retraining["songs"]
        assert not running.done()
        model.gate.set()
        assert running.result(timeout=10).new_version == 1
        assert velox.model().version == 1
        assert not model.timed_out

    def test_failure_of_a_triggered_retrain_is_logged(self, caplog):
        velox, _model = deploy_gated(
            STALENESS, auto_retrain=True, cls=FailingRetrainModel
        )
        with caplog.at_level("ERROR", logger="repro.core.manager"):
            assert observe_until_stale(velox) is not None
            deadline = time.monotonic() + 10
            while (
                "background retrain failed" not in caplog.text
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        assert "background retrain failed" in caplog.text
        assert "retrain UDF failed" in caplog.text
        assert not velox.manager._async_retraining
        assert velox.model().version == 0

    def test_retrain_frame_does_not_block_the_reactor(self):
        velox, model = deploy_gated()
        with VeloxServer(velox) as server:
            with PipelinedClient(server.host, server.port) as first, \
                    PipelinedClient(server.host, server.port) as second:
                pending = first.submit(RetrainApiRequest(reason="wire"))
                assert model.entered.wait(5)
                begin = time.perf_counter()
                answer = second.call(PredictApiRequest(uid=1, item=2), timeout=5)
                elapsed = time.perf_counter() - begin
                assert answer.ok, answer.error
                assert elapsed < 1.0
                assert not pending.done()
                model.gate.set()
                retrained = pending.result(timeout=10)
        assert retrained.ok, retrained.error
        assert retrained.payload["new_version"] == 1
        assert not model.timed_out


class TestRetrainGuard:
    def test_guard_is_released_before_the_answer(self):
        velox, model = deploy_gated()
        model.gate.set()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                velox.manager.retrain_now("songs")
                velox.manager.retrain_async("songs").result(timeout=10)
        finally:
            sys.setswitchinterval(previous)
        assert velox.model().version == 60
        assert not velox.manager._async_retraining

    def test_each_retrain_reports_its_own_batch_profile(
        self, trained_als, small_split
    ):
        velox = Velox.deploy(VeloxConfig(num_nodes=2), auto_retrain=False)
        for name in ("a", "b"):
            model = make_mf_model(trained_als, name=name)
            velox.add_model(model, make_initial_weights(model, trained_als))
            for r in small_split.stream[:60]:
                velox.observe(r.uid, r.item_id, r.rating, model_name=name)
        alone = {name: velox.retrain(name).batch_stages for name in ("a", "b")}
        assert all(stages >= 1 for stages in alone.values())
        futures = {name: velox.retrain_async(name) for name in ("a", "b")}
        together = {
            name: future.result(timeout=60).batch_stages
            for name, future in futures.items()
        }
        assert together == alone
