"""ModelManager: observe path, health, staleness, retrain, rollback."""

import numpy as np
import pytest

from repro import Velox, VeloxConfig
from repro.common.errors import ValidationError
from repro.core.manager import ModelHealth
from repro.core.model import VeloxModel
from repro.core.models import MatrixFactorizationModel
from repro.store import ArrayMapping
from tests.conftest import make_initial_weights, make_mf_model


class TestObserve:
    def test_observation_logged_durably(self, deployed_velox):
        deployed_velox.observe(uid=2, x=5, y=4.0)
        log = deployed_velox.manager.observation_log("songs")
        assert len(log) == 1
        ob = log.read_all()[0]
        assert (ob.uid, ob.item_id, ob.label) == (2, 5, 4.0)

    def test_observe_updates_weights(self, deployed_velox):
        table = deployed_velox.manager.user_state_table("songs")
        before = table.get(2).weights.copy()
        deployed_velox.observe(uid=2, x=5, y=5.0)
        after = table.get(2).weights
        assert not np.allclose(before, after)

    def test_observe_moves_prediction_toward_label(self, deployed_velox):
        uid, item = 3, 8
        for _ in range(10):
            deployed_velox.observe(uid=uid, x=item, y=5.0)
        __, score = deployed_velox.predict(None, uid, item)
        before = deployed_velox.manager.user_state_table("songs")
        assert score > 3.5  # pulled strongly toward the repeated 5.0 label

    def test_observe_returns_pre_update_loss(self, deployed_velox):
        result = deployed_velox.observe(uid=2, x=5, y=4.0)
        expected = (4.0 - result.prediction_before_update) ** 2
        assert result.loss == pytest.approx(expected)

    def test_observe_routes_to_owner(self, deployed_velox):
        result = deployed_velox.observe(uid=3, x=1, y=3.0)
        assert result.node_id == 1  # 3 % 2 nodes

    def test_new_user_created_with_bootstrap_weights(self, deployed_velox):
        uid = 50_000
        deployed_velox.observe(uid=uid, x=2, y=4.5)
        table = deployed_velox.manager.user_state_table("songs")
        assert uid in table
        assert table.get(uid).observation_count == 1

    def test_nonfinite_label_rejected(self, deployed_velox):
        with pytest.raises(ValidationError):
            deployed_velox.observe(uid=1, x=1, y=float("nan"))

    def test_validation_observation_pooled(self, deployed_velox):
        deployed_velox.observe(uid=1, x=1, y=3.0, validation=True)
        health = deployed_velox.health()
        assert len(health.validation_pool) == 1
        assert health.validation_loss.count == 1


class TestHealthTracking:
    def test_observations_counted(self, deployed_velox):
        for i in range(5):
            deployed_velox.observe(uid=i, x=i, y=3.0)
        assert deployed_velox.health().observations == 5

    def test_baseline_freezes_after_window(self):
        health = ModelHealth(window=3)
        for loss in (1.0, 1.0, 1.0, 100.0, 100.0, 100.0):
            health.record(loss)
        assert health.baseline.mean == pytest.approx(1.0)
        assert health.recent.mean == pytest.approx(100.0)

    def test_staleness_requires_min_observations(self):
        health = ModelHealth(window=2)
        health.record(1.0)
        health.record(1.0)
        health.record(100.0)
        health.record(100.0)
        assert health.is_stale(ratio=1.5, min_observations=100) is False
        assert health.is_stale(ratio=1.5, min_observations=4) is True

    def test_not_stale_when_loss_flat(self):
        health = ModelHealth(window=3)
        for __ in range(20):
            health.record(1.0)
        assert health.is_stale(ratio=1.25, min_observations=5) is False

    def test_reset_after_retrain(self):
        health = ModelHealth(window=2)
        for loss in (1.0, 1.0, 9.0, 9.0):
            health.record(loss)
        health.record_validation_example(0, 1, 3.0, 0.5)
        health.reset_after_retrain()
        assert health.observations == 0
        assert health.baseline.count == 0
        assert len(health.validation_pool) == 1  # pool survives


class _WideningModel(VeloxModel):
    """Each retrain returns a model one dimension wider, with every
    user's weights padded by a 1.0."""

    def features(self, x):
        return np.full(self.dimension, float(x))

    def retrain(self, batch_context, observations, user_weights):
        wider = _WideningModel(self.name, self.dimension + 1, self.version + 1)
        return wider, {
            uid: np.append(w, 1.0) for uid, w in user_weights.items()
        }


class TestRetrain:
    def test_retrain_to_another_dimension_installs_every_user(self):
        """The table's rows keep the deployed rank, so the wider states
        land dict-resident — and serving still reads them."""
        velox = Velox.deploy(VeloxConfig(num_nodes=2), auto_retrain=False)
        weights = {uid: np.full(3, float(uid)) for uid in range(1, 7)}
        velox.add_model(_WideningModel("wide", 3), initial_user_weights=weights)
        velox.observe(uid=2, x=1.0, y=4.0)  # one dict-resident user too
        velox.retrain()
        table = velox.manager.user_state_table("wide")
        assert table.value_policy.rank == 3
        assert sorted(table.keys()) == list(range(1, 7))
        for uid in (1, 5, 6):  # pristine before the swap
            state = table.get(uid)
            assert state.weights.tolist() == [uid, uid, uid, 1.0]
            assert state.weight_version == 0
            assert velox.predict(None, uid, 2.0)[1] == pytest.approx(
                2.0 * (3 * uid + 1.0)
            )
        assert velox.manager.averager("wide").dimension == 4
        assert len(velox.manager.averager("wide")) == 6

    def test_manual_retrain_bumps_version(self, deployed_velox, small_split):
        for r in small_split.stream[:200]:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        event = deployed_velox.retrain(reason="test")
        assert event.new_version == 1
        assert event.observations_used == 200
        assert deployed_velox.model().version == 1

    def test_retrain_improves_fit_to_stream(self, deployed_velox, small_split):
        stream = small_split.stream
        for r in stream:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        deployed_velox.retrain()
        # after retraining on the stream, predictions should fit it well
        errors = []
        for r in stream[:100]:
            __, score = deployed_velox.predict(None, r.uid, r.item_id)
            errors.append((score - r.rating) ** 2)
        assert float(np.mean(errors)) < 0.4

    def test_retrain_resets_health(self, deployed_velox, small_split):
        for r in small_split.stream[:50]:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        deployed_velox.retrain()
        assert deployed_velox.health().observations == 0

    def test_retrain_records_event(self, deployed_velox, small_split):
        for r in small_split.stream[:30]:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        deployed_velox.retrain(reason="scheduled")
        events = deployed_velox.manager.retrain_events
        assert len(events) == 1
        assert events[0].reason == "scheduled"

    def test_retrain_event_carries_batch_profile(self, deployed_velox, small_split):
        for r in small_split.stream[:30]:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        event = deployed_velox.retrain(reason="profiled")
        assert event.batch_seconds is not None
        assert event.batch_seconds > 0
        assert event.batch_stages is not None
        assert event.batch_stages >= 1
        if event.batch_utilization is not None:
            assert 0 < event.batch_utilization <= 1.5  # timer noise tolerance

    def test_deploy_wires_batch_executor(self):
        from repro.common import VeloxConfig
        from repro.core.velox import Velox

        velox = Velox.deploy(
            VeloxConfig(batch_executor="fork"), auto_retrain=False
        )
        assert velox.batch_context.executor == "fork"

    def test_caches_repopulated_on_retrain(self, deployed_velox, small_split):
        # Warm caches with some traffic, then retrain.
        for uid in range(10):
            deployed_velox.predict(None, uid, uid % 5)
        for r in small_split.stream[:50]:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        event = deployed_velox.retrain()
        assert event.caches_repopulated > 0
        # Repopulated feature entries belong to the *new* version.
        model = deployed_velox.model()
        keys = [
            key
            for cache in deployed_velox.service.feature_caches
            for key in cache.keys()
        ]
        assert keys and all(key[1] == model.version for key in keys)

    def test_stale_model_triggers_auto_retrain(self, trained_als, small_split):
        model = make_mf_model(trained_als)
        velox = Velox.deploy(
            VeloxConfig(
                num_nodes=2,
                staleness_window=20,
                min_observations_for_staleness=40,
                staleness_loss_ratio=2.5,
            ),
            auto_retrain=True,
        )
        velox.add_model(model, make_initial_weights(model, trained_als))
        # Phase 1: in-distribution feedback builds a low baseline.
        for r in small_split.stream[:40]:
            velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        # Phase 2: the world shifts — labels invert (5.5 - r), losses spike.
        retrained = False
        for r in small_split.stream[40:]:
            result = velox.observe(uid=r.uid, x=r.item_id, y=5.5 - r.rating)
            if result.retrained:
                retrained = True
                break
        assert retrained
        # The observe only started the retrain; wait for its swap (a
        # future already gone from the map has finished).
        running = velox.manager._async_retraining.get("songs")
        if running is not None:
            running.result(timeout=60)
        assert velox.model().version == 1


class TestSwapRepopulation:
    def test_swap_repopulates_no_cheap_model_predictions(self):
        """A model that scores directly keeps no predictions, so the
        swap rebuilds its feature entries and nothing else."""
        rng = np.random.default_rng(11)
        users, items, rank = 20_000, 2_000, 32
        model = MatrixFactorizationModel(
            "bench",
            rng.normal(0, 0.1, (items, rank)),
            rng.normal(0, 0.1, items),
            3.5,
        )
        velox = Velox.deploy(auto_retrain=False)
        velox.add_model(
            model,
            initial_user_weights=ArrayMapping(
                np.arange(users), rng.normal(0, 0.1, (users, rank + 2))
            ),
        )
        pairs = rng.choice(users * items, 50_000, replace=False)
        uids, xs = (pairs // items).tolist(), (pairs % items).tolist()
        for start in range(0, len(pairs), 500):
            velox.service.predict_batch(
                "bench", uids[start : start + 500], xs[start : start + 500]
            )
        for uid, item in zip(uids[:200], xs[:200]):
            velox.observe(uid=uid, x=item, y=4.0)
        event = velox.manager.retrain_now("bench")
        assert velox.service.cached_predictions("bench") == []
        features = sum(len(cache) for cache in velox.service.feature_caches)
        assert event.caches_repopulated == features > 0


class TestRollback:
    def test_rollback_restores_old_parameters(self, deployed_velox, small_split):
        old_factors = deployed_velox.model().item_factors.copy()
        for r in small_split.stream[:100]:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        deployed_velox.retrain()
        assert not np.allclose(deployed_velox.model().item_factors, old_factors)
        revived = deployed_velox.rollback(version=0)
        assert np.allclose(revived.item_factors, old_factors)
        assert revived.version == 2  # forward version

    def test_rollback_invalidates_caches(self, deployed_velox, small_split):
        deployed_velox.predict(None, 1, 3)
        for r in small_split.stream[:30]:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        deployed_velox.retrain()
        deployed_velox.rollback(version=0)
        result = deployed_velox.predict_detailed(None, 1, 3)
        assert not result.prediction_cache_hit
