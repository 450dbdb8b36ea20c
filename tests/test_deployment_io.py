"""Whole-deployment save/load."""

import json
import shutil

import numpy as np
import pytest

from repro import Velox
from repro.common.errors import ConfigError, StorageError
from repro.core.online import UserModelState
from repro.store import VeloxStore, checkpoint_store


class TestSaveLoad:
    def test_roundtrip_serves_identical_predictions(self, deployed_velox, tmp_path):
        for i in range(10):
            deployed_velox.observe(uid=i % 4, x=i % 8, y=3.5)
        expected = {
            (uid, item): deployed_velox.predict(None, uid, item)[1]
            for uid in range(6)
            for item in range(5)
        }
        deployed_velox.save(tmp_path / "deploy")

        restored = Velox.load(tmp_path / "deploy")
        for (uid, item), score in expected.items():
            assert restored.predict(None, uid, item)[1] == pytest.approx(score)

    def test_config_and_default_model_restored(self, deployed_velox, tmp_path):
        deployed_velox.save(tmp_path / "d")
        restored = Velox.load(tmp_path / "d")
        assert restored.config == deployed_velox.config
        assert restored._default_model == "songs"
        assert restored.cluster.num_nodes == deployed_velox.cluster.num_nodes

    def test_version_history_survives(self, deployed_velox, small_split, tmp_path):
        for r in small_split.stream[:60]:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        deployed_velox.retrain(reason="pre-save retrain")
        deployed_velox.save(tmp_path / "d")

        restored = Velox.load(tmp_path / "d")
        assert restored.model().version == 1
        history = restored.registry.history("songs")
        assert [h.version for h in history] == [0, 1]
        assert history[1].note == "pre-save retrain"
        # rollback still works against the restored history
        revived = restored.rollback(version=0)
        assert revived.version == 2

    def test_batch_executor_restored(self, trained_als, tmp_path):
        from repro import VeloxConfig
        from tests.conftest import make_initial_weights, make_mf_model

        velox = Velox.deploy(
            VeloxConfig(num_nodes=2, batch_executor="fork"), auto_retrain=False
        )
        model = make_mf_model(trained_als)
        velox.add_model(model, make_initial_weights(model, trained_als))
        velox.save(tmp_path / "d")
        restored = Velox.load(tmp_path / "d")
        assert restored.batch_context.executor == "fork"
        assert (
            restored.batch_context.default_parallelism
            == velox.batch_context.default_parallelism
        )

    def test_observation_log_survives(self, deployed_velox, tmp_path):
        for i in range(7):
            deployed_velox.observe(uid=1, x=i % 5, y=4.0)
        deployed_velox.save(tmp_path / "d")
        restored = Velox.load(tmp_path / "d")
        assert len(restored.manager.observation_log("songs")) == 7

    def test_bootstrap_averager_rebuilt(self, deployed_velox, tmp_path):
        deployed_velox.save(tmp_path / "d")
        restored = Velox.load(tmp_path / "d")
        original = deployed_velox.manager.averager("songs")
        rebuilt = restored.manager.averager("songs")
        assert len(rebuilt) == len(original)
        assert np.allclose(rebuilt.mean(), original.mean())
        # an unknown user gets the same bootstrap prediction
        a = deployed_velox.predict(None, 99_999, 3)[1]
        b = restored.predict(None, 99_999, 3)[1]
        assert a == pytest.approx(b)

    def test_restored_deployment_keeps_learning(self, deployed_velox, tmp_path):
        deployed_velox.save(tmp_path / "d")
        restored = Velox.load(tmp_path / "d")
        before = restored.predict(None, 2, 6)[1]
        for __ in range(8):
            restored.observe(uid=2, x=6, y=5.0)
        after = restored.predict(None, 2, 6)[1]
        assert abs(after - 5.0) < abs(before - 5.0)
        # and retraining works end to end on the restored instance
        event = restored.retrain()
        assert event.new_version == 1

    def test_multiple_models_roundtrip(self, deployed_velox, tmp_path, rng):
        from repro.core.models import PersonalizedLinearModel

        deployed_velox.add_model(PersonalizedLinearModel("aux", 3))
        x = rng.normal(size=3)
        deployed_velox.observe(uid=1, x=x, y=2.0, model_name="aux")
        deployed_velox.save(tmp_path / "d")
        restored = Velox.load(tmp_path / "d")
        assert set(restored.registry.names()) == {"aux", "songs"}
        assert len(restored.manager.observation_log("aux")) == 1

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            Velox.load(tmp_path / "nothing-here")

    def test_retired_config_key_is_named_before_the_store_is_read(
        self, deployed_velox, tmp_path
    ):
        deployed_velox.save(tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "deployment.json").read_text())
        meta["config"]["frontend"] = "threaded"  # retired in PR 13
        (tmp_path / "d" / "deployment.json").write_text(json.dumps(meta))
        shutil.rmtree(tmp_path / "d" / "store")
        with pytest.raises(ConfigError, match=r"unknown config keys: \['frontend'\]"):
            Velox.load(tmp_path / "d")

    def test_policy_less_checkpoint_restores_slab_backed(
        self, deployed_velox, tmp_path
    ):
        """A store checkpointed from a policy-less table of boxed user
        states (what the retired dict layout wrote) must come back with
        the storage policy serving reads through."""
        deployed_velox.save(tmp_path / "d")
        model = deployed_velox.model()
        lam = deployed_velox.config.regularization
        store = VeloxStore(default_partitions=deployed_velox.cluster.num_nodes)
        boxed = store.create_table(
            "user_state:songs",
            partitioner=deployed_velox.cluster.user_partitioner,
        )
        weights = {uid: np.full(model.dimension, 0.1 * uid) for uid in (1, 2, 3)}
        for uid, w in weights.items():
            boxed.put(uid, UserModelState(model.dimension, lam, prior_mean=w))
        store.create_log("observations:songs")
        assert boxed.value_policy is None
        shutil.rmtree(tmp_path / "d" / "store")
        checkpoint_store(store, tmp_path / "d" / "store")

        restored = Velox.load(tmp_path / "d")
        table = restored.manager.user_state_table("songs")
        assert table.value_policy is not None
        for uid, w in weights.items():
            slab = table.partition(table.partition_index(uid))._store.slab
            assert uid in slab  # pristine: re-encoded into a row
            features = restored.model().features(4)
            assert restored.predict(None, uid, 4)[1] == pytest.approx(
                float(w @ features)
            )
        mean = restored.manager.averager("songs").mean()
        assert np.allclose(mean, np.full(model.dimension, 0.2))
