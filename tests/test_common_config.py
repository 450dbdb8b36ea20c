"""VeloxConfig validation."""

import json

import pytest

from repro.common import ConfigError, VeloxConfig


class TestVeloxConfigDefaults:
    def test_defaults_are_valid(self):
        cfg = VeloxConfig()
        assert cfg.num_nodes >= 1
        assert cfg.dimension >= 1
        assert cfg.online_update_method in (
            "normal_equations",
            "sherman_morrison",
            "sgd",
        )

    def test_frozen(self):
        cfg = VeloxConfig()
        with pytest.raises(AttributeError):
            cfg.num_nodes = 10

    @pytest.mark.parametrize(
        "retired, value",
        [("user_weight_store", "dict"), ("extra", {"analytics_window": 7})],
    )
    def test_retired_fields_are_gone_and_rejected(self, retired, value):
        assert not hasattr(VeloxConfig(), retired)
        saved = json.loads(VeloxConfig().to_json())
        saved[retired] = value
        with pytest.raises(ConfigError, match="unknown config keys"):
            VeloxConfig.from_json(json.dumps(saved))


class TestVeloxConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"num_nodes": -3},
            {"dimension": 0},
            {"regularization": -0.1},
            {"feature_cache_capacity": -1},
            {"prediction_cache_capacity": -5},
            {"staleness_loss_ratio": 1.0},
            {"staleness_loss_ratio": 0.5},
            {"staleness_window": 0},
            {"online_update_method": "magic"},
            {"batch_executor": "greenlet"},
            {"batch_executor": ""},
            {"bandit_exploration": -1.0},
            {"remote_hop_latency": -1e-3},
            {"remote_bandwidth": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            VeloxConfig(**kwargs)

    def test_valid_update_methods_accepted(self):
        for method in ("normal_equations", "sherman_morrison", "sgd"):
            assert VeloxConfig(online_update_method=method).online_update_method == method

    def test_zero_cache_capacity_allowed(self):
        cfg = VeloxConfig(feature_cache_capacity=0, prediction_cache_capacity=0)
        assert cfg.feature_cache_capacity == 0

    def test_valid_batch_executors_accepted(self):
        for executor in ("thread", "fork"):
            assert VeloxConfig(batch_executor=executor).batch_executor == executor

    def test_batch_executor_survives_json_roundtrip(self):
        original = VeloxConfig(batch_executor="fork")
        assert VeloxConfig.from_json(original.to_json()).batch_executor == "fork"

    def test_invalid_batch_executor_rejected_from_json(self):
        with pytest.raises(ConfigError):
            VeloxConfig.from_json('{"batch_executor": "greenlet"}')


class TestConfigSerialization:
    def test_json_roundtrip(self):
        original = VeloxConfig(
            num_nodes=6, regularization=2.5, online_update_method="sgd",
        )
        restored = VeloxConfig.from_json(original.to_json())
        assert restored == original

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as exc:
            VeloxConfig.from_json('{"num_nodez": 4}')
        assert "num_nodez" in str(exc.value)

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError):
            VeloxConfig.from_json("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            VeloxConfig.from_json("[1, 2]")

    def test_invalid_values_still_validated(self):
        with pytest.raises(ConfigError):
            VeloxConfig.from_json('{"num_nodes": 0}')

    def test_from_file(self, tmp_path):
        path = tmp_path / "velox.json"
        path.write_text(VeloxConfig(num_nodes=3).to_json())
        assert VeloxConfig.from_file(path).num_nodes == 3

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            VeloxConfig.from_file(tmp_path / "ghost.json")


class TestReplicationFactor:
    def test_default_is_single_copy(self):
        assert VeloxConfig().replication_factor == 1

    def test_must_be_at_least_one(self):
        with pytest.raises(ConfigError):
            VeloxConfig(replication_factor=0)

    def test_cannot_exceed_cluster_size(self):
        with pytest.raises(ConfigError):
            VeloxConfig(num_nodes=2, replication_factor=3)

    def test_full_replication_allowed(self):
        assert VeloxConfig(num_nodes=3, replication_factor=3).replication_factor == 3

    def test_round_trips_through_json(self):
        original = VeloxConfig(num_nodes=4, replication_factor=2)
        assert VeloxConfig.from_json(original.to_json()) == original
