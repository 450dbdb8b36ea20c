"""Deployment reporting: snapshots and rendering."""

import pytest

from repro.core import reporting


class TestSnapshot:
    def test_fresh_deployment(self, deployed_velox):
        status = reporting.snapshot(deployed_velox)
        assert status.num_nodes == 2
        assert status.alive_nodes == 2
        assert len(status.models) == 1
        model = status.models[0]
        assert model.name == "songs"
        assert model.version == 0
        assert model.users > 0
        assert model.observations_logged == 0
        assert not model.stale
        assert model.versions == 1

    def test_counters_reflect_traffic(self, deployed_velox):
        for i in range(10):
            deployed_velox.predict(None, i, i % 5)
        for i in range(4):
            deployed_velox.observe(uid=i, x=i, y=3.0)
        status = reporting.snapshot(deployed_velox)
        assert status.requests_served == 10
        assert status.observations_applied == 4
        model = status.models[0]
        assert model.observations_logged == 4
        assert model.health_observations == 4
        assert model.recent_loss is not None

    def test_cache_hit_rates(self, caching_velox):
        caching_velox.predict(None, 1, 3)
        caching_velox.predict(None, 1, 3)  # prediction cache hit
        status = reporting.snapshot(caching_velox)
        assert status.prediction_cache_hit_rate > 0

    def test_retrain_and_multiple_models_counted(self, deployed_velox, small_split):
        from repro.core.models import PersonalizedLinearModel

        deployed_velox.add_model(PersonalizedLinearModel("aux", 3))
        for r in small_split.stream[:50]:
            deployed_velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        deployed_velox.retrain("songs")
        status = reporting.snapshot(deployed_velox)
        by_name = {m.name: m for m in status.models}
        assert set(by_name) == {"songs", "aux"}
        assert by_name["songs"].retrains == 1
        assert by_name["songs"].version == 1
        assert by_name["songs"].versions == 2
        assert by_name["aux"].retrains == 0

    def test_dead_node_visible(self, deployed_velox):
        deployed_velox.cluster.fail_node(0)
        status = reporting.snapshot(deployed_velox)
        assert status.alive_nodes == 1

    def test_serving_latency_percentiles(self, deployed_velox):
        for i in range(20):
            deployed_velox.predict(None, i % 5, i % 8)
        status = reporting.snapshot(deployed_velox)
        model = status.models[0]
        assert model.predictions_served == 20
        assert model.predict_p50_ms is not None
        assert 0 < model.predict_p50_ms <= model.predict_p99_ms

    def test_no_latency_before_traffic(self, deployed_velox):
        status = reporting.snapshot(deployed_velox)
        assert status.models[0].predictions_served == 0
        assert status.models[0].predict_p50_ms is None


class TestRender:
    def test_report_contains_key_facts(self, deployed_velox):
        deployed_velox.observe(uid=1, x=2, y=4.0)
        text = reporting.report(deployed_velox)
        assert "2/2 nodes alive" in text
        assert "songs" in text
        assert "observations applied 1" in text

    def test_render_handles_missing_losses(self, deployed_velox):
        text = reporting.report(deployed_velox)
        assert "-" in text  # no recent loss yet renders as a dash
