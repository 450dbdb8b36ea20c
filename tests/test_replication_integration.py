"""End-to-end replication: a replicated Velox deployment losing a node.

The scenarios the ablation (benchmarks/test_ablation_replication.py)
measures, asserted deterministically here: automatic follower promotion
(via the read-failure fast path and via the heartbeat loop), stale-read
flagging, writes during failover, and restart reconvergence.
"""

from __future__ import annotations

import time

import pytest

from repro import Velox, VeloxConfig
from repro.common.errors import ConfigError
from repro.frontend import PipelinedClient, VeloxServer
from repro.frontend.api import PredictApiRequest
from repro.replication import ReplicationManager
from repro.serving import ServingConfig
from tests.conftest import make_initial_weights, make_mf_model


def deploy_replicated(trained_als) -> Velox:
    model = make_mf_model(trained_als)
    weights = make_initial_weights(model, trained_als)
    velox = Velox.deploy(
        VeloxConfig(num_nodes=4, replication_factor=2),
        auto_retrain=False,
    )
    velox.add_model(model, initial_user_weights=weights)
    return velox


@pytest.fixture
def replicated(trained_als):
    """rf=2 on 4 nodes, heartbeat loop stopped so tests drive failover
    deterministically through the read-failure fast path."""
    velox = deploy_replicated(trained_als)
    velox.shutdown()
    yield velox
    velox.shutdown()


class TestDeployment:
    def test_config_bounds_replication_factor(self):
        with pytest.raises(ConfigError):
            VeloxConfig(num_nodes=2, replication_factor=3)
        with pytest.raises(ConfigError):
            VeloxConfig(replication_factor=0)

    def test_rf1_deploys_without_replication(self, deployed_velox):
        assert deployed_velox.replication is None

    def test_rf2_attaches_manager_everywhere(self, replicated):
        manager = replicated.replication
        assert isinstance(manager, ReplicationManager)
        assert replicated.cluster.replication is manager
        assert replicated.cluster.router.replication is manager

    def test_user_state_table_is_replicated(self, replicated):
        replicated_tables = {t for t, _ in
                             replicated.replication.replicated_partitions()}
        assert "user_state:songs" in replicated_tables

    def test_router_exposes_replica_sets(self, replicated):
        replica_set = replicated.cluster.router.replica_set(uid=1)
        assert replica_set[0] == 1  # primary = owner
        assert len(replica_set) == 2
        assert len(set(replica_set)) == 2


class TestFailoverServing:
    def test_read_failure_fast_path_promotes_and_serves(self, replicated):
        """Killing the owner mid-traffic: the very next read for its
        users succeeds via a freshly promoted follower — no heartbeat
        round needed, identical score, not stale (fully shipped)."""
        uid = 1  # owned by node 1 (modulo placement)
        replicated.replication.ship()
        before = replicated.predict_detailed(None, uid, 3)
        replicated.cluster.fail_node(1)
        after = replicated.predict_detailed(None, uid, 3)
        assert after.score == pytest.approx(before.score, abs=1e-12)
        assert after.stale is False
        serving = replicated.replication.serving_node_for_user_partition(1)
        assert serving is not None and serving != 1
        assert after.node_id == serving
        assert replicated.replication.metrics.failover_count == 1

    def test_unshipped_promotion_flags_reads_stale(self, replicated):
        """When the primary dies before shipping its journal, follower
        reads still succeed but carry the bounded-staleness flag."""
        uid = 1
        assert replicated.replication.max_lag() > 0  # nothing shipped yet
        replicated.cluster.fail_node(1)
        result = replicated.predict_detailed(None, uid, 3)
        assert result.stale is True
        # Healthy users are untouched by the failover.
        assert replicated.predict_detailed(None, 2, 3).stale is False

    def test_inline_predict_fails_over_like_the_engine_path(self, trained_als):
        """The owner dies unshipped. One deployment answers the lone
        predict on the reactor (idle engine), its twin through the
        queues: both promote on that read and flag it stale."""
        payloads = []
        for inline in (True, False):
            velox = deploy_replicated(trained_als)
            velox.shutdown()  # no heartbeat: the read itself promotes
            velox.cluster.fail_node(1)
            engine = velox.serving_engine(ServingConfig())
            with VeloxServer(velox, engine=engine) as server:
                if not inline:  # no inline leg: every predict is queued
                    server.velox_client.predict_inline = lambda *a, **k: None
                with PipelinedClient(server.host, server.port) as client:
                    response = client.call(PredictApiRequest(uid=1, item=3))
            assert response.ok, response.error
            payloads.append(response.payload)
            served = sum(q["inline"] for q in engine.metrics_snapshot().values())
            assert served == (1 if inline else 0)
            assert velox.replication.metrics.failover_count == 1
            serving = velox.replication.serving_node_for_user_partition(1)
            assert response.payload["node"] == serving != 1
        assert payloads[0]["stale"] is True
        assert payloads[0] == payloads[1]

    def test_unrelated_users_unaffected_by_node_loss(self, replicated):
        replicated.replication.ship()
        before = replicated.predict_detailed(None, 2, 7)
        replicated.cluster.fail_node(1)
        after = replicated.predict_detailed(None, 2, 7)
        assert after.score == pytest.approx(before.score, abs=1e-12)
        assert after.node_id == 2

    def test_top_k_during_failover(self, replicated):
        replicated.replication.ship()
        expected = replicated.top_k(None, 1, [1, 2, 3, 4], k=2)
        replicated.cluster.fail_node(1)
        assert replicated.top_k(None, 1, [1, 2, 3, 4], k=2) == expected

    def test_observe_during_failover_and_reconvergence(self, replicated):
        """Online updates keep flowing while the owner is down (journal-
        first through the promoted view); restarting the owner replays
        them, demotes the stand-in, and reads drop the stale flag."""
        uid = 1
        replicated.replication.ship()
        replicated.cluster.fail_node(1)
        replicated.predict_detailed(None, uid, 3)  # triggers promotion
        result = replicated.observe(uid=uid, x=3, y=4.0)
        assert result.loss >= 0.0  # the update went through
        during = replicated.predict_detailed(None, uid, 3)
        replayed = replicated.cluster.restart_node(1)
        assert replayed > 0
        after = replicated.predict_detailed(None, uid, 3)
        assert after.node_id == 1  # owner serves again
        assert after.stale is False
        assert after.score == pytest.approx(during.score, abs=1e-9)
        assert (
            replicated.replication.serving_node_for_user_partition(1) is None
        )

    def test_heartbeat_loop_promotes_without_any_read(self, trained_als):
        """Pure heartbeat detection: no request touches the dead node,
        yet its partitions get promoted within a few intervals (the
        constructor defaults: 0.02 s beats, 0.1 s timeout)."""
        velox = deploy_replicated(trained_als)
        try:
            velox.replication.ship()
            velox.cluster.fail_node(1)
            deadline = time.time() + 2.0
            while time.time() < deadline:
                if velox.replication.serving_node_for_user_partition(1) is not None:
                    break
                time.sleep(0.01)
            serving = velox.replication.serving_node_for_user_partition(1)
            assert serving is not None and serving != 1
            result = velox.predict_detailed(None, 1, 3)
            assert result.stale is False
        finally:
            velox.shutdown()
