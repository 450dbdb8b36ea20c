"""ReplicationManager: placement, journal shipping, promotion, anti-entropy.

These tests drive the manager deterministically: a
:class:`SimulatedClock` and manual ``tick()`` calls stand in for the
heartbeat daemon thread, so promotions happen exactly when the test
advances time (or reports a read failure).
"""

from __future__ import annotations

import pytest

from repro.cluster import VeloxCluster
from repro.common.clock import SimulatedClock
from repro.common.errors import PartitionError, ReplicationError
from repro.replication import (
    PartitionReplica,
    ReplicationManager,
    USER_NAMESPACE_PREFIX,
)
from repro.replication.manager import report_dead_nodes
from repro.store.journal import JournalOp, JournalRecord
from repro.store.partition import Partition


NUM_NODES = 4
TABLE = "user_state:songs"


def make_cluster(num_nodes: int = NUM_NODES) -> VeloxCluster:
    cluster = VeloxCluster(num_nodes=num_nodes)
    cluster.store.create_table(
        TABLE, num_partitions=num_nodes, partitioner=cluster.user_partitioner
    )
    return cluster


def make_manager(
    cluster: VeloxCluster, replication_factor: int = 2, **kwargs
) -> tuple[ReplicationManager, SimulatedClock]:
    clock = SimulatedClock()
    manager = ReplicationManager(
        cluster,
        replication_factor=replication_factor,
        heartbeat_timeout=1.0,
        clock=clock,
        **kwargs,
    )
    cluster.attach_replication(manager)
    return manager, clock


@pytest.fixture
def cluster():
    return make_cluster()


class TestValidation:
    def test_replication_factor_bounds(self, cluster):
        with pytest.raises(ReplicationError):
            ReplicationManager(cluster, replication_factor=0)
        with pytest.raises(ReplicationError):
            ReplicationManager(cluster, replication_factor=NUM_NODES + 1)

    def test_max_lag_records_positive(self, cluster):
        with pytest.raises(ReplicationError):
            ReplicationManager(cluster, replication_factor=2, max_lag_records=0)


class TestPlacement:
    def test_followers_distinct_from_primary(self, cluster):
        manager, _ = make_manager(cluster, replication_factor=3)
        for index in range(NUM_NODES):
            primary = manager.primary_node(index)
            followers = manager.follower_nodes(TABLE, index)
            assert len(followers) == 2
            assert primary not in followers
            assert len(set(followers)) == 2

    def test_replica_set_is_primary_then_followers(self, cluster):
        manager, _ = make_manager(cluster)
        for index in range(NUM_NODES):
            assert manager.replica_set(TABLE, index) == [
                manager.primary_node(index)
            ] + manager.follower_nodes(TABLE, index)

    def test_user_namespace_shares_follower_sets(self, cluster):
        """Every user_state:* table agrees on followers per partition, so
        the router has one coherent failover target across models."""
        manager, _ = make_manager(cluster)
        cluster.store.create_table(
            "user_state:other",
            num_partitions=NUM_NODES,
            partitioner=cluster.user_partitioner,
        )
        for index in range(NUM_NODES):
            assert manager.follower_nodes(TABLE, index) == manager.follower_nodes(
                "user_state:other", index
            )
            assert manager.user_replica_set(index) == manager.replica_set(
                USER_NAMESPACE_PREFIX, index
            )

    def test_tables_created_later_get_replicas(self, cluster):
        manager, _ = make_manager(cluster)
        before = manager.replicated_partitions()
        cluster.store.create_table("items", num_partitions=2)
        after = manager.replicated_partitions()
        assert ("items", 0) in after and ("items", 1) in after
        assert set(before) < set(after)

    def test_rf1_means_no_followers(self, cluster):
        manager, _ = make_manager(cluster, replication_factor=1)
        assert manager.follower_nodes(TABLE, 0) == []
        assert manager.replica_set(TABLE, 0) == [0]


class TestShipping:
    def test_ship_copies_values_and_versions(self, cluster):
        manager, _ = make_manager(cluster)
        table = cluster.store.table(TABLE)
        table.put(1, "a")
        table.put(1, "b")  # version 2
        table.put(5, "c")  # same partition (5 % 4 == 1)
        assert manager.ship() == 3
        [replica] = manager._replicas[(TABLE, 1)]
        assert replica.get(1) == ("b", 2)
        assert replica.get(5) == ("c", 1)
        assert manager.max_lag() == 0

    def test_shipping_is_incremental(self, cluster):
        manager, _ = make_manager(cluster)
        table = cluster.store.table(TABLE)
        table.put(2, "x")
        assert manager.ship() == 1
        assert manager.ship() == 0  # nothing new
        table.put(2, "y")
        assert manager.ship() == 1

    def test_write_backlog_ships_synchronously_at_cap(self, cluster):
        """The lag bound: the Nth unshipped write triggers a ship via the
        partition's on_mutate hook — no tick required."""
        manager, _ = make_manager(cluster, max_lag_records=3)
        table = cluster.store.table(TABLE)
        table.put(3, "v1")
        table.put(3, "v2")
        assert manager.max_lag() == 2  # under the cap: still async
        table.put(3, "v3")
        assert manager.max_lag() == 0  # cap hit: shipped in the write path
        [replica] = manager._replicas[(TABLE, 3)]
        assert replica.get(3) == ("v3", 3)

    def test_dead_follower_is_skipped(self, cluster):
        manager, _ = make_manager(cluster)
        table = cluster.store.table(TABLE)
        uid = 0
        [replica] = manager._replicas[(TABLE, 0)]
        cluster.fail_node(replica.node_id)
        table.put(uid, "while-down")
        manager.ship()
        assert replica.applied_sequence == 0  # cannot receive while dead

    def test_compaction_falls_back_to_snapshot_transfer(self, cluster):
        """A follower behind the compaction horizon cannot replay the
        journal (the records are gone) — it gets the full state instead."""
        manager, _ = make_manager(cluster)
        table = cluster.store.table(TABLE)
        table.put(1, "a")
        table.put(5, "b")
        partition = table.partition(1)
        partition.snapshot()  # compacts the journal past the replica's ack
        shipped = manager.ship()
        assert shipped >= 1
        assert manager.metrics.snapshot_transfers == 1
        [replica] = manager._replicas[(TABLE, 1)]
        assert replica.get(1) == ("a", 1)
        assert replica.get(5) == ("b", 1)
        assert replica.applied_sequence == partition.journal.next_sequence
        assert manager.max_lag() == 0

    def test_tick_pumps_shipping(self, cluster):
        manager, clock = make_manager(cluster)
        table = cluster.store.table(TABLE)
        table.put(2, "via-tick")
        assert manager.tick() == []  # nobody died...
        assert manager.max_lag() == 0  # ...but shipping still ran


class TestSnapshotInstall:
    def test_installed_policy_less_export_does_not_alias_the_primary(self):
        """The export is already an owned deep copy and the primary
        exports once per follower, so the install adopts it as is."""
        partition = Partition(0)
        partition.put("k", [1, 2])
        state, sequence = partition.export_state()
        replica = PartitionReplica("t", 0, node_id=1)
        replica.install_snapshot(state, sequence)
        assert replica.applied_sequence == sequence
        replica.get("k")[0].append(99)
        assert replica.get("k") == ([1, 2, 99], 1)
        assert partition.get("k") == ([1, 2], 1)


class TestGaplessApply:
    def test_out_of_order_record_is_rejected(self):
        replica = PartitionReplica("t", 0, node_id=1)
        replica.apply(JournalRecord(0, JournalOp.PUT, "k", "v", 1))
        skipping = JournalRecord(2, JournalOp.PUT, "k", "v2", 2)
        with pytest.raises(ReplicationError):
            replica.apply(skipping)

    def test_reset_restarts_from_zero(self):
        replica = PartitionReplica("t", 0, node_id=1)
        replica.apply(JournalRecord(0, JournalOp.PUT, "k", "v", 1))
        replica.reset()
        assert replica.applied_sequence == 0
        assert len(replica) == 0


class TestFailover:
    def test_heartbeat_timeout_promotes_follower(self, cluster):
        manager, clock = make_manager(cluster)
        table = cluster.store.table(TABLE)
        uid = 1
        table.put(uid, "shipped")
        manager.ship()
        cluster.fail_node(1)
        clock.advance(2.0)
        assert manager.tick() == [1]
        [replica] = manager._replicas[(TABLE, 1)]
        assert manager.serving_node_for_user_partition(1) == replica.node_id
        assert table.get(uid) == "shipped"  # read served by the promotee
        assert manager.metrics.failover_count == 1
        assert manager.metrics.promotion_count >= 1

    def test_fully_shipped_promotion_is_not_stale(self, cluster):
        manager, clock = make_manager(cluster)
        table = cluster.store.table(TABLE)
        table.put(1, "x")
        manager.ship()
        cluster.fail_node(1)
        clock.advance(2.0)
        manager.tick()
        assert manager.user_read_is_stale(1) is False

    def test_lagging_promotion_is_stale(self, cluster):
        manager, clock = make_manager(cluster)
        table = cluster.store.table(TABLE)
        table.put(1, "never-shipped")  # dies before any ship
        cluster.fail_node(1)
        clock.advance(2.0)
        manager.tick()
        assert manager.user_read_is_stale(1) is True
        assert manager.metrics.stale_reads >= 1

    def test_report_read_failure_is_the_fast_path(self, cluster):
        """A PartitionError on the serving path promotes immediately —
        no clock advancement, no heartbeat round."""
        manager, _ = make_manager(cluster)
        table = cluster.store.table(TABLE)
        table.put(1, "v")
        manager.ship()
        assert manager.report_read_failure(1) is False  # node is fine
        cluster.fail_node(1)
        with pytest.raises(PartitionError):
            table.get(1)  # no delegate installed yet: the read fails
        assert manager.report_read_failure(1) is True
        assert table.get(1) == "v"

    def test_report_dead_nodes_without_replication_is_false(self):
        cluster = make_cluster()
        cluster.fail_node(1)
        assert report_dead_nodes(cluster) is False

    def test_report_dead_nodes_promotes_and_confirms(self, cluster):
        manager, _ = make_manager(cluster)
        cluster.store.table(TABLE).put(1, "v")
        manager.ship()
        cluster.fail_node(1)
        assert report_dead_nodes(cluster) is True

    def test_failover_writes_journal_and_restart_reconverges(self, cluster):
        """Writes during failover go journal-first through the promoted
        view, so restarting the primary replays them and every copy
        agrees again."""
        manager, clock = make_manager(cluster)
        table = cluster.store.table(TABLE)
        table.put(1, "before")
        manager.ship()
        cluster.fail_node(1)
        clock.advance(2.0)
        manager.tick()
        table.put(1, "during-failover")  # routed through the delegate
        table.put(5, "new-key")
        replayed = cluster.restart_node(1)
        assert replayed >= 3  # pre-failure write + both failover writes
        partition = table.partition(1)
        assert not partition.failed and partition.failover is None
        assert table.get(1) == "during-failover"
        assert table.get(5) == "new-key"
        assert manager.serving_node_for_user_partition(1) is None
        assert manager.user_read_is_stale(1) is False
        assert manager.metrics.snapshot()["demotions"] >= 1
        assert manager.max_lag() == 0  # anti-entropy re-shipped everyone

    def test_promoted_replica_death_cascades_to_next_follower(self, cluster):
        manager, clock = make_manager(cluster, replication_factor=3)
        table = cluster.store.table(TABLE)
        table.put(1, "v")
        manager.ship()
        first, second = manager.follower_nodes(TABLE, 1)
        cluster.fail_node(1)
        clock.advance(2.0)
        manager.tick()
        assert manager.serving_node_for_user_partition(1) == first
        cluster.fail_node(first)
        clock.advance(2.0)
        manager.tick()
        assert manager.serving_node_for_user_partition(1) == second
        assert table.get(1) == "v"

    def test_dead_nodes_hosted_replicas_reset_and_reship(self, cluster):
        """A follower that dies loses its replica state; once it returns
        the shipping path replays it from scratch."""
        manager, clock = make_manager(cluster)
        table = cluster.store.table(TABLE)
        uid = 0
        [replica] = manager._replicas[(TABLE, 0)]
        table.put(uid, "v")
        manager.ship()
        assert replica.applied_sequence == 1
        cluster.fail_node(replica.node_id)
        clock.advance(2.0)
        manager.tick()
        assert replica.applied_sequence == 0  # its memory is gone
        cluster.restart_node(replica.node_id)
        assert replica.applied_sequence == 1  # re-shipped on restart
        assert replica.get(uid) == ("v", 1)
