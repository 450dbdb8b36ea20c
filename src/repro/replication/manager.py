"""The replication manager: placement, journal shipping, failover.

One :class:`ReplicationManager` attaches to a
:class:`~repro.cluster.VeloxCluster` and makes its store fault-tolerant:

* **Placement** — every table partition gets ``replication_factor - 1``
  follower replicas on distinct nodes chosen by a consistent-hash ring
  (:class:`~repro.replication.ring.HashRing`). Primaries stay with the
  partition owner so healthy-path routing is unchanged. All user-weight
  tables (``user_state:*``) share one follower set per partition, so the
  router's failover target is coherent across models.
* **Journal shipping** — followers learn mutations by pulling the
  primary's journal from their last applied sequence. Shipping is
  asynchronous (pumped by the heartbeat tick) with a bound: once a
  partition accumulates ``max_lag_records`` unshipped records, the next
  write ships synchronously. Followers that fall behind the compaction
  horizon are caught up by snapshot transfer.
* **Failure detection and promotion** — a heartbeat
  :class:`~repro.replication.failure.FailureDetector` (plus direct
  failure reports from the serving path) drives automatic promotion:
  each dead node's partitions are delegated to their first alive
  follower, which serves its shipped prefix (reads flagged stale when
  the replica was lagging at promotion) and journals failover-era
  writes so the durable journal stays the single source of truth.
* **Anti-entropy** — when the node restarts, the store recovers it from
  the journal (which now includes failover-era writes), promoted
  replicas are demoted, and replicas the dead node hosted are reset and
  re-shipped from scratch.
"""

from __future__ import annotations

import threading

from repro import chaos
from repro.common.clock import Clock, SystemClock
from repro.common.errors import ReplicationError
from repro.metrics.replication import ReplicationMetrics
from repro.replication.failure import FailureDetector
from repro.replication.replica import PartitionReplica, PromotedPartitionView
from repro.replication.ring import HashRing

#: Prefix marking tables in the user-weight namespace (one shared
#: follower set per partition across models — see module docstring).
USER_NAMESPACE_PREFIX = "user_state:"


def report_dead_nodes(cluster) -> bool:
    """Report every dead node on ``cluster`` to its replication manager.

    The serving path calls this when a read hits a
    :class:`~repro.common.errors.PartitionError`: direct read-failure
    evidence promotes followers immediately instead of waiting out the
    heartbeat timeout. Returns True when at least one affected partition
    now has a promoted serving replica — i.e. retrying the read can
    succeed. Returns False (never raises) without replication.
    """
    replication = getattr(cluster, "replication", None)
    if replication is None:
        return False
    promoted = False
    for node in cluster.nodes:
        if not node.alive:
            promoted = replication.report_read_failure(node.node_id) or promoted
    return promoted


class ReplicationManager:
    """Replicated partitions + failure detection for one cluster."""

    def __init__(
        self,
        cluster,
        replication_factor: int,
        virtual_nodes: int = 64,
        max_lag_records: int = 128,
        heartbeat_interval: float = 0.02,
        heartbeat_timeout: float = 0.1,
        clock: Clock | None = None,
    ):
        if replication_factor < 1:
            raise ReplicationError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if replication_factor > cluster.num_nodes:
            raise ReplicationError(
                f"replication_factor {replication_factor} exceeds the "
                f"{cluster.num_nodes}-node cluster"
            )
        if max_lag_records < 1:
            raise ReplicationError(
                f"max_lag_records must be >= 1, got {max_lag_records}"
            )
        self.cluster = cluster
        self.replication_factor = replication_factor
        self.max_lag_records = max_lag_records
        self.heartbeat_interval = heartbeat_interval
        self.clock = clock if clock is not None else SystemClock()
        self.ring = HashRing(
            [n.node_id for n in cluster.nodes], virtual_nodes=virtual_nodes
        )
        self.detector = FailureDetector(
            [n.node_id for n in cluster.nodes],
            timeout=heartbeat_timeout,
            clock=self.clock,
        )
        self.metrics = ReplicationMetrics()
        self._lock = threading.RLock()
        #: (table_name, partition_index) -> [PartitionReplica] (followers
        #: in ring preference order; primary is the partition owner).
        self._replicas: dict[tuple[str, int], list[PartitionReplica]] = {}
        #: (table_name, partition_index) -> currently promoted replica.
        self._promoted: dict[tuple[str, int], PartitionReplica] = {}
        #: user-namespace partition -> node id currently serving it via
        #: a promoted follower (router failover lookup).
        self._user_partition_serving: dict[int, int] = {}
        #: partition key -> unshipped records since the last ship.
        self._pending: dict[tuple[str, int], int] = {}
        self._heartbeat_thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        #: Heartbeat rounds run so far (chaos decision keys combine the
        #: tick index with the node id so per-tick faults re-draw).
        self._tick_count = 0
        # Replicate existing tables and subscribe to future ones.
        for name in cluster.store.table_names():
            self._register_table(cluster.store.table(name))
        cluster.store.add_table_listener(self._register_table)

    # -- placement -----------------------------------------------------------

    def _namespace(self, table_name: str) -> str:
        if table_name.startswith(USER_NAMESPACE_PREFIX):
            return "user"
        return f"table:{table_name}"

    def primary_node(self, partition_index: int) -> int:
        """The node owning a partition in the healthy case (co-location:
        partition index modulo cluster size)."""
        return partition_index % self.cluster.num_nodes

    def follower_nodes(self, table_name: str, partition_index: int) -> list[int]:
        """Follower node ids for one partition, in ring order."""
        needed = self.replication_factor - 1
        if needed == 0:
            return []
        primary = self.primary_node(partition_index)
        key = f"{self._namespace(table_name)}:{partition_index}"
        followers = []
        for node_id in self.ring.replicas(key, self.cluster.num_nodes):
            if node_id == primary:
                continue
            followers.append(node_id)
            if len(followers) == needed:
                break
        return followers

    def replica_set(self, table_name: str, partition_index: int) -> list[int]:
        """``[primary, *followers]`` node ids for one partition."""
        return [self.primary_node(partition_index)] + self.follower_nodes(
            table_name, partition_index
        )

    def user_replica_set(self, partition_index: int) -> list[int]:
        """``[primary, *followers]`` for the shared user-weight namespace.

        The router's placement query: every ``user_state:*`` table shares
        one follower set per partition, so this is the candidate node
        list for a user's reads regardless of which model is served.
        """
        return self.replica_set(USER_NAMESPACE_PREFIX, partition_index)

    def _register_table(self, table) -> None:
        with self._lock:
            for index in range(table.num_partitions):
                key = (table.name, index)
                if key in self._replicas:
                    continue
                self._replicas[key] = [
                    PartitionReplica(
                        table.name, index, node_id,
                        value_policy=table.value_policy,
                    )
                    for node_id in self.follower_nodes(table.name, index)
                ]
                self._pending[key] = 0
                partition = table.partition(index)
                partition.on_mutate = self._make_mutate_hook(key)

    def _make_mutate_hook(self, key: tuple[str, int]):
        def hook(partition) -> None:
            """Bound replica lag: ship once the backlog hits the cap."""
            with self._lock:
                self._pending[key] = self._pending.get(key, 0) + 1
                if self._pending[key] >= self.max_lag_records:
                    self._ship_partition(key)

        return hook

    def replicated_partitions(self) -> list[tuple[str, int]]:
        """Every (table, partition) under replication."""
        with self._lock:
            return sorted(self._replicas)

    # -- journal shipping ----------------------------------------------------

    def ship(self, table_name: str | None = None) -> int:
        """Pump journal records to every follower; returns records shipped.

        The asynchronous replication path: called by the heartbeat tick
        (and synchronously by the write hook when a partition's backlog
        reaches ``max_lag_records``).
        """
        shipped = 0
        with self._lock:
            for key in list(self._replicas):
                if table_name is not None and key[0] != table_name:
                    continue
                shipped += self._ship_partition(key)
        return shipped

    def _ship_partition(self, key: tuple[str, int]) -> int:
        """Ship one partition's journal tail to its followers (locked)."""
        table_name, index = key
        partition = self.cluster.store.table(table_name).partition(index)
        journal = partition.journal
        head = journal.next_sequence
        shipped = 0
        for replica in self._replicas[key]:
            if replica.promoted:
                continue  # serving its own fork; resynced at demotion
            if not self.cluster.nodes[replica.node_id].alive:
                continue  # cannot receive; reset + resync at restart
            lag = replica.lag(head)
            if lag == 0:
                continue
            self.metrics.lag.observe(lag)
            try:
                records = list(journal.replay(replica.applied_sequence))
            except ValueError:
                # The journal compacted past this replica's ack point —
                # the records are gone; fall back to snapshot transfer.
                state, sequence = partition.export_state()
                replica.install_snapshot(state, sequence)
                self.metrics.on_snapshot_transfer()
                shipped += 1
                continue
            for record in records:
                replica.apply(record)
            shipped += len(records)
        self.metrics.on_shipped(shipped)
        self._pending[key] = 0
        return shipped

    def lag_snapshot(self) -> dict[str, dict[int, int]]:
        """``{table: {partition: max follower lag in records}}``."""
        with self._lock:
            out: dict[str, dict[int, int]] = {}
            for (table_name, index), replicas in self._replicas.items():
                partition = self.cluster.store.table(table_name).partition(index)
                head = partition.journal.next_sequence
                worst = max(
                    (r.lag(head) for r in replicas if not r.promoted),
                    default=0,
                )
                out.setdefault(table_name, {})[index] = worst
            return out

    def max_lag(self) -> int:
        """The worst follower lag (records) across every partition."""
        return max(
            (
                lag
                for per_table in self.lag_snapshot().values()
                for lag in per_table.values()
            ),
            default=0,
        )

    # -- failure detection ---------------------------------------------------

    def tick(self, now: float | None = None) -> list[int]:
        """One heartbeat round: collect liveness, detect, promote, ship.

        Alive nodes heartbeat; nodes whose heartbeats go stale past the
        timeout are declared dead and failed over. Returns the nodes
        failed over this tick. Also pumps journal shipping, so replica
        lag is bounded by the tick cadence even without write pressure.
        """
        at = now if now is not None else self.clock.now()
        tick = self._tick_count
        self._tick_count = tick + 1
        inject = chaos.active() is not None
        for node in self.cluster.nodes:
            if not node.alive:
                continue
            if inject and chaos.should(
                "replication.dead_node", key=node.node_id
            ):
                # Injected node kill: the node goes down hard; liveness
                # and failover flow through the normal detection path.
                self.cluster.fail_node(node.node_id)
                continue
            if inject and chaos.should(
                "replication.slow_node", key=(node.node_id, tick)
            ):
                continue  # heartbeat suppressed this tick
            self.detector.heartbeat(node.node_id, at)
        newly_dead = self.detector.check(at)
        for node_id in newly_dead:
            self.fail_over(node_id)
        if inject:
            delay = chaos.latency("replication.ship_delay", key=tick)
            if delay > 0.0:
                self.clock.advance(delay)
        self.ship()
        return newly_dead

    def report_read_failure(self, node_id: int) -> bool:
        """Direct evidence from the serving path that a node is down.

        Fast-path failover: a partition error on a read is treated like
        an expired heartbeat, immediately. Returns True when this report
        triggered (or confirmed) a promotion, so the caller can retry
        the read against the follower.
        """
        self.metrics.on_failure_report()
        if self.cluster.nodes[node_id].alive:
            return False  # node is fine; the error was something else
        if self.detector.report_failure(node_id):
            for dead in self.detector.check():
                self.fail_over(dead)
        with self._lock:
            return any(
                replica.node_id != node_id
                for key, replica in self._promoted.items()
                if self.primary_node(key[1]) == node_id
            )

    # -- promotion / demotion ------------------------------------------------

    def fail_over(self, node_id: int) -> int:
        """Promote followers for everything ``node_id`` was serving.

        Also resets replicas the dead node hosted (its memory is gone;
        they re-ship from scratch once it returns). Returns the number
        of partitions promoted.
        """
        started = self.clock.now()
        promoted = 0
        with self._lock:
            for key, replicas in self._replicas.items():
                table_name, index = key
                # Replicas hosted on the dead node lost their state.
                for replica in replicas:
                    if replica.node_id == node_id and not replica.promoted:
                        replica.reset()
                serving = self._promoted.get(key)
                serving_node = (
                    serving.node_id
                    if serving is not None
                    else self.primary_node(index)
                )
                if serving_node != node_id:
                    continue
                if serving is not None:
                    # The promoted follower died too: drop it and let the
                    # next candidate take over from its shipped prefix.
                    serving.reset()
                    serving.demote()
                    del self._promoted[key]
                if self._promote_partition(key):
                    promoted += 1
        if promoted:
            self.metrics.on_failover()
            self.metrics.promotion_time.record(
                max(0.0, self.clock.now() - started)
            )
        return promoted

    def _promote_partition(self, key: tuple[str, int]) -> bool:
        """Install the first alive follower as the serving copy (locked)."""
        table_name, index = key
        partition = self.cluster.store.table(table_name).partition(index)
        for replica in self._replicas[key]:
            if not self.cluster.nodes[replica.node_id].alive:
                continue
            replica.promote(partition.journal.next_sequence)
            partition.failover = PromotedPartitionView(replica, partition.journal)
            self._promoted[key] = replica
            if self._namespace(table_name) == "user":
                self._user_partition_serving[index] = replica.node_id
            self.metrics.on_promotion()
            return True
        return False

    def on_node_restart(self, node_id: int) -> None:
        """Anti-entropy after a node returns.

        The store has already recovered the node's partitions from their
        journals (which include failover-era writes), so the primary is
        authoritative again: demote its promoted stand-ins, clear
        delegates, and re-ship every follower (the demoted replica's
        fork heals because shipping replays the journal suffix — the
        unshipped tail plus failover writes — in journal order).
        """
        with self._lock:
            for key in list(self._promoted):
                table_name, index = key
                if self.primary_node(index) != node_id:
                    continue
                replica = self._promoted.pop(key)
                replica.demote()
                partition = self.cluster.store.table(table_name).partition(index)
                partition.failover = None
                if self._namespace(table_name) == "user":
                    self._user_partition_serving.pop(index, None)
                self.metrics.on_demotion()
            self.detector.heartbeat(node_id)
            self.ship()

    # -- serving-path queries ------------------------------------------------

    def serving_node_for_user_partition(self, partition_index: int) -> int | None:
        """The node serving a user partition via promotion, or None.

        The router consults this when the partition owner is dead, so
        requests land on the node actually holding the promoted replica.
        """
        if not self._user_partition_serving:  # unlocked hot-path shortcut
            return None
        with self._lock:
            return self._user_partition_serving.get(partition_index)

    def user_read_is_stale(self, partition_index: int) -> bool:
        """Whether user-weight reads for this partition are bounded-stale.

        True while a promoted follower that was lagging at promotion
        serves the partition; counted into the metrics so the recorded
        ablation can report how many responses carried the flag.
        """
        if not self._promoted:  # unlocked hot-path shortcut
            return False
        with self._lock:
            for (table_name, index), replica in self._promoted.items():
                if index != partition_index:
                    continue
                if self._namespace(table_name) != "user":
                    continue
                if replica.promotion_lag > 0:
                    self.metrics.on_stale_read()
                    return True
        return False

    # -- heartbeat loop ------------------------------------------------------

    def start(self) -> "ReplicationManager":
        """Run ``tick`` on a daemon thread every ``heartbeat_interval``."""
        if self._heartbeat_thread is not None:
            raise ReplicationError("heartbeat loop already running")
        self._stop_event.clear()

        def loop() -> None:
            while not self._stop_event.wait(self.heartbeat_interval):
                self.tick()

        self._heartbeat_thread = threading.Thread(
            target=loop, name="replication-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()
        return self

    def stop(self) -> None:
        """Stop the heartbeat loop (no-op when not running)."""
        if self._heartbeat_thread is None:
            return
        self._stop_event.set()
        self._heartbeat_thread.join(timeout=5)
        self._heartbeat_thread = None

    def __enter__(self) -> "ReplicationManager":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
