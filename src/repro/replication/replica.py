"""Follower-side partition replicas and the promoted failover view.

A :class:`PartitionReplica` is one follower's copy of one (table,
partition): a :class:`~repro.store.slab.HybridStore` (the same physical
layout the primary uses — columnar slab rows plus a dict for object
values) plus the journal sequence it has applied through. Followers
learn mutations exclusively by **journal shipping** — the primary's
journal records from ``applied_sequence`` onward, applied in order
(object values deep-copied, modeling serialization across the wire, so
a replica never aliases primary state; slab rows are copied into the
follower's own arrays by the install itself). When the primary has
compacted past a replica's ack point the records are gone and catch-up
falls back to a **snapshot transfer**: the primary's full state replaces
the replica wholesale — for slab-backed tables an O(bytes) columnar copy
whose arrays the follower adopts outright.

On primary failure the replica can be **promoted**: it serves reads from
whatever prefix was shipped before the failure (bounded staleness —
``promotion_lag`` records were in the journal but never shipped) and
accepts writes, which it applies locally *and* appends to the durable
journal, keeping the journal the single source of truth. When the
failed node restarts, replaying the full journal reproduces both the
unshipped tail and every failover-era write, in order, so primary and
replicas reconverge.
"""

from __future__ import annotations

import copy
from typing import Iterator

from repro.common.errors import ReplicationError
from repro.store.journal import JournalOp, JournalRecord
from repro.store.slab import HybridExport, HybridStore, SlabRow, SlabSnapshot


def _wire_copy(value: object) -> object:
    """Model serialization of a shipped value across the wire.

    Slab payloads (rows and snapshots) are immutable read-only arrays
    and are *copied by the install that applies them*, so they ship
    as-is; everything else is deep-copied so replicas never alias
    primary state.
    """
    if isinstance(value, (SlabRow, SlabSnapshot)):
        return value
    return copy.deepcopy(value)


class PartitionReplica:
    """One follower's copy of one table partition."""

    def __init__(
        self,
        table_name: str,
        partition_index: int,
        node_id: int,
        value_policy=None,
    ):
        self.table_name = table_name
        self.partition_index = partition_index
        #: the physical node hosting this replica.
        self.node_id = node_id
        #: storage policy shared with the primary partition, so shipped
        #: SlabRow values land in a follower-local slab.
        self.value_policy = value_policy
        self._store = HybridStore(value_policy)
        #: journal records applied so far (next expected sequence).
        self.applied_sequence = 0
        self.promoted = False
        #: records the primary had journaled but never shipped, frozen
        #: at promotion time — the staleness bound for follower reads.
        self.promotion_lag = 0
        self.snapshot_transfers = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: object) -> bool:
        return key in self._store

    @property
    def store(self) -> HybridStore:
        """The replica's physical store (tests compare slabs through it)."""
        return self._store

    # -- journal shipping ----------------------------------------------------

    def apply(self, record: JournalRecord) -> None:
        """Apply one shipped journal record, enforcing sequence order."""
        if record.sequence != self.applied_sequence:
            raise ReplicationError(
                f"replica of {self.table_name}[{self.partition_index}] at "
                f"sequence {self.applied_sequence} got record "
                f"{record.sequence}; journal shipping must be gapless"
            )
        self._apply_op(record.op, record.key, _wire_copy(record.value),
                       record.version)
        self.applied_sequence = record.sequence + 1

    def _apply_op(self, op: JournalOp, key, value, version: int) -> None:
        if op is JournalOp.PUT:
            self._store.set(key, value, version)
        elif op is JournalOp.DELETE:
            self._store.delete(key)
        elif op is JournalOp.TRUNCATE:
            self._store.clear()
        elif op is JournalOp.LOAD:
            self._store.bulk_install(value)

    def install_snapshot(self, state: HybridExport, sequence: int) -> None:
        """Replace the replica wholesale (catch-up past compaction).

        An export owns every object and array it carries (the primary
        exports once per follower), so the replica adopts them outright
        — the O(bytes) transfer path, with no second deep copy.
        """
        self._store = HybridStore(self.value_policy)
        self._store.load_export(state, copy_objects=False)
        self.applied_sequence = sequence
        self.snapshot_transfers += 1

    def lag(self, journal_head: int) -> int:
        """Records the primary has journaled that this replica lacks."""
        return max(0, journal_head - self.applied_sequence)

    def reset(self) -> None:
        """Drop all replica state (the hosting node lost its memory).

        The replica restarts from sequence 0; the next shipping round
        either replays the whole journal or, when the journal has been
        compacted past 0, falls back to a snapshot transfer.
        """
        self._store = HybridStore(self.value_policy)
        self.applied_sequence = 0

    # -- promoted serving ----------------------------------------------------

    def promote(self, journal_head: int) -> int:
        """Become the serving copy; returns the frozen staleness bound."""
        self.promotion_lag = self.lag(journal_head)
        self.promoted = True
        return self.promotion_lag

    def demote(self) -> None:
        """Stop serving (the real primary recovered)."""
        self.promoted = False
        self.promotion_lag = 0

    # -- mapping reads (used by the failover view) ---------------------------

    def get(self, key: object) -> tuple[object, int] | None:
        """``(raw value, version)`` or None — the shipped view of the
        key (slab-resident entries come back as SlabRow wrappers; the
        partition in front decodes them)."""
        return self._store.get(key)

    def keys(self) -> Iterator[object]:
        return iter(self._store.keys())

    def items(self) -> Iterator[tuple[object, object]]:
        return iter(self._store.items_raw())

    def local_put(self, key: object, raw: object) -> int:
        """Apply a failover-era write locally; returns the new version."""
        version = self._store.version(key) + 1
        self._store.set(key, raw, version)
        return version

    def local_install(self, key: object, raw: object, version: int) -> None:
        """Apply a failover-era install at an explicit version."""
        self._store.set(key, raw, version)

    def local_delete(self, key: object) -> bool:
        """Apply a failover-era delete locally."""
        return self._store.delete(key)

    def local_truncate(self) -> None:
        """Apply a failover-era truncate locally."""
        self._store.clear()


class PromotedPartitionView:
    """The failover delegate a failed :class:`~repro.store.Partition`
    routes its operations through.

    Reads serve the promoted replica's shipped state. Writes journal to
    the *durable* journal first (it survives node loss — the Tachyon
    lineage tier), then apply to the replica, so a later ``recover()``
    of the real partition replays failover-era writes after the
    unshipped tail and every copy reconverges. Domain values are routed
    through the table's storage policy exactly as the primary would, so
    journal records written during failover replay identically.
    """

    def __init__(self, replica: PartitionReplica, journal):
        if not replica.promoted:
            raise ReplicationError(
                f"replica of {replica.table_name}[{replica.partition_index}] "
                "must be promoted before serving"
            )
        self.replica = replica
        self._journal = journal

    def get(self, key: object) -> tuple[object, int] | None:
        return self.replica.get(key)

    def __contains__(self, key: object) -> bool:
        return key in self.replica

    def __len__(self) -> int:
        return len(self.replica)

    def keys(self) -> Iterator[object]:
        return self.replica.keys()

    def items(self) -> Iterator[tuple[object, object]]:
        return self.replica.items()

    @property
    def store(self) -> HybridStore:
        """The promoted replica's store; weight reads go straight to it."""
        return self.replica.store

    def put(self, key: object, value: object) -> int:
        stored = self.replica.store.route(key, value)
        version = self.replica.local_put(key, stored)
        self._journal.append(JournalOp.PUT, key, _wire_copy(stored), version)
        return version

    def install(self, key: object, value: object, version: int) -> None:
        if version < 1:
            raise ValueError(f"version must be >= 1, got {version}")
        stored = self.replica.store.route(key, value)
        self.replica.local_install(key, _wire_copy(stored), version)
        self._journal.append(JournalOp.PUT, key, _wire_copy(stored), version)

    def delete(self, key: object) -> bool:
        existed = self.replica.local_delete(key)
        if existed:
            self._journal.append(JournalOp.DELETE, key, None, 0)
        return existed

    def truncate(self) -> None:
        self.replica.local_truncate()
        self._journal.append(JournalOp.TRUNCATE, None, None, 0)
