"""A single partition of a veloxstore table: hybrid state + journal + snapshot.

Partitions are the unit of placement (the cluster assigns partitions to
nodes) and the unit of failure/recovery. ``fail()`` drops the volatile
state, modeling a node losing its memory; ``recover()`` rebuilds it from
the last snapshot plus journal replay — the Tachyon lineage story.

Physical storage is a :class:`~repro.store.slab.HybridStore`: tables
that declare a :class:`~repro.store.slab.SlabPolicy` keep fixed-rank
vector values in one contiguous columnar array per partition (row
reads/writes, fancy-index gathers, O(bytes) snapshot copies) while
everything else stays in a plain dict. Policy-less tables keep every
value in that dict and export the same
:class:`~repro.store.slab.HybridExport` (with ``slab=None``).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.errors import PartitionError
from repro.store.journal import Journal, JournalOp
from repro.store.slab import (
    HybridExport,
    HybridStore,
    SlabPolicy,
    SlabRow,
    SlabSnapshot,
    WeightRead,
)


class Partition:
    """In-memory state for one shard of a table.

    Values are stored alongside a per-key integer version that starts at 1
    and increments on every overwrite. Deletes remove the key entirely;
    re-inserting restarts its version at 1 (versions are per-incarnation,
    like Tachyon block generations).
    """

    def __init__(self, index: int, value_policy: SlabPolicy | None = None):
        if index < 0:
            raise ValueError(f"partition index must be >= 0, got {index}")
        self.index = index
        self.value_policy = value_policy
        self._store = HybridStore(value_policy)
        self._journal = Journal()
        self._snapshot = None  # HybridExport
        self._snapshot_sequence = 0
        self._failed = False
        #: failover delegate (duck-typed like this partition's mapping
        #: surface, but trafficking in *raw* values — SlabRow wrappers
        #: for slab-resident entries — plus the ``store`` weight reads
        #: use). When set on a *failed* partition,
        #: reads and writes route through it instead of raising — the
        #: replication layer installs a promoted follower replica here
        #: so serving survives the owner node's loss.
        self.failover = None
        #: optional callable(partition) fired after every journaled
        #: mutation; the replication layer uses it to bound replica lag.
        self.on_mutate = None

    # -- basic state ---------------------------------------------------

    def __len__(self) -> int:
        delegate = self._delegate()
        if delegate is not None:
            return len(delegate)
        self._check_alive()
        return len(self._store)

    def __contains__(self, key: object) -> bool:
        delegate = self._delegate()
        if delegate is not None:
            return key in delegate
        self._check_alive()
        return key in self._store

    @property
    def failed(self) -> bool:
        """Whether this partition has lost its volatile state."""
        return self._failed

    @property
    def journal(self) -> Journal:
        """The durable journal (survives :meth:`fail`; the lineage tier)."""
        return self._journal

    @property
    def journal_length(self) -> int:
        """Total records ever appended to the journal."""
        return len(self._journal)

    def _delegate(self):
        """The failover target serving this partition, when failed."""
        if self._failed and self.failover is not None:
            return self.failover
        return None

    def _check_alive(self) -> None:
        if self._failed:
            raise PartitionError(
                f"partition {self.index} is failed; call recover() first"
            )

    def _mutated(self) -> None:
        if self.on_mutate is not None:
            self.on_mutate(self)

    # -- value presentation ----------------------------------------------

    def _present(self, entry):
        """Decode a raw ``(value, version)`` entry for callers."""
        if entry is None:
            return None
        value, version = entry
        if isinstance(value, SlabRow):
            return self.value_policy.decode(value.vector), version
        return entry

    def _present_value(self, value):
        if isinstance(value, SlabRow):
            return self.value_policy.decode(value.vector)
        return value

    # -- reads ----------------------------------------------------------

    def get(self, key: object) -> tuple[object, int] | None:
        """Return ``(value, version)`` or ``None`` when absent."""
        delegate = self._delegate()
        if delegate is not None:
            return self._present(delegate.get(key))
        self._check_alive()
        return self._present(self._store.get(key))

    def keys(self) -> Iterator[object]:
        """Snapshot of the partition's keys."""
        delegate = self._delegate()
        if delegate is not None:
            return delegate.keys()
        self._check_alive()
        return iter(self._store.keys())

    def items(self) -> Iterator[tuple[object, object]]:
        """Iterate ``(key, value)`` pairs (versions stripped).

        The pairs are a consistent snapshot: the slab side is copied
        columnar before anything is yielded, so concurrent mutation
        (including free-list reuse of deleted rows) cannot alter or
        reorder entries mid-iteration.
        """
        delegate = self._delegate()
        if delegate is not None:
            return iter(
                [(k, self._present_value(v)) for k, v in delegate.items()]
            )
        self._check_alive()
        return iter(
            [(k, self._present_value(v)) for k, v in self._store.items_raw()]
        )

    def _weight_store(self) -> HybridStore:
        """The store the weight reads go to: this partition's own, or,
        while failed, the promoted follower's."""
        delegate = self._delegate()
        if delegate is not None:
            return delegate.store
        self._check_alive()
        return self._store

    def read_serving(self, key: object) -> WeightRead | None:
        """Fast-path weight read: the raw row plus a state shim, with no
        per-read decode. Requires a value policy."""
        return self._weight_store().read_weights(key)

    def read_serving_many(self, keys: list) -> dict:
        """Fast-path batch read: one fancy-index gather over the slab-
        resident subset of ``keys``."""
        return self._weight_store().read_weights_many(keys)

    def export_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, matrix)`` copies of every entry's weight row — the
        offline phase's bulk read. Requires a value policy."""
        return self._weight_store().export_weights()

    def weight_sum(self, dimension: int) -> tuple[np.ndarray, int]:
        """``(column sum, count)`` of the weight rows of ``dimension``
        entries, read in place. Requires a value policy."""
        return self._weight_store().weight_sum(dimension)

    def memory_bytes(self) -> int:
        """Approximate resident bytes of this partition's live state."""
        self._check_alive()
        return self._store.memory_bytes()

    # -- writes (journaled) ----------------------------------------------

    def put(self, key: object, value: object) -> int:
        """Insert or overwrite; returns the new per-key version."""
        delegate = self._delegate()
        if delegate is not None:
            return delegate.put(key, value)
        self._check_alive()
        stored = self._store.route(key, value)
        version = self._store.version(key) + 1
        self._journal.append(JournalOp.PUT, key, stored, version)
        self._store.set(key, stored, version)
        self._mutated()
        return version

    def install(self, key: object, value: object, version: int) -> None:
        """Install an entry at an explicit version (checkpoint restore).

        Journaled as a single PUT carrying the version, so recovery
        replay reproduces it exactly without replaying the key's
        pre-checkpoint history.
        """
        if version < 1:
            raise ValueError(f"version must be >= 1, got {version}")
        delegate = self._delegate()
        if delegate is not None:
            delegate.install(key, value, version)
            return
        self._check_alive()
        stored = self._store.route(key, value)
        self._journal.append(JournalOp.PUT, key, stored, version)
        self._store.set(key, stored, version)
        self._mutated()

    def load_rows(self, keys, matrix) -> None:
        """Bulk-install slab rows as ONE journal record.

        ``keys``/``matrix`` land at version ``current + 1`` per key
        (retrain swap semantics). They are handed over, not copied: they
        become the record's (and, into an empty slab, the live) arrays.
        """
        delegate = self._delegate()
        if delegate is not None:
            for key, row in zip(np.asarray(keys), np.asarray(matrix)):
                self.install(
                    int(key),
                    self.value_policy.decode(row),
                    self._store_version_via(delegate, int(key)) + 1,
                )
            return
        self._check_alive()
        snapshot = self._store.prepare_bulk(keys, matrix)
        self._journal.append(JournalOp.LOAD, None, snapshot, 0)
        self._store.bulk_install(snapshot)
        self._mutated()

    @staticmethod
    def _store_version_via(delegate, key: object) -> int:
        entry = delegate.get(key)
        return 0 if entry is None else entry[1]

    def restore_slab(self, keys, rows, versions,
                     live_rows: np.ndarray | None = None) -> None:
        """Bulk-install slab rows at explicit versions (checkpoint restore).

        Journaled as one LOAD record. With ``live_rows`` (a second,
        copy-on-write mapping of the same data) and an empty partition,
        the arrays are adopted as the live slab without copying — the
        memory-mapped load-not-parse path; the journal keeps the
        read-only ``rows`` mapping for replay. ``keys`` are handed over:
        the record and the slab's key column share them.
        """
        self._check_alive()
        keys = np.asarray(keys, dtype=np.int64).view()
        keys.flags.writeable = False
        snapshot = SlabSnapshot(
            keys=keys,
            rows=rows,
            versions=np.asarray(versions, dtype=np.int64),
        )
        self._journal.append(JournalOp.LOAD, None, snapshot, 0)
        if live_rows is not None and len(self._store) == 0:
            self._store.slab.adopt(snapshot.keys, live_rows, snapshot.versions)
        else:
            self._store.bulk_install(snapshot)
        self._mutated()

    def delete(self, key: object) -> bool:
        """Remove a key; returns whether it existed."""
        delegate = self._delegate()
        if delegate is not None:
            return delegate.delete(key)
        self._check_alive()
        if key not in self._store:
            return False
        self._journal.append(JournalOp.DELETE, key, None, 0)
        self._store.delete(key)
        self._mutated()
        return True

    def truncate(self) -> None:
        """Remove every key (journaled as a single record)."""
        delegate = self._delegate()
        if delegate is not None:
            delegate.truncate()
            return
        self._check_alive()
        self._journal.append(JournalOp.TRUNCATE, None, None, 0)
        self._store.clear()
        self._mutated()

    # -- durability & recovery -------------------------------------------

    def snapshot(self) -> None:
        """Checkpoint current state; compacts the journal prefix it covers."""
        self._check_alive()
        self._snapshot = self._store.export_state()
        self._snapshot_sequence = self._journal.next_sequence
        self._journal.compact(self._snapshot_sequence)

    def fail(self) -> None:
        """Simulate loss of volatile memory. Journal and snapshot survive
        (they model durable/lineage state)."""
        self._store = HybridStore(self.value_policy)
        self._failed = True

    def _rebuild_from_journal(self) -> tuple[HybridStore, int]:
        """Reconstruct ``(store, records_replayed)`` from snapshot + journal."""
        store = HybridStore(self.value_policy)
        if self._snapshot is not None:
            store.load_export(self._snapshot, copy_objects=True)
        replayed = 0
        for record in self._journal.replay(self._snapshot_sequence):
            replayed += 1
            if record.op is JournalOp.PUT:
                store.set(record.key, record.value, record.version)
            elif record.op is JournalOp.DELETE:
                store.delete(record.key)
            elif record.op is JournalOp.TRUNCATE:
                store.clear()
            elif record.op is JournalOp.LOAD:
                store.bulk_install(record.value)
        return store, replayed

    def recover(self) -> int:
        """Rebuild state from snapshot + journal replay.

        Returns the number of journal records replayed. Idempotent on a
        healthy partition (replaying a journal over its own snapshot-plus-
        suffix state reproduces the same store).
        """
        self._store, replayed = self._rebuild_from_journal()
        self._failed = False
        return replayed

    def export_state(self) -> tuple[HybridExport, int]:
        """A ``(state, sequence)`` copy for replica snapshot transfer.

        The state is a :class:`~repro.store.slab.HybridExport`: objects
        deep-copied, the columnar side (``None`` without a policy) an
        O(bytes) array copy the receiver may adopt outright — every
        buffer is owned by the export.

        Valid even while failed: the durable snapshot + journal are
        replayed without reviving the partition, so a follower that fell
        behind the compaction horizon can still be caught up.
        """
        if not self._failed:
            return self._store.export_state(), self._journal.next_sequence
        store, _ = self._rebuild_from_journal()
        return store.export_state(), self._journal.next_sequence
