"""A partitioned, versioned table in veloxstore.

Tables shard keys across :class:`~repro.store.partition.Partition` objects
using a stable hash, expose mapping-style reads and writes, optimistic
compare-and-set, and the failure/recovery hooks the cluster simulator uses
to model node loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.common.errors import KeyNotFoundError, PartitionError, VersionConflictError
from repro.common.rng import stable_hash
from repro.store.partition import Partition
from repro.store.slab import ArrayMapping, SlabPolicy, WeightRead


@dataclass(frozen=True)
class VersionedValue:
    """A read result carrying the per-key version for CAS round-trips."""

    value: object
    version: int


class Table:
    """A named collection of partitions with per-key versions.

    Partitioning is by ``stable_hash(key) % num_partitions`` unless a
    custom ``partitioner`` is supplied (the user-weight table, for
    example, partitions by ``uid`` directly so routing stays aligned
    with the cluster's user placement).
    """

    def __init__(
        self,
        name: str,
        num_partitions: int = 1,
        partitioner: Callable[[object], int] | None = None,
        value_policy: SlabPolicy | None = None,
    ):
        if not name:
            raise ValueError("table name must be non-empty")
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self.name = name
        self.num_partitions = num_partitions
        self._partitioner = partitioner
        #: storage policy routing fixed-rank vector values into the
        #: columnar slab (None keeps the classic dict-only partitions).
        self.value_policy = value_policy
        self._partitions = [
            Partition(i, value_policy=value_policy) for i in range(num_partitions)
        ]

    # -- partition addressing ---------------------------------------------

    def partition_index(self, key: object) -> int:
        """The partition that owns ``key``."""
        if self._partitioner is not None:
            index = self._partitioner(key)
            if not 0 <= index < self.num_partitions:
                raise PartitionError(
                    f"custom partitioner returned {index} for key {key!r}; "
                    f"table {self.name!r} has {self.num_partitions} partitions"
                )
            return index
        return stable_hash(key) % self.num_partitions

    def partition(self, index: int) -> Partition:
        """The partition object at ``index``."""
        if not 0 <= index < self.num_partitions:
            raise PartitionError(
                f"table {self.name!r} has no partition {index}"
            )
        return self._partitions[index]

    def _owner(self, key: object) -> Partition:
        return self._partitions[self.partition_index(key)]

    # -- reads --------------------------------------------------------------

    def get(self, key: object) -> object:
        """Return the value for ``key`` or raise :class:`KeyNotFoundError`."""
        entry = self._owner(key).get(key)
        if entry is None:
            raise KeyNotFoundError(self.name, key)
        return entry[0]

    def get_versioned(self, key: object) -> VersionedValue:
        """Read ``(value, version)`` for compare-and-set round-trips."""
        entry = self._owner(key).get(key)
        if entry is None:
            raise KeyNotFoundError(self.name, key)
        return VersionedValue(value=entry[0], version=entry[1])

    def get_or_default(self, key: object, default: object = None) -> object:
        """Read a value, returning ``default`` when absent."""
        entry = self._owner(key).get(key)
        return default if entry is None else entry[0]

    def __getitem__(self, key: object) -> object:
        return self.get(key)

    def __contains__(self, key: object) -> bool:
        return key in self._owner(key)

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions)

    def keys(self) -> Iterator[object]:
        """Iterate every key across partitions."""
        for partition in self._partitions:
            yield from partition.keys()

    def items(self) -> Iterator[tuple[object, object]]:
        """Iterate every (key, value) pair across partitions."""
        for partition in self._partitions:
            yield from partition.items()

    def scan_partition(self, index: int) -> list[tuple[object, object]]:
        """All items in one partition — the unit batch jobs read."""
        return list(self.partition(index).items())

    # -- fast weight reads (slab-backed tables) ------------------------------

    def read_weights(self, key: object) -> WeightRead | None:
        """Fast-path serving read: ``(weight row, state shim)`` with no
        per-read value decode. Requires a ``value_policy``."""
        return self._owner(key).read_serving(key)

    def read_weights_batch(self, keys) -> dict:
        """Fast-path batch read: one fancy-index gather per partition
        over the slab-resident subset of ``keys``."""
        groups: dict[int, list] = {}
        for key in keys:
            groups.setdefault(self.partition_index(key), []).append(key)
        out: dict = {}
        for index, group in groups.items():
            out.update(self._partitions[index].read_serving_many(group))
        return out

    def export_weight_matrix(self) -> ArrayMapping:
        """Every entry's weight row as one ``ArrayMapping`` — the bulk
        columnar read the offline phase consumes. Requires a
        ``value_policy``."""
        if self.value_policy is None:
            raise PartitionError(
                f"table {self.name!r} has no value policy; "
                "export_weight_matrix needs slab-backed storage"
            )
        key_parts, row_parts = [], []
        for partition in self._partitions:
            keys, rows = partition.export_weights()
            if len(keys):
                key_parts.append(keys)
                row_parts.append(rows)
        if not key_parts:
            return ArrayMapping(
                np.empty(0, dtype=np.int64),
                np.empty((0, self.value_policy.rank), dtype=self.value_policy.dtype),
            )
        return ArrayMapping(np.concatenate(key_parts), np.concatenate(row_parts))

    def weight_sum(self, dimension: int) -> tuple[np.ndarray, int]:
        """``(column sum, count)`` of every entry's weight row that has
        ``dimension`` entries — one in-place pass, no exported copy.
        Requires a ``value_policy``."""
        totals, counts = zip(*(p.weight_sum(dimension) for p in self._partitions))
        return np.sum(totals, axis=0), sum(counts)

    def load_weight_rows(self, keys, matrix) -> int:
        """Bulk-install weight rows (one journaled LOAD per partition).

        Each key lands at its current version + 1 — the retrain swap
        path. The weights are copied once: one stable sort by owning
        partition and one gather, whose per-partition slices become the
        partitions' LOAD rows (the caller's arrays stay the caller's).
        Owners come from one columnar pass when the partitioner has
        ``partition_many``; a plain callable is asked once per key.
        Returns the number of rows installed.
        """
        if self.value_policy is None:
            raise PartitionError(
                f"table {self.name!r} has no value policy; "
                "load_weight_rows needs slab-backed storage"
            )
        dtype = self.value_policy.dtype
        keys = np.asarray(keys, dtype=np.int64)
        matrix = np.asarray(matrix)
        if self.num_partitions == 1:
            self._partitions[0].load_rows(keys.copy(), matrix.astype(dtype))
            return len(keys)
        partition_many = getattr(self._partitioner, "partition_many", None)
        if partition_many is None:
            owners = np.fromiter(
                (self.partition_index(k) for k in keys.tolist()),
                dtype=np.intp, count=len(keys),
            )
        else:
            owners = partition_many(keys)
            if len(owners) and not (
                0 <= owners.min() and owners.max() < self.num_partitions
            ):
                raise PartitionError(
                    f"partitioner returned indices outside [0, "
                    f"{self.num_partitions}) for table {self.name!r}"
                )
        order = np.argsort(owners, kind="stable")
        keys = keys[order]
        matrix = matrix[order].astype(dtype, copy=False)
        ends = np.cumsum(np.bincount(owners, minlength=self.num_partitions))
        start = 0
        for partition, end in zip(self._partitions, ends.tolist()):
            if end > start:
                partition.load_rows(keys[start:end], matrix[start:end])
            start = end
        return len(keys)

    def memory_bytes(self) -> int:
        """Approximate resident bytes across partitions."""
        return sum(p.memory_bytes() for p in self._partitions)

    # -- writes ---------------------------------------------------------------

    def put(self, key: object, value: object) -> int:
        """Insert/overwrite; returns the new version."""
        return self._owner(key).put(key, value)

    def __setitem__(self, key: object, value: object) -> None:
        self.put(key, value)

    def put_many(self, entries) -> int:
        """Write ``(key, value)`` pairs; returns count written.

        Writes are applied per-partition in key order; each write is
        individually journaled (no cross-partition atomicity, matching
        the storage layer Velox assumes).
        """
        count = 0
        for key, value in entries:
            self.put(key, value)
            count += 1
        return count

    def compare_and_set(self, key: object, value: object, expected_version: int) -> int:
        """Write only if the current version matches ``expected_version``.

        ``expected_version=0`` asserts the key is absent. Returns the new
        version, or raises :class:`VersionConflictError`.
        """
        partition = self._owner(key)
        entry = partition.get(key)
        actual = 0 if entry is None else entry[1]
        if actual != expected_version:
            raise VersionConflictError(self.name, key, expected_version, actual)
        return partition.put(key, value)

    def delete(self, key: object) -> bool:
        """Remove a key; returns whether it existed."""
        return self._owner(key).delete(key)

    def truncate(self) -> None:
        """Remove every key from every partition."""
        for partition in self._partitions:
            partition.truncate()

    # -- durability & failure -----------------------------------------------

    def snapshot(self) -> None:
        """Checkpoint every partition (compacting journals)."""
        for partition in self._partitions:
            partition.snapshot()

    def fail_partition(self, index: int) -> None:
        """Simulate losing one partition's volatile memory."""
        self.partition(index).fail()

    def recover_partition(self, index: int) -> int:
        """Recover one failed partition; returns journal records replayed."""
        return self.partition(index).recover()

    def recover_all(self) -> int:
        """Recover every failed partition; returns records replayed."""
        return sum(p.recover() for p in self._partitions if p.failed)
