"""Partitioners: deterministic key → partition maps.

The user-weight table W is partitioned by uid (paper Section 5) so the
router and the storage layer agree on placement; item-feature tables are
hash-partitioned. All partitioners are pure functions of the key, so a
partition map never needs to be communicated.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod

import numpy as np

from repro.common.errors import PartitionError
from repro.common.rng import stable_hash


class Partitioner(ABC):
    """Maps keys into ``num_partitions`` buckets."""

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise PartitionError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        self.num_partitions = num_partitions

    @abstractmethod
    def partition(self, key: object) -> int:
        """The partition index owning ``key`` (in ``[0, num_partitions)``)."""

    def partition_many(self, keys) -> np.ndarray:
        """The partition index of every key, as an ``intp`` array.

        The base class asks :meth:`partition` once per key (an ndarray's
        elements are passed as Python scalars); subclasses with a
        columnar form override it.
        """
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        return np.fromiter(
            map(self.partition, keys), dtype=np.intp, count=len(keys)
        )

    def __call__(self, key: object) -> int:
        return self.partition(key)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))


class HashPartitioner(Partitioner):
    """Stable-hash partitioning; the default for item/feature tables."""

    def partition(self, key: object) -> int:
        """The partition index owning ``key``."""
        return stable_hash(key) % self.num_partitions


class ModuloPartitioner(Partitioner):
    """Integer modulo partitioning; the default for uid-keyed tables.

    Keeps placement transparent (uid 17 on a 4-node cluster lives on
    node 1) which makes locality assertions in tests trivial.
    """

    def partition(self, key: object) -> int:
        """The partition index owning ``key``."""
        if not isinstance(key, int):
            raise PartitionError(
                f"ModuloPartitioner requires integer keys, got {key!r}"
            )
        return key % self.num_partitions

    def partition_many(self, keys) -> np.ndarray:
        """``keys % num_partitions`` in one numpy op."""
        keys = np.asarray(keys)
        if len(keys) and keys.dtype.kind not in "iu":
            raise PartitionError(
                f"ModuloPartitioner requires integer keys, got dtype {keys.dtype}"
            )
        return (keys % self.num_partitions).astype(np.intp, copy=False)


class RangePartitioner(Partitioner):
    """Partition by sorted boundary list: bucket i holds keys in
    ``(boundaries[i-1], boundaries[i]]`` with open ends."""

    def __init__(self, boundaries: list):
        super().__init__(len(boundaries) + 1)
        ordered = list(boundaries)
        if ordered != sorted(ordered):
            raise PartitionError(f"boundaries must be sorted, got {boundaries!r}")
        self.boundaries = ordered

    def partition(self, key: object) -> int:
        """The partition index owning ``key``."""
        return bisect.bisect_left(self.boundaries, key)
