"""Columnar slab storage: contiguous numpy partitions for vector values.

The paper's latency story (Section 3) needs user-weight lookups to be
memory-speed, but a dict of boxed per-user objects pays pointer-chasing,
allocator, and per-object header costs on every read, gather, and
snapshot copy. This module stores fixed-rank float vectors columnar
instead: each partition owns one contiguous ``(capacity, rank)`` array
plus a ``key -> row`` index and a free list with amortized-doubling
growth, so

* ``get``/``put`` are row reads/writes into one big array,
* multi-key reads are a single fancy-index gather,
* snapshot export/install is an O(bytes) array copy, and
* per-entry resident memory is ``rank * itemsize`` plus a version, and
  for rows installed in bulk a key-column entry and a live flag.

Rows that arrive in bulk (``adopt``, ``load(replace=True)``) are found
through a :class:`KeyColumn` — sorted int64 keys, binary-searched — so
a pristine user costs no Python object; only keys inserted one at a
time afterwards go in a dict.

Not every value is a fixed-rank vector, so the slab always rides behind
a :class:`HybridStore`: a :class:`SlabPolicy` decides per value whether
it encodes to a slab row (optionally through a lossless codec — see
``UserStateCodec`` in :mod:`repro.core.online`) or stays a dict-resident
object. Rich values that stop being encodable (a user state once it has
online-learning history) migrate to the dict path transparently, and
collapse back into the slab at the next offline swap.
"""

from __future__ import annotations

import copy
import sys
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

#: Starting row capacity of an empty slab (doubles as it fills).
INITIAL_CAPACITY = 8

#: Bytes of one int object of up to 30 bits (an index key or row).
_INT_OBJECT_BYTES = sys.getsizeof(1 << 20)


class SlabRow(NamedTuple):
    """A slab-encoded value as it appears in journals and on the wire.

    Wrapping the row vector (instead of journaling a bare ndarray) makes
    replay routing unambiguous: a ``SlabRow`` always re-enters the slab,
    while an ndarray that happens to have the right shape but was stored
    as an opaque object value stays on the dict path.
    """

    vector: np.ndarray


class WeightRead(NamedTuple):
    """One fast-path read: the raw weight row plus a state-like object.

    ``state`` is the dict-resident value itself when the key lives on
    the object path, the policy's shared serving shim for slab rows, or
    ``None`` for raw-vector tables (no codec).
    """

    weights: np.ndarray
    state: object


@dataclass
class SlabSnapshot:
    """A consistent columnar copy of a slab: parallel arrays sorted by key."""

    keys: np.ndarray  # (n,) int64
    rows: np.ndarray  # (n, rank)
    versions: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        """Payload size — what a snapshot transfer actually ships."""
        return self.keys.nbytes + self.rows.nbytes + self.versions.nbytes

    def equals(self, other: "SlabSnapshot") -> bool:
        """Bitwise equality of the exported entries."""
        return (
            np.array_equal(self.keys, other.keys)
            and np.array_equal(self.versions, other.versions)
            and np.array_equal(self.rows, other.rows)
        )

    @classmethod
    def empty(cls, rank: int, dtype=np.float64) -> "SlabSnapshot":
        return cls(
            keys=np.empty(0, dtype=np.int64),
            rows=np.empty((0, rank), dtype=dtype),
            versions=np.empty(0, dtype=np.int64),
        )


@dataclass
class HybridExport:
    """The one ``export_state`` payload, for every partition.

    The columnar snapshot carries every slab-resident entry (``None``
    for a policy-less store, which has no slab); ``objects`` carries
    the dict-resident remainder as ``{key: (value, version)}``.
    Every array and object in an export is an owned copy, so installing
    one on a replica is an ownership transfer, not another deep copy.
    """

    slab: SlabSnapshot | None
    objects: dict


class SlabPolicy:
    """Per-table storage policy: which values become slab rows.

    A table declares a fixed ``rank`` (row width) and float ``dtype``;
    values encode to rows either directly (bare ``(rank,)`` ndarrays of
    the declared dtype) or through an optional ``codec`` object with
    ``encode(value) -> ndarray | None`` / ``decode(vector) -> value``
    (plus ``weights_of``/``serving_state`` for the fast read path).
    ``encode`` returning ``None`` routes the value to the dict path.
    """

    def __init__(self, rank: int, dtype=np.float64, codec=None):
        if rank < 1:
            raise ValueError(f"slab rank must be >= 1, got {rank}")
        self.rank = int(rank)
        self.dtype = np.dtype(dtype)
        self.codec = codec

    def encode(self, key: object, value: object) -> np.ndarray | None:
        """An owned, read-only row for ``(key, value)`` — or ``None``
        to keep the value on the dict path (slab keys must be ints)."""
        if not isinstance(key, (int, np.integer)):
            return None
        if self.codec is not None:
            vector = self.codec.encode(value)
        elif isinstance(value, np.ndarray):
            vector = value
        else:
            vector = None
        if vector is None:
            return None
        vector = np.asarray(vector)
        if vector.shape != (self.rank,) or vector.dtype != self.dtype:
            return None
        row = np.array(vector, dtype=self.dtype)
        row.flags.writeable = False
        return row

    def decode(self, vector: np.ndarray) -> object:
        """The value a slab row presents as. Codec-less tables present
        the row itself (a read-only view — zero-copy reads are the
        point); codecs reconstruct the original rich value."""
        if self.codec is not None:
            return self.codec.decode(vector)
        return vector

    def serving_state(self) -> object:
        """The shared state shim returned by fast reads of slab rows."""
        if self.codec is not None:
            return self.codec.serving_state()
        return None

    def object_weights(self, value: object) -> np.ndarray | None:
        """The weight row of a dict-resident value, for fast reads."""
        if self.codec is not None:
            return self.codec.weights_of(value)
        return value if isinstance(value, np.ndarray) else None

    def manifest_info(self) -> dict:
        """JSON-serializable description for checkpoint manifests."""
        info = {"rank": self.rank, "dtype": self.dtype.str}
        if self.codec is not None and hasattr(self.codec, "manifest_info"):
            info["codec"] = self.codec.manifest_info()
        return info


class KeyColumn:
    """The index of rows a slab received in bulk: no object per key.

    A key-sorted ``int64`` column, a parallel live flag (deletes clear
    it; the entry stays), and the row of each entry — ``None`` when the
    staged rows were already key-sorted, so entry ``i`` is row ``i``.
    One key is a binary search over a memoryview of the column (Python
    ints, no numpy scalar per probe); a batch is one ``np.searchsorted``.

    The column is immutable once built: a key re-inserted after its
    delete goes to the slab's dict overlay, never back in here, so a
    reader that holds one ``KeyColumn`` sees a consistent index.
    """

    __slots__ = ("keys", "positions", "live", "count", "_key_view",
                 "_position_view", "_live_view")

    def __init__(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        positions = None
        if len(keys) > 1 and (keys[1:] < keys[:-1]).any():
            positions = np.argsort(keys, kind="stable")
            keys = keys[positions]
        elif keys.flags.writeable:
            # Read-only keys are a staged record's own (shared, never
            # written); anything else might be written by its owner.
            keys = keys.copy()
        keys.flags.writeable = False
        self.keys = keys
        self.positions = positions
        self.live = np.ones(len(keys), dtype=bool)
        self.count = len(keys)
        self._key_view = memoryview(keys)
        self._position_view = None if positions is None else memoryview(positions)
        self._live_view = memoryview(self.live)

    def _entry(self, key) -> int | None:
        """The column entry of a live key, or None."""
        keys = self._key_view
        try:
            i = bisect_left(keys, key)
        except TypeError:  # not comparable with an int: never a slab key
            return None
        if i == len(keys) or keys[i] != key or not self._live_view[i]:
            return None
        return i

    def row(self, key) -> int | None:
        """The row of a live key, or None."""
        i = self._entry(key)
        if i is None or self._position_view is None:
            return i
        return self._position_view[i]

    def rows_of(self, probe: np.ndarray) -> np.ndarray:
        """The row of every ``int64`` probe key, ``-1`` when absent."""
        keys = self.keys
        entries = keys.searchsorted(probe)
        hit = keys.take(entries, mode="clip") == probe
        if self.count < len(keys):
            hit &= self.live.take(entries, mode="clip")
        if self.positions is not None:
            entries = self.positions.take(entries, mode="clip")
        return np.where(hit, entries, -1)

    def remove(self, key) -> int | None:
        """Clear a live key's flag; its row, or None when absent."""
        i = self._entry(key)
        if i is None:
            return None
        self.live[i] = False
        self.count -= 1
        return i if self._position_view is None else self._position_view[i]

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, rows)`` of the live entries, key-sorted."""
        live = self.live
        rows = (np.arange(len(live)) if self.positions is None
                else self.positions)
        if self.count == len(live):
            return self.keys, rows
        return self.keys[live], rows[live]

    def keys_by_row(self) -> np.ndarray:
        """The live keys in row (staging) order."""
        if self.positions is None:
            return self.keys[self.live]
        keys = np.empty_like(self.keys)
        keys[self.positions] = self.keys
        live = np.empty_like(self.live)
        live[self.positions] = self.live
        return keys[live]

    @property
    def nbytes(self) -> int:
        total = self.keys.nbytes + self.live.nbytes
        return total if self.positions is None else total + self.positions.nbytes


class SlabStorage:
    """One partition's columnar store: rows + index + free list.

    Rows live in a single ``(capacity, rank)`` array that doubles when
    full (amortized O(1) growth); per-row versions live in a parallel
    int64 array. Deleted rows go on a LIFO free list and are reused by
    later inserts. Keys are ints.

    The index has two parts. Rows installed in bulk (``adopt``,
    ``load(replace=True)``) are found through a :class:`KeyColumn`;
    keys inserted one at a time afterwards (``set_at`` of a new key,
    the merge's fresh keys) go in the ``_index`` dict. A key lives in
    at most one of them. Lock-free readers read each field once.

    The row array may be a read-only array the slab shares (a journal
    ``LOAD`` record it adopted): every row write first copies it.
    """

    __slots__ = ("rank", "dtype", "_rows", "_versions", "_index", "_bulk",
                 "_free", "_high")

    def __init__(self, rank: int, dtype=np.float64,
                 initial_capacity: int = INITIAL_CAPACITY):
        self.rank = int(rank)
        self.dtype = np.dtype(dtype)
        capacity = max(1, int(initial_capacity))
        self._rows = np.zeros((capacity, self.rank), dtype=self.dtype)
        self._versions = np.zeros(capacity, dtype=np.int64)
        self._index: dict[int, int] = {}
        self._bulk: KeyColumn | None = None
        self._free: list[int] = []
        self._high = 0  # rows ever allocated; rows >= _high are untouched

    # -- basic state ---------------------------------------------------

    def __len__(self) -> int:
        bulk = self._bulk
        return len(self._index) + (0 if bulk is None else bulk.count)

    def __contains__(self, key: object) -> bool:
        return self.row_of(key) is not None

    @property
    def capacity(self) -> int:
        """Allocated row slots (live + free + never used)."""
        return len(self._rows)

    def row_of(self, key: object) -> int | None:
        """The physical row index for a key, or None."""
        row = self._index.get(key)
        if row is not None:
            return row
        bulk = self._bulk
        return None if bulk is None else bulk.row(key)

    def keys(self) -> list[int]:
        """A snapshot list of live keys (insertion order)."""
        bulk = self._bulk
        overlay = list(self._index)
        if bulk is None:
            return overlay
        return bulk.keys_by_row().tolist() + overlay

    def memory_bytes(self) -> int:
        """Resident bytes: the arrays, the key column, and the overlay
        dict and free list with the int objects they hold."""
        bulk = self._bulk
        boxed = 2 * len(self._index) + len(self._free)
        return (
            self._rows.nbytes
            + self._versions.nbytes
            + (0 if bulk is None else bulk.nbytes)
            + sys.getsizeof(self._index)
            + sys.getsizeof(self._free)
            + boxed * _INT_OBJECT_BYTES
        )

    # -- row allocation ------------------------------------------------

    def _grow(self, minimum: int) -> None:
        """Double capacity (at least to ``minimum``), copying live rows."""
        new_capacity = max(8, self.capacity)
        while new_capacity < minimum:
            new_capacity *= 2
        rows = np.zeros((new_capacity, self.rank), dtype=self.dtype)
        rows[: self._high] = self._rows[: self._high]
        versions = np.zeros(new_capacity, dtype=np.int64)
        versions[: self._high] = self._versions[: self._high]
        self._rows = rows
        self._versions = versions

    def _own_rows(self) -> None:
        """Copy shared read-only rows before the first write into them."""
        if not self._rows.flags.writeable:
            self._rows = np.array(self._rows)

    def _allocate(self, key: int) -> int:
        if self._free:
            row = self._free.pop()
        else:
            if self._high >= self.capacity:
                self._grow(2 * max(1, self.capacity))
            row = self._high
            self._high += 1
        self._index[key] = row
        return row

    # -- point ops -----------------------------------------------------

    def get(self, key: object):
        """``(read-only row view, version)`` or ``None`` when absent."""
        row = self.row_of(key)
        if row is None:
            return None
        view = self._rows[row]
        view.flags.writeable = False
        return view, int(self._versions[row])

    def version(self, key: object) -> int:
        """The key's current version (0 when absent)."""
        row = self.row_of(key)
        return 0 if row is None else int(self._versions[row])

    def set_at(self, key: object, vector: np.ndarray, version: int) -> None:
        """Write a row at an explicit version (install/replay path)."""
        key = int(key)
        row = self.row_of(key)
        if row is None:
            row = self._allocate(key)
        self._own_rows()
        self._rows[row] = vector
        self._versions[row] = version

    def delete(self, key: object) -> bool:
        """Free a key's row (recycled by later inserts)."""
        row = self._index.pop(key, None)
        if row is None:
            bulk = self._bulk
            row = None if bulk is None else bulk.remove(key)
            if row is None:
                return False
        self._versions[row] = 0
        self._free.append(row)
        return True

    def clear(self) -> None:
        """Drop every entry, retaining allocated capacity."""
        self._index.clear()
        self._bulk = None
        self._free.clear()
        self._versions[: self._high] = 0
        self._high = 0

    # -- bulk ops ------------------------------------------------------

    def _positions(self, keys: list) -> np.ndarray:
        """The row of every key (``-1`` when absent), in one pass."""
        n = len(keys)
        index = self._index
        bulk = self._bulk
        positions = None
        if index or bulk is None:
            positions = np.fromiter(
                map(index.get, keys, repeat(-1)), dtype=np.intp, count=n,
            )
        if bulk is None:
            return positions
        try:
            found = bulk.rows_of(np.fromiter(keys, dtype=np.int64, count=n))
        except (TypeError, ValueError, OverflowError):  # a non-int64 key
            found = np.fromiter(
                (-1 if (row := bulk.row(key)) is None else row for key in keys),
                dtype=np.intp, count=n,
            )
        if positions is None:
            return found
        # The two parts hold disjoint keys: at most one of them is >= 0.
        return np.maximum(positions, found, out=positions)

    def gather(self, keys: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One fancy-index read of many keys.

        Returns ``(present_mask, matrix, versions)`` where ``matrix``
        holds the rows of present keys in input order (absent keys are
        skipped; ``matrix`` has ``present_mask.sum()`` rows).
        """
        positions = self._positions(keys)
        present = positions >= 0
        hit = positions[present]
        return present, self._rows[hit], self._versions[hit]

    def export(self) -> SlabSnapshot:
        """A consistent, key-sorted columnar copy of every live entry."""
        if len(self) == 0:
            return SlabSnapshot.empty(self.rank, self.dtype)
        key_parts, row_parts = [], []
        bulk = self._bulk
        if bulk is not None:
            keys, rows = bulk.entries()
            key_parts.append(keys)
            row_parts.append(rows)
        n = len(self._index)
        if n:
            key_parts.append(
                np.fromiter(self._index.keys(), dtype=np.int64, count=n)
            )
            row_parts.append(
                np.fromiter(self._index.values(), dtype=np.intp, count=n)
            )
        keys = np.concatenate(key_parts)
        positions = np.concatenate(row_parts)
        if n:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            positions = positions[order]
        return SlabSnapshot(
            keys=keys,
            rows=self._rows[positions],
            versions=self._versions[positions].copy(),
        )

    def load(self, snapshot: SlabSnapshot, replace: bool) -> None:
        """Install a snapshot: wholesale (``replace``) or merged at the
        snapshot's explicit versions.

        ``replace`` indexes the rows through a :class:`KeyColumn`. The
        merge is columnar: one position lookup, fresh keys take free-list
        rows first (in ``set_at``'s LIFO order) and then one contiguous
        block past ``_high`` after at most one ``_grow``, one fancy-index
        write of rows and versions, one ``_index`` update for the fresh
        keys. Snapshot keys must be unique.
        """
        n = len(snapshot)
        if replace:
            self.clear()
            if n == 0:
                return
            if self.capacity < n:
                self._grow(n)
            self._own_rows()
            self._rows[:n] = snapshot.rows
            self._versions[:n] = snapshot.versions
            self._high = n
            self._bulk = KeyColumn(snapshot.keys)
            return
        keys = snapshot.keys.tolist()
        targets = self._positions(keys)
        fresh = np.flatnonzero(targets < 0)
        if len(fresh):
            reused = min(len(self._free), len(fresh))
            block = len(fresh) - reused
            if self._high + block > self.capacity:
                # The capacity set_at's one-doubling-per-fill would reach.
                self._grow(max(self._high + block, 2 * self.capacity))
            rows = self._free[len(self._free) - reused:][::-1]
            del self._free[len(self._free) - reused:]
            rows.extend(range(self._high, self._high + block))
            self._high += block
            targets[fresh] = rows
            if len(fresh) < n:
                keys = [keys[i] for i in fresh.tolist()]
            self._index.update(zip(keys, rows))
        self._own_rows()
        self._rows[targets] = snapshot.rows
        self._versions[targets] = snapshot.versions

    def adopt(self, keys: np.ndarray, rows: np.ndarray,
              versions: np.ndarray) -> None:
        """Take ownership of prepared arrays as the live slab.

        ``rows`` is used as is, at exact capacity: a bulk install's
        read-only journal record (the first row write copies it), or an
        ``np.load(..., mmap_mode="c")`` array, so recovery maps the file
        instead of copying it and pages materialize copy-on-write as
        rows are read or overwritten. Read-only key-sorted ``keys`` are
        the :class:`KeyColumn` itself; ``versions`` is copied (deletes
        write it). The slab must be empty.
        """
        if len(self):
            raise ValueError("can only adopt arrays into an empty slab")
        n = len(keys)
        if rows.shape != (n, self.rank) or rows.dtype != self.dtype:
            raise ValueError(
                f"adopted rows must be ({n}, {self.rank}) {self.dtype}, "
                f"got {rows.shape} {rows.dtype}"
            )
        self._rows = rows
        self._versions = np.array(versions, dtype=np.int64)
        self._high = n
        self._free = []
        self._bulk = KeyColumn(keys) if n else None

    def row_sum(self) -> np.ndarray:
        """The column sum of every live row, read in place."""
        live = self._rows[: self._high]
        if not self._free:
            return live.sum(axis=0)
        mask = np.ones((self._high, 1), dtype=bool)
        mask[self._free] = False
        return live.sum(axis=0, where=mask)


class HybridStore:
    """``key -> (value, version)`` storage over a slab plus a dict.

    The raw-value layer under :class:`~repro.store.partition.Partition`
    and :class:`~repro.replication.replica.PartitionReplica`: values
    arrive already routed (``SlabRow`` wrappers go columnar, everything
    else is dict-resident) so journal replay, shipping, and snapshot
    install all reproduce the same physical layout on both ends.
    """

    __slots__ = ("policy", "objects", "slab")

    def __init__(self, policy: SlabPolicy | None = None):
        self.policy = policy
        self.objects: dict[object, tuple[object, int]] = {}
        self.slab = (
            SlabStorage(policy.rank, policy.dtype) if policy is not None else None
        )

    # -- basic state ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.objects) + (len(self.slab) if self.slab is not None else 0)

    def __contains__(self, key: object) -> bool:
        if key in self.objects:
            return True
        return self.slab is not None and key in self.slab

    def keys(self) -> list:
        out = list(self.objects)
        if self.slab is not None:
            out.extend(self.slab.keys())
        return out

    def memory_bytes(self) -> int:
        """Approximate resident bytes (slab arrays + container dicts)."""
        total = sys.getsizeof(self.objects)
        if self.slab is not None:
            total += self.slab.memory_bytes()
        return total

    # -- point ops (raw values: SlabRow or object) ---------------------

    def route(self, key: object, value: object) -> object:
        """A domain value as stored: a SlabRow when the policy accepts
        it, the value itself otherwise."""
        if self.policy is not None:
            row = self.policy.encode(key, value)
            if row is not None:
                return SlabRow(row)
        return value

    def get(self, key: object):
        """``(raw value, version)`` — slab hits come back as SlabRow."""
        entry = self.objects.get(key)
        if entry is not None:
            return entry
        if self.slab is None:
            return None
        hit = self.slab.get(key)
        if hit is None:
            return None
        return SlabRow(hit[0]), hit[1]

    def version(self, key: object) -> int:
        entry = self.objects.get(key)
        if entry is not None:
            return entry[1]
        if self.slab is None:
            return 0
        return self.slab.version(key)

    def set(self, key: object, raw: object, version: int) -> None:
        """Install a routed raw value at an explicit version."""
        if isinstance(raw, SlabRow) and self.slab is not None:
            self.objects.pop(key, None)
            self.slab.set_at(key, raw.vector, version)
            return
        if self.slab is not None:
            self.slab.delete(key)
        value = raw.vector if isinstance(raw, SlabRow) else raw
        self.objects[key] = (value, version)

    def delete(self, key: object) -> bool:
        if self.objects.pop(key, None) is not None:
            return True
        return self.slab is not None and self.slab.delete(key)

    def clear(self) -> None:
        self.objects.clear()
        if self.slab is not None:
            self.slab.clear()

    # -- consistent iteration ------------------------------------------

    def items_raw(self) -> list[tuple[object, object]]:
        """A consistent ``(key, raw value)`` snapshot.

        The slab side is exported in one columnar copy before yielding
        anything, so concurrent mutation (including free-list row reuse)
        cannot change entries mid-iteration.
        """
        out = [(key, value) for key, (value, _v) in self.objects.items()]
        if self.slab is not None and len(self.slab):
            snapshot = self.slab.export()
            out.extend(
                (int(key), SlabRow(row))
                for key, row in zip(snapshot.keys, snapshot.rows)
            )
        return out

    # -- fast weight reads ---------------------------------------------

    def read_weights(self, key: object) -> WeightRead | None:
        """One fast read: no decode, no per-key object construction."""
        if self.slab is not None:
            hit = self.slab.get(key)
            if hit is not None:
                return WeightRead(hit[0], self.policy.serving_state())
        entry = self.objects.get(key)
        if entry is None:
            return None
        value = entry[0]
        weights = (
            self.policy.object_weights(value) if self.policy is not None
            else (value if isinstance(value, np.ndarray) else None)
        )
        if weights is None:
            return None
        state = value if (self.policy is not None and self.policy.codec is not None) else None
        return WeightRead(weights, state)

    def read_weights_many(self, keys: list) -> dict:
        """Fast reads for many keys: one fancy-index gather over the
        slab-resident subset, per-key lookups for the dict remainder."""
        out: dict = {}
        if self.slab is not None and len(self.slab):
            present, matrix, _versions = self.slab.gather(keys)
            shim = self.policy.serving_state()
            hit_row = 0
            for i, key in enumerate(keys):
                if present[i]:
                    out[key] = WeightRead(matrix[hit_row], shim)
                    hit_row += 1
        if self.objects:
            for key in keys:
                if key in out:
                    continue
                read = self.read_weights(key)
                if read is not None:
                    out[key] = read
        return out

    # -- bulk install ---------------------------------------------------

    def prepare_bulk(self, keys, matrix) -> SlabSnapshot:
        """Stage a bulk put: take the rows over, compute next versions.

        ``keys`` and ``matrix`` are handed over, not copied: read-only
        views of them become the staged record, so their owner must not
        write them afterwards (``Table.load_weight_rows`` passes slices
        of the one copy it makes). Versions come from one slab position
        lookup (every version is 1 into an empty store, the
        ``add_model`` case); only keys the slab lacks are looked up in
        the object dict. Returns the :class:`SlabSnapshot` to journal
        (one LOAD record); apply it with :meth:`bulk_install`. Keys
        must be unique.
        """
        if self.slab is None:
            raise ValueError("bulk slab loads need a slab-backed store")
        keys = np.asarray(keys, dtype=np.int64).view()
        rows = np.asarray(matrix, dtype=self.slab.dtype).view()
        if rows.shape != (len(keys), self.slab.rank):
            raise ValueError(
                f"bulk rows must be ({len(keys)}, {self.slab.rank}), "
                f"got {rows.shape}"
            )
        versions = np.ones(len(keys), dtype=np.int64)
        if len(self):
            key_list = keys.tolist()
            positions = self.slab._positions(key_list)
            present = positions >= 0
            versions[present] += self.slab._versions[positions[present]]
            if self.objects:
                get = self.objects.get
                for i in np.flatnonzero(~present).tolist():
                    entry = get(key_list[i])
                    if entry is not None:
                        versions[i] += entry[1]
        rows.flags.writeable = False
        keys.flags.writeable = False
        versions.flags.writeable = False
        return SlabSnapshot(keys=keys, rows=rows, versions=versions)

    def bulk_install(self, snapshot: SlabSnapshot) -> None:
        """Apply a staged/replayed bulk load at its recorded versions.

        Into an empty slab the snapshot's read-only rows and keys are
        adopted, not copied: the journal's ``LOAD`` record and the live
        slab share one row array (until the slab's first row write) and
        one key column.
        """
        if self.slab is None:
            raise ValueError("bulk slab loads need a slab-backed store")
        if self.objects:
            pop = self.objects.pop
            for key in snapshot.keys.tolist():
                pop(key, None)
        if not len(self.slab) and not snapshot.rows.flags.writeable:
            self.slab.adopt(snapshot.keys, snapshot.rows, snapshot.versions)
        else:
            self.slab.load(snapshot, replace=False)

    # -- export / import ------------------------------------------------

    def export_state(self) -> HybridExport:
        """An owned copy of the full store: the object side deep-copied,
        the columnar side (when there is one) an O(bytes) array copy."""
        return HybridExport(
            slab=self.slab.export() if self.slab is not None else None,
            objects=copy.deepcopy(self.objects),
        )

    def load_export(self, export: HybridExport, copy_objects: bool) -> None:
        """Replace this store's contents with an export.

        ``copy_objects`` deep-copies the object side (needed when the
        export is retained elsewhere, e.g. a partition snapshot being
        rebuilt from); ownership transfers skip it.
        """
        if export.slab is not None and self.slab is None:
            raise ValueError(
                "cannot install a slab export into a dict-only store"
            )
        self.objects = (
            copy.deepcopy(export.objects) if copy_objects
            else dict(export.objects)
        )
        if export.slab is not None:
            self.slab.load(export.slab, replace=True)
        elif self.slab is not None:
            self.slab.clear()

    def weight_sum(self, dimension: int) -> tuple[np.ndarray, int]:
        """``(column sum, count)`` of every entry's weight row that has
        ``dimension`` entries, read in place (no export copy)."""
        if self.policy is None:
            raise ValueError("weight_sum needs a slab policy")
        total = np.zeros(dimension)
        count = 0
        if self.slab.rank == dimension:
            total += self.slab.row_sum()
            count = len(self.slab)
        for value, _version in self.objects.values():
            weights = self.policy.object_weights(value)
            if weights is not None and np.shape(weights) == (dimension,):
                total += weights
                count += 1
        return total, count

    def export_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, matrix)`` copies of every entry's weight row.

        The bulk read the offline phase consumes: slab entries come out
        in one columnar copy; dict-resident entries are decoded through
        the policy one by one (they are the non-pristine minority).
        """
        if self.policy is None:
            raise ValueError("export_weights needs a slab policy")
        parts_keys = []
        parts_rows = []
        if self.slab is not None and len(self.slab):
            snapshot = self.slab.export()
            parts_keys.append(snapshot.keys)
            parts_rows.append(snapshot.rows)
        if self.objects:
            object_keys = []
            object_rows = []
            for key, (value, _version) in self.objects.items():
                weights = self.policy.object_weights(value)
                if weights is None:
                    continue
                object_keys.append(int(key))
                object_rows.append(np.asarray(weights, dtype=self.policy.dtype))
            if object_keys:
                parts_keys.append(np.asarray(object_keys, dtype=np.int64))
                parts_rows.append(np.stack(object_rows))
        if not parts_keys:
            empty = SlabSnapshot.empty(self.policy.rank, self.policy.dtype)
            return empty.keys, empty.rows
        return np.concatenate(parts_keys), np.concatenate(parts_rows)


class ArrayMapping(Mapping):
    """A read-only ``Mapping`` view over parallel ``(ids, values)`` arrays.

    The zero-materialization replacement for ``{uid: row.copy()}``
    dictionaries: lookups index the backing matrix directly (rows come
    back as views), and the id index is built lazily on first keyed
    access so pure bulk consumers never pay for it.
    """

    __slots__ = ("_ids", "_values", "_position")

    def __init__(self, ids: np.ndarray, values: np.ndarray):
        if len(ids) != len(values):
            raise ValueError(
                f"ids and values must be parallel, got {len(ids)} ids "
                f"and {len(values)} values"
            )
        self._ids = np.asarray(ids)
        self._values = values
        self._position: dict[int, int] | None = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The backing ``(ids, values)`` arrays (bulk consumers)."""
        return self._ids, self._values

    def _index(self) -> dict:
        if self._position is None:
            self._position = {int(k): i for i, k in enumerate(self._ids)}
        return self._position

    def __getitem__(self, key):
        position = self._index().get(int(key))
        if position is None:
            raise KeyError(key)
        return self._values[position]

    def __contains__(self, key) -> bool:
        try:
            return int(key) in self._index()
        except (TypeError, ValueError):
            return False

    def __iter__(self):
        return (int(k) for k in self._ids)

    def __len__(self) -> int:
        return len(self._ids)
