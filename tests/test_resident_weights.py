"""One resident copy of bulk-installed user weights.

A bulk install into an empty slab adopts the rows and keys of the
journal's ``LOAD`` record instead of copying them, and indexes them
through a sorted key column rather than a dict; the slab copies the
rows on its first row write, so the record stays bit-identical for
replay. A state machine holds the two-part index to a plain dict, and
the memory guard bounds what ``add_model`` keeps and peaks at.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import Velox, VeloxConfig
from repro.core.models import MatrixFactorizationModel
from repro.store.journal import JournalOp
from repro.store.partition import Partition
from repro.store.slab import (
    ArrayMapping,
    HybridStore,
    SlabPolicy,
    SlabSnapshot,
    SlabStorage,
)

RANK = 4


def load_record(partition: Partition) -> SlabSnapshot:
    [record] = [
        r for r in partition.journal.replay(0) if r.op is JournalOp.LOAD
    ]
    return record.value


def load_record_rows(partition: Partition) -> np.ndarray:
    return load_record(partition).rows


def live_rows(partition: Partition) -> np.ndarray:
    return partition._store.slab._rows


def deploy(num_users=200, **config) -> Velox:
    rng = np.random.default_rng(3)
    model = MatrixFactorizationModel(
        "m", rng.normal(size=(20, RANK)), rng.normal(size=20), 3.0
    )
    velox = Velox.deploy(VeloxConfig(**config), auto_retrain=False)
    velox.add_model(
        model,
        initial_user_weights=ArrayMapping(
            np.arange(num_users, dtype=np.int64),
            rng.normal(size=(num_users, model.dimension)),
        ),
    )
    return velox


def loaded_store(keys=range(10)) -> tuple[HybridStore, np.ndarray]:
    keys = np.asarray(list(keys), dtype=np.int64)
    store = HybridStore(SlabPolicy(RANK))
    staged = store.prepare_bulk(keys, np.outer(keys, np.ones(RANK)))
    store.bulk_install(staged)
    return store, staged.rows


class TestSharedLoadRows:
    def test_add_model_leaves_one_array_per_partition(self):
        velox = deploy(num_nodes=2)
        table = velox.manager.user_state_table("m")
        for index in range(table.num_partitions):
            partition = table.partition(index)
            record = load_record_rows(partition)
            assert np.shares_memory(record, live_rows(partition))
            assert partition._store.slab.capacity == len(record)

    def test_add_model_indexes_without_a_dict(self):
        """Every partition's slab finds its rows through the record's
        own key column; the one gathered copy backs every record."""
        velox = deploy(num_nodes=3)
        table = velox.manager.user_state_table("m")
        bases = set()
        for index in range(table.num_partitions):
            partition = table.partition(index)
            record = load_record(partition)
            slab = partition._store.slab
            assert slab._index == {}
            assert np.shares_memory(record.keys, slab._bulk.keys)
            bases.add(id(record.rows.base))
        assert len(bases) == 1

    @pytest.mark.parametrize("write", ["set_at", "merge", "replace"])
    def test_first_write_copies_and_the_record_stays(self, write):
        store, record = loaded_store()
        before = record.copy()
        slab = store.slab
        assert np.shares_memory(record, slab._rows)
        staged = store.prepare_bulk([3, 4], np.full((2, RANK), -1.0))
        if write == "set_at":
            slab.set_at(3, np.full(RANK, -1.0), 7)
        else:
            slab.load(staged, replace=write == "replace")
        assert not np.shares_memory(record, slab._rows)
        assert np.array_equal(record, before)
        assert slab.get(3)[0].tolist() == [-1.0] * RANK

    def test_delete_writes_versions_only(self):
        store, record = loaded_store()
        assert store.delete(4)
        assert np.shares_memory(record, store.slab._rows)
        assert store.slab.version(5) == 1

    def test_a_writeable_snapshot_is_copied_not_adopted(self):
        store = HybridStore(SlabPolicy(RANK))
        staged = store.prepare_bulk([1, 2], np.ones((2, RANK)))
        rows = np.array(staged.rows)  # writeable: nobody promised not to write
        store.bulk_install(SlabSnapshot(staged.keys, rows, staged.versions))
        assert not np.shares_memory(rows, store.slab._rows)

    def test_fail_recover_reproduces_the_state(self):
        velox = deploy(num_nodes=2)
        table = velox.manager.user_state_table("m")
        for uid in (0, 1, 2, 3):
            velox.observe(uid, uid, 4.0)  # dict path
        partition = table.partition(0)
        record = load_record_rows(partition)
        kept = record.copy()
        slab_key = next(k for k in partition.keys() if k in partition._store.slab)
        partition.put(slab_key, partition.get(slab_key)[0])  # a slab write
        assert not np.shares_memory(record, live_rows(partition))
        expected = partition.export_state()[0]

        partition.fail()
        partition.recover()
        got = partition.export_state()[0]
        assert got.slab.equals(expected.slab)
        assert got.objects.keys() == expected.objects.keys()
        assert np.array_equal(record, kept)

    def test_replica_catch_up_shares_the_record(self):
        velox = deploy(num_nodes=2, replication_factor=2)
        velox.replication.ship()
        table = velox.manager.user_state_table("m")
        for index in range(table.num_partitions):
            [replica] = velox.replication._replicas[(table.name, index)]
            record = load_record_rows(table.partition(index))
            assert np.shares_memory(record, replica.store.slab._rows)
            assert replica.store.slab.export().equals(
                table.partition(index)._store.slab.export()
            )

    def test_restore_slab_adopts_its_mapping(self, tmp_path):
        keys = np.arange(6, dtype=np.int64)
        np.save(tmp_path / "rows.npy", np.outer(keys, np.ones(RANK)))
        journal_rows = np.load(tmp_path / "rows.npy", mmap_mode="r")
        mapped = np.load(tmp_path / "rows.npy", mmap_mode="c")
        partition = Partition(0, SlabPolicy(RANK))
        partition.restore_slab(
            keys, journal_rows, np.ones(6, dtype=np.int64), live_rows=mapped
        )
        assert live_rows(partition) is mapped
        partition._store.slab.set_at(2, np.full(RANK, 9.0), 2)
        assert live_rows(partition) is mapped  # copy-on-write by the mapping
        assert journal_rows[2].tolist() == [2.0] * RANK


class SlabAgainstADict(RuleBasedStateMachine):
    """``SlabStorage`` under random bulk installs, merges, point writes,
    deletes and clears, against ``{key: (row, version)}``."""

    keys = st.integers(0, 40)

    def __init__(self):
        super().__init__()
        self.slab = SlabStorage(RANK, initial_capacity=2)
        self.model: dict[int, tuple[np.ndarray, int]] = {}

    @staticmethod
    def _snapshot(keys, seed, sort) -> SlabSnapshot:
        rng = np.random.default_rng(seed)
        keys = sorted(keys) if sort else keys
        return SlabSnapshot(
            keys=np.asarray(keys, dtype=np.int64),
            rows=rng.normal(size=(len(keys), RANK)),
            versions=rng.integers(1, 9, size=len(keys)).astype(np.int64),
        )

    def _record(self, snapshot: SlabSnapshot) -> None:
        for key, row, version in zip(
            snapshot.keys.tolist(), snapshot.rows, snapshot.versions.tolist()
        ):
            self.model[key] = (row.copy(), version)

    @precondition(lambda self: not self.model)
    @rule(keys=st.lists(keys, unique=True, max_size=30),
          seed=st.integers(0, 2**32 - 1), sort=st.booleans(),
          shared=st.booleans())
    def adopt(self, keys, seed, sort, shared):
        snapshot = self._snapshot(keys, seed, sort)
        self._record(snapshot)
        if shared:  # a staged record: the slab shares keys and rows
            snapshot.keys.flags.writeable = False
            snapshot.rows.flags.writeable = False
        self.slab.adopt(snapshot.keys, snapshot.rows, snapshot.versions)

    @rule(keys=st.lists(keys, unique=True, max_size=30),
          seed=st.integers(0, 2**32 - 1), sort=st.booleans(),
          replace=st.booleans())
    def load(self, keys, seed, sort, replace):
        snapshot = self._snapshot(keys, seed, sort)
        if replace:
            self.model.clear()
        self._record(snapshot)
        self.slab.load(snapshot, replace=replace)

    @rule(key=keys, value=st.floats(-10, 10), version=st.integers(1, 9))
    def set_at(self, key, value, version):
        row = np.full(RANK, value)
        self.slab.set_at(key, row, version)
        self.model[key] = (row, version)

    @rule(key=keys)
    def delete(self, key):
        assert self.slab.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule()
    def clear(self):
        self.slab.clear()
        self.model.clear()

    @invariant()
    def point_reads_agree(self):
        for key in range(-1, 43):
            hit = self.slab.get(key)
            assert (key in self.slab) == (key in self.model)
            if key in self.model:
                row, version = self.model[key]
                assert np.array_equal(hit[0], row)
                assert hit[1] == version == self.slab.version(key)
            else:
                assert hit is None
                assert self.slab.version(key) == 0

    @invariant()
    def bulk_reads_agree(self):
        keys = self.slab.keys()
        assert len(keys) == len(self.slab) == len(self.model)
        assert set(keys) == set(self.model)
        probe = list(range(-1, 43))
        present, matrix, versions = self.slab.gather(probe)
        hits = [k for k in probe if k in self.model]
        assert present.tolist() == [k in self.model for k in probe]
        assert versions.tolist() == [self.model[k][1] for k in hits]
        expected = sorted(self.model)
        snapshot = self.slab.export()
        assert snapshot.keys.tolist() == expected
        assert snapshot.versions.tolist() == [self.model[k][1] for k in expected]
        if hits:
            assert np.array_equal(matrix, np.stack([self.model[k][0] for k in hits]))
            assert np.array_equal(
                snapshot.rows, np.stack([self.model[k][0] for k in expected])
            )
            assert np.allclose(
                self.slab.row_sum(), sum(row for row, _v in self.model.values())
            )
        else:
            assert not self.slab.row_sum().any()


TestSlabAgainstADict = SlabAgainstADict.TestCase
TestSlabAgainstADict.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None
)


class TestLockFreeReads:
    def test_readers_never_miss_an_untouched_key_while_a_writer_churns(self):
        """Readers take no lock. While one writer deletes, re-inserts
        and appends keys (free-row reuse, overlay growth, the first
        write's copy), every key it never touches stays readable with
        its own row, and the live count ends exact."""
        keys = np.random.default_rng(5).permutation(2000).astype(np.int64)
        rows = np.outer(keys, np.ones(RANK))
        rows.flags.writeable = False
        slab = SlabStorage(RANK)
        slab.adopt(keys, rows, np.ones(len(keys), dtype=np.int64))
        stable = list(range(0, 2000, 2))
        errors: list[str] = []
        stop = threading.Event()

        def read():
            while not stop.is_set():
                for key in stable[::97]:
                    hit = slab.get(key)
                    if hit is None or hit[0][0] != key:
                        errors.append(f"get({key}) -> {hit}")
                present, matrix, _v = slab.gather(stable)
                if not present.all() or not (matrix[:, 0] == stable).all():
                    errors.append("gather missed a stable key")

        def write():
            fresh = 2000
            for key in range(1, 2000, 2):
                slab.delete(key)
                slab.set_at(fresh, np.full(RANK, -1.0), 1)
                fresh += 1
                if key % 3 == 0:
                    slab.set_at(key, np.full(RANK, float(key)), 2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            writer = threading.Thread(target=write)
            for thread in readers + [writer]:
                thread.start()
            writer.join(timeout=30)
            time.sleep(0.05)
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not writer.is_alive()
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        readded = len(range(3, 2000, 6))
        assert len(slab) == 1000 + 1000 + readded
        assert len(set(slab.keys())) == len(slab)


@pytest.fixture(scope="module")
def traced_add_model():
    """100k users x d=34 on the default 4 nodes, ``add_model`` traced:
    ``(kept, peak, weight bytes, Table.memory_bytes())``."""
    rng = np.random.default_rng(0)
    ids = np.arange(100_000, dtype=np.int64)
    weights = rng.normal(size=(len(ids), 34))
    model = MatrixFactorizationModel(
        "m", rng.normal(size=(50, 32)), rng.normal(size=50), 3.0
    )
    velox = Velox.deploy(auto_retrain=False)
    tracemalloc.start()
    try:
        velox.add_model(model, initial_user_weights=ArrayMapping(ids, weights))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = velox.manager.user_state_table("m").memory_bytes()
    return kept, peak, weights.nbytes, table_bytes


class TestMemoryGuard:
    def test_add_model_keeps_one_copy_of_the_weights(self, traced_add_model):
        """The slab and the journal share one copy of the rows and one
        key column, the index holds no object per user, and the
        bootstrap mean holds none. A key dict reads above 1.5x."""
        kept, _peak, weights, _table = traced_add_model
        assert kept <= 1.25 * weights, kept / weights

    def test_add_model_peaks_at_one_copy_of_the_weights(self, traced_add_model):
        """The install copies the weights once, at the split: a second
        staging copy reads above 1.8x."""
        _kept, peak, weights, _table = traced_add_model
        assert peak <= 1.3 * weights, peak / weights

    def test_memory_bytes_counts_what_add_model_keeps(self, traced_add_model):
        kept, _peak, _weights, table = traced_add_model
        assert abs(table - kept) <= 0.05 * kept, table / kept
