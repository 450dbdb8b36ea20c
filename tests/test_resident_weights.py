"""One resident copy of bulk-installed user weights.

A bulk install into an empty slab adopts the rows of the journal's
``LOAD`` record instead of copying them; the slab copies the array on
its first row write, so the record stays bit-identical for replay.
The memory guard bounds what ``add_model`` keeps allocated.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import Velox, VeloxConfig
from repro.core.models import MatrixFactorizationModel
from repro.store.journal import JournalOp
from repro.store.partition import Partition
from repro.store.slab import ArrayMapping, HybridStore, SlabPolicy, SlabSnapshot

RANK = 4


def load_record_rows(partition: Partition) -> np.ndarray:
    [record] = [
        r for r in partition.journal.replay(0) if r.op is JournalOp.LOAD
    ]
    return record.value.rows


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


class TestMemoryGuard:
    def test_add_model_keeps_one_copy_of_the_weights(self):
        """100k users x d=34 on the default 4 nodes: the slab and the
        journal share one copy of the rows, and the bootstrap mean holds
        none. Two copies would read above 2x."""
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
            kept, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 1.75 * weights.nbytes, kept / weights.nbytes
