"""The columnar bulk install: slab merge, partition split, retrain swap.

``SlabStorage.load(replace=False)`` is checked against the per-key
``set_at`` loop it replaced; ``Table.load_weight_rows`` against each
partitioner's own ``partition``; and a retrain swap over a table with
dict-resident (observed) users end to end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Velox, VeloxConfig
from repro.cluster.partitioner import HashPartitioner, ModuloPartitioner
from repro.core.models import MatrixFactorizationModel
from repro.store.slab import ArrayMapping, SlabPolicy, SlabSnapshot, SlabStorage
from repro.store.table import Table

RANK = 3


def set_at_loop(storage: SlabStorage, snapshot: SlabSnapshot) -> None:
    """The merge as it was written before it went columnar."""
    for i in range(len(snapshot)):
        storage.set_at(
            int(snapshot.keys[i]), snapshot.rows[i], int(snapshot.versions[i])
        )


@st.composite
def slab_and_snapshot(draw):
    """A slab history (inserts, then deletes feeding the free list) and
    a snapshot mixing present, freed and never-seen keys."""
    capacity = draw(st.integers(1, 12))
    inserted = draw(st.lists(st.integers(0, 60), unique=True, max_size=40))
    deleted = draw(st.lists(st.sampled_from(inserted), unique=True)
                   if inserted else st.just([]))
    keys = draw(st.lists(st.integers(0, 90), unique=True, max_size=60))
    seed = draw(st.integers(0, 2**32 - 1))
    return capacity, inserted, deleted, keys, seed


def build(capacity, inserted, deleted) -> SlabStorage:
    storage = SlabStorage(RANK, initial_capacity=capacity)
    for key in inserted:
        storage.set_at(key, np.full(RANK, float(key)), key % 5 + 1)
    for key in deleted:
        storage.delete(key)
    return storage


class TestSlabMergeEqualsSetAtLoop:
    @settings(max_examples=150, deadline=None)
    @given(slab_and_snapshot())
    def test_merge_matches_per_key_loop(self, case):
        capacity, inserted, deleted, keys, seed = case
        rng = np.random.default_rng(seed)
        snapshot = SlabSnapshot(
            keys=np.asarray(keys, dtype=np.int64),
            rows=rng.normal(size=(len(keys), RANK)),
            versions=rng.integers(1, 100, size=len(keys)).astype(np.int64),
        )
        merged = build(capacity, inserted, deleted)
        expected = build(capacity, inserted, deleted)
        merged.load(snapshot, replace=False)
        set_at_loop(expected, snapshot)

        assert merged.capacity == expected.capacity
        assert merged._high == expected._high
        assert np.array_equal(merged._rows, expected._rows)
        assert np.array_equal(merged._versions, expected._versions)
        assert list(merged._index.items()) == list(expected._index.items())
        assert merged._free == expected._free
        probe = list(range(-1, 95))
        for got, want in zip(merged.gather(probe), expected.gather(probe)):
            assert np.array_equal(got, want)


class TestPartitionSplit:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-(2**62), 2**62), max_size=50),
        st.integers(1, 16),
    )
    def test_modulo_partition_many_matches_partition(self, keys, parts):
        partitioner = ModuloPartitioner(parts)
        owners = partitioner.partition_many(np.asarray(keys, dtype=np.int64))
        assert owners.tolist() == [partitioner.partition(int(k)) for k in keys]

    @pytest.mark.parametrize(
        "partitioner",
        [HashPartitioner(5), lambda key: (key * 7 + 3) % 5],
        ids=["hash", "plain-callable"],
    )
    def test_load_weight_rows_lands_each_key_on_its_owner(self, partitioner):
        table = Table(
            "w", num_partitions=5, partitioner=partitioner,
            value_policy=SlabPolicy(RANK),
        )
        keys = np.arange(-40, 160, dtype=np.int64)
        matrix = np.arange(len(keys) * RANK, dtype=float).reshape(-1, RANK)
        assert table.load_weight_rows(keys, matrix) == len(keys)
        for index in range(5):
            owned = {k for k in keys.tolist() if table.partition_index(k) == index}
            assert set(table.partition(index).keys()) == owned
        for key, row in zip(keys.tolist(), matrix):
            assert np.array_equal(table.read_weights(key).weights, row)


class FixedRetrainModel(MatrixFactorizationModel):
    """An MF model whose retrain returns preset user weights."""

    new_user_weights: ArrayMapping | None = None

    def retrain(self, batch_context, observations, user_weights):
        return self.with_version(self.version + 1), self.new_user_weights


NUM_USERS = 2000
NUM_ITEMS = 30


def deploy_model(cls=MatrixFactorizationModel):
    rng = np.random.default_rng(11)
    model = cls(
        "songs",
        item_factors=rng.normal(0.0, 0.1, (NUM_ITEMS, RANK)),
        item_bias=rng.normal(0.0, 0.1, NUM_ITEMS),
    )
    velox = Velox.deploy(VeloxConfig(num_nodes=4), auto_retrain=False)
    velox.add_model(
        model,
        initial_user_weights=ArrayMapping(
            np.arange(NUM_USERS, dtype=np.int64),
            rng.normal(0.0, 0.1, (NUM_USERS, model.dimension)),
        ),
    )
    return velox, model


def slab_of(table, uid):
    return table.partition(table.partition_index(uid))._store.slab


class TestSwapInstall:
    def test_swap_reinstalls_every_user_columnar(self):
        velox, model = deploy_model(FixedRetrainModel)
        table = velox.manager.user_state_table("songs")
        observed = list(range(0, NUM_USERS, 3))
        for uid in observed:
            velox.observe(uid, uid % NUM_ITEMS, 1.0)
        assert all(uid not in slab_of(table, uid) for uid in observed)
        before = {uid: table.get_versioned(uid).version for uid in range(NUM_USERS)}

        new = np.random.default_rng(12).normal(size=(NUM_USERS, model.dimension))
        model.new_user_weights = ArrayMapping(
            np.arange(NUM_USERS, dtype=np.int64), new
        )
        velox.manager.retrain_now("songs")

        for uid in range(NUM_USERS):
            assert np.array_equal(table.read_weights(uid).weights, new[uid])
            assert table.get_versioned(uid).version == before[uid] + 1
            assert uid in slab_of(table, uid)
        averager = velox.manager.averager("songs")
        assert len(averager) == NUM_USERS
        np.testing.assert_allclose(
            averager.mean(), new.mean(axis=0), rtol=0, atol=1e-12
        )

    def test_load_deployment_rebuilds_the_averager(self, tmp_path):
        velox, _model = deploy_model()
        for uid in range(0, 300, 7):
            velox.observe(uid, uid % NUM_ITEMS, -1.0)
        velox.save(tmp_path / "d")
        restored = Velox.load(tmp_path / "d")
        saved = velox.manager.averager("songs")
        rebuilt = restored.manager.averager("songs")
        assert len(rebuilt) == len(saved) == NUM_USERS
        np.testing.assert_allclose(
            rebuilt.mean(), saved.mean(), rtol=0, atol=1e-12
        )
