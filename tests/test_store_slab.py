"""Columnar slab storage: lifecycle, recovery, and dict-path equivalence.

Covers the slab-specific behaviors the classic partition tests cannot
see: free-list row reuse, amortized-doubling growth, out-of-order
version installs, journal recovery rebuilding a bit-identical slab, and
a randomized proof that a slab-backed partition is observationally
equivalent to the historical dict-only partition.
"""

import numpy as np
import pytest

from repro.store import Partition, SlabPolicy, SlabStorage
from repro.store.slab import SlabRow


RANK = 4


def row(seed: float) -> np.ndarray:
    """A deterministic rank-RANK float64 vector."""
    return np.arange(RANK, dtype=np.float64) + seed


def make_partition() -> Partition:
    return Partition(0, value_policy=SlabPolicy(RANK))


class TestSlabStorage:
    def test_free_list_reuses_deleted_rows(self):
        slab = SlabStorage(RANK)
        for key in range(4):
            slab.set_at(key, row(key), 1)
        victim_row = slab.row_of(2)
        assert slab.delete(2)
        assert slab.version(2) == 0
        slab.set_at(99, row(99.0), 1)
        assert slab.row_of(99) == victim_row  # recycled, not appended
        assert len(slab) == 4
        view, version = slab.get(99)
        np.testing.assert_array_equal(view, row(99.0))
        assert version == 1

    def test_growth_across_doubling_boundary_preserves_rows(self):
        slab = SlabStorage(RANK, initial_capacity=2)
        n = 67  # crosses 2 -> 4 -> 8 -> 16 -> 32 -> 64 -> 128
        for key in range(n):
            slab.set_at(key, row(key), key + 1)
        assert slab.capacity >= n
        assert slab.capacity == 128  # doubling, not linear growth
        for key in range(n):
            view, version = slab.get(key)
            np.testing.assert_array_equal(view, row(key))
            assert version == key + 1

    def test_clear_retains_capacity_and_drops_entries(self):
        slab = SlabStorage(RANK)
        for key in range(20):
            slab.set_at(key, row(key), 1)
        capacity = slab.capacity
        slab.clear()
        assert len(slab) == 0 and slab.capacity == capacity
        slab.set_at(0, row(0), 1)
        assert slab.row_of(0) == 0  # high-watermark reset

    def test_gather_skips_absent_keys_in_order(self):
        slab = SlabStorage(RANK)
        for key in (1, 3, 5):
            slab.set_at(key, row(key), key)
        present, matrix, versions = slab.gather([5, 2, 1, 4])
        np.testing.assert_array_equal(present, [True, False, True, False])
        np.testing.assert_array_equal(matrix[0], row(5))
        np.testing.assert_array_equal(matrix[1], row(1))
        np.testing.assert_array_equal(versions, [5, 1])

    def test_get_returns_read_only_view(self):
        slab = SlabStorage(RANK)
        slab.set_at(7, row(7), 1)
        view, _ = slab.get(7)
        with pytest.raises(ValueError):
            view[0] = 123.0


class TestSlabPartition:
    def test_int_vector_values_land_in_the_slab(self):
        part = make_partition()
        part.put(1, row(1))
        assert 1 in part._store.slab
        assert part._store.objects == {}
        value, version = part.get(1)
        np.testing.assert_array_equal(value, row(1))
        assert version == 1

    def test_non_eligible_values_stay_on_the_dict_path(self):
        part = make_partition()
        part.put("name", "not a vector")  # non-int key
        part.put(2, np.zeros(RANK + 1))  # wrong rank
        part.put(3, {"rich": "object"})  # not an ndarray
        assert len(part._store.slab) == 0
        assert set(part._store.objects) == {"name", 2, 3}

    def test_out_of_order_version_installs_survive_recovery(self):
        part = make_partition()
        part.install(1, row(1), 5)
        part.install(1, row(2), 3)  # explicit versions: last write wins
        assert part.get(1)[1] == 3
        part.fail()
        part.recover()
        value, version = part.get(1)
        assert version == 3
        np.testing.assert_array_equal(value, row(2))

    def test_recover_rebuilds_identical_slab(self):
        part = make_partition()
        for key in range(10):
            part.put(key, row(key))
        part.delete(3)
        part.delete(7)
        part.snapshot()
        part.put(20, row(20))  # lands in a free-listed row
        part.put(4, row(40))  # overwrite post-snapshot
        part.delete(9)
        before = part._store.slab.export()
        part.fail()
        replayed = part.recover()
        assert replayed == 3  # the two puts and the delete after snapshot()
        assert part._store.slab.export().equals(before)

    def test_load_rows_is_one_journal_record(self):
        part = make_partition()
        baseline = part.journal_length
        keys = np.arange(100, dtype=np.int64)
        part.load_rows(keys, np.stack([row(k) for k in keys]))
        assert part.journal_length == baseline + 1
        assert len(part) == 100
        value, version = part.get(42)
        np.testing.assert_array_equal(value, row(42))
        assert version == 1

    def test_load_rows_bumps_existing_versions(self):
        part = make_partition()
        part.put(5, row(0))
        part.put(5, row(1))  # version 2
        part.load_rows(np.array([5, 6]), np.stack([row(50), row(60)]))
        assert part.get(5)[1] == 3
        assert part.get(6)[1] == 1

    def test_bulk_load_survives_recovery(self):
        part = make_partition()
        keys = np.arange(50, dtype=np.int64)
        part.load_rows(keys, np.stack([row(k) for k in keys]))
        part.delete(10)
        part.put(10, row(99))
        before = part._store.slab.export()
        part.fail()
        part.recover()
        assert part._store.slab.export().equals(before)


class TestConsistentIteration:
    """Satellite: items()/keys() stay consistent under concurrent mutation."""

    def test_items_snapshot_unaffected_by_free_list_reuse(self):
        part = make_partition()
        for key in range(10):
            part.put(key, row(key))
        it = part.items()
        first = [next(it) for _ in range(3)]
        # Mutate mid-iteration: delete a not-yet-yielded key and insert a
        # new one that recycles its physical slab row with different data.
        part.delete(5)
        part.put(500, row(-123.0))
        seen = dict(first)
        seen.update(dict(it))
        assert set(seen) == set(range(10))  # the pre-mutation key set
        for key in range(10):
            np.testing.assert_array_equal(seen[key], row(key))

    def test_keys_snapshot_unaffected_by_later_mutation(self):
        part = make_partition()
        for key in range(5):
            part.put(key, row(key))
        keys = part.keys()
        part.truncate()
        assert sorted(keys) == list(range(5))

    def test_items_mixes_dict_and_slab_entries(self):
        part = make_partition()
        part.put(1, row(1))
        part.put("meta", {"k": "v"})
        items = dict(part.items())
        assert set(items) == {1, "meta"}
        np.testing.assert_array_equal(items[1], row(1))
        assert items["meta"] == {"k": "v"}


def logical_state(part: Partition) -> dict:
    """Key -> (value-as-bytes, version) irrespective of physical layout."""
    out = {}
    for key in part.keys():
        value, version = part.get(key)
        if isinstance(value, np.ndarray):
            value = value.tobytes()
        out[key] = (value, version)
    return out


def exported_logical(state) -> dict:
    """Flatten an export to comparable contents."""
    out = {}
    if state.slab is not None:
        for key, vector, version in zip(
            state.slab.keys, state.slab.rows, state.slab.versions
        ):
            out[int(key)] = (vector.tobytes(), int(version))
    for key, (value, version) in state.objects.items():
        if isinstance(value, SlabRow):
            value = value.vector
        if isinstance(value, np.ndarray):
            value = value.tobytes()
        out[key] = (value, version)
    return out


class TestDictSlabEquivalence:
    """Randomized proof: slab-backed and dict-only partitions are
    observationally identical under the same operation sequence."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_operation_sequences(self, seed):
        rng = np.random.default_rng(seed)
        slab_part = make_partition()
        dict_part = Partition(0)  # no policy: the historical layout
        key_space = list(range(12)) + ["alpha", "beta"]
        for step in range(300):
            op = rng.choice(["put", "delete", "install", "truncate"],
                            p=[0.6, 0.2, 0.15, 0.05])
            key = key_space[rng.integers(len(key_space))]
            if op == "put":
                value = (
                    rng.normal(size=RANK)
                    if isinstance(key, int) and rng.random() < 0.8
                    else f"obj-{step}"
                )
                assert slab_part.put(key, value) == dict_part.put(key, value)
            elif op == "delete":
                assert slab_part.delete(key) == dict_part.delete(key)
            elif op == "install":
                version = int(rng.integers(1, 10))
                value = rng.normal(size=RANK)
                slab_part.install(key, value, version)
                dict_part.install(key, value, version)
            else:
                slab_part.truncate()
                dict_part.truncate()
            if step % 50 == 0:
                assert logical_state(slab_part) == logical_state(dict_part)
        assert logical_state(slab_part) == logical_state(dict_part)
        # Exports carry identical contents despite different containers.
        slab_export, _ = slab_part.export_state()
        dict_export, _ = dict_part.export_state()
        assert exported_logical(slab_export) == exported_logical(dict_export)
        # And both recover to the same state.
        slab_part.fail()
        dict_part.fail()
        slab_part.recover()
        dict_part.recover()
        assert logical_state(slab_part) == logical_state(dict_part)
