"""Partition: versioned mutations, failure, snapshot + journal recovery."""

import pytest

from repro.common.errors import PartitionError
from repro.store import Partition


class TestMutations:
    def test_put_returns_incrementing_versions(self):
        part = Partition(0)
        assert part.put("k", "v1") == 1
        assert part.put("k", "v2") == 2

    def test_get_returns_value_and_version(self):
        part = Partition(0)
        part.put("k", "v")
        assert part.get("k") == ("v", 1)

    def test_get_absent_returns_none(self):
        assert Partition(0).get("k") is None

    def test_delete_and_reinsert_restarts_version(self):
        part = Partition(0)
        part.put("k", "v")
        assert part.delete("k") is True
        assert part.put("k", "v2") == 1

    def test_delete_absent_returns_false(self):
        assert Partition(0).delete("k") is False

    def test_truncate_clears(self):
        part = Partition(0)
        for i in range(3):
            part.put(i, i)
        part.truncate()
        assert len(part) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Partition(-1)


class TestFailureAndRecovery:
    def test_failed_partition_rejects_access(self):
        part = Partition(0)
        part.put("k", "v")
        part.fail()
        with pytest.raises(PartitionError):
            part.get("k")
        with pytest.raises(PartitionError):
            part.put("k", "v2")

    def test_recover_replays_journal_from_scratch(self):
        part = Partition(0)
        part.put("a", 1)
        part.put("b", 2)
        part.delete("a")
        part.put("b", 3)
        part.fail()
        replayed = part.recover()
        assert replayed == 4
        assert part.get("a") is None
        assert part.get("b") == (3, 2)

    def test_recover_with_snapshot_replays_suffix_only(self):
        part = Partition(0)
        for i in range(10):
            part.put(i, i)
        part.snapshot()
        part.put("post", 1)
        part.fail()
        replayed = part.recover()
        assert replayed == 1  # only the post-snapshot record
        assert part.get(5) == (5, 1)
        assert part.get("post") == (1, 1)

    def test_recover_preserves_versions(self):
        part = Partition(0)
        part.put("k", "v1")
        part.put("k", "v2")
        part.fail()
        part.recover()
        assert part.get("k") == ("v2", 2)
        assert part.put("k", "v3") == 3

    def test_recover_after_truncate(self):
        part = Partition(0)
        part.put("a", 1)
        part.truncate()
        part.put("b", 2)
        part.fail()
        part.recover()
        assert part.get("a") is None
        assert part.get("b") == (2, 1)

    def test_recover_healthy_partition_is_idempotent(self):
        part = Partition(0)
        part.put("a", 1)
        part.recover()
        assert part.get("a") == (1, 1)

    def test_snapshot_compacts_journal(self):
        part = Partition(0)
        for i in range(5):
            part.put(i, i)
        before = part.journal_length
        part.snapshot()
        part.put("x", 1)
        part.fail()
        part.recover()
        assert len(part) == 6
        assert part.journal_length == before + 1


class _RecordingDelegate:
    """Minimal failover delegate: a dict with the partition's surface."""

    def __init__(self):
        self.data = {}
        self.calls = []

    def get(self, key):
        self.calls.append(("get", key))
        return self.data.get(key)

    def put(self, key, value):
        self.calls.append(("put", key))
        entry = self.data.get(key)
        version = 1 if entry is None else entry[1] + 1
        self.data[key] = (value, version)
        return version

    def delete(self, key):
        self.calls.append(("delete", key))
        return self.data.pop(key, None) is not None

    def keys(self):
        return iter(list(self.data.keys()))

    def items(self):
        return iter([(k, v) for k, (v, _) in self.data.items()])

    def __contains__(self, key):
        return key in self.data

    def __len__(self):
        return len(self.data)


class TestFailoverDelegate:
    def test_delegate_only_consulted_while_failed(self):
        part = Partition(0)
        delegate = _RecordingDelegate()
        part.failover = delegate
        part.put("k", "healthy")
        assert part.get("k") == ("healthy", 1)
        assert delegate.calls == []  # healthy partition never delegates

    def test_failed_partition_routes_through_delegate(self):
        part = Partition(0)
        delegate = _RecordingDelegate()
        delegate.data["k"] = ("replica-copy", 1)
        part.put("k", "original")
        part.fail()
        part.failover = delegate
        assert part.get("k") == ("replica-copy", 1)
        assert part.put("x", 1) == 1
        assert "x" in part and len(part) == 2
        assert part.delete("x") is True
        assert [c[0] for c in delegate.calls] == ["get", "put", "delete"]

    def test_failed_without_delegate_still_raises(self):
        part = Partition(0)
        part.put("k", 1)
        part.fail()
        with pytest.raises(PartitionError):
            part.get("k")

    def test_clearing_delegate_restores_failed_errors(self):
        part = Partition(0)
        part.fail()
        part.failover = _RecordingDelegate()
        part.get("k")  # fine: delegated
        part.failover = None
        with pytest.raises(PartitionError):
            part.get("k")

    def test_on_mutate_fires_per_journaled_write(self):
        part = Partition(0)
        seen = []
        part.on_mutate = lambda p: seen.append(p.journal.next_sequence)
        part.put("a", 1)
        part.delete("a")
        part.truncate()
        assert seen == [1, 2, 3]

    def test_on_mutate_not_fired_for_reads(self):
        part = Partition(0)
        part.put("a", 1)
        seen = []
        part.on_mutate = lambda p: seen.append(1)
        part.get("a")
        assert seen == []


class TestExportState:
    def test_export_matches_live_state(self):
        part = Partition(0)
        part.put("a", 1)
        part.put("a", 2)
        part.put("b", 3)
        state, sequence = part.export_state()
        assert state.objects == {"a": (2, 2), "b": (3, 1)}
        assert state.slab is None  # no policy, no columnar side
        assert sequence == part.journal.next_sequence

    def test_export_is_a_copy(self):
        part = Partition(0)
        part.put("a", [1, 2])
        state, _ = part.export_state()
        state.objects["a"][0][0] = 99
        assert part.get("a") == ([1, 2], 1)

    def test_export_while_failed_rebuilds_from_durable_state(self):
        """Snapshot transfer must work even though the primary's memory
        is gone — the journal + snapshot are the durable tier."""
        part = Partition(0)
        for i in range(5):
            part.put(i, i)
        part.snapshot()
        part.put("post", 1)
        part.fail()
        state, sequence = part.export_state()
        assert state.objects[3] == (3, 1)
        assert state.objects["post"] == (1, 1)
        assert sequence == part.journal.next_sequence
        assert part.failed  # exporting does not revive the partition
