"""Property-based tests (hypothesis) on core data structures and algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchContext
from repro.common.rng import stable_hash
from repro.core.online import (
    NormalEquationsUpdater,
    ShermanMorrisonUpdater,
    UserModelState,
)
from repro.metrics.streaming import StreamingMeanVar
from repro.store import LRUCache, Partition
from repro.cluster.partitioner import HashPartitioner, RangePartitioner


keys = st.one_of(st.integers(-1000, 1000), st.text(max_size=8))
small_floats = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


class TestLruProperties:
    @given(
        capacity=st.integers(1, 8),
        ops=st.lists(st.tuples(keys, st.integers()), max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_capacity_and_serves_latest(self, capacity, ops):
        cache = LRUCache(capacity)
        latest = {}
        for key, value in ops:
            cache.put(key, value)
            latest[key] = value
        assert len(cache) <= capacity
        # whatever is cached must be the latest written value
        for key in cache.keys():
            assert cache.peek(key) == latest[key]

    @given(ops=st.lists(st.tuples(keys, st.integers()), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_unbounded_cache_is_a_dict(self, ops):
        cache = LRUCache(10_000)
        expected = {}
        for key, value in ops:
            cache.put(key, value)
            expected[key] = value
        assert dict(cache.items()) == expected


class TestJournalRecoveryProperty:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["put", "delete"]), keys, st.integers()),
            max_size=50,
        ),
        snapshot_at=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_fail_recover_reproduces_state(self, ops, snapshot_at):
        """Recovery from snapshot+journal always equals the pre-failure
        state, wherever the snapshot landed in the op stream."""
        partition = Partition(0)
        for index, (op, key, value) in enumerate(ops):
            if index == snapshot_at:
                partition.snapshot()
            if op == "put":
                partition.put(key, value)
            else:
                partition.delete(key)
        expected = dict(partition.items())
        partition.fail()
        partition.recover()
        assert dict(partition.items()) == expected


class TestShermanMorrisonProperty:
    @given(
        dimension=st.integers(1, 6),
        count=st.integers(1, 15),
        lam=st.floats(0.1, 5.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_sm_equals_normal_equations(self, dimension, count, lam, seed):
        """The O(d^2) incremental update is algebraically identical to the
        paper's Eq. 2 solve, for any data."""
        rng = np.random.default_rng(seed)
        prior = rng.normal(size=dimension)
        ne_state = UserModelState(dimension, lam, prior.copy())
        sm_state = UserModelState(dimension, lam, prior.copy())
        ne, sm = NormalEquationsUpdater(), ShermanMorrisonUpdater()
        for __ in range(count):
            f = rng.normal(size=dimension)
            y = float(rng.normal())
            ne.update(ne_state, f, y)
            sm.update(sm_state, f, y)
        assert np.allclose(ne_state.weights, sm_state.weights, atol=1e-6)


class TestWelfordProperty:
    @given(st.lists(small_floats, min_size=2, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, values):
        acc = StreamingMeanVar()
        acc.update_many(values)
        assert np.isclose(acc.mean, np.mean(values), atol=1e-8)
        assert np.isclose(acc.variance, np.var(values, ddof=1), atol=1e-6)

    @given(
        left=st.lists(small_floats, min_size=1, max_size=50),
        right=st.lists(small_floats, min_size=1, max_size=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_associativity(self, left, right):
        a, b = StreamingMeanVar(), StreamingMeanVar()
        a.update_many(left)
        b.update_many(right)
        merged = a.merge(b)
        combined = StreamingMeanVar()
        combined.update_many(left + right)
        assert np.isclose(merged.mean, combined.mean, atol=1e-8)
        assert np.isclose(merged.variance, combined.variance, atol=1e-6)


class TestPartitionerProperties:
    @given(st.lists(keys, min_size=1, max_size=100), st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_hash_partitioner_in_range_and_stable(self, key_list, n):
        partitioner = HashPartitioner(n)
        for key in key_list:
            index = partitioner.partition(key)
            assert 0 <= index < n
            assert index == partitioner.partition(key)

    @given(
        boundaries=st.lists(st.integers(-100, 100), max_size=6).map(sorted),
        probes=st.lists(st.integers(-200, 200), min_size=1, max_size=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_partitioner_is_monotone(self, boundaries, probes):
        partitioner = RangePartitioner(boundaries)
        ordered = sorted(probes)
        indices = [partitioner.partition(p) for p in ordered]
        assert indices == sorted(indices)

    @given(st.lists(keys, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_stable_hash_deterministic(self, key_list):
        assert [stable_hash(k) for k in key_list] == [
            stable_hash(k) for k in key_list
        ]


class TestBatchProperties:
    @given(st.lists(st.integers(-50, 50), max_size=60), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_collect_identity(self, data, partitions):
        ctx = BatchContext(default_parallelism=1)
        assert ctx.parallelize(data, partitions).collect() == data

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=60), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_sort_by_sorts(self, data, partitions):
        ctx = BatchContext(default_parallelism=1)
        result = ctx.parallelize(data, partitions).sort_by(lambda x: x).collect()
        assert result == sorted(data)

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(-10, 10)), max_size=60),
        st.integers(1, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_reduce_by_key_equals_dict_reduce(self, pairs, partitions):
        ctx = BatchContext(default_parallelism=1)
        result = (
            ctx.parallelize(pairs, partitions)
            .reduce_by_key(lambda a, b: a + b)
            .collect_as_map()
        )
        expected = {}
        for key, value in pairs:
            expected[key] = expected.get(key, 0) + value
        assert result == expected


class TestFrontendCodecProperty:
    @given(
        uid=st.integers(0, 10**9),
        item=st.one_of(st.integers(0, 10**6), st.text(max_size=12)),
        label=small_floats,
    )
    @settings(max_examples=50, deadline=None)
    def test_observe_roundtrip(self, uid, item, label):
        from repro.frontend import ObserveApiRequest, wire

        original = ObserveApiRequest(uid=uid, item=item, label=label)
        decoder = wire.FrameDecoder()
        decoder.feed(wire.encode_request_frame(original, 0))
        opcode, _, payload = decoder.next_frame()
        assert wire.decode_request_payload(opcode, payload) == original
