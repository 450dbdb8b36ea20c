"""UserWeightAverager: exact current-weight mean maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.core.bootstrap import UserWeightAverager


class TestAverager:
    def test_mean_of_current_weights(self):
        averager = UserWeightAverager(2)
        averager.update(1, np.array([1.0, 0.0]))
        averager.update(2, np.array([3.0, 2.0]))
        assert np.allclose(averager.mean(), [2.0, 1.0])

    def test_rewrite_replaces_contribution(self):
        averager = UserWeightAverager(2)
        averager.update(1, np.array([1.0, 0.0]))
        averager.update(1, np.array([5.0, 4.0]))
        assert len(averager) == 1
        assert np.allclose(averager.mean(), [5.0, 4.0])

    def test_matches_brute_force_after_many_updates(self):
        rng = np.random.default_rng(2)
        averager = UserWeightAverager(3)
        current = {}
        for __ in range(500):
            uid = int(rng.integers(20))
            weights = rng.normal(size=3)
            averager.update(uid, weights)
            current[uid] = weights
        expected = np.mean(list(current.values()), axis=0)
        assert np.allclose(averager.mean(), expected)

    def test_remove(self):
        averager = UserWeightAverager(1)
        averager.update(1, np.array([2.0]))
        averager.update(2, np.array([4.0]))
        assert averager.remove(1) is True
        assert np.allclose(averager.mean(), [4.0])
        assert averager.remove(99) is False

    def test_contribution_copied_not_aliased(self):
        averager = UserWeightAverager(2)
        weights = np.array([1.0, 1.0])
        averager.update(1, weights)
        weights[:] = 100.0  # caller mutates their array
        assert np.allclose(averager.mean(), [1.0, 1.0])

    def test_empty_mean_rejected(self):
        with pytest.raises(ValidationError):
            UserWeightAverager(2).mean()

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            UserWeightAverager(2).update(1, np.zeros(3))

    def test_reset(self):
        averager = UserWeightAverager(1)
        averager.update(1, np.array([1.0]))
        averager.reset()
        assert len(averager) == 0


DIM = 3
weights = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False), min_size=DIM, max_size=DIM
).map(np.array)
#: ("update", uid, weights) or ("remove", uid, None)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 30), weights),
        st.tuples(st.just("remove"), st.integers(0, 30), st.none()),
    ),
    max_size=30,
)


def apply(averager, steps):
    for op, uid, w in steps:
        if op == "update":
            averager.update(uid, w)
        else:
            averager.remove(uid)


def assert_same(got, want):
    assert len(got) == len(want)
    if len(want):
        np.testing.assert_allclose(got.mean(), want.mean(), rtol=0, atol=1e-12)
    else:
        with pytest.raises(ValidationError):
            got.mean()


class TestUpdateMany:
    @settings(max_examples=150, deadline=None)
    @given(
        before=ops,
        bulk=st.lists(st.tuples(st.integers(0, 40), weights), max_size=40),
        after=ops,
    )
    def test_equals_a_loop_of_update(self, before, bulk, after):
        bulked = UserWeightAverager(DIM)
        looped = UserWeightAverager(DIM)
        apply(bulked, before)
        apply(looped, before)
        uids = [uid for uid, _ in bulk]
        matrix = np.array([w for _, w in bulk]).reshape(len(bulk), DIM)
        bulked.update_many(uids, matrix)
        for uid, w in bulk:
            looped.update(uid, w)
        assert_same(bulked, looped)
        apply(bulked, after)
        apply(looped, after)
        assert_same(bulked, looped)

    def test_contribution_copied_not_aliased(self):
        averager = UserWeightAverager(2)
        matrix = np.array([[1.0, 1.0], [3.0, 3.0]])
        averager.update_many([1, 2], matrix)
        matrix[:] = 100.0  # caller mutates their matrix
        assert np.allclose(averager.mean(), [2.0, 2.0])
        averager.remove(2)
        assert np.allclose(averager.mean(), [1.0, 1.0])

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            UserWeightAverager(2).update_many([1, 2], np.zeros((2, 3)))
