"""UserWeightAverager: the bootstrap mean as a running sum and a count.

The unit tests check the sum's arithmetic; the contract tests check
that a deployment's averager always equals the mean of the current
weight vector of every user in its table with the model's dimension,
through observes, partial and dimension-changing retrains, and a
``save``/``load`` round trip.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Velox, VeloxConfig
from repro.common.errors import ValidationError
from repro.core.bootstrap import UserWeightAverager
from repro.core.model import VeloxModel
from repro.core.models import MatrixFactorizationModel


class TestAverager:
    def test_mean_of_current_weights(self):
        averager = UserWeightAverager(2)
        averager.add(np.array([1.0, 0.0]))
        averager.add(np.array([3.0, 2.0]))
        assert len(averager) == 2
        assert np.allclose(averager.mean(), [2.0, 1.0])

    def test_rewrite_replaces_contribution(self):
        averager = UserWeightAverager(2)
        averager.add(np.array([1.0, 0.0]))
        averager.replace(np.array([1.0, 0.0]), np.array([5.0, 4.0]))
        assert len(averager) == 1
        assert np.allclose(averager.mean(), [5.0, 4.0])

    def test_matches_brute_force_after_many_updates(self):
        rng = np.random.default_rng(2)
        averager = UserWeightAverager(3)
        current = {}
        for __ in range(500):
            uid = int(rng.integers(20))
            weights = rng.normal(size=3)
            if uid in current:
                averager.replace(current[uid], weights)
            else:
                averager.add(weights)
            current[uid] = weights
        expected = np.mean(list(current.values()), axis=0)
        assert len(averager) == len(current)
        assert np.allclose(averager.mean(), expected)

    def test_remove(self):
        averager = UserWeightAverager(1)
        averager.add(np.array([2.0]))
        averager.add(np.array([4.0]))
        averager.remove(np.array([2.0]))
        assert len(averager) == 1
        assert np.allclose(averager.mean(), [4.0])
        averager.remove(np.array([4.0]))
        with pytest.raises(ValidationError):
            averager.remove(np.array([4.0]))

    def test_contribution_copied_not_aliased(self):
        averager = UserWeightAverager(2)
        weights = np.array([1.0, 1.0])
        averager.add(weights)
        weights[:] = 100.0  # caller mutates their array
        assert np.allclose(averager.mean(), [1.0, 1.0])

    def test_empty_mean_rejected(self):
        with pytest.raises(ValidationError):
            UserWeightAverager(2).mean()
        with pytest.raises(ValidationError):
            UserWeightAverager(2, np.zeros(2), 0).mean()

    def test_shape_checked(self):
        averager = UserWeightAverager(2)
        with pytest.raises(ValidationError):
            averager.add(np.zeros(3))
        with pytest.raises(ValidationError):
            averager.replace(np.zeros(2), np.zeros(3))
        with pytest.raises(ValidationError):
            averager.remove(np.zeros(1))
        assert len(averager) == 0


DIM = 3
weights = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False), min_size=DIM, max_size=DIM
).map(np.array)


class TestSeededSum:
    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(weights, max_size=40), after=st.lists(weights, max_size=10))
    def test_equals_a_loop_of_add(self, rows, after):
        """A sum and count seeded from a matrix (how a table install
        builds the averager) equals one ``add`` per row."""
        matrix = np.array(rows).reshape(len(rows), DIM)
        seeded = UserWeightAverager(DIM, matrix.sum(axis=0), len(rows))
        looped = UserWeightAverager(DIM)
        for row in rows:
            looped.add(row)
        for row in after:
            seeded.add(row)
            looped.add(row)
        assert len(seeded) == len(looped)
        if len(looped):
            np.testing.assert_allclose(
                seeded.mean(), looped.mean(), rtol=0, atol=1e-12
            )

    def test_seed_copied_not_aliased(self):
        total = np.array([4.0, 4.0])
        averager = UserWeightAverager(2, total, 2)
        total[:] = 100.0  # caller mutates their array
        assert np.allclose(averager.mean(), [2.0, 2.0])
        averager.add(np.array([5.0, 5.0]))
        assert total.tolist() == [100.0, 100.0]

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            UserWeightAverager(2, np.zeros(3), 1)
        with pytest.raises(ValidationError):
            UserWeightAverager(2, np.zeros(2), -1)


# -- the contract, on a live deployment ---------------------------------


def table_mean(velox, name: str):
    """``(mean, count)`` over the table's weight rows of the model's
    dimension, computed from the decoded states."""
    dimension = velox.model(name).dimension
    rows = [
        state.weights
        for _uid, state in velox.manager.user_state_table(name).items()
        if state.weights.shape == (dimension,)
    ]
    return (np.mean(rows, axis=0) if rows else None), len(rows)


def assert_contract(velox, name: str = "m", atol: float = 1e-9) -> None:
    averager = velox.manager.averager(name)
    expected, count = table_mean(velox, name)
    assert averager.dimension == velox.model(name).dimension
    assert len(averager) == count
    if count:
        np.testing.assert_allclose(averager.mean(), expected, rtol=0, atol=atol)


class _ContractModel(VeloxModel):
    """A computed model whose retrain covers only the users it saw in
    the log (like ALS), or, with ``widen_next`` set, widens every
    user's weights by one dimension."""

    widen_next = False

    def features(self, x):
        return np.cos(np.arange(self.dimension) + float(x))

    def retrain(self, batch_context, observations, user_weights):
        if self.widen_next:
            return (
                _ContractModel(self.name, self.dimension + 1, self.version + 1),
                {uid: np.append(w, 0.5) for uid, w in user_weights.items()},
            )
        labels: dict[int, list] = {}
        for ob in observations:
            labels.setdefault(ob.uid, []).append(ob.label)
        return _ContractModel(self.name, self.dimension, self.version + 1), {
            uid: np.full(self.dimension, float(np.mean(ys))) + 0.01 * uid
            for uid, ys in labels.items()
        }


NUM_USERS = 12
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.integers(0, NUM_USERS + 6),  # past NUM_USERS: new users
            st.integers(0, 9),
            st.floats(-3.0, 3.0, allow_nan=False),
        ),
        st.tuples(st.sampled_from(["retrain", "widen", "save_load"])),
    ),
    min_size=1,
    max_size=12,
)


class TestBootstrapContract:
    @settings(max_examples=25, deadline=None)
    @given(steps=steps, seed=st.integers(0, 2**16))
    def test_mean_is_over_the_table_after_every_step(self, steps, seed):
        rng = np.random.default_rng(seed)
        velox = Velox.deploy(VeloxConfig(num_nodes=2), auto_retrain=False)
        velox.add_model(
            _ContractModel("m", 3),
            initial_user_weights={
                uid: rng.normal(size=3) for uid in range(NUM_USERS)
            },
        )
        velox.observe(0, 1, 1.0, model_name="m")  # the log is never empty
        assert_contract(velox)
        with tempfile.TemporaryDirectory() as workdir:
            for number, step in enumerate(steps):
                if step[0] == "observe":
                    _op, uid, item, label = step
                    velox.observe(uid, item, label, model_name="m")
                elif step[0] == "save_load":
                    velox.save(f"{workdir}/{number}")
                    velox = Velox.load(f"{workdir}/{number}")
                else:
                    velox.model("m").widen_next = step[0] == "widen"
                    velox.retrain("m")
                assert_contract(velox)


class TestPartialCoverageRetrain:
    def test_restored_deployment_bootstraps_like_the_live_one(self, tmp_path):
        """ALS returns weights only for the users in the log; the other
        users keep theirs and stay in the bootstrap mean, live and
        after ``save``/``load`` alike."""
        rng = np.random.default_rng(4)
        model = MatrixFactorizationModel(
            "m", rng.normal(size=(30, 4)), rng.normal(size=30), 3.0
        )
        velox = Velox.deploy(VeloxConfig(num_nodes=2), auto_retrain=False)
        velox.add_model(
            model,
            initial_user_weights={
                uid: model.pack_user_weights(rng.normal(size=4), 0.1 * uid)
                for uid in range(40)
            },
        )
        for _ in range(300):
            velox.observe(
                int(rng.integers(10)), int(rng.integers(30)),
                float(rng.integers(1, 6)), model_name="m",
            )
        velox.retrain("m")
        velox.save(tmp_path / "d")
        restored = Velox.load(tmp_path / "d")

        live = velox.manager.averager("m")
        rebuilt = restored.manager.averager("m")
        assert len(live) == len(rebuilt) == 40
        np.testing.assert_allclose(live.mean(), rebuilt.mean(), rtol=0, atol=1e-12)
        assert_contract(velox, atol=1e-12)
        assert velox.predict("m", 10_000, 3)[1] == pytest.approx(
            restored.predict("m", 10_000, 3)[1], rel=0, abs=1e-12
        )
