"""Second wave of hypothesis property tests: sampling, streaming,
persistence, selection, and top-K engine equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prediction import PREDICTION_CACHE_MIN_DIMENSION
from repro.core.selection import EpsilonGreedySelector, Exp3Selector, HedgeSelector
from repro.core.topk import BlockedMatrixTopK, NaiveTopK, ThresholdTopK
from repro.sampling import StratifiedSampler, sample_observations
from repro.store import Observation
from repro.streaming import CollectSink, Filter, IterableSource, Map, StreamPipeline


class TestSamplingProperties:
    @given(
        counts=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        fraction=st.floats(0.05, 1.0),
        floor=st.integers(0, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_stratified_respects_floor_and_bounds(self, counts, fraction, floor, seed):
        items = [
            (stratum, i) for stratum, n in enumerate(counts) for i in range(n)
        ]
        sampler = StratifiedSampler(fraction, floor=floor, rng=seed)
        sampled = sampler.sample(items, key_fn=lambda t: t[0])
        per_stratum: dict[int, int] = {}
        for stratum, __ in sampled:
            per_stratum[stratum] = per_stratum.get(stratum, 0) + 1
        for stratum, n in enumerate(counts):
            kept = per_stratum.get(stratum, 0)
            expected = min(n, max(floor, int(round(fraction * n))))
            assert kept == expected
        # No fabricated items: sample is a sub-multiset of the input.
        assert set(sampled) <= set(items)

    @given(
        per_user=st.integers(1, 20),
        users=st.integers(1, 8),
        fraction=st.floats(0.1, 0.99),
        seed=st.integers(0, 500),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_user_survives_observation_sampling(
        self, per_user, users, fraction, seed
    ):
        observations = [
            Observation(uid=u, item_id=i, label=1.0)
            for u in range(users)
            for i in range(per_user)
        ]
        sampled = sample_observations(
            observations, fraction, min_per_user=2, rng=seed
        )
        assert {ob.uid for ob in sampled} == set(range(users))


class TestStreamingProperties:
    @given(
        data=st.lists(st.integers(-100, 100), max_size=120),
        batch_size=st.integers(1, 17),
        threshold=st.integers(-50, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_pipeline_equals_list_pipeline(self, data, batch_size, threshold):
        """Micro-batching is invisible: the pipeline computes exactly the
        list-comprehension equivalent regardless of batch size."""
        sink = CollectSink()
        StreamPipeline(
            source=IterableSource(data, batch_size=batch_size),
            operators=[
                Filter(lambda x: x > threshold),
                Map(lambda x: x * 2 + 1),
            ],
            sinks=[sink],
        ).run()
        assert sink.records == [x * 2 + 1 for x in data if x > threshold]


class TestPersistenceProperty:
    @given(
        entries=st.dictionaries(
            st.integers(0, 50),
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=4),
            max_size=20,
        ),
        partitions=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_checkpoint_restore_identity(self, entries, partitions, tmp_path_factory):
        from repro.store import VeloxStore, checkpoint_store, restore_store

        directory = tmp_path_factory.mktemp("ckpt")
        store = VeloxStore(default_partitions=partitions)
        table = store.create_table("t")
        for key, value in entries.items():
            table.put(key, value)
        checkpoint_store(store, directory)
        restored = restore_store(directory)
        assert dict(restored.table("t").items()) == entries


class TestSelectionProperties:
    selector_factories = [
        lambda names, seed: HedgeSelector(names, eta=0.3),
        lambda names, seed: HedgeSelector(names, eta=0.5, decay=0.9),
        lambda names, seed: Exp3Selector(names, gamma=0.2, rng=seed),
        lambda names, seed: EpsilonGreedySelector(names, epsilon=0.2, rng=seed),
    ]

    @given(
        num_models=st.integers(1, 5),
        losses=st.lists(
            st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=5),
            max_size=30,
        ),
        factory_index=st.integers(0, 3),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_weights_are_a_distribution(self, num_models, losses, factory_index, seed):
        names = [f"m{i}" for i in range(num_models)]
        selector = self.selector_factories[factory_index](names, seed)
        for row in losses:
            padded = {
                name: row[i % len(row)] for i, name in enumerate(names)
            }
            served = names[0]
            try:
                selector.update(padded, served=served)
            except Exception:
                # Exp3 requires served in losses; padded always has it.
                raise
        weights = selector.weights()
        assert set(weights) == set(names)
        assert all(w >= 0 for w in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)
        assert selector.choose() in names


class TestTopKEngineProperty:
    @given(
        num_items=st.integers(1, 60),
        dimension=st.integers(1, 8),
        k=st.integers(1, 10),
        seed=st.integers(0, 10_000),
        sparse=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_with_brute_force(
        self, num_items, dimension, k, seed, sparse
    ):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(num_items, dimension))
        weights = rng.normal(size=dimension)
        if sparse and dimension > 1:
            weights[rng.integers(0, dimension)] = 0.0
        scores = matrix @ weights
        expected = np.lexsort((np.arange(num_items), -scores))[
            : min(k, num_items)
        ].tolist()
        for engine_cls in (NaiveTopK, BlockedMatrixTopK, ThresholdTopK):
            result = engine_cls(matrix).top_k(weights, k)
            assert [item for item, __ in result] == expected, engine_cls.__name__


class TestScalarLegEqualsBatchedLeg:
    """``service.predict`` answers the reactor's inline serves;
    ``predict_batch`` answers the same lone request when a worker takes
    it. Two copies of one deployment, driven by the same operations, one
    through each leg; at the wider dimension the model caches predictions."""

    KNOWN, PRISTINE, UNKNOWN = range(0, 3), range(3, 6), range(100, 103)

    @staticmethod
    def _deploy(seed: int, cache_capacity: int, dimension: int):
        from repro import Velox, VeloxConfig
        from repro.core.models import MatrixFactorizationModel

        rng = np.random.default_rng(seed)
        model = MatrixFactorizationModel(
            "m", rng.normal(size=(8, dimension - 2)), rng.normal(size=8), 3.0
        )
        velox = Velox.deploy(
            VeloxConfig(num_nodes=2, prediction_cache_capacity=cache_capacity),
            auto_retrain=False,
        )
        velox.add_model(
            model,
            initial_user_weights={
                uid: rng.normal(size=model.dimension) for uid in range(6)
            },
        )
        for uid in TestScalarLegEqualsBatchedLeg.KNOWN:
            velox.observe(uid, int(rng.integers(8)), float(rng.normal()))
        return velox

    @given(
        seed=st.integers(0, 1_000),
        cache_capacity=st.sampled_from([0, 2, 1_000]),
        dimension=st.sampled_from([5, PREDICTION_CACHE_MIN_DIMENSION]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["predict", "predict", "observe"]),
                st.sampled_from([*KNOWN, *PRISTINE, *UNKNOWN]),
                st.integers(0, 7),
                st.floats(-2, 2, allow_nan=False),
            ),
            min_size=1,
            max_size=25,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_answers_same_flags_same_cache(
        self, seed, cache_capacity, dimension, ops
    ):
        scalar = self._deploy(seed, cache_capacity, dimension)
        batched = self._deploy(seed, cache_capacity, dimension)
        for op, uid, item, label in ops:
            if op == "observe":
                scalar.observe(uid, item, label)
                batched.observe(uid, item, label)
                continue
            one = scalar.service.predict("m", uid, item)
            (row,) = batched.service.predict_batch("m", [uid], [item])
            assert one.score == pytest.approx(row.score, abs=1e-12)
            assert (
                one.item, one.uncertainty, one.node_id, one.stale,
                one.feature_cache_hit, one.prediction_cache_hit,
            ) == (
                row.item, row.uncertainty, row.node_id, row.stale,
                row.feature_cache_hit, row.prediction_cache_hit,
            )
        for ours, theirs in zip(
            scalar.service.prediction_caches, batched.service.prediction_caches
        ):
            ours, theirs = list(ours.items()), list(theirs.items())
            assert [key for key, _ in ours] == [key for key, _ in theirs]
            for (_, (score, spread)), (_, (score_b, spread_b)) in zip(ours, theirs):
                assert score == pytest.approx(score_b, abs=1e-12)
                assert spread == spread_b
