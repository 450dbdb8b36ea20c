"""PredictionService: predict/topK, caches, routing, bootstrap."""

import numpy as np
import pytest

from repro import Velox, VeloxConfig
from repro.common.errors import UserNotFoundError, ValidationError
from repro.core.bandits import GreedyPolicy, LinUcbPolicy
from repro.core.models import MatrixFactorizationModel, PersonalizedLinearModel
from repro.core.prediction import (
    PREDICTION_CACHE_MIN_DIMENSION,
    caches_predictions,
    item_cache_key,
)
from tests.conftest import make_initial_weights, make_mf_model


class TestPredict:
    def test_score_matches_manual_computation(self, deployed_velox, trained_als):
        model = deployed_velox.model()
        uid = next(iter(trained_als.user_factors))
        result = deployed_velox.predict_detailed(None, uid, 3)
        expected = float(
            model.pack_user_weights(
                trained_als.user_factors[uid], trained_als.user_bias[uid]
            )
            @ model.features(3)
        )
        assert result.score == pytest.approx(expected)

    def test_predict_returns_item_and_score_tuple(self, deployed_velox):
        item, score = deployed_velox.predict(None, 0, 5)
        assert item == 5
        assert isinstance(score, float)

    def test_routed_to_owner_node(self, deployed_velox):
        for uid in range(8):
            result = deployed_velox.predict_detailed(None, uid, 1)
            assert result.node_id == uid % 2

    def test_user_weight_reads_always_local(self, deployed_velox):
        for uid in range(20):
            deployed_velox.predict(None, uid, uid % 10)
        # only item-feature fetches may be remote under user-aware routing
        stats = deployed_velox.cluster.network.stats
        user_table_accesses = 20
        assert stats.remote_accesses <= 20  # none of these are user reads
        # verify via a direct charge: serving node == owner for every uid
        assert all(
            deployed_velox.cluster.router.route(uid).node_id
            == deployed_velox.cluster.owner_of_user(uid)
            for uid in range(20)
        )


class TestPredictionCache:
    def test_second_call_hits(self, caching_velox):
        first = caching_velox.predict_detailed(None, 1, 7)
        second = caching_velox.predict_detailed(None, 1, 7)
        assert not first.prediction_cache_hit
        assert second.prediction_cache_hit
        assert second.score == first.score

    def test_observe_invalidates_user_predictions(self, caching_velox):
        before = caching_velox.predict_detailed(None, 1, 7)
        caching_velox.observe(uid=1, x=7, y=5.0)
        after = caching_velox.predict_detailed(None, 1, 7)
        assert not after.prediction_cache_hit  # weight_version changed
        assert after.score != pytest.approx(before.score)

    def test_other_users_cache_untouched_by_observe(self, caching_velox):
        caching_velox.predict_detailed(None, 2, 7)
        caching_velox.observe(uid=1, x=7, y=5.0)
        again = caching_velox.predict_detailed(None, 2, 7)
        assert again.prediction_cache_hit

    def test_disabled_cache_never_hits(self, trained_als):
        model = make_mf_model(trained_als, dimension=PREDICTION_CACHE_MIN_DIMENSION)
        velox = Velox.deploy(
            VeloxConfig(num_nodes=2, prediction_cache_capacity=0),
            auto_retrain=False,
        )
        velox.add_model(model, make_initial_weights(model, trained_als))
        velox.predict(None, 1, 7)
        result = velox.predict_detailed(None, 1, 7)
        assert not result.prediction_cache_hit


class TestWhichModelsCache:
    @pytest.mark.parametrize("dimension, cached", [(34, 0), (2048, 6)])
    def test_only_wide_materialized_models_fill_the_prediction_cache(
        self, dimension, cached
    ):
        rng = np.random.default_rng(dimension)
        model = MatrixFactorizationModel(
            "m", rng.normal(0, 0.1, (20, dimension - 2)), None, 3.0
        )
        velox = Velox.deploy(VeloxConfig(num_nodes=2), auto_retrain=False)
        velox.add_model(
            model, {uid: rng.normal(0, 0.1, dimension) for uid in range(4)}
        )
        velox.predict(None, 1, 3)
        velox.service.predict_batch("m", [1, 2], [4, 5])
        velox.top_k(None, 2, [6, 7, 8], k=2)
        assert caches_predictions(model) == bool(cached)
        assert sum(len(c) for c in velox.service.prediction_caches) == cached

    def test_computed_features_always_cache(self):
        assert caches_predictions(PersonalizedLinearModel("lin", 3))


class TestFeatureCache:
    def test_feature_cache_shared_across_users_on_same_node(self, deployed_velox):
        deployed_velox.predict(None, 0, 9)  # node 0, miss
        result = deployed_velox.predict_detailed(None, 2, 9)  # node 0, hit
        assert result.feature_cache_hit

    def test_feature_cache_not_shared_across_nodes(self, deployed_velox):
        deployed_velox.predict(None, 0, 9)  # node 0
        result = deployed_velox.predict_detailed(None, 1, 9)  # node 1
        assert not result.feature_cache_hit

    def test_remote_feature_fetch_charged_on_miss_only(self, caching_velox):
        item = 11
        node = caching_velox.cluster.owner_of_item(item)
        # pick a user served by the *other* node
        uid = 1 if node == 0 else 0
        first = caching_velox.predict_detailed(None, uid, item)
        second = caching_velox.predict_detailed(None, uid, item + 0)
        assert first.modeled_network_latency > 0
        assert second.prediction_cache_hit  # no new fetch at all


class TestBootstrapping:
    def test_unknown_user_gets_average_weights(self, deployed_velox, trained_als):
        unknown_uid = 10_000
        result = deployed_velox.predict_detailed(None, unknown_uid, 3)
        model = deployed_velox.model()
        averager = deployed_velox.manager.averager("songs")
        expected = float(averager.mean() @ model.features(3))
        assert result.score == pytest.approx(expected)
        assert result.uncertainty == 0.0  # no state yet

    def test_bootstrap_disabled_raises(self, trained_als):
        model = make_mf_model(trained_als)
        velox = Velox.deploy(
            VeloxConfig(num_nodes=2, bootstrap_new_users=False), auto_retrain=False
        )
        velox.add_model(model, make_initial_weights(model, trained_als))
        with pytest.raises(UserNotFoundError):
            velox.predict(None, 10_000, 3)

    def test_no_users_falls_back_to_model_initial(self, trained_als):
        model = make_mf_model(trained_als)
        velox = Velox.deploy(VeloxConfig(num_nodes=2), auto_retrain=False)
        velox.add_model(model)  # no initial weights at all
        result = deployed = velox.predict_detailed(None, 5, 2)
        expected = float(model.initial_user_weights() @ model.features(2))
        assert result.score == pytest.approx(expected)


class TestTopK:
    def test_returns_k_best_by_score(self, deployed_velox):
        items = list(range(20))
        results = deployed_velox.service.top_k("songs", 3, items, k=5)
        assert len(results) == 5
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        all_scores = [
            deployed_velox.predict_detailed(None, 3, i).score for i in items
        ]
        assert scores[0] == pytest.approx(max(all_scores))

    def test_k_one_default(self, deployed_velox):
        results = deployed_velox.service.top_k("songs", 3, [1, 2, 3])
        assert len(results) == 1

    def test_empty_itemset(self, deployed_velox):
        assert deployed_velox.service.top_k("songs", 3, []) == []

    def test_invalid_k(self, deployed_velox):
        with pytest.raises(ValidationError):
            deployed_velox.service.top_k("songs", 3, [1], k=0)

    def test_bandit_policy_changes_ranking(self, deployed_velox):
        """With huge exploration, LinUCB must sometimes disagree with greedy."""
        items = list(range(30))
        greedy = deployed_velox.top_k(None, 4, items, k=1, policy=GreedyPolicy())
        explore = deployed_velox.top_k(
            None, 4, items, k=1, policy=LinUcbPolicy(alpha=1000.0)
        )
        # greedy picks max score; huge-alpha LinUCB picks max uncertainty,
        # which for a user with training history is a different item here.
        assert greedy[0][0] != explore[0][0] or greedy[0][1] == explore[0][1]

    def test_item_filter_prefilters_candidates(self, deployed_velox):
        """The paper's application-level pre-filtering: excluded items
        are never scored, let alone returned."""
        results = deployed_velox.service.top_k(
            "songs", 3, list(range(20)), k=5, item_filter=lambda x: x % 2 == 0
        )
        assert all(r.item % 2 == 0 for r in results)

    def test_item_filter_can_empty_the_slate(self, deployed_velox):
        assert (
            deployed_velox.top_k(None, 3, [1, 3, 5], k=2, item_filter=lambda x: False)
            == []
        )

    def test_uncertainty_survives_prediction_cache(self, caching_velox):
        """Bandit policies must keep working on cached predictions —
        a cache hit that dropped uncertainty would silently degrade
        LinUCB to greedy (regression test)."""
        first = caching_velox.predict_detailed(None, 2, 9)
        second = caching_velox.predict_detailed(None, 2, 9)
        assert second.prediction_cache_hit
        assert second.uncertainty == pytest.approx(first.uncertainty)
        assert second.uncertainty > 0

    def test_top_k_uses_prediction_cache(self, caching_velox):
        items = list(range(10))
        caching_velox.top_k(None, 5, items, k=3)
        stats_before = caching_velox.service.cache_stats()["prediction_hits"]
        caching_velox.top_k(None, 5, items, k=3)
        stats_after = caching_velox.service.cache_stats()["prediction_hits"]
        assert stats_after - stats_before == 10


class TestItemCacheKey:
    def test_primitives_key_themselves(self):
        assert item_cache_key(5) == 5
        assert item_cache_key("abc") == "abc"
        assert item_cache_key((1, 2)) == (1, 2)

    def test_numpy_int(self):
        assert item_cache_key(np.int64(7)) == 7

    def test_ndarray_content_addressed(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.0])
        c = np.array([1.0, 3.0])
        assert item_cache_key(a) == item_cache_key(b)
        assert item_cache_key(a) != item_cache_key(c)

    def test_unhashable_rejected(self):
        with pytest.raises(ValidationError):
            item_cache_key({"dict": 1})


    def test_scalar_floats_accepted(self):
        assert item_cache_key(2.5) == 2.5
        assert item_cache_key(np.float64(2.5)) == 2.5
        assert isinstance(item_cache_key(np.float32(1.5)), float)


class TestTopKVectorized:
    """The candidate-set top_k runs through the stacked predict_batch
    path; results must match the scalar predict loop exactly."""

    def test_matches_scalar_loop(self, deployed_velox):
        service = deployed_velox.service
        items = list(range(20))
        vectorized = service.top_k("songs", 7, items, k=5)
        scalar = sorted(
            (service.predict("songs", 7, x) for x in items),
            key=lambda r: r.score,
            reverse=True,
        )[:5]
        assert [r.item for r in vectorized] == [r.item for r in scalar]
        for a, b in zip(vectorized, scalar):
            assert a.score == pytest.approx(b.score, abs=1e-9)
            assert a.uncertainty == pytest.approx(b.uncertainty, abs=1e-9)

    def test_matches_scalar_loop_under_bandit_policy(self, deployed_velox):
        service = deployed_velox.service
        items = list(range(15))
        policy = LinUcbPolicy(alpha=0.7)
        vectorized = service.top_k("songs", 3, items, k=4, policy=policy)
        scalar = sorted(
            (service.predict("songs", 3, x) for x in items),
            key=lambda r: policy.selection_score(r.score, r.uncertainty),
            reverse=True,
        )[:4]
        assert [r.item for r in vectorized] == [r.item for r in scalar]
        for a, b in zip(vectorized, scalar):
            assert a.score == pytest.approx(b.score, abs=1e-9)

    def test_single_weight_lookup_per_candidate_set(self, deployed_velox):
        """The vectorized path reads the user's weights once per call,
        not once per candidate item."""
        service = deployed_velox.service
        items = list(range(30))
        service.top_k("songs", 7, items, k=3)  # warm feature caches
        stats = deployed_velox.cluster.network.stats
        before = stats.total_accesses
        service.top_k("songs", 7, items, k=3)
        # one user-weight access for the whole candidate set; every
        # feature access hits the warmed cache
        assert stats.total_accesses - before == 1
