"""The Velox model predictor: low-latency ``predict`` and ``top_k``.

Implements the serving half of the architecture (paper Section 5):

* requests are routed to the node owning the user's weight partition,
  so user-weight reads are local by construction,
* item features are served through a per-node LRU **feature cache**
  (materialized features additionally charge modeled network cost on a
  miss, since the feature table is partitioned across the cluster),
* final scores are served through a per-node **prediction cache** keyed
  by (model, version, uid, item) — the 100%-hit configuration of this
  cache is Figure 4's ``cache`` series — for the models whose scoring
  costs more than a hit (:func:`caches_predictions`),
* ``top_k`` accepts a bandit policy that ranks by score-plus-uncertainty
  rather than raw score (Section 5, "Bandits and Multiple Models").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.common.config import VeloxConfig
from repro.common.errors import (
    ModelNotFoundError,
    PartitionError,
    UserNotFoundError,
    ValidationError,
)
from repro.core.bandits import BanditPolicy, GreedyPolicy
from repro.core.model import ModelRegistry
from repro.core.online import UserModelState
from repro.metrics.latency import LatencyRecorder
from repro.store.lru import LRUCache


def item_cache_key(x: object) -> object:
    """A hashable cache key for an item input.

    Ints/floats/strings/tuples key themselves; numpy arrays are keyed by
    a digest of their bytes (computed features for the same input hit the
    same cache line, as the paper's computational-feature caching needs).
    Scalar floats are accepted so computed models over a single numeric
    feature can be served over the wire.
    """
    if isinstance(x, (int, float, str, bool)):
        return x
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, tuple):
        return x
    if isinstance(x, np.ndarray):
        digest = hashlib.blake2b(
            x.tobytes() + str(x.shape).encode(), digest_size=16
        ).hexdigest()
        return ("ndarray", digest)
    raise ValidationError(f"cannot derive a cache key for item input {x!r}")


#: Feature dimension from which a materialized model's predictions are
#: cached. Below it a prediction is one feature row and a d-wide dot
#: product, and a hit saves too little to pay for the misses (DESIGN.md
#: §4, "Which models cache predictions").
PREDICTION_CACHE_MIN_DIMENSION = 1024


def caches_predictions(model) -> bool:
    """Whether ``model``'s predictions go through the prediction cache:
    computed features always, a materialized row only when wide."""
    return not model.materialized or model.dimension >= PREDICTION_CACHE_MIN_DIMENSION


def _prediction_key(model, uid: int, state, item_key: object) -> tuple:
    """The prediction-cache key. The user's weight_version is part of
    it, so entries from before an online weight update never hit."""
    weight_version = state.weight_version if state is not None else 0
    return (model.name, model.version, uid, weight_version, item_key)


@dataclass(frozen=True)
class PredictionResult:
    """One scored item, with serving provenance for the benchmarks."""

    item: object
    score: float
    uncertainty: float = 0.0
    node_id: int = 0
    feature_cache_hit: bool = False
    prediction_cache_hit: bool = False
    modeled_network_latency: float = 0.0
    #: True when the user's weights were served by a promoted follower
    #: that had not received the full journal at promotion time — the
    #: bounded-staleness flag replication surfaces to clients.
    stale: bool = False


def _cached_result(
    x: object, cached: tuple, node_id: int, latency: float, stale: bool
) -> PredictionResult:
    """A prediction-cache hit. Entries carry (score, uncertainty) so
    bandit policies keep working across hits."""
    score, uncertainty = cached
    return PredictionResult(
        x, score, uncertainty, node_id, prediction_cache_hit=True,
        modeled_network_latency=latency, stale=stale,
    )


class PredictionService:
    """Serves predictions against the current registry state.

    One service instance models the predictor processes of the whole
    cluster: it keeps a feature cache and a prediction cache *per node*
    and consults the cluster's router for every request, so cache hit
    rates and locality behave as they would in the real deployment.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        cluster,
        user_state_table_for,
        config: VeloxConfig,
        bootstrap_lookup=None,
    ):
        self.registry = registry
        self.cluster = cluster
        self._user_state_table_for = user_state_table_for
        self.config = config
        #: callable(model_name) -> UserWeightAverager | None; per-model
        #: because each model has its own weight space/dimension.
        self.bootstrap_lookup = bootstrap_lookup
        self.feature_caches = [
            LRUCache(config.feature_cache_capacity) for _ in cluster.nodes
        ]
        self.prediction_caches = [
            LRUCache(config.prediction_cache_capacity) for _ in cluster.nodes
        ]
        # Indexed top-K engines, one per (model, version) — Section 8's
        # "more efficient top-K support"; built lazily on first use.
        self._topk_engines: dict[tuple[str, int], object] = {}
        # Per-model serving-latency recorders (reporting/SLO monitoring).
        self.serving_latency: dict[str, LatencyRecorder] = {}
        # Whole-batch latency recorders for the vectorized path, keyed by
        # model name (one sample per predict_batch call).
        self.batch_serving_latency: dict[str, LatencyRecorder] = {}

    # -- cache plumbing -----------------------------------------------------

    def get_features(
        self, model, x: object, node_id: int
    ) -> tuple[np.ndarray, bool, float]:
        """Fetch/compute f(x) through the node's feature cache.

        Returns ``(features, cache_hit, modeled_network_latency)``. A
        miss on a materialized model charges a remote fetch when the
        item's feature-table shard lives on another node.
        """
        cache = self.feature_caches[node_id]
        key = (model.name, model.version, item_cache_key(x))
        hit = cache.get(key)
        if hit is not None:
            return hit, True, 0.0
        network_latency = 0.0
        if model.materialized:
            network_latency = self.cluster.charge_item_access(
                node_id, item_cache_key(x), model.dimension * 8
            )
        features = model.validate_features(model.features(x))
        cache.put(key, features)
        return features, False, network_latency

    def features_on_hand(self, model_name: str, x: object) -> bool:
        """Whether scoring ``x`` costs at most a table row, whichever
        node serves it.

        True for a materialized model (a miss is one row of the feature
        table) and for a computed model whose f(x) is in the feature
        cache of every alive node: the router, or a failover inside the
        read, picks the serving node, and a miss there runs the feature
        function, which may cost anything. False for an unknown model or
        an item no cache key can be derived for: the scoring path
        reports those. Reads the caches without touching recency or
        statistics.
        """
        try:
            model = self.registry.get(model_name)
            if model.materialized:
                return True
            key = (model.name, model.version, item_cache_key(x))
        except (ModelNotFoundError, ValidationError):
            return False
        return all(
            key in cache
            for node, cache in zip(self.cluster.nodes, self.feature_caches)
            if node.alive
        )

    def _user_weights(self, model, uid: int, node_id: int) -> tuple[np.ndarray, UserModelState | None, float]:
        """Read the user's weights (and state, when it exists).

        Unknown users fall back to the bootstrap average (paper Section
        5, "Bootstrapping") or the model's initial weights; with
        ``bootstrap_new_users=False`` they raise
        :class:`UserNotFoundError` instead.
        """
        table = self._user_state_table_for(model.name)
        network_latency = self.cluster.charge_user_access(
            node_id, uid, model.dimension * 8
        )
        # Read in place, no state decode: pristine users get the policy's
        # shared shim, with the ``weight_version`` and ``uncertainty`` the
        # materialized state would carry.
        read = table.read_weights(uid)
        if read is not None:
            return read.weights, read.state, network_latency
        return self._bootstrap_weights(model, uid, network_latency)

    def _bootstrap_weights(self, model, uid: int, network_latency: float):
        """The unknown-user fallback leg of :meth:`_user_weights`."""
        if not self.config.bootstrap_new_users:
            raise UserNotFoundError(uid)
        averager = (
            self.bootstrap_lookup(model.name)
            if self.bootstrap_lookup is not None
            else None
        )
        if averager is not None and len(averager):
            return averager.mean(), None, network_latency
        return model.initial_user_weights(), None, network_latency

    # -- replication awareness ----------------------------------------------

    def _read_is_stale(self, uid: int) -> bool:
        """Whether this uid's weights are being served bounded-stale
        (a lagging follower was promoted for the user's partition)."""
        replication = getattr(self.cluster, "replication", None)
        if replication is None:
            return False
        return replication.user_read_is_stale(self.cluster.owner_of_user(uid))

    def _serve_with_failover(self, fn):
        """Run a read, retrying once after follower promotion.

        A :class:`PartitionError` in the serving path is direct evidence
        the partition's owner is gone. With replication enabled the
        error is reported (promoting the first alive follower
        immediately — failover latency is bounded by the serving path,
        not the heartbeat interval) and the read retried against the
        promoted replica; without replication it propagates unchanged.
        """
        try:
            return fn()
        except PartitionError:
            from repro.replication.manager import report_dead_nodes

            if not report_dead_nodes(self.cluster):
                raise
            return fn()

    # -- the Listing 1 surface --------------------------------------------------

    def predict(self, model_name: str, uid: int, x: object) -> PredictionResult:
        """Point prediction for (user, item): returns the item and score.

        Successful predictions are timed into the per-model
        :class:`~repro.metrics.LatencyRecorder` read by the reporting
        layer.
        """
        recorder = self.serving_latency.get(model_name)
        if recorder is None:
            recorder = LatencyRecorder(f"predict:{model_name}")
            self.serving_latency[model_name] = recorder
        with recorder.time():
            return self._serve_with_failover(
                lambda: self._predict(model_name, uid, x)
            )

    def _predict(self, model_name: str, uid: int, x: object) -> PredictionResult:
        model = self.registry.get(model_name)
        node = self.cluster.router.route(uid)
        node.stats.requests_served += 1
        # User weights are read first (a local lookup under user-aware
        # routing): their version keys the prediction cache.
        weights, state, user_latency = self._user_weights(model, uid, node.node_id)
        stale = self._read_is_stale(uid)
        cache_key = None
        if caches_predictions(model):
            cache_key = _prediction_key(model, uid, state, item_cache_key(x))
            cached = self.prediction_caches[node.node_id].get(cache_key)
            if cached is not None:
                return _cached_result(x, cached, node.node_id, user_latency, stale)
        features, feature_hit, item_latency = self.get_features(
            model, x, node.node_id
        )
        if not feature_hit:
            node.stats.remote_feature_fetches += int(item_latency > 0)
        score = float(weights @ features)
        uncertainty = state.uncertainty(features) if state is not None else 0.0
        if cache_key is not None:
            self.prediction_caches[node.node_id].put(cache_key, (score, uncertainty))
        return PredictionResult(
            item=x,
            score=score,
            uncertainty=uncertainty,
            node_id=node.node_id,
            feature_cache_hit=feature_hit,
            modeled_network_latency=user_latency + item_latency,
            stale=stale,
        )

    def predict_batch(
        self, model_name: str, user_ids: list[int], xs: list
    ) -> list[PredictionResult]:
        """Score a whole batch of (user, item) pairs in one pass.

        The vectorized fast path behind the serving engine's adaptive
        batcher: user weights and item features are each looked up once
        per distinct key across the batch, and every row the prediction
        cache does not answer is scored by a single stacked numpy product
        instead of N scalar ``predict`` calls. Results are positionally
        aligned with the inputs and identical (within float tolerance) to
        N scalar ``predict`` calls.
        """
        if len(user_ids) != len(xs):
            raise ValidationError(
                f"predict_batch got {len(user_ids)} user ids "
                f"but {len(xs)} items"
            )
        if not user_ids:
            return []
        recorder = self.batch_serving_latency.get(model_name)
        if recorder is None:
            recorder = LatencyRecorder(f"predict_batch:{model_name}")
            self.batch_serving_latency[model_name] = recorder
        with recorder.time():
            return self._serve_with_failover(
                lambda: self._predict_batch(model_name, list(user_ids), list(xs))
            )

    def _predict_batch(
        self, model_name: str, user_ids: list[int], xs: list
    ) -> list[PredictionResult]:
        model = self.registry.get(model_name)
        n = len(user_ids)
        nodes = [self.cluster.router.route(uid) for uid in user_ids]
        for node in nodes:
            node.stats.requests_served += 1
        item_keys = [item_cache_key(x) for x in xs]
        # One weight/state read (and one staleness check) per distinct
        # user in the batch: every distinct user resolves in one
        # fancy-index gather per partition; the per-user network charge
        # (a modeled cost, not a real read) is unchanged.
        table = self._user_state_table_for(model.name)
        batch_reads = table.read_weights_batch(list(dict.fromkeys(user_ids)))
        weights_by_uid: dict[int, tuple] = {}
        stale_by_uid: dict[int, bool] = {}
        for i, uid in enumerate(user_ids):
            if uid not in weights_by_uid:
                latency = self.cluster.charge_user_access(
                    nodes[i].node_id, uid, model.dimension * 8
                )
                read = batch_reads.get(uid)
                weights_by_uid[uid] = (
                    (read.weights, read.state, latency)
                    if read is not None
                    else self._bootstrap_weights(model, uid, latency)
                )
                stale_by_uid[uid] = self._read_is_stale(uid)
        results: list[PredictionResult | None] = [None] * n
        # (batch index, cache key): the rows left to score.
        misses: list[tuple[int, tuple | None]] = []
        if caches_predictions(model):
            for i, uid in enumerate(user_ids):
                _, state, user_latency = weights_by_uid[uid]
                cache_key = _prediction_key(model, uid, state, item_keys[i])
                cached = self.prediction_caches[nodes[i].node_id].get(cache_key)
                if cached is None:
                    misses.append((i, cache_key))
                else:
                    results[i] = _cached_result(
                        xs[i], cached, nodes[i].node_id, user_latency,
                        stale_by_uid[uid],
                    )
            if not misses:
                return results
        else:
            misses = [(i, None) for i in range(n)]
        # One feature fetch per distinct (node, item) among the misses.
        features_by_key: dict[tuple, tuple] = {}
        for i, _ in misses:
            feature_key = (nodes[i].node_id, item_keys[i])
            if feature_key not in features_by_key:
                fetched = self.get_features(model, xs[i], nodes[i].node_id)
                features_by_key[feature_key] = fetched
                if not fetched[1]:
                    nodes[i].stats.remote_feature_fetches += int(fetched[2] > 0)
        # One stacked product scores every miss at once.
        weight_rows = np.stack([weights_by_uid[user_ids[i]][0] for i, _ in misses])
        feature_rows = np.stack(
            [features_by_key[(nodes[i].node_id, item_keys[i])][0] for i, _ in misses]
        )
        scores = np.einsum("ij,ij->i", weight_rows, feature_rows)
        for row, (i, cache_key) in enumerate(misses):
            uid = user_ids[i]
            _, state, user_latency = weights_by_uid[uid]
            features, feature_hit, item_latency = features_by_key[
                (nodes[i].node_id, item_keys[i])
            ]
            score = float(scores[row])
            uncertainty = (
                state.uncertainty(features) if state is not None else 0.0
            )
            if cache_key is not None:
                self.prediction_caches[nodes[i].node_id].put(
                    cache_key, (score, uncertainty)
                )
            results[i] = PredictionResult(
                item=xs[i],
                score=score,
                uncertainty=uncertainty,
                node_id=nodes[i].node_id,
                feature_cache_hit=feature_hit,
                modeled_network_latency=user_latency + item_latency,
                stale=stale_by_uid[uid],
            )
        return results

    def predict_cached(
        self, model_name: str, uid: int, x: object
    ) -> PredictionResult | None:
        """Prediction-cache-only lookup: a hit or ``None``, never compute.

        The degraded serving path used under overload — answers what the
        cache already knows without paying feature or scoring cost. A
        model that does not cache (:func:`caches_predictions`) always
        answers ``None``, without a read or a cache lock.
        """
        return self._serve_with_failover(
            lambda: self._predict_cached(model_name, uid, x)
        )

    def _predict_cached(
        self, model_name: str, uid: int, x: object
    ) -> PredictionResult | None:
        model = self.registry.get(model_name)
        if not caches_predictions(model):
            return None
        node = self.cluster.router.route(uid)
        read = self._user_state_table_for(model.name).read_weights(uid)
        cache_key = _prediction_key(
            model, uid, read.state if read is not None else None,
            item_cache_key(x),
        )
        cached = self.prediction_caches[node.node_id].get(cache_key)
        if cached is None:
            return None
        node.stats.requests_served += 1
        return _cached_result(x, cached, node.node_id, 0.0, self._read_is_stale(uid))

    def top_k_cached(
        self,
        model_name: str,
        uid: int,
        items: list,
        k: int = 1,
        policy: BanditPolicy | None = None,
    ) -> list[PredictionResult]:
        """Best-k among the *cached* subset of the candidates.

        May return fewer than ``k`` results (or none on a cold cache, or
        for a model that does not cache): graceful degradation under
        overload trades coverage for bounded latency.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if not caches_predictions(self.registry.get(model_name)):
            return []
        hits = (self.predict_cached(model_name, uid, x) for x in items)
        results = [hit for hit in hits if hit is not None]
        active_policy = policy if policy is not None else GreedyPolicy()
        ranked = sorted(
            results,
            key=lambda r: active_policy.selection_score(r.score, r.uncertainty),
            reverse=True,
        )
        return ranked[:k]

    def top_k(
        self,
        model_name: str,
        uid: int,
        items: list,
        k: int = 1,
        policy: BanditPolicy | None = None,
        item_filter=None,
    ) -> list[PredictionResult]:
        """Best ``k`` of the provided items for this user.

        With the default greedy policy, ranking is by predicted score.
        A bandit policy ranks by its own selection score (e.g. LinUCB's
        score + alpha * uncertainty) to trade exploitation for learning
        (paper Section 5); returned results preserve the true predicted
        score in ``score``. ``item_filter(x) -> bool`` pre-filters the
        candidate set before any scoring — the paper's "pre-filtering
        items according to application level policies".

        Scoring runs through the vectorized :meth:`predict_batch` path:
        one user-weight lookup for the whole candidate set and one
        stacked numpy product over every row the prediction cache does
        not answer, instead of a Python loop of scalar ``predict`` calls.
        Results are identical (within float tolerance) to the scalar loop.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if item_filter is not None:
            items = [x for x in items if item_filter(x)]
        if not items:
            return []
        active_policy = policy if policy is not None else GreedyPolicy()
        results = self.predict_batch(model_name, [uid] * len(items), list(items))
        ranked = sorted(
            results,
            key=lambda r: active_policy.selection_score(r.score, r.uncertainty),
            reverse=True,
        )
        return ranked[:k]

    def top_k_catalog(
        self, model_name: str, uid: int, k: int = 10, engine_cls=None
    ) -> list[PredictionResult]:
        """Exact top-k over the model's *entire* item catalog.

        Uses an indexed engine (default: one blocked matrix-vector
        product, :class:`~repro.core.topk.BlockedMatrixTopK`) instead of
        the per-item serving loop — the paper's Section 8 "more
        efficient top-K support for our linear modeling tasks". Only
        materialized models have a finite catalog to index.
        """
        from repro.core.topk import BlockedMatrixTopK, TopKEngine

        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        model = self.registry.get(model_name)
        cls = engine_cls or BlockedMatrixTopK
        cache_key = (model.name, model.version, cls.__name__)
        engine: TopKEngine = self._topk_engines.get(cache_key)
        if engine is None:
            engine = cls.from_model(model)
            self._topk_engines[cache_key] = engine
        node = self.cluster.router.route(uid)
        node.stats.requests_served += 1
        weights, state, user_latency = self._user_weights(model, uid, node.node_id)
        return [
            PredictionResult(
                item=item,
                score=score,
                uncertainty=(
                    state.uncertainty(model.features(item)) if state is not None else 0.0
                ),
                node_id=node.node_id,
                modeled_network_latency=user_latency,
            )
            for item, score in engine.top_k(weights, k)
        ]

    # -- cache maintenance (used by the manager on model swap) -----------------

    def invalidate_model(self, model_name: str) -> None:
        """Drop every cache entry belonging to ``model_name``."""
        for cache in self.feature_caches + self.prediction_caches:
            cache.invalidate_if(lambda key: key[0] == model_name)
        for key in [k for k in self._topk_engines if k[0] == model_name]:
            del self._topk_engines[key]

    def cached_feature_items(self, model_name: str) -> list[tuple[int, object]]:
        """(node_id, item_key) pairs currently in feature caches — the
        hot set the batch system precomputes for repopulation."""
        pairs = []
        for node_id, cache in enumerate(self.feature_caches):
            for key in cache.keys():
                if key[0] == model_name:
                    pairs.append((node_id, key[2]))
        return pairs

    def cached_predictions(self, model_name: str) -> list[tuple[int, int, object]]:
        """(node_id, uid, item_key) triples currently in prediction caches
        (none, and no key scan, for a model that does not cache)."""
        triples = []
        if not caches_predictions(self.registry.get(model_name)):
            return triples
        for node_id, cache in enumerate(self.prediction_caches):
            for key in cache.keys():
                if key[0] == model_name:
                    triples.append((node_id, key[2], key[4]))
        return triples

    def repopulate(self, model, hot_features, hot_predictions, table) -> int:
        """Drop ``model``'s entries, then rebuild the hot set under it
        (the swap after a retrain, paper Section 4.2); returns the count.

        Computed-feature keys are content digests whose raw inputs are
        gone, so only materialized (item-id-keyed) entries are rebuilt,
        the practical limit the paper notes for hot-set drift after
        retraining; predictions only for a model that caches them.
        """
        self.invalidate_model(model.name)
        if not model.materialized:
            return 0
        num_items = getattr(model, "num_items", 0)

        def in_catalog(item) -> bool:
            return isinstance(item, (int, np.integer)) and 0 <= item < num_items

        repopulated = 0
        for node_id, item in hot_features:
            if in_catalog(item):
                self.feature_caches[node_id].put(
                    (model.name, model.version, int(item)),
                    model.validate_features(model.features(int(item))),
                )
                repopulated += 1
        if not caches_predictions(model):
            return repopulated
        for node_id, uid, item in hot_predictions:
            state = table.get_or_default(uid) if in_catalog(item) else None
            if state is None:
                continue
            features = model.features(int(item))
            self.prediction_caches[node_id].put(
                _prediction_key(model, uid, state, int(item)),
                (float(state.weights @ features), state.uncertainty(features)),
            )
            repopulated += 1
        return repopulated

    def cache_stats(self) -> dict:
        """Aggregate cache statistics across nodes."""
        def total(caches, attr):
            """Sum one stats attribute across caches."""
            return sum(getattr(c.stats, attr) for c in caches)

        return {
            "feature_hits": total(self.feature_caches, "hits"),
            "feature_misses": total(self.feature_caches, "misses"),
            "prediction_hits": total(self.prediction_caches, "hits"),
            "prediction_misses": total(self.prediction_caches, "misses"),
        }
