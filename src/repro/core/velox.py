"""The Velox deployment facade.

Wires the whole architecture of Figure 2 — cluster, storage, batch
context, model manager, prediction service — behind the three-method
front-end API of Listing 1::

    velox = Velox.deploy(VeloxConfig(num_nodes=4))
    velox.add_model(model, initial_user_weights=weights)
    item, score = velox.predict("songs", uid=7, x=42)
    best = velox.top_k("songs", uid=7, xs=[1, 2, 3], k=2)
    velox.observe(uid=7, x=42, y=4.5, model_name="songs")
"""

from __future__ import annotations

import numpy as np

from repro.common.config import VeloxConfig
from repro.batch import BatchContext
from repro.cluster import VeloxCluster, NetworkModel
from repro.core.bandits import BanditPolicy
from repro.core.manager import ModelManager, ObserveResult, RetrainEvent
from repro.core.model import ModelRegistry, VeloxModel
from repro.core.prediction import PredictionService, PredictionResult


class Velox:
    """One deployed Velox instance: manager + predictor over a cluster."""

    def __init__(
        self,
        config: VeloxConfig,
        cluster: VeloxCluster,
        batch_context: BatchContext,
        auto_retrain: bool = True,
    ):
        self.config = config
        self.cluster = cluster
        self.batch_context = batch_context
        self.registry = ModelRegistry()
        self.manager = ModelManager(
            registry=self.registry,
            cluster=cluster,
            service=None,  # set right below; manager & service are co-dependent
            batch_context=batch_context,
            config=config,
            auto_retrain=auto_retrain,
        )
        self.service = PredictionService(
            registry=self.registry,
            cluster=cluster,
            user_state_table_for=self.manager.user_state_table,
            config=config,
            bootstrap_lookup=self.manager.averagers.get,
        )
        self.manager.service = self.service
        # The analytics tier attaches its log listener before any model
        # deploys, so every per-model observation log gets an MV catalog
        # the moment add_model creates it.
        self.analytics = None
        if config.analytics:
            from repro.analytics import AnalyticsEngine

            self.analytics = AnalyticsEngine(cluster.store)
        self._default_model: str | None = None

    @classmethod
    def deploy(
        cls,
        config: VeloxConfig | None = None,
        router_factory=None,
        batch_parallelism: int | None = None,
        auto_retrain: bool = True,
    ) -> "Velox":
        """Stand up a simulated deployment from a config."""
        cfg = config if config is not None else VeloxConfig()
        network = NetworkModel(
            hop_latency=cfg.remote_hop_latency, bandwidth=cfg.remote_bandwidth
        )
        cluster = VeloxCluster(
            num_nodes=cfg.num_nodes, router_factory=router_factory, network=network
        )
        if cfg.replication_factor > 1:
            from repro.replication import ReplicationManager

            replication = ReplicationManager(
                cluster, replication_factor=cfg.replication_factor
            )
            # Attach before any model deploys so every user-state table
            # created later gets replica sets via the store listener.
            cluster.attach_replication(replication)
            replication.start()
        batch_context = BatchContext(
            default_parallelism=batch_parallelism or cfg.num_nodes,
            executor=cfg.batch_executor,
        )
        return cls(cfg, cluster, batch_context, auto_retrain=auto_retrain)

    # -- model deployment -------------------------------------------------------

    def add_model(
        self,
        model: VeloxModel,
        initial_user_weights: dict[int, np.ndarray] | None = None,
        seed_observations: list | None = None,
    ) -> None:
        """Deploy a model; the first deployed model becomes the default.

        ``seed_observations`` loads historical training data into the
        observation log so future retrains see the full corpus.
        """
        self.manager.add_model(
            model, initial_user_weights, seed_observations=seed_observations
        )
        if self._default_model is None:
            self._default_model = model.name

    def model(self, name: str | None = None) -> VeloxModel:
        """The currently serving model object (default model if unnamed)."""
        return self.registry.get(self._model_name(name))

    # -- the Listing 1 API ----------------------------------------------------------

    def predict(
        self, model_name: str | None, uid: int, x: object
    ) -> tuple[object, float]:
        """Point prediction: returns ``(item, score)`` as in Listing 1."""
        result = self.predict_detailed(model_name, uid, x)
        return result.item, result.score

    def predict_detailed(
        self, model_name: str | None, uid: int, x: object
    ) -> PredictionResult:
        """Point prediction with serving provenance (cache hits, node)."""
        return self.service.predict(self._model_name(model_name), uid, x)

    def top_k(
        self,
        model_name: str | None,
        uid: int,
        xs: list,
        k: int = 1,
        policy: BanditPolicy | None = None,
        item_filter=None,
    ) -> list[tuple[object, float]]:
        """Best-k of the candidate items, optionally bandit-ranked and
        pre-filtered by an application-level policy."""
        results = self.service.top_k(
            self._model_name(model_name),
            uid,
            xs,
            k=k,
            policy=policy,
            item_filter=item_filter,
        )
        return [(r.item, r.score) for r in results]

    def top_k_catalog(
        self, model_name: str | None, uid: int, k: int = 10
    ) -> list[tuple[object, float]]:
        """Exact best-k over the model's whole catalog via the indexed
        top-K engine (Section 8's efficient top-K)."""
        results = self.service.top_k_catalog(self._model_name(model_name), uid, k=k)
        return [(r.item, r.score) for r in results]

    def observe(
        self,
        uid: int,
        x: object,
        y: float,
        model_name: str | None = None,
        validation: bool = False,
    ) -> ObserveResult:
        """Feedback ingestion: online update + quality tracking."""
        return self.manager.observe(
            self._model_name(model_name), uid, x, y, validation=validation
        )

    # -- lifecycle passthroughs --------------------------------------------------------

    def retrain(self, model_name: str | None = None, reason: str = "manual") -> RetrainEvent:
        """Offline retrain, waited for; returns the RetrainEvent."""
        return self.manager.retrain_now(self._model_name(model_name), reason=reason)

    def retrain_async(self, model_name: str | None = None, reason: str = "background"):
        """Kick off a background retrain; serving continues. Returns a
        :class:`concurrent.futures.Future` of the
        :class:`~repro.core.manager.RetrainEvent`."""
        return self.manager.retrain_async(self._model_name(model_name), reason=reason)

    def rollback(self, version: int, model_name: str | None = None) -> VeloxModel:
        """Revive a historical version as a new forward version."""
        return self.manager.rollback(self._model_name(model_name), version)

    def health(self, model_name: str | None = None):
        """The model's live health tracker."""
        return self.manager.health_report(self._model_name(model_name))

    # -- analytics ----------------------------------------------------------------------

    def analytics_query(
        self, query, model_name: str | None = None, force_scan: bool = False
    ):
        """Run one :class:`~repro.analytics.AnalyticsQuery` against a
        model's observation log; returns an
        :class:`~repro.analytics.AnalyticsResult` carrying its plan.

        ``force_scan=True`` bypasses the materialized views (the audit /
        ablation path). Raises :class:`~repro.common.errors.ConfigError`
        when the deployment was configured with ``analytics=False``.
        """
        return self._analytics_engine().query(
            self._analytics_log_name(model_name), query, force_scan=force_scan
        )

    def analytics_integrity(
        self, model_name: str | None = None, tolerance: float = 0.0
    ):
        """Replay a model's MV catalog against its log; returns an
        :class:`~repro.analytics.IntegrityReport`."""
        return self._analytics_engine().integrity(
            self._analytics_log_name(model_name), tolerance=tolerance
        )

    def _analytics_engine(self):
        if self.analytics is None:
            from repro.common.errors import ConfigError

            raise ConfigError(
                "analytics is disabled for this deployment "
                "(VeloxConfig.analytics=False)"
            )
        return self.analytics

    def _analytics_log_name(self, model_name: str | None) -> str:
        return self.manager._log_name(self._model_name(model_name))

    # -- replication ---------------------------------------------------------------------

    @property
    def replication(self):
        """The cluster's :class:`~repro.replication.ReplicationManager`
        (None when ``replication_factor == 1``)."""
        return self.cluster.replication

    def shutdown(self) -> None:
        """Stop background machinery (the replication heartbeat loop).

        Idempotent; deployments without replication have nothing to stop.
        """
        if self.cluster.replication is not None:
            self.cluster.replication.stop()

    # -- serving under load -------------------------------------------------------------

    def serving_engine(self, config=None, clock=None):
        """A :class:`~repro.serving.ServingEngine` over this deployment.

        The engine adds request queues, adaptive batching, and load
        shedding in front of the prediction service; call ``start()``
        (or use it as a context manager) before submitting::

            with velox.serving_engine(ServingConfig(num_workers=4)) as eng:
                result = eng.predict(uid=7, x=42)
        """
        from repro.serving import ServingEngine

        return ServingEngine(self, config=config, clock=clock)

    # -- persistence --------------------------------------------------------------------

    def save(self, directory) -> "Path":
        """Persist the whole deployment (store, models, config) to disk."""
        from repro.core.deployment_io import save_deployment

        return save_deployment(self, directory)

    @classmethod
    def load(cls, directory) -> "Velox":
        """Rebuild a deployment saved with :meth:`save`."""
        from repro.core.deployment_io import load_deployment

        return load_deployment(directory)

    # -- helpers -----------------------------------------------------------------------

    def _model_name(self, name: str | None) -> str:
        if name is not None:
            return name
        if self._default_model is None:
            from repro.common.errors import ModelNotFoundError

            raise ModelNotFoundError("<default>")
        return self._default_model
