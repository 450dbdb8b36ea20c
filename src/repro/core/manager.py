"""The Velox model manager: lifecycle orchestration (paper Section 4).

Responsibilities, mapping to the paper's list:

* **Feedback and data collection (4.1)** — ``observe`` appends to the
  durable observation log and triggers the online update.
* **Offline + online learning (4.2)** — online per-user updates through
  the configured updater; offline retraining of θ delegated to the
  batch substrate via ``VeloxModel.retrain``, followed by cache
  repopulation.
* **Model evaluation (4.3)** — per-model health tracking (running loss
  aggregates, a recent-loss window, progressive cross-validation, and a
  bandit-collected validation pool); staleness detection triggers
  retraining automatically.
* **Lifecycle** — version history, rollback, and retrain event records.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import RLock

import numpy as np

from repro.common.config import VeloxConfig
from repro.common.errors import PartitionError, ValidationError
from repro.core.model import ModelRegistry, VeloxModel
from repro.core.online import UserModelState, make_updater, user_state_policy
from repro.core.bootstrap import UserWeightAverager
from repro.metrics.streaming import StreamingMeanVar, WindowedMean
from repro.store.oblog import Observation
from repro.store.slab import ArrayMapping

_log = logging.getLogger(__name__)


@dataclass
class ModelHealth:
    """Quality-monitoring state for one deployed model.

    ``baseline`` freezes over the first ``window`` losses after each
    (re)deployment; ``recent`` is a sliding window. The model is stale
    when the recent mean exceeds ``staleness_loss_ratio`` times the
    frozen baseline (and enough observations have been seen).
    """

    window: int
    baseline: StreamingMeanVar = field(default_factory=StreamingMeanVar)
    recent: WindowedMean = None
    cross_validation: StreamingMeanVar = field(default_factory=StreamingMeanVar)
    validation_pool: list = field(default_factory=list)
    validation_loss: StreamingMeanVar = field(default_factory=StreamingMeanVar)
    observations: int = 0

    def __post_init__(self):
        if self.recent is None:
            self.recent = WindowedMean(self.window)

    def record(self, loss: float) -> None:
        """Fold one loss into the baseline/recent trackers."""
        self.observations += 1
        self.cross_validation.update(loss)
        if self.baseline.count < self.window:
            self.baseline.update(loss)
        self.recent.update(loss)

    def record_validation_example(self, uid: int, item: object, label: float, loss: float) -> None:
        """Add a bandit-collected example to the validation pool."""
        self.validation_pool.append((uid, item, label, loss))
        self.validation_loss.update(loss)

    def is_stale(self, ratio: float, min_observations: int) -> bool:
        """Whether recent loss exceeds ``ratio`` times the baseline."""
        if self.observations < min_observations:
            return False
        if self.baseline.count < self.window or not self.recent.full:
            return False
        baseline_mean = max(self.baseline.mean, 1e-12)
        return self.recent.mean > ratio * baseline_mean

    def reset_after_retrain(self) -> None:
        """New model, new baseline; the validation pool is retained (it
        is model-independent data)."""
        self.baseline = StreamingMeanVar()
        self.recent = WindowedMean(self.window)
        self.observations = 0


@dataclass(frozen=True)
class _RetrainSnapshot:
    """Everything the offline phase and its swap consume, captured at
    trigger time. ``offset`` bounds the log prefix the job trains on;
    the swap replays the records from there on."""

    model: object
    offset: int
    weights: dict
    hot_features: list
    hot_predictions: list


@dataclass(frozen=True)
class RetrainEvent:
    """One completed offline retrain."""

    model_name: str
    new_version: int
    observations_used: int
    reason: str
    caches_repopulated: int
    #: observations actually trained on when the sampling engine was
    #: used (None = full log).
    sampled_observations: int | None = None
    #: wall-clock seconds the offline batch job took (train only, not
    #: the swap/cache repopulation).
    batch_seconds: float | None = None
    #: scheduler stages the batch job executed.
    batch_stages: int | None = None
    #: fraction of worker-seconds those stages spent computing (see
    #: :class:`repro.batch.StageProfile`).
    batch_utilization: float | None = None
    #: observes acked while the job trained, replayed at the swap.
    replayed_observations: int = 0


@dataclass(frozen=True)
class ObserveResult:
    """What one ``observe`` call did; ``retrained`` means it started a
    retrain (it never waits for the swap)."""

    loss: float
    prediction_before_update: float
    #: this observe started a retrain on the retrain worker.
    retrained: bool
    node_id: int


class ModelManager:
    """Orchestrates models' online updates, evaluation, and retraining."""

    def __init__(
        self,
        registry: ModelRegistry,
        cluster,
        service,
        batch_context,
        config: VeloxConfig,
        auto_retrain: bool = True,
    ):
        self.registry = registry
        self.cluster = cluster
        self.service = service
        self.batch_context = batch_context
        self.config = config
        self.auto_retrain = auto_retrain
        self.updater = make_updater(config.online_update_method)
        self.health: dict[str, ModelHealth] = {}
        self.averagers: dict[str, UserWeightAverager] = {}
        self.udf_warnings: dict[str, list[str]] = {}
        self.retrain_events: list[RetrainEvent] = []
        # Running retrains by model name; the one worker runs them one
        # at a time, so batch jobs never share the batch context.
        self._async_retraining: dict[str, Future] = {}
        self._retrain_worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="velox-retrain"
        )
        # Serializes the read-modify-write of user state and the model
        # swap. Writers run on several threads at once: the reactor
        # executes observes inline, the retrain worker swaps from its
        # own thread, and in-process callers observe from theirs; two
        # concurrent observes for the same user must not lose an
        # update. Predictions on the engine workers stay lock-free
        # (they only read).
        self._write_lock = RLock()

    # -- deployment -------------------------------------------------------

    def add_model(
        self,
        model: VeloxModel,
        initial_user_weights: dict[int, np.ndarray] | None = None,
        seed_observations: list[Observation] | None = None,
        note: str = "initial deployment",
    ) -> None:
        """Deploy a model: register it, create its user-state table and
        observation log, and install any offline-trained user weights.

        ``seed_observations`` writes the historical training data into the
        model's observation log, so later offline retraining sees "all the
        available training data" (paper Section 4.2) rather than only the
        feedback collected since deployment.
        """
        self.registry.register(model, note=note)
        # Advisory UDF inspection (paper Section 6): flag retrain
        # procedures that look nondeterministic or stateful.
        from repro.core.udf_inspect import check_retrain_udf

        self.udf_warnings[model.name] = check_retrain_udf(model.retrain)
        store = self.cluster.store
        table = store.create_table(
            self._state_table_name(model.name),
            num_partitions=self.cluster.num_nodes,
            partitioner=self.cluster.user_partitioner,
            value_policy=user_state_policy(
                model.dimension, self.config.regularization
            ),
        )
        log = store.create_log(self._log_name(model.name))
        self.health[model.name] = ModelHealth(window=self.config.staleness_window)
        if initial_user_weights:
            self._install_user_weights(model, table, initial_user_weights)
        self.rebuild_averager(model.name)
        if seed_observations:
            for observation in seed_observations:
                log.append(observation)

    def _install_user_weights(self, model, table, user_weights) -> None:
        """Install offline-trained user weights as fresh pristine states.

        The bulk path: one columnar load per partition (a single
        journaled record) instead of a per-user encode/journal/put. A
        retrain UDF may return a model of another dimension than the
        table's rows; those states land dict-resident, one put per user.
        """
        if table.value_policy.rank == model.dimension:
            if isinstance(user_weights, ArrayMapping):
                ids, matrix = user_weights.arrays()
                ids = np.asarray(ids, dtype=np.int64)
                matrix = np.asarray(matrix, dtype=float)
            else:
                ids = np.fromiter(
                    user_weights.keys(), dtype=np.int64, count=len(user_weights)
                )
                matrix = np.array(
                    [np.asarray(w, float) for w in user_weights.values()]
                )
            if matrix.shape != (len(ids), model.dimension):
                raise ValidationError(
                    f"user weights must be ({len(ids)}, {model.dimension}), "
                    f"got {matrix.shape}"
                )
            table.load_weight_rows(ids, matrix)
            return
        for uid, weights in user_weights.items():
            table.put(uid, self._make_state(model, np.asarray(weights, float)))

    def user_state_table(self, model_name: str):
        """The store table holding this model's per-user states."""
        return self.cluster.store.table(self._state_table_name(model_name))

    def observation_log(self, model_name: str):
        """The durable observation log for this model."""
        return self.cluster.store.log(self._log_name(model_name))

    def averager(self, model_name: str) -> UserWeightAverager:
        """The bootstrap weight averager for this model."""
        return self.averagers[model_name]

    def rebuild_averager(self, model_name: str) -> None:
        """Recompute the bootstrap mean from the user-state table in one
        in-place pass: every user whose weights have the serving
        model's dimension."""
        dimension = self.registry.get(model_name).dimension
        total, count = self.user_state_table(model_name).weight_sum(dimension)
        self.averagers[model_name] = UserWeightAverager(dimension, total, count)

    # -- feedback ingestion (Listing 1's observe) ------------------------------

    def observe(
        self,
        model_name: str,
        uid: int,
        x: object,
        y: float,
        validation: bool = False,
    ) -> ObserveResult:
        """Ingest one labelled observation.

        Appends to the durable observation log, applies the online
        user-weight update on the owning node, updates quality metrics,
        and (when ``auto_retrain``) triggers offline retraining if the
        model has gone stale. ``validation=True`` marks observations
        collected through bandit exploration — they update the model but
        also land in the unbiased validation pool (paper Section 4.3).
        """
        if not np.isfinite(y):
            raise ValidationError(f"label must be finite, got {y}")
        with self._write_lock:
            return self._observe_locked(model_name, uid, x, y, validation)

    def _user_table_op(self, fn):
        """Run one user-state table read/write, retrying once after
        follower promotion.

        Keeps online weight updates flowing during a node failure: a
        :class:`PartitionError` is reported to the replication layer
        (promoting a follower immediately) and the operation retried —
        the promoted view journals the write, so the durable journal
        stays the single source of truth. Wrapping the individual table
        operation (not the whole observe) keeps the observation-log
        append exactly-once across the retry.
        """
        try:
            return fn()
        except PartitionError:
            from repro.replication.manager import report_dead_nodes

            if not report_dead_nodes(self.cluster):
                raise
            return fn()

    def _observe_locked(
        self, model_name: str, uid: int, x: object, y: float, validation: bool
    ) -> ObserveResult:
        model = self.registry.get(model_name)
        node = self.cluster.router.route(uid)
        node.stats.observations_applied += 1
        table = self.user_state_table(model_name)
        log = self.observation_log(model_name)

        # Durable append before the in-memory update (recovery replays it).
        log.append(
            Observation(
                uid=uid,
                item_id=self._observation_item_id(x),
                label=float(y),
                item_data=x,
                timestamp=float(len(log)),
            )
        )

        self.cluster.charge_user_access(node.node_id, uid, model.dimension * 8)
        prediction_before = self._apply_update(
            model, model_name, table, node.node_id, uid, x, y
        )
        loss = model.loss(y, prediction_before, x, uid)

        health = self.health[model_name]
        health.record(loss)
        if validation:
            health.record_validation_example(uid, x, y, loss)

        # Start a retrain, never wait for one: the job trains on the
        # retrain worker and the swap replays this observe's successors.
        retrained = False
        if (
            self.auto_retrain
            and model_name not in self._async_retraining
            and health.is_stale(
                self.config.staleness_loss_ratio,
                self.config.min_observations_for_staleness,
            )
        ):
            future = self._start_retrain(
                model_name, reason="staleness threshold exceeded"
            )
            # Nobody waits on this one: report its failure, never drop it.
            future.add_done_callback(_report_failure)
            retrained = True
        return ObserveResult(
            loss=loss,
            prediction_before_update=prediction_before,
            retrained=retrained,
            node_id=node.node_id,
        )

    def _apply_update(self, model, model_name, table, node_id, uid, x, y) -> float:
        """The online per-user update against ``model``'s features, for
        ``observe`` and the swap's tail replay; returns the prediction
        before it. Touches neither the log nor health."""
        features, _hit, _latency = self.service.get_features(model, x, node_id)
        state = self._user_table_op(lambda: table.get_or_default(uid))
        # Updaters assign new weights, so ``before`` keeps the old vector.
        before = None if state is None else state.weights
        if state is None:
            state = self._bootstrap_state(model, model_name)
        prediction_before = state.predict(features)
        self.updater.update(state, features, float(y))
        state.weight_version += 1
        self._user_table_op(lambda: table.put(uid, state))
        averager = self.averagers[model_name]
        if before is None:
            averager.add(state.weights)
        else:
            averager.replace(before, state.weights)
        return prediction_before

    # -- retraining --------------------------------------------------------------

    def retrain_now(
        self,
        model_name: str,
        reason: str = "manual",
        sample_fraction: float | None = None,
        min_per_user: int = 3,
    ) -> RetrainEvent:
        """Offline retrain on all logged data, then swap + repopulate:
        :meth:`retrain_async`'s job, waited for. The caller must not
        hold the write lock (the swap takes it).

        ``sample_fraction`` routes the snapshot through the sampling
        engine first (stratified by uid, keeping at least
        ``min_per_user`` observations per user): an approximate retrain
        that trades a little accuracy for a much cheaper batch job.
        """
        future = self._start_retrain(model_name, reason, sample_fraction, min_per_user)
        return future.result()

    def retrain_async(self, model_name: str, reason: str = "background") -> Future:
        """Start an offline retrain; serving and observes continue. The
        future resolves to the :class:`RetrainEvent` once the new
        version serves (or raises the job's failure)."""
        return self._start_retrain(model_name, reason)

    def _start_retrain(
        self, model_name: str, reason: str, sample_fraction=None, min_per_user=3
    ) -> Future:
        """The one way to train and swap a model (Section 4.2).

        Under the write lock: refuse a model with a retrain running,
        snapshot, and queue the job on the retrain worker. The job
        trains off the lock while serving keeps answering, and takes
        the lock only for the swap, which replays every observe acked
        since the snapshot.
        """
        with self._write_lock:
            if model_name in self._async_retraining:
                raise ValidationError(
                    f"a retrain of {model_name!r} is already running"
                )
            snapshot = self._snapshot_for_retrain(model_name)
            future = self._retrain_worker.submit(
                self._retrain_job, model_name, snapshot, reason,
                sample_fraction, min_per_user,
            )
            self._async_retraining[model_name] = future
            return future

    def _retrain_job(
        self, model_name, snapshot, reason, sample_fraction, min_per_user
    ) -> RetrainEvent:
        """Train off the write lock, then swap under it (retrain worker)."""
        try:
            # The log prefix is append-only: no lock needed to read it.
            training_set = self.observation_log(model_name).read_range(
                0, snapshot.offset
            )
            sampled = None
            if sample_fraction is not None:
                from repro.sampling import sample_observations

                training_set = sample_observations(
                    training_set, sample_fraction, min_per_user=min_per_user
                )
                sampled = len(training_set)
            mark = len(self.batch_context.metrics.stage_profiles)
            train_start = time.perf_counter()
            new_model, new_user_weights = snapshot.model.retrain(
                self.batch_context, training_set, snapshot.weights
            )
            profile = self._batch_profile(
                mark, time.perf_counter() - train_start
            )
            with self._write_lock:
                event = self._swap_retrained(
                    model_name, snapshot, new_model, new_user_weights, reason,
                    sampled_observations=sampled,
                    batch_profile=profile,
                )
                self.retrain_events.append(event)
            return event
        finally:
            # Before the future resolves, so a caller that chains its
            # result into the next retrain is never refused.
            with self._write_lock:
                del self._async_retraining[model_name]

    def _snapshot_for_retrain(self, model_name: str) -> "_RetrainSnapshot":
        """Capture what the offline phase and its swap need (locked)."""
        return _RetrainSnapshot(
            model=self.registry.get(model_name),
            offset=self.observation_log(model_name).snapshot_offset(),
            # One columnar copy per partition, no per-user state decode.
            weights=self.user_state_table(model_name).export_weight_matrix(),
            hot_features=self.service.cached_feature_items(model_name),
            hot_predictions=self.service.cached_predictions(model_name),
        )

    def _batch_profile(self, mark: int, seconds: float) -> dict:
        """Summarize the scheduler stages a retrain's batch job ran.

        ``mark`` is the stage-profile list length captured before the
        job; everything appended since belongs to this retrain (the one
        retrain worker serializes them, so the slice is not
        interleaved).
        """
        profiles = self.batch_context.metrics.stage_profiles[mark:]
        worker_seconds = sum(
            p.wall_seconds * max(1, p.workers) for p in profiles
        )
        busy = sum(p.busy_seconds for p in profiles)
        return {
            "batch_seconds": seconds,
            "batch_stages": len(profiles),
            "batch_utilization": (
                busy / worker_seconds if worker_seconds > 0 else None
            ),
        }

    def _swap_retrained(
        self,
        model_name: str,
        snapshot: "_RetrainSnapshot",
        new_model,
        new_user_weights: dict | None,
        reason: str,
        sampled_observations: int | None = None,
        batch_profile: dict | None = None,
    ) -> RetrainEvent:
        """Publish ``new_model``, install its user weights, replay the
        log tail, and repopulate caches: the one swap, for retrains and
        shadow promotion (the caller holds the write lock).
        ``new_user_weights=None`` keeps the live user states (nothing
        installed, nothing to replay)."""
        current = self.registry.get(model_name)
        if new_model.version <= current.version:
            new_model = new_model.with_version(current.version + 1)
        self.registry.publish(
            new_model, trained_on_observations=snapshot.offset, note=reason
        )
        table = self.user_state_table(model_name)
        tail = []
        if new_user_weights is not None:
            # Fresh user states: the retrained weights become the prior
            # so later online updates adapt from them.
            self._install_user_weights(new_model, table, new_user_weights)
            # Replay the observes acked since the snapshot, in log order,
            # against the new features. A tail user the new weights skip
            # restarts from its snapshot row (or the bootstrap), so each
            # record lands exactly once.
            tail = self.observation_log(model_name).read_range(snapshot.offset)
            for uid in {o.uid for o in tail if o.uid not in new_user_weights}:
                row = snapshot.weights.get(uid)
                if row is None or len(row) != new_model.dimension:
                    table.delete(uid)
                else:
                    table.put(uid, self._make_state(new_model, np.array(row, float)))
            # Users the new weights skip keep theirs: the mean is over
            # the whole table, and the replay below maintains it.
            self.rebuild_averager(model_name)
            for o in tail:
                node_id = self.cluster.router.route(o.uid).node_id
                self._apply_update(
                    new_model, model_name, table, node_id, o.uid, o.item_data, o.label
                )
        repopulated = self.service.repopulate(
            new_model, snapshot.hot_features, snapshot.hot_predictions, table
        )
        self.health[model_name].reset_after_retrain()
        return RetrainEvent(
            model_name=model_name,
            new_version=new_model.version,
            observations_used=snapshot.offset,
            reason=reason,
            caches_repopulated=repopulated,
            sampled_observations=sampled_observations,
            replayed_observations=len(tail),
            **(batch_profile or {}),
        )

    # -- lifecycle ------------------------------------------------------------------

    def rollback(self, model_name: str, version: int) -> VeloxModel:
        """Revive a historical version (as a new version) and reset
        health tracking; user states are kept (their weights continue to
        adapt online against the revived feature parameters)."""
        revived = self.registry.rollback(model_name, version)
        self.service.invalidate_model(model_name)
        self.health[model_name].reset_after_retrain()
        return revived

    def health_report(self, model_name: str) -> ModelHealth:
        """The live ModelHealth tracker for this model."""
        return self.health[model_name]

    def user_generalization(self, model_name: str, uid: int) -> float:
        """Per-user generalization estimate (paper Section 4.3).

        Exact leave-one-out mean squared error of the user's current
        ridge fit, available when the deployment keeps observation
        history (the normal-equations updater). History-free updaters
        fall back to the user's progressive-validation mean.
        """
        from repro.core.online import cross_validation_score

        state = self.user_state_table(model_name).get(uid)
        if state.feature_history:
            return cross_validation_score(state)
        if state.progressive_loss.count:
            return state.progressive_loss.mean
        raise ValidationError(
            f"user {uid} has no observations to estimate generalization from"
        )

    # -- helpers ----------------------------------------------------------------------

    def _state_table_name(self, model_name: str) -> str:
        return f"user_state:{model_name}"

    def _log_name(self, model_name: str) -> str:
        return f"observations:{model_name}"

    def _make_state(self, model: VeloxModel, weights: np.ndarray) -> UserModelState:
        state = UserModelState(
            dimension=model.dimension,
            regularization=self.config.regularization,
            prior_mean=weights,
        )
        return state

    def _bootstrap_state(self, model: VeloxModel, model_name: str) -> UserModelState:
        averager = self.averagers[model_name]
        if len(averager):
            weights = averager.mean()
        else:
            weights = model.initial_user_weights()
        return self._make_state(model, weights)

    def _observation_item_id(self, x: object) -> int:
        """Best-effort integer item id for the log (non-id inputs get -1;
        the raw input is preserved in ``item_data``)."""
        if isinstance(x, (int, np.integer)):
            return int(x)
        return -1


def _report_failure(future: Future) -> None:
    """Log the failure of a retrain that no caller waits on."""
    error = future.exception()
    if error is not None:
        _log.error("background retrain failed", exc_info=error)
