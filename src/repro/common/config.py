"""Top-level configuration for a Velox deployment.

A single frozen dataclass gathers the knobs that cut across subsystems
(cluster size, model dimensionality, regularization, cache sizes,
staleness thresholds) with validation at construction time. Individual
components also accept their own narrower configs; :class:`VeloxConfig`
is the convenience bundle used by :func:`repro.deploy` and the examples.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class VeloxConfig:
    """Deployment-wide settings.

    Attributes:
        num_nodes: Simulated cluster size (manager+predictor per node).
        dimension: Feature/weight dimensionality ``d``.
        regularization: L2 penalty ``lambda`` used by online and offline
            learning (Eq. 2 of the paper).
        feature_cache_capacity: Per-node LRU capacity (entries) for
            materialized/computed item features.
        prediction_cache_capacity: Per-node LRU capacity (entries) for
            (user, item) prediction results.
        staleness_loss_ratio: Retrain trigger: retrain when recent loss
            exceeds baseline loss by this multiplicative factor.
        staleness_window: Number of recent observations in the loss window.
        min_observations_for_staleness: Do not evaluate staleness before
            this many observations have been seen for the model.
        online_update_method: ``"normal_equations"`` (naive, cubic in d,
            what Figure 3 plots), ``"sherman_morrison"`` (quadratic), or
            ``"sgd"``.
        bootstrap_new_users: Whether unknown users receive the mean of
            existing user weights (paper Section 5) instead of raising.
        bandit_exploration: LinUCB alpha / epsilon, interpreted by the
            configured bandit policy.
        remote_hop_latency: Modeled one-way network latency (seconds)
            charged per remote data access in the cluster simulator.
        remote_bandwidth: Modeled bytes/second for remote payloads.
        batch_executor: How the batch (sparklite) scheduler runs a
            stage's tasks: ``"thread"`` (GIL-bound pool sharing driver
            memory) or ``"fork"`` (process-per-worker, true multicore
            for CPU-bound retraining; falls back to threads where
            ``os.fork`` is unavailable).
        replication_factor: Copies of each user-weight/item partition
            (1 = the paper's single-copy store recovered by lineage
            replay only; N > 1 adds N-1 journal-shipped followers with
            heartbeat failure detection and automatic promotion, so
            serving survives node loss with bounded-stale reads).
            Must not exceed ``num_nodes``. Heartbeat cadence, lag bound
            and ring size are ``ReplicationManager`` constructor
            defaults; attach a custom manager to change them.
        analytics: Whether to stand up the MV-first analytics tier
            (:class:`~repro.analytics.AnalyticsEngine`): per-user,
            per-item, and per-time-window rollups maintained inline
            from every observation append, plus the cost-based query
            planner behind ``Velox.analytics_query``. Maintenance costs
            three dict upserts per observe; disable for write-path
            microbenchmarks that want the log bare.
    """

    num_nodes: int = 4
    dimension: int = 50
    regularization: float = 1.0
    feature_cache_capacity: int = 10_000
    prediction_cache_capacity: int = 100_000
    staleness_loss_ratio: float = 1.25
    staleness_window: int = 500
    min_observations_for_staleness: int = 1_000
    online_update_method: str = "sherman_morrison"
    bootstrap_new_users: bool = True
    bandit_exploration: float = 0.5
    remote_hop_latency: float = 0.5e-3
    remote_bandwidth: float = 1e9
    batch_executor: str = "thread"
    replication_factor: int = 1
    analytics: bool = True

    _VALID_UPDATE_METHODS = (
        "normal_equations",
        "sherman_morrison",
        "sgd",
        "logistic",
    )
    # Mirrors repro.batch.scheduler.EXECUTORS (kept literal here so the
    # config layer stays import-free of the batch subsystem).
    _VALID_BATCH_EXECUTORS = ("thread", "fork")

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dimension}")
        if self.regularization < 0:
            raise ConfigError(
                f"regularization must be >= 0, got {self.regularization}"
            )
        if self.feature_cache_capacity < 0:
            raise ConfigError(
                "feature_cache_capacity must be >= 0, "
                f"got {self.feature_cache_capacity}"
            )
        if self.prediction_cache_capacity < 0:
            raise ConfigError(
                "prediction_cache_capacity must be >= 0, "
                f"got {self.prediction_cache_capacity}"
            )
        if self.staleness_loss_ratio <= 1.0:
            raise ConfigError(
                "staleness_loss_ratio must be > 1.0 (a ratio of recent to "
                f"baseline loss), got {self.staleness_loss_ratio}"
            )
        if self.staleness_window < 1:
            raise ConfigError(
                f"staleness_window must be >= 1, got {self.staleness_window}"
            )
        if self.online_update_method not in self._VALID_UPDATE_METHODS:
            raise ConfigError(
                f"online_update_method must be one of "
                f"{self._VALID_UPDATE_METHODS}, got {self.online_update_method!r}"
            )
        if self.bandit_exploration < 0:
            raise ConfigError(
                f"bandit_exploration must be >= 0, got {self.bandit_exploration}"
            )
        if self.remote_hop_latency < 0:
            raise ConfigError(
                f"remote_hop_latency must be >= 0, got {self.remote_hop_latency}"
            )
        if self.remote_bandwidth <= 0:
            raise ConfigError(
                f"remote_bandwidth must be > 0, got {self.remote_bandwidth}"
            )
        if self.batch_executor not in self._VALID_BATCH_EXECUTORS:
            raise ConfigError(
                f"batch_executor must be one of {self._VALID_BATCH_EXECUTORS}, "
                f"got {self.batch_executor!r}"
            )
        if self.replication_factor < 1:
            raise ConfigError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )
        if self.replication_factor > self.num_nodes:
            raise ConfigError(
                f"replication_factor {self.replication_factor} exceeds "
                f"num_nodes {self.num_nodes}: every replica needs a "
                "distinct node"
            )

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON object string (round-trips with
        :meth:`from_json`)."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: object) -> "VeloxConfig":
        """Build a config from a parsed JSON object, rejecting unknown
        keys loudly (silent typos in deployment configs are how staleness
        thresholds quietly never fire; a retired option is named too)."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"config JSON must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "VeloxConfig":
        """Parse a config from JSON (see :meth:`from_dict`)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed config JSON: {err}") from err
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "VeloxConfig":
        """Load a config from a JSON file."""
        file_path = Path(path)
        if not file_path.exists():
            raise ConfigError(f"no config file at {file_path}")
        return cls.from_json(file_path.read_text(encoding="utf-8"))
