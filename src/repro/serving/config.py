"""Configuration for the serving engine (queues, batching, shedding)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError

#: The supported batching policies.
BATCHING_POLICIES = ("none", "fixed_delay", "adaptive")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for one :class:`~repro.serving.ServingEngine`.

    Attributes:
        num_workers: Threads in the shared worker pool draining queues.
        max_queue_depth: Per-queue depth bound; admission control sheds
            requests arriving at a full queue with
            :class:`~repro.common.errors.OverloadedError`.
        max_queue_age: Age bound (seconds): a request that waited longer
            than this is shed at dequeue time instead of served late.
        batching: One of :data:`BATCHING_POLICIES` — ``"none"`` serves
            requests one at a time, ``"adaptive"`` sizes batches with
            AIMD against :attr:`slo_p99`; both are work-conserving (a
            free worker takes what is queued now, so batches grow only
            while workers are busy). ``"fixed_delay"``, the ablation
            baseline, lingers :attr:`batch_delay` then takes what
            arrived.
        max_batch_size: Upper bound on coalesced batch size.
        batch_delay: ``"fixed_delay"`` only: how long (seconds) a
            non-empty queue may linger waiting for more requests before
            a partial batch is formed. The other policies ignore it.
        slo_p99: Per-model p99 end-to-end latency objective (seconds);
            drives AIMD resizing and SLO-attainment accounting.
        aimd_additive_step: Batch-size increase after an SLO-met batch.
        aimd_backoff: Multiplicative batch-size decrease (0, 1) after an
            SLO-violating batch.
        degrade_top_k_on_overload: When True, ``top_k`` requests that
            would be shed are instead served from the prediction cache
            only (possibly returning fewer than k items) — graceful
            degradation instead of rejection.
    """

    num_workers: int = 2
    max_queue_depth: int = 256
    max_queue_age: float = 0.5
    batching: str = "adaptive"
    max_batch_size: int = 64
    batch_delay: float = 0.001
    slo_p99: float = 0.05
    aimd_additive_step: int = 1
    aimd_backoff: float = 0.5
    degrade_top_k_on_overload: bool = False

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ConfigError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.max_queue_depth < 0:
            raise ConfigError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.max_queue_age <= 0:
            raise ConfigError(
                f"max_queue_age must be > 0, got {self.max_queue_age}"
            )
        if self.batching not in BATCHING_POLICIES:
            raise ConfigError(
                f"batching must be one of {BATCHING_POLICIES}, "
                f"got {self.batching!r}"
            )
        if self.max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.batch_delay < 0:
            raise ConfigError(f"batch_delay must be >= 0, got {self.batch_delay}")
        if self.slo_p99 <= 0:
            raise ConfigError(f"slo_p99 must be > 0, got {self.slo_p99}")
        if self.aimd_additive_step < 1:
            raise ConfigError(
                f"aimd_additive_step must be >= 1, got {self.aimd_additive_step}"
            )
        if not 0.0 < self.aimd_backoff < 1.0:
            raise ConfigError(
                f"aimd_backoff must be in (0, 1), got {self.aimd_backoff}"
            )
