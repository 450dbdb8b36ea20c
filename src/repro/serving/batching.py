"""Batching policies and deterministic batch formation.

The Clipper insight (Crankshaw et al., NSDI 2017): coalescing queued
requests into one vectorized model evaluation amortizes per-request
overhead, and the batch size can be tuned *adaptively* against a latency
SLO — additively increase while the SLO holds, multiplicatively back off
when it is violated (AIMD), so throughput rides just under the latency
cliff without manual tuning.

Batch *formation* is split from the worker threads: :class:`BatchFormer`
is a pure function of (queue state, policy state, current time), so the
exact batches formed under a given arrival pattern are deterministic and
testable with :class:`~repro.common.clock.SimulatedClock`.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

from repro.common.errors import ConfigError
from repro.serving.config import ServingConfig
from repro.serving.queue import QueuedRequest, RequestQueue


class BatchingPolicy(ABC):
    """Decides how large a batch to form and whether to wait for it."""

    name: str = "policy"

    @abstractmethod
    def batch_limit(self) -> int:
        """Current maximum batch size."""

    def batch_delay(self) -> float:
        """How long (seconds) a non-empty queue may linger for more
        requests before a partial batch is formed. Zero — a free worker
        takes what is queued now — unless a policy overrides it."""
        return 0.0

    def observe(self, batch_size: int, latency: float) -> None:
        """Feedback after a batch completes: its size and the worst
        end-to-end latency (seconds) of any request in it."""


class NoBatchingPolicy(BatchingPolicy):
    """Serve one request at a time — the pre-Clipper baseline."""

    name = "none"

    def batch_limit(self) -> int:
        return 1


class FixedDelayPolicy(BatchingPolicy):
    """Linger a fixed window, then take whatever arrived (up to a cap).

    The ablation baseline, and the only policy that is not
    work-conserving: it holds a request back while workers sit idle.
    """

    name = "fixed_delay"

    def __init__(self, max_batch_size: int, delay: float):
        if max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if delay < 0:
            raise ConfigError(f"delay must be >= 0, got {delay}")
        self.max_batch_size = max_batch_size
        self.delay = delay

    def batch_limit(self) -> int:
        return self.max_batch_size

    def batch_delay(self) -> float:
        return self.delay


class AdaptiveAimdPolicy(BatchingPolicy):
    """AIMD batch sizing against a p99 latency SLO.

    Starts at batch size 1; every batch that meets the SLO grows the
    limit additively, every violation shrinks it multiplicatively. The
    limit therefore oscillates just under the largest batch the hardware
    can serve within the SLO — Clipper's adaptive batching. It never
    lingers: batches grow only because requests queued while every
    worker was busy.
    """

    name = "adaptive"

    def __init__(
        self,
        slo_p99: float,
        max_batch_size: int,
        additive_step: int = 1,
        backoff: float = 0.5,
    ):
        if slo_p99 <= 0:
            raise ConfigError(f"slo_p99 must be > 0, got {slo_p99}")
        if max_batch_size < 1:
            raise ConfigError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if additive_step < 1:
            raise ConfigError(
                f"additive_step must be >= 1, got {additive_step}"
            )
        if not 0.0 < backoff < 1.0:
            raise ConfigError(f"backoff must be in (0, 1), got {backoff}")
        self.slo_p99 = slo_p99
        self.max_batch_size = max_batch_size
        self.additive_step = additive_step
        self.backoff = backoff
        self._lock = threading.Lock()
        self._limit = 1

    def batch_limit(self) -> int:
        with self._lock:
            return self._limit

    def observe(self, batch_size: int, latency: float) -> None:
        """AIMD step: grow on SLO hit, back off on SLO miss."""
        with self._lock:
            if latency > self.slo_p99:
                self._limit = max(1, int(self._limit * self.backoff))
            else:
                self._limit = min(
                    self.max_batch_size, self._limit + self.additive_step
                )


def make_batching_policy(config: ServingConfig) -> BatchingPolicy:
    """The policy instance a :class:`ServingConfig` asks for.

    Each queue gets its own instance — AIMD state is per-queue.
    """
    if config.batching == "none":
        return NoBatchingPolicy()
    if config.batching == "fixed_delay":
        return FixedDelayPolicy(config.max_batch_size, config.batch_delay)
    return AdaptiveAimdPolicy(
        slo_p99=config.slo_p99,
        max_batch_size=config.max_batch_size,
        additive_step=config.aimd_additive_step,
        backoff=config.aimd_backoff,
    )


class BatchFormer:
    """Deterministic batch formation over one queue.

    ``form(queue, now)`` returns the next batch, or an empty list when
    the queue is empty or still lingering (only under a policy with a
    non-zero delay: younger than the delay and smaller than the limit).
    Given the same queue contents, policy state, and clock readings, the
    same batches form — no dependence on thread timing.
    """

    def __init__(self, policy: BatchingPolicy):
        self.policy = policy

    def form(self, queue: RequestQueue, now: float) -> list[QueuedRequest]:
        if self.ready_in(queue, now) == 0.0:
            return queue.pop_up_to(self.policy.batch_limit())
        return []

    def ready_in(self, queue: RequestQueue, now: float) -> float | None:
        """Seconds until the lingering window elapses (0 when a batch is
        already formable, None when the queue is empty)."""
        oldest = queue.oldest_age(now)
        if oldest is None:
            return None
        delay = self.policy.batch_delay()
        if oldest >= delay or len(queue) >= self.policy.batch_limit():
            return 0.0
        return delay - oldest
