"""Serving-tier metrics: per-queue counters, histograms, SLO attainment.

The serving engine (:mod:`repro.serving`) keeps one :class:`QueueMetrics`
per request queue. Everything here is thread-safe — queue workers and
the reporting layer read and write concurrently — and cheap enough to
update on every request.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.common.errors import ValidationError
from repro.metrics.latency import LatencyRecorder


class Histogram:
    """Integer-bucketed counts (e.g. batch sizes), thread-safe."""

    def __init__(self, name: str = "histogram"):
        self.name = name
        self._lock = threading.Lock()
        self._counts: Counter = Counter()

    def observe(self, value: int) -> None:
        """Count one occurrence of ``value``."""
        if value < 0:
            raise ValidationError(f"histogram value cannot be negative: {value}")
        with self._lock:
            self._counts[int(value)] += 1

    def counts(self) -> dict[int, int]:
        """A ``{value: count}`` snapshot, sorted by value."""
        with self._lock:
            return dict(sorted(self._counts.items()))

    def total(self) -> int:
        """Number of observations."""
        with self._lock:
            return sum(self._counts.values())

    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        with self._lock:
            total = sum(self._counts.values())
            if total == 0:
                return 0.0
            return sum(v * c for v, c in self._counts.items()) / total

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram's counts into this one; returns self."""
        incoming = other.counts()
        with self._lock:
            for value, count in incoming.items():
                self._counts[value] += count
        return self


class QueueMetrics:
    """Everything observable about one serving queue.

    Tracks queue wait time, batch service time, end-to-end latency, the
    batch-size distribution, shed counts (admission vs age), and SLO
    attainment — the Clipper-style dashboard for one (model, node) queue.
    """

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.wait = LatencyRecorder(f"{name}:wait")
        self.service = LatencyRecorder(f"{name}:service")
        self.end_to_end = LatencyRecorder(f"{name}:end_to_end")
        self.batch_sizes = Histogram(f"{name}:batch_size")
        self._enqueued = 0
        self._inline = 0
        self._completed = 0
        self._shed_admission = 0
        self._shed_age = 0
        self._degraded = 0
        self._slo_hits = 0
        self._slo_misses = 0

    # -- writers (called by the engine) -------------------------------------

    def on_enqueue(self, *, inline: bool = False) -> None:
        """One request admitted; ``inline`` when the caller's thread
        serves it (it is counted, but never sits in the queue)."""
        with self._lock:
            self._enqueued += 1
            if inline:
                self._inline += 1

    def on_shed(self, *, at_admission: bool) -> None:
        with self._lock:
            if at_admission:
                self._shed_admission += 1
            else:
                self._shed_age += 1

    def on_degraded(self) -> None:
        with self._lock:
            self._degraded += 1

    def on_complete(self, *, slo_hit: bool | None = None) -> None:
        with self._lock:
            self._completed += 1
            if slo_hit is True:
                self._slo_hits += 1
            elif slo_hit is False:
                self._slo_misses += 1

    # -- readers -------------------------------------------------------------

    @property
    def enqueued(self) -> int:
        with self._lock:
            return self._enqueued

    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    @property
    def shed_count(self) -> int:
        """Total requests shed (admission-control plus age-bound)."""
        with self._lock:
            return self._shed_admission + self._shed_age

    @property
    def degraded_count(self) -> int:
        with self._lock:
            return self._degraded

    def slo_attainment(self) -> float:
        """Fraction of SLO-judged completions within the SLO (1.0 if none)."""
        with self._lock:
            judged = self._slo_hits + self._slo_misses
            if judged == 0:
                return 1.0
            return self._slo_hits / judged

    def snapshot(self) -> dict:
        """A plain-dict snapshot for status endpoints and benchmarks."""
        with self._lock:
            counters = {
                "enqueued": self._enqueued,
                "inline": self._inline,
                "completed": self._completed,
                "shed_admission": self._shed_admission,
                "shed_age": self._shed_age,
                "degraded": self._degraded,
                "slo_hits": self._slo_hits,
                "slo_misses": self._slo_misses,
            }
        counters["shed_total"] = (
            counters["shed_admission"] + counters["shed_age"]
        )
        counters["slo_attainment"] = self.slo_attainment()
        counters["batch_size_mean"] = self.batch_sizes.mean()
        counters["batch_size_counts"] = self.batch_sizes.counts()
        for recorder in (self.wait, self.service, self.end_to_end):
            key = recorder.name.rsplit(":", 1)[-1]
            if len(recorder):
                summary = recorder.summary()
                counters[f"{key}_mean_s"] = summary.mean
                counters[f"{key}_p99_s"] = summary.p99
            else:
                counters[f"{key}_mean_s"] = 0.0
                counters[f"{key}_p99_s"] = 0.0
        return counters
