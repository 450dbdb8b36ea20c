"""Latency measurement: per-operation recorders and a timing context.

The benchmark harness records thousands of per-operation latencies and
reports mean ± 95% CI plus percentiles, matching the presentation of the
paper's Figures 3 and 4.
"""

from __future__ import annotations

import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.metrics.errors import mean_confidence_interval


@dataclass(frozen=True)
class LatencySummary:
    """Aggregate statistics over recorded durations."""
    count: int
    mean: float
    ci95: float
    p50: float
    p95: float
    p99: float
    min: float
    max: float


class LatencyRecorder:
    """Accumulates durations (seconds) and summarizes them.

    Thread-safe: concurrent serving workers may share one recorder (or
    keep one each and :meth:`merge` them), so every read and write of the
    samples happens under a lock — ``summary`` never sees a torn
    append. Samples live in an ``array('d')``, 8 bytes each: the serving
    engine records a few per request for as long as it runs.
    """

    def __init__(self, name: str = "latency"):
        self.name = name
        self._lock = threading.Lock()
        self._samples = array("d")

    def record(self, seconds: float) -> None:
        """Append one duration in seconds."""
        if seconds < 0:
            raise ValidationError(f"latency cannot be negative: {seconds}")
        with self._lock:
            self._samples.append(seconds)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    @property
    def samples(self) -> list[float]:
        """A copy of all recorded durations."""
        with self._lock:
            return list(self._samples)

    def reset(self) -> None:
        """Discard every recorded sample."""
        with self._lock:
            del self._samples[:]

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold another recorder's samples into this one; returns self.

        Lets each serving worker keep a private recorder on the hot path
        and combine them once at reporting time.
        """
        incoming = other.samples  # copied under other's lock
        with self._lock:
            self._samples.extend(incoming)
        return self

    def time(self) -> "Timer":
        """A context manager recording its elapsed time here."""
        return Timer(self)

    def summary(self) -> LatencySummary:
        """Mean ± 95% CI plus percentiles over all samples."""
        with self._lock:
            arr = np.array(self._samples, dtype=float)
        if not arr.size:
            raise ValidationError(f"recorder {self.name!r} has no samples")
        mean, ci95 = mean_confidence_interval(arr)
        return LatencySummary(
            count=int(arr.size),
            mean=mean,
            ci95=ci95,
            p50=float(np.percentile(arr, 50)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            min=float(arr.min()),
            max=float(arr.max()),
        )


class Timer:
    """Context manager measuring wall-clock duration.

    Usable standalone (``with Timer() as t: ...; t.elapsed``) or attached
    to a :class:`LatencyRecorder`.
    """

    def __init__(self, recorder: LatencyRecorder | None = None):
        self._recorder = recorder
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        if self._recorder is not None and exc_type is None:
            self._recorder.record(self.elapsed)
