"""Stream operators: per-batch transformations and windowed aggregation."""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Callable

from repro.common.errors import ValidationError


class Operator(ABC):
    """Transforms one micro-batch into another.

    Operators may hold state across batches (windows do); ``flush`` is
    called once at end-of-stream to emit any residual state.
    """

    @abstractmethod
    def process(self, batch: list) -> list:
        """Transform one batch; the result feeds the next stage."""

    def flush(self) -> list:
        """Emit whatever remains at end-of-stream (default: nothing)."""
        return []


class Map(Operator):
    """Record-wise transformation."""

    def __init__(self, fn: Callable):
        self._fn = fn

    def process(self, batch: list) -> list:
        """Transform one micro-batch (see Operator.process)."""
        return [self._fn(record) for record in batch]


class Filter(Operator):
    """Keep records satisfying the predicate."""

    def __init__(self, predicate: Callable):
        self._predicate = predicate

    def process(self, batch: list) -> list:
        """Transform one micro-batch (see Operator.process)."""
        return [record for record in batch if self._predicate(record)]


class FlatMap(Operator):
    """Record-wise one-to-many expansion."""

    def __init__(self, fn: Callable):
        self._fn = fn

    def process(self, batch: list) -> list:
        """Transform one micro-batch (see Operator.process)."""
        return [out for record in batch for out in self._fn(record)]


class TumblingWindowAggregate(Operator):
    """Keyed aggregation over fixed-size count windows.

    Records are keyed by ``key_fn``; every ``window_size`` records per
    key, the window closes and one ``(key, aggregate)`` record is
    emitted downstream. ``zero``/``add`` define the aggregation (e.g.
    sum of ratings, click counts). Open windows flush at end-of-stream.

    This is the rollup a feedback pipeline typically performs before
    ``observe`` — e.g. averaging a session's repeated plays of the same
    song into one label.
    """

    def __init__(self, key_fn: Callable, zero, add: Callable, window_size: int):
        if window_size < 1:
            raise ValidationError(f"window_size must be >= 1, got {window_size}")
        self._key_fn = key_fn
        self._zero = zero
        self._add = add
        self.window_size = window_size
        self._windows: dict[object, tuple[object, int]] = {}

    def process(self, batch: list) -> list:
        """Transform one micro-batch (see Operator.process)."""
        emitted = []
        for record in batch:
            key = self._key_fn(record)
            window = self._windows.get(key)
            if window is None:
                # A fresh zero per opened window: a mutable zero (a list,
                # a dict) is never shared between two windows.
                aggregate, count = copy.deepcopy(self._zero), 0
            else:
                aggregate, count = window
            aggregate = self._add(aggregate, record)
            count += 1
            if count >= self.window_size:
                emitted.append((key, aggregate))
                self._windows.pop(key, None)
            else:
                self._windows[key] = (aggregate, count)
        return emitted

    def open_windows(self) -> dict[object, tuple[object, int]]:
        """A ``{key: (aggregate, count)}`` snapshot of windows that have
        not yet closed.

        Consumers that answer queries over a *live* stream — the
        analytics tier's windowed rollups — need the partially-filled
        tail window alongside the closed ones; ``flush`` would emit it
        but also clear it, ending the window. The dict is a shallow
        copy: safe to iterate while processing continues, but mutable
        aggregate objects (e.g. a list ``zero``) are shared.
        """
        return dict(self._windows)

    def flush(self) -> list:
        """Emit residual window state at end-of-stream."""
        residual = [(key, agg) for key, (agg, __count) in self._windows.items()]
        self._windows.clear()
        return residual
