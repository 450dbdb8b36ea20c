"""Timing shims around the program's public callables, and self time.

The traced run wraps each layer boundary from outside the program: the
launcher replaces a module attribute (``wire.decode_request_payload``)
or an instance attribute (``velox_client.dispatch_async``) that every
call site reaches by attribute lookup. A shim records one span
``(id, name, thread, start, end, parent, rows)`` in memory; ``parent``
is the span open on the same thread when this one started, so a layer's
self time is its duration minus what its children cover. Spans are
written once, when the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

#: Span names, by the layer (module) they time.
DECODE_REQUEST = "frontend.wire.decode_request"
ENCODE_RESPONSE = "frontend.wire.encode_response"
DISPATCH_ASYNC = "frontend.client.dispatch_async"
DISPATCH_TO_DONE = "frontend.client.dispatch_to_done"
PREDICT_BATCH = "core.prediction.predict_batch"
GET_FEATURES = "core.prediction.get_features"
READ_WEIGHTS_BATCH = "store.read_weights_batch"
TABLE_PUT = "store.table_put"
OBLOG_APPEND = "store.oblog_append"
OBSERVE = "core.manager.observe"
ONLINE_UPDATE = "core.online.update"
SPAN_NAMES = (
    DECODE_REQUEST, ENCODE_RESPONSE, DISPATCH_ASYNC, DISPATCH_TO_DONE,
    PREDICT_BATCH, GET_FEATURES, READ_WEIGHTS_BATCH, TABLE_PUT,
    OBLOG_APPEND, OBSERVE, ONLINE_UPDATE,
)


#: The fields of one span, in the order the shims record them.
SPAN_FIELDS = ("span_id", "code", "thread", "start", "end", "parent", "rows")


class Tracer:
    """Collects spans from the shims it hands out."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, rows=None):
        """A shim timing ``fn`` as span ``name``. ``rows(*args)`` gives
        the amount of work in the call (batch rows), 0 when omitted."""
        code = SPAN_NAMES.index(name)
        spans, ids, local = self.spans, self._ids, self._local

        def shim(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans.append(
                    (span_id, code, threading.get_ident(), start, end, parent,
                     rows(*args) if rows else 0)
                )

        return shim

    def wrap_dispatch(self, fn):
        """``dispatch_async`` gets two spans: the time the call holds the
        reactor thread, and call -> future done (which crosses threads,
        so it has no parent and is no one's child)."""
        timed = self.wrap(DISPATCH_ASYNC, fn)
        code = SPAN_NAMES.index(DISPATCH_TO_DONE)
        spans, ids = self.spans, self._ids

        def shim(request, enqueue_time=None):
            start = time.monotonic()
            future = timed(request, enqueue_time=enqueue_time)
            future.add_done_callback(
                lambda _done: spans.append(
                    (next(ids), code, 0, start, time.monotonic(), -1, 0)
                )
            )
            return future

        return shim

    def install(self, velox, server, model_name: str) -> None:
        """Wrap the listed public callables of a running deployment."""
        from repro.frontend import wire

        wire.decode_request_payload = self.wrap(
            DECODE_REQUEST, wire.decode_request_payload
        )
        wire.encode_response_frame = self.wrap(
            ENCODE_RESPONSE, wire.encode_response_frame
        )
        client = server.velox_client
        client.dispatch_async = self.wrap_dispatch(client.dispatch_async)
        service = velox.service
        service.predict_batch = self.wrap(
            PREDICT_BATCH, service.predict_batch,
            rows=lambda model, user_ids, xs: len(user_ids),
        )
        service.get_features = self.wrap(GET_FEATURES, service.get_features)
        manager = velox.manager
        table = manager.user_state_table(model_name)
        table.read_weights_batch = self.wrap(
            READ_WEIGHTS_BATCH, table.read_weights_batch
        )
        table.put = self.wrap(TABLE_PUT, table.put)
        log = manager.observation_log(model_name)
        log.append = self.wrap(OBLOG_APPEND, log.append)
        manager.observe = self.wrap(OBSERVE, manager.observe)
        manager.updater.update = self.wrap(ONLINE_UPDATE, manager.updater.update)

    def save(self, path) -> None:
        """Write the spans as one (n, 7) float array, a column per field
        of the span tuple (ids and thread idents are exact in a float)."""
        np.save(path, np.asarray(self.spans, dtype=float).reshape(-1, len(SPAN_FIELDS)))


def self_times(span_id, start, end, parent) -> np.ndarray:
    """Each span's duration minus the part its children cover.

    Children run nested on the parent's thread one after another, so the
    part they cover is the sum of their durations.
    """
    span_id, parent = span_id.astype(np.int64), parent.astype(np.int64)
    duration = end - start
    covered = np.zeros(int(span_id.max()) + 1 if len(span_id) else 0)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered[span_id]
