"""The serving engine: queues + worker pool between frontend and models.

Requests enter per-(model, node) bounded queues (sharded by the same
router that owns user-weight locality, so a batch never mixes nodes), a
shared worker pool forms batches under the configured policy, and every
batch is evaluated through the vectorized
:meth:`~repro.core.prediction.PredictionService.predict_batch` fast
path. A lone predict that finds the engine idle is served where it was
decoded (:meth:`ServingEngine.predict_inline`, the scalar ``predict``)
and never crosses a thread. Overload is handled explicitly: full queues
shed at admission, stale requests shed at dequeue, and (optionally)
``top_k`` degrades to the prediction-cache-only path instead of
rejecting.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future

from repro import chaos
from repro.common.clock import Clock, SystemClock
from repro.common.errors import (
    DeadlineExceededError,
    OverloadedError,
    ValidationError,
)
from repro.core.bandits import GreedyPolicy
from repro.metrics.resilience import ResilienceMetrics
from repro.metrics.serving import QueueMetrics
from repro.serving.batching import BatchFormer, make_batching_policy
from repro.serving.config import ServingConfig
from repro.serving.queue import QueuedRequest, RequestQueue

#: Upper bound on how long an idle worker sleeps between queue scans.
_IDLE_WAIT = 0.05
#: Floor for ``fixed_delay`` lingering waits so near-ready queues don't
#: busy-spin.
_MIN_WAIT = 1e-4


class ServingEngine:
    """Queued, batched, SLO-aware serving over a Velox deployment.

    Usage::

        engine = ServingEngine(velox, ServingConfig(num_workers=4))
        with engine:                       # starts the worker pool
            future = engine.submit_predict(uid=7, x=42)
            result = future.result()       # a PredictionResult
            best = engine.top_k(uid=7, items=[1, 2, 3], k=2)

    The synchronous in-process path (``velox.predict`` etc.) remains
    untouched; the engine is an optional layer the frontend server and
    benchmarks opt into.

    With replication enabled, batch reads that hit a dead primary are
    retried against the promoted follower inside
    :meth:`~repro.core.prediction.PredictionService.predict_batch`
    (which reports the failure, triggering immediate promotion), so a
    node loss surfaces as bounded-stale results — flagged via
    ``PredictionResult.stale`` — rather than request failures.
    """

    def __init__(
        self,
        velox,
        config: ServingConfig | None = None,
        clock: Clock | None = None,
    ):
        self.velox = velox
        self.config = config if config is not None else ServingConfig()
        self.clock = clock if clock is not None else SystemClock()
        self._cond = threading.Condition()
        self._queues: dict[tuple[str, int], RequestQueue] = {}
        self._formers: dict[tuple[str, int], BatchFormer] = {}
        self._metrics: dict[tuple[str, int], QueueMetrics] = {}
        self._workers: list[threading.Thread] = []
        self._running = False
        #: Set by ``stop()``, cleared by ``start()``: a stopped engine
        #: refuses work; one not yet started queues it for its workers.
        self._stopped = False
        #: Batches taken by a worker and not yet finished (under
        #: ``_cond``).
        self._executing = 0
        #: Engine-side resilience counters (deadline sheds, degraded
        #: responses); exported through the status endpoint.
        self.resilience = ResilienceMetrics("engine")

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the worker pool is accepting and serving requests."""
        with self._cond:
            return self._running

    def start(self) -> "ServingEngine":
        """Start the worker pool; returns self."""
        with self._cond:
            if self._running:
                raise ValidationError("serving engine already started")
            self._running = True
            self._stopped = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serving-worker-{i}", daemon=True
            )
            for i in range(self.config.num_workers)
        ]
        for worker in self._workers:
            worker.start()
        return self

    def stop(self) -> None:
        """Stop workers and fail everything still queued as overloaded.

        Also drains queues when the engine never started, so no
        submitted future is left forever pending.
        """
        with self._cond:
            self._running = False
            self._stopped = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join(timeout=5)
        self._workers = []
        for key, queue in self._queues.items():
            for request in queue.drain():
                self._metrics[key].on_shed(at_admission=False)
                request.future.set_exception(
                    OverloadedError(queue.name, "engine stopped")
                )

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- submission ----------------------------------------------------------

    def submit_predict(
        self,
        uid: int,
        x: object,
        model: str | None = None,
        enqueue_time: float | None = None,
        deadline: float | None = None,
    ) -> Future:
        """Enqueue one point prediction; the future yields a
        :class:`~repro.core.prediction.PredictionResult`.

        ``enqueue_time`` lets a transport layer timestamp the request at
        frame-decode time, so queue-age accounting (and age-bound
        shedding) covers time spent between the wire and the queue.
        ``deadline`` is the request's remaining budget in *relative*
        seconds (measured from ``enqueue_time``); once it is spent the
        engine sheds the request — before compute, never after.
        """
        model_name = self.velox._model_name(model)
        stamp = enqueue_time if enqueue_time is not None else self.clock.now()
        request = QueuedRequest(
            kind="predict",
            model=model_name,
            uid=uid,
            enqueue_time=stamp,
            item=x,
            deadline=None if deadline is None else stamp + float(deadline),
        )
        return self._submit(request)

    def submit_top_k(
        self,
        uid: int,
        items,
        k: int = 1,
        model: str | None = None,
        policy=None,
        item_filter=None,
        enqueue_time: float | None = None,
        deadline: float | None = None,
    ) -> Future:
        """Enqueue a best-k query; the future yields a list of
        :class:`~repro.core.prediction.PredictionResult`.

        ``enqueue_time``/``deadline`` behave as in :meth:`submit_predict`.
        """
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        model_name = self.velox._model_name(model)
        stamp = enqueue_time if enqueue_time is not None else self.clock.now()
        request = QueuedRequest(
            kind="top_k",
            model=model_name,
            uid=uid,
            enqueue_time=stamp,
            items=tuple(items),
            k=k,
            policy=policy,
            item_filter=item_filter,
            deadline=None if deadline is None else stamp + float(deadline),
        )
        return self._submit(request)

    def predict(
        self,
        uid: int,
        x: object,
        model: str | None = None,
        timeout: float | None = None,
        deadline: float | None = None,
    ):
        """Blocking convenience around :meth:`submit_predict`."""
        return self.submit_predict(uid, x, model=model, deadline=deadline).result(
            timeout
        )

    def top_k(
        self,
        uid: int,
        items,
        k: int = 1,
        model: str | None = None,
        policy=None,
        item_filter=None,
        timeout: float | None = None,
        deadline: float | None = None,
    ):
        """Blocking convenience around :meth:`submit_top_k`."""
        future = self.submit_top_k(
            uid, items, k=k, model=model, policy=policy,
            item_filter=item_filter, deadline=deadline,
        )
        return future.result(timeout)

    def _submit(self, request: QueuedRequest) -> Future:
        key = (request.model, self.velox.cluster.router.route_index(request.uid))
        queue, metrics = self._queue_for(key)
        if request.deadline_expired(self.clock.now()):
            # The budget was spent before the request even reached a
            # queue (wire delay, stalled frontend). Shed at admission:
            # queueing work nobody will wait for only hurts neighbours.
            self.resilience.on_deadline_shed("admission")
            metrics.on_shed(at_admission=True)
            raise DeadlineExceededError(
                "admission", f"budget spent before enqueue on {queue.name}"
            )
        with self._cond:
            # ``stop()`` sets the flag under this lock and drains after:
            # a request is either queued before the flag, and failed by
            # that drain, or refused here. None is parked for ever.
            stopped = self._stopped
            admitted = not stopped and queue.offer(request)
            if admitted:
                # Counted before a worker can be woken to complete it:
                # no reader sees ``completed`` ahead of ``enqueued``.
                metrics.on_enqueue()
                self._cond.notify()
        if stopped:
            metrics.on_shed(at_admission=True)
            raise OverloadedError(queue.name, "engine stopped")
        if not admitted:
            if (
                request.kind == "top_k"
                and self.config.degrade_top_k_on_overload
            ):
                # Graceful degradation: answer from the prediction cache
                # only (possibly fewer than k items) instead of rejecting.
                # An empty slate is the ladder's bottom rung: it counts as
                # an error, as the client's degraded dispatch counts it.
                metrics.on_degraded()
                ranked = self.velox.service.top_k_cached(
                    request.model,
                    request.uid,
                    list(request.items),
                    k=request.k,
                    policy=request.policy,
                )
                self.resilience.on_degraded("cached" if ranked else "error")
                request.future.set_result(ranked)
                return request.future
            metrics.on_shed(at_admission=True)
            raise OverloadedError(
                queue.name, f"queue depth bound {queue.max_depth} reached"
            )
        return request.future

    def predict_inline(
        self,
        uid: int,
        x: object,
        model: str | None = None,
        enqueue_time: float | None = None,
        deadline: float | None = None,
        degraded: bool = False,
    ):
        """Serve one point prediction on the calling thread, if the
        engine is idle; ``None`` means "not taken: enqueue it".

        The reactor's leg for the lone predict: with nothing queued and
        no batch executing a worker could only add its wake-up to the
        answer, so the request is admitted, scored by the scalar
        ``predict`` and accounted to its queue's metrics as a batch of
        one, without a :class:`QueuedRequest` or a future. Declined, from
        state the engine can observe, whenever the queued path would do
        something else with the request: a ``degraded`` read has its own
        cache-only rung in front of the queues, ``fixed_delay`` lingers
        on purpose, a depth bound of zero admits nothing, a chaos plan
        may delay the handler (which must not sleep on the caller), a
        stopped or not yet started engine serves nothing, a spent
        deadline is shed at admission, and a feature function is not
        the caller's to run (:meth:`PredictionService.features_on_hand`).
        Every gate is here; callers only wrap the answer. Compute errors
        propagate, after the accounting.

        Inline serves do not feed the batching policy, which sizes its
        cap against queued load.
        """
        config = self.config
        if (
            degraded
            or config.batching == "fixed_delay"
            or config.max_queue_depth < 1
            or chaos.active() is not None
        ):
            return None
        # Read without the lock: with workers busy this is where a
        # saturated reactor turns back, and a stale answer only picks
        # the other leg. The lock guards the walk over the queues.
        if not self._running or self._executing:
            return None
        with self._cond:
            if any(map(len, self._queues.values())):
                return None
        model_name = self.velox._model_name(model)
        service = self.velox.service
        if not service.features_on_hand(model_name, x):
            return None
        start = self.clock.now()
        stamp = enqueue_time if enqueue_time is not None else start
        if deadline is not None and start >= stamp + float(deadline):
            return None
        node_id = self.velox.cluster.router.route_index(uid)
        _, metrics = self._queue_for((model_name, node_id))
        metrics.on_enqueue(inline=True)
        try:
            return service.predict(model_name, uid, x)
        finally:
            self._account_batch(metrics, [stamp], start, self.clock.now())

    def _queue_for(
        self, key: tuple[str, int]
    ) -> tuple[RequestQueue, QueueMetrics]:
        with self._cond:
            queue = self._queues.get(key)
            if queue is None:
                name = f"{key[0]}@node{key[1]}"
                queue = RequestQueue(name, self.config.max_queue_depth)
                self._queues[key] = queue
                self._formers[key] = BatchFormer(
                    make_batching_policy(self.config)
                )
                self._metrics[key] = QueueMetrics(name)
            return queue, self._metrics[key]

    # -- worker pool ---------------------------------------------------------

    def _worker_loop(self) -> None:
        job = None
        while True:
            with self._cond:
                # The batch just executed is retired in the block that
                # looks for the next one: "a batch is executing" costs
                # the engine path no lock of its own.
                if job is not None:
                    self._executing -= 1
                if not self._running:
                    return
                job, wait_hint = self._next_batch()
                if job is None:
                    self._cond.wait(timeout=wait_hint)
                    continue
                self._executing += 1
            self._execute(*job)

    def _next_batch(self):
        """Form a batch from the formable queue whose head is oldest.

        Returns ``((key, batch), _)`` when a batch formed, else
        ``(None, seconds_until_something_may_be_ready)``. Oldest head
        first is FIFO across the per-node queues: a queue that refills
        as fast as it drains cannot hold another queue's head back past
        the requests that arrived before it. Expired requests are shed
        here, before selection, so a burst that outran the workers fails
        fast instead of serving stale. Callers hold ``self._cond``.
        """
        now = self.clock.now()
        wait_hint = _IDLE_WAIT
        oldest_key, oldest_age = None, -1.0
        for key, queue in self._queues.items():
            metrics = self._metrics[key]
            for expired in queue.pop_expired(now, self.config.max_queue_age):
                metrics.on_shed(at_admission=False)
                expired.future.set_exception(
                    OverloadedError(
                        queue.name,
                        f"queued {expired.age(now):.4f}s, age bound "
                        f"{self.config.max_queue_age}s",
                    )
                )
            for dead in queue.pop_deadline_expired(now):
                self.resilience.on_deadline_shed("queue")
                metrics.on_shed(at_admission=False)
                dead.future.set_exception(
                    DeadlineExceededError(
                        "queue",
                        f"budget spent after {dead.age(now):.4f}s on "
                        f"{queue.name}",
                    )
                )
            ready_in = self._formers[key].ready_in(queue, now)
            if ready_in is None:
                continue
            if ready_in > 0.0:  # only a fixed_delay queue lingers
                wait_hint = min(wait_hint, max(_MIN_WAIT, ready_in))
            elif (age := queue.oldest_age(now)) > oldest_age:
                oldest_key, oldest_age = key, age
        if oldest_key is None:
            return None, wait_hint
        batch = self._formers[oldest_key].form(self._queues[oldest_key], now)
        return (oldest_key, batch), 0.0

    def _execute(self, key: tuple[str, int], batch: list[QueuedRequest]) -> None:
        model_name = key[0]
        metrics = self._metrics[key]
        former = self._formers[key]
        start = self.clock.now()
        # Last deadline gate, *before* any compute (or injected handler
        # delay): a request whose budget is already spent is shed here;
        # one that starts scoring is always completed and delivered,
        # even late. "Shed before compute, never after."
        live = []
        for request in batch:
            if request.deadline_expired(start):
                self.resilience.on_deadline_shed("pre-compute")
                metrics.on_shed(at_admission=False)
                request.future.set_exception(
                    DeadlineExceededError(
                        "pre-compute",
                        f"budget spent after {request.age(start):.4f}s "
                        f"waiting on {model_name}@node{key[1]}",
                    )
                )
            else:
                live.append(request)
        batch = live
        if not batch:
            return
        handler_delay = chaos.latency("engine.slow_handler")
        if handler_delay > 0.0:
            self.clock.advance(handler_delay)
        try:
            outcomes = self._run_batch(model_name, batch)
        except Exception:
            # One poisoned request must not fail its batch neighbours:
            # fall back to serving each request individually.
            outcomes = [self._run_single(request) for request in batch]
        worst = self._account_batch(
            metrics, [r.enqueue_time for r in batch], start, self.clock.now()
        )
        for request, outcome in zip(batch, outcomes):
            if isinstance(outcome, BaseException):
                request.future.set_exception(outcome)
            else:
                request.future.set_result(outcome)
        former.policy.observe(len(batch), worst)

    def _account_batch(
        self,
        metrics: QueueMetrics,
        enqueue_times: list[float],
        start: float,
        end: float,
    ) -> float:
        """Count one scored batch in its queue's metrics, whichever
        thread scored it: its size and service time and, per request,
        the wait (arrival to start of compute), the end-to-end latency
        and the SLO verdict. Returns the worst end-to-end latency."""
        metrics.batch_sizes.observe(len(enqueue_times))
        metrics.service.record(max(0.0, end - start))
        worst = 0.0
        for stamp in enqueue_times:
            metrics.wait.record(max(0.0, start - stamp))
            elapsed = max(0.0, end - stamp)
            metrics.end_to_end.record(elapsed)
            worst = max(worst, elapsed)
            metrics.on_complete(slo_hit=elapsed <= self.config.slo_p99)
        return worst

    def _run_batch(self, model_name: str, batch: list[QueuedRequest]):
        """Evaluate a whole batch through one ``predict_batch`` call.

        ``top_k`` requests are flattened into the same stacked scoring
        pass as point predictions, then re-ranked per request.
        """
        service = self.velox.service
        user_ids: list[int] = []
        xs: list = []
        spans: list[tuple[QueuedRequest, int, int]] = []
        for request in batch:
            begin = len(user_ids)
            if request.kind == "predict":
                user_ids.append(request.uid)
                xs.append(request.item)
            else:
                candidates = list(request.items)
                if request.item_filter is not None:
                    candidates = [
                        x for x in candidates if request.item_filter(x)
                    ]
                user_ids.extend([request.uid] * len(candidates))
                xs.extend(candidates)
            spans.append((request, begin, len(user_ids)))
        results = service.predict_batch(model_name, user_ids, xs)
        outcomes = []
        for request, begin, stop in spans:
            slice_results = results[begin:stop]
            if request.kind == "predict":
                outcomes.append(slice_results[0])
            else:
                policy = (
                    request.policy if request.policy is not None else GreedyPolicy()
                )
                ranked = sorted(
                    slice_results,
                    key=lambda r: policy.selection_score(r.score, r.uncertainty),
                    reverse=True,
                )
                outcomes.append(ranked[: request.k])
        return outcomes

    def _run_single(self, request: QueuedRequest):
        """Scalar fallback; returns the result or the exception."""
        service = self.velox.service
        try:
            if request.kind == "predict":
                return service.predict(request.model, request.uid, request.item)
            return service.top_k(
                request.model,
                request.uid,
                list(request.items),
                k=request.k,
                policy=request.policy,
                item_filter=request.item_filter,
            )
        except Exception as err:
            return err

    # -- observability -------------------------------------------------------

    def queue_metrics(self) -> dict[str, QueueMetrics]:
        """Live :class:`QueueMetrics` objects keyed by queue name."""
        with self._cond:
            return {m.name: m for m in self._metrics.values()}

    def queue_depths(self) -> dict[str, int]:
        """Current depth of every queue."""
        with self._cond:
            return {q.name: len(q) for q in self._queues.values()}

    def metrics_snapshot(self) -> dict[str, dict]:
        """Plain-dict snapshot of every queue's metrics."""
        return {
            name: metrics.snapshot()
            for name, metrics in self.queue_metrics().items()
        }
