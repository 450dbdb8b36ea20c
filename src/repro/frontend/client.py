"""In-process client: dispatches API objects against a Velox deployment.

The TCP server reduces to this dispatcher, so the API surface
(validation, response shapes, error envelopes) is identical whether
calls arrive in-process or over the wire.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.common.errors import ReproError
from repro.core.bandits import make_policy
from repro.frontend.api import (
    AnalyticsApiRequest,
    ApiResponse,
    HealthApiRequest,
    ObserveApiRequest,
    PredictApiRequest,
    RetrainApiRequest,
    StatusApiRequest,
    TopKApiRequest,
    TopKCatalogApiRequest,
)


class VeloxClient:
    """Binds API request objects to a :class:`~repro.core.velox.Velox`.

    With a started :class:`~repro.serving.ServingEngine`, ``predict``
    and ``top_k`` requests are enqueued through the engine (batching,
    admission control, shedding) instead of dispatched inline; every
    other request type keeps the synchronous path. Shed requests come
    back as ``OverloadedError`` error envelopes, never exceptions.
    """

    def __init__(self, velox, engine=None):
        self.velox = velox
        self.engine = engine
        #: Optional zero-arg callable returning transport counters; set
        #: by the TCP server so ``status`` responses expose the front
        #: end's state (open sockets, backpressure, dispatch depth).
        self.frontend_status = None
        # The side pool for analytics and retrain requests (see
        # dispatch_async). Created lazily — most clients send neither.
        self._side_pool: ThreadPoolExecutor | None = None
        self._side_pool_lock = threading.Lock()

    # -- convenience methods (build request objects internally) -------------

    def predict(self, uid: int, item: object, model: str | None = None) -> ApiResponse:
        """Point prediction via the API envelope."""
        return self.dispatch(PredictApiRequest(uid=uid, item=item, model=model))

    def top_k(
        self,
        uid: int,
        items,
        k: int = 1,
        model: str | None = None,
        policy: str | None = None,
    ) -> ApiResponse:
        """Best-k candidates via the API envelope."""
        return self.dispatch(
            TopKApiRequest(uid=uid, items=tuple(items), k=k, model=model, policy=policy)
        )

    def observe(
        self,
        uid: int,
        item: object,
        label: float,
        model: str | None = None,
        validation: bool = False,
    ) -> ApiResponse:
        """Feedback ingestion via the API envelope."""
        return self.dispatch(
            ObserveApiRequest(
                uid=uid, item=item, label=label, model=model, validation=validation
            )
        )

    def health(self, model: str | None = None) -> ApiResponse:
        """Model-health snapshot via the API envelope."""
        return self.dispatch(HealthApiRequest(model=model))

    def retrain(self, model: str | None = None, reason: str = "api request") -> ApiResponse:
        """Trigger an offline retrain via the API envelope."""
        return self.dispatch(RetrainApiRequest(model=model, reason=reason))

    def top_k_catalog(self, uid: int, k: int = 10, model: str | None = None) -> ApiResponse:
        """Whole-catalog best-k via the API envelope."""
        return self.dispatch(TopKCatalogApiRequest(uid=uid, k=k, model=model))

    def status(self) -> ApiResponse:
        """Deployment status report via the API envelope."""
        return self.dispatch(StatusApiRequest())

    def analytics(
        self,
        uid: int | None = None,
        item: int | None = None,
        time_start: float | None = None,
        time_end: float | None = None,
        group_by: str | None = None,
        agg: str = "count",
        force_scan: bool = False,
        model: str | None = None,
    ) -> ApiResponse:
        """One observation-log rollup query via the API envelope."""
        return self.dispatch(
            AnalyticsApiRequest(
                uid=uid,
                item=item,
                time_start=time_start,
                time_end=time_end,
                group_by=group_by,
                agg=agg,
                force_scan=force_scan,
                model=model,
            )
        )

    # -- dispatcher ----------------------------------------------------------

    def dispatch(self, request) -> ApiResponse:
        """Execute one API request; errors become error envelopes rather
        than exceptions, as a network server must behave."""
        try:
            return self._dispatch(request)
        except ReproError as err:
            return ApiResponse(ok=False, error=f"{type(err).__name__}: {err}")

    def dispatch_async(
        self, request, enqueue_time: float | None = None
    ) -> "Future[ApiResponse]":
        """Execute one API request without blocking the caller.

        The pipelined server path: ``predict``/``top_k`` requests with
        an attached engine are *enqueued* (the returned future completes
        when the engine's worker pool serves or sheds the batch), so the
        reactor can keep many requests in flight and fill adaptive
        batches. ``analytics`` and ``retrain`` requests run on a small
        side pool. Every other request — and a predict or top-k when no
        engine is attached — is dispatched inline and returned as an
        already-completed future. Like :meth:`dispatch`, the future
        always yields an :class:`ApiResponse`; errors become envelopes,
        never exceptions.

        ``enqueue_time`` lets a transport stamp the request when its
        bytes arrived (the event-loop server stamps at ``recv``), so
        admission control's age accounting covers frame reassembly and
        backpressure delay, not just queue residence.
        """
        if isinstance(request, (PredictApiRequest, TopKApiRequest)) and (
            request.degraded
        ):
            # The degradation ladder's cache-only rung: answer from the
            # prediction cache without touching the engine queues, or
            # fail fast with the typed bottom rung. Serving it inline
            # keeps degraded reads sub-queue-latency by construction.
            return self._completed(self._dispatch_degraded(request))
        if self.engine is not None and isinstance(
            request, (PredictApiRequest, TopKApiRequest)
        ):
            # Timestamp at intake, before policy construction or queue
            # routing, so age-bound shedding sees the transport delay.
            arrived = (
                enqueue_time
                if enqueue_time is not None
                else self.engine.clock.now()
            )
            try:
                if isinstance(request, PredictApiRequest):
                    inner = self.engine.submit_predict(
                        request.uid,
                        request.item,
                        model=request.model,
                        enqueue_time=arrived,
                        deadline=request.deadline,
                    )
                    build = self._predict_payload
                else:
                    policy = (
                        make_policy(
                            request.policy, self.velox.config.bandit_exploration
                        )
                        if request.policy
                        else None
                    )
                    inner = self.engine.submit_top_k(
                        request.uid,
                        list(request.items),
                        k=request.k,
                        model=request.model,
                        policy=policy,
                        enqueue_time=arrived,
                        deadline=request.deadline,
                    )
                    build = self._top_k_payload
            except ReproError as err:
                return self._completed(
                    ApiResponse(ok=False, error=f"{type(err).__name__}: {err}")
                )
            outer: Future = Future()

            def _complete(done) -> None:
                try:
                    outer.set_result(ApiResponse(ok=True, payload=build(done.result())))
                except Exception as err:
                    outer.set_result(
                        ApiResponse(ok=False, error=f"{type(err).__name__}: {err}")
                    )

            inner.add_done_callback(_complete)
            return outer
        if isinstance(request, (AnalyticsApiRequest, RetrainApiRequest)):
            # Analytics may fall back to a log scan and a retrain waits
            # for its swap; run both on the side pool so neither stalls
            # the event-loop thread between serving requests.
            pool = self._side_pool
            if pool is None:
                with self._side_pool_lock:
                    pool = self._side_pool
                    if pool is None:
                        pool = ThreadPoolExecutor(
                            max_workers=2, thread_name_prefix="velox-side"
                        )
                        self._side_pool = pool

            def _run_on_side_pool() -> ApiResponse:
                try:
                    return self.dispatch(request)
                except Exception as err:
                    return ApiResponse(
                        ok=False, error=f"{type(err).__name__}: {err}"
                    )

            return pool.submit(_run_on_side_pool)
        try:
            return self._completed(self.dispatch(request))
        except Exception as err:  # dispatch of unknown/broken requests
            return self._completed(
                ApiResponse(ok=False, error=f"{type(err).__name__}: {err}")
            )

    def predict_inline(
        self, request: PredictApiRequest, enqueue_time: float | None = None
    ) -> ApiResponse | None:
        """Answer an ordinary predict on the calling thread when the
        engine is idle; ``None`` means "not taken": the caller falls
        back to :meth:`dispatch_async`, which does exactly what it did
        before this leg existed.

        The event-loop server tries this for at most one frame per turn,
        and only one that arrived alone, so the reactor computes one
        cheap row and goes back to ``select``. Which requests are
        eligible is decided in one place,
        :meth:`~repro.serving.ServingEngine.predict_inline`; this only
        wraps its answer. Errors become the envelopes the engine path
        would have sent.
        """
        if self.engine is None:
            return None
        try:
            result = self.engine.predict_inline(
                request.uid,
                request.item,
                model=request.model,
                enqueue_time=enqueue_time,
                deadline=request.deadline,
                degraded=request.degraded,
            )
        except Exception as err:
            return ApiResponse(ok=False, error=f"{type(err).__name__}: {err}")
        if result is None:
            return None
        return ApiResponse(ok=True, payload=self._predict_payload(result))

    @staticmethod
    def _completed(response: ApiResponse) -> "Future[ApiResponse]":
        future: Future = Future()
        future.set_result(response)
        return future

    def _dispatch_degraded(self, request) -> ApiResponse:
        """Serve a ``degraded=True`` request from the prediction cache.

        Never enqueues, never scores: a cache hit answers immediately
        (payload flagged ``degraded``), a miss is the ladder's typed
        bottom — a ``DegradedError`` envelope the client cannot confuse
        with overload or transport trouble.
        """
        service = self.velox.service
        model_name = self.velox._model_name(request.model)
        resilience = self.engine.resilience if self.engine is not None else None
        if isinstance(request, PredictApiRequest):
            result = service.predict_cached(
                model_name, request.uid, request.item
            )
            if result is None:
                if resilience is not None:
                    resilience.on_degraded("error")
                return ApiResponse(
                    ok=False,
                    error=(
                        "DegradedError: no cached prediction for "
                        f"user {request.uid}"
                    ),
                )
            payload = self._predict_payload(result)
        else:
            policy = (
                make_policy(request.policy, self.velox.config.bandit_exploration)
                if request.policy
                else None
            )
            results = service.top_k_cached(
                model_name,
                request.uid,
                list(request.items),
                k=request.k,
                policy=policy,
            )
            if not results:
                if resilience is not None:
                    resilience.on_degraded("error")
                return ApiResponse(
                    ok=False,
                    error=(
                        "DegradedError: no cached candidates for "
                        f"user {request.uid}"
                    ),
                )
            payload = self._top_k_payload(results)
        payload["degraded"] = True
        if resilience is not None:
            resilience.on_degraded("cached")
        return ApiResponse(ok=True, payload=payload)

    @staticmethod
    def _predict_payload(result) -> dict:
        return {
            "item": _wire_item(result.item),
            "score": result.score,
            "node": result.node_id,
            "prediction_cache_hit": result.prediction_cache_hit,
            # Bounded-staleness marker: the weights came from a promoted
            # follower that was lagging at promotion (failover serving).
            "stale": result.stale,
        }

    @staticmethod
    def _top_k_payload(results) -> dict:
        return {
            "items": [
                {"item": _wire_item(r.item), "score": r.score} for r in results
            ],
            "stale": any(r.stale for r in results),
        }

    def _dispatch(self, request) -> ApiResponse:
        if isinstance(request, (PredictApiRequest, TopKApiRequest)) and (
            request.degraded
        ):
            return self._dispatch_degraded(request)
        if isinstance(request, PredictApiRequest):
            if self.engine is not None:
                result = self.engine.predict(
                    request.uid,
                    request.item,
                    model=request.model,
                    deadline=request.deadline,
                )
            else:
                result = self.velox.predict_detailed(
                    request.model, request.uid, request.item
                )
            return ApiResponse(ok=True, payload=self._predict_payload(result))
        if isinstance(request, TopKApiRequest):
            policy = (
                make_policy(request.policy, self.velox.config.bandit_exploration)
                if request.policy
                else None
            )
            if self.engine is not None:
                results = self.engine.top_k(
                    request.uid,
                    list(request.items),
                    k=request.k,
                    model=request.model,
                    policy=policy,
                    deadline=request.deadline,
                )
            else:
                results = self.velox.service.top_k(
                    self.velox._model_name(request.model),
                    request.uid,
                    list(request.items),
                    k=request.k,
                    policy=policy,
                )
            return ApiResponse(ok=True, payload=self._top_k_payload(results))
        if isinstance(request, ObserveApiRequest):
            outcome = self.velox.observe(
                uid=request.uid,
                x=request.item,
                y=request.label,
                model_name=request.model,
                validation=request.validation,
            )
            return ApiResponse(
                ok=True,
                payload={
                    "loss": outcome.loss,
                    "retrained": outcome.retrained,
                    "node": outcome.node_id,
                },
            )
        if isinstance(request, HealthApiRequest):
            health = self.velox.health(request.model)
            payload = {
                "observations": health.observations,
                "baseline_loss": (
                    health.baseline.mean if health.baseline.count else None
                ),
                "recent_loss": health.recent.mean if health.recent.count else None,
                "validation_pool_size": len(health.validation_pool),
            }
            return ApiResponse(ok=True, payload=payload)
        if isinstance(request, RetrainApiRequest):
            event = self.velox.retrain(request.model, reason=request.reason)
            return ApiResponse(
                ok=True,
                payload={
                    "new_version": event.new_version,
                    "observations_used": event.observations_used,
                    "caches_repopulated": event.caches_repopulated,
                },
            )
        if isinstance(request, TopKCatalogApiRequest):
            results = self.velox.top_k_catalog(request.model, request.uid, k=request.k)
            return ApiResponse(
                ok=True,
                payload={
                    "items": [
                        {"item": _wire_item(item), "score": score}
                        for item, score in results
                    ]
                },
            )
        if isinstance(request, AnalyticsApiRequest):
            result = self.velox.analytics_query(
                request.to_query(),
                model_name=request.model,
                force_scan=request.force_scan,
            )
            return ApiResponse(ok=True, payload=result.payload())
        if isinstance(request, StatusApiRequest):
            from dataclasses import asdict

            from repro.core import reporting

            status = reporting.snapshot(self.velox)
            payload = asdict(status)
            payload["report"] = reporting.render(status)
            replication = getattr(self.velox.cluster, "replication", None)
            if replication is not None:
                payload["replication"] = replication.metrics.snapshot()
            if self.frontend_status is not None:
                payload["frontend"] = self.frontend_status()
            analytics = getattr(self.velox, "analytics", None)
            if analytics is not None:
                payload["analytics"] = analytics.describe()
            if self.engine is not None:
                payload["resilience"] = self.engine.resilience.snapshot()
                # Per-queue counters, ``inline`` among them: how many
                # predicts the reactor answered itself.
                payload["serving"] = self.engine.metrics_snapshot()
            return ApiResponse(ok=True, payload=payload)
        return ApiResponse(
            ok=False, error=f"unknown request type {type(request).__name__}"
        )


def _wire_item(item: object) -> object:
    """Item payloads as plain python values (numpy scalars unboxed,
    arrays as lists), the shape response payloads have always had."""
    if isinstance(item, np.integer):
        return int(item)
    if isinstance(item, np.floating):
        return float(item)
    if isinstance(item, np.ndarray):
        return item.tolist()
    return item
