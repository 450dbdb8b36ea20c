"""Typed API request and response objects.

Requests mirror Listing 1 (``predict``, ``topK``, ``observe``) plus the
management endpoints (``health``, ``retrain``, ``status``,
``analytics``). Item payloads may be integers (materialized models) or
float vectors (computed models); :mod:`repro.frontend.wire` carries
both.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PredictApiRequest:
    """Point prediction for (uid, item).

    ``deadline`` is the request's remaining end-to-end budget in seconds
    (relative, so it survives clock skew between client and server); the
    serving engine sheds the request — always before model compute —
    once the budget is spent. ``degraded`` asks for the cache-only rung
    of the degradation ladder: answer from the prediction cache without
    queueing, or fail fast.
    """
    uid: int
    item: object
    model: str | None = None
    deadline: float | None = None
    degraded: bool = False


@dataclass(frozen=True)
class TopKApiRequest:
    """Best-k over a provided candidate set.

    ``deadline``/``degraded`` as on :class:`PredictApiRequest`.
    """
    uid: int
    items: tuple
    k: int = 1
    model: str | None = None
    policy: str | None = None
    deadline: float | None = None
    degraded: bool = False


@dataclass(frozen=True)
class ObserveApiRequest:
    """One labelled feedback observation."""
    uid: int
    item: object
    label: float
    model: str | None = None
    #: marks bandit-collected feedback for the unbiased validation pool
    #: (paper Section 4.3)
    validation: bool = False


@dataclass(frozen=True)
class HealthApiRequest:
    """Model-health snapshot."""
    model: str | None = None


@dataclass(frozen=True)
class RetrainApiRequest:
    """Trigger an offline retrain."""
    model: str | None = None
    reason: str = "api request"


@dataclass(frozen=True)
class TopKCatalogApiRequest:
    """Exact best-k over the model's whole catalog (indexed engine)."""

    uid: int
    k: int = 10
    model: str | None = None


@dataclass(frozen=True)
class StatusApiRequest:
    """Deployment status report (the admin endpoint)."""


@dataclass(frozen=True)
class AnalyticsApiRequest:
    """One rollup query over a model's observation log.

    Mirrors :class:`~repro.analytics.AnalyticsQuery` field for field
    (filters on ``uid``/``item``/timestamp range, optional ``group_by``,
    aggregate over labels), plus the routing escape hatch
    ``force_scan`` and the usual optional ``model`` selector.
    """

    uid: int | None = None
    item: int | None = None
    time_start: float | None = None
    time_end: float | None = None
    group_by: str | None = None
    agg: str = "count"
    force_scan: bool = False
    model: str | None = None

    def to_query(self):
        """The engine-side :class:`~repro.analytics.AnalyticsQuery`
        (validates filters/aggregate at conversion time)."""
        from repro.analytics import AnalyticsQuery

        return AnalyticsQuery(
            uid=self.uid,
            item_id=self.item,
            time_start=self.time_start,
            time_end=self.time_end,
            group_by=self.group_by,
            agg=self.agg,
        )


@dataclass(frozen=True)
class ApiResponse:
    """Uniform response envelope."""

    ok: bool
    payload: dict = field(default_factory=dict)
    error: str = ""
