"""Front-end interface: the RESTful surface of the paper's prototype.

The prototype "exposes a RESTful client interface"; this subpackage
provides the equivalent for the reproduction:

* :mod:`repro.frontend.api` — typed request/response objects,
* :mod:`repro.frontend.wire` — the length-prefixed binary framed codec
  (struct-packed frames, raw-bytes ndarray payloads, correlation ids),
* :class:`VeloxClient` — an in-process client binding the API objects
  to a deployed :class:`~repro.core.velox.Velox` instance,
* :class:`EventLoopServer` — the TCP server: one selector thread for
  every connection (``VeloxServer`` is a second name for it),
* :class:`PipelinedClient` — one socket carrying many in-flight
  correlated requests,
* :class:`ResilientClient` — the client transport: a round-robin,
  self-reconnecting set of pipelined connections per endpoint, and the
  policies every send goes through (retries under a token budget, hedged
  reads, per-endpoint circuit breaking, the degradation ladder). A plain
  pool is this class with the policies turned off.
"""

from repro.frontend.api import (
    PredictApiRequest,
    TopKApiRequest,
    ObserveApiRequest,
    HealthApiRequest,
    RetrainApiRequest,
    TopKCatalogApiRequest,
    StatusApiRequest,
    AnalyticsApiRequest,
    ApiResponse,
)
from repro.frontend.client import VeloxClient
from repro.frontend.eventloop import EventLoopServer
from repro.frontend.pipelined import PipelinedClient
from repro.frontend.resilient import (
    CircuitBreaker,
    HedgePolicy,
    ResilientClient,
    RetryBudget,
    RetryPolicy,
)

VeloxServer = EventLoopServer

__all__ = [
    "PredictApiRequest",
    "TopKApiRequest",
    "ObserveApiRequest",
    "HealthApiRequest",
    "RetrainApiRequest",
    "TopKCatalogApiRequest",
    "StatusApiRequest",
    "AnalyticsApiRequest",
    "ApiResponse",
    "VeloxClient",
    "VeloxServer",
    "EventLoopServer",
    "PipelinedClient",
    "ResilientClient",
    "CircuitBreaker",
    "HedgePolicy",
    "RetryBudget",
    "RetryPolicy",
]
