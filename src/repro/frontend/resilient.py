"""The client transport: pooled pipelined connections per endpoint,
with retries, hedged reads, circuit breaking and the degradation ladder.

:class:`ResilientClient` keeps ``pool_size``
:class:`~repro.frontend.pipelined.PipelinedClient` connections to each
server endpoint (reconnecting dead ones under a doubling backoff) and
sends every request through the policy stack the chaos ablation
exercises:

* **Retry with jittered exponential backoff** (:class:`RetryPolicy`)
  for *idempotent reads only* — predict/top-k/status-class requests.
  Writes (``observe``, ``retrain``) are never retried: a lost response
  does not prove the write was lost.
* **A per-client retry budget** (:class:`RetryBudget`, a token bucket
  fed by successful first attempts) so a broken server sees a trickle
  of retries, not a storm that finishes it off.
* **Hedged reads** (:class:`HedgePolicy`): when a response is slower
  than the client's own recent latency percentile, a duplicate request
  is launched on another connection and the first answer wins — the
  classic tail-at-scale trade of a few percent extra load for a
  collapsed p99.
* **A per-endpoint circuit breaker** (:class:`CircuitBreaker`,
  closed → open → half-open) consulted before every send, so a dead
  node costs one timeout per reset interval instead of one per request.
* **The degradation ladder**: fresh predict → cached-only answer
  (``degraded=True`` wire flag, served off the server's prediction
  cache without queueing) → bounded-stale follower read (server-side
  automatic on node failure; responses arrive flagged ``stale``) →
  typed :class:`~repro.common.errors.DegradedError`.

A plain round-robin pool is this class with the policies turned off:
``RetryPolicy(max_attempts=1)``, ``HedgePolicy(max_hedges=0)``,
``degrade=False`` and a ``breaker_threshold`` no run reaches.

Every random draw comes from a seeded generator. Of the timers only the
breaker's is injectable (``CircuitBreaker(time_source=)``); ``call``,
``_attempt`` and the reconnect backoff read ``time.monotonic`` and
``time.sleep`` directly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from repro.common.errors import (
    CircuitOpenError,
    DegradedError,
    OverloadedError,
    TransportError,
    ValidationError,
)
from repro.common.rng import DEFAULT_SEED
from repro.frontend.api import (
    ApiResponse,
    PredictApiRequest,
    TopKApiRequest,
)
from repro.frontend.pipelined import PipelinedClient
from repro.metrics.resilience import ResilienceMetrics

#: Error-envelope prefixes that mark a *retryable* server-side failure.
RETRYABLE_ERRORS = ("OverloadedError", "DeadlineExceededError")

#: A dead connection's first reconnect wait and the cap it doubles to (s).
RECONNECT_BACKOFF = 0.05
MAX_RECONNECT_BACKOFF = 2.0

#: The least one attempt is given, however little of the call's budget is left (s).
MIN_ATTEMPT_BUDGET = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for idempotent reads.

    ``max_attempts`` counts the first try: 3 means one try plus at most
    two retries. Backoff for retry ``n`` (0-based) is
    ``min(base * multiplier**n, cap)`` scaled by a uniform jitter in
    ``[1 - jitter, 1]`` — full-jitter style, so synchronized clients
    desynchronize instead of retrying in lockstep.
    """

    max_attempts: int = 3
    base_backoff: float = 0.01
    multiplier: float = 2.0
    max_backoff: float = 0.5
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff < 0 or self.max_backoff < self.base_backoff:
            raise ValidationError(
                "backoff must satisfy 0 <= base "
                f"({self.base_backoff}) <= cap ({self.max_backoff})"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValidationError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff(self, retry_index: int, uniform: float) -> float:
        """Sleep before retry ``retry_index``; ``uniform`` is a [0,1) draw."""
        raw = min(
            self.base_backoff * (self.multiplier ** retry_index),
            self.max_backoff,
        )
        return raw * (1.0 - self.jitter * uniform)


class RetryBudget:
    """A token bucket bounding the client's retry rate.

    Every *first* attempt deposits ``ratio`` tokens (capped); every
    retry withdraws one. Under a healthy server the bucket stays full
    and retries are free; under a broken one the client can retry at
    most ``ratio`` of its request rate — no retry storms.
    """

    def __init__(self, ratio: float = 0.2, max_tokens: float = 10.0):
        if ratio < 0 or max_tokens <= 0:
            raise ValidationError(
                f"retry budget needs ratio >= 0 ({ratio}) and "
                f"max_tokens > 0 ({max_tokens})"
            )
        self.ratio = ratio
        self.max_tokens = max_tokens
        self._lock = threading.Lock()
        self._tokens = max_tokens  # start full: first incident is covered

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def deposit(self) -> None:
        """Credit one first attempt."""
        with self._lock:
            self._tokens = min(self.max_tokens, self._tokens + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one retry token; False means the budget is dry."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """A per-target closed / open / half-open circuit breaker.

    Closed: calls flow; ``failure_threshold`` *consecutive* failures
    trip it open. Open: every call is refused at pick time with
    :class:`~repro.common.errors.CircuitOpenError` until
    ``reset_timeout`` elapses. Half-open: exactly one probe call is let
    through — success closes the breaker, failure reopens it (and
    restarts the timeout). Concurrent callers during half-open are
    refused rather than piled onto a maybe-dead target.
    """

    def __init__(
        self,
        target: str,
        failure_threshold: int = 3,
        reset_timeout: float = 0.5,
        time_source=time.monotonic,
        metrics: ResilienceMetrics | None = None,
    ):
        if failure_threshold < 1:
            raise ValidationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ValidationError(
                f"reset_timeout must be > 0, got {reset_timeout}"
            )
        self.target = target
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._now = time_source
        self._metrics = metrics
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _transition_locked(self, new: str) -> None:
        old = self._state
        if old == new:
            return
        self._state = new
        if self._metrics is not None:
            self._metrics.on_breaker_transition(self.target, old, new)

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == OPEN
            and self._now() - self._opened_at >= self.reset_timeout
        ):
            self._transition_locked(HALF_OPEN)
            self._probe_inflight = False

    def before_call(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` when refused."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return
            if self._state == HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True  # this caller is the probe
                return
            retry_after = max(
                0.0, self.reset_timeout - (self._now() - self._opened_at)
            )
            if self._metrics is not None:
                self._metrics.on_breaker_rejection()
            raise CircuitOpenError(self.target, retry_after)

    def on_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_inflight = False
            if self._state != CLOSED:
                self._transition_locked(CLOSED)

    def on_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            self._probe_inflight = False
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open.
                self._opened_at = self._now()
                self._transition_locked(OPEN)
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = self._now()
                self._transition_locked(OPEN)

    def on_abandon(self) -> None:
        """A send ended with no verdict (out-run by a duplicate): free
        the half-open probe slot so the next call probes again."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_inflight = False


class HedgePolicy:
    """Latency-percentile hedging trigger.

    Tracks the last ``window`` observed latencies; once ``min_samples``
    have accumulated, :meth:`hedge_delay` is the ``percentile`` of that
    window — wait that long for the primary, then launch the hedge.
    Before the window warms up, hedging is disabled (returns ``None``):
    the client has no idea yet what "slow" means.
    """

    def __init__(
        self,
        percentile: float = 95.0,
        window: int = 128,
        min_samples: int = 16,
        max_delay: float = 1.0,
        max_hedges: int = 1,
    ):
        if not 0.0 < percentile <= 100.0:
            raise ValidationError(
                f"percentile must be in (0, 100], got {percentile}"
            )
        if window < 1 or min_samples < 1 or min_samples > window:
            raise ValidationError(
                f"need 1 <= min_samples ({min_samples}) <= window ({window})"
            )
        if max_delay <= 0:
            raise ValidationError(f"max_delay must be > 0, got {max_delay}")
        if max_hedges < 0:
            raise ValidationError(
                f"max_hedges must be >= 0, got {max_hedges}"
            )
        self.percentile = percentile
        self.min_samples = min_samples
        self.max_delay = max_delay
        #: Duplicate sends allowed per logical call beyond the primary.
        #: 1 is the classic tail-at-scale hedge; raising it lets the
        #: client survive the (rare) case where the hedge's response is
        #: *also* lost without stalling for the whole call budget.
        self.max_hedges = max_hedges
        self._lock = threading.Lock()
        self._window: deque[float] = deque(maxlen=window)

    def observe(self, latency: float) -> None:
        """Record one completed call's latency (seconds)."""
        with self._lock:
            self._window.append(max(0.0, latency))

    def hedge_delay(self) -> float | None:
        """Seconds to wait before hedging, or ``None`` (don't hedge)."""
        with self._lock:
            if len(self._window) < self.min_samples:
                return None
            delay = float(
                np.percentile(np.asarray(self._window), self.percentile)
            )
        return min(max(delay, 1e-4), self.max_delay)


class _Endpoint:
    """One server address: its breaker and ``size`` pipelined connections.

    Connections are opened eagerly, but a down endpoint is tolerated: a
    dead slot stays ``None`` and is healed on a later :meth:`submit`, so
    a client can be built while its target is down. Sends round-robin
    over the live slots; a dead one (a restarted server, a dropped
    socket) is noticed at pick time and reconnected under a doubling,
    capped backoff, so a tight call loop is never a tight connect loop.
    """

    def __init__(self, connect, size: int, breaker: CircuitBreaker):
        self.breaker = breaker
        self._connect = connect  # () -> a new PipelinedClient, or raises
        self.clients: list[PipelinedClient | None] = [None] * size
        #: per-slot current backoff and earliest next attempt (monotonic).
        self._backoff = [RECONNECT_BACKOFF] * size
        self._retry_at = [0.0] * size
        #: dead slots healed, and connect attempts that found the server down.
        self.reconnects = 0
        self.failed_reconnects = 0
        self._closed = False
        self._lock = threading.Lock()
        self._next = 0
        for index in range(size):
            self._open_slot(index)

    def _open_slot(self, index: int) -> PipelinedClient | None:
        """Open slot ``index``; on failure push its next attempt out."""
        try:
            client = self._connect()
        except (TransportError, OSError):
            self.failed_reconnects += 1
            self.clients[index] = None
            self._retry_at[index] = time.monotonic() + self._backoff[index]
            self._backoff[index] = min(
                self._backoff[index] * 2, MAX_RECONNECT_BACKOFF
            )
            return None
        self.clients[index] = client
        self._backoff[index] = RECONNECT_BACKOFF
        self._retry_at[index] = 0.0
        return client

    def _pick(self) -> PipelinedClient:
        """The next usable connection, healing dead slots on the way.

        Scans at most one full round: a live slot wins at once; a dead
        slot whose backoff has elapsed gets one reconnect attempt. With
        every slot down and backing off the send fails rather than waits.
        """
        with self._lock:
            if self._closed:
                raise TransportError("client is closed")
            for _ in range(len(self.clients)):
                index = self._next % len(self.clients)
                self._next += 1
                client = self.clients[index]
                if client is not None and not client.closed:
                    return client
                if time.monotonic() >= self._retry_at[index]:
                    client = self._open_slot(index)
                    if client is not None:
                        self.reconnects += 1
                        return client
            raise TransportError(
                f"all {len(self.clients)} connections to "
                f"{self.breaker.target} are down "
                f"({self.failed_reconnects} failed reconnects so far)"
            )

    def submit(self, request) -> tuple[PipelinedClient, Future]:
        """Breaker-gated send on the next usable connection.

        Raises :class:`CircuitOpenError` while the breaker refuses, and
        reports a send that failed before it had a future to the breaker
        here; whoever gets the future settles it.
        """
        self.breaker.before_call()
        try:
            client = self._pick()
            return client, client.submit(request)
        except TransportError:
            self.breaker.on_failure()
            raise

    def close(self) -> None:
        with self._lock:
            self._closed = True
        for client in self.clients:
            if client is not None:
                client.close()


class ResilientClient:
    """Retries, hedges, breaks circuits, and degrades — in that order.

    Usage::

        client = ResilientClient([(host, port)], pool_size=4)
        response = client.predict(uid=7, item=42, deadline=0.05)
        client.close()

    ``endpoints`` is a list of ``(host, port)`` targets, each with its
    own :class:`CircuitBreaker` and ``pool_size`` pipelined connections.
    Reads rotate across healthy endpoints; hedges prefer a *different*
    endpoint than the primary attempt.

    The full read path: circuit-gated call → hedge if slow → retry
    (budget permitting, idempotent only) with jittered backoff on a
    retryable failure → cache-only degraded request → typed
    :class:`~repro.common.errors.DegradedError`. Every step is counted
    in :attr:`metrics`.
    """

    def __init__(
        self,
        endpoints,
        pool_size: int = 2,
        timeout: float = 10.0,
        retry: RetryPolicy | None = None,
        budget: RetryBudget | None = None,
        hedge: HedgePolicy | None = None,
        breaker_threshold: int = 3,
        breaker_reset: float = 0.5,
        degrade: bool = True,
        seed: int = DEFAULT_SEED,
        max_inflight: int | None = None,
    ):
        targets = list(endpoints)
        if not targets:
            raise ValidationError("ResilientClient needs at least one endpoint")
        if pool_size < 1:
            raise ValidationError(f"pool_size must be >= 1, got {pool_size}")
        self.metrics = ResilienceMetrics("client")
        self.retry = retry if retry is not None else RetryPolicy()
        self.budget = budget if budget is not None else RetryBudget()
        self.hedge = hedge if hedge is not None else HedgePolicy()
        self.degrade = degrade
        self._timeout = timeout
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()
        self._pick_lock = threading.Lock()
        self._next_endpoint = 0
        self._endpoints: list[_Endpoint] = []
        try:
            for host, port in targets:
                breaker = CircuitBreaker(
                    f"{host}:{port}",
                    failure_threshold=breaker_threshold,
                    reset_timeout=breaker_reset,
                    metrics=self.metrics,
                )
                connect = partial(
                    PipelinedClient,
                    host,
                    port,
                    timeout=timeout,
                    max_inflight=max_inflight,
                )
                self._endpoints.append(_Endpoint(connect, pool_size, breaker))
        except Exception:
            self.close()
            raise

    # -- endpoint selection ---------------------------------------------------

    def _pick(self) -> list[_Endpoint]:
        """Every endpoint, healthy breakers first, starting round-robin."""
        count = len(self._endpoints)
        with self._pick_lock:
            start = self._next_endpoint
            self._next_endpoint = (start + 1) % count
        order = [self._endpoints[(start + i) % count] for i in range(count)]
        order.sort(key=lambda endpoint: endpoint.breaker.state == OPEN)
        return order

    def _uniform(self) -> float:
        with self._rng_lock:
            return float(self._rng.random())

    # -- the read path --------------------------------------------------------

    def call(
        self,
        request,
        idempotent: bool = True,
        timeout: float | None = None,
    ) -> ApiResponse:
        """One request through the full policy stack.

        Raises :class:`DegradedError` when every rung fails;
        server-side error envelopes that are not retryable are returned
        as-is (the caller sees exactly what a plain client would).
        """
        deadline_wall = time.monotonic() + (
            timeout if timeout is not None else self._timeout
        )
        last_error: Exception | None = None
        attempts = self.retry.max_attempts if idempotent else 1
        for attempt in range(attempts):
            if attempt > 0:
                if not self.budget.try_spend():
                    self.metrics.on_retry_budget_exhausted()
                    break
                self.metrics.on_retry()
                time.sleep(self.retry.backoff(attempt - 1, self._uniform()))
                if time.monotonic() >= deadline_wall:
                    break
            try:
                response = self._attempt(
                    request, self._pick(), idempotent, deadline_wall
                )
            except (TransportError, CircuitOpenError) as err:
                last_error = err
                continue
            if attempt == 0:
                self.budget.deposit()
            if response.ok:
                if response.payload.get("stale"):
                    # Bounded-stale follower read: the replication layer
                    # promoted a lagging follower under us. Count the
                    # ladder rung; the payload keeps its flag.
                    self.metrics.on_degraded("stale")
                return response
            if not response.error.startswith(RETRYABLE_ERRORS):
                return response
            last_error = OverloadedError("resilient-client", response.error)
        if idempotent and self.degrade:
            degraded = self._degraded_call(request, deadline_wall)
            if degraded is not None:
                return degraded
        self.metrics.on_degraded("error")
        raise DegradedError(
            f"every rung failed for {type(request).__name__}: "
            f"{type(last_error).__name__ if last_error else 'no attempt ran'}"
            f"{f': {last_error}' if last_error else ''}"
        )

    def _attempt(
        self, request, order: list[_Endpoint], hedge: bool, deadline_wall: float
    ) -> ApiResponse:
        """One (possibly hedged) send, settled and released here.

        The primary goes to ``order[0]``, each hedge to the endpoint
        after the last one used. The attempt has until ``deadline_wall``
        and never less than :data:`MIN_ATTEMPT_BUDGET`. Every send that
        got a future is settled in this method and nowhere else: an
        answer or a transport failure is reported to its endpoint's
        breaker (so a node that accepts sends and never answers still
        trips it), and whatever is unanswered when the attempt ends —
        out of time, or out-run by a duplicate — is abandoned, which
        frees its window slot and its breaker's half-open probe slot and
        counts one ``metrics.timed_out``.
        """
        start = time.monotonic()
        remaining = max(MIN_ATTEMPT_BUDGET, deadline_wall - start)
        client, primary = order[0].submit(request)
        #: future -> (endpoint, connection) of every send not settled yet.
        sends = {primary: (order[0], client)}
        hedge_delay = self.hedge.hedge_delay() if hedge else None
        hedges_left = self.hedge.max_hedges if hedge_delay is not None else 0
        next_source = 1  # hedges prefer a different endpoint than the primary
        errors = []
        try:
            while sends:
                wait_left = remaining - (time.monotonic() - start)
                if wait_left <= 0:
                    for endpoint, _ in sends.values():
                        endpoint.breaker.on_failure()
                    raise TransportError(
                        f"no response within {remaining:.3f}s (hedged: "
                        f"{len(sends) > 1})"
                    )
                # While hedges remain, wait only one hedge_delay at a
                # time: every expiry launches one more duplicate send, so
                # a lost response costs a tail percentile, not the whole
                # budget.
                patience = wait_left
                if hedges_left > 0 and hedge_delay < wait_left:
                    patience = hedge_delay
                done, _ = wait(
                    sends, timeout=patience, return_when=FIRST_COMPLETED
                )
                if not done and hedges_left > 0:
                    hedges_left -= 1
                    target = order[next_source % len(order)]
                    next_source += 1
                    try:
                        client, hedged = target.submit(request)
                    except (TransportError, CircuitOpenError):
                        continue  # hedge target down; earlier sends still run
                    sends[hedged] = (target, client)
                    self.metrics.on_hedge_launched()
                winner: ApiResponse | None = None
                for future in done:
                    endpoint, _ = sends.pop(future)
                    try:
                        response = future.result()
                    except Exception as err:
                        endpoint.breaker.on_failure()
                        errors.append(err)
                        continue
                    endpoint.breaker.on_success()
                    if winner is None:
                        winner = response
                        if future is not primary:
                            self.metrics.on_hedge_won()
                if winner is not None:
                    self.hedge.observe(time.monotonic() - start)
                    return winner
            raise errors[0]
        finally:
            for future, (endpoint, client) in sends.items():
                endpoint.breaker.on_abandon()
                if client.abandon(future):
                    self.metrics.on_timed_out()

    def _degraded_call(
        self, request, deadline_wall: float
    ) -> ApiResponse | None:
        """The cache-only rung: re-send with the ``degraded`` wire flag,
        to each endpoint in turn, inside what is left of the call's
        budget.

        Returns ``None`` when the request type has no degraded form or
        the transport is entirely gone (the caller falls through to the
        typed error).
        """
        if not isinstance(request, (PredictApiRequest, TopKApiRequest)):
            return None
        fallback = replace(request, deadline=None, degraded=True)
        for endpoint in self._pick():
            try:
                response = self._attempt(
                    fallback, [endpoint], False, deadline_wall
                )
            except (TransportError, CircuitOpenError):
                continue
            if response.ok:
                self.metrics.on_degraded("cached")
                return response
            return None  # DegradedError envelope: the cache is empty too
        return None

    # -- convenience read/write methods ---------------------------------------

    def predict(
        self,
        uid: int,
        item: object,
        model: str | None = None,
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> ApiResponse:
        """Resilient point prediction (idempotent: full ladder)."""
        return self.call(
            PredictApiRequest(
                uid=uid, item=item, model=model, deadline=deadline
            ),
            idempotent=True,
            timeout=timeout,
        )

    def top_k(
        self,
        uid: int,
        items,
        k: int = 1,
        model: str | None = None,
        policy: str | None = None,
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> ApiResponse:
        """Resilient best-k (idempotent: full ladder)."""
        return self.call(
            TopKApiRequest(
                uid=uid, items=tuple(items), k=k, model=model,
                policy=policy, deadline=deadline,
            ),
            idempotent=True,
            timeout=timeout,
        )

    def write(self, request, timeout: float | None = None) -> ApiResponse:
        """Non-idempotent dispatch: one attempt, no hedge, no retry."""
        return self.call(request, idempotent=False, timeout=timeout)

    def breaker_states(self) -> dict[str, str]:
        """Current breaker state per endpoint."""
        return {e.breaker.target: e.breaker.state for e in self._endpoints}

    @property
    def reconnects(self) -> int:
        """Dead connections healed, over every endpoint."""
        return sum(e.reconnects for e in self._endpoints)

    @property
    def failed_reconnects(self) -> int:
        """Connect attempts that found an endpoint down."""
        return sum(e.failed_reconnects for e in self._endpoints)

    @property
    def in_flight(self) -> int:
        """Sends still holding a window slot, over every connection."""
        return sum(
            client.in_flight
            for endpoint in self._endpoints
            for client in endpoint.clients
            if client is not None
        )

    def close(self) -> None:
        """Close every connection; later calls are refused."""
        for endpoint in self._endpoints:
            endpoint.close()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
