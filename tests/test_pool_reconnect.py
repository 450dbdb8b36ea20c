"""Pooled-connection self-healing: dead-connection detection and reconnect.

A server restart kills every pooled socket. The client must (a) notice
at pick time rather than round-robining onto dead sockets forever, (b)
fail fast while the server is down, and (c) transparently reconnect —
with capped backoff — once it returns, surfacing the reconnect counts.
The pool here is :class:`ResilientClient` with its policies turned off.
"""

from __future__ import annotations

import time

import pytest

from repro.common.errors import DegradedError, TransportError, ValidationError
from repro.frontend import (
    HedgePolicy,
    PipelinedClient,
    PredictApiRequest,
    ResilientClient,
    RetryPolicy,
    VeloxServer,
    resilient,
)


def plain_pool(host, port, size: int) -> ResilientClient:
    """One endpoint, ``size`` sockets, every policy off."""
    return ResilientClient(
        [(host, port)],
        pool_size=size,
        retry=RetryPolicy(max_attempts=1),
        hedge=HedgePolicy(max_hedges=0),
        breaker_threshold=1_000_000,
        degrade=False,
    )


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def call_until_healed(pool, request, timeout: float = 5.0):
    """Keep calling through reconnect backoff until the pool heals."""
    deadline = time.time() + timeout
    last_error = None
    while time.time() < deadline:
        try:
            return pool.call(request)
        except DegradedError as err:
            last_error = err
            time.sleep(0.05)
    raise AssertionError(f"pool never healed: {last_error}")


class TestPoolValidation:
    def test_size_must_be_positive(self, deployed_velox):
        with VeloxServer(deployed_velox) as server:
            with pytest.raises(ValidationError):
                plain_pool(server.host, server.port, size=0)


class TestReconnect:
    def test_pool_survives_a_server_restart(self, deployed_velox, monkeypatch):
        monkeypatch.setattr(resilient, "RECONNECT_BACKOFF", 0.02)
        request = PredictApiRequest(uid=1, item=3)
        expected = deployed_velox.service.predict("songs", 1, 3).score
        server = VeloxServer(deployed_velox).start()
        host, port = server.host, server.port
        pool = plain_pool(host, port, size=2)
        try:
            first = pool.call(request)
            assert first.ok
            assert first.payload["score"] == pytest.approx(expected, abs=1e-9)
            assert first.payload["stale"] is False  # replication flag on the wire
            assert pool.reconnects == 0

            server.stop()
            # Every pooled socket is now dead. The pool notices and
            # fails fast instead of blocking. (The first failure may be
            # a send that raced the reader thread noticing the close;
            # the reconnect attempt follows on the next pick.)
            assert wait_until(
                lambda: _call_fails(pool, request)
                and pool.failed_reconnects > 0,
                timeout=5.0,
            ), "pool kept succeeding against a stopped server"

            server = VeloxServer(deployed_velox, host=host, port=port).start()
            healed = call_until_healed(pool, request)
            assert healed.ok
            assert healed.payload["score"] == pytest.approx(expected, abs=1e-9)
            assert pool.reconnects >= 1
        finally:
            pool.close()
            server.stop()

    def test_client_marks_itself_dead_on_transport_failure(self, deployed_velox):
        """The liveness check the pool picks by: a client whose socket
        died reports closed=True even though close() was never called."""
        server = VeloxServer(deployed_velox).start()
        client = PipelinedClient(server.host, server.port)
        try:
            assert not client.closed
            server.stop()
            assert wait_until(lambda: client.closed, timeout=5.0)
            with pytest.raises(TransportError):
                client.submit(PredictApiRequest(uid=1, item=3))
        finally:
            client.close()
            server.stop()

    def test_closed_pool_rejects_submissions(self, deployed_velox):
        with VeloxServer(deployed_velox) as server:
            pool = plain_pool(server.host, server.port, size=1)
            pool.close()
            with pytest.raises(DegradedError, match="client is closed"):
                pool.call(PredictApiRequest(uid=1, item=3))

    def test_backoff_caps_reconnect_attempts(self, deployed_velox, monkeypatch):
        """While the server stays down, each failed attempt pushes the
        slot's next retry out (doubling, capped) — a tight call loop must
        not translate into a tight connect loop."""
        monkeypatch.setattr(resilient, "RECONNECT_BACKOFF", 0.2)
        monkeypatch.setattr(resilient, "MAX_RECONNECT_BACKOFF", 1.0)
        server = VeloxServer(deployed_velox).start()
        pool = plain_pool(server.host, server.port, size=1)
        try:
            server.stop()
            assert wait_until(
                lambda: _call_fails(pool, PredictApiRequest(uid=1, item=3)),
                timeout=5.0,
            )
            pool._endpoints[0]._retry_at[0] = 0.0  # force one attempt now
            with pytest.raises(DegradedError):
                pool.call(PredictApiRequest(uid=1, item=3))
            attempts = pool.failed_reconnects
            for _ in range(20):  # hammering within the backoff window...
                with pytest.raises(DegradedError):
                    pool.call(PredictApiRequest(uid=1, item=3))
            # ...performs no (or at most one racy) further connect attempt.
            assert pool.failed_reconnects <= attempts + 1
        finally:
            pool.close()


def _call_fails(pool, request) -> bool:
    try:
        pool.call(request, timeout=1.0)
        return False
    except DegradedError:
        return True
