"""TCP server + serving engine integration: concurrency and hardening."""

from __future__ import annotations

import threading

import pytest

from repro.frontend import (
    PipelinedClient,
    PredictApiRequest,
    TopKApiRequest,
    VeloxServer,
)
from repro.serving import ServingConfig


class TestEngineOverTcp:
    def test_concurrent_clients_no_drops_no_mismatches(self, deployed_velox):
        """Many clients hammering the batched path: every request gets
        its own correct response back (no drops, no cross-wiring)."""
        engine = deployed_velox.serving_engine(
            ServingConfig(num_workers=2, batching="adaptive", slo_p99=1.0)
        )
        expected = {
            (uid, item): deployed_velox.service.predict("songs", uid, item).score
            for uid in range(8)
            for item in range(10)
        }
        failures = []
        with VeloxServer(deployed_velox, engine=engine) as server:

            def worker(uid: int) -> None:
                try:
                    with PipelinedClient(server.host, server.port) as client:
                        for item in range(10):
                            response = client.call(
                                PredictApiRequest(uid=uid, item=item)
                            )
                            assert response.ok, response.error
                            assert response.payload["item"] == item
                            assert response.payload["score"] == pytest.approx(
                                expected[(uid, item)], abs=1e-9
                            )
                except Exception as err:  # collected for the main thread
                    failures.append(err)

            threads = [
                threading.Thread(target=worker, args=(uid,)) for uid in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert failures == []
        completed = sum(
            m.completed for m in engine.queue_metrics().values()
        )
        assert completed == 80

    def test_top_k_over_engine_socket(self, deployed_velox):
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(TopKApiRequest(uid=2, items=(1, 2, 3), k=2))
                assert response.ok
                assert len(response.payload["items"]) == 2

    def test_shed_requests_become_error_envelopes(self, deployed_velox):
        """Admission-control rejection travels the wire as a typed error
        string, not a dead connection."""
        engine = deployed_velox.serving_engine(
            ServingConfig(max_queue_depth=0)
        )
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(PredictApiRequest(uid=1, item=2))
                assert not response.ok
                assert "OverloadedError" in response.error
                # connection still serves subsequent requests
                response = client.call(TopKApiRequest(uid=1, items=(1,), k=1))
                assert not response.ok  # top_k is shed too (no degrade)
                assert "OverloadedError" in response.error


class TestServerHardening:
    def test_unexpected_exception_keeps_connection_alive(self, deployed_velox):
        """A non-ReproError out of dispatch must produce an error
        envelope on the same connection, not kill it silently."""
        with VeloxServer(deployed_velox) as server:
            dispatcher = server.velox_client
            original = dispatcher.dispatch

            def explode(request):
                if isinstance(request, PredictApiRequest) and request.uid == 666:
                    raise RuntimeError("handler bug")
                return original(request)

            dispatcher.dispatch = explode
            try:
                with PipelinedClient(server.host, server.port) as client:
                    response = client.call(PredictApiRequest(uid=666, item=1))
                    assert not response.ok
                    assert "RuntimeError" in response.error
                    # the same connection keeps serving
                    assert client.call(PredictApiRequest(uid=1, item=2)).ok
            finally:
                dispatcher.dispatch = original
