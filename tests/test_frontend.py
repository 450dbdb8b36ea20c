"""Front-end: in-process client, TCP server."""

import pytest

from repro.common.errors import ValidationError
from repro.frontend import (
    ObserveApiRequest,
    PipelinedClient,
    PredictApiRequest,
    TopKApiRequest,
    VeloxClient,
    VeloxServer,
    wire,
)


class TestInProcessClient:
    def test_predict(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        response = client.predict(uid=1, item=5)
        assert response.ok
        assert response.payload["item"] == 5
        assert isinstance(response.payload["score"], float)

    def test_top_k_with_policy(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        response = client.top_k(uid=1, items=[1, 2, 3, 4], k=2, policy="linucb")
        assert response.ok
        assert len(response.payload["items"]) == 2

    def test_observe_then_health(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        assert client.observe(uid=1, item=5, label=4.0).ok
        health = client.health()
        assert health.ok
        assert health.payload["observations"] == 1

    def test_validation_observations_reach_the_pool(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        client.observe(uid=1, item=5, label=4.0, validation=True)
        assert client.health().payload["validation_pool_size"] == 1

    def test_errors_become_envelopes(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        response = client.predict(uid=1, item=5, model="ghost")
        assert not response.ok
        assert "ModelNotFound" in response.error

    def test_retrain_endpoint(self, deployed_velox, small_split):
        client = VeloxClient(deployed_velox)
        for r in small_split.stream[:30]:
            client.observe(uid=r.uid, item=r.item_id, label=r.rating)
        response = client.retrain()
        assert response.ok
        assert response.payload["new_version"] == 1


class TestNewEndpoints:
    def test_top_k_catalog_endpoint(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        response = client.top_k_catalog(uid=2, k=5)
        assert response.ok
        items = response.payload["items"]
        assert len(items) == 5
        scores = [entry["score"] for entry in items]
        assert scores == sorted(scores, reverse=True)

    def test_status_endpoint(self, deployed_velox):
        deployed_velox.observe(uid=1, x=2, y=4.0)
        client = VeloxClient(deployed_velox)
        response = client.status()
        assert response.ok
        assert response.payload["num_nodes"] == 2
        assert response.payload["models"][0]["name"] == "songs"
        assert "songs" in response.payload["report"]

    def test_status_over_socket(self, deployed_velox):
        from repro.frontend import StatusApiRequest

        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(StatusApiRequest())
                assert response.ok
                assert response.payload["alive_nodes"] == 2


class TestTcpServer:
    def test_full_request_cycle_over_socket(self, deployed_velox):
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(PredictApiRequest(uid=2, item=8))
                assert response.ok
                response = client.call(
                    TopKApiRequest(uid=2, items=(1, 2, 3), k=1)
                )
                assert response.ok and len(response.payload["items"]) == 1
                response = client.call(ObserveApiRequest(uid=2, item=8, label=4.5))
                assert response.ok

    def test_concurrent_clients(self, deployed_velox):
        import threading

        with VeloxServer(deployed_velox) as server:
            failures = []

            def worker(uid):
                try:
                    with PipelinedClient(server.host, server.port) as client:
                        for item in range(10):
                            response = client.call(PredictApiRequest(uid=uid, item=item))
                            assert response.ok
                except Exception as err:  # collected for the main thread
                    failures.append(err)

            threads = [threading.Thread(target=worker, args=(u,)) for u in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert failures == []

    def test_server_survives_bad_request(self, deployed_velox):
        import socket

        with VeloxServer(deployed_velox) as server:
            sock = socket.create_connection((server.host, server.port), timeout=5)
            reader = sock.makefile("rb")
            sock.sendall(wire.HELLO_V2)
            assert reader.readline() == wire.HELLO_V2
            sock.sendall(wire.encode_frame(99, 1, b""))  # no such method
            _, corr_id, payload = wire.read_frame(reader)
            response = wire.decode_response_payload(payload)
            assert corr_id == 1 and not response.ok
            # server still answers valid requests on the same connection
            sock.sendall(
                wire.encode_request_frame(PredictApiRequest(uid=1, item=2), 2)
            )
            _, corr_id, payload = wire.read_frame(reader)
            assert corr_id == 2 and wire.decode_response_payload(payload).ok
            sock.close()

    def test_double_start_rejected(self, deployed_velox):
        server = VeloxServer(deployed_velox)
        server.start()
        try:
            with pytest.raises(ValidationError):
                server.start()
        finally:
            server.stop()
