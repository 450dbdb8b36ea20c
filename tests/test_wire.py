"""Binary framed wire protocol: codec, golden bytes, negotiation,
pipelined client."""

from __future__ import annotations

import io
import json
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TransportError, ValidationError
from repro.frontend import (
    AnalyticsApiRequest,
    ApiResponse,
    HealthApiRequest,
    ObserveApiRequest,
    PipelinedClient,
    PredictApiRequest,
    ResilientClient,
    RetrainApiRequest,
    StatusApiRequest,
    TopKApiRequest,
    TopKCatalogApiRequest,
    VeloxServer,
)
from repro.frontend import wire
from repro.serving import ServingConfig

#: Every request shape the codec must carry, including ndarray and
#: scalar-float item payloads.
REQUEST_CATALOG = [
    PredictApiRequest(uid=3, item=17, model="songs"),
    PredictApiRequest(uid=0, item="sku-77", model=None),
    PredictApiRequest(uid=1, item=2.5),
    PredictApiRequest(uid=9, item=np.linspace(-1.0, 1.0, 8)),
    PredictApiRequest(uid=3, item=7, deadline=0.25, degraded=True),
    TopKApiRequest(uid=1, items=(1, 2, 3), k=2, model="songs", policy="linucb"),
    TopKApiRequest(uid=3, items=(1, 2, 3), k=2, deadline=0.125, degraded=True),
    TopKApiRequest(
        uid=4,
        items=(np.arange(4, dtype=float), np.ones(4)),
        k=1,
        policy=None,
    ),
    ObserveApiRequest(uid=9, item=4, label=3.5, model="songs", validation=True),
    ObserveApiRequest(uid=2, item=0.25, label=-1.0),
    HealthApiRequest(model="songs"),
    HealthApiRequest(model=None),
    RetrainApiRequest(model="songs", reason="drift"),
    TopKCatalogApiRequest(uid=2, k=5, model="songs"),
    StatusApiRequest(),
    AnalyticsApiRequest(uid=7, agg="mean", model="songs"),
    AnalyticsApiRequest(
        item=4,
        time_start=0.0,
        time_end=200.0,
        group_by="window",
        agg="sum",
        force_scan=True,
    ),
    AnalyticsApiRequest(),
]

RESPONSE_CATALOG = [
    ApiResponse(ok=True, payload={"score": 3.5, "item": 17, "node": 0}),
    ApiResponse(ok=True, payload={"items": [{"item": 1, "score": 0.5}]}),
    ApiResponse(ok=True, payload={"baseline_loss": None, "observations": 12}),
    ApiResponse(
        ok=True,
        payload={
            "nested": {"a": [1, 2.5, None, True], "b": {"deep": "text"}},
            "flags": [False, True],
        },
    ),
    ApiResponse(ok=False, error="OverloadedError: queue full"),
]


def binary_roundtrip_request(request):
    frame = wire.encode_request_frame(request, corr_id=42)
    opcode, corr_id, payload = wire.read_frame(io.BytesIO(frame))
    assert corr_id == 42
    return wire.decode_request_payload(opcode, payload)


def assert_items_equal(a, b):
    """Structural equality that treats ndarrays by value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        np.testing.assert_allclose(
            np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        )
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_items_equal(x, y)
    else:
        assert a == b, f"{a!r} != {b!r}"


def assert_requests_equal(left, right):
    assert type(left) is type(right)
    for name in left.__dataclass_fields__:
        a, b = getattr(left, name), getattr(right, name)
        if name in ("item", "items"):
            assert_items_equal(a, b)
        else:
            assert a == b, f"field {name}: {a!r} != {b!r}"


class TestBinaryCodec:
    @pytest.mark.parametrize("request_obj", REQUEST_CATALOG, ids=repr)
    def test_request_roundtrip(self, request_obj):
        decoded = binary_roundtrip_request(request_obj)
        assert_requests_equal(decoded, request_obj)

    def test_ndarray_dtype_and_shape_survive(self):
        item = np.arange(6, dtype=np.float32).reshape(2, 3)
        decoded = binary_roundtrip_request(PredictApiRequest(uid=1, item=item))
        assert decoded.item.dtype == np.float32
        assert decoded.item.shape == (2, 3)
        np.testing.assert_array_equal(decoded.item, item)

    @pytest.mark.parametrize("response", RESPONSE_CATALOG, ids=repr)
    def test_response_roundtrip(self, response):
        frame = wire.encode_response_frame(response, corr_id=7)
        opcode, corr_id, payload = wire.read_frame(io.BytesIO(frame))
        assert opcode == wire.OP_RESPONSE and corr_id == 7
        assert wire.decode_response_payload(payload) == response

    def test_truncated_frame_raises_transport_error(self):
        frame = wire.encode_request_frame(PredictApiRequest(uid=1, item=2), 0)
        for cut in (3, len(frame) - 1):
            with pytest.raises(TransportError):
                wire.read_frame(io.BytesIO(frame[:cut]))

    def test_clean_eof_returns_none(self):
        assert wire.read_frame(io.BytesIO(b"")) is None

    def test_absurd_length_rejected(self):
        header = wire._HEADER.pack(wire.MAX_FRAME_BYTES + 10, wire.OP_STATUS, 0)
        with pytest.raises(TransportError):
            wire.read_frame(io.BytesIO(header))

    def test_unserializable_item_rejected(self):
        with pytest.raises(ValidationError):
            wire.encode_request_frame(
                PredictApiRequest(uid=1, item=object()), 0
            )

    def test_contiguous_ndarray_encodes_without_forced_copy(self):
        """Contiguous arrays append straight from their buffer: the
        forced-copy counter stays flat and the bytes round-trip."""
        wire.reset_ndarray_forced_copies()
        item = np.arange(32, dtype=np.float64)
        decoded = binary_roundtrip_request(PredictApiRequest(uid=1, item=item))
        assert wire.ndarray_forced_copies() == 0
        np.testing.assert_array_equal(decoded.item, item)

    def test_non_contiguous_ndarray_counts_one_forced_copy(self):
        wire.reset_ndarray_forced_copies()
        strided = np.arange(64, dtype=np.float64)[::2]
        assert not strided.flags.c_contiguous
        decoded = binary_roundtrip_request(PredictApiRequest(uid=1, item=strided))
        assert wire.ndarray_forced_copies() == 1
        np.testing.assert_array_equal(decoded.item, strided)
        wire.reset_ndarray_forced_copies()

    def test_short_predict_payload_is_a_malformed_payload(self):
        """A predict payload that ends before ``deadline``/``degraded``
        fails like any other truncated payload."""
        payload = wire._pack_values(1, 2, None)
        with pytest.raises(TransportError, match="truncated"):
            wire.decode_request_payload(wire.OP_PREDICT, payload)

    def test_non_string_dict_keys_coerced_like_json(self):
        # Histogram counts and similar metrics dicts carry int keys;
        # they arrive as the strings json.dumps would have produced.
        payload = {
            "lag_counts": {0: 3, 17: 1},
            "by_float": {2.5: "x"},
            "by_bool": {True: 1, False: 2},
            "by_none": {None: "n"},
        }
        response = ApiResponse(ok=True, payload=payload)
        frame = wire.encode_response_frame(response, corr_id=1)
        _, _, raw = wire.read_frame(io.BytesIO(frame))
        via_binary = wire.decode_response_payload(raw).payload
        via_json = json.loads(json.dumps(payload))
        assert via_binary == via_json

    def test_unserializable_dict_key_rejected(self):
        with pytest.raises(ValidationError):
            wire.encode_response_frame(
                ApiResponse(ok=True, payload={(1, 2): "tuple key"}), 0
            )


def _str_term(raw: bytes) -> bytes:
    return bytes([wire._T_STR]) + wire._U32.pack(len(raw)) + raw


def _ndarray_term(dtype: bytes, raw: bytes = bytes(8)) -> bytes:
    return (
        bytes([wire._T_NDARRAY, len(dtype)]) + dtype + bytes([1])
        + wire._U32.pack(len(raw) // 8) + wire._U32.pack(len(raw)) + raw
    )


def _list_term(terms: list[bytes]) -> bytes:
    return bytes([wire._T_LIST]) + wire._U32.pack(len(terms)) + b"".join(terms)


#: Hostile terms: well-formed values of every kind, plus bytes that are
#: no valid value (junk, bad UTF-8, unknown or non-ASCII dtypes), nested.
_leaf_terms = st.one_of(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1),
        st.floats(),
        st.text(max_size=8),
        st.lists(st.integers(-5, 5), max_size=3),
    ).map(lambda value: wire._pack_values(value)),
    st.binary(max_size=12),
    st.binary(max_size=4).map(lambda raw: _str_term(b"\xff" + raw)),
    st.sampled_from([b"zzz", b"\xff\xfe", b"<f8", b"O", b"V0", b"(9999999999,)f8"])
    .map(_ndarray_term),
)
_terms = st.recursive(
    _leaf_terms, lambda inner: st.lists(inner, max_size=3).map(_list_term),
    max_leaves=8,
)


class TestHostileRequestPayloads:
    """Whatever bytes follow a valid header, the request decoder answers
    with a request or a typed error, never anything else."""

    @staticmethod
    def _decode_or_typed_error(opcode: int, payload: bytes):
        try:
            request = wire.decode_request_payload(opcode, payload)
        except (TransportError, ValidationError):
            return
        assert type(request) in wire.REQUEST_OPCODES

    @given(
        opcode=st.sampled_from(sorted(wire.REQUEST_OPCODES.values())),
        terms=st.lists(_terms, max_size=9),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_terms_decode_or_raise_typed(self, opcode, terms):
        self._decode_or_typed_error(opcode, b"".join(terms))

    @given(
        request=st.sampled_from(REQUEST_CATALOG),
        cut=st.integers(0, 64),
        flips=st.lists(st.tuples(st.integers(0, 200), st.integers(1, 255)), max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_valid_payloads_decode_or_raise_typed(self, request, cut, flips):
        frame = wire.encode_request_frame(request, corr_id=1)
        opcode, _, payload = wire.read_frame(io.BytesIO(frame))
        mutated = bytearray(payload[: max(0, len(payload) - cut)])
        for position, mask in flips:
            if position < len(mutated):
                mutated[position] ^= mask
        self._decode_or_typed_error(opcode, bytes(mutated))

    def test_deep_list_nesting_is_a_transport_error(self):
        payload = (bytes([wire._T_LIST]) + wire._U32.pack(1)) * 200_000
        with pytest.raises(TransportError):
            wire.decode_request_payload(wire.OP_PREDICT, payload)

    @pytest.mark.parametrize("term", [_str_term(b"\xff\xfe"), _ndarray_term(b"\xff")])
    def test_bad_utf8_or_ascii_is_a_transport_error(self, term):
        with pytest.raises(TransportError):
            wire.decode_request_payload(wire.OP_HEALTH, term)

    def test_unknown_dtype_is_typed(self):
        payload = wire._pack_values(1) + _ndarray_term(b"zzz")
        with pytest.raises((TransportError, ValidationError)):
            wire.decode_request_payload(wire.OP_PREDICT, payload + bytes(3))

    @pytest.mark.parametrize("uid", ["seven", float("inf"), float("nan"), [1], None])
    def test_non_integer_uid_is_a_validation_error(self, uid):
        payload = wire._pack_values(uid, 5, "songs", None, False)
        with pytest.raises(ValidationError):
            wire.decode_request_payload(wire.OP_PREDICT, payload)


class TestGoldenBytes:
    """The exact bytes of the frame codec, written from the output of
    commit 44bac12. ``benchmarks/e2e`` pre-encodes its request plans
    with these functions, so a change here changes what it measures."""

    def test_predict_int_item(self):
        frame = wire.encode_request_frame(
            PredictApiRequest(uid=7, item=42, model="songs"), 1
        )
        assert frame.hex() == (
            "0000002801000000000000000102000000000000000702000000000000002a"
            "0400000005736f6e6773000100"
        )

    def test_predict_ndarray_item(self):
        item = np.array([1.0, -2.5, 0.25], dtype="<f8")
        frame = wire.encode_request_frame(PredictApiRequest(uid=7, item=item), 2)
        assert frame.hex() == (
            "0000003c01000000000000000202000000000000000705033c663801000000"
            "0300000018000000000000f03f00000000000004c0000000000000d03f0000"
            "0100"
        )

    def test_top_k_with_deadline(self):
        frame = wire.encode_request_frame(
            TopKApiRequest(
                uid=3, items=(1, 2, 3), k=2, model="songs", policy="linucb",
                deadline=0.05, degraded=True,
            ),
            3,
        )
        assert frame.hex() == (
            "00000058020000000000000003020000000000000003020000000000000002"
            "0400000005736f6e677304000000066c696e75636208000000030000000000"
            "00000100000000000000020000000000000003033fa999999999999a0101"
        )

    def test_observe(self):
        frame = wire.encode_request_frame(
            ObserveApiRequest(
                uid=9, item=4, label=3.5, model="songs", validation=True
            ),
            4,
        )
        assert frame.hex() == (
            "00000030030000000000000004020000000000000009020000000000000004"
            "03400c0000000000000400000005736f6e67730101"
        )

    def test_ok_predict_response(self):
        frame = wire.encode_response_frame(
            ApiResponse(
                ok=True,
                payload={
                    "item": 42, "score": 3.5, "node": 0,
                    "prediction_cache_hit": False, "stale": False,
                },
            ),
            1,
        )
        assert frame.hex() == (
            "0000006e800000000000000001010104000000000700000005000000046974"
            "656d02000000000000002a0000000573636f726503400c0000000000000000"
            "00046e6f64650200000000000000000000001470726564696374696f6e5f63"
            "616368655f6869740100000000057374616c650100"
        )

    def test_error_envelope(self):
        frame = wire.encode_response_frame(
            ApiResponse(ok=False, error="OverloadedError: queue full"), 5
        )
        assert frame.hex() == (
            "000000308000000000000000050100040000001b4f7665726c6f6164656445"
            "72726f723a2071756575652066756c6c0700000000"
        )


class TestNegotiation:
    def test_pipelined_client_negotiates_binary(self, deployed_velox):
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(PredictApiRequest(uid=2, item=8))
                assert response.ok
                assert isinstance(response.payload["score"], float)

    def test_client_rejects_a_server_that_answers_something_else(self):
        """Any answer but the echoed hello is a typed transport failure
        at construction, not a session in some other protocol."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def answer_json():
            conn, _ = listener.accept()
            conn.recv(len(wire.HELLO_V2))
            conn.sendall(b'{"ok": false, "error": "malformed"}\n')
            conn.close()

        thread = threading.Thread(target=answer_json, daemon=True)
        thread.start()
        try:
            with pytest.raises(TransportError, match="negotiation failed"):
                PipelinedClient(host, port, timeout=5)
        finally:
            listener.close()


class TestPipelinedClient:
    def test_many_in_flight_correct_correlation(self, deployed_velox):
        """A burst of pipelined requests comes back correctly matched
        even when the engine serves them out of submission order."""
        engine = deployed_velox.serving_engine(
            ServingConfig(num_workers=2, batching="adaptive", slo_p99=1.0)
        )
        expected = {
            (uid, item): deployed_velox.service.predict("songs", uid, item).score
            for uid in range(4)
            for item in range(12)
        }
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                futures = {
                    (uid, item): client.submit(
                        PredictApiRequest(uid=uid, item=item)
                    )
                    for uid in range(4)
                    for item in range(12)
                }
                for (uid, item), future in futures.items():
                    response = future.result(timeout=30)
                    assert response.ok, response.error
                    assert response.payload["item"] == item
                    assert response.payload["score"] == pytest.approx(
                        expected[(uid, item)], abs=1e-9
                    )
        completed = sum(m.completed for m in engine.queue_metrics().values())
        assert completed == 48

    def test_single_connection_fills_adaptive_batches(self, deployed_velox):
        """The point of the pipelined intake: one socket keeps enough
        requests in flight that the engine forms real batches."""
        engine = deployed_velox.serving_engine(
            ServingConfig(
                num_workers=1,
                batching="fixed_delay",
                batch_delay=0.02,
                max_batch_size=64,
                slo_p99=5.0,
                max_queue_age=10.0,
            )
        )
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                futures = [
                    client.submit(PredictApiRequest(uid=1, item=item))
                    for item in range(40)
                ]
                for future in futures:
                    assert future.result(timeout=30).ok
        (metrics,) = [
            m for m in engine.queue_metrics().values() if m.completed
        ]
        assert metrics.batch_sizes.mean() > 1.0

    def test_top_k_and_admin_requests_over_binary(self, deployed_velox):
        engine = deployed_velox.serving_engine(ServingConfig(num_workers=1))
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                top = client.call(TopKApiRequest(uid=2, items=(1, 2, 3), k=2))
                assert top.ok and len(top.payload["items"]) == 2
                health = client.call(HealthApiRequest())
                assert health.ok
                status = client.call(StatusApiRequest())
                assert status.ok and status.payload["num_nodes"] == 2

    def test_ndarray_item_over_binary_wire(self, deployed_velox):
        """Computed-feature payloads cross the wire as raw bytes and
        still serve."""
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(
                    PredictApiRequest(uid=1, item=3, model="songs")
                )
                assert response.ok

    def test_shed_requests_surface_as_error_envelopes(self, deployed_velox):
        engine = deployed_velox.serving_engine(
            ServingConfig(max_queue_depth=0)
        )
        with VeloxServer(deployed_velox, engine=engine) as server:
            with PipelinedClient(server.host, server.port) as client:
                response = client.call(PredictApiRequest(uid=1, item=2))
                assert not response.ok
                assert "OverloadedError" in response.error
                # connection still serves subsequent requests
                response = client.call(HealthApiRequest())
                assert response.ok

    def test_malformed_frame_gets_error_response(self, deployed_velox):
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as client:
                # a well-framed but bogus opcode
                client._sock.sendall(wire.encode_frame(99, 5, b""))
                response = client.call(PredictApiRequest(uid=1, item=2))
                assert response.ok  # the connection survived

    def test_connection_pool_round_robins(self, deployed_velox):
        """Nine sends over ``pool_size=3`` open three sockets and put
        three on each."""
        with VeloxServer(deployed_velox) as server:
            with ResilientClient(
                [(server.host, server.port)], pool_size=3
            ) as client:
                assert all(
                    client.predict(uid=1, item=i).ok for i in range(9)
                )
                sockets = client._endpoints[0].clients
                assert [c._next_corr for c in sockets] == [3, 3, 3]
                counters = server.counters.snapshot()
                assert counters["total_connections"] == 3
                assert counters["frames_in"] == 9

    def test_close_fails_pending_futures(self, deployed_velox):
        with VeloxServer(deployed_velox) as server:
            client = PipelinedClient(server.host, server.port)
            client.close()
            with pytest.raises(TransportError):
                client.submit(PredictApiRequest(uid=1, item=2))


def _accept_hello(listener: socket.socket) -> socket.socket:
    """Accept one connection and complete the hello exchange."""
    conn, _ = listener.accept()
    conn.recv(len(wire.HELLO_V2))
    conn.sendall(wire.HELLO_V2)
    return conn


class TestTransportErrors:
    def test_remote_client_half_written_response_bounded(self):
        """A server trickling a response frame that never closes cannot
        stall ``call`` past the deadline."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def trickle():
            conn = _accept_hello(listener)
            conn.recv(4096)
            frame = wire.encode_response_frame(ApiResponse(ok=True), 0)
            for byte in frame[:-1]:
                try:
                    conn.sendall(bytes([byte]))
                except OSError:
                    break
                threading.Event().wait(0.1)
            conn.close()

        thread = threading.Thread(target=trickle, daemon=True)
        thread.start()
        try:
            with PipelinedClient(host, port, timeout=0.4) as client:
                start = time.monotonic()
                with pytest.raises(TransportError):
                    client.call(PredictApiRequest(uid=1, item=2))
                assert time.monotonic() - start < 1.5
        finally:
            listener.close()

    def test_connection_drop_fails_pipelined_pending(self):
        """A server that dies mid-stream fails every outstanding future
        with TransportError instead of leaving them pending forever."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def accept_then_drop():
            conn = _accept_hello(listener)  # accept the hello...
            conn.recv(65536)  # ...take one frame...
            conn.close()  # ...and vanish

        thread = threading.Thread(target=accept_then_drop, daemon=True)
        thread.start()
        try:
            client = PipelinedClient(host, port)
            future = client.submit(PredictApiRequest(uid=1, item=2))
            with pytest.raises(TransportError):
                future.result(timeout=5)
            client.close()
        finally:
            listener.close()
