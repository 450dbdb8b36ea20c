"""Length-prefixed binary framing: the prediction wire protocol.

* **Frames** — ``u32 length | u8 opcode | u64 correlation id | payload``
  (big-endian). The opcode identifies the request method (or marks a
  response); the correlation id lets many requests share one connection
  out of order, which is what makes client pipelining possible.
* **Values** — a small tagged binary term format (ints, floats, bools,
  strings, None, lists, string-keyed dicts), plus a native ndarray term
  encoded as ``dtype | shape | raw bytes`` so feature vectors cross the
  wire as a memcpy instead of a float-repr list.
* **Negotiation** — a client opens with the newline terminated
  :data:`HELLO_V2` preamble and the server echoes it before either side
  sends frames. A server closes a connection that opens with anything
  else; a client treats any other answer as a transport failure.

Framing/decoding failures raise
:class:`~repro.common.errors.TransportError` (truncation, oversized or
corrupt frames) or :class:`~repro.common.errors.ValidationError`
(well-framed but semantically invalid requests), never bare struct
errors.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.common.errors import TransportError, ValidationError
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

#: Magic preamble naming the protocol and its version (the trailing
#: digit). Sent newline terminated by clients; echoed by the server.
MAGIC_V2 = b"VLXB2"
HELLO_V2 = MAGIC_V2 + b"\n"

#: Frame header: u32 total length of (opcode + corr id + payload),
#: u8 opcode, u64 correlation id.
_HEADER = struct.Struct(">IBQ")
#: Default refusal threshold for frame sizes (corrupt stream / abuse
#: guard); every decode entry point accepts a narrower override.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- opcodes ----------------------------------------------------------------

OP_PREDICT = 1
OP_TOP_K = 2
OP_OBSERVE = 3
OP_HEALTH = 4
OP_RETRAIN = 5
OP_TOP_K_CATALOG = 6
OP_STATUS = 7
OP_ANALYTICS = 8
#: Responses share one opcode; the correlation id routes them.
OP_RESPONSE = 128

REQUEST_OPCODES = {
    PredictApiRequest: OP_PREDICT,
    TopKApiRequest: OP_TOP_K,
    ObserveApiRequest: OP_OBSERVE,
    HealthApiRequest: OP_HEALTH,
    RetrainApiRequest: OP_RETRAIN,
    TopKCatalogApiRequest: OP_TOP_K_CATALOG,
    StatusApiRequest: OP_STATUS,
    AnalyticsApiRequest: OP_ANALYTICS,
}

# -- tagged binary values ---------------------------------------------------

_T_NONE = 0
_T_BOOL = 1
_T_INT = 2
_T_FLOAT = 3
_T_STR = 4
_T_NDARRAY = 5
_T_LIST = 6
_T_DICT = 7
#: Homogeneous list fast paths: one struct.pack for the whole list
#: instead of a tagged term per element. Decodes back to a plain list.
_T_I64_LIST = 8
_T_F64_LIST = 9

_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

#: How many ndarray encodes were forced to materialize a contiguous
#: copy before writing (non-contiguous input). Contiguous arrays are
#: appended straight from their buffer — exactly one copy, into the
#: output bytearray — and do not bump this. Benchmarks assert on it.
_ndarray_forced_copies = 0


def ndarray_forced_copies() -> int:
    """Count of ndarray encodes that needed a contiguity copy."""
    return _ndarray_forced_copies


def reset_ndarray_forced_copies() -> None:
    """Zero the forced-copy counter (benchmark/test isolation)."""
    global _ndarray_forced_copies
    _ndarray_forced_copies = 0


def pack_value(out: bytearray, value: object) -> None:
    """Append one tagged value to ``out``.

    Numpy scalars become python scalars and tuples become lists.
    Unsupported types raise ``ValidationError``.
    """
    # bool first: it is a subclass of int and must keep its own tag.
    if value is None:
        out.append(_T_NONE)
    elif isinstance(value, (bool, np.bool_)):
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, (int, np.integer)):
        out.append(_T_INT)
        try:
            out += _I64.pack(int(value))
        except struct.error as err:
            raise ValidationError(f"integer {value!r} exceeds wire range") from err
    elif isinstance(value, (float, np.floating)):
        out.append(_T_FLOAT)
        out += _F64.pack(float(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise ValidationError("cannot serialize object-dtype ndarray")
        dtype = value.dtype.str.encode("ascii")
        # Single-copy encode: append straight from the array's buffer
        # into the output bytearray. Only non-contiguous input pays an
        # intermediate materialization (counted for benchmarks); the
        # old path's ``.tobytes()`` double-copied every array.
        if value.flags.c_contiguous:
            arr = value
        else:
            global _ndarray_forced_copies
            _ndarray_forced_copies += 1
            arr = np.ascontiguousarray(value)
        out.append(_T_NDARRAY)
        out.append(len(dtype))
        out += dtype
        out.append(value.ndim)
        for dim in value.shape:
            out += _U32.pack(dim)
        out += _U32.pack(arr.nbytes)
        out += memoryview(arr).cast("B")
    elif isinstance(value, (list, tuple)):
        if _pack_homogeneous(out, value):
            return
        out.append(_T_LIST)
        out += _U32.pack(len(value))
        for element in value:
            pack_value(out, element)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _U32.pack(len(value))
        for key, element in value.items():
            if not isinstance(key, str):
                key = _coerce_key(key)
            raw = key.encode("utf-8")
            out += _U32.pack(len(raw))
            out += raw
            pack_value(out, element)
    else:
        raise ValidationError(f"cannot serialize wire value {value!r}")


def _coerce_key(key: object) -> str:
    """Non-string dict keys (histogram buckets and the like in status
    payloads) become the strings ``json.dumps`` would emit.
    """
    if isinstance(key, bool):
        return "true" if key else "false"
    if isinstance(key, int):
        return str(key)
    if isinstance(key, float):
        return repr(key)
    if key is None:
        return "null"
    raise ValidationError(f"wire dicts need string keys, got {key!r}")


def _pack_homogeneous(out: bytearray, value) -> bool:
    """Pack an all-int or all-float list in one struct call; returns
    whether the fast path applied. ``type is`` checks keep bools (a
    subclass of int) and numpy scalars on the exact-tagged slow path.
    """
    n = len(value)
    if n < 2:
        return False
    if all(type(v) is int for v in value):
        try:
            packed = struct.pack(f">{n}q", *value)
        except struct.error:
            return False  # some element exceeds i64; generic path errors
        out.append(_T_I64_LIST)
        out += _U32.pack(n)
        out += packed
        return True
    if all(type(v) is float for v in value):
        out.append(_T_F64_LIST)
        out += _U32.pack(n)
        out += struct.pack(f">{n}d", *value)
        return True
    return False


class _Cursor:
    """A bounds-checked read position over one frame's payload."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TransportError(
                f"truncated frame payload: wanted {n} bytes at offset "
                f"{self.pos}, frame has {len(self.data)}"
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk


def unpack_value(cursor: _Cursor) -> object:
    """Read one tagged value from the cursor."""
    tag = cursor.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_BOOL:
        return cursor.take(1)[0] != 0
    if tag == _T_INT:
        return _I64.unpack(cursor.take(8))[0]
    if tag == _T_FLOAT:
        return _F64.unpack(cursor.take(8))[0]
    if tag == _T_STR:
        (length,) = _U32.unpack(cursor.take(4))
        return cursor.take(length).decode("utf-8")
    if tag == _T_NDARRAY:
        dtype_len = cursor.take(1)[0]
        dtype = np.dtype(cursor.take(dtype_len).decode("ascii"))
        ndim = cursor.take(1)[0]
        shape = tuple(_U32.unpack(cursor.take(4))[0] for _ in range(ndim))
        (raw_len,) = _U32.unpack(cursor.take(4))
        raw = cursor.take(raw_len)
        try:
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError as err:
            raise TransportError(f"corrupt ndarray term: {err}") from err
    if tag == _T_LIST:
        (count,) = _U32.unpack(cursor.take(4))
        return [unpack_value(cursor) for _ in range(count)]
    if tag == _T_I64_LIST:
        (count,) = _U32.unpack(cursor.take(4))
        return list(struct.unpack(f">{count}q", cursor.take(8 * count)))
    if tag == _T_F64_LIST:
        (count,) = _U32.unpack(cursor.take(4))
        return list(struct.unpack(f">{count}d", cursor.take(8 * count)))
    if tag == _T_DICT:
        (count,) = _U32.unpack(cursor.take(4))
        result = {}
        for _ in range(count):
            (key_len,) = _U32.unpack(cursor.take(4))
            key = cursor.take(key_len).decode("utf-8")
            result[key] = unpack_value(cursor)
        return result
    raise TransportError(f"unknown wire value tag {tag}")


def _pack_values(*values: object) -> bytes:
    out = bytearray()
    for value in values:
        pack_value(out, value)
    return bytes(out)


def _wire_item(item: object) -> object:
    """Normalise an item payload: scalars and ndarrays pass through,
    sequences become lists, anything else is refused."""
    if isinstance(item, (bool, int, float, str, np.integer, np.floating,
                         np.ndarray)):
        return item
    if isinstance(item, (list, tuple)):
        return list(item)
    raise ValidationError(f"cannot serialize item payload {item!r}")


# -- frame encode/decode ----------------------------------------------------


def encode_frame(opcode: int, corr_id: int, payload: bytes) -> bytes:
    """One complete frame, ready for ``sendall``."""
    return _HEADER.pack(len(payload) + 9, opcode, corr_id) + payload


def read_frame(
    rfile, max_frame_bytes: int | None = None
) -> tuple[int, int, bytes] | None:
    """Read one frame off a buffered binary reader.

    Returns ``(opcode, correlation_id, payload)``, or ``None`` on a
    clean EOF at a frame boundary. EOF inside a frame, or a length
    prefix above ``max_frame_bytes`` (default :data:`MAX_FRAME_BYTES`),
    raises :class:`TransportError` — the length is validated *before*
    any payload allocation, so a corrupt prefix can never trigger an
    unbounded read.
    """
    limit = MAX_FRAME_BYTES if max_frame_bytes is None else int(max_frame_bytes)
    header = rfile.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise TransportError(
            f"connection closed mid-frame ({len(header)} header bytes)"
        )
    length, opcode, corr_id = _HEADER.unpack(header)
    if length < 9 or length > limit:
        raise TransportError(
            f"invalid frame length {length} (limit {limit})"
        )
    payload = rfile.read(length - 9)
    if len(payload) < length - 9:
        raise TransportError(
            f"connection closed mid-frame ({len(payload)} of "
            f"{length - 9} payload bytes)"
        )
    return opcode, corr_id, payload


class FrameDecoder:
    """Incremental frame reassembly for non-blocking transports.

    The event-loop server (and any selector-driven client) receives
    arbitrary byte chunks, not whole frames; this decoder buffers them
    and yields complete ``(opcode, correlation_id, payload)`` tuples as
    soon as they close. The length prefix is validated against
    ``max_frame_bytes`` the moment the 4-byte header is available —
    *before* the body is buffered — so a corrupt or hostile prefix
    raises a typed :class:`TransportError` instead of committing the
    process to an unbounded allocation.
    """

    __slots__ = ("_buf", "_max")

    def __init__(self, max_frame_bytes: int | None = None):
        self._buf = bytearray()
        self._max = (
            MAX_FRAME_BYTES if max_frame_bytes is None else int(max_frame_bytes)
        )
        if self._max < 9:
            raise ValidationError(
                f"max_frame_bytes must be >= 9, got {self._max}"
            )

    @property
    def buffered(self) -> int:
        """Bytes currently held waiting for a frame to close."""
        return len(self._buf)

    def feed(self, data) -> None:
        """Append one received chunk (any bytes-like) to the buffer."""
        self._buf += data

    def next_frame(self) -> tuple[int, int, bytes] | None:
        """Pop one complete frame, or ``None`` if more bytes are needed.

        Raises :class:`TransportError` on an invalid length prefix.
        """
        buf = self._buf
        if len(buf) < 4:
            return None
        (length,) = _U32.unpack_from(buf, 0)
        if length < 9 or length > self._max:
            raise TransportError(
                f"invalid frame length {length} (limit {self._max})"
            )
        total = 4 + length
        if len(buf) < total:
            return None
        opcode = buf[4]
        (corr_id,) = struct.unpack_from(">Q", buf, 5)
        payload = bytes(buf[13:total])
        del buf[:total]
        return opcode, corr_id, payload

    def drain(self):
        """Yield every complete frame currently buffered."""
        while True:
            frame = self.next_frame()
            if frame is None:
                return
            yield frame


# -- request/response codecs ------------------------------------------------


def encode_request_frame(request, corr_id: int) -> bytes:
    """One API request object -> one framed binary request."""
    opcode = REQUEST_OPCODES.get(type(request))
    if opcode is None:
        raise ValidationError(f"unknown request type {type(request).__name__}")
    if opcode == OP_PREDICT:
        payload = _pack_values(
            request.uid, _wire_item(request.item), request.model,
            request.deadline, bool(request.degraded),
        )
    elif opcode == OP_TOP_K:
        payload = _pack_values(
            request.uid,
            request.k,
            request.model,
            request.policy,
            [_wire_item(x) for x in request.items],
            request.deadline,
            bool(request.degraded),
        )
    elif opcode == OP_OBSERVE:
        payload = _pack_values(
            request.uid,
            _wire_item(request.item),
            float(request.label),
            request.model,
            bool(request.validation),
        )
    elif opcode == OP_HEALTH:
        payload = _pack_values(request.model)
    elif opcode == OP_RETRAIN:
        payload = _pack_values(request.model, request.reason)
    elif opcode == OP_TOP_K_CATALOG:
        payload = _pack_values(request.uid, request.k, request.model)
    elif opcode == OP_ANALYTICS:
        payload = _pack_values(
            request.uid,
            request.item,
            request.time_start,
            request.time_end,
            request.group_by,
            request.agg,
            bool(request.force_scan),
            request.model,
        )
    else:  # OP_STATUS
        payload = b""
    return encode_frame(opcode, corr_id, payload)


def decode_request_payload(opcode: int, payload: bytes):
    """One frame's opcode + payload -> one API request object. Raises
    only TransportError (bytes that are no valid terms) or ValidationError
    (terms that make no valid request): converted once here, so the
    per-value decode pays nothing for it."""
    try:
        cursor = _Cursor(payload)
        if opcode == OP_PREDICT:
            uid, item, model, deadline, degraded = (
                unpack_value(cursor) for _ in range(5)
            )
            return PredictApiRequest(
                uid=int(uid), item=item, model=model,
                deadline=None if deadline is None else float(deadline),
                degraded=bool(degraded),
            )
        if opcode == OP_TOP_K:
            uid, k, model, policy, items, deadline, degraded = (
                unpack_value(cursor) for _ in range(7)
            )
            return TopKApiRequest(
                uid=int(uid), items=tuple(items), k=int(k), model=model,
                policy=policy,
                deadline=None if deadline is None else float(deadline),
                degraded=bool(degraded),
            )
        if opcode == OP_OBSERVE:
            uid, item, label, model, validation = (
                unpack_value(cursor) for _ in range(5)
            )
            return ObserveApiRequest(
                uid=int(uid), item=item, label=float(label), model=model,
                validation=bool(validation),
            )
        if opcode == OP_HEALTH:
            return HealthApiRequest(model=unpack_value(cursor))
        if opcode == OP_RETRAIN:
            model, reason = unpack_value(cursor), unpack_value(cursor)
            return RetrainApiRequest(model=model, reason=reason)
        if opcode == OP_TOP_K_CATALOG:
            uid, k, model = (unpack_value(cursor) for _ in range(3))
            return TopKCatalogApiRequest(uid=int(uid), k=int(k), model=model)
        if opcode == OP_STATUS:
            return StatusApiRequest()
        if opcode == OP_ANALYTICS:
            uid, item, time_start, time_end, group_by, agg, force_scan, model = (
                unpack_value(cursor) for _ in range(8)
            )
            return AnalyticsApiRequest(
                uid=None if uid is None else int(uid),
                item=None if item is None else int(item),
                time_start=None if time_start is None else float(time_start),
                time_end=None if time_end is None else float(time_end),
                group_by=group_by,
                agg=agg,
                force_scan=bool(force_scan),
                model=model,
            )
        raise ValidationError(f"unknown request opcode {opcode}")
    except (RecursionError, UnicodeDecodeError) as err:
        raise TransportError(f"corrupt request payload: {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"malformed request: {err}") from err


def encode_response_frame(response: ApiResponse, corr_id: int) -> bytes:
    """One response envelope -> one framed binary response."""
    payload = _pack_values(
        bool(response.ok), response.error, response.payload
    )
    return encode_frame(OP_RESPONSE, corr_id, payload)


def decode_response_payload(payload: bytes) -> ApiResponse:
    """One response frame's payload -> one response envelope."""
    cursor = _Cursor(payload)
    ok = unpack_value(cursor)
    error = unpack_value(cursor)
    body = unpack_value(cursor)
    if not isinstance(body, dict):
        raise TransportError(
            f"response payload must be a dict, got {type(body).__name__}"
        )
    return ApiResponse(ok=bool(ok), payload=body, error=str(error))
