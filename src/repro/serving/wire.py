"""Framed request/response messages for the serving runtime.

One :class:`Message` is one protocol step: a ``kind`` tag, a JSON-safe
``meta`` dict, and zero or more opaque binary blobs (serialized
ciphertexts, Galois keys, mask tensors -- all produced by
:mod:`repro.bfv.serialize`).  The encoding is a small JSON header that
records the blob lengths, followed by the blobs verbatim:

.. code-block:: text

    b"RSV1" | <u32 header length> | header JSON | blob 0 | blob 1 | ...

Both transports move these frames: :class:`~repro.serving.transport.
LoopbackTransport` round-trips the encoding in process (so tests exercise
the real wire format), and the socket transport length-prefixes each
frame on a TCP stream.  Decoding validates the magic, the header, and
every blob length before any payload is touched, so a truncated or
corrupted frame raises :class:`ValueError` instead of mis-slicing
ciphertext bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

_MAGIC = b"RSV1"
_LEN = struct.Struct("<I")

#: Default frame size cap (bytes) for the socket transport -- a corrupted
#: length prefix must not trigger a multi-GiB allocation.  Servers and
#: transports can tighten it per instance (``max_frame_bytes=``); the cap
#: is always enforced from the length prefix alone, before a single body
#: byte is read or buffered.
MAX_FRAME_BYTES = 1 << 30


@dataclass
class Message:
    """One serving-protocol step.

    ``kind`` selects the handler (``hello``, ``galois_keys``, ``linear``,
    ``close`` and their ``*_ok`` / ``error`` replies); ``meta`` carries the
    JSON-safe fields; ``blobs`` carries binary payloads in order.
    """

    kind: str
    meta: dict = field(default_factory=dict)
    blobs: list[bytes] = field(default_factory=list)

    def require(self, *names: str):
        """Fetch required meta fields, raising a clear error when absent."""
        missing = [name for name in names if name not in self.meta]
        if missing:
            raise ValueError(
                f"{self.kind!r} message missing meta field(s) {missing}"
            )
        values = tuple(self.meta[name] for name in names)
        return values[0] if len(values) == 1 else values


def encode_message(message: Message) -> bytes:
    """Serialize a message to one self-describing frame."""
    header = json.dumps(
        {
            "kind": message.kind,
            "meta": message.meta,
            "blob_lengths": [len(blob) for blob in message.blobs],
        },
        sort_keys=True,
    ).encode()
    return b"".join(
        [_MAGIC, _LEN.pack(len(header)), header, *message.blobs]
    )


def decode_message(payload: bytes) -> Message:
    """Parse a frame back into a :class:`Message`, validating every length."""
    if len(payload) < 8 or payload[:4] != _MAGIC:
        raise ValueError("not a serving-protocol frame")
    (header_len,) = _LEN.unpack_from(payload, 4)
    if 8 + header_len > len(payload):
        raise ValueError(
            f"truncated frame: header claims {header_len} bytes, "
            f"{len(payload) - 8} available"
        )
    try:
        header = json.loads(payload[8 : 8 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed frame header: {exc}") from exc
    if not isinstance(header, dict) or "kind" not in header:
        raise ValueError("frame header missing 'kind'")
    lengths = header.get("blob_lengths", [])
    offset = 8 + header_len
    blobs = []
    for length in lengths:
        length = int(length)
        if length < 0 or offset + length > len(payload):
            raise ValueError(
                f"truncated frame: blob of {length} bytes exceeds payload"
            )
        blobs.append(bytes(payload[offset : offset + length]))
        offset += length
    if offset != len(payload):
        raise ValueError(
            f"frame has {len(payload) - offset} trailing bytes"
        )
    return Message(
        kind=str(header["kind"]), meta=dict(header.get("meta", {})), blobs=blobs
    )


def attempt_of(message: Message) -> int:
    """The retry attempt a task/claim/result frame belongs to (0-based).

    The shard pool stamps ``meta["attempt"]`` on every dispatched task
    and workers echo it in claims and replies, so the coordinator can
    tell a stale attempt's error from the current one.  Frames predating
    a retry (or external callers that never set it) count as attempt 0.
    """
    return int(message.meta.get("attempt", 0))


def error_message(reason: str) -> Message:
    """The uniform failure reply; ``reason`` is a human-readable sentence."""
    return Message("error", {"reason": reason})


def admin_message(action: str, token: str, **meta) -> Message:
    """Build one authenticated ``admin`` request (``repro admin``).

    ``action`` is one of the engine's admin verbs (``status``,
    ``reload-zoo``, ``drain-worker``, ``evict-session``,
    ``drain-tenant``); ``meta`` carries the action's arguments (worker
    id, session id, tenant, directory, ...).  The token rides in meta
    like any other field -- the admin surface assumes the same trust in
    the transport as Galois-key uploads do.
    """
    return Message("admin", {"action": str(action), "token": str(token), **meta})


def raise_on_error(reply: Message) -> Message:
    """Client-side check: surface a server ``error`` reply as ServingError."""
    if reply.kind == "error":
        raise ServingError(reply.meta.get("reason", "unspecified server error"))
    return reply


class ServingError(RuntimeError):
    """A server-reported protocol failure (handshake rejection, bad state)."""


# -- optional meta extensions --------------------------------------------------

#: Meta key under which a frame carries its distributed-tracing context
#: (``{"trace_id": ..., "span_id": ..., "fe": ...}``).  Optional and
#: backward-compatible by construction: :func:`decode_message` preserves
#: unknown meta keys verbatim, so peers that predate tracing simply
#: ignore it, and frames without it stay untraced.
TRACE_META_KEY = "trace"


# -- stream framing (socket transport) ---------------------------------------


def send_frame(sock, payload: bytes) -> None:
    """Write one length-prefixed frame to a connected socket."""
    sock.sendall(_LEN.pack(len(payload)) + payload)


def recv_frame(sock, max_frame_bytes: int | None = None) -> bytes | None:
    """Read one length-prefixed frame; ``None`` on a clean peer close.

    The size cap (``max_frame_bytes``, defaulting to
    :data:`MAX_FRAME_BYTES`) is checked against the length prefix before
    the body is read, so an oversized claim is rejected without
    allocating or buffering anything.
    """
    cap = MAX_FRAME_BYTES if max_frame_bytes is None else int(max_frame_bytes)
    prefix = _recv_exact(sock, 4)
    if prefix is None:
        return None
    (length,) = _LEN.unpack(prefix)
    if length > cap:
        raise ValueError(f"frame of {length} bytes exceeds cap of {cap}")
    return _recv_exact(sock, length, partial_ok=False)


def _recv_exact(sock, count: int, partial_ok: bool = True) -> bytes | None:
    """Read exactly ``count`` bytes.

    A clean close before the first byte returns ``None`` only when
    ``partial_ok`` (i.e. between frames); a close mid-read always raises.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if partial_ok and remaining == count:
                return None
            raise ValueError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
