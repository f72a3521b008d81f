"""Length-prefixed wire framing with pluggable codecs and raw blob sections.

A frame on the wire is::

    +----------------+-----------+------------------+
    | 4-byte length  | codec id  | payload          |
    | big-endian     | 1 byte    | length - 1 bytes |
    +----------------+-----------+------------------+

The length covers the codec byte plus the payload, so a reader needs
exactly two ``readexactly`` calls per frame. Every frame names its own
codec, which lets a server answer msgpack and JSON clients on the same
port and lets a deployment upgrade codecs without a flag day.

Chunk payloads travel raw, once, never inside the codec: a frame that
carries them sets the high bit of the codec byte (:data:`BLOB_FLAG`) and
its payload is a header plus a **blob section**::

    +--------+------------+---------------+------------------+--------+--------+
    | length | codec|0x80 | 4-byte header | header: message  | blob 0 | blob 1 | ...
    |        |            | length        | + "blobs": [len] |        |        |
    +--------+------------+---------------+------------------+--------+--------+

The blobs follow back to back and must fill the frame exactly; the
receiver gets the message with ``"blobs"`` replaced by a tuple of
``bytes`` cut from the one read buffer through a ``memoryview`` (one copy
per blob). :data:`MAX_FRAME_BYTES` bounds the whole frame, blob section
included. A frame without the flag is byte-for-byte what it always was,
so index, claim and control traffic is untouched and old and new peers
interoperate on it.

Two codecs ship, and both use the same blob section:

- ``json`` — always available; fingerprints and metadata are strings, so
  UTF-8 JSON round-trips every message the store sends.
- ``msgpack`` — used when the ``msgpack`` package is importable (the
  ``fast`` extra); smaller and faster but never required.

``default_codec_name()`` picks msgpack when present, else JSON.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import struct
from typing import Any, Optional

from repro.rpc.errors import FrameError

# A frame larger than this is a protocol violation, not a big message —
# reject it instead of letting a corrupt length prefix allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# Payload ops stop filling a frame at this many blob bytes, so a shelf of
# any size moves in several frames, none near the limit.
BLOB_BUDGET_BYTES = MAX_FRAME_BYTES // 4

# High bit of the codec byte: the payload is a header plus a blob section.
BLOB_FLAG = 0x80

_LEN = struct.Struct(">I")


class JsonCodec:
    """UTF-8 JSON payloads (codec id 0)."""

    name = "json"
    wire_id = 0
    # One encoder for every frame: ``json.dumps(separators=...)`` builds one per call.
    _dumps = json.JSONEncoder(separators=(",", ":")).encode

    @staticmethod
    def encode(obj: Any) -> bytes:
        return JsonCodec._dumps(obj).encode("utf-8")

    @staticmethod
    def decode(payload) -> Any:  # any bytes-like object: a frame's memoryview
        return json.loads(str(payload, "utf-8"))


class MsgpackCodec:
    """msgpack payloads (codec id 1); only registered when importable."""

    name = "msgpack"
    wire_id = 1

    @staticmethod
    def encode(obj: Any) -> bytes:
        import msgpack

        return msgpack.packb(obj, use_bin_type=True)

    @staticmethod
    def decode(payload: bytes) -> Any:
        import msgpack

        return msgpack.unpackb(payload, raw=False)


def _msgpack_available() -> bool:
    try:
        import msgpack  # noqa: F401
    except ImportError:
        return False
    return True


_CODECS_BY_NAME = {JsonCodec.name: JsonCodec}
_CODECS_BY_ID = {JsonCodec.wire_id: JsonCodec}
if _msgpack_available():  # pragma: no cover - depends on the environment
    _CODECS_BY_NAME[MsgpackCodec.name] = MsgpackCodec
    _CODECS_BY_ID[MsgpackCodec.wire_id] = MsgpackCodec


def available_codecs() -> tuple[str, ...]:
    """Names of the codecs usable in this environment."""
    return tuple(sorted(_CODECS_BY_NAME))


def default_codec_name() -> str:
    """Prefer msgpack when installed, else JSON."""
    return MsgpackCodec.name if MsgpackCodec.name in _CODECS_BY_NAME else JsonCodec.name


def get_codec(name: str):
    """Resolve a codec by name.

    Raises:
        FrameError: unknown or unavailable codec.
    """
    try:
        return _CODECS_BY_NAME[name]
    except KeyError:
        raise FrameError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
        ) from None


def frame_parts(obj: Any, codec=JsonCodec, blobs=()) -> list:
    """One wire frame as the buffers to hand to ``writelines``: the head,
    then each blob as given — the sender never concatenates a second copy.

    Raises:
        FrameError: the frame (blob section included) exceeds the limit.
    """
    if not blobs:
        payload = codec.encode(obj)
        body_len = 1 + len(payload)
        flag, prefix = 0, b""
    else:
        lengths = [len(blob) for blob in blobs]
        payload = codec.encode({**obj, "blobs": lengths})
        body_len = 1 + _LEN.size + len(payload) + sum(lengths)
        flag, prefix = BLOB_FLAG, _LEN.pack(len(payload))
    if body_len > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {body_len} bytes exceeds limit {MAX_FRAME_BYTES}")
    head = _LEN.pack(body_len) + bytes([codec.wire_id | flag]) + prefix + payload
    return [head, *blobs]


def encode_frame(obj: Any, codec=JsonCodec, blobs=()) -> bytes:
    """Serialize ``obj`` (a dict when ``blobs`` are given) into one
    complete wire frame."""
    return b"".join(frame_parts(obj, codec, blobs))


def _decode_payload(codec, payload: memoryview) -> Any:
    try:
        return codec.decode(payload)
    except Exception as exc:  # whatever the codec raises on garbage
        raise FrameError(f"undecodable {codec.name} frame: {exc}") from None


def _decode_body(body: memoryview) -> Any:
    """Decode a frame body (codec byte onward) into its message."""
    codec = _CODECS_BY_ID.get(body[0] & ~BLOB_FLAG)
    if codec is None:
        raise FrameError(f"unknown codec id {body[0] & ~BLOB_FLAG} in frame")
    if not body[0] & BLOB_FLAG:
        return _decode_payload(codec, body[1:])
    if len(body) < 1 + _LEN.size:
        raise FrameError("blob frame is too short for its header length")
    start = 1 + _LEN.size + _LEN.unpack_from(body, 1)[0]
    if start > len(body):
        raise FrameError("blob frame header overruns the frame")
    message = _decode_payload(codec, body[1 + _LEN.size : start])
    lengths = message.get("blobs") if isinstance(message, dict) else None
    if (
        not isinstance(lengths, list)
        or any(type(n) is not int or n < 0 for n in lengths)
        or start + sum(lengths) != len(body)
    ):
        raise FrameError("blob lengths do not match the frame's blob section")
    ends = list(itertools.accumulate(lengths, initial=start))
    message["blobs"] = tuple(bytes(body[a:b]) for a, b in zip(ends, ends[1:]))
    return message


def decode_frame(frame: bytes) -> tuple[Any, int]:
    """Decode one complete frame; returns ``(message, bytes_consumed)``.
    A blob frame's message carries its blobs under ``"blobs"``.

    Raises:
        FrameError: short buffer, oversize length, unknown codec id,
            undecodable payload, or a blob section that does not add up.
    """
    if len(frame) < _LEN.size:
        raise FrameError(f"frame header needs {_LEN.size} bytes, got {len(frame)}")
    (body_len,) = _LEN.unpack_from(frame)
    if body_len < 1:
        raise FrameError(f"frame body length must be >= 1, got {body_len}")
    if body_len > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {body_len} bytes exceeds limit {MAX_FRAME_BYTES}")
    end = _LEN.size + body_len
    if len(frame) < end:
        raise FrameError(f"truncated frame: need {end} bytes, got {len(frame)}")
    return _decode_body(memoryview(frame)[_LEN.size : end]), end


async def write_frame(
    writer: asyncio.StreamWriter, obj: Any, codec=JsonCodec, blobs=()
) -> None:
    """Write one framed message and drain the transport."""
    writer.writelines(frame_parts(obj, codec, blobs))
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> Optional[Any]:
    """Read one framed message; returns None on clean EOF at a frame boundary.

    Raises:
        FrameError: corrupt header/codec/blob section, or EOF inside a frame.
    """
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise FrameError(
            f"connection closed mid-header ({len(exc.partial)} of {_LEN.size} bytes)"
        ) from None
    (body_len,) = _LEN.unpack(header)
    if body_len < 1 or body_len > MAX_FRAME_BYTES:
        raise FrameError(f"bad frame body length {body_len}")
    try:
        body = await reader.readexactly(body_len)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)} of {body_len} bytes)"
        ) from None
    return _decode_body(memoryview(body))
