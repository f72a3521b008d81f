"""Length-prefixed wire framing with pluggable codecs and raw blob sections.

A frame on the wire is::

    +----------------+-----------+------------------+
    | 4-byte length  | codec id  | payload          |
    | big-endian     | 1 byte    | length - 1 bytes |
    +----------------+-----------+------------------+

The length covers the codec byte plus the payload. Every frame names its
own codec, which lets a server answer msgpack and JSON clients on the same
port and lets a deployment upgrade codecs without a flag day.

Chunk payloads travel raw, once, never inside the codec: a frame that
carries them sets the high bit of the codec byte (:data:`BLOB_FLAG`) and
its payload is a header plus a **blob section**::

    +--------+------------+---------------+------------------+--------+--------+
    | length | codec|0x80 | 4-byte header | header: message  | blob 0 | blob 1 | ...
    |        |            | length        | + "blobs": [len] |        |        |
    +--------+------------+---------------+------------------+--------+--------+

The blobs follow back to back and must fill the frame exactly; the
receiver gets the message with ``"blobs"`` replaced by a tuple cut from
the frame through a ``memoryview``. :data:`MAX_FRAME_BYTES` bounds the
whole frame, blob section included. A frame without the flag is
byte-for-byte what it always was, so index, claim and control traffic is
untouched and old and new peers interoperate on it.

Both ends of a live connection read with :class:`FrameReader`, an
``asyncio.BufferedProtocol``: the socket is read straight into a staging
buffer of :data:`STAGE_BYTES`, and every complete frame in it is decoded
in place, several per read when they are small. A frame that cannot fit
the stage is received straight into a buffer of its own length (only its
first read is copied over from the stage). A reader that asks for blob
views (the client) gets such a frame's blobs as views of that buffer,
uncopied; every other blob is one ``bytes`` copy. A server pauses its
reader while its transport's write buffer is over the high-water mark, so
a peer that sends but never reads stops being read.

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
import os
import struct
from typing import Any, Optional

from repro.rpc.errors import FrameError

# A frame larger than this is a protocol violation, not a big message —
# reject it instead of letting a corrupt length prefix allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# Payload ops stop filling a frame at this many blob bytes, so a shelf of
# any size moves in several frames, none near the limit.
BLOB_BUDGET_BYTES = MAX_FRAME_BYTES // 4

# The reader's staging buffer: frames up to this size (length prefix
# included) are decoded in place from it, larger ones get their own buffer.
# A larger frame's first read lands here and is copied over, so the stage is
# kept small: restores ran faster with 16 or 64 KiB than with 256.
STAGE_BYTES = 64 * 1024

# High bit of the codec byte: the payload is a header plus a blob section.
BLOB_FLAG = 0x80

# Most buffers one writev takes (1 024 on Linux; more fail with EINVAL).
# 0 where there is no writev: every frame then goes through writelines.
_IOV_MAX = os.sysconf("SC_IOV_MAX") if hasattr(os, "writev") else 0

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
    """One wire frame as the buffers to hand to :func:`write_parts`: the head,
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


def write_parts(transport, parts: list) -> None:
    """Send one frame's :func:`frame_parts` on ``transport`` without joining
    its blobs into a second copy (Python 3.11's ``writelines`` does).

    While nothing is queued on the transport, the parts go straight to its
    socket with ``os.writev``, at most ``SC_IOV_MAX`` buffers a call; what
    the socket does not take is queued with ``transport.write``, which then
    applies the transport's own flow control. Behind queued bytes, or for a
    one-buffer frame, the parts go to ``writelines``. The rpc wire is plain
    TCP: the socket carries exactly the bytes written to the transport.
    """
    sock = None
    if len(parts) > 1 and _IOV_MAX > 0 and not transport.get_write_buffer_size():
        sock = transport.get_extra_info("socket")
    if sock is None or transport.is_closing():
        transport.writelines(parts)
        return
    fd = sock.fileno()
    while parts:
        group = parts[:_IOV_MAX]
        try:
            sent = os.writev(fd, group)
        except OSError:  # full (or a dead peer): the transport takes it from here
            break
        for i, part in enumerate(group):
            if sent < len(part):
                parts = [memoryview(part)[sent:], *parts[i + 1 :]]
                break
            sent -= len(part)
        else:
            parts = parts[len(group) :]
            continue
        break
    for part in parts:
        transport.write(part)


def encode_frame(obj: Any, codec=JsonCodec, blobs=()) -> bytes:
    """Serialize ``obj`` (a dict when ``blobs`` are given) into one
    complete wire frame."""
    return b"".join(frame_parts(obj, codec, blobs))


def _decode_payload(codec, payload: memoryview) -> Any:
    try:
        return codec.decode(payload)
    except Exception as exc:  # whatever the codec raises on garbage
        raise FrameError(f"undecodable {codec.name} frame: {exc}") from None


def _decode_body(body: memoryview, views: bool = False) -> tuple[Any, Any]:
    """Decode a frame body (codec byte onward) into ``(codec, message)``;
    its blobs are ``bytes`` copies, or slices of ``body`` with ``views``."""
    codec = _CODECS_BY_ID.get(body[0] & ~BLOB_FLAG)
    if codec is None:
        raise FrameError(f"unknown codec id {body[0] & ~BLOB_FLAG} in frame")
    if not body[0] & BLOB_FLAG:
        return codec, _decode_payload(codec, body[1:])
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
    blobs = [body[a:b] for a, b in zip(ends, ends[1:])]
    message["blobs"] = tuple(blobs) if views else tuple(map(bytes, blobs))
    return codec, message


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
    return _decode_body(memoryview(frame)[_LEN.size : end])[1], end


class FrameReader(asyncio.BufferedProtocol):
    """The frame parser both ends of a connection read with.

    Subclasses take :meth:`frame_received` ``(codec, message)`` per frame,
    in wire order, and :meth:`frame_error` once for a protocol violation
    (a corrupt length, codec or blob section, or EOF inside a frame);
    after it nothing more is parsed. While ``_paused`` is set, complete
    frames wait in the stage until :meth:`_parse` runs again. With
    ``blob_views`` a frame too big for the stage hands its blobs over as
    read-only views of its own buffer instead of copies. ``lost`` resolves
    once the connection is gone.
    """

    blob_views = False

    def __init__(self) -> None:
        self.transport = None
        self._stage = bytearray(STAGE_BYTES)
        self._view = memoryview(self._stage)
        self._start = self._end = 0  # unparsed bytes: _stage[_start:_end]
        self._big: Optional[memoryview] = None  # a frame too big for the stage
        self._filled = 0  # bytes of _big received so far
        self._paused = False
        self._failed = False

    def frame_received(self, codec, message: Any) -> None:
        raise NotImplementedError

    def frame_error(self, exc: FrameError) -> None:
        raise exc

    # -- asyncio.BufferedProtocol ----------------------------------------- #

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.lost = asyncio.get_running_loop().create_future()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self.lost.done():
            self.lost.set_result(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._big is not None:
            return self._big[self._filled :]
        if self._start:  # move the unparsed tail (a partial frame) to the front
            size = self._end - self._start
            self._view[:size] = self._view[self._start : self._end]  # a memmove
            self._start, self._end = 0, size
        return self._view[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._failed:
            return  # whatever still arrives is dropped unread
        if self._big is None:
            self._end += nbytes
        else:
            self._filled += nbytes
        self._parse()

    def eof_received(self) -> bool:
        if self._big is not None or self._start < self._end:
            self._fail(FrameError("connection closed mid-frame"))
        return False

    # -- parsing ---------------------------------------------------------- #

    def _fail(self, exc: FrameError) -> None:
        self._start = self._end = 0
        self._big = None
        if not self._failed:
            self._failed = True
            self.frame_error(exc)

    def _parse(self) -> None:
        """Hand over the frame received into its own buffer once it is
        whole, then every complete frame in the stage, until paused; a frame
        that can never fit the stage moves to a buffer of its own, which
        the transport then fills directly."""
        try:
            if self._big is not None and self._filled == len(self._big):
                body, self._big = self._big.toreadonly(), None
                self.frame_received(*_decode_body(body, self.blob_views))
            while not (self._paused or self._failed) and self._end - self._start >= _LEN.size:
                (body_len,) = _LEN.unpack_from(self._stage, self._start)
                if body_len < 1 or body_len > MAX_FRAME_BYTES:
                    raise FrameError(f"bad frame body length {body_len}")
                begin = self._start + _LEN.size
                if begin + body_len > self._end:
                    if _LEN.size + body_len > STAGE_BYTES:
                        self._big = memoryview(bytearray(body_len))
                        self._filled = self._end - begin
                        self._big[: self._filled] = self._view[begin : self._end]
                        self._start = self._end = 0
                    return
                self._start = begin + body_len
                self.frame_received(*_decode_body(self._view[begin : self._start]))
        except FrameError as exc:
            self._fail(exc)
