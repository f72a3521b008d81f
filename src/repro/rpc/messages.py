"""Request/response envelopes with correlation ids.

Connections are multiplexed: a client pipelines many requests on one TCP
stream and matches responses back by ``msg_id``. Correlation ids are unique
per *logical call*, not per transmission — a retry resends the same id, so
the server's idempotency cache can answer a repeated delivery with the
original result and the client can discard duplicate or stale responses.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.rpc.errors import FrameError


def correlation_ids(prefix: Optional[str] = None):
    """An infinite generator of globally-unique correlation ids.

    The prefix (random unless given) keeps ids from distinct clients from
    colliding in a server's idempotency cache.
    """
    if prefix is None:
        prefix = os.urandom(4).hex()
    return (f"{prefix}-{n}" for n in itertools.count(1))


@dataclass(frozen=True)
class Request:
    """One RPC call: ``method(**params)`` addressed to node ``dst``.

    ``src`` is the coordinator the call acts for — fault injection and
    contact accounting are keyed on the (src, dst) node pair.

    ``deadline_s`` is the call's remaining end-to-end budget *in seconds*
    (a duration, not a timestamp — no clock agreement needed). The client
    re-stamps it per attempt with what is left; the server drops work
    whose local queue wait exceeds it. ``None`` (and its absence on old
    frames) means unbounded, so mixed-version peers interoperate.

    ``blobs`` are raw chunk payloads riding in the frame's blob section
    (see :mod:`repro.rpc.framing`); they never enter :meth:`to_wire`.
    """

    msg_id: str
    method: str
    params: dict[str, Any] = field(default_factory=dict)
    src: Optional[str] = None
    dst: Optional[str] = None
    deadline_s: Optional[float] = None
    blobs: tuple = ()

    def to_wire(self) -> dict[str, Any]:
        wire = {
            "kind": "req",
            "id": self.msg_id,
            "method": self.method,
            "params": self.params,
            "src": self.src,
            "dst": self.dst,
        }
        if self.deadline_s is not None:
            wire["deadline_s"] = self.deadline_s
        return wire

    @staticmethod
    def from_wire(obj: Any) -> "Request":
        """``FrameError`` unless the envelope is well-typed; the params are
        the op's to check, and blobs come only from the blob section."""
        try:
            if obj["kind"] != "req":
                raise FrameError(f"expected a request, got kind {obj['kind']!r}")
            src, dst, deadline_s = obj.get("src"), obj.get("dst"), obj.get("deadline_s")
            request = Request(
                obj["id"], obj["method"], obj.get("params") or {}, src, dst,
                None if deadline_s is None else float(deadline_s), obj.get("blobs", ()),
            )
            if (
                type(request.msg_id) is type(request.method) is str
                and {type(src), type(dst)} <= {str, type(None)}
                and type(deadline_s) in (float, int, type(None))
                and type(request.blobs) is tuple
            ):
                return request
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FrameError(f"malformed request frame: {obj!r:.200}") from exc
        raise FrameError(f"malformed request envelope: {obj!r:.200}")


@dataclass(frozen=True)
class Response:
    """The reply to one request, matched by ``msg_id``.

    Exactly one of ``result`` (ok) or ``error`` (a ``{"type", "message"}``
    dict naming the remote exception) is meaningful. ``blobs`` are raw
    chunk payloads from the frame's blob section, outside :meth:`to_wire`.
    """

    msg_id: str
    ok: bool
    result: Any = None
    error: Optional[dict[str, str]] = None
    blobs: tuple = ()

    @staticmethod
    def success(msg_id: str, result: Any, blobs: tuple = ()) -> "Response":
        return Response(msg_id=msg_id, ok=True, result=result, blobs=blobs)

    @staticmethod
    def failure(msg_id: str, exc: BaseException) -> "Response":
        return Response(
            msg_id=msg_id,
            ok=False,
            error={"type": type(exc).__name__, "message": str(exc)},
        )

    def to_wire(self) -> dict[str, Any]:
        return {
            "kind": "resp",
            "id": self.msg_id,
            "ok": self.ok,
            "result": self.result,
            "error": self.error,
        }

    @staticmethod
    def from_wire(obj: Any) -> "Response":
        """``FrameError`` unless the envelope is well-typed: a hostile reply
        costs its connection, never the client's reader."""
        try:
            if obj["kind"] != "resp":
                raise FrameError(f"expected a response, got kind {obj['kind']!r}")
            response = Response(
                obj["id"], obj["ok"], obj.get("result"), obj.get("error"), obj.get("blobs", ())
            )
        except (KeyError, TypeError) as exc:
            raise FrameError(f"malformed response frame: {obj!r:.200}") from exc
        error = response.error
        if (
            type(response.msg_id) is str
            and type(response.ok) is bool
            and (error is None or type(error) is dict and error.keys() == {"type", "message"}
                 and type(error["type"]) is type(error["message"]) is str)
            and type(response.blobs) is tuple
        ):
            return response
        raise FrameError(f"malformed response envelope: {obj!r:.200}")
