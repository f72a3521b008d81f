"""Typed exceptions for the asyncio RPC transport.

The lineage follows :mod:`repro.kvstore.errors`: everything derives from
:class:`~repro.kvstore.errors.KVStoreError` so callers that already handle
store failures (``UnavailableError``, ``NodeDownError``) catch transport
failures with the same ``except KVStoreError`` — a live ring fails the same
way an in-process ring does, just with more specific types.
"""

from __future__ import annotations

from typing import Optional

from repro.kvstore.errors import KVStoreError


class RpcError(KVStoreError):
    """Base class for transport-level failures."""


class FrameError(RpcError):
    """A wire frame was malformed: bad length prefix, unknown codec byte,
    truncated payload, or a frame above the size limit."""


class RpcConnectionError(RpcError):
    """A connection to a peer could not be established or was lost mid-call."""

    def __init__(self, node_id: str, detail: str) -> None:
        super().__init__(f"connection to node {node_id!r} failed: {detail}")
        self.node_id = node_id


class RpcTimeoutError(RpcError):
    """A call exhausted its retry or deadline budget without a response.

    Raised only after the retry schedule (or the end-to-end deadline,
    whichever runs out first) has run dry — transient drops and delays are
    masked by the retries and never surface as this. The message reports
    *elapsed wall time*, not ``attempts × timeout_s``: backoff sleeps
    between attempts dominate once retries kick in, so the naive product
    undersells how long the caller actually waited.
    """

    def __init__(
        self,
        method: str,
        node_id: str,
        attempts: int,
        timeout_s: float,
        elapsed_s: Optional[float] = None,
        deadline_left_s: Optional[float] = None,
    ) -> None:
        msg = (
            f"call {method!r} to node {node_id!r} timed out after "
            f"{attempts} attempt(s) (per-attempt timeout {timeout_s:g}s"
        )
        if elapsed_s is not None:
            msg += f", {elapsed_s:.3f}s elapsed"
        if deadline_left_s is not None:
            if deadline_left_s <= 0:
                msg += ", deadline budget exhausted"
            else:
                msg += f", {deadline_left_s:.3f}s of deadline left"
        msg += ")"
        super().__init__(msg)
        self.method = method
        self.node_id = node_id
        self.attempts = attempts
        self.timeout_s = timeout_s
        self.elapsed_s = elapsed_s
        self.deadline_left_s = deadline_left_s


class RpcOverloadError(RpcError):
    """The server shed this request at admission: its bounded queue is at
    (or ramping toward) capacity. Busy is not dead — the node is alive and
    answering pings; callers should back off, not mark it down."""

    def __init__(self, message: str = "", node_id: Optional[str] = None) -> None:
        if not message:
            message = f"node {node_id!r} shed the request: admission queue full"
        super().__init__(message)
        self.node_id = node_id


class DeadlineExceededError(RpcError):
    """The call's end-to-end deadline budget ran out.

    Raised server-side when queued work expires before execution (dropped,
    not executed — serving it would burn capacity on an answer nobody is
    waiting for) and client-side when the budget dies between attempts.
    """


class InternalError(RpcError):
    """A handler failed in a way no verb declares (a bug: every request is
    checked before it is served); the server answers with this, typed,
    instead of losing the request or its connection."""


class CircuitOpenError(RpcError):
    """The client's circuit breaker for this (coordinator, node) pair is
    open: recent calls failed, so this one fails fast without touching the
    wire. Half-open probes re-test the pair after the cooldown."""

    def __init__(self, message: str = "", node_id: Optional[str] = None) -> None:
        if not message:
            message = f"circuit open for node {node_id!r}: failing fast"
        super().__init__(message)
        self.node_id = node_id


class RemoteCallError(RpcError):
    """The peer executed the request and returned an application error.

    Carries the remote exception's type name so known kv-store errors can be
    re-raised as their local types (see ``client.raise_remote_error``).
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"remote {error_type}: {message}")
        self.error_type = error_type
        self.remote_message = message
