"""The asyncio RPC client: connection reuse, timeouts, retries, correlation.

One :class:`RpcClient` serves a whole live ring. It keeps one multiplexed
TCP connection per peer node (opened lazily, reused across calls and
coordinators) and matches pipelined responses back to callers by
correlation id.

Call semantics are **at-least-once with server-side replay suppression**:

- each *logical call* gets one correlation id;
- each attempt (re)sends the same id, waits ``timeout_s``, and on silence
  backs off per the :class:`~repro.rpc.retry.RetryPolicy` before retrying;
- a late response from an earlier attempt still completes the call (the
  pending slot is keyed by the correlation id, not the attempt);
- the server's idempotency cache answers a re-delivered id with the
  original result, so retries never double-apply an operation;
- when the budget runs dry the caller gets a typed
  :class:`~repro.rpc.errors.RpcTimeoutError`.

Fault injection (:class:`~repro.rpc.faults.FaultInjector`) hooks the send
path (drop / delay / duplicate per coordinator→node pair) and the response
path (drop), so every retry behavior above is testable deterministically.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.kvstore.errors import NodeDownError
from repro.rpc.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FrameError,
    RemoteCallError,
    RpcConnectionError,
    RpcError,
    RpcOverloadError,
    RpcTimeoutError,
)
from repro.rpc.faults import FaultInjector, SendPlan
from repro.rpc.framing import FrameReader, default_codec_name, frame_parts, get_codec, write_parts
from repro.rpc.messages import Request, Response, correlation_ids
from repro.rpc.ops import CONTROL_METHODS
from repro.rpc.overload import BreakerBoard, Deadline, RetryBudget
from repro.rpc.settings import CallPolicy
from repro.obs.histogram import Histogram
from repro.obs.trace import NO_SPAN, NULL_TRACER, Tracer

_NO_FAULTS = SendPlan()

# Smallest per-attempt wait worth issuing once a deadline nearly expired.
_MIN_ATTEMPT_TIMEOUT_S = 1e-4

# Remote error types re-raised as their local exception classes.
_REMOTE_TYPES = {
    "NodeDownError": NodeDownError,
    "RpcOverloadError": RpcOverloadError,
    "DeadlineExceededError": DeadlineExceededError,
}


def raise_remote_error(error: Optional[dict[str, str]]) -> None:
    """Re-raise a response's error envelope as a typed local exception."""
    error = error or {}
    error_type = error.get("type", "UnknownError")
    message = error.get("message", "")
    local = _REMOTE_TYPES.get(error_type)
    if local is not None:
        raise local(message)
    raise RemoteCallError(error_type, message)


@dataclass
class ClientStats:
    """Transport accounting for one client."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    connection_errors: int = 0
    failed_calls: int = 0
    overload_errors: int = 0  # server shed us at admission
    deadline_expired: int = 0  # budget died (locally or server-side)
    circuit_open: int = 0  # failed fast without touching the wire
    retry_budget_denied: int = 0  # retry wanted, token bucket empty
    by_method: dict[str, int] = field(default_factory=dict)


class _Pending:
    # One logical call's slot on a connection; ``future`` is the current attempt's.
    __slots__ = ("future", "src")

    def __init__(self, future: asyncio.Future, src: Optional[str]) -> None:
        self.future = future
        self.src = src


def _expire(future: asyncio.Future) -> None:
    """The per-attempt timer: fail that attempt's future, nothing else."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


class _Connection(FrameReader):
    """One reused TCP connection to a peer, multiplexing pipelined calls:
    each reply is matched and delivered from the read callback itself."""

    blob_views = True  # a restored byte's only copy is the caller's join

    def __init__(self, node_id: str, injector: Optional[FaultInjector]) -> None:
        super().__init__()
        self.node_id = node_id
        self._injector = injector
        self.pending: dict[str, _Pending] = {}
        self.closed = False

    # -- sending -------------------------------------------------------- #

    def send(self, frame: list) -> None:
        """Hand a frame (its ``frame_parts`` buffers) to the transport now;
        the caller waits for the reply, nobody for the drain. An injected
        delay calls this (or :meth:`_deliver`) from a timer, racing the
        attempt's timeout as on a real wire; closed, both do nothing."""
        if not self.closed:
            write_parts(self.transport, frame)

    # -- receiving ------------------------------------------------------ #

    def frame_received(self, codec, message) -> None:
        response = Response.from_wire(message)
        pending = self.pending.get(response.msg_id)
        if pending is None:
            return  # duplicate or stale (already-answered) response
        if self._injector is not None:
            if self._injector.should_drop_response(pending.src, self.node_id):
                return  # the network ate the reply; the call will retry
            delay_s = self._injector.response_delay(pending.src, self.node_id)
            if delay_s > 0:
                asyncio.get_running_loop().call_later(delay_s, self._deliver, pending, response)
                return
        self._deliver(pending, response)

    def frame_error(self, exc: FrameError) -> None:
        # A dead connection is replaced, never closed by its owner.
        self._fail_all(RpcConnectionError(self.node_id, str(exc)))
        self.transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        reason = "peer closed the connection" if exc is None else str(exc)
        self._fail_all(RpcConnectionError(self.node_id, reason))

    def _deliver(self, pending: _Pending, response: Response) -> None:
        if not self.closed and not pending.future.done():
            pending.future.set_result(response)

    def _fail_all(self, error: RpcError) -> None:
        self.closed = True
        for pending in self.pending.values():
            if not pending.future.done():
                pending.future.set_exception(error)
        self.pending.clear()

    # -- lifecycle ------------------------------------------------------ #

    async def close(self) -> None:
        self._fail_all(RpcConnectionError(self.node_id, "client closed"))
        self.transport.close()
        await self.lost


class RpcClient:
    """Framed RPC over reused connections to a fixed set of peers.

    Args:
        addresses: node id → (host, port) of each peer's NodeServer.
        policy: the :class:`~repro.rpc.settings.CallPolicy` read here: wire
            codec, per-attempt timeout, retry schedule, default end-to-end
            deadline per data-plane call (carried on the wire per attempt;
            retries stop when the budget — not the attempt count — runs
            out), per (src, dst) circuit breakers and the retry budget.
        fault_injector: optional fault hook for tests/chaos runs.
        tracer: optional :class:`~repro.obs.trace.Tracer`; each call opens a
            ``rpc.client.<method>`` span whose span id *is* the correlation
            id, so server-side handler spans link to it across the wire.

    Control methods (:data:`~repro.rpc.ops.CONTROL_METHODS`) bypass
    deadline, breaker, and budget: pings must flow to an overloaded node
    (busy is not dead) and recovery tooling must reach a broken one.

    All methods must run on the event loop that owns the connections.
    """

    def __init__(
        self,
        addresses: dict[str, tuple[str, int]],
        policy: CallPolicy,
        fault_injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.addresses = dict(addresses)
        self.codec = get_codec(policy.codec or default_codec_name())
        self.timeout_s = policy.timeout_s
        self.retry = policy.retry
        self.fault_injector = fault_injector
        self.deadline_s = policy.deadline_s
        self.breakers = (
            BreakerBoard(policy.breaker_failures, policy.breaker_cooldown_s)
            if policy.breaker_failures > 0
            else None
        )
        self.retry_budget = RetryBudget(policy.retry_budget) if policy.retry_budget > 0 else None
        self.stats = ClientStats()
        self.rtt = Histogram("rpc.rtt_s")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rng = random.Random(0)  # backoff jitter, identical run to run
        self._ids = correlation_ids()
        self._conns: dict[str, _Connection] = {}
        # A connect in flight per peer: concurrent first calls share it.
        self._connecting: dict[str, asyncio.Future] = {}

    # -- connections ---------------------------------------------------- #

    async def _connection(self, dst: str) -> _Connection:
        conn = self._conns.get(dst)
        if conn is not None and not conn.closed:
            return conn
        connecting = self._connecting.get(dst)
        if connecting is None:
            connecting = self._connecting[dst] = asyncio.ensure_future(self._connect(dst))
        # Shielded: one caller giving up must not cancel the others' connect.
        return await asyncio.shield(connecting)

    async def _connect(self, dst: str) -> _Connection:
        try:
            try:
                host, port = self.addresses[dst]
            except KeyError:
                raise RpcConnectionError(dst, "unknown node (no address)") from None
            try:
                _, conn = await asyncio.get_running_loop().create_connection(
                    lambda: _Connection(dst, self.fault_injector), host, port
                )
            except OSError as exc:
                raise RpcConnectionError(dst, str(exc)) from None
            self._conns[dst] = conn
            return conn
        finally:
            del self._connecting[dst]

    # -- calls ----------------------------------------------------------- #

    async def call(
        self, dst: str, method: str, params: Optional[dict[str, Any]] = None, **kwargs
    ) -> Any:
        """:meth:`request` for callers that only want the reply's result."""
        return (await self.request(dst, method, params, **kwargs)).result

    async def request(
        self,
        dst: str,
        method: str,
        params: Optional[dict[str, Any]] = None,
        src: Optional[str] = None,
        timeout_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
        blobs: tuple = (),
    ) -> Response:
        """One logical call: send, await the correlated response, retry on
        silence, raise :class:`RpcTimeoutError` when the budget is spent.
        ``blobs`` ride in the frame's blob section on every attempt; the
        returned :class:`Response` carries the reply's ``result`` and ``blobs``.

        Remote application errors are re-raised typed (never retried — they
        are deterministic); transport silence and dead connections are
        retried per the policy, *bounded by the deadline*: retries stop
        when the end-to-end budget runs out, not just the attempt count,
        and each attempt's frame carries the shrinking remainder so the
        server can drop work nobody is waiting for. ``RpcOverloadError``
        pushback is surfaced immediately (retrying into a shedding server
        is the amplification we are trying to prevent).
        """
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        control = method in CONTROL_METHODS
        if deadline is None and self.deadline_s is not None and not control:
            deadline = Deadline.after(self.deadline_s)
        breaker = None
        if self.breakers is not None and not control:
            breaker = self.breakers.for_pair(src, dst)
            if not breaker.allow():
                self.stats.circuit_open += 1
                self.stats.failed_calls += 1
                raise CircuitOpenError(node_id=dst)
        msg_id = next(self._ids)
        request = Request(msg_id, method, params or {}, src=src, dst=dst)
        # Without a deadline the frame is immutable across attempts and
        # encoded once; with one, each attempt re-stamps the remainder.
        frame = frame_parts(request.to_wire(), self.codec, blobs) if deadline is None else []
        self.stats.calls += 1
        self.stats.by_method[method] = self.stats.by_method.get(method, 0) + 1
        backoffs = None  # built on the first retry
        loop = asyncio.get_running_loop()
        pending = _Pending(loop.create_future(), src)
        last_conn: Optional[_Connection] = None
        last_error: Optional[RpcError] = None
        attempts_made = 0
        started = time.perf_counter()
        # The span id is the correlation id: the matching server span opens
        # with parent_id=msg_id, so one client batch reads client→server
        # across processes without any wire-format change.
        with self.tracer.span(
            f"rpc.client.{method}", node=src, span_id=msg_id, dst=dst
        ) if self.tracer.enabled else NO_SPAN as rec:
            try:
                for attempt in range(self.retry.attempts):
                    if attempt:
                        if self.retry_budget is not None and not self.retry_budget.try_spend():
                            self.stats.retry_budget_denied += 1
                            break  # storm guard: no token, no retry
                        self.stats.retries += 1
                        if backoffs is None:
                            backoffs = self.retry.backoff_delays(self._rng)
                        await asyncio.sleep(next(backoffs))
                    if deadline is not None and deadline.remaining() <= 0:
                        break  # the budget, not the attempt count, ran out
                    self.stats.attempts += 1
                    attempts_made += 1
                    if pending.future.done():
                        pending.future.exception()  # retrieve, to silence the loop's warning
                        pending.future = loop.create_future()
                    future = pending.future
                    injector = self.fault_injector
                    plan = _NO_FAULTS if injector is None else injector.plan_send(src, dst)
                    if not plan.drop:
                        try:
                            conn = await self._connection(dst)
                        except RpcConnectionError as exc:
                            self.stats.connection_errors += 1
                            if breaker is not None:
                                breaker.record_failure()
                            last_error = exc
                            continue
                        conn.pending[msg_id] = pending
                        last_conn = conn
                        if deadline is not None:
                            frame = frame_parts(
                                Request(
                                    msg_id, method, request.params, src=src, dst=dst,
                                    deadline_s=max(deadline.remaining(), 0.0),
                                ).to_wire(),
                                self.codec,
                                blobs,
                            )
                        parts = frame + frame if plan.duplicate else frame
                        if plan.delay_s:
                            loop.call_later(plan.delay_s, conn.send, parts)
                        else:
                            conn.send(parts)
                    attempt_timeout = timeout
                    if deadline is not None:
                        attempt_timeout = min(
                            timeout, max(deadline.remaining(), _MIN_ATTEMPT_TIMEOUT_S)
                        )
                    # One timer, on this attempt's own future.
                    timer = loop.call_later(attempt_timeout, _expire, future)
                    try:
                        response = await future
                    except asyncio.TimeoutError:
                        self.stats.timeouts += 1
                        if breaker is not None:
                            breaker.record_failure()
                        last_error = RpcTimeoutError(
                            method, dst, attempts_made, timeout,
                            elapsed_s=time.perf_counter() - started,
                            deadline_left_s=None if deadline is None else deadline.remaining(),
                        )
                        continue
                    except RpcConnectionError as exc:
                        self.stats.connection_errors += 1
                        if breaker is not None:
                            breaker.record_failure()
                        last_error = exc
                        continue
                    finally:
                        timer.cancel()
                    self.rtt.observe(time.perf_counter() - started)
                    if rec is not None:
                        rec.attrs["attempts"] = attempt + 1
                    if response.ok:
                        if breaker is not None:
                            breaker.record_success()
                        if self.retry_budget is not None:
                            self.retry_budget.on_success()
                        return response
                    try:
                        raise_remote_error(response.error)
                    except RpcOverloadError:
                        # Backpressure: the server answered, but with "go
                        # away". Counts against the breaker (the pair is
                        # unhealthy for data traffic) and is never retried
                        # here — retrying into a shedding node is exactly
                        # the amplification the budget exists to stop.
                        self.stats.overload_errors += 1
                        if breaker is not None:
                            breaker.record_failure()
                        raise
                    except DeadlineExceededError:
                        # The server dropped expired work; the transport
                        # and the node are fine — don't punish the pair.
                        self.stats.deadline_expired += 1
                        if breaker is not None:
                            breaker.record_success()
                        raise
                    except Exception:
                        # Any other application error proves the pair
                        # healthy end to end.
                        if breaker is not None:
                            breaker.record_success()
                        raise
            finally:
                if last_conn is not None and last_conn.pending.get(msg_id, None) is not None:
                    del last_conn.pending[msg_id]
                if pending.future.done() and not pending.future.cancelled():
                    pending.future.exception()
            self.stats.failed_calls += 1
            if rec is not None:
                rec.attrs["failed"] = True
            elapsed = time.perf_counter() - started
            deadline_left = None if deadline is None else deadline.remaining()
            if deadline is not None and deadline.expired:
                self.stats.deadline_expired += 1
            if isinstance(last_error, RpcTimeoutError) or last_error is None:
                raise RpcTimeoutError(
                    method, dst, attempts_made, timeout,
                    elapsed_s=elapsed, deadline_left_s=deadline_left,
                )
            raise last_error

    async def ping(self, dst: str, src: Optional[str] = None) -> float:
        """Round-trip one ping; returns the measured RTT in seconds."""
        t0 = time.perf_counter()
        await self.call(dst, "ping", src=src)
        return time.perf_counter() - t0

    # -- membership ------------------------------------------------------ #

    def register_node(self, dst: str, host: str, port: int) -> None:
        """Learn (or update) a peer's address; the connection opens lazily."""
        self.addresses[dst] = (host, int(port))

    async def forget_node(self, dst: str) -> None:
        """Drop a decommissioned peer: forget its address and close any
        pooled connection so no future call can reach it."""
        self.addresses.pop(dst, None)
        await self._settle_connects()
        conn = self._conns.pop(dst, None)
        if conn is not None:
            await conn.close()

    # -- lifecycle ------------------------------------------------------- #

    async def _settle_connects(self) -> None:
        """Let connects in flight land, so none outlives a close."""
        await asyncio.gather(*self._connecting.values(), return_exceptions=True)

    async def close(self) -> None:
        await self._settle_connects()
        conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            await conn.close()
