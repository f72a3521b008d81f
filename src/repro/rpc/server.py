"""Per-node RPC server: one member's replica behind a real TCP socket.

Each edge node of a live D2-ring runs one :class:`NodeServer` on
127.0.0.1 (port assigned by the OS). The server speaks the framed
request/response protocol of :mod:`repro.rpc.framing` /
:mod:`repro.rpc.messages` and exposes the *replica-local* operation
surface: each method is one :class:`~repro.rpc.ops.Op` of
:data:`~repro.rpc.ops.OPS`, which checks the request in full and then
serves it from the member's :class:`~repro.kvstore.replica.Replica`
(index shard plus chunk shelf). Coordination (replica placement,
consistency, hint buffering, last-write-wins merges) stays client-side in
the :class:`~repro.kvstore.coordinator.QuorumCoordinator`.

Two server-side behaviors make retries safe:

- **Idempotency cache.** A ``remembered`` verb's response is kept per
  correlation id (bounded LRU): a retried or duplicated delivery gets the
  *original* response instead of a re-execution, so a write is never
  applied twice.
- **Down-state.** ``set_down(True)`` makes data operations fail with
  ``NodeDownError`` (the process answers, the replica refuses — a crashed
  replica is modeled client-side by the coordinator's aliveness set).
  Control operations keep working so an operator — or a test — can
  inspect and recover the node.

Overload protection (opt-in via ``NodeSpec.admission_queue``): data-plane
requests flow through a bounded queue drained by worker tasks instead of
being executed inline on the connection loop. At the queue bound the server
*sheds* — answers immediately with a typed ``RpcOverloadError`` instead of
queueing work it cannot serve in time — and work whose end-to-end deadline
expired while queued is *dropped* (``DeadlineExceededError``), not
executed: serving it would burn capacity on an answer nobody is still
waiting for.
Three carve-outs keep the semantics honest:

- control methods (:data:`~repro.rpc.ops.CONTROL_METHODS`) bypass
  admission entirely — a shedding node still answers pings, so the
  phi-accrual detector never confuses *busy* with *dead*;
- replays bypass admission — the cached response costs nothing to return,
  and shedding a retry of already-executed work would make the client
  retry (or fail) an operation the server in fact applied;
- shed responses are **never** cached in the idempotency store: a later
  retry of the same correlation id must get a fresh admission decision,
  not a replayed "busy".

Each connection is a :class:`~repro.rpc.framing.FrameReader`. With no
admission queue and no fault injector nothing on a request's path awaits,
so it is served inline, from the read callback, as its frame completes;
otherwise the connection's frames go, in arrival order, to one task that
routes them. A reply is written by one call,
:func:`~repro.rpc.framing.write_parts`, so replies from workers may
interleave in any order (the client matches by correlation id) but never
within a frame. While a connection's write buffer is over the transport's
high-water mark the server stops reading from it.

Every request gets exactly one reply: a bad request is answered as
``ValueError`` (counted in ``errors``), a failure no verb declares as
``InternalError`` (counted in ``internal_errors``); only a malformed frame
or envelope costs its connection (``frame_errors``).
"""

from __future__ import annotations

import asyncio
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.kvstore.errors import KVStoreError
from repro.kvstore.replica import Replica
from repro.kvstore.wal import WriteAheadLog
from repro.obs.histogram import Histogram
from repro.obs.trace import NO_SPAN, NULL_TRACER, Tracer
from repro.rpc.errors import DeadlineExceededError, FrameError, InternalError, RpcOverloadError
from repro.rpc.faults import FaultInjector
from repro.rpc.framing import FrameReader, frame_parts, write_parts
from repro.rpc.messages import Request, Response
from repro.rpc.ops import CONTROL_METHODS, OPS
from repro.rpc.overload import AdmissionController
from repro.rpc.settings import NodeSpec

# Correlation ids remembered for retry/duplicate suppression.
IDEMPOTENCY_CAPACITY = 4096


@dataclass
class ServerStats:
    """Request accounting for one node server."""

    requests: int = 0
    replays: int = 0  # answered from the idempotency cache
    errors: int = 0
    connections: int = 0
    shed: int = 0  # refused at admission (RpcOverloadError)
    deadline_drops: int = 0  # expired in queue, dropped unexecuted
    frame_errors: int = 0  # malformed frames; each one cost its connection
    internal_errors: int = 0  # handler failures answered as InternalError
    by_method: dict[str, int] = field(default_factory=dict)


class NodeServer:
    """One replica's network face.

    Args:
        spec: what the server, its :class:`~repro.kvstore.replica.Replica`
            and the replica's write-ahead log are built from
            (:class:`~repro.rpc.settings.NodeSpec`). With a positive
            ``admission_queue``, data-plane requests flow through a bounded
            queue drained by ``service_workers`` tasks and excess load is
            shed with ``RpcOverloadError``; otherwise they are served inline.
        tracer: optional :class:`~repro.obs.trace.Tracer`; each handled
            request opens a ``rpc.server.<method>`` span parented on the
            request's correlation id, linking it to the client call span.
        fault_injector: optional injector consulted per admitted request
            for SLOW service-time inflation (gray failures).

    Every reply is encoded in the codec its request arrived in, so
    mixed-codec clients share one server.
    """

    def __init__(
        self,
        spec: NodeSpec,
        tracer: Optional[Tracer] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self.spec = spec
        wal = None if spec.data_dir is None else WriteAheadLog(spec.data_dir, spec.node_id)
        self.node = Replica(spec.node_id, wal=wal)
        self.stats = ServerStats()
        self.handle_latency = Histogram("server.handle_s")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._seen: OrderedDict[str, Response] = OrderedDict()
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: set[_ServerConnection] = set()
        self.address: Optional[tuple[str, int]] = None
        # Per-node seed from crc32, not str(hash): stable across processes,
        # so chaos runs replay identical shedding.
        self.admission = (
            AdmissionController(
                max_queue=spec.admission_queue, seed=zlib.crc32(spec.node_id.encode())
            )
            if spec.admission_queue > 0
            else None
        )
        self.fault_injector = fault_injector
        self._queue: Optional[asyncio.Queue] = None
        self._workers: list[asyncio.Task] = []
        self._depth = 0  # admitted-but-unfinished requests (the queue bound)

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting or executing right now (honest
        overload signal for metrics and future autoscaling)."""
        return self._depth

    @property
    def node_id(self) -> str:
        return self.node.node_id

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self, port: int = 0) -> tuple[str, int]:
        """Bind the spec's host and start serving; returns the bound
        (host, port). Port 0 lets the OS pick."""
        if self._server is not None:
            raise RuntimeError(f"server for {self.node_id!r} already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _ServerConnection(self), self.spec.host, port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if self.admission is not None:
            self._queue = asyncio.Queue()
            self._workers = [
                asyncio.create_task(self._worker())
                for _ in range(self.spec.service_workers)
            ]
        return self.address

    async def stop(self) -> None:
        """Stop accepting, close live connections, wait for handlers, then
        close the replica's WAL (its files stay for a restart)."""
        if self._server is not None:
            self._server.close()
            conns = list(self._conns)
            for conn in conns:
                conn.transport.abort()
            await self._server.wait_closed()
            tasks = self._workers + [conn._task for conn in conns if conn._task is not None]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, *(conn.lost for conn in conns), return_exceptions=True)
            self._workers = []
            self._queue = None
            self._depth = 0
            self._server = None
        if self.node.wal is not None:
            self.node.wal.close()

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    async def _serve(self, request: Request, codec, conn, received: float) -> None:
        """Route one frame: replay/control inline, data plane through
        admission + the worker queue (when admission is configured)."""
        if (
            self.admission is None
            or request.method in CONTROL_METHODS
            or request.msg_id in self._seen
        ):
            await self._execute(request, codec, conn, received)
            return
        if not self.admission.decide(self._depth):
            self.stats.shed += 1
            response = Response.failure(
                request.msg_id, RpcOverloadError(node_id=self.node_id)
            )
            # Deliberately NOT cached: a retry of this id deserves a fresh
            # admission decision, not a replayed "busy".
            conn.reply(codec, response)
            return
        self._depth += 1
        assert self._queue is not None
        self._queue.put_nowait((request, codec, conn, received))

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            request, codec, conn, received = await self._queue.get()
            try:
                await self._execute(request, codec, conn, received)
            finally:
                self._depth -= 1
                self._queue.task_done()

    async def _execute(self, request: Request, codec, conn, received: float) -> None:
        response = self._expired(request, received)
        if response is None:
            if self.fault_injector is not None and request.method not in CONTROL_METHODS:
                slow_s = self.fault_injector.plan_serve(self.node_id)
                if slow_s > 0:
                    await asyncio.sleep(slow_s)  # gray failure: serve, but late
            response = self._dispatch(request)
        conn.reply(codec, response)

    def _expired(self, request: Request, received: float) -> Optional[Response]:
        """The drop reply for work whose deadline expired in queue, else None.

        Expired-in-queue work is dropped, not executed: the client has
        already given up, so serving it only steals capacity from calls
        that can still make their deadlines. Replays are exempt (the
        answer is free) and the wait is measured locally from the frame's
        receipt — deadline_s is a duration, so no clock sync is assumed."""
        if (
            request.deadline_s is None
            or request.msg_id in self._seen
            or time.perf_counter() - received < request.deadline_s
        ):
            return None
        self.stats.deadline_drops += 1
        return Response.failure(
            request.msg_id,
            DeadlineExceededError(
                f"node {self.node_id!r} dropped {request.method!r}: "
                f"deadline ({request.deadline_s:.3f}s) expired in queue"
            ),
        )

    def _dispatch(self, request: Request) -> Response:
        started = time.perf_counter()
        # parent_id is the correlation id == the client call's span id, so
        # this hop nests under the client span in the merged trace.
        with self.tracer.span(
            f"rpc.server.{request.method}", node=self.node_id, parent_id=request.msg_id
        ) if self.tracer.enabled else NO_SPAN as rec:
            response = self._dispatch_inner(request, rec)
        self.handle_latency.observe(time.perf_counter() - started)
        return response

    def _dispatch_inner(self, request: Request, rec) -> Response:
        method = request.method
        self.stats.requests += 1
        op = OPS.get(method)
        if op is not None:  # a peer's junk names add no series; they count in errors
            self.stats.by_method[method] = self.stats.by_method.get(method, 0) + 1
        cached = self._seen.get(request.msg_id)
        if cached is not None:
            self._seen.move_to_end(request.msg_id)
            self.stats.replays += 1
            if rec is not None:
                rec.attrs["replay"] = True
            return cached
        try:
            if op is None:
                raise FrameError(f"unknown method {method!r}")
            params = op.check(request.params, request.blobs)
            result, blobs = op.serve(self, request.blobs, **params)
            response = Response.success(request.msg_id, result, blobs)
        except (KVStoreError, ValueError) as exc:  # the store's typed errors, a bad request
            self.stats.errors += 1
            if rec is not None:
                rec.attrs["error"] = type(exc).__name__
            response = Response.failure(request.msg_id, exc)
        except Exception as exc:  # still exactly one reply, never a dead connection
            self.stats.internal_errors += 1
            if rec is not None:
                rec.attrs["error"] = "InternalError"
            response = Response.failure(
                request.msg_id, InternalError(f"{method!r} failed: {type(exc).__name__}: {exc}")
            )
        if op is not None and op.remembered:
            self._seen[request.msg_id] = response
            while len(self._seen) > IDEMPOTENCY_CAPACITY:
                self._seen.popitem(last=False)
        return response


class _ServerConnection(FrameReader):
    """One client's connection to a :class:`NodeServer`."""

    def __init__(self, server: NodeServer) -> None:
        super().__init__()
        self.server = server
        self._backlog: Optional[asyncio.Queue] = None  # frames for the task
        self._task: Optional[asyncio.Task] = None

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self.server._conns.add(self)
        self.server.stats.connections += 1

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self.server._conns.discard(self)
        if self._task is not None:
            self._task.cancel()

    def frame_received(self, codec, message) -> None:
        request = Request.from_wire(message)
        received = time.perf_counter()
        server = self.server
        if self._task is None and server.admission is None and server.fault_injector is None:
            self.reply(codec, server._expired(request, received) or server._dispatch(request))
            return
        if self._task is None:
            self._backlog = asyncio.Queue()
            self._task = asyncio.get_running_loop().create_task(self._serve_backlog())
        self._backlog.put_nowait((request, codec, received))

    async def _serve_backlog(self) -> None:
        while (item := await self._backlog.get()) is not None:
            request, codec, received = item
            await self.server._serve(request, codec, self, received)
        self.transport.close()

    def frame_error(self, exc: FrameError) -> None:
        self.server.stats.frame_errors += 1  # a protocol violation drops the connection
        self._finish()

    def eof_received(self) -> bool:
        super().eof_received()
        self._finish()
        return True

    def _finish(self) -> None:
        """Close once every frame already read is answered."""
        if self._task is None:
            self.transport.close()
        else:
            self._backlog.put_nowait(None)

    def reply(self, codec, response: Response) -> None:
        if self.transport.is_closing():
            return  # peer went away; its retry will reconnect
        try:
            parts = frame_parts(response.to_wire(), codec, response.blobs)
        except FrameError as exc:
            # The reply is over the frame limit: the caller gets a typed
            # error, not a dead connection.
            parts = frame_parts(Response.failure(response.msg_id, exc).to_wire(), codec)
        write_parts(self.transport, parts)

    # Backpressure: a peer that does not read its replies is not read.
    def pause_writing(self) -> None:
        self._paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._parse()  # frames read before the pause
        if not self._paused:
            self.transport.resume_reading()
