"""Per-node RPC server: a StorageNode replica behind a real TCP socket.

Each edge node of a live D2-ring runs one :class:`NodeServer` on
127.0.0.1 (port assigned by the OS). The server speaks the framed
request/response protocol of :mod:`repro.rpc.framing` /
:mod:`repro.rpc.messages` and exposes the *replica-local* operation
surface: every handler is wire decode/encode around one verb of the
member's :class:`~repro.kvstore.replica.Replica` (index shard plus chunk
shelf). Coordination (replica placement, consistency, hint buffering,
last-write-wins merges) stays client-side in the
:class:`~repro.kvstore.coordinator.QuorumCoordinator`.

Two server-side behaviors make retries safe:

- **Idempotency cache.** The responses of the verbs that change the
  replica (``multi_put``, ``put_chunks``, ``delete_chunks``, ``set_down``)
  are remembered per correlation id (bounded LRU). A retried or duplicated
  delivery of one the server already executed returns the *original*
  response instead of re-executing, so a write is never applied twice.
  Every other verb mutates nothing, so a duplicate simply re-executes and
  its reply — payloads, a whole-shard ``dump``, a Merkle tree — is never
  retained.
- **Down-state.** ``set_down(True)`` makes data operations fail with
  ``NodeDownError`` (the process answers, the replica refuses — a crashed
  replica is modeled client-side by the coordinator's aliveness set).
  Control operations (``set_down``, ``dump``, ``stats``) keep working so
  an operator — or a test — can inspect and recover the node.

Overload protection (opt-in via ``NodeSpec.admission_queue``): data-plane
requests flow through a bounded queue drained by worker tasks instead of
being executed inline on the connection loop. At the queue bound the server
*sheds* — answers immediately with a typed ``RpcOverloadError`` instead of
queueing work it cannot serve in time — and work whose end-to-end deadline
expired while queued is *dropped* (``DeadlineExceededError``), not
executed: serving it would burn capacity on an answer nobody is still
waiting for.
Three carve-outs keep the semantics honest:

- control methods (:data:`~repro.rpc.overload.CONTROL_METHODS`) bypass
  admission entirely — a shedding node still answers pings, so the
  phi-accrual detector never confuses *busy* with *dead*;
- replays bypass admission — the cached response costs nothing to return,
  and shedding a retry of already-executed work would make the client
  retry (or fail) an operation the server in fact applied;
- shed responses are **never** cached in the idempotency store: a later
  retry of the same correlation id must get a fresh admission decision,
  not a replayed "busy".

Responses from workers may complete out of submission order; that is safe
(the client matches by correlation id) but concurrent frame writes are
not, so each connection serializes writes behind a lock.

Wire value encoding: a stored entry travels as ``[value, timestamp,
tombstone]``; ``multi_put`` takes ``[key, value, timestamp, tombstone]``
rows. Fingerprints and metadata are strings, so both codecs round-trip
them losslessly. Chunk payloads never enter the codec: ``put_chunks``
names its fingerprints in the params and carries the bytes in the
frame's blob section, and ``get_chunks`` / ``chunk_dump`` answer the same
way (see :mod:`repro.rpc.framing`).
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
from repro.obs.hub import series
from repro.obs.trace import NO_SPAN, NULL_TRACER, Tracer
from repro.rpc.errors import DeadlineExceededError, FrameError, RpcOverloadError
from repro.rpc.faults import FaultInjector
from repro.rpc.framing import BLOB_BUDGET_BYTES, read_frame_codec, write_frame
from repro.rpc.messages import Request, Response
from repro.rpc.overload import CONTROL_METHODS, AdmissionController
from repro.rpc.settings import NodeSpec

# Correlation ids remembered for retry/duplicate suppression.
IDEMPOTENCY_CAPACITY = 4096

# Handlers that take the request's blobs and return ``(result, blobs)``.
_BLOB_METHODS = frozenset({"put_chunks", "get_chunks", "chunk_dump"})

# The verbs whose replay must not re-execute. Every other verb changes
# nothing, so a duplicate re-executes (the answer is as good), whereas
# retaining its reply would pin up to a cache-full of payload batches,
# whole-shard dumps or key lists — more memory than the node that served them.
_REMEMBERED = frozenset({"multi_put", "put_chunks", "delete_chunks", "set_down"})


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
    by_method: dict[str, int] = field(default_factory=dict)


def _entry_to_wire(stored) -> Optional[list]:
    if stored is None:
        return None
    return [stored.value, stored.timestamp, stored.tombstone]


def _rows_to_wire(entries) -> dict:
    return {"entries": [stored.row(key) for key, stored in entries.items()]}


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
        self._conn_tasks: set[asyncio.Task] = set()
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
        self._server = await asyncio.start_server(
            self._handle_connection, self.spec.host, port
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
            await self._server.wait_closed()
            pending = list(self._conn_tasks) + self._workers
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self._workers = []
            self._queue = None
            self._depth = 0
            self._server = None
        if self.node.wal is not None:
            self.node.wal.close()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        # Workers interleave responses from many requests on this stream;
        # the lock keeps each frame write atomic (ordering is irrelevant —
        # the client matches responses by correlation id).
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    frame = await read_frame_codec(reader)
                    if frame is None:
                        break
                    codec, obj = frame
                    request = Request.from_wire(obj)
                except FrameError:
                    self.stats.frame_errors += 1
                    break  # protocol violation: drop the connection
                received = time.perf_counter()
                await self._serve(request, codec, writer, write_lock, received)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve(
        self,
        request: Request,
        codec,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        received: float,
    ) -> None:
        """Route one frame: replay/control inline, data plane through
        admission + the worker queue (when admission is configured)."""
        if (
            self.admission is None
            or request.method in CONTROL_METHODS
            or request.msg_id in self._seen
        ):
            await self._execute(request, codec, writer, write_lock, received)
            return
        if not self.admission.decide(self._depth):
            self.stats.shed += 1
            response = Response.failure(
                request.msg_id, RpcOverloadError(node_id=self.node_id)
            )
            # Deliberately NOT cached: a retry of this id deserves a fresh
            # admission decision, not a replayed "busy".
            await self._write_response(codec, writer, write_lock, response)
            return
        self._depth += 1
        assert self._queue is not None
        self._queue.put_nowait((request, codec, writer, write_lock, received))

    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            request, codec, writer, write_lock, received = await self._queue.get()
            try:
                await self._execute(request, codec, writer, write_lock, received)
            except asyncio.CancelledError:
                raise
            except Exception:
                # A wedged response write must not kill the drain loop.
                pass
            finally:
                self._depth -= 1
                self._queue.task_done()

    async def _execute(
        self,
        request: Request,
        codec,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        received: float,
    ) -> None:
        # Expired-in-queue work is dropped, not executed: the client has
        # already given up, so serving it only steals capacity from calls
        # that can still make their deadlines. Replays are exempt (the
        # answer is free) and the wait is measured locally from the frame's
        # receipt — deadline_s is a duration, so no clock sync is assumed.
        if (
            request.deadline_s is not None
            and request.msg_id not in self._seen
            and time.perf_counter() - received >= request.deadline_s
        ):
            self.stats.deadline_drops += 1
            response = Response.failure(
                request.msg_id,
                DeadlineExceededError(
                    f"node {self.node_id!r} dropped {request.method!r}: "
                    f"deadline ({request.deadline_s:.3f}s) expired in queue"
                ),
            )
            await self._write_response(codec, writer, write_lock, response)
            return
        if self.fault_injector is not None and request.method not in CONTROL_METHODS:
            slow_s = self.fault_injector.plan_serve(self.node_id)
            if slow_s > 0:
                await asyncio.sleep(slow_s)  # gray failure: serve, but late
        response = self._dispatch(request)
        await self._write_response(codec, writer, write_lock, response)

    async def _write_response(
        self,
        codec,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: Response,
    ) -> None:
        try:
            async with write_lock:
                try:
                    await write_frame(writer, response.to_wire(), codec, response.blobs)
                except FrameError as exc:
                    # Nothing was written: the reply is over the frame limit.
                    # The caller gets a typed error, not a dead connection.
                    failure = Response.failure(response.msg_id, exc)
                    await write_frame(writer, failure.to_wire(), codec)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # peer went away; its retry will reconnect

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
        self.stats.by_method[method] = self.stats.by_method.get(method, 0) + 1
        cached = self._seen.get(request.msg_id)
        if cached is not None:
            self._seen.move_to_end(request.msg_id)
            self.stats.replays += 1
            if rec is not None:
                rec.attrs["replay"] = True
            return cached
        handler = self._HANDLERS.get(method)
        try:
            if handler is None:
                raise FrameError(f"unknown method {method!r}")
            if method in _BLOB_METHODS:
                result, blobs = handler(self, request.params, request.blobs)
            else:
                result, blobs = handler(self, request.params), ()
            response = Response.success(request.msg_id, result, blobs)
        except (KVStoreError, ValueError, TypeError, KeyError) as exc:
            self.stats.errors += 1
            if rec is not None:
                rec.attrs["error"] = type(exc).__name__
            response = Response.failure(request.msg_id, exc)
        if method in _REMEMBERED:
            self._seen[request.msg_id] = response
            while len(self._seen) > IDEMPOTENCY_CAPACITY:
                self._seen.popitem(last=False)
        return response

    # ------------------------------------------------------------------ #
    # operations — wire decode/encode around the Replica's verbs
    # ------------------------------------------------------------------ #
    #
    # Data-plane verbs (multi_get, multi_put, put_chunks, get_chunks,
    # delete_chunks) are refused by the replica while it is down; the rest
    # are operator views that keep working, so a down replica can still be
    # inspected, compared and drained.

    def _op_ping(self, params: dict) -> dict:
        return {"node": self.node_id, "up": self.node.is_up}

    def _op_multi_get(self, params: dict) -> dict:
        found = self.node.multi_get(params["keys"])
        return {"entries": {key: _entry_to_wire(stored) for key, stored in found.items()}}

    def _op_multi_put(self, params: dict) -> dict:
        entries = params["entries"]
        self.node.multi_put(
            (key, value, int(timestamp), bool(tombstone))
            for key, value, timestamp, tombstone in entries
        )
        return {"stored": len(entries)}

    def _op_put_chunks(self, params: dict, blobs: tuple) -> tuple[dict, tuple]:
        """``fingerprints`` names the request's blobs, in order. A count
        mismatch stores nothing."""
        fingerprints = params["fingerprints"]
        if len(fingerprints) != len(blobs):
            raise ValueError(
                f"put_chunks names {len(fingerprints)} fingerprints "
                f"but carries {len(blobs)} blobs"
            )
        stored, stored_bytes = self.node.put_chunks(zip(fingerprints, blobs))
        return {"stored": stored, "bytes": stored_bytes}, ()

    def _op_get_chunks(self, params: dict, blobs: tuple) -> tuple[dict, tuple]:
        """``found`` names the reply's blobs, in order. The reply stops
        filling at ``BLOB_BUDGET_BYTES``; ``scanned`` says how many of the
        asked fingerprints it covers, and the caller asks again for the rest."""
        found, scanned = self.node.get_chunks(params["fingerprints"], BLOB_BUDGET_BYTES)
        return {"found": list(found), "scanned": scanned}, tuple(found.values())

    def _op_chunk_dump(self, params: dict, blobs: tuple) -> tuple[dict, tuple]:
        found, scanned = self.node.chunk_dump(params["fingerprints"], BLOB_BUDGET_BYTES)
        return {"found": list(found), "scanned": scanned}, tuple(found.values())

    def _op_delete_chunks(self, params: dict) -> dict:
        deleted, freed = self.node.delete_chunks(params["fingerprints"])
        return {"deleted": deleted, "bytes": freed}

    def _op_chunk_keys(self, params: dict) -> dict:
        return {"fingerprints": self.node.chunk_keys()}

    def _op_set_down(self, params: dict) -> dict:
        self.node.set_down(bool(params["down"]))
        return {"node": self.node_id, "up": self.node.is_up}

    def _op_dump(self, params: dict) -> dict:
        return {
            "entries": {
                key: _entry_to_wire(stored) for key, stored in self.node.dump().items()
            }
        }

    def _op_key_count(self, params: dict) -> dict:
        return {"count": self.node.key_count()}

    def _op_stats(self, params: dict) -> dict:
        return series(self.stats)

    def _op_merkle_tree(self, params: dict) -> dict:
        tree = self.node.merkle_tree(int(params.get("depth", 6)))
        return {"depth": tree.depth, "leaves": list(tree.leaves), "root": tree.root}

    def _op_repair_range(self, params: dict) -> dict:
        return _rows_to_wire(self.node.repair_range(int(params["depth"]), params["buckets"]))

    def _op_fetch_range(self, params: dict) -> dict:
        # Bounds travel as decimal strings: tokens live in [0, 2**127),
        # which overflows msgpack's 64-bit integers.
        return _rows_to_wire(
            self.node.fetch_range((int(lo), int(hi)) for lo, hi in params["ranges"])
        )

    # Every ``_op_<method>`` above serves the wire method of that name.
    _HANDLERS = {name[4:]: op for name, op in vars().items() if name.startswith("_op_")}
