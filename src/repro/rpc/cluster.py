"""Boot a live ring: N node servers + one coordinator store, really on TCP.

:class:`LiveKVCluster` is the deployment unit of the asyncio transport.
It owns a dedicated event loop running in a daemon thread, starts one
:class:`~repro.rpc.server.NodeServer` per ring member on 127.0.0.1
(OS-assigned ports), and fronts them with a
:class:`~repro.rpc.remote_store.RemoteKVStore` — so synchronous callers
(``D2Ring``, ``DedupAgent``, tests, the ``repro live`` CLI) drive a real
message-passing cluster without touching asyncio themselves.

Use it as a context manager; :meth:`close` is idempotent and tears down
client connections, servers, and the loop thread in that order.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.gossip import PhiAccrualDetector
from repro.kvstore.repair import ReplicaRepairer
from repro.kvstore.replica import Replica
from repro.kvstore.wal import WriteAheadLog
from repro.obs.hub import series
from repro.obs.trace import Tracer
from repro.rpc.client import RpcClient
from repro.rpc.faults import FaultInjector
from repro.rpc.overload import AdmissionController, BreakerBoard, RetryBudget
from repro.rpc.remote_store import RemoteKVStore
from repro.rpc.retry import RetryPolicy
from repro.rpc.server import NodeServer


class LiveKVCluster:
    """An asyncio KV cluster on localhost, one TCP server per member.

    Args:
        node_ids: ring members (placement comes from token hashing, as for
            the in-process store).
        replication_factor: γ — copies of each key.
        vnodes: virtual nodes per member.
        default_consistency: store-level default consistency.
        strategy: replica-placement override.
        codec: wire codec name (default: msgpack if available, else json).
        timeout_s: per-attempt RPC timeout.
        retry: retry schedule (default :class:`RetryPolicy`()).
        fault_injector: optional :class:`FaultInjector` consulted on every
            message — the chaos hook.
        max_hints_per_node: hinted-handoff window per down replica.
        seed: seeds retry jitter.
        host: bind address for the node servers.
        tracer: optional :class:`~repro.obs.trace.Tracer` shared by the
            client, every node server, and the coordinator store, so one
            batch traces client→coordinator→replica in a single dump.
        data_dir: when given, each node keeps a
            :class:`~repro.kvstore.wal.WriteAheadLog` under this directory,
            so a :meth:`kill_node`/:meth:`restart_node` cycle restores the
            shard from disk instead of restarting empty.
        snapshot_every: WAL snapshot cadence (ignored without ``data_dir``).
        heartbeat_interval_s: when > 0, a background
            :class:`~repro.rpc.heartbeat.HeartbeatService` pings every
            member at this period and flips coordinator up/down state via
            the phi-accrual detector. 0 disables the prober.
        heartbeat_detector: optional detector override for the prober
            (e.g. a lower threshold in tests).
        deadline_s: default end-to-end deadline budget per data-plane call
            (None = unbounded). Carried on the wire; servers drop work
            whose budget expired in queue.
        admission_queue: when > 0, each node server runs a bounded request
            queue of this size with load shedding (``RpcOverloadError``)
            past the :class:`~repro.rpc.overload.AdmissionController`
            default of three quarters of it. 0 = legacy inline serve.
        service_workers: queue-draining tasks per node (with admission).
        breaker_failures: consecutive transport failures per (src, dst)
            pair before the client's circuit breaker opens. 0 = disabled.
        breaker_cooldown_s: open-state cooldown before a half-open probe.
        retry_budget: token-bucket capacity bounding retry amplification
            across concurrent calls. 0 = disabled.
    """

    def __init__(
        self,
        node_ids: Iterable[str],
        replication_factor: int = 2,
        vnodes: int = 16,
        default_consistency: ConsistencyLevel = ConsistencyLevel.ONE,
        strategy=None,
        codec: Optional[str] = None,
        timeout_s: float = 0.25,
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        max_hints_per_node: int = 100_000,
        seed: int = 0,
        host: str = "127.0.0.1",
        tracer: Optional[Tracer] = None,
        data_dir: Optional[Union[str, Path]] = None,
        snapshot_every: int = 1024,
        heartbeat_interval_s: float = 0.0,
        heartbeat_detector: Optional[PhiAccrualDetector] = None,
        deadline_s: Optional[float] = None,
        admission_queue: int = 0,
        service_workers: int = 1,
        breaker_failures: int = 0,
        breaker_cooldown_s: float = 0.25,
        retry_budget: float = 0.0,
    ) -> None:
        ids = list(node_ids)
        if not ids:
            raise ValueError("a live cluster needs at least one node")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in {ids!r}")
        if heartbeat_interval_s < 0:
            raise ValueError(
                f"heartbeat_interval_s must be >= 0, got {heartbeat_interval_s!r}"
            )
        if admission_queue < 0:
            raise ValueError(f"admission_queue must be >= 0, got {admission_queue!r}")
        self.fault_injector = fault_injector
        self._codec = codec
        self._tracer = tracer
        self._seed = seed
        self._admission_queue = int(admission_queue)
        self._service_workers = int(service_workers)
        self.breakers = (
            BreakerBoard(breaker_failures, breaker_cooldown_s)
            if breaker_failures > 0
            else None
        )
        self.retry_budget = RetryBudget(retry_budget) if retry_budget > 0 else None
        self._data_dir = Path(data_dir) if data_dir is not None else None
        self._snapshot_every = snapshot_every
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-rpc-loop", daemon=True
        )
        self._thread.start()
        self._closed = False
        self.servers: dict[str, NodeServer] = {}
        self.wals: dict[str, WriteAheadLog] = {}
        self._killed: set[str] = set()
        self.heartbeats = None
        try:
            addresses: dict[str, tuple[str, int]] = {}

            async def boot() -> None:
                for node_id in ids:
                    server = self._make_server(node_id)
                    addresses[node_id] = await server.start(host)
                    self.servers[node_id] = server

            self._run(boot())
            self.client = RpcClient(
                addresses,
                codec=codec,
                timeout_s=timeout_s,
                retry=retry,
                fault_injector=fault_injector,
                seed=seed,
                tracer=tracer,
                deadline_s=deadline_s,
                breakers=self.breakers,
                retry_budget=self.retry_budget,
            )
            self.store = RemoteKVStore(
                client=self.client,
                loop=self._loop,
                replication_factor=replication_factor,
                vnodes=vnodes,
                default_consistency=default_consistency,
                strategy=strategy,
                max_hints_per_node=max_hints_per_node,
                tracer=tracer,
            )
            if heartbeat_interval_s > 0:
                from repro.rpc.heartbeat import HeartbeatService

                self.heartbeats = HeartbeatService(
                    self.store,
                    interval_s=heartbeat_interval_s,
                    detector=heartbeat_detector,
                )
                self.heartbeats.start()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #

    def _run(self, coro):
        """Run a coroutine on the cluster's loop thread and wait for it."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _make_server(self, node_id: str) -> NodeServer:
        """One NodeServer, configured like every other member (all four
        construction sites — boot, restart, add — share this)."""
        admission = None
        if self._admission_queue > 0:
            # Per-node seed derived without str(hash): crc32 is stable
            # across processes, so chaos runs replay identical shedding.
            import zlib

            admission = AdmissionController(
                max_queue=self._admission_queue,
                seed=self._seed * 1_000_003 + zlib.crc32(node_id.encode()),
            )
        return NodeServer(
            node=Replica(node_id, wal=self._open_wal(node_id)),
            codec=self._codec,
            tracer=self._tracer,
            admission=admission,
            service_workers=self._service_workers,
            fault_injector=self.fault_injector,
        )

    def _open_wal(self, node_id: str) -> Optional[WriteAheadLog]:
        if self._data_dir is None:
            return None
        wal = WriteAheadLog(
            self._data_dir, node_id, snapshot_every=self._snapshot_every
        )
        self.wals[node_id] = wal
        return wal

    @property
    def node_ids(self) -> list[str]:
        return list(self.servers)

    def server_stats(self) -> dict[str, dict]:
        """Per-node server request counters."""
        return {nid: series(server.stats) for nid, server in self.servers.items()}

    def wal_stats(self) -> dict[str, dict]:
        """Per-node durability counters (empty without ``data_dir``)."""
        return {nid: series(wal.stats) for nid, wal in self.wals.items()}

    # ------------------------------------------------------------------ #
    # crash-restart lifecycle
    # ------------------------------------------------------------------ #

    def kill_node(self, node_id: str, mark_down: bool = True) -> None:
        """Crash one member: stop its server and discard its in-memory
        shard and chunk shelf (the coordinator's shelf directory forgets
        the member's copies). With ``data_dir`` the durable part (WAL +
        snapshot) stays on disk; without it the node will restart empty.

        By default the coordinator marks the node down immediately (writes
        become hints). Pass ``mark_down=False`` to leave detection to the
        heartbeat service — the realistic path, where the ring only learns
        of the crash from missed heartbeats.
        """
        if node_id not in self.servers:
            raise KeyError(f"unknown node {node_id!r}")
        if node_id in self._killed:
            return
        self._killed.add(node_id)
        self._run(self.servers[node_id].stop())
        wal = self.wals.pop(node_id, None)
        if wal is not None:
            wal.close()
        self.store.forget_shelf(node_id)
        if mark_down:
            self.store.mark_down(node_id)

    def restart_node(self, node_id: str, repair: bool = True) -> None:
        """Bring a killed member back on its original address.

        The shard is rebuilt from the node's WAL (empty without one), the
        coordinator marks it up — which replays buffered hints and runs the
        recovery read-repair pass — and, with ``repair=True``, a Merkle
        anti-entropy pass catches up whatever the hint window dropped.
        """
        if node_id not in self.servers:
            raise KeyError(f"unknown node {node_id!r}")
        if node_id not in self._killed:
            raise RuntimeError(f"node {node_id!r} is not killed")
        server = self._make_server(node_id)
        host, port = self.client.addresses[node_id]
        self._run(server.start(host, port))  # same port: peers need no update
        self.servers[node_id] = server
        self._killed.discard(node_id)
        self.store.mark_up(node_id)
        if repair:
            ReplicaRepairer(self.store).repair_node(node_id)

    # ------------------------------------------------------------------ #
    # live membership (ring-migration support)
    # ------------------------------------------------------------------ #

    def add_node(self, node_id: str, host: str = "127.0.0.1") -> None:
        """Grow the cluster by one member without stopping traffic: boot a
        fresh :class:`NodeServer`, teach the client its address, and let the
        coordinator stream the newcomer's owned key ranges over the wire
        (:meth:`RemoteKVStore.add_node`)."""
        if node_id in self.servers:
            raise ValueError(f"node {node_id!r} is already a member")
        server = self._make_server(node_id)
        address = self._run(server.start(host))
        self.servers[node_id] = server
        try:
            self.store.add_node(node_id, address=address)
        except BaseException:
            # Roll back the half-joined server: membership stays as it was.
            del self.servers[node_id]
            self._run(server.stop())
            wal = self.wals.pop(node_id, None)
            if wal is not None:
                wal.close()
            self._run(self.client.forget_node(node_id))
            raise

    def remove_node(self, node_id: str) -> None:
        """Decommission a member: the coordinator re-streams its shard to
        the surviving replica sets, then its server stops and the client
        forgets the address."""
        if node_id not in self.servers:
            raise KeyError(f"unknown node {node_id!r}")
        self.store.remove_node(node_id)
        server = self.servers.pop(node_id)
        self._run(server.stop())
        wal = self.wals.pop(node_id, None)
        if wal is not None:
            wal.close()
        self._run(self.client.forget_node(node_id))
        self._killed.discard(node_id)

    def close(self) -> None:
        """Tear down heartbeats, client, servers, WALs, and the loop
        thread. Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            if self.heartbeats is not None:
                self.heartbeats.stop()
            if hasattr(self, "client"):
                self._run(self.client.close())

            async def stop_servers() -> None:
                for server in self.servers.values():
                    await server.stop()

            self._run(stop_servers())
            for wal in self.wals.values():
                wal.close()
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()

    def __enter__(self) -> "LiveKVCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
