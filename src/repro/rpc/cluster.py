"""Boot a live ring: N node servers + one coordinator store, really on TCP.

:class:`LiveKVCluster` is the deployment unit of the asyncio transport.
It owns a dedicated event loop running in a daemon thread, starts one
:class:`~repro.rpc.server.NodeServer` per ring member on its spec's host
(127.0.0.1 by default; OS-assigned ports), and fronts them with a
:class:`~repro.rpc.remote_store.RemoteKVStore` — so synchronous callers
(``D2Ring``, ``DedupAgent``, tests, the ``repro live`` CLI) drive a real
message-passing cluster without touching asyncio themselves.

Use it as a context manager; :meth:`close` is idempotent and tears down
client connections, servers, and the loop thread in that order.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Iterable, Optional

from repro.kvstore.repair import ReplicaRepairer
from repro.obs.hub import series
from repro.obs.trace import Tracer
from repro.rpc.client import RpcClient
from repro.rpc.faults import FaultInjector
from repro.rpc.remote_store import RemoteKVStore
from repro.rpc.server import NodeServer
from repro.rpc.settings import CallPolicy, NodeSpec


class LiveKVCluster:
    """An asyncio KV cluster on localhost, one TCP server per member.

    Args:
        specs: one :class:`~repro.rpc.settings.NodeSpec` per ring member
            (placement comes from token hashing of the ids, as for the
            in-process store).
        policy: what the client and the coordinator call with
            (:class:`~repro.rpc.settings.CallPolicy`); a positive
            ``heartbeat_interval_s`` also starts a background
            :class:`~repro.rpc.heartbeat.HeartbeatService`.
        strategy: replica-placement override.
        fault_injector: optional :class:`FaultInjector` consulted on every
            message — the chaos hook.
        tracer: optional :class:`~repro.obs.trace.Tracer` shared by the
            client, every node server, and the coordinator store, so one
            batch traces client→coordinator→replica in a single dump.
    """

    def __init__(
        self,
        specs: Iterable[NodeSpec],
        policy: CallPolicy,
        strategy=None,
        fault_injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        specs = list(specs)
        ids = [spec.node_id for spec in specs]
        if not ids:
            raise ValueError("a live cluster needs at least one node")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in {ids!r}")
        self.fault_injector = fault_injector
        self._tracer = tracer
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-rpc-loop", daemon=True
        )
        self._thread.start()
        self._closed = False
        self.servers: dict[str, NodeServer] = {}
        self._killed: set[str] = set()
        self.heartbeats = None
        try:
            addresses: dict[str, tuple[str, int]] = {}

            async def boot() -> None:
                for spec in specs:
                    server = self._make_server(spec)
                    addresses[spec.node_id] = await server.start()
                    self.servers[spec.node_id] = server

            self._run(boot())
            self.client = RpcClient(
                addresses, policy, fault_injector=fault_injector, tracer=tracer
            )
            self.store = RemoteKVStore(
                self.client, self._loop, policy, strategy=strategy, tracer=tracer
            )
            if policy.heartbeat_interval_s > 0:
                from repro.rpc.heartbeat import HeartbeatService

                self.heartbeats = HeartbeatService(
                    self.store, interval_s=policy.heartbeat_interval_s
                )
                self.heartbeats.start()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #

    def _run(self, coro):
        """Run a coroutine on the cluster's loop thread and wait for it."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _make_server(self, spec: NodeSpec) -> NodeServer:
        """One NodeServer from its spec (boot, restart and add share this)."""
        return NodeServer(spec, tracer=self._tracer, fault_injector=self.fault_injector)

    @property
    def node_ids(self) -> list[str]:
        return list(self.servers)

    def server_stats(self) -> dict[str, dict]:
        """Per-node server request counters."""
        return {nid: series(server.stats) for nid, server in self.servers.items()}

    @property
    def wals(self) -> dict:
        """Each running member's write-ahead log (empty without ``data_dir``)."""
        return {
            nid: server.node.wal
            for nid, server in self.servers.items()
            if server.node.wal is not None and nid not in self._killed
        }

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
        server = self._make_server(self.servers[node_id].spec)
        _, port = self.client.addresses[node_id]
        self._run(server.start(port))  # same port: peers need no update
        self.servers[node_id] = server
        self._killed.discard(node_id)
        self.store.mark_up(node_id)
        if repair:
            ReplicaRepairer(self.store).repair_node(node_id)

    # ------------------------------------------------------------------ #
    # live membership (ring-migration support)
    # ------------------------------------------------------------------ #

    def add_node(self, spec: NodeSpec) -> None:
        """Grow the cluster by one member without stopping traffic: boot a
        fresh :class:`NodeServer` from ``spec``, teach the client its
        address, and let the coordinator stream the newcomer's owned key
        ranges over the wire (:meth:`RemoteKVStore.add_node`)."""
        node_id = spec.node_id
        if node_id in self.servers:
            raise ValueError(f"node {node_id!r} is already a member")
        server = self._make_server(spec)
        address = self._run(server.start())
        self.servers[node_id] = server
        try:
            self.store.add_node(node_id, address=address)
        except BaseException:
            # Roll back the half-joined server: membership stays as it was.
            del self.servers[node_id]
            self._run(server.stop())
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
        self._run(self.client.forget_node(node_id))
        self._killed.discard(node_id)

    def close(self) -> None:
        """Tear down heartbeats, client, servers (each closing its WAL), and
        the loop thread. Idempotent."""
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
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()

    def __enter__(self) -> "LiveKVCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
