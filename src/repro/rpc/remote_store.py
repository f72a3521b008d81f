"""RemoteKVStore: the quorum coordinator over a live ring's node servers.

Every replica touch is a framed RPC to that member's
:class:`~repro.rpc.server.NodeServer`
(:class:`~repro.rpc.transport.AsyncioTransport`); the coordination itself —
placement, consistency levels, hinted handoff, last-write-wins merges and
the per-round-trip contact accounting in
:class:`~repro.kvstore.coordinator.StoreStats` — is
:class:`~repro.kvstore.coordinator.QuorumCoordinator`'s, the same code that
runs in-process, so ``remote_contacts``/``batch_rounds`` mean the same
thing for a live ring as for a simulated one. A batched check-and-set puts
**one in-flight message per contacted replica** per phase on the wire.

Synchronous facade: the store is driven by ordinary (non-async) callers —
``RingIndex``/``DedupAgent`` work unchanged — and bridges into the cluster's
event-loop thread with ``run_coroutine_threadsafe``, so all coordinator
state is mutated on that one thread. Calling it *from* the loop thread
would deadlock and raises immediately.

One failure mode the in-process store cannot have: a call whose retries run
dry raises :class:`~repro.rpc.errors.RpcTimeoutError` (reads and operator
flows) or counts as a missed ack (writes).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from typing import Iterable, Optional

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.coordinator import QuorumCoordinator
from repro.kvstore.errors import NoSuchNodeError
from repro.obs.trace import Tracer
from repro.rpc.client import RpcClient
from repro.rpc.settings import CallPolicy
from repro.rpc.transport import AsyncioTransport


class RemoteKVStore(QuorumCoordinator):
    """A replicated, partitioned KV store whose replicas live behind RPC.

    Args:
        client: transport to the ring's node servers (addresses define
            membership).
        loop: the event loop (running in its own thread) the client's
            connections belong to.
        policy: the :class:`~repro.rpc.settings.CallPolicy` whose γ,
            vnodes, consistency and hint window the coordinator runs with.
        strategy, tracer: as for
            :class:`~repro.kvstore.coordinator.QuorumCoordinator`.

    ``nodes`` maps each member id to its ``(host, port)`` address.
    """

    def __init__(
        self,
        client: RpcClient,
        loop: asyncio.AbstractEventLoop,
        policy: CallPolicy,
        strategy=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._loop = loop
        super().__init__(
            AsyncioTransport(client),
            dict(client.addresses),
            replication_factor=policy.replication_factor,
            vnodes=policy.vnodes,
            default_consistency=policy.consistency,
            strategy=strategy,
            max_hints_per_node=policy.max_hints_per_node,
            tracer=tracer,
        )

    def drive(self, coro):
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            coro.close()
            raise RuntimeError(
                "RemoteKVStore's synchronous API must not be called from the "
                "transport's own event-loop thread (it would deadlock)"
            )
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # The perf ledger's outside-in tracer attributes these entry points to
    # the "rpc" layer by patching them on the class that owns them, so they
    # must be attributes of this class itself, not only inherited.
    put_if_absent_many = QuorumCoordinator.put_if_absent_many
    scatter_put_chunks = QuorumCoordinator.scatter_put_chunks
    scatter_get_chunks = QuorumCoordinator.scatter_get_chunks
    scatter_delete_chunks = QuorumCoordinator.scatter_delete_chunks
    contains = QuorumCoordinator.contains
    delete = QuorumCoordinator.delete

    def add_node(self, node_id: str, address: Optional[tuple[str, int]] = None) -> None:
        """Grow the live ring by one member whose server is already running.

        The caller (normally :meth:`~repro.rpc.cluster.LiveKVCluster.add_node`)
        boots the :class:`~repro.rpc.server.NodeServer` first and passes its
        ``(host, port)`` here (or registers it on the client beforehand).
        Keys whose replica set now includes the newcomer are streamed to it
        from every reachable peer over ``dump``/``multi_put`` RPCs.
        """
        client = self.transport.client
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already in the cluster")
        if address is not None:
            client.register_node(node_id, *address)
        if node_id not in client.addresses:
            raise NoSuchNodeError(
                f"node {node_id!r} has no address; boot its server and pass "
                "address=(host, port)"
            )
        self.drive(self._join(node_id, client.addresses[node_id]))

    def submit_put_if_absent_many(
        self,
        keys: Iterable[str],
        value: str,
        consistency: Optional[ConsistencyLevel] = None,
        coordinator: Optional[str] = None,
    ) -> "concurrent.futures.Future[list[bool]]":
        """Open-loop submission: schedule the batched check-and-set on the
        transport's loop and return its future *without waiting*.

        This is what a load generator needs to keep an arrival process
        honest — the caller fires batches on its schedule regardless of how
        far behind the cluster is, and each in-flight batch pipelines over
        the client's multiplexed per-node connections. Semantics per batch
        are identical to :meth:`put_if_absent_many`; a call whose retries
        run dry resolves the future with
        :class:`~repro.rpc.errors.RpcTimeoutError`.
        """
        return asyncio.run_coroutine_threadsafe(
            QuorumCoordinator.put_if_absent_many.coro(
                self, list(keys), value, consistency, coordinator
            ),
            self._loop,
        )

    def ping_all(self) -> dict[str, float]:
        """Round-trip every member once; node id → RTT seconds."""

        async def ping_every():
            client = self.transport.client
            rtts = await asyncio.gather(*(client.ping(n) for n in self.nodes))
            return dict(zip(self.nodes, rtts))

        return self.drive(ping_every())
