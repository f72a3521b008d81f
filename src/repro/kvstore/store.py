"""DistributedKVStore: the quorum coordinator over in-process replicas.

The store models a ring's index inside one process: every member's
:class:`~repro.kvstore.replica.Replica` is an object, reached through a
:class:`~repro.kvstore.transport.DirectTransport`. All coordination —
routing, ack counting, hints, recovery repair, the batched client verbs
and the ``StoreStats`` the paper's Eq. 2 split is read from — is
:class:`~repro.kvstore.coordinator.QuorumCoordinator`'s; this class adds
construction, membership bootstrap and the drive. Heartbeat-driven
liveness is a :class:`~repro.kvstore.gossip.HeartbeatMonitor` built over
the store (``HeartbeatMonitor(store, detector)``) and fed on a simulated
clock.

The drive is a single ``coro.send(None)``: the coordinator's core is
``async def`` so it can also run over sockets, but a direct transport never
suspends, so stepping the coroutine once runs it to completion in the
caller — no event loop, no thread, nothing to schedule.
"""

from __future__ import annotations

from typing import Iterable

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.coordinator import QuorumCoordinator, StoreStats  # noqa: F401  (re-export)
from repro.kvstore.replica import Replica
from repro.kvstore.transport import DirectTransport


class DistributedKVStore(QuorumCoordinator):
    """A replicated, partitioned key-value store over in-process nodes.

    Args:
        node_ids: cluster members; order is irrelevant (placement comes from
            token hashing, so the same ids always give the same layout).
        replication_factor, vnodes, default_consistency, strategy: as for
            :class:`~repro.kvstore.coordinator.QuorumCoordinator`.

    ``nodes`` maps each member id to its
    :class:`~repro.kvstore.replica.Replica` (index shard plus chunk shelf).
    """

    def __init__(
        self,
        node_ids: Iterable[str],
        replication_factor: int = 2,
        vnodes: int = 16,
        default_consistency: ConsistencyLevel = ConsistencyLevel.ONE,
        strategy=None,
    ) -> None:
        ids = list(node_ids)
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in {ids!r}")
        replicas = {node_id: Replica(node_id) for node_id in ids}
        super().__init__(
            DirectTransport(replicas),
            replicas,  # one dict: leaving the membership drops the replica
            replication_factor=replication_factor,
            vnodes=vnodes,
            default_consistency=default_consistency,
            strategy=strategy,
        )

    def drive(self, coro):
        try:
            coro.send(None)
        except StopIteration as done:
            return done.value
        coro.close()
        raise RuntimeError(
            "the direct transport suspended; DistributedKVStore has no event loop to resume it"
        )

    # The perf ledger's outside-in tracer attributes this entry point to the
    # "kvstore" layer by patching it on the class that owns it, so it must
    # be an attribute of this class itself, not only inherited.
    put_if_absent_many = QuorumCoordinator.put_if_absent_many

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #

    def add_node(self, node_id: str) -> None:
        """Grow the cluster by one member.

        Keys whose replica set changes are re-streamed to the new owner so
        reads keep finding them (Cassandra's bootstrap streaming).
        """
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already in the cluster")
        self.drive(self._join(node_id, Replica(node_id)))
