"""The replica-transport seam: how a coordinator reaches one replica.

A :class:`ReplicaTransport` carries the verbs of
:class:`~repro.kvstore.replica.Replica` to a member named by id and hands
back typed results (:class:`~repro.kvstore.node.VersionedValue`,
:class:`~repro.kvstore.repair.MerkleTree`, payload bytes). It owns exactly
two decisions the coordinator must not make:

- **scatter concurrency** — :meth:`ReplicaTransport.gather` runs a batch of
  per-replica calls: in flight together on a wire, one after another
  in-process;
- **what a missed ack is** — :attr:`ReplicaTransport.missed_ack` names the
  exceptions that mean "this replica did not confirm", which write paths
  turn into hints and hint replay into a re-buffered tail. Anything else is
  a bug and propagates.

There are two implementations and the coordinator cannot tell them apart:
:class:`DirectTransport` here (method call, no framing, never suspends)
and :class:`~repro.rpc.transport.AsyncioTransport` (framed RPC).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Awaitable, Optional

from repro.kvstore.node import Row, VersionedValue
from repro.kvstore.merkle import MerkleTree
from repro.kvstore.replica import Replica


class ReplicaTransport(ABC):
    """Typed access to replicas by member id. All verbs are coroutines so
    one coordinator serves both transports; ``src`` (the coordinating
    member) only matters to transports that model per-pair links."""

    #: Exceptions that mean a replica did not confirm a call.
    missed_ack: tuple[type[BaseException], ...]

    @abstractmethod
    async def gather(self, *calls: Awaitable, return_exceptions: bool = False) -> list:
        """Run ``calls`` and return their results in order
        (``asyncio.gather`` semantics for ``return_exceptions``)."""

    async def gather_outcomes(self, calls: dict[Any, Awaitable]) -> dict[Any, Any]:
        """Calls by key (a node id, or a message's position): key → its
        result, or the exception when the call was a missed ack. Any other
        exception propagates."""
        outcomes = await self.gather(*calls.values(), return_exceptions=True)
        for outcome in outcomes:
            if isinstance(outcome, BaseException) and not isinstance(
                outcome, self.missed_ack
            ):
                raise outcome
        return dict(zip(calls, outcomes))

    # -- data plane ------------------------------------------------------ #

    @abstractmethod
    async def multi_get(
        self, node_id: str, keys: list[str], src: Optional[str] = None
    ) -> dict[str, Optional[VersionedValue]]: ...

    @abstractmethod
    async def multi_put(
        self, node_id: str, rows: list[Row], src: Optional[str] = None
    ) -> None: ...

    @abstractmethod
    async def put_chunks(self, node_id: str, entries: list[tuple[str, bytes]]) -> None: ...

    @abstractmethod
    async def get_chunks(
        self, node_id: str, fingerprints: list[str]
    ) -> dict[str, Optional[bytes]]:
        """Fingerprint → payload, None when the node holds no copy."""

    @abstractmethod
    async def delete_chunks(
        self, node_id: str, fingerprints: list[str]
    ) -> tuple[int, int]: ...

    # -- control plane (served while the replica is down) ----------------- #

    @abstractmethod
    async def ping(self, node_id: str) -> bool: ...

    @abstractmethod
    async def set_down(self, node_id: str, down: bool) -> None: ...

    @abstractmethod
    async def dump(self, node_id: str) -> dict[str, VersionedValue]: ...

    @abstractmethod
    async def key_count(self, node_id: str) -> int: ...

    @abstractmethod
    async def merkle_tree(self, node_id: str, depth: int) -> MerkleTree: ...

    @abstractmethod
    async def repair_range(
        self, node_id: str, depth: int, buckets: list[int]
    ) -> dict[str, VersionedValue]: ...

    @abstractmethod
    async def fetch_range(
        self, node_id: str, ranges: list[tuple[int, int]]
    ) -> dict[str, VersionedValue]: ...

    @abstractmethod
    async def chunk_keys(self, node_id: str) -> list[str]: ...

    @abstractmethod
    async def chunk_dump(
        self, node_id: str, fingerprints: list[str]
    ) -> dict[str, Optional[bytes]]:
        """:meth:`get_chunks` as an operator read."""


class DirectTransport(ReplicaTransport):
    """Replicas in this process, reached by method call.

    No verb ever suspends, which is what lets
    :class:`~repro.kvstore.store.DistributedKVStore` drive the coordinator's
    coroutines to completion without an event loop.
    """

    # In-process there is no wire to fail: whatever a replica raises, the
    # write did not land there. Hint replay relies on this to re-buffer
    # after any fault.
    missed_ack = (Exception,)

    def __init__(self, replicas: dict[str, Replica]) -> None:
        self.replicas = replicas

    async def gather(self, *calls: Awaitable, return_exceptions: bool = False) -> list:
        results: list = []
        for i, call in enumerate(calls):
            try:
                results.append(await call)
            except Exception as exc:
                if not return_exceptions:
                    for rest in calls[i + 1 :]:
                        rest.close()  # never started: no "never awaited" noise
                    raise
                results.append(exc)
        return results

    async def multi_get(self, node_id, keys, src=None):
        return self.replicas[node_id].multi_get(keys)

    async def multi_put(self, node_id, rows, src=None):
        self.replicas[node_id].multi_put(rows)

    async def put_chunks(self, node_id, entries):
        self.replicas[node_id].put_chunks(entries)

    async def get_chunks(self, node_id, fingerprints):
        found, _ = self.replicas[node_id].get_chunks(fingerprints)
        return {fp: found.get(fp) for fp in fingerprints}

    async def delete_chunks(self, node_id, fingerprints):
        return self.replicas[node_id].delete_chunks(fingerprints)

    async def ping(self, node_id):
        return self.replicas[node_id].is_up

    async def set_down(self, node_id, down):
        self.replicas[node_id].set_down(down)

    async def dump(self, node_id):
        return self.replicas[node_id].dump()

    async def key_count(self, node_id):
        return self.replicas[node_id].key_count()

    async def merkle_tree(self, node_id, depth):
        return self.replicas[node_id].merkle_tree(depth)

    async def repair_range(self, node_id, depth, buckets):
        return self.replicas[node_id].repair_range(depth, buckets)

    async def fetch_range(self, node_id, ranges):
        return self.replicas[node_id].fetch_range(ranges)

    async def chunk_keys(self, node_id):
        return self.replicas[node_id].chunk_keys()

    async def chunk_dump(self, node_id, fingerprints):
        found, _ = self.replicas[node_id].chunk_dump(fingerprints)
        return {fp: found.get(fp) for fp in fingerprints}
