"""The replica-transport seam: how a coordinator reaches one replica.

A :class:`ReplicaTransport` carries the verbs of
:class:`~repro.kvstore.replica.Replica` to a member named by id and hands
back typed results (:data:`~repro.kvstore.node.Entry` tuples,
:class:`~repro.kvstore.repair.MerkleTree`, payload bytes). A transport
implements one dispatch, :meth:`ReplicaTransport.call`; the typed verbs are
one-liners over it on the base, overridden only where a transport does more
than dispatch. It owns exactly two decisions the coordinator must not make:

- **scatter concurrency** — :meth:`ReplicaTransport.gather` runs a batch of
  per-replica calls: in flight together on a wire, one after another
  in-process;
- **what a missed ack is** — :attr:`ReplicaTransport.missed_ack` names the
  exceptions that mean "this replica did not confirm", which write paths
  turn into hints and hint replay into a re-buffered tail. Anything else is
  a bug and propagates.

There are two implementations and the coordinator cannot tell them apart:
:class:`DirectTransport` here (method call by name, no framing, never
suspends) and :class:`~repro.rpc.transport.AsyncioTransport` (framed RPC).
Patching ``call`` injects a fault into every verb; patching one typed verb
injects it into that verb alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Awaitable, Optional

from repro.kvstore.node import Entry, Row
from repro.kvstore.merkle import MerkleTree
from repro.kvstore.replica import Replica

_Shard = dict[str, Entry]
_Payloads = dict[str, Optional[bytes]]


class ReplicaTransport(ABC):
    """Typed access to replicas by member id. All verbs are awaitable so
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

    @abstractmethod
    async def call(self, node_id: str, method: str, *args, src: Optional[str] = None) -> Any:
        """``Replica.<method>(*args)`` on ``node_id``, as typed values."""

    @abstractmethod
    async def get_chunks(self, node_id: str, fingerprints: list[str]) -> _Payloads:
        """Fingerprint → payload, None when the node holds no copy."""

    @abstractmethod
    async def chunk_dump(self, node_id: str, fingerprints: list[str]) -> _Payloads:
        """:meth:`get_chunks` as an operator read."""

    # -- data plane ------------------------------------------------------ #
    # A write answers None: callers read any other outcome as a missed ack.
    # A read returns call's awaitable, so it adds no coroutine of its own.

    def multi_get(
        self, node_id: str, keys: list[str], src: Optional[str] = None
    ) -> Awaitable[dict[str, Optional[Entry]]]:
        return self.call(node_id, "multi_get", keys, src=src)

    async def multi_put(self, node_id: str, rows: list[Row], src: Optional[str] = None) -> None:
        await self.call(node_id, "multi_put", rows, src=src)

    async def put_chunks(self, node_id: str, entries: list[tuple[str, bytes]]) -> None:
        await self.call(node_id, "put_chunks", entries)

    def delete_chunks(self, node_id: str, fingerprints: list[str]) -> Awaitable[tuple[int, int]]:
        return self.call(node_id, "delete_chunks", fingerprints)

    # -- control plane (served while the replica is down) ----------------- #

    def ping(self, node_id: str) -> Awaitable[bool]:
        return self.call(node_id, "ping")

    async def set_down(self, node_id: str, down: bool) -> None:
        await self.call(node_id, "set_down", down)

    def dump(self, node_id: str) -> Awaitable[_Shard]:
        return self.call(node_id, "dump")

    def key_count(self, node_id: str) -> Awaitable[int]:
        return self.call(node_id, "key_count")

    def merkle_tree(self, node_id: str, depth: int) -> Awaitable[MerkleTree]:
        return self.call(node_id, "merkle_tree", depth)

    def repair_range(self, node_id: str, depth: int, buckets: list[int]) -> Awaitable[_Shard]:
        return self.call(node_id, "repair_range", depth, buckets)

    def fetch_range(self, node_id: str, ranges: list[tuple[int, int]]) -> Awaitable[_Shard]:
        return self.call(node_id, "fetch_range", ranges)

    def chunk_keys(self, node_id: str) -> Awaitable[list[str]]:
        return self.call(node_id, "chunk_keys")


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

    async def call(self, node_id, method, *args, src=None):
        return getattr(self.replicas[node_id], method)(*args)

    async def get_chunks(self, node_id, fingerprints):
        found, _ = await self.call(node_id, "get_chunks", fingerprints)
        return {fp: found.get(fp) for fp in fingerprints}

    async def chunk_dump(self, node_id, fingerprints):
        found, _ = await self.call(node_id, "chunk_dump", fingerprints)
        return {fp: found.get(fp) for fp in fingerprints}
