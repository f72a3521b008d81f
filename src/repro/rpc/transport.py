"""The asyncio replica transport: replica verbs as framed RPCs.

:class:`AsyncioTransport` implements
:class:`~repro.kvstore.transport.ReplicaTransport` over an
:class:`~repro.rpc.client.RpcClient`: each verb is one call to the member's
:class:`~repro.rpc.server.NodeServer` (timeouts, retries and replay
suppression are the client's), with the client half of the wire encoding
documented in :mod:`repro.rpc.server`. Scatters are in flight concurrently
(``asyncio.gather``); a payload batch or shelf above ``BLOB_BUDGET_BYTES``
goes as several frames.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Optional

from repro.kvstore.errors import NodeDownError
from repro.kvstore.node import VersionedValue
from repro.kvstore.merkle import MerkleTree
from repro.kvstore.transport import ReplicaTransport
from repro.rpc.client import RpcClient
from repro.rpc.errors import RpcError
from repro.rpc.framing import BLOB_BUDGET_BYTES


def _entry(value, timestamp, tombstone) -> VersionedValue:
    return VersionedValue(value, int(timestamp), bool(tombstone))


class AsyncioTransport(ReplicaTransport):
    """Replicas behind node servers, reached through one ``RpcClient``.
    Every verb must run on the event loop that owns the client."""

    # The wire failed (timeout, dead connection, shed, open breaker), or the
    # replica refused because it marked itself down before this coordinator
    # noticed.
    missed_ack = (RpcError, NodeDownError)

    def __init__(self, client: RpcClient) -> None:
        self.client = client

    async def gather(self, *calls: Awaitable, return_exceptions: bool = False) -> list:
        return await asyncio.gather(*calls, return_exceptions=return_exceptions)

    async def multi_get(self, node_id, keys, src=None):
        result = await self.client.call(node_id, "multi_get", {"keys": keys}, src=src)
        return {
            key: None if wire is None else _entry(*wire)
            for key, wire in result["entries"].items()
        }

    async def multi_put(self, node_id, rows, src=None):
        await self.client.call(node_id, "multi_put", {"entries": rows}, src=src)

    async def put_chunks(self, node_id, entries):
        start, size = 0, 0
        for end, (_, data) in enumerate(entries):
            if end > start and size + len(data) > BLOB_BUDGET_BYTES:
                await self._put_chunks(node_id, entries[start:end])
                start, size = end, 0
            size += len(data)
        await self._put_chunks(node_id, entries[start:])

    async def _put_chunks(self, node_id: str, entries: list[tuple[str, bytes]]) -> None:
        await self.client.call(
            node_id,
            "put_chunks",
            {"fingerprints": [fp for fp, _ in entries]},
            blobs=tuple(data for _, data in entries),
        )

    async def get_chunks(self, node_id, fingerprints):
        return await self._fetch_chunks(node_id, "get_chunks", fingerprints)

    async def chunk_dump(self, node_id, fingerprints):
        return await self._fetch_chunks(node_id, "chunk_dump", fingerprints)

    async def _fetch_chunks(
        self, node_id: str, method: str, fingerprints: list[str]
    ) -> dict[str, Optional[bytes]]:
        """A reply stops at the server's frame budget and says how far down
        the list it got; the rest is asked for again, so one call is the
        rule and a shelf of any size still arrives."""
        out: dict[str, Optional[bytes]] = dict.fromkeys(fingerprints)
        while fingerprints:
            reply = await self.client.request(
                node_id, method, {"fingerprints": fingerprints}
            )
            out.update(zip(reply.result["found"], reply.blobs))
            fingerprints = fingerprints[reply.result["scanned"] :]
        return out

    async def delete_chunks(self, node_id, fingerprints):
        result = await self.client.call(
            node_id, "delete_chunks", {"fingerprints": fingerprints}
        )
        return result["deleted"], result["bytes"]

    async def ping(self, node_id):
        return bool((await self.client.call(node_id, "ping")).get("up", True))

    async def set_down(self, node_id, down):
        await self.client.call(node_id, "set_down", {"down": down})

    async def dump(self, node_id):
        result = await self.client.call(node_id, "dump")
        return {key: _entry(*wire) for key, wire in result["entries"].items()}

    async def key_count(self, node_id):
        return (await self.client.call(node_id, "key_count"))["count"]

    async def merkle_tree(self, node_id, depth):
        result = await self.client.call(node_id, "merkle_tree", {"depth": depth})
        return MerkleTree(int(result["depth"]), tuple(result["leaves"]), result["root"])

    async def repair_range(self, node_id, depth, buckets):
        result = await self.client.call(
            node_id, "repair_range", {"depth": depth, "buckets": buckets}
        )
        return {key: _entry(*wire) for key, *wire in result["entries"]}

    async def fetch_range(self, node_id, ranges):
        result = await self.client.call(
            node_id, "fetch_range", {"ranges": [[str(lo), str(hi)] for lo, hi in ranges]}
        )
        return {key: _entry(*wire) for key, *wire in result["entries"]}

    async def chunk_keys(self, node_id):
        return (await self.client.call(node_id, "chunk_keys"))["fingerprints"]
