"""The asyncio replica transport: replica verbs as framed RPCs.

:class:`AsyncioTransport` implements
:class:`~repro.kvstore.transport.ReplicaTransport` over an
:class:`~repro.rpc.client.RpcClient`: each verb is one call to the member's
:class:`~repro.rpc.server.NodeServer` (timeouts, retries and replay
suppression are the client's), built and read by the verb's
:class:`~repro.rpc.ops.Op`. Scatters are in flight concurrently
(``asyncio.gather``); a payload batch or shelf above ``BLOB_BUDGET_BYTES``
goes as several frames.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Optional

from repro.kvstore.errors import NodeDownError
from repro.kvstore.transport import ReplicaTransport
from repro.rpc.client import RpcClient
from repro.rpc.errors import FrameError, RpcError
from repro.rpc.framing import BLOB_BUDGET_BYTES
from repro.rpc.ops import OPS


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

    async def _call(self, node_id: str, method: str, *args, src=None, blobs=()):
        """``method(*args)`` on ``node_id``, built and read by its op."""
        op = OPS[method]
        reply = await self.client.request(node_id, method, op.params(*args), src=src, blobs=blobs)
        try:
            return op.read(reply.result, reply.blobs)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            raise FrameError(f"malformed {method} reply from {node_id!r}: {exc}") from None

    async def multi_get(self, node_id, keys, src=None):
        return await self._call(node_id, "multi_get", keys, src=src)

    async def multi_put(self, node_id, rows, src=None):
        await self._call(node_id, "multi_put", rows, src=src)

    async def put_chunks(self, node_id, entries):
        start, size = 0, 0
        for end, (_, data) in enumerate(entries):
            if end > start and size + len(data) > BLOB_BUDGET_BYTES:
                await self._put_chunks(node_id, entries[start:end])
                start, size = end, 0
            size += len(data)
        await self._put_chunks(node_id, entries[start:])

    async def _put_chunks(self, node_id: str, entries: list[tuple[str, bytes]]) -> None:
        blobs = tuple(data for _, data in entries)
        await self._call(node_id, "put_chunks", [fp for fp, _ in entries], blobs=blobs)

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
            found, scanned = await self._call(node_id, method, fingerprints)
            if not 0 < scanned <= len(fingerprints):
                raise FrameError(f"{method} reply from {node_id!r} scanned {scanned}")
            if not found.keys() <= set(fingerprints[:scanned]):
                raise FrameError(
                    f"{method} reply from {node_id!r} names a fingerprint "
                    f"outside the {scanned} it scanned"
                )
            out.update(found)
            fingerprints = fingerprints[scanned:]
        return out

    async def delete_chunks(self, node_id, fingerprints):
        return await self._call(node_id, "delete_chunks", fingerprints)

    async def ping(self, node_id):
        return await self._call(node_id, "ping")

    async def set_down(self, node_id, down):
        await self._call(node_id, "set_down", down)

    async def dump(self, node_id):
        return await self._call(node_id, "dump")

    async def key_count(self, node_id):
        return await self._call(node_id, "key_count")

    async def merkle_tree(self, node_id, depth):
        return await self._call(node_id, "merkle_tree", depth)

    async def repair_range(self, node_id, depth, buckets):
        return await self._call(node_id, "repair_range", depth, buckets)

    async def fetch_range(self, node_id, ranges):
        return await self._call(node_id, "fetch_range", ranges)

    async def chunk_keys(self, node_id):
        return await self._call(node_id, "chunk_keys")
