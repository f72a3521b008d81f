"""The asyncio replica transport: replica verbs as framed RPCs.

:class:`AsyncioTransport` implements
:class:`~repro.kvstore.transport.ReplicaTransport`'s one ``call`` over an
:class:`~repro.rpc.client.RpcClient`: each verb is one request to the
member's :class:`~repro.rpc.server.NodeServer` (timeouts, retries and
replay suppression are the client's), built and read by the verb's
:class:`~repro.rpc.ops.Op`. Scatters are in flight concurrently
(``asyncio.gather``). Only the payload verbs are overridden: a batch or
shelf above ``BLOB_BUDGET_BYTES`` goes as several frames.
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

    async def call(self, node_id: str, method: str, *args, src=None, blobs=()):
        """``method(*args)`` on ``node_id``, built and read by its op."""
        op = OPS[method]
        reply = await self.client.request(node_id, method, op.params(*args), src=src, blobs=blobs)
        try:
            return op.read(reply.result, reply.blobs)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            raise FrameError(f"malformed {method} reply from {node_id!r}: {exc}") from None

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
        await self.call(node_id, "put_chunks", [fp for fp, _ in entries], blobs=blobs)

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
            found, scanned = await self.call(node_id, method, fingerprints)
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
