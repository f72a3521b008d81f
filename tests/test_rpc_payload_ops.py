"""Transport tests for the payload ops — ``put_chunks`` / ``get_chunks`` /
``chunk_dump`` over the frame's raw blob section — on a live ring, under
every available codec: shapes, idempotency, faults, deadlines, hostile
frames, and shelves larger than one frame."""

import asyncio
import struct

import pytest

from repro.content import RingContentStore
from repro.rpc import FaultInjector, RetryPolicy
from repro.rpc import client as client_module
from repro.rpc import framing
from repro.rpc.errors import FrameError, RemoteCallError, RpcError
from repro.rpc.framing import (
    BLOB_BUDGET_BYTES,
    MAX_FRAME_BYTES,
    available_codecs,
    encode_frame,
)
from repro.rpc.messages import Request, Response

from tests.conftest import live_cluster

FAST_RETRY = RetryPolicy(attempts=4, base_delay_s=0.005, max_delay_s=0.02, jitter=0.0)
CHUNKS = [(f"fp{i}", bytes([i]) * (500 + 37 * i)) for i in range(12)]
WANTED = [fp for fp, _ in CHUNKS]

codecs = pytest.mark.parametrize("codec", sorted(available_codecs()))


def on_loop(cluster, coro):
    return asyncio.run_coroutine_threadsafe(coro, cluster._loop).result(timeout=30)


def retained_bytes(server) -> int:
    """Payload bytes pinned by the idempotency cache (there must be none)."""
    return sum(len(blob) for response in server._seen.values() for blob in response.blobs)


@codecs
class TestPayloadOps:
    def test_put_then_get_in_the_parents_shape(self, codec):
        with live_cluster(codec=codec) as cluster:
            store = cluster.store
            assert store.scatter_put_chunks({"n0": CHUNKS, "n1": CHUNKS[:3]}) == {
                "n0": None,
                "n1": None,
            }
            assert cluster.servers["n0"].node.chunks == dict(CHUNKS)
            assert cluster.servers["n0"].node.chunk_bytes == sum(len(d) for _, d in CHUNKS)
            got = store.scatter_get_chunks(
                {"n0": WANTED + ["absent"], "n1": WANTED[:4], "n2": ["absent"]}
            )
            assert got["n0"] == {**dict(CHUNKS), "absent": None}
            assert got["n1"] == {**dict(CHUNKS[:3]), "fp3": None}
            assert got["n2"] == {"absent": None}
            assert all(type(d) is bytes for d in got["n0"].values() if d is not None)
            assert store.node_chunk_dump("n1") == dict(CHUNKS[:3])
            assert store.node_chunk_dump("n2") == {}

    def test_unreachable_and_down_nodes_are_misses(self, codec):
        with live_cluster(codec=codec, timeout_s=0.05, retry=FAST_RETRY) as cluster:
            store = cluster.store
            store.scatter_put_chunks({"n0": CHUNKS[:2], "n1": CHUNKS[:2]})
            on_loop(cluster, cluster.servers["n1"].stop())
            store.mark_down("n0")  # the replica refuses; the process answers
            assert store.scatter_get_chunks({"n0": ["fp0"], "n1": ["fp0"]}) == {
                "n0": {},
                "n1": {},
            }
            failures = store.scatter_put_chunks({"n0": CHUNKS[2:3], "n1": CHUNKS[2:3]})
            assert all(isinstance(exc, Exception) for exc in failures.values())
            # Operator flows: a down replica is still dumped, a dead process is {}.
            assert store.node_chunk_dump("n0") == dict(CHUNKS[:2])
            assert store.node_chunk_dump("n1") == {}

    def test_mismatched_counts_store_nothing_and_answer_an_error(self, codec):
        with live_cluster(codec=codec) as cluster:
            for fingerprints, blobs in ((["a", "b"], (b"A",)), (["a"], (b"A", b"B")), (["a"], ())):
                with pytest.raises(RemoteCallError, match="fingerprints") as excinfo:
                    on_loop(
                        cluster,
                        cluster.client.call(
                            "n0", "put_chunks", {"fingerprints": fingerprints}, blobs=blobs
                        ),
                    )
                assert excinfo.value.error_type == "ValueError"
            server = cluster.servers["n0"]
            assert server.node.chunks == {} and server.node.chunk_bytes == 0
            assert server.stats.errors == 3
            # The old {"entries": [[fp, b64], ...]} shape has no handler left.
            with pytest.raises(RemoteCallError):
                on_loop(
                    cluster, cluster.client.call("n0", "put_chunks", {"entries": [["a", "QQ=="]]})
                )
            assert server.node.chunks == {}

    def test_duplicate_put_applies_once_and_seen_keeps_no_payload(self, codec):
        injector = FaultInjector()
        injector.duplicate_requests()
        with live_cluster(codec=codec, fault_injector=injector) as cluster:
            store = cluster.store
            assert store.scatter_put_chunks({"n0": CHUNKS}) == {"n0": None}
            server = cluster.servers["n0"]
            assert server.node.chunks == dict(CHUNKS)
            assert server.node.chunk_bytes == sum(len(d) for _, d in CHUNKS)
            executed = server.stats.by_method["put_chunks"] - server.stats.replays
            assert executed == 1  # delivered twice, applied once
            assert server.stats.replays >= 1
            # Reads under duplication re-execute; neither they nor the
            # replayed write leave payload bytes in the idempotency cache.
            assert store.scatter_get_chunks({"n0": WANTED})["n0"] == dict(CHUNKS)
            assert store.node_chunk_dump("n0") == dict(CHUNKS)
            assert retained_bytes(server) == 0
            assert all(response.blobs == () for response in server._seen.values())

    def test_round_trips_with_a_deadline_re_encoded_per_attempt(self, codec):
        injector = FaultInjector()
        injector.drop_requests(times=2)
        with live_cluster(
            codec=codec, fault_injector=injector, deadline_s=5.0, timeout_s=0.05,
            retry=FAST_RETRY,
        ) as cluster:
            store = cluster.store
            assert store.scatter_put_chunks({"n0": CHUNKS}) == {"n0": None}
            assert store.scatter_get_chunks({"n0": WANTED})["n0"] == dict(CHUNKS)
            assert cluster.client.stats.retries >= 2
            assert cluster.servers["n0"].node.chunks == dict(CHUNKS)

    def test_round_trips_under_drop_first_retries(self, codec):
        injector = FaultInjector()
        injector.drop_requests(times=2)
        injector.drop_responses(dst="n0", times=1)
        with live_cluster(
            codec=codec, fault_injector=injector, timeout_s=0.05, retry=FAST_RETRY
        ) as cluster:
            store = cluster.store
            assert store.scatter_put_chunks({"n0": CHUNKS}) == {"n0": None}
            assert store.scatter_get_chunks({"n0": WANTED})["n0"] == dict(CHUNKS)
            assert store.node_chunk_dump("n0") == dict(CHUNKS)
            assert cluster.client.stats.retries >= 3
            assert cluster.client.stats.failed_calls == 0
            assert retained_bytes(cluster.servers["n0"]) == 0


class TestHostileFramesAtTheServer:
    """Each violation drops that connection and is counted — it does not
    vanish, and it does not take the server down."""

    @staticmethod
    async def _send(address, data: bytes):
        reader, writer = await asyncio.open_connection(*address)
        writer.write(data)
        await writer.drain()
        writer.write_eof()
        try:
            return await reader.read()  # b"" once the server hangs up
        finally:
            writer.close()

    def test_violations_are_counted_and_only_cost_their_connection(self):
        ping = encode_frame(Request("h-1", "ping").to_wire())
        put = encode_frame(
            Request("h-2", "put_chunks", {"fingerprints": ["a"]}).to_wire(), blobs=[b"abc"]
        )
        hostile = [
            put[:-1],  # cut mid-section
            put[:7],  # cut mid-header
            put[:4] + bytes([0x80 | 99]) + put[5:],  # blob flag, unknown codec
            put[:5] + struct.pack(">I", 10_000) + put[9:],  # header overruns
            put.replace(b'"blobs":[3]', b'"blobs":[9]'),  # lengths do not add up
            struct.pack(">I", MAX_FRAME_BYTES + 1) + b"\x80",  # oversize
            struct.pack(">I", 4) + b"\x00{{{{",  # undecodable payload
            encode_frame({"kind": "resp", "id": "x"}),  # not a request
        ]
        with live_cluster(codec="json") as cluster:
            server = cluster.servers["n0"]
            for n, data in enumerate(hostile, 1):
                assert on_loop(cluster, self._send(server.address, ping + data)) == encode_frame(
                    Response.success("h-1", {"node": "n0", "up": True}).to_wire()
                )
                assert server.stats.frame_errors == n
            assert server.node.chunks == {}
            assert on_loop(cluster, self._send(server.address, b"")) == b""  # clean EOF
            assert server.stats.frame_errors == len(hostile)
            assert cluster.server_stats()["n0"]["frame_errors"] == len(hostile)
            # The control-plane op answers the same bare names.
            wire = on_loop(cluster, cluster.client.call("n0", "stats"))
            assert wire["frame_errors"] == len(hostile) and "by_method" in wire
            assert cluster.store.scatter_put_chunks({"n0": CHUNKS[:1]}) == {"n0": None}

    def test_unframeable_reply_is_a_typed_error_not_a_dead_connection(self, monkeypatch):
        """A reply the server cannot frame used to raise inside the
        connection task: the client burned every attempt on silence."""
        with live_cluster(timeout_s=5.0) as cluster:
            store = cluster.store
            store.put("k", "v" * 4096)
            monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 2048)
            for node_id in store.replicas_for("k"):
                with pytest.raises(RemoteCallError, match="exceeds limit") as excinfo:
                    on_loop(cluster, cluster.client.call(node_id, "dump"))
                assert excinfo.value.error_type == "FrameError"
            monkeypatch.undo()
            assert cluster.client.stats.retries == 0
            assert cluster.client.stats.connection_errors == 0
            assert store.get("k") == "v" * 4096  # same connections, still serving


class TestShelvesLargerThanAFrame:
    def test_seventy_mib_shelf_is_rehomed_and_drained_completely(self, monkeypatch):
        """Regression (PR 13 and earlier): a shelf past the frame limit
        could not be dumped, so rehoming, draining and the migration
        payload carry silently moved nothing."""
        frame_sizes = []
        real_parts = framing.frame_parts

        def recording_parts(obj, codec=framing.JsonCodec, blobs=()):
            parts = real_parts(obj, codec, blobs)
            frame_sizes.append(sum(len(part) for part in parts))
            return parts

        monkeypatch.setattr(framing, "frame_parts", recording_parts)
        monkeypatch.setattr(client_module, "frame_parts", recording_parts)
        blob_bytes = 10 * 1024 * 1024
        blobs = {f"big{i}": bytes([i + 1]) * blob_bytes for i in range(7)}  # 70 MiB
        with live_cluster(replication_factor=1, timeout_s=10.0) as cluster:
            store = cluster.store
            content = RingContentStore("ring-0", store, batch_size=64)
            assert store.scatter_put_chunks({"n0": list(blobs.items())}) == {"n0": None}
            server = cluster.servers["n0"]
            assert server.node.chunk_bytes == 7 * blob_bytes > MAX_FRAME_BYTES
            store.mark_down("n0")  # a refusing replica is still dumped
            drained = content.drain_by_member()
            assert set(drained["n0"]) == set(blobs)
            assert all(drained["n0"][fp] == data for fp, data in blobs.items())
            assert drained["n1"] == drained["n2"] == {}
            del drained
            assert content.rehome_member("n0") == len(blobs)
            assert content.stats.rehomed_chunks == len(blobs)
            for node_id in ("n1", "n2"):
                shelf = cluster.servers[node_id].node.chunks
                for fingerprint, data in shelf.items():
                    assert data == blobs[fingerprint]
            moved = set(cluster.servers["n1"].node.chunks) | set(cluster.servers["n2"].node.chunks)
            assert moved == set(blobs)
            assert cluster.client.stats.failed_calls == 0
            assert cluster.client.stats.retries == 0
            assert server.stats.frame_errors == 0
        assert max(frame_sizes) <= BLOB_BUDGET_BYTES + 4096 < MAX_FRAME_BYTES
        assert sum(size > blob_bytes for size in frame_sizes) >= 14  # paged both ways

    def test_get_chunks_past_the_budget_is_paged_not_refused(self, monkeypatch):
        from repro.rpc import server as server_module

        monkeypatch.setattr(server_module, "BLOB_BUDGET_BYTES", 4096)
        with live_cluster() as cluster:
            store = cluster.store
            chunks = [(f"p{i}", bytes([i]) * 1500) for i in range(10)]
            lone = ("lone", b"L" * 9000)  # over the budget on its own: travels alone
            store.scatter_put_chunks({"n0": chunks + [lone]})
            wanted = ["absent-first"] + [fp for fp, _ in chunks] + ["lone", "absent-last"]
            before = cluster.client.stats.by_method.get("get_chunks", 0)
            got = store.scatter_get_chunks({"n0": wanted})["n0"]
            assert got == {**dict(chunks), **dict([lone]), "absent-first": None, "absent-last": None}
            assert list(got) == wanted  # the asked order survives paging
            assert cluster.client.stats.by_method["get_chunks"] - before == 6
            assert store.node_chunk_dump("n0") == dict(chunks + [lone])

    def test_put_batches_split_at_the_budget(self, monkeypatch):
        from repro.rpc import transport as transport_module

        monkeypatch.setattr(transport_module, "BLOB_BUDGET_BYTES", 4096)
        with live_cluster() as cluster:
            store = cluster.store
            chunks = [(f"p{i}", bytes([i]) * 1500) for i in range(5)] + [("lone", b"L" * 9000)]
            assert store.scatter_put_chunks({"n0": chunks, "n1": chunks[:2]}) == {
                "n0": None,
                "n1": None,
            }
            assert cluster.servers["n0"].node.chunks == dict(chunks)
            by_method = {n: s.stats.by_method["put_chunks"] for n, s in cluster.servers.items() if s.node.chunks}
            assert by_method == {"n0": 4, "n1": 1}  # [p0 p1] [p2 p3] [p4] [lone]; one as ever

    def test_a_blob_that_fits_no_frame_fails_that_node_only(self):
        with live_cluster() as cluster:
            failures = cluster.store.scatter_put_chunks(
                {"n0": [("huge", bytes(MAX_FRAME_BYTES))], "n1": CHUNKS[:1]}
            )
            assert isinstance(failures["n0"], FrameError) and isinstance(failures["n0"], RpcError)
            assert failures["n1"] is None
            assert cluster.servers["n0"].node.chunks == {}


def test_request_returns_the_replys_blobs_and_call_its_result():
    with live_cluster() as cluster:
        cluster.store.scatter_put_chunks({"n0": CHUNKS[:2]})
        params = {"fingerprints": ["fp1", "nope", "fp0"]}
        reply = on_loop(cluster, cluster.client.request("n0", "get_chunks", params))
        assert isinstance(reply, Response) and reply.ok
        assert reply.result == {"found": ["fp1", "fp0"], "scanned": 3}
        assert reply.blobs == (CHUNKS[1][1], CHUNKS[0][1])
        assert on_loop(cluster, cluster.client.call("n0", "get_chunks", params)) == reply.result
