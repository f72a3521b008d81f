"""Every request gets exactly one reply, even when its handler fails in a
way no verb declares.

A handler exception outside the application errors a verb may raise is
answered as a typed ``InternalError`` failure and counted in
``ServerStats.internal_errors``, served inline or behind admission: the
caller gets one typed reply instead of a dead connection or a timeout, the
connection survives, and calls multiplexed on it still succeed.
"""

import asyncio

import pytest

from repro.rpc import RemoteCallError, Request
from repro.rpc.server import NodeServer
from repro.rpc.settings import NodeSpec

from tests.conftest import live_cluster

ADMISSION = pytest.mark.parametrize("admission_queue", [0, 64], ids=["inline", "admission"])


def _bad_and_good(cluster, bad_method, bad_params):
    """A failing call and a good one, concurrent on one connection."""

    async def both():
        return await asyncio.gather(
            cluster.client.call("n0", bad_method, bad_params),
            cluster.client.call("n0", "multi_get", {"keys": ["a"]}),
            return_exceptions=True,
        )

    return cluster._run(both())


def _assert_one_typed_reply(cluster, bad, good, method, cause, error_type="InternalError"):
    server = cluster.servers["n0"]
    assert isinstance(bad, RemoteCallError), bad
    assert bad.error_type == error_type
    assert cause in bad.remote_message
    assert good == {"entries": {"a": None}}
    assert server.stats.by_method[method] == 1  # executed once, never retried
    internal = error_type == "InternalError"
    assert (server.stats.internal_errors, server.stats.errors) == (internal, not internal)
    assert server.stats.connections == 1
    client = cluster.client.stats
    assert client.retries == client.timeouts == client.connection_errors == 0


@ADMISSION
def test_malformed_request_gets_one_typed_reply(admission_queue):
    with live_cluster(["n0"], codec="json", admission_queue=admission_queue) as cluster:
        bad, good = _bad_and_good(cluster, "merkle_tree", [1])
        cause = "merkle_tree takes ['depth'], got [1]"
        _assert_one_typed_reply(cluster, bad, good, "merkle_tree", cause, "ValueError")


@pytest.mark.expects_internal_errors
@ADMISSION
def test_control_verb_handler_bug_gets_one_typed_reply(admission_queue, monkeypatch):
    """A control verb is served inline with admission on or off."""
    with live_cluster(["n0"], codec="json", admission_queue=admission_queue) as cluster:

        def broken(depth):
            raise AttributeError("'int' object has no attribute 'encode'")

        monkeypatch.setattr(cluster.servers["n0"].node, "merkle_tree", broken)
        bad, good = _bad_and_good(cluster, "merkle_tree", {"depth": 4})
        _assert_one_typed_reply(cluster, bad, good, "merkle_tree", "AttributeError")


@pytest.mark.expects_internal_errors
@ADMISSION
def test_data_plane_handler_bug_gets_one_typed_reply(admission_queue, monkeypatch):
    """A data verb goes through the admission queue's workers when admission
    is on; its failure must reach the caller from there too."""
    with live_cluster(["n0"], codec="json", admission_queue=admission_queue) as cluster:

        def broken(fingerprints, budget):
            raise RuntimeError("shelf index corrupt")

        monkeypatch.setattr(cluster.servers["n0"].node, "get_chunks", broken)
        bad, good = _bad_and_good(cluster, "get_chunks", {"fingerprints": ["fp"]})
        cause = "RuntimeError: shelf index corrupt"
        _assert_one_typed_reply(cluster, bad, good, "get_chunks", cause)


def test_internal_error_of_a_remembered_verb_is_replayed(monkeypatch):
    server = NodeServer(NodeSpec("n0"))
    calls = []

    def broken(entries):
        calls.append(entries)
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(server.node, "put_chunks", broken)
    request = Request("id-1", "put_chunks", {"fingerprints": ["fp"]}, blobs=(b"x",))
    first = server._dispatch(request)
    again = server._dispatch(request)
    assert first is again and not first.ok
    assert first.error == {
        "type": "InternalError",
        "message": "'put_chunks' failed: RuntimeError: disk on fire",
    }
    assert len(calls) == 1
    assert server.stats.internal_errors == 1 and server.stats.replays == 1
    assert server.stats.errors == 0
