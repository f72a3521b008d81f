"""The replica verbs' one declaration (``repro.rpc.ops.OPS``) against
hostile peers: every request is checked in full before anything is
applied, a bad one is answered as a typed ``ValueError`` and changes
nothing, a malformed envelope costs only its connection (counted), and the
op table in ``docs/architecture.md`` is the one ``OPS`` renders.

Regenerate the doc table with ``PYTHONPATH=src:. python tests/test_rpc_ops.py``.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import string
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kvstore.errors import KVStoreError
from repro.kvstore.replica import Replica
from repro.rpc import ops
from repro.rpc.client import RpcClient
from repro.rpc.errors import FrameError, RpcConnectionError, RpcError
from repro.rpc.framing import available_codecs, decode_frame, encode_frame, get_codec
from repro.rpc.messages import Request, Response
from repro.rpc.ops import OPS
from repro.rpc.retry import RetryPolicy
from repro.rpc.server import NodeServer
from repro.rpc.settings import CallPolicy, NodeSpec
from repro.rpc.transport import AsyncioTransport

from tests.conftest import Frames, live_cluster

DOC = Path(__file__).resolve().parents[1] / "docs" / "architecture.md"
ROW = ["k", "v", 1, False]
# One well-typed value per field name.
SAMPLE = {"keys": ["k"], "fingerprints": ["fp"], "entries": [ROW], "down": False,
          "depth": 2, "buckets": [0], "ranges": [["0", "1"]]}


MSG_IDS = (f"r-{n}" for n in itertools.count())


def serve(server, method, params, blobs=()):
    return server._dispatch(Request(next(MSG_IDS), method, params, blobs=blobs))


def state(server):
    node = server.node
    return dict(node.dump()), dict(node.chunks), node.is_up, node.merkle_tree(4).root


@pytest.fixture
def server(tmp_path):
    server = NodeServer(NodeSpec("n0", data_dir=str(tmp_path)))
    assert serve(server, "multi_put", {"entries": [ROW]}).ok
    assert serve(server, "put_chunks", {"fingerprints": ["a"]}, (b"A",)).ok
    yield server
    server.node.wal.close()


# -- one regression per probe that used to be acknowledged or half-applied -- #

PROBES = {
    "int key": ("multi_put", {"entries": [[123, "v", 2, False]]}, ()),
    "short second row": ("multi_put", {"entries": [["x", "v", 2, False], ["y", "v"]]}, ()),
    "list value": ("multi_put", {"entries": [["x", ["v"], 2, False]]}, ()),
    "down as a string": ("set_down", {"down": "no"}, ()),
    "int fingerprint": ("put_chunks", {"fingerprints": [7]}, (b"B",)),
    "get_chunks of a string": ("get_chunks", {"fingerprints": "abc"}, ()),
    "multi_get of a string": ("multi_get", {"keys": "k"}, ()),
    "delete_chunks of a string": ("delete_chunks", {"fingerprints": "abc"}, ()),
    "blobs on a verb that takes none": ("multi_get", {"keys": ["k"]}, (b"A",)),
    "unknown field": ("multi_get", {"keys": ["k"], "consistency": "all"}, ()),
    "range bound not decimal": ("fetch_range", {"ranges": [["0", "1e9"]]}, ()),
    "bool depth": ("merkle_tree", {"depth": True}, ()),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_a_bad_request_is_a_typed_value_error_and_changes_nothing(server, probe, tmp_path):
    method, params, blobs = PROBES[probe]
    before = state(server)
    response = serve(server, method, params, blobs)
    assert not response.ok and response.error["type"] == "ValueError", response
    assert state(server) == before
    assert (server.stats.errors, server.stats.internal_errors) == (1, 0)
    # Anti-entropy still works, here and after a restart from the WAL.
    assert serve(server, "repair_range", {"depth": 4, "buckets": list(range(16))}).ok
    server.node.wal.close()
    restarted = NodeServer(NodeSpec("n0", data_dir=str(tmp_path)))
    assert dict(restarted.node.dump()) == before[0]
    assert restarted.node.wal.stats.torn_records_dropped == 0
    assert serve(restarted, "merkle_tree", {"depth": 4}).ok
    restarted.node.wal.close()


def test_every_field_of_every_op_is_checked(server):
    """Each declared field refuses a value of the wrong type, and a
    request missing it, with nothing applied."""
    before = state(server)
    for name, op in OPS.items():
        good = {f: SAMPLE[f] for f, _ in op.fields}
        for field in good:
            for bad in ({**good, field: {"x": 1}}, {f: v for f, v in good.items() if f != field}):
                response = serve(server, name, bad)
                assert response.error["type"] == "ValueError", (name, bad, response)
    assert state(server) == before
    assert server.stats.internal_errors == 0


def test_a_good_request_decodes_ranges_and_rows():
    op = OPS["fetch_range"]
    bounds = [(0, 2**127 - 1)]
    assert op.check(op.params(bounds), ()) == {"ranges": bounds}
    assert op.params(bounds) == {"ranges": [["0", str(2**127 - 1)]]}  # the wire is unchanged
    assert OPS["multi_put"].check({"entries": [ROW]}, ()) == {"entries": [tuple(ROW)]}


# -- malformed envelopes: a counted frame error, never a dead handler -------- #

BAD_ENVELOPES = {
    "method is a list": {"method": []},
    "id is a map": {"id": {}},
    "deadline is a word": {"deadline_s": "soon"},
    "deadline is a bool": {"deadline_s": True},
    "deadline overflows a float": {"deadline_s": 10**400},
    "src is an int": {"src": 5},
    "blobs outside the blob section": {"blobs": ["x"]},
}


@pytest.mark.parametrize("case", sorted(BAD_ENVELOPES))
def test_a_malformed_envelope_is_a_frame_error(case):
    wire = {**Request("e-1", "ping").to_wire(), **BAD_ENVELOPES[case]}
    with pytest.raises(FrameError):
        Request.from_wire(wire)


def test_malformed_envelopes_cost_their_connection_and_are_counted():
    """Each used to kill the connection task uncounted, logged as
    'Unhandled exception in client_connected_cb'."""
    with live_cluster(["n0"], codec="json") as cluster:
        server = cluster.servers["n0"]
        handled = cluster._run(_catch_loop_errors())
        for n, case in enumerate(sorted(BAD_ENVELOPES), 1):
            wire = {**Request(f"e-{n}", "ping").to_wire(), **BAD_ENVELOPES[case]}
            frame = encode_frame(wire)
            assert cluster._run(_exchange(server.address, frame)) == []
            assert server.stats.frame_errors == n
        assert handled == []
        ping = encode_frame(Request("ok", "ping").to_wire())
        assert cluster._run(_exchange(server.address, ping))  # the server still serves


# -- a hostile client against a live server and its twin --------------------- #

SCALARS = st.none() | st.booleans() | st.integers(-(2**63), 2**63 - 1) | st.text(max_size=4)
JSON = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)
NAMES = st.text(string.ascii_lowercase[:4], min_size=1, max_size=2)
VALID = {
    "keys": st.lists(NAMES, max_size=4),
    "fingerprints": st.lists(NAMES, max_size=4),
    "entries": st.lists(
        st.tuples(NAMES, NAMES, st.integers(0, 9), st.booleans()).map(list), max_size=4
    ),
    "down": st.booleans(),
    "depth": st.integers(1, 6),
    "buckets": st.lists(st.integers(0, 63), max_size=4),
    "ranges": st.lists(
        st.tuples(st.integers(0, 2**127), st.integers(0, 2**127)).map(
            lambda b: [str(b[0]), str(b[1])]
        ),
        max_size=2,
    ),
}
# Every bad envelope but the one msgpack cannot encode (covered above).
ENVELOPE_FAULTS = st.sampled_from(
    [fault for case, fault in sorted(BAD_ENVELOPES.items()) if "overflows" not in case]
)


@st.composite
def hostile_requests(draw):
    """(method, params, blobs, envelope fault or None, valid?) — valid
    means a twin may apply it."""
    method = draw(st.sampled_from(sorted(OPS)) | st.sampled_from(["nope", ""]))
    op = OPS.get(method)
    fields = [f for f, _ in op.fields] if op is not None else []
    params = {name: draw(VALID[name]) for name in fields}
    fault = draw(st.sampled_from(["none", "none", "field", "drop", "extra", "params", "envelope"]))
    if fault == "field" and fields:
        wrong = JSON | st.lists(SCALARS, min_size=1, max_size=3)
        params[draw(st.sampled_from(fields))] = draw(wrong)
    elif fault == "drop" and fields:
        del params[draw(st.sampled_from(fields))]
    elif fault == "extra":
        params[draw(st.sampled_from(["extra", "keys", "down"]))] = draw(JSON)
    elif fault == "params":
        params = draw(JSON.filter(lambda v: v and not isinstance(v, dict)))
    envelope = draw(ENVELOPE_FAULTS) if fault == "envelope" else None
    names = params.get("fingerprints") if isinstance(params, dict) else None
    named = len(names) if method == "put_chunks" and isinstance(names, list) else 0
    count = 0 if envelope else draw(st.just(named) | st.integers(0, 3))
    blobs = tuple(bytes([n]) * (n + 1) for n in range(count))
    valid = op is not None and fault not in ("params", "envelope") and _oracle(op, params, blobs)
    return method, params, blobs, envelope, valid


def _oracle(op, params, blobs):
    """Independent of ``Op.check``: is this params map a well-typed request?"""
    if set(params) != {f for f, _ in op.fields}:
        return False
    strs = lambda v: type(v) is list and all(type(x) is str for x in v)
    ints = lambda v: type(v) is list and all(type(x) is int for x in v)
    rows = lambda v: type(v) is list and all(
        type(r) is list and len(r) == 4 and [type(x) for x in r] == [str, str, int, bool] for r in v
    )
    decimal = lambda b: type(b) is str and b.isascii() and b.isdigit()
    ranges = lambda v: type(v) is list and all(
        type(r) is list and len(r) == 2 and all(map(decimal, r)) for r in v
    )
    kinds = {"keys": strs, "fingerprints": strs, "entries": rows, "buckets": ints, "ranges": ranges,
             "down": lambda v: type(v) is bool, "depth": lambda v: type(v) is int}
    if not all(kinds[f](v) for f, v in params.items()):
        return False
    return len(blobs) == (len(params["fingerprints"]) if op.blobs == "request" else 0)


def _apply(twin: Replica, method, params, blobs):
    """What a valid request does to a replica, by method call."""
    try:
        if method == "multi_put":
            twin.multi_put(tuple(row) for row in params["entries"])
        elif method == "put_chunks":
            twin.put_chunks(zip(params["fingerprints"], blobs))
        elif method == "delete_chunks":
            twin.delete_chunks(params["fingerprints"])
        elif method == "set_down":
            twin.set_down(params["down"])
    except KVStoreError:
        pass  # refused while down: by the server's replica too


async def _catch_loop_errors():
    handled = []
    asyncio.get_running_loop().set_exception_handler(lambda loop, context: handled.append(context))
    return handled


async def _exchange(address, frame, codec_name="json"):
    """Send ``frame`` then a ping on one connection; the replies in arrival
    order, until both arrived or the server hung up."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        ping = encode_frame(Request("after", "ping").to_wire(), get_codec(codec_name))
        writer.write(frame + ping)
        await writer.drain()
        replies = Frames()
        while len(replies.messages) < 2:
            data = await asyncio.wait_for(reader.read(1 << 16), 5)
            if not data:
                break
            replies.feed(data)
        return replies.messages
    finally:
        writer.close()
        await writer.wait_closed()


@pytest.mark.parametrize("codec_name", sorted(available_codecs()))
@pytest.mark.parametrize("admission_queue", [0, 8], ids=["inline", "admission"])
def test_a_hostile_client_gets_one_reply_per_request_and_moves_only_valid_state(
    admission_queue, codec_name
):
    codec = get_codec(codec_name)
    with live_cluster(["n0"], codec=codec_name, admission_queue=admission_queue) as cluster:
        server = cluster.servers["n0"]
        twin = Replica("twin")
        ids = itertools.count()
        handled = cluster._run(_catch_loop_errors())

        @settings(max_examples=200, deadline=None, database=None,
                  suppress_health_check=list(HealthCheck))
        @given(hostile_requests())
        def one_request(request):
            method, params, blobs, envelope, valid = request
            wire = {**Request(f"h-{next(ids)}", method, params).to_wire(), **(envelope or {})}
            frame_errors = server.stats.frame_errors
            frame = encode_frame(wire, codec, blobs)
            replies = cluster._run(_exchange(server.address, frame, codec_name))
            if envelope:
                assert replies == [] and server.stats.frame_errors == frame_errors + 1
            else:
                assert sorted(r["id"] for r in replies) == sorted([wire["id"], "after"])
                assert server.stats.frame_errors == frame_errors
                [reply] = [r for r in replies if r["id"] == wire["id"]]
                error = None if reply["ok"] else reply["error"]["type"]
                op = OPS.get(method)
                if op is None:
                    expected = "FrameError"
                elif not valid:
                    expected = "ValueError"
                elif not twin.is_up and not op.control:
                    expected = "NodeDownError"
                else:
                    expected = None
                # A well-typed depth can still be out of the tree's range.
                fuzzed_depth = valid and not 1 <= params.get("depth", 1) <= 16
                assert error == expected or (fuzzed_depth and error == "ValueError"), reply
            if valid:
                _apply(twin, method, params, blobs)
            assert handled == []
            assert server.node.is_up == twin.is_up
            assert dict(server.node.dump()) == dict(twin.dump())
            assert server.node.chunks == twin.chunks
            assert server.node.merkle_tree(4).root == twin.merkle_tree(4).root

        one_request()
        assert server.stats.internal_errors == 0


def test_junk_method_names_add_no_by_method_series():
    """Regression: every distinct unknown name used to add a ``by_method``
    key, exported by the ``stats`` verb; they count in ``errors`` now."""
    with live_cluster(["n0"]) as cluster:
        server = cluster.servers["n0"]
        before, errors = dict(server.stats.by_method), server.stats.errors

        async def junk():
            calls = (cluster.client.call("n0", f"junk{i}") for i in range(1000))
            return await asyncio.gather(*calls, return_exceptions=True)

        replies = cluster._run(junk())
        assert {type(reply).__name__ for reply in replies} == {"RemoteCallError"}
        assert server.stats.by_method == before
        assert server.stats.errors == errors + 1000


# -- hostile replies: a malformed one costs its connection, never the peer ---- #

PING_REPLY = {"node": "p", "up": True}
BAD_REPLIES = {
    "id is a map": {"id": {}},
    "ok is a word": {"ok": "yes"},
    "error is a string": {"ok": False, "error": "boom"},
    "error type is an int": {"ok": False, "error": {"type": 1, "message": ""}},
    "error has extra keys": {"ok": False, "error": {"type": "E", "message": "", "x": 1}},
    "blobs outside the blob section": {"blobs": ["x"]},
    "a request, not a reply": {"kind": "req"},
}


async def _peer(answers):
    """A loopback peer that answers each request with the next of
    ``answers`` — ``(request, reply wire) -> (reply wire, blobs)`` — and,
    when they run out, as a well-behaved node would answer a ping."""
    answers = list(answers)

    async def serve(reader, writer):
        try:
            while True:
                head = await reader.readexactly(4)
                body = await reader.readexactly(int.from_bytes(head, "big"))
                request, _ = decode_frame(head + body)
                wire = Response.success(request["id"], PING_REPLY).to_wire()
                wire, blobs = answers.pop(0)(request, wire) if answers else (wire, ())
                writer.write(encode_frame(wire, blobs=blobs))
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    return await asyncio.start_server(serve, "127.0.0.1", 0)


def _against_peer(answers, calls):
    async def run():
        peer = await _peer(answers)
        client = RpcClient(
            {"p": peer.sockets[0].getsockname()[:2]},
            CallPolicy(timeout_s=1.0, retry=RetryPolicy(attempts=1)),
        )
        try:
            return [await call(client) for call in calls]
        finally:
            await client.close()
            peer.close()
            await peer.wait_closed()

    return asyncio.run(run())


async def _outcome(call):
    try:
        return await call
    except RpcError as exc:
        return exc


@pytest.mark.parametrize("case", sorted(BAD_REPLIES))
def test_a_hostile_reply_costs_its_connection_and_the_next_call_succeeds(case):
    """Regression: a reply whose ``id`` was a map killed the client's
    reader task and left its connection open, so every later call to the
    peer timed out even after the peer behaved."""

    def hostile(request, wire):
        return {**wire, **BAD_REPLIES[case]}, ()

    failed, pinged = _against_peer(
        [hostile],
        [lambda c: _outcome(c.call("p", "ping")), lambda c: c.call("p", "ping")],
    )
    assert type(failed) is RpcConnectionError
    assert pinged == PING_REPLY


BAD_RESULTS = {
    "key_count without count": ("key_count", {}, ()),
    "multi_get row of the wrong arity": ("multi_get", {"entries": {"k": [1, 2, False, 3]}}, ()),
    "multi_get entry with a string timestamp": ("multi_get", {"entries": {"k": ["v", "7", 0]}}, ()),
    "repair_range row of the wrong arity": ("repair_range", {"entries": [["k", "v"]]}, ()),
    "repair_range row with a string timestamp":
        ("repair_range", {"entries": [["k", "v", "7", False]]}, ()),
    "fetch_range row with a string timestamp":
        ("fetch_range", {"entries": [["k", "v", "7", False]]}, ()),
    "more found than blobs": ("get_chunks", {"found": ["a", "b"], "scanned": 2}, (b"A",)),
    "fewer found than blobs": ("get_chunks", {"found": ["a"], "scanned": 1}, (b"A", b"B")),
    "scanned is a word": ("get_chunks", {"found": [], "scanned": "all"}, ()),
    "scanned nothing": ("get_chunks", {"found": [], "scanned": 0}, ()),
    "found what it was not asked for": ("get_chunks", {"found": ["c"], "scanned": 2}, (b"C",)),
    "found past what it scanned": ("get_chunks", {"found": ["b"], "scanned": 1}, (b"B",)),
    "ping result is a list": ("ping", [], ()),
}
ARGS = {"key_count": (), "multi_get": (["k"],), "repair_range": (2, [0]),
        "fetch_range": ([(0, 1)],), "get_chunks": (["a", "b"],), "ping": ()}


@pytest.mark.parametrize("case", sorted(BAD_RESULTS))
def test_a_reply_its_op_cannot_read_is_a_frame_error(case):
    method, result, blobs = BAD_RESULTS[case]

    def hostile(request, wire):
        return {**wire, "result": result}, blobs

    async def verb(client):
        transport = AsyncioTransport(client)
        return await _outcome(getattr(transport, method)("p", *ARGS[method]))

    failed, pinged = _against_peer([hostile], [verb, lambda c: c.call("p", "ping")])
    assert type(failed) is FrameError, failed
    assert pinged == PING_REPLY


# -- the doc's op table is generated from OPS -------------------------------- #

def wire_type(spec) -> str:
    names = {"check_row": "row", "_token_range": "[lo, hi] as decimal str"}
    if type(spec) is list:
        return f"[{wire_type(spec[0])}]"
    return names.get(spec.__name__, spec.__name__)


def render_table() -> str:
    """The op table: reply keys are read off a served sample request."""
    server = NodeServer(NodeSpec("doc"))
    lines = [
        "| op | params | reply keys | blobs | remembered | control |",
        "|---|---|---|---|---|---|",
    ]
    for name, op in OPS.items():
        params = {f: SAMPLE[f] for f, _ in op.fields}
        blobs = (b"x",) * len(params["fingerprints"]) if op.blobs == "request" else ()
        reply = serve(server, name, params, blobs)
        assert reply.ok, (name, reply.error)
        fields = ", ".join(f"`{f}` {wire_type(spec)}" for f, spec in op.fields)
        keys = ", ".join(f"`{key}`" for key in reply.result)
        yes = lambda flag: "yes" if flag else ""
        lines.append(
            f"| `{name}` | {fields or '—'} | {keys} | {op.blobs or '—'} "
            f"| {yes(op.remembered)} | {yes(op.control)} |"
        )
    return "\n".join(lines) + "\n"


def test_the_doc_table_is_generated_from_the_ops():
    text = DOC.read_text(encoding="utf-8")
    found = re.search(r"<!-- op-table -->\n(.*?)<!-- /op-table -->", text, re.S)
    assert found, "docs/architecture.md lost its op-table markers"
    assert found.group(1) == render_table(), (
        "regenerate: PYTHONPATH=src:. python tests/test_rpc_ops.py"
    )


def test_the_service_classes_are_the_parents():
    """Which verbs skip overload protection and which are replayed from
    the idempotency cache did not move when the table took them over."""
    assert ops.CONTROL_METHODS == {
        "ping", "set_down", "stats", "dump", "key_count", "chunk_keys", "chunk_dump",
        "merkle_tree", "repair_range", "fetch_range",
    }
    assert {name for name, op in OPS.items() if op.remembered} == {
        "multi_put", "put_chunks", "delete_chunks", "set_down",
    }


if __name__ == "__main__":
    text = DOC.read_text(encoding="utf-8")
    DOC.write_text(
        re.sub(r"(<!-- op-table -->\n).*?(<!-- /op-table -->)",
               lambda m: m.group(1) + render_table() + m.group(2), text, flags=re.S),
        encoding="utf-8",
    )
