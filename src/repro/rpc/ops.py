"""Every replica verb's wire, declared once: :data:`OPS` maps each method
a :class:`~repro.rpc.server.NodeServer` answers to its :class:`Op`, which
the server, the client and :class:`~repro.rpc.transport.AsyncioTransport`
read (``docs/architecture.md`` has the table). An entry travels as
``[value, timestamp, tombstone]``, a row as ``[key, value, timestamp,
tombstone]``, a token bound as a decimal string (tokens live in ``[0,
2**127)``, past msgpack's ints). Payloads ride in the blob section, named
by ``fingerprints`` going in and ``found`` coming out; a reply stops at
``BLOB_BUDGET_BYTES``, and ``scanned`` says how far down the asked list it got.
A ``get_chunks`` payload may come back as a read-only ``memoryview`` of its
reply frame (:class:`~repro.rpc.framing.FrameReader`); ``chunk_dump`` copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Optional

from repro.kvstore.merkle import MerkleTree
from repro.kvstore.node import check_row
from repro.obs.hub import series
from repro.rpc.framing import BLOB_BUDGET_BYTES


def _token_range(bounds) -> tuple[int, int]:
    if type(bounds) is list and len(bounds) == 2:
        if all(type(b) is str and b.isascii() and b.isdigit() for b in bounds):
            return int(bounds[0]), int(bounds[1])
    raise ValueError(f"a range is [lo, hi] as decimal strings, got {bounds!r:.80}")


def _decode(spec, value):
    """``value`` as ``spec`` declares it — a type, a decoder, or ``[spec]``
    for a list of them — else ``ValueError``. Types match exactly, so a
    bool is no int."""
    if type(spec) is list:
        if type(value) is list:
            if type(spec[0]) is not type:
                return [spec[0](item) for item in value]
            if all(type(item) is spec[0] for item in value):
                return value
    elif type(spec) is not type:
        return spec(value)
    elif type(value) is spec:
        return value
    kind = f"[{spec[0].__name__}]" if type(spec) is list else spec.__name__
    raise ValueError(f"expected {kind}, got {value!r:.80}")


@dataclass(frozen=True)
class Op:
    """One replica verb. ``fields`` are ``(wire name, spec)`` in wire order;
    ``serve(server, blobs, **params)`` answers ``(result, reply blobs)``;
    ``read(result, blobs)`` is what the transport verb returns; ``encode``
    builds params that are not the call's arguments as given. A ``control``
    verb skips breakers, deadlines, admission and SLOW injection, since
    pings must reach a busy node and recovery tooling a broken one. A
    ``remembered`` verb changes the replica, so its reply is cached per
    correlation id and a replay never re-executes it; other verbs re-run,
    as keeping their replies (payloads, whole shards) would cost more.
    """

    name: str
    fields: tuple[tuple[str, Any], ...]
    serve: Callable[..., tuple[Any, tuple]]
    read: Callable[[Any, tuple], Any] = lambda result, blobs: result
    encode: Optional[Callable[..., dict]] = None
    blobs: str = ""  # the message payloads ride in: "request", "reply" or ""
    control: bool = False
    remembered: bool = False

    def params(self, *args) -> dict:
        """The wire params of a call with these arguments."""
        return self.encode(*args) if self.encode else dict(zip(self.names, args))

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    @cached_property
    def _name_set(self) -> frozenset:
        return frozenset(self.names)

    def check(self, params, blobs: tuple) -> dict:
        """The decoded params, checked in full, or ``ValueError``: nothing
        is served before every field and the blob count have passed."""
        if type(params) is not dict or params.keys() != self._name_set:
            raise ValueError(f"{self.name} takes {list(self.names)}, got {params!r:.80}")
        checked = {}
        for name, spec in self.fields:
            try:
                checked[name] = _decode(spec, params[name])
            except ValueError as exc:
                raise ValueError(f"{self.name} {name!r}: {exc}") from None
        named = len(checked["fingerprints"]) if self.blobs == "request" else 0
        if len(blobs) != named:
            raise ValueError(f"{self.name} names {named} fingerprints, carries {len(blobs)} blobs")
        return checked


def _entries(found) -> tuple[dict, tuple]:
    # A copy: ``dump`` is a read-only view, which no codec encodes.
    return {"entries": dict(found)}, ()


def _rows(found) -> tuple[dict, tuple]:
    return {"entries": [(key, *entry) for key, entry in found.items()]}, ()


def _page(fetch, fingerprints) -> tuple[dict, tuple]:
    found, scanned = fetch(fingerprints, BLOB_BUDGET_BYTES)
    return {"found": list(found), "scanned": scanned}, tuple(found.values())


def _read_entries(result, blobs) -> dict:
    return {
        key: None if wire is None else check_row([key, *wire])[1:]
        for key, wire in result["entries"].items()
    }


def _read_rows(result, blobs) -> dict:
    rows = map(check_row, result["entries"])
    return {key: (value, ts, tombstone) for key, value, ts, tombstone in rows}


def _read_page(result, blobs) -> tuple[dict, int]:
    scanned = result["scanned"]
    if type(scanned) is not int:
        raise TypeError(f"scanned is {scanned!r:.40}")
    return dict(zip(result["found"], blobs, strict=True)), scanned


def _read_dump(result, blobs) -> tuple[dict, int]:
    # A dumped shelf is re-shelved elsewhere: copies, not views of the reply.
    return _read_page(result, tuple(map(bytes, blobs)))


def _multi_put(server, blobs, entries):
    server.node.multi_put(entries)
    return {"stored": len(entries)}, ()


def _put_chunks(server, blobs, fingerprints):
    stored, stored_bytes = server.node.put_chunks(zip(fingerprints, blobs))
    return {"stored": stored, "bytes": stored_bytes}, ()


def _delete_chunks(server, blobs, fingerprints):
    deleted, freed = server.node.delete_chunks(fingerprints)
    return {"deleted": deleted, "bytes": freed}, ()


def _ping(server, blobs):
    return {"node": server.node_id, "up": server.node.ping()}, ()


def _set_down(server, blobs, down):
    server.node.set_down(down)
    return _ping(server, blobs)


def _merkle_tree(server, blobs, depth):
    tree = server.node.merkle_tree(depth)
    return {"depth": tree.depth, "leaves": list(tree.leaves), "root": tree.root}, ()


KEYS, FINGERPRINTS, DEPTH = ("keys", [str]), ("fingerprints", [str]), ("depth", int)

# Lambdas: serve(s = server, b = request blobs, **params); read(r = result, b = reply blobs).
OPS: dict[str, Op] = {op.name: op for op in (
    # Data plane: refused by the replica while it is down.
    Op("multi_get", (KEYS,), lambda s, b, keys: _entries(s.node.multi_get(keys)), _read_entries),
    Op("multi_put", (("entries", [check_row]),), _multi_put, remembered=True),
    Op("put_chunks", (FINGERPRINTS,), _put_chunks, blobs="request", remembered=True),
    Op("get_chunks", (FINGERPRINTS,),
       lambda s, b, fingerprints: _page(s.node.get_chunks, fingerprints), _read_page,
       blobs="reply"),
    Op("delete_chunks", (FINGERPRINTS,),
       _delete_chunks, lambda r, b: (r["deleted"], r["bytes"]), remembered=True),
    # Control plane: operator views, served while down.
    Op("ping", (), _ping, lambda r, b: bool(r.get("up", True)), control=True),
    Op("set_down", (("down", bool),), _set_down, control=True, remembered=True),
    Op("dump", (), lambda s, b: _entries(s.node.dump()), _read_entries, control=True),
    Op("key_count", (),
       lambda s, b: ({"count": s.node.key_count()}, ()), lambda r, b: r["count"], control=True),
    Op("stats", (), lambda s, b: (series(s.stats), ()), control=True),
    Op("chunk_keys", (),
       lambda s, b: ({"fingerprints": s.node.chunk_keys()}, ()), lambda r, b: r["fingerprints"],
       control=True),
    Op("chunk_dump", (FINGERPRINTS,),
       lambda s, b, fingerprints: _page(s.node.chunk_dump, fingerprints), _read_dump,
       blobs="reply", control=True),
    Op("merkle_tree", (DEPTH,),
       _merkle_tree, lambda r, b: MerkleTree(r["depth"], tuple(r["leaves"]), r["root"]),
       control=True),
    Op("repair_range", (DEPTH, ("buckets", [int])),
       lambda s, b, depth, buckets: _rows(s.node.repair_range(depth, buckets)), _read_rows,
       control=True),
    Op("fetch_range", (("ranges", [_token_range]),),
       lambda s, b, ranges: _rows(s.node.fetch_range(ranges)), _read_rows, control=True,
       encode=lambda ranges: {"ranges": [[str(lo), str(hi)] for lo, hi in ranges]}),
)}

CONTROL_METHODS = frozenset(name for name, op in OPS.items() if op.control)
