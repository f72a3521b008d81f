"""Golden wiring: what every object of a booted live ring is built with.

Five seeded boots of a live :class:`~repro.system.ring.D2Ring`, each from
an :class:`~repro.system.config.EFDedupConfig`: the asyncio defaults, the
perf ledger's reference values, the overload scenario's protected config,
the crash scenario's config (WAL directory and heartbeats), and a ring
grown by one member. For each boot ``golden_wiring.json`` pins:

- the client: per-attempt timeout, retry schedule, default deadline, wire
  codec, breaker threshold and cooldown, retry-budget capacity and
  deposit, and its first jitter draw;
- the coordinator: γ, vnodes, consistency, hint window and strategy class;
- each node server: admission bound, shed start and first draw, service
  workers, the codec a ping is answered in, idempotency capacity, and its
  WAL's snapshot cadence and fsync mode;
- the heartbeat interval.

Admission seeds derive from node ids by crc32, never from ``hash()``, so
the file holds under any ``PYTHONHASHSEED``.

Regenerate (only when a ring is meant to be built differently)::

    PYTHONPATH=src python tests/test_golden_wiring.py > tests/golden_wiring.json
"""

from __future__ import annotations

import json
import random
import socket
import struct
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.kvstore.consistency import ConsistencyLevel
from repro.rpc import server as server_module
from repro.rpc.framing import (
    BLOB_FLAG, JsonCodec, MsgpackCodec, default_codec_name, encode_frame,
)
from repro.rpc.messages import Request
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring

GOLDEN = Path(__file__).with_name("golden_wiring.json")
MEMBERS = ["edge-0", "edge-1", "edge-2"]
NEWCOMER = "edge-3"
CODEC_NAMES = {JsonCodec.wire_id: JsonCodec.name, MsgpackCodec.wire_id: MsgpackCodec.name}


def scenarios(data_dir: str) -> dict[str, tuple[EFDedupConfig, dict | None]]:
    """Scenario name → (config, cloud_of_member)."""
    return {
        "asyncio-defaults": (EFDedupConfig(transport="asyncio"), None),
        "ledger-reference": (
            EFDedupConfig(
                chunk_size=8192,
                chunking_algo="fastcdc",
                replication_factor=2,
                consistency=ConsistencyLevel.ONE,
                lookup_batch=64,
                content_batch=16,
                transport="asyncio",
                rpc_codec="json",
                rpc_timeout_s=2.0,
                data_dir=f"{data_dir}/ledger",
                ec_data_shards=3,
                ec_parity_shards=2,
                spill_mode="sync",
                cache_capacity=0,
                secure=False,
            ),
            None,
        ),
        "overload-protected": (
            EFDedupConfig(
                chunk_size=4096,
                replication_factor=2,
                lookup_batch=16,
                transport="asyncio",
                rpc_timeout_s=0.5,
                rpc_attempts=3,
                rpc_deadline_s=0.2,
                admission_queue=12,
                service_workers=2,
                breaker_failures=5,
                retry_budget=10.0,
                brownout=True,
            ),
            None,
        ),
        "crash-heartbeat": (
            EFDedupConfig(
                chunk_size=4096,
                replication_factor=2,
                lookup_batch=16,
                transport="asyncio",
                rpc_codec="json",
                data_dir=f"{data_dir}/crash",
                heartbeat_interval_s=0.05,
            ),
            None,
        ),
        "add-member": (
            EFDedupConfig(transport="asyncio"),
            {node: f"cloud-{i % 2}" for i, node in enumerate(MEMBERS + [NEWCOMER])},
        ),
    }


def first_draw(rng: random.Random) -> float:
    """The next value ``rng`` would give, without advancing it."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin.random()


def reply_codec(address, codec_name: str) -> str:
    """Ping a server over a raw socket in ``codec_name``; the codec its
    reply frame names."""
    codec = JsonCodec if codec_name == JsonCodec.name else MsgpackCodec
    frame = encode_frame(Request("wiring-probe", "ping", {}).to_wire(), codec)
    with socket.create_connection(tuple(address), timeout=5) as sock:
        sock.sendall(frame)
        head = b""
        while len(head) < 5:
            got = sock.recv(5 - len(head))
            if not got:
                raise ConnectionError("server closed before answering the probe")
            head += got
    (body_len,) = struct.unpack(">I", head[:4])
    assert body_len >= 1
    return CODEC_NAMES[head[4] & ~BLOB_FLAG]


def client_wiring(client) -> dict:
    breakers, budget = client.breakers, client.retry_budget
    return {
        "timeout_s": client.timeout_s,
        "retry": asdict(client.retry),
        "deadline_s": client.deadline_s,
        "codec": client.codec.name,
        "breakers": None if breakers is None else {
            "threshold": breakers.failure_threshold, "cooldown_s": breakers.cooldown_s,
        },
        "retry_budget": None if budget is None else {
            "capacity": budget.capacity, "deposit": budget.deposit_per_success,
        },
        "first_jitter_draw": first_draw(client._rng),
    }


def coordinator_wiring(store) -> dict:
    return {
        "replication_factor": store.strategy.replication_factor,
        "vnodes": store.ring.vnodes,
        "consistency": store.default_consistency.name,
        "max_hints_per_node": store.hints.max_hints_per_node,
        "strategy": type(store.strategy).__name__,
    }


def server_wiring(server, codec_name: str) -> dict:
    # The fallbacks read the attributes servers had before they were built
    # from a NodeSpec, so this extractor still writes the committed file
    # when run at the commit that recorded it.
    admission, wal = server.admission, server.node.wal
    spec = getattr(server, "spec", None)
    return {
        "admission": None if admission is None else {
            "max_queue": admission.max_queue,
            "shed_start": admission.shed_start,
            "first_draw": first_draw(admission._rng),
        },
        "service_workers": (
            spec.service_workers if spec is not None else server._service_workers
        ),
        "reply_codec": reply_codec(server.address, codec_name),
        "idempotency_capacity": getattr(
            server, "_idempotency_capacity", getattr(server_module, "IDEMPOTENCY_CAPACITY", None)
        ),
        "wal": None if wal is None else {
            "snapshot_every": wal.snapshot_every, "fsync": wal.fsync,
        },
    }


def ring_wiring(ring: D2Ring) -> dict:
    live = ring.live_cluster
    client = client_wiring(live.client)
    return {
        "client": client,
        "coordinator": coordinator_wiring(live.store),
        "servers": {
            node_id: server_wiring(live.servers[node_id], client["codec"])
            for node_id in sorted(live.servers)
        },
        "heartbeat_interval_s": (
            None if live.heartbeats is None else live.heartbeats.interval_s
        ),
    }


def record_scenario(name: str) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-wiring-") as data_dir:
        config, cloud_of_member = scenarios(data_dir)[name]
        with D2Ring(
            "ring-0", MEMBERS, config=config, cloud_of_member=cloud_of_member
        ) as ring:
            if name == "add-member":
                ring.add_member(NEWCOMER)
            wiring = ring_wiring(ring)
    if config.rpc_codec is None:
        # The default codec is msgpack where it is installed: pin "the
        # default", not this environment's pick.
        assert wiring["client"]["codec"] == default_codec_name()
        wiring["client"]["codec"] = "default"
        for server in wiring["servers"].values():
            if server["reply_codec"] == default_codec_name():
                server["reply_codec"] = "default"
    return wiring


def record_all() -> dict:
    return {name: record_scenario(name) for name in scenarios("")}


@pytest.mark.parametrize("name", sorted(scenarios("")))
def test_live_ring_is_wired_as_recorded(name):
    golden = json.loads(GOLDEN.read_text())
    assert record_scenario(name) == golden[name]


def test_golden_covers_every_scenario():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(scenarios(""))


if __name__ == "__main__":
    json.dump(record_all(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
