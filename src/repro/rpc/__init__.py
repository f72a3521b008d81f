"""Live asyncio transport for D2-rings.

The in-process :class:`~repro.kvstore.store.DistributedKVStore` models a
ring's index analytically; this package runs it for real: each member's
:class:`~repro.kvstore.replica.Replica` behind a TCP
:class:`~repro.rpc.server.NodeServer`, a multiplexing
:class:`~repro.rpc.client.RpcClient` with per-call timeouts and bounded
jittered retries, an :class:`~repro.rpc.transport.AsyncioTransport` that
carries the replica verbs over it, and a
:class:`~repro.rpc.remote_store.RemoteKVStore` that runs the one
:class:`~repro.kvstore.coordinator.QuorumCoordinator` on top — the same
coordination code, and therefore the same operation surface and
accounting. :class:`~repro.rpc.faults.FaultInjector` makes drops, delays,
duplicates, and partitions injectable per node pair, so the robustness
story is testable from day one. Boot everything with
:class:`~repro.rpc.cluster.LiveKVCluster` from one
:class:`~repro.rpc.settings.NodeSpec` per member and a
:class:`~repro.rpc.settings.CallPolicy`, or set
``EFDedupConfig(transport="asyncio")`` and let :class:`~repro.system.ring.D2Ring`
do it.
"""

from repro.rpc.client import ClientStats, RpcClient
from repro.rpc.cluster import LiveKVCluster
from repro.rpc.errors import (
    FrameError,
    RemoteCallError,
    RpcConnectionError,
    RpcError,
    RpcTimeoutError,
)
from repro.rpc.faults import FaultInjector, FaultRule, FaultStats, SendPlan
from repro.rpc.framing import available_codecs, default_codec_name, get_codec
from repro.rpc.heartbeat import HeartbeatService
from repro.rpc.messages import Request, Response
from repro.rpc.remote_store import RemoteKVStore
from repro.rpc.repair import RemoteReplicaRepairer
from repro.rpc.retry import RetryPolicy
from repro.rpc.server import NodeServer, ServerStats
from repro.rpc.settings import CallPolicy, NodeSpec

__all__ = [
    "CallPolicy",
    "ClientStats",
    "FaultInjector",
    "FaultRule",
    "FaultStats",
    "FrameError",
    "HeartbeatService",
    "LiveKVCluster",
    "NodeServer",
    "NodeSpec",
    "RemoteCallError",
    "RemoteKVStore",
    "RemoteReplicaRepairer",
    "Request",
    "Response",
    "RetryPolicy",
    "RpcClient",
    "RpcConnectionError",
    "RpcError",
    "RpcTimeoutError",
    "SendPlan",
    "ServerStats",
    "available_codecs",
    "default_codec_name",
    "get_codec",
]
