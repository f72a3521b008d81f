"""The live ring's two settings values: one default and one check per knob.

:class:`NodeSpec` (what a member serves with) and :class:`CallPolicy`
(what the client and coordinator call with) are the only place a live
knob has a default; the classes the cluster builds from them take the
value whole and declare none of their own, and
:class:`~repro.system.config.EFDedupConfig` builds both with the same
defaults.
"""

import inspect
import json
from dataclasses import asdict, fields

import pytest

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.coordinator import QuorumCoordinator
from repro.kvstore.store import DistributedKVStore
from repro.rpc import (
    CallPolicy,
    HeartbeatService,
    LiveKVCluster,
    NodeServer,
    NodeSpec,
    RemoteKVStore,
    RetryPolicy,
    RpcClient,
)
from repro.system.config import EFDedupConfig

POLICY_KNOBS = {f.name for f in fields(CallPolicy)}
SPEC_KNOBS = {f.name for f in fields(NodeSpec)} - {"node_id"}
# Names the knobs went by before they were values, and the constants the
# options audit made of knobs no caller set.
RETIRED = {"default_consistency", "seed", "snapshot_every", "heartbeat_detector",
           "idempotency_capacity", "admission", "breakers", "node_ids"}


class TestOneDefault:
    def test_config_builds_the_values_defaults(self):
        config = EFDedupConfig(transport="asyncio")
        assert config.call_policy() == CallPolicy()
        assert config.node_spec("n") == NodeSpec("n")

    def test_in_process_store_defaults_equal_the_policys(self):
        policy = CallPolicy()
        store = inspect.signature(DistributedKVStore).parameters
        assert store["replication_factor"].default == policy.replication_factor
        assert store["vnodes"].default == policy.vnodes
        assert store["default_consistency"].default == policy.consistency
        coordinator = inspect.signature(QuorumCoordinator).parameters
        assert coordinator["max_hints_per_node"].default == policy.max_hints_per_node

    @pytest.mark.parametrize(
        "cls", [RpcClient, RemoteKVStore, NodeServer, LiveKVCluster],
        ids=lambda cls: cls.__name__,
    )
    def test_consumers_take_the_value_and_declare_no_knob(self, cls):
        names = set(inspect.signature(cls).parameters)
        assert not names & (POLICY_KNOBS | SPEC_KNOBS | RETIRED)
        assert names & {"policy", "spec", "specs"}

    def test_heartbeat_interval_has_no_second_default(self):
        param = inspect.signature(HeartbeatService).parameters["interval_s"]
        assert param.default is inspect.Parameter.empty


class TestValues:
    def test_node_spec_round_trips_through_json(self):
        spec = NodeSpec("edge-0", data_dir="/var/lib/ring", admission_queue=12,
                        service_workers=2)
        assert NodeSpec(**json.loads(json.dumps(asdict(spec)))) == spec

    def test_values_are_frozen(self):
        with pytest.raises(AttributeError):
            CallPolicy().timeout_s = 1.0  # type: ignore[misc]
        with pytest.raises(AttributeError):
            NodeSpec("n").service_workers = 2  # type: ignore[misc]

    def test_config_translates_renamed_knobs(self):
        config = EFDedupConfig(
            transport="asyncio", consistency=ConsistencyLevel.QUORUM, rpc_codec="json",
            rpc_timeout_s=0.5, rpc_attempts=2, rpc_deadline_s=1.0, data_dir="d",
        )
        policy = config.call_policy()
        assert policy.consistency is ConsistencyLevel.QUORUM
        assert (policy.codec, policy.timeout_s, policy.deadline_s) == ("json", 0.5, 1.0)
        assert policy.retry == RetryPolicy(attempts=2)
        assert config.node_spec("n").data_dir == "d"

    @pytest.mark.parametrize(
        "knobs",
        [
            {"timeout_s": 0.0},
            {"deadline_s": 0.0},
            {"breaker_failures": -1},
            {"breaker_cooldown_s": 0.0},
            {"retry_budget": -1.0},
            {"heartbeat_interval_s": -0.1},
        ],
    )
    def test_policy_rejects_out_of_range(self, knobs):
        with pytest.raises(ValueError, match=next(iter(knobs))):
            CallPolicy(**knobs)

    @pytest.mark.parametrize("knobs", [{"admission_queue": -1}, {"service_workers": 0}])
    def test_spec_rejects_out_of_range(self, knobs):
        with pytest.raises(ValueError, match=next(iter(knobs))):
            NodeSpec("n", **knobs)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"rpc_timeout_s": 0.0}, "timeout_s"),
            ({"rpc_attempts": 0}, "attempts"),
            ({"rpc_deadline_s": -1.0}, "deadline_s"),
            ({"service_workers": 0}, "service_workers"),
        ],
    )
    def test_live_config_fails_with_its_values(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            EFDedupConfig(transport="asyncio", **knobs)
