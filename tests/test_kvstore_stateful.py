"""Model-based stateful tests for the distributed KV store.

Hypothesis drives random operation sequences — claims, reads, deletes,
batched claims and probes, failures, recoveries — against the store and a
reference model (a plain dict plus an up/down set), checking after every
step that the store agrees with the model wherever the consistency
contract promises agreement. The machine runs over both replica
transports: the contract belongs to the one coordinator, not to how its
replicas are reached.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import UnavailableError
from repro.kvstore.repair import ReplicaRepairer
from tests.test_store_protocol import make_ring, shards

NODES = ["n0", "n1", "n2", "n3"]
KEYS = [f"key-{i}" for i in range(8)]


class KVStoreMachine(RuleBasedStateMachine):
    """The store must track a dict, modulo unavailability errors."""

    transport = "direct"

    def __init__(self) -> None:
        super().__init__()
        self.ring = make_ring(self.transport, n=len(NODES), rf=2)
        self.store = self.ring.store
        self.model: dict[str, str] = {}
        self.down: set[str] = set()
        self.counter = 0
        # True verdicts each key earned since it last was absent.
        self.new_verdicts: dict[str, int] = {}
        self.claimed: set[str] = set()  # live keys that entered by a claim

    def teardown(self) -> None:
        self.ring.close()

    def _assert_unroutable(self, keys) -> None:
        """UnavailableError is legal only when some key has no alive replica."""
        assert any(
            all(r in self.down for r in self.store.replicas_for(key)) for key in keys
        )

    # -- operations ------------------------------------------------------ #

    def _claim(self, keys: list[str], **kwargs) -> None:
        self.counter += 1
        value = f"v{self.counter}"
        try:
            verdicts = self.store.put_if_absent_many(keys, value, **kwargs)
        except UnavailableError:
            self._assert_unroutable(keys)
            return  # routed whole before any write: nothing was applied
        for key, new in zip(keys, verdicts):
            assert new == (key not in self.model), (key, new)
            if new:
                self.model[key] = value
                self.claimed.add(key)
                self.new_verdicts[key] = self.new_verdicts.get(key, 0) + 1

    @rule(key=st.sampled_from(KEYS))
    def write(self, key: str) -> None:
        self._claim([key], consistency=ConsistencyLevel.ONE)

    @rule(key=st.sampled_from(KEYS))
    def read(self, key: str) -> None:
        try:
            present = self.store.contains_many([key], consistency=ConsistencyLevel.ONE)
        except UnavailableError:
            self._assert_unroutable([key])
            return
        # With hinted handoff active and no lost hints, a ONE read may not
        # see the newest write only if it hits a down-then-recovered
        # replica before hints replay — but mark_up replays hints
        # synchronously here, so the newest version must be visible.
        assert present == [key in self.model], (key, present)

    @rule(keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=4))
    def delete(self, keys: list[str]) -> None:
        try:
            live = self.store.delete_many(keys, consistency=ConsistencyLevel.ONE)
        except UnavailableError:
            self._assert_unroutable(keys)
            return  # routed whole before any write: nothing was applied
        assert live == len(set(keys) & set(self.model)), (keys, live)
        # Deletes write tombstones (hinted to down replicas), so a delete
        # is final regardless of failures at delete time.
        for key in keys:
            self.model.pop(key, None)
            self.new_verdicts.pop(key, None)
            self.claimed.discard(key)

    @rule(keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=6))
    def claim_many(self, keys: list[str]) -> None:
        self._claim(keys, coordinator=NODES[0])

    @rule(
        keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=6),
        level=st.sampled_from([ConsistencyLevel.ONE, ConsistencyLevel.QUORUM]),
    )
    def probe_many(self, keys: list[str], level: ConsistencyLevel) -> None:
        before = shards(self.ring)
        try:
            present = self.store.contains_many(keys, consistency=level)
        except UnavailableError:
            present = None
        assert shards(self.ring) == before  # a probe never writes
        if present is not None and not self.down:
            assert present == [key in self.model for key in keys]

    @rule(node=st.sampled_from(NODES))
    def fail_node(self, node: str) -> None:
        if node not in self.down and len(self.down) < len(NODES) - 1:
            self.store.mark_down(node)
            self.down.add(node)

    @rule(node=st.sampled_from(NODES))
    def recover_node(self, node: str) -> None:
        if node in self.down:
            self.store.mark_up(node)  # replays hints
            self.down.discard(node)

    @precondition(lambda self: not self.down)
    @rule()
    def run_anti_entropy(self) -> None:
        ReplicaRepairer(self.store).repair_all()

    # -- invariants ------------------------------------------------------ #

    @invariant()
    def unique_keys_cover_model(self) -> None:
        stored = self.store.unique_keys()
        for key in self.model:
            assert key in stored

    @invariant()
    def replica_counts_bounded(self) -> None:
        # Never more copies than γ plus hint-replay writes cannot duplicate.
        held = shards(self.ring)
        for key in self.store.unique_keys():
            assert sum(key in shard for shard in held.values()) <= len(NODES)

    @invariant()
    def one_new_verdict_per_live_key(self) -> None:
        # A chunk is announced as new exactly once per lifetime, or two
        # agents upload it (or none does).
        assert all(count == 1 for count in self.new_verdicts.values())
        assert self.claimed == set(self.new_verdicts)

    @invariant()
    def healthy_cluster_reads_match_model(self) -> None:
        if self.down:
            return
        keys = sorted(self.model)
        assert self.store.contains_many(keys) == [True] * len(keys)
        held = shards(self.ring)
        for key in keys:
            for replica in self.store.replicas_for(key):
                value, _, tombstone = held[replica][key]
                assert (value, tombstone) == (self.model[key], False), (key, replica)


TestKVStoreStateful = KVStoreMachine.TestCase
TestKVStoreStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class AsyncioKVStoreMachine(KVStoreMachine):
    transport = "asyncio"


# Every example boots a real TCP ring: a smoke-depth run here, the
# nightly-depth one is ROADMAP item 3.
TestKVStoreStatefulAsyncio = AsyncioKVStoreMachine.TestCase
TestKVStoreStatefulAsyncio.settings = settings(
    max_examples=5, stateful_step_count=20, deadline=None
)
