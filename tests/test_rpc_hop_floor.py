"""The index hop at its floor, asserted by counting instead of timing.

A fault-free ``RpcClient.call`` creates no task and leaves no live timer;
the injected-fault paths create none either; a reply that outlives its
attempt still completes the retrying call; only the verbs that change a
replica are remembered for replay; and a disabled tracer is never asked
for a span on client, server or coordinator.
"""

import asyncio
from dataclasses import dataclass

import pytest

from repro.rpc import FaultInjector, RetryPolicy, RpcTimeoutError
from repro.rpc.faults import SendPlan

from tests.conftest import FAST_RETRY, NODE_IDS, live_cluster


def counted(cluster, coro_fn):
    """Run ``coro_fn()`` on the cluster's loop under a counting task
    factory; returns (its result, tasks created, live timers left)."""

    async def run():
        loop = asyncio.get_running_loop()
        created = []

        def factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(factory)
        try:
            result = await coro_fn()
        finally:
            loop.set_task_factory(None)
        live = [h for h in loop._scheduled if not h.cancelled()]
        return result, len(created), len(live)

    return cluster._run(run())


class TestFaultFreeCall:
    def test_creates_no_task_and_leaves_no_live_timer(self):
        with live_cluster() as cluster:
            client = cluster.client
            cluster._run(client.ping("n0"))  # the connection's tasks exist now

            async def calls():
                for _ in range(25):
                    await client.call("n0", "ping")
                return await client.call("n0", "multi_get", {"keys": ["a", "b"]})

            result, tasks, timers = counted(cluster, calls)
            assert result == {"entries": {"a": None, "b": None}}
            assert tasks == 0
            assert timers == 0
            assert client.stats.retries == client.stats.timeouts == 0

    def test_builds_no_backoff_schedule(self):
        class CountingPolicy(RetryPolicy):
            built = 0

            def backoff_delays(self, rng):
                CountingPolicy.built += 1
                return super().backoff_delays(rng)

        with live_cluster(retry=CountingPolicy()) as cluster:
            cluster.store.put_if_absent_many(["a", "b", "c"], "m", coordinator="n0")
            assert cluster.client.stats.calls > 0
            assert CountingPolicy.built == 0


class TestFaultedCallsCreateNoTaskEither:
    """The four fault kinds behave as ``test_rpc_transport`` asserts; here
    only that none of them brings the per-call task back."""

    def faulted(self, install, **kwargs):
        injector = FaultInjector()
        with live_cluster(
            fault_injector=injector, timeout_s=0.05, retry=FAST_RETRY, **kwargs
        ) as cluster:
            client = cluster.client
            cluster._run(client.ping("n0"))
            install(injector)
            result, tasks, timers = counted(
                cluster,
                lambda: client.call("n0", "multi_put", {"entries": [["k", "v", 7, False]]}),
            )
            assert result == {"stored": 1}
            assert tasks == 0
            return cluster, timers

    def test_delayed_request_rides_a_timer(self):
        cluster, timers = self.faulted(lambda inj: inj.delay_requests(0.01, times=1))
        assert timers == 0 and cluster.client.stats.retries == 0

    def test_duplicated_request_is_applied_once(self):
        cluster, _ = self.faulted(lambda inj: inj.duplicate_requests(times=1))
        server = cluster.servers["n0"]
        assert server.stats.replays == 1
        assert server.node._data["k"].timestamp == 7

    def test_dropped_request_is_resent(self):
        cluster, _ = self.faulted(lambda inj: inj.drop_requests(times=1))
        assert cluster.client.stats.timeouts == 1
        assert cluster.client.stats.retries == 1
        assert cluster.servers["n0"].stats.replays == 0

    def test_dropped_response_is_replayed(self):
        cluster, _ = self.faulted(lambda inj: inj.drop_responses(times=1))
        assert cluster.client.stats.timeouts == 1
        assert cluster.servers["n0"].stats.replays == 1

    def test_exhausted_budget_is_a_typed_timeout_with_no_timer_left(self):
        injector = FaultInjector()
        with live_cluster(
            fault_injector=injector, timeout_s=0.02, retry=FAST_RETRY
        ) as cluster:
            client = cluster.client
            cluster._run(client.ping("n0"))
            injector.drop_requests(dst="n0")

            async def call():
                with pytest.raises(RpcTimeoutError):
                    await client.call("n0", "ping")

            _, tasks, timers = counted(cluster, call)
            assert tasks == 0 and timers == 0
            assert client.stats.timeouts == FAST_RETRY.attempts
            assert not client._conns["n0"].pending


@dataclass
class LateReplyInjector(FaultInjector):
    """The first reply crawls back after its attempt gave up, and the
    retry's frame is lost: only the late reply can complete the call."""

    sends: int = 0

    def plan_send(self, src, dst):
        self.sends += 1
        return SendPlan(drop=self.sends == 2)


class TestLateReply:
    def test_reply_after_its_attempt_timed_out_completes_the_retry(self):
        injector = LateReplyInjector()
        # Attempt 2 waits from ~0.105 s to ~0.205 s; the reply lands at 0.15 s.
        with live_cluster(
            fault_injector=injector, timeout_s=0.1, retry=FAST_RETRY
        ) as cluster:
            client, server = cluster.client, cluster.servers["n0"]
            cluster._run(client.ping("n0"))
            injector.sends = 0
            requests = server.stats.requests
            injector.delay_responses(0.15, times=1)
            result = cluster._run(
                client.call("n0", "multi_put", {"entries": [["k", "v", 1, False]]})
            )
            assert result == {"stored": 1}
            assert client.stats.timeouts == 1
            assert client.stats.retries == 1
            assert client.stats.failed_calls == 0
            assert injector.sends == 2
            # One frame ever reached the server: its reply did the completing.
            assert server.stats.requests == requests + 1


class TestReplayMemory:
    def test_reads_are_not_remembered(self):
        """``dump``, ``multi_get`` and ``merkle_tree`` change nothing, so
        their replies — a whole shard each — never enter the cache."""
        with live_cluster() as cluster:
            store = cluster.store
            keys = [f"k{i}" for i in range(40)]
            assert all(store.put_if_absent_many(keys, "m", coordinator="n0"))
            remembered = {n: len(s._seen) for n, s in cluster.servers.items()}
            assert all(remembered.values())  # the multi_puts

            async def reads():
                for node_id in NODE_IDS:
                    for _ in range(5):
                        await store.transport.dump(node_id)
                        await store.transport.multi_get(node_id, keys)
                        await store.transport.merkle_tree(node_id, 4)
                        await store.transport.key_count(node_id)
                        await store.transport.ping(node_id)

            cluster._run(reads())
            assert store.unique_keys() == set(keys)
            assert {n: len(s._seen) for n, s in cluster.servers.items()} == remembered

    def test_duplicated_read_re_executes_and_duplicated_write_does_not(self):
        injector = FaultInjector()
        with live_cluster(fault_injector=injector) as cluster:
            store, server = cluster.store, cluster.servers["n0"]
            cluster._run(cluster.client.ping("n0"))
            injector.duplicate_requests(dst="n0")
            cluster._run(store.transport.multi_put("n0", [("k", "v", 3, False)]))
            assert server.stats.replays == 1
            assert server.stats.by_method["multi_put"] == 2
            appended = server.node._data["k"]
            got = cluster._run(store.transport.multi_get("n0", ["k"]))
            assert got == {"k": appended}
            assert server.stats.replays == 1  # the duplicate read ran again
            assert server.stats.by_method["multi_get"] == 2

    def test_set_down_is_remembered(self):
        with live_cluster() as cluster:
            server = cluster.servers["n1"]
            before = len(server._seen)
            cluster.store.mark_down("n1")
            cluster.store.mark_up("n1")
            assert len(server._seen) == before + 2


class RefusingTracer:
    """A disabled tracer that fails the test if anyone asks it for a span:
    the disabled path must not get as far as building one."""

    enabled = False

    def span(self, *args, **kwargs):
        raise AssertionError("a span was built although the tracer is disabled")


class TestDisabledTracer:
    def test_client_server_and_coordinator_never_ask_for_a_span(self):
        with live_cluster(tracer=RefusingTracer()) as cluster:
            store = cluster.store
            assert store.put_if_absent_many(["a", "b", "a"], "m", coordinator="n0") == [
                True, True, False,
            ]
            store.put("k", "v", coordinator="n1")
            assert store.get("k", coordinator="n2") == "v"
            assert store.delete("k") is True
            assert sum(s.stats.errors for s in cluster.servers.values()) == 0
            assert cluster.client.stats.failed_calls == 0

    def test_enabled_tracer_still_links_client_and_server_spans(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        with live_cluster(tracer=tracer) as cluster:
            cluster.store.put_if_absent_many(["a"], "m", coordinator="n0")
        client_spans = tracer.spans("rpc.client.")
        server_spans = tracer.spans("rpc.server.")
        assert client_spans and len(client_spans) == len(server_spans)
        assert {s.parent_id for s in server_spans} == {s.span_id for s in client_spans}
        assert tracer.spans("store.put_if_absent_many")
