"""Tests for the overload-resilient service plane: end-to-end deadlines,
admission control, circuit breakers, retry budgets, brownout dedup, and the
gray-failure (SLOW) injection that exercises them. The decision kernels in
``repro.rpc.overload`` are tested pure (no transport); the wire behaviors —
shed-but-alive heartbeats, bounded retry amplification under a 100% drop
storm, expired-in-queue drops — run against a real asyncio cluster."""

import asyncio
import math
import time
from concurrent.futures import Future

import pytest

from repro.dedup.brownout import BrownoutIndex
from repro.dedup.index import InMemoryIndex
from repro.dedup.stats import DedupStats
from repro.kvstore.gossip import PhiAccrualDetector
from repro.rpc import (
    FaultInjector,
    FaultRule,
    HeartbeatService,
    Request,
    RetryPolicy,
    RpcTimeoutError,
)
from repro.rpc.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    RpcOverloadError,
)
from repro.rpc.faults import DUPLICATE, RESPONSE
from repro.rpc.overload import (
    CLOSED,
    CONTROL_METHODS,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    RetryBudget,
)

from tests.conftest import FAST_RETRY, live_cluster


def gather_calls(cluster, coros):
    """Run client coroutines concurrently on the cluster's loop thread,
    returning results with exceptions captured in-place."""

    async def run():
        return await asyncio.gather(*coros, return_exceptions=True)

    return asyncio.run_coroutine_threadsafe(run(), cluster._loop).result(timeout=30)


# --------------------------------------------------------------------- #
# Deadline: the end-to-end budget
# --------------------------------------------------------------------- #


class TestDeadline:
    def test_budget_counts_down_and_expires(self):
        deadline = Deadline(0.05)
        assert 0 < deadline.remaining() <= 0.05
        assert not deadline.expired
        time.sleep(0.06)
        assert deadline.remaining() < 0
        assert deadline.expired

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_wire_round_trip_preserves_the_remaining_budget(self):
        req = Request("m-1", "multi_get", {"keys": []}, src="a", dst="b",
                      deadline_s=0.125)
        wire = req.to_wire()
        assert wire["deadline_s"] == 0.125
        assert Request.from_wire(wire).deadline_s == 0.125

    def test_absent_deadline_stays_absent_for_old_peers(self):
        wire = Request("m-2", "ping").to_wire()
        assert "deadline_s" not in wire  # old peers never see the field
        assert Request.from_wire(wire).deadline_s is None


class TestRpcTimeoutErrorMessage:
    def test_reports_elapsed_wall_time_and_deadline_left(self):
        exc = RpcTimeoutError("multi_put", "n1", 3, 0.25,
                              elapsed_s=1.234, deadline_left_s=0.5)
        msg = str(exc)
        assert "1.234s elapsed" in msg
        assert "0.500s of deadline left" in msg
        assert exc.elapsed_s == 1.234

    def test_reports_exhausted_budget(self):
        exc = RpcTimeoutError("multi_put", "n1", 2, 0.25,
                              elapsed_s=0.6, deadline_left_s=-0.01)
        assert "deadline budget exhausted" in str(exc)


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #


class TestAdmissionController:
    def test_ramp_admits_below_and_sheds_at_the_bound(self):
        ctl = AdmissionController(max_queue=10, shed_start=0.5, seed=1)
        assert all(ctl.decide(d) for d in range(5))  # below the watermark
        assert not ctl.decide(10)  # at the bound: certain shed
        assert not ctl.decide(25)
        assert ctl.admitted == 5 and ctl.shed == 2

    def test_shedding_is_seeded_deterministic(self):
        depths = [7, 8, 9, 6, 8, 9, 9, 7] * 20
        a = AdmissionController(10, shed_start=0.5, seed=42)
        b = AdmissionController(10, shed_start=0.5, seed=42)
        assert [a.decide(d) for d in depths] == [b.decide(d) for d in depths]

    def test_ramp_probability_rises_with_depth(self):
        ctl = AdmissionController(10, shed_start=0.5, seed=7)
        shallow = sum(not ctl.decide(6) for _ in range(500))
        deep = sum(not ctl.decide(9) for _ in range(500))
        assert shallow < deep

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(10, shed_start=0.0)
        with pytest.raises(ValueError):
            AdmissionController(10, shed_start=1.5)


# --------------------------------------------------------------------- #
# Circuit breaker + retry budget (pure state machines, injected clock)
# --------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_and_any_success_resets(self):
        b = CircuitBreaker(failure_threshold=3, cooldown_s=1.0)
        b.record_failure(now=0.0)
        b.record_failure(now=0.0)
        b.record_success()  # streak broken
        assert b.state == CLOSED
        for _ in range(3):
            b.record_failure(now=0.0)
        assert b.state == OPEN
        assert b.opens == 1

    def test_open_fails_fast_until_cooldown_then_single_half_open_probe(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        b.record_failure(now=0.0)
        assert not b.allow(now=0.5)  # still cooling: fail fast
        assert b.allow(now=1.1)  # the one half-open probe
        assert b.state == HALF_OPEN
        assert not b.allow(now=1.1)  # concurrent calls wait for its fate

    def test_probe_success_closes_probe_failure_reopens(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        b.record_failure(now=0.0)
        assert b.allow(now=1.1)
        b.record_success()
        assert b.state == CLOSED and b.allow(now=1.1)

        b.record_failure(now=2.0)  # trip again
        assert b.allow(now=3.1)
        b.record_failure(now=3.1)  # the probe fails
        assert b.state == OPEN
        assert not b.allow(now=3.5)  # a fresh cooldown started
        assert b.allow(now=4.2)

    def test_board_keeps_independent_breakers_per_pair(self):
        board = BreakerBoard(failure_threshold=1, cooldown_s=1.0)
        board.for_pair("a", "b").record_failure(now=0.0)
        assert board.for_pair("a", "b").state == OPEN
        assert board.for_pair("a", "c").state == CLOSED
        assert board.open_count == 1
        assert board.snapshot()["a->b"]["opens"] == 1

    def test_mixing_manual_and_monotonic_clocks_raises(self):
        # Regression: a test-supplied `now` compared against a later
        # time.monotonic() reading (or vice versa) makes the cooldown
        # window nonsense — an epoch-style manual timestamp next to a
        # monotonic one can hold the breaker open for decades. The first
        # timed call pins the clock; the other clock is rejected.
        b = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        b.record_failure(now=0.0)  # pins the manual clock
        with pytest.raises(ValueError, match="pinned to its manual clock"):
            b.allow()  # monotonic call on a manually-clocked breaker

        b2 = CircuitBreaker(failure_threshold=1, cooldown_s=0.01)
        assert b2.allow() is True  # pins the monotonic clock
        with pytest.raises(ValueError, match="pinned to its monotonic clock"):
            b2.record_failure(now=123.0)

    def test_consistent_clock_use_stays_valid(self):
        manual = CircuitBreaker(failure_threshold=1, cooldown_s=1.0)
        manual.record_failure(now=0.0)
        assert manual.allow(now=1.5)  # same clock throughout: fine
        monotonic = CircuitBreaker(failure_threshold=1, cooldown_s=0.001)
        monotonic.record_failure()
        import time as _time

        _time.sleep(0.002)
        assert monotonic.allow()  # cooldown elapsed on the real clock


class TestRetryBudget:
    def test_bucket_bounds_grants_and_successes_refill(self):
        budget = RetryBudget(capacity=2.0, deposit=0.5)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()  # empty
        assert budget.denied == 1
        budget.on_success()
        budget.on_success()  # two successes = one whole token
        assert budget.try_spend()

    def test_deposits_cap_at_capacity(self):
        budget = RetryBudget(capacity=3.0, deposit=1.0)
        for _ in range(10):
            budget.on_success()
        assert budget.tokens == 3.0


# --------------------------------------------------------------------- #
# Fault injector: RESPONSE-direction delay, SLOW gray failures
# --------------------------------------------------------------------- #


class TestFaultInjectorDirections:
    def test_delay_rule_supports_response_direction(self):
        inj = FaultInjector(seed=1)
        inj.delay_responses(0.03, dst="n0")
        assert inj.response_delay("cli", "n0") == pytest.approx(0.03)
        assert inj.response_delay("cli", "n1") == 0.0
        assert inj.stats.delayed_responses == 1

    def test_duplicate_rule_rejects_response_direction(self):
        with pytest.raises(ValueError):
            FaultRule(DUPLICATE, direction=RESPONSE)

    def test_slow_serves_is_seeded_deterministic(self):
        samples = []
        for _ in range(2):
            inj = FaultInjector(seed=9)
            inj.slow_serves(0.01, dst="n0", sigma=0.8)
            samples.append([inj.plan_serve("n0") for _ in range(20)])
        assert samples[0] == samples[1]
        assert len(set(samples[0])) > 1  # sigma > 0: actually lognormal

    def test_slow_sigma_zero_is_a_constant_inflation(self):
        inj = FaultInjector(seed=9)
        inj.slow_serves(0.02, dst="n0")
        assert [inj.plan_serve("n0") for _ in range(5)] == [0.02] * 5
        assert inj.plan_serve("n1") == 0.0

    def test_slow_median_is_the_lognormal_median(self):
        inj = FaultInjector(seed=3)
        inj.slow_serves(0.01, dst="n0", sigma=1.0)
        draws = sorted(inj.plan_serve("n0") for _ in range(801))
        assert math.isclose(draws[400], 0.01, rel_tol=0.5)

    def test_remove_rule_is_the_undo_and_tolerates_absence(self):
        inj = FaultInjector()
        rule = inj.slow_serves(0.05, dst="n0")
        inj.remove_rule(rule)
        assert inj.plan_serve("n0") == 0.0
        inj.remove_rule(rule)  # idempotent


def test_delayed_response_crosses_the_wire_without_a_retry():
    injector = FaultInjector(seed=1)
    injector.delay_responses(0.05, dst="n0")
    with live_cluster(fault_injector=injector, retry=FAST_RETRY) as cluster:
        t0 = time.perf_counter()
        [result] = gather_calls(
            cluster, [cluster.client.call("n0", "multi_get", {"keys": ["k"]})]
        )
        assert not isinstance(result, BaseException)
        assert time.perf_counter() - t0 >= 0.05  # the reply really crawled
        assert injector.stats.delayed_responses >= 1
        assert cluster.client.stats.retries == 0  # delay < timeout: no retry


# --------------------------------------------------------------------- #
# Server-side admission + deadlines over the wire
# --------------------------------------------------------------------- #


class TestServerOverloadPlane:
    def test_saturated_queue_sheds_typed_and_control_bypasses(self):
        injector = FaultInjector(seed=2)
        injector.slow_serves(0.05, dst="n0")  # congest the lone worker
        with live_cluster(
            fault_injector=injector,
            retry=FAST_RETRY,
            admission_queue=2,
            service_workers=1,
        ) as cluster:
            calls = [
                cluster.client.call("n0", "multi_get", {"keys": [f"k{i}"]})
                for i in range(16)
            ]
            results = gather_calls(cluster, calls)
            shed = [r for r in results if isinstance(r, RpcOverloadError)]
            assert shed, "a 2-deep queue behind a 50ms/serve worker must shed"
            assert cluster.servers["n0"].stats.shed >= len(shed)
            # Control traffic bypasses admission even while the queue is
            # full: busy is not dead, and pings prove it.
            assert "ping" in CONTROL_METHODS
            [pong] = gather_calls(cluster, [cluster.client.call("n0", "ping")])
            assert not isinstance(pong, BaseException)

    def test_expired_in_queue_work_is_dropped_not_served(self):
        injector = FaultInjector(seed=3)
        injector.slow_serves(0.05, dst="n0")
        with live_cluster(
            fault_injector=injector,
            retry=FAST_RETRY,
            admission_queue=64,  # deep queue: nothing sheds, everything waits
            service_workers=1,
            deadline_s=0.12,
        ) as cluster:
            calls = [
                cluster.client.call("n0", "multi_get", {"keys": [f"k{i}"]})
                for i in range(10)
            ]
            results = gather_calls(cluster, calls)
            # Deep in the queue every call outlives its budget: the client
            # stops retrying when the budget dies, the server drops the
            # queued frames unexecuted when the workers reach them (the
            # whole point — capacity is not spent on work nobody awaits).
            failed = [r for r in results
                      if isinstance(r, (RpcTimeoutError, DeadlineExceededError))]
            assert failed, "calls queued past their budget cannot succeed whole"
            assert cluster.client.stats.deadline_expired > 0
            stats = cluster.servers["n0"].stats
            for _ in range(100):  # let the lone worker reach expired frames
                if stats.deadline_drops:
                    break
                time.sleep(0.02)
            assert stats.deadline_drops > 0

    def test_deadline_stops_retries_before_the_attempt_count(self):
        injector = FaultInjector(seed=4)
        injector.drop_requests(dst="n0")  # total silence
        with live_cluster(
            fault_injector=injector,
            timeout_s=0.05,
            retry=RetryPolicy(attempts=10, base_delay_s=0.005,
                              max_delay_s=0.01, jitter=0.0),
            deadline_s=0.12,
        ) as cluster:
            [exc] = gather_calls(
                cluster, [cluster.client.call("n0", "multi_get", {"keys": []})]
            )
            assert isinstance(exc, RpcTimeoutError)
            assert exc.attempts < 10  # the budget, not the schedule, ran out
            assert "deadline budget exhausted" in str(exc)
            assert exc.elapsed_s is not None and exc.elapsed_s >= 0.1


# --------------------------------------------------------------------- #
# Client circuit breakers + retry budget over the wire
# --------------------------------------------------------------------- #


class TestClientProtection:
    def test_breaker_opens_after_silence_and_fails_fast(self):
        injector = FaultInjector(seed=5)
        injector.drop_requests(dst="n0")
        with live_cluster(
            fault_injector=injector,
            timeout_s=0.05,
            retry=FAST_RETRY,
            breaker_failures=3,
            breaker_cooldown_s=30.0,  # stays open for the whole test
        ) as cluster:
            [first] = gather_calls(
                cluster, [cluster.client.call("n0", "multi_get", {"keys": []})]
            )
            assert isinstance(first, RpcTimeoutError)  # 3 attempts = 3 failures
            t0 = time.perf_counter()
            [second] = gather_calls(
                cluster, [cluster.client.call("n0", "multi_get", {"keys": []})]
            )
            assert isinstance(second, CircuitOpenError)
            assert time.perf_counter() - t0 < 0.05  # no frames, no timeout
            assert cluster.client.stats.circuit_open == 1
            assert cluster.client.breakers.open_count == 1
            # Control traffic ignores the open breaker: the ping is never
            # failed fast (it goes to the wire, where this test's storm
            # happens to eat it — a timeout, not a CircuitOpenError).
            [pong] = gather_calls(cluster, [cluster.client.call("n0", "ping")])
            assert not isinstance(pong, CircuitOpenError)

    def test_total_drop_storm_frames_bounded_by_retry_budget(self):
        """Property (satellite): under a 100% request-drop storm, total
        attempts across N concurrent calls are bounded by N first attempts
        plus the retry-budget capacity — never attempts × N."""
        n_calls, capacity, attempts = 8, 4.0, 6
        injector = FaultInjector(seed=6)
        injector.drop_requests()  # every request frame, every pair
        with live_cluster(
            fault_injector=injector,
            timeout_s=0.05,
            retry=RetryPolicy(attempts=attempts, base_delay_s=0.005,
                              max_delay_s=0.01, jitter=0.0),
            retry_budget=capacity,
        ) as cluster:
            calls = [
                cluster.client.call("n0", "multi_get", {"keys": [f"k{i}"]})
                for i in range(n_calls)
            ]
            results = gather_calls(cluster, calls)
            assert all(isinstance(r, RpcTimeoutError) for r in results)
            stats = cluster.client.stats
            assert stats.attempts <= n_calls + capacity
            assert stats.attempts < n_calls * attempts  # storm was damped
            assert cluster.client.retry_budget.granted <= capacity
            assert stats.retry_budget_denied > 0


# --------------------------------------------------------------------- #
# Heartbeats vs overload: busy is not dead (regression)
# --------------------------------------------------------------------- #


class TestLivenessUnderOverload:
    def test_shedding_node_keeps_heartbeating_below_phi_threshold(self):
        injector = FaultInjector(seed=8)
        injector.slow_serves(0.04, dst="n1")
        detector = PhiAccrualDetector(threshold=4.0, default_interval_s=0.05)
        with live_cluster(
            fault_injector=injector,
            retry=FAST_RETRY,
            admission_queue=2,
            service_workers=1,
        ) as cluster:
            heartbeats = HeartbeatService(
                cluster.store, interval_s=0.05, detector=detector
            )
            futures = [
                cluster.store.submit_put_if_absent_many([f"fp{i}"], "m")
                for i in range(40)
            ]
            for _ in range(8):
                heartbeats.poll_once()
                time.sleep(0.05)
            for future in futures:
                future.exception()  # drain; shed writes may surface errors
            assert sum(s.stats.shed for s in cluster.servers.values()) > 0
            # The whole point: shedding data traffic while answering pings
            # must read as "busy", not "dead".
            now = time.monotonic()
            assert detector.phi("n1", now) < detector.threshold
            assert all(state != "down" for _, _, state in
                       heartbeats.monitor.transitions)
            assert cluster.store.is_up("n1")

    def test_admin_down_outlives_half_open_probes_and_pings(self):
        with live_cluster(
            retry=FAST_RETRY,
            breaker_failures=1,
            breaker_cooldown_s=0.05,
        ) as cluster:
            heartbeats = HeartbeatService(
                cluster.store, interval_s=0.05,
                detector=PhiAccrualDetector(threshold=4.0,
                                            default_interval_s=0.05),
            )
            cluster.store.mark_down("n1")  # operator says: out of rotation
            breaker = cluster.client.breakers.for_pair(None, "n1")
            breaker.record_failure()  # threshold 1: open
            time.sleep(0.06)  # past the cooldown: probe would be allowed
            for _ in range(4):
                heartbeats.poll_once()
                time.sleep(0.05)
            # The breaker has recovered (half-open probe available) and the
            # node answers every ping — but the admin mark still wins: the
            # sweeper must not resurrect what an operator took down.
            assert breaker.allow() is True
            assert not cluster.store.is_up("n1")
            assert all(state != "up" for _, _, state in
                       heartbeats.monitor.transitions)


# --------------------------------------------------------------------- #
# Brownout dedup: write-through + exact reconciliation
# --------------------------------------------------------------------- #


class _FlakyIndex(InMemoryIndex):
    """An index with a switchable failure mode, for tripping the wrapper."""

    def __init__(self):
        super().__init__()
        self.failing = False
        self.calls = 0

    def lookup_and_insert_many(self, fingerprints, metadata=None):
        self.calls += 1
        if self.failing:
            raise RpcOverloadError(node_id="n0")
        return super().lookup_and_insert_many(fingerprints, metadata=metadata)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestBrownoutIndex:
    def _tripped(self):
        clock = _FakeClock()
        inner = _FlakyIndex()
        wrapper = BrownoutIndex(
            inner, trip_on=(RpcOverloadError,), cooldown_s=1.0, clock=clock
        )
        inner.failing = True
        return clock, inner, wrapper

    def test_trip_answers_write_through_and_journals_in_order(self):
        clock, inner, wrapper = self._tripped()
        assert wrapper.lookup_and_insert_many(["a", "b"], "f1") == [True, True]
        assert wrapper.active and wrapper.stats.trips == 1
        clock.now = 0.5  # inside the cooldown: not even probed
        calls_before = inner.calls
        assert wrapper.lookup_and_insert_many(["a"], "f2") == [True]
        assert inner.calls == calls_before
        assert wrapper.journal == [("a", "f1"), ("b", "f1"), ("a", "f2")]

    def test_half_open_probe_recovers_after_cooldown(self):
        clock, inner, wrapper = self._tripped()
        wrapper.lookup_and_insert_many(["a"], None)
        inner.failing = False
        clock.now = 1.5  # past the cooldown: one probe is spent
        assert wrapper.lookup_and_insert_many(["b"], None) == [True]
        assert not wrapper.active and wrapper.stats.probes == 1

    def test_reconcile_repairs_stats_to_exact_ratio(self):
        clock, inner, wrapper = self._tripped()
        # The engine saw [a, b, a, b] during the brownout and, trusting the
        # write-through verdicts, counted all 4 as unique 100-byte chunks.
        for fp in ["a", "b", "a", "b"]:
            wrapper.lookup_and_insert_many([fp], None)
            wrapper.note_length(fp, 100)
        stats = DedupStats(raw_chunks=4, raw_bytes=400,
                           unique_chunks=4, unique_bytes=400)
        inner.failing = False
        outcome = wrapper.reconcile(stats)
        # Replay in arrival order: a new, b new, a dup, b dup.
        assert outcome == {"replayed": 4, "corrected_chunks": 2,
                           "corrected_bytes": 200, "missing_lengths": 0}
        assert (stats.unique_chunks, stats.duplicate_chunks) == (2, 2)
        assert stats.unique_bytes == 200
        assert stats.dedup_ratio == 2.0  # exactly the unloaded ratio
        assert wrapper.stats.corrected_chunks == 2
        assert not wrapper.journal and not wrapper.active
        assert sorted(inner.fingerprints()) == ["a", "b"]

    def test_reconcile_without_stats_only_repairs_the_index(self):
        clock, inner, wrapper = self._tripped()
        for fp in ["a", "a"]:
            wrapper.lookup_and_insert_many([fp], None)
            wrapper.note_length(fp, 10)
        inner.failing = False
        outcome = wrapper.reconcile(stats=None)
        assert outcome["corrected_chunks"] == 1  # observed, reported...
        assert wrapper.stats.corrected_chunks == 0  # ...but not claimed
        assert sorted(inner.fingerprints()) == ["a"]

    def test_reconcile_against_still_broken_index_restores_the_journal(self):
        clock, inner, wrapper = self._tripped()
        wrapper.lookup_and_insert_many(["a", "b"], "m")
        with pytest.raises(RpcOverloadError):
            wrapper.reconcile(DedupStats())
        assert wrapper.journal == [("a", "m"), ("b", "m")]
        assert wrapper.active  # re-tripped, ready for a later sweep


# --------------------------------------------------------------------- #
# Loadgen: shed is not failed
# --------------------------------------------------------------------- #


class TestLoadgenShedAccounting:
    def _run(self, shed_types):
        from repro.loadgen.runner import OpenLoopRunner
        from repro.loadgen.workload import LoadRequest

        def submit(keys, agent_id, coordinator):
            future = Future()
            i = int(keys[0][1:])
            if i % 3 == 0:
                future.set_exception(RpcOverloadError(node_id=coordinator))
            elif i % 3 == 1:
                future.set_exception(RuntimeError("boom"))
            else:
                future.set_result([True] * len(keys))
            return future

        runner = OpenLoopRunner(submit, ["n0"], shed_types=shed_types)
        requests = [
            LoadRequest(i, f"a{i}", 0, "n0", (f"k{i}",)) for i in range(9)
        ]
        return runner.run([0.0] * 9, requests, duration_s=0.01)

    def test_overload_pushback_counts_as_shed_not_failed(self):
        result = self._run(shed_types=(RpcOverloadError, CircuitOpenError))
        assert (result.completed, result.shed, result.failed) == (3, 3, 3)
        assert result.arrivals == result.completed + result.shed + result.failed

    def test_without_shed_types_pushback_stays_failed(self):
        result = self._run(shed_types=())
        assert (result.completed, result.shed, result.failed) == (3, 0, 6)


# --------------------------------------------------------------------- #
# Chaos: slow-node scenario + the overload scenario end to end
# --------------------------------------------------------------------- #


class TestSlowNodeScenario:
    def test_factory_schedules_slow_then_unslow(self):
        from repro.chaos.scenarios import SCENARIOS, FaultEvent, slow_node

        scenario = slow_node(node_index=2, median_s=0.05, sigma=1.0)
        assert scenario.name == "slow-node"
        actions = [(e.action, e.node_index) for e in scenario.events]
        assert actions == [("slow", 2), ("unslow", 2)]
        assert scenario.events[0].median_s == 0.05
        assert scenario.events[0].sigma == 1.0
        assert "slow-node" in SCENARIOS

        with pytest.raises(ValueError):
            FaultEvent(0.1, "slow", 0)  # slow needs a positive median
        with pytest.raises(ValueError):
            FaultEvent(0.1, "slow", 0, median_s=0.05, sigma=-1.0)

    def test_runner_treats_slowed_node_as_unhealthy_window(self):
        from repro.chaos import run_scenario

        report = run_scenario(
            "slow-node", nodes=3, files_per_node=2, file_kb=16, seed=7
        )
        assert report.passed, report.violations
        assert any(e.startswith("slow:") for e in report.events_fired)
        assert any(e.startswith("unslow:") for e in report.events_fired)
        # the gray window was measured
        assert report.measurements["degraded_seconds"] > 0
        assert report.ratio_matches_baseline


class TestOverloadScenario:
    def test_end_to_end_sheds_bounds_latency_and_reconciles_exactly(self):
        from repro.chaos import run_overload_scenario

        report = run_overload_scenario(seed=7, duration_s=0.3, files_per_node=3)
        assert report.passed, report.violations
        step = report.measurements["overload_step"]
        assert step["shed"] > 0
        assert report.measurements["shed_fraction"] > 0
        assert step["arrivals"] == step["completed"] + step["shed"] + step["failed"]
        assert report.ratio_matches_baseline
        assert report.measurements["brownout"]["trips"] >= 1
        assert report.checks["journal_drained"]
        assert report.checks["redundant_uploads_accounted"]
