"""Drive a live D2-ring through a fault scenario and judge the outcome.

:func:`run_scenario` is the harness entry point: it boots a real asyncio
ring (WAL-backed nodes), streams a seeded workload through the agents
round-robin, fires the scenario's fault events at their scheduled ingest
fractions, heals everything, and returns a
:class:`~repro.chaos.report.ScenarioReport` with

- the safety-invariant checks (:mod:`repro.chaos.invariants`),
- the final dedup ratio versus a fault-free run of the *same seed*
  (the headline acceptance check: faults may cost redundant uploads and
  latency, never dedup correctness),
- recovery timings (wall-clock per restart) and degraded-mode vs healthy
  ingest throughput, which ``benchmarks/bench_chaos_recovery.py`` exports.

Determinism: the workload is seeded, events fire on ingest *positions*
(fractions of the file schedule), and the default run uses explicit
mark-down on kill. Pass ``heartbeat_interval_s > 0`` to instead let the
phi-accrual prober discover crashes from missed heartbeats — realistic,
but then detection latency depends on wall-clock timing.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Union

from repro.chaos.invariants import check_invariants
from repro.chaos.report import ScenarioReport
from repro.chaos.scenarios import ChaosScenario, FaultEvent, get_scenario
from repro.kvstore.repair import ReplicaRepairer
from repro.obs.hub import series
from repro.system.config import EFDedupConfig
from repro.system.reference import (
    reference_ring,
    round_robin,
    seeded_pool_workload,
)
from repro.system.ring import D2Ring


def _await_liveness_view(
    ring: D2Ring, expect_down: set[str], timeout_s: float = 15.0
) -> float:
    """Heartbeat mode only: block until the prober's view agrees that
    exactly ``expect_down`` of the killed members are down.

    Between a crash and its detection the coordinator still routes to the
    dead replica and requests fail; a real edge agent just retries, so the
    harness models that as a stall. Returns the seconds spent waiting.
    """
    started = time.perf_counter()
    deadline = started + timeout_s
    while True:
        alive = set(ring.store.alive_nodes())
        undetected = expect_down & alive
        if not undetected:
            return time.perf_counter() - started
        if time.perf_counter() >= deadline:
            raise RuntimeError(
                f"heartbeat prober failed to detect {sorted(undetected)} "
                f"within {timeout_s}s"
            )
        time.sleep(0.005)


class _EventDriver:
    """Applies fault events to a live ring and tracks who is unhealthy."""

    def __init__(self, ring: D2Ring, members: list[str], injector) -> None:
        self.ring = ring
        self.members = members
        self.injector = injector
        self.killed: set[str] = set()
        self.isolated: set[str] = set()
        self.slowed: dict[str, object] = {}  # node id -> installed SLOW rule
        # node id -> keys its shard held when it was last killed (what a
        # restart has to bring back from the WAL).
        self.held_at_kill: dict[str, int] = {}
        self.recovery_times_s: list[float] = []
        self.log: list[str] = []

    @property
    def unhealthy(self) -> set[str]:
        # A slowed member is alive and serving — but ingest touching it is
        # degraded-mode work, so it counts toward the degraded clock.
        return self.killed | self.isolated | set(self.slowed)

    def fire(self, event: FaultEvent) -> None:
        node = self.members[event.node_index]
        cluster = self.ring.live_cluster
        if event.action == "kill":
            heartbeats = cluster.heartbeats is not None
            self.held_at_kill[node] = cluster.servers[node].node.key_count()
            cluster.kill_node(node, mark_down=not heartbeats)
            self.killed.add(node)
        elif event.action == "restart":
            started = time.perf_counter()
            cluster.restart_node(node)
            self.recovery_times_s.append(time.perf_counter() - started)
            self.killed.discard(node)
        elif event.action == "isolate":
            for peer in self.members:
                if peer != node:
                    self.injector.partition(node, peer)
            self.ring.store.mark_down(node)
            self.isolated.add(node)
        elif event.action == "heal":
            for peer in self.members:
                if peer != node:
                    self.injector.heal(node, peer)
            started = time.perf_counter()
            self.ring.store.mark_up(node)
            ReplicaRepairer(self.ring.store).repair_node(node)
            self.recovery_times_s.append(time.perf_counter() - started)
            self.isolated.discard(node)
        elif event.action == "slow":
            # Gray failure: the member stays up and keeps heartbeating;
            # only its admitted service times inflate.
            self.slowed[node] = self.injector.slow_serves(
                event.median_s, dst=node, sigma=event.sigma
            )
        elif event.action == "unslow":
            rule = self.slowed.pop(node, None)
            if rule is not None:
                self.injector.remove_rule(rule)
        self.log.append(f"{event.action}:{node}@{event.at_fraction:.2f}")

    def heal_everything(self) -> None:
        """Safety net: a scenario should heal its own faults, but the
        invariant checker needs every member up — force the rest."""
        for node in sorted(self.killed):
            self.fire(FaultEvent(0.99, "restart", self.members.index(node)))
            self.log[-1] = f"auto-{self.log[-1]}"
        for node in sorted(self.isolated):
            self.fire(FaultEvent(0.99, "heal", self.members.index(node)))
            self.log[-1] = f"auto-{self.log[-1]}"
        for node in sorted(self.slowed):
            self.fire(FaultEvent(0.99, "unslow", self.members.index(node)))
            self.log[-1] = f"auto-{self.log[-1]}"


def run_scenario(
    scenario: Union[str, ChaosScenario],
    nodes: int = 3,
    files_per_node: int = 6,
    file_kb: int = 32,
    seed: int = 7,
    gamma: int = 2,
    lookup_batch: int = 16,
    data_dir: Optional[Union[str, Path]] = None,
    heartbeat_interval_s: float = 0.0,
    codec: Optional[str] = None,
) -> ScenarioReport:
    """Run one scenario against a fresh live ring; see the module docstring.

    Args:
        scenario: a built-in fault schedule (any name in
            :data:`repro.chaos.scenarios.SCENARIOS`: ``crash-restart``,
            ``rolling-restart``, ``flapping``, ``partition-heal``,
            ``slow-node``) or a custom :class:`ChaosScenario`.
        nodes/files_per_node/file_kb/seed: workload shape (deterministic
            per seed).
        gamma: replication factor of the ring index.
        lookup_batch: fingerprints per batched index round trip.
        data_dir: WAL directory (a temp dir when omitted).
        heartbeat_interval_s: > 0 runs the phi-accrual heartbeat prober and
            leaves crash *detection* to it (kills stop being explicitly
            marked down).
        codec: wire codec override.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario, nodes)
    if nodes < scenario.min_nodes:
        raise ValueError(
            f"scenario {scenario.name!r} needs >= {scenario.min_nodes} nodes, "
            f"got {nodes}"
        )
    workloads = seeded_pool_workload(nodes, files_per_node, file_kb, seed)
    members = sorted(workloads)
    schedule = round_robin(workloads)
    total = len(schedule)
    reference = EFDedupConfig(
        chunk_size=4096, replication_factor=gamma, lookup_batch=lookup_batch
    )
    baseline_ratio = reference_ring(members, schedule, reference).dedup_ratio

    from repro.rpc.faults import FaultInjector

    injector = FaultInjector(seed=seed)
    tmp = None
    if data_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        data_dir = tmp.name
    live = replace(
        reference,
        transport="asyncio",
        rpc_codec=codec,
        data_dir=str(data_dir),
        heartbeat_interval_s=heartbeat_interval_s,
    )
    try:
        with D2Ring(
            "chaos-0", members, config=live, fault_injector=injector
        ) as ring:
            driver = _EventDriver(ring, members, injector)
            heartbeats = ring.live_cluster.heartbeats is not None
            events = list(scenario.events)
            ev_i = 0
            degraded_s = healthy_s = 0.0
            degraded_b = healthy_b = 0
            deferred: list[tuple[str, bytes]] = []
            for i, (node_id, data) in enumerate(schedule):
                while ev_i < len(events) and events[ev_i].at_fraction * total <= i:
                    driver.fire(events[ev_i])
                    ev_i += 1
                if heartbeats and driver.killed:
                    # Detection latency stalls the pipeline, not fails it.
                    degraded_s += _await_liveness_view(ring, set(driver.killed))
                if node_id in driver.isolated:
                    # An isolated member's agent cannot reach any replica;
                    # its files wait for the partition to heal (the client
                    # retrying later), keeping totals comparable with the
                    # fault-free run.
                    deferred.append((node_id, data))
                    continue
                started = time.perf_counter()
                ring.agent(node_id).ingest(data)
                elapsed = time.perf_counter() - started
                if driver.unhealthy:
                    degraded_s += elapsed
                    degraded_b += len(data)
                else:
                    healthy_s += elapsed
                    healthy_b += len(data)
            while ev_i < len(events):
                driver.fire(events[ev_i])
                ev_i += 1
            driver.heal_everything()
            if heartbeats:
                # The sweeper may re-suspect a just-restarted member until
                # its first ping lands; the invariant checker needs a
                # stable all-alive view.
                deadline = time.perf_counter() + 15.0
                while set(ring.store.alive_nodes()) != set(members):
                    if time.perf_counter() >= deadline:
                        raise RuntimeError(
                            "heartbeat prober did not re-admit all members"
                        )
                    time.sleep(0.005)
            for node_id, data in deferred:
                started = time.perf_counter()
                ring.agent(node_id).ingest(data)
                healthy_s += time.perf_counter() - started
                healthy_b += len(data)
            report = ScenarioReport(
                scenario.name, seed, nodes, total, events_fired=driver.log
            )
            report.merge(check_invariants(ring))
            report.record_ratio(
                ring.combined_stats().dedup_ratio, baseline_ratio, "fault-free"
            )
            wal_stats = ring.live_cluster.wal_stats()
            _record_recovery(report, driver, wal_stats)
            report.measurements.update(
                recovery_times_s=driver.recovery_times_s,
                degraded_seconds=degraded_s,
                degraded_bytes=degraded_b,
                degraded_throughput_mb_s=_mb_per_s(degraded_b, degraded_s),
                healthy_seconds=healthy_s,
                healthy_bytes=healthy_b,
                healthy_throughput_mb_s=_mb_per_s(healthy_b, healthy_s),
                wal_entries_restored=sum(map(_wal_restored, wal_stats.values())),
                store_stats=series(ring.store.stats),
                wal_stats=wal_stats,
            )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return report


def _mb_per_s(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 else 0.0


def _wal_restored(wal: dict) -> int:
    """Entries one member's current WAL brought back when it was opened."""
    return wal["log_entries_replayed"] + wal["snapshot_entries_loaded"]


def _record_recovery(
    report: ScenarioReport, driver: _EventDriver, wal_stats: dict[str, dict]
) -> None:
    """The recovery path did its work, not just "nothing broke": every
    rejoin (restart or heal, scheduled or forced) was timed, and every
    member that died holding keys got them back from its WAL — a restart
    that came up empty and was refilled by anti-entropy alone would pass
    the convergence checks while the durability layer did nothing."""
    rejoins = sum(
        1 for entry in driver.log
        if entry.removeprefix("auto-").startswith(("restart:", "heal:"))
    )
    times = driver.recovery_times_s
    report.record(
        "recoveries_timed",
        len(times) == rejoins and all(t > 0 for t in times),
        f"{rejoins} rejoin(s) fired but recovery timings are {times}",
    )
    came_back_empty = {
        node: held
        for node, held in driver.held_at_kill.items()
        if held
        and (node not in wal_stats or _wal_restored(wal_stats[node]) < held)
    }
    report.record(
        "wal_reloaded",
        not came_back_empty,
        "restarted member(s) reloaded fewer WAL entries than the keys they "
        f"held when killed: {came_back_empty}",
    )
