"""Drive a live D2-ring through a fault scenario and judge the outcome.

:func:`run_scenario` is the harness entry point: it boots a real asyncio
ring (WAL-backed nodes), streams a seeded workload through the agents
round-robin, fires the scenario's fault events at their scheduled ingest
fractions, heals everything, and returns a :class:`ChaosReport` with

- the safety-invariant verdict (:mod:`repro.chaos.invariants`),
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

import random
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.chaos.invariants import InvariantReport, check_invariants
from repro.chaos.scenarios import ChaosScenario, FaultEvent, get_scenario
from repro.kvstore.repair import ReplicaRepairer
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring


def seeded_pool_workload(
    n_nodes: int,
    files_per_node: int,
    file_kb: int,
    seed: int,
    block_size: int = 4096,
    pool_blocks: int = 24,
) -> dict[str, list[bytes]]:
    """Deterministic per-node file streams with real cross-node redundancy:
    files draw blocks from one shared pool, so different nodes hold
    duplicate chunks — the workload shape collaborative dedup exists for."""
    rng = random.Random(seed)
    pool = [rng.randbytes(block_size) for _ in range(pool_blocks)]
    blocks_per_file = max(1, (file_kb * 1024) // block_size)
    return {
        f"edge-{n}": [
            b"".join(rng.choice(pool) for _ in range(blocks_per_file))
            for _ in range(files_per_node)
        ]
        for n in range(n_nodes)
    }


def _round_robin(workloads: dict[str, list[bytes]]) -> list[tuple[str, bytes]]:
    """Flatten per-node streams into the interleaved arrival order
    :meth:`~repro.system.ring.D2Ring.ingest_workloads` uses."""
    iters = {nid: iter(files) for nid, files in workloads.items()}
    schedule: list[tuple[str, bytes]] = []
    while iters:
        finished = []
        for nid, it in iters.items():
            data = next(it, None)
            if data is None:
                finished.append(nid)
            else:
                schedule.append((nid, data))
        for nid in finished:
            del iters[nid]
    return schedule


@dataclass
class ChaosReport:
    """Everything a chaos run measured and concluded."""

    scenario: str
    seed: int
    nodes: int
    total_files: int
    events_fired: list[str]
    invariants: InvariantReport
    dedup_ratio: float
    baseline_ratio: float
    recovery_times_s: list[float]
    degraded_seconds: float
    degraded_bytes: int
    healthy_seconds: float
    healthy_bytes: int
    store_stats: dict[str, float] = field(default_factory=dict)
    wal_stats: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def ratio_matches_baseline(self) -> bool:
        return abs(self.dedup_ratio - self.baseline_ratio) < 1e-12

    @property
    def passed(self) -> bool:
        return self.invariants.passed and self.ratio_matches_baseline

    @property
    def degraded_throughput_mb_s(self) -> float:
        if self.degraded_seconds <= 0:
            return 0.0
        return self.degraded_bytes / 1e6 / self.degraded_seconds

    @property
    def healthy_throughput_mb_s(self) -> float:
        if self.healthy_seconds <= 0:
            return 0.0
        return self.healthy_bytes / 1e6 / self.healthy_seconds

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "nodes": self.nodes,
            "total_files": self.total_files,
            "passed": self.passed,
            "events_fired": list(self.events_fired),
            "invariants": self.invariants.as_dict(),
            "dedup_ratio": self.dedup_ratio,
            "baseline_ratio": self.baseline_ratio,
            "ratio_matches_baseline": self.ratio_matches_baseline,
            "recovery_times_s": list(self.recovery_times_s),
            "degraded_throughput_mb_s": self.degraded_throughput_mb_s,
            "healthy_throughput_mb_s": self.healthy_throughput_mb_s,
            "degraded_seconds": self.degraded_seconds,
            "healthy_seconds": self.healthy_seconds,
            "store_stats": dict(self.store_stats),
            "wal_stats": {n: dict(s) for n, s in self.wal_stats.items()},
        }


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
    skip_baseline: bool = False,
) -> ChaosReport:
    """Run one scenario against a fresh live ring; see the module docstring.

    Args:
        scenario: a built-in name (``crash-restart``, ``rolling-restart``,
            ``flapping``, ``partition-heal``) or a custom
            :class:`ChaosScenario`.
        nodes/files_per_node/file_kb/seed: workload shape (deterministic
            per seed).
        gamma: replication factor of the ring index.
        lookup_batch: fingerprints per batched index round trip.
        data_dir: WAL directory (a temp dir when omitted).
        heartbeat_interval_s: > 0 runs the phi-accrual heartbeat prober and
            leaves crash *detection* to it (kills stop being explicitly
            marked down).
        codec: wire codec override.
        skip_baseline: reuse when the caller already knows the fault-free
            ratio (baseline_ratio is then copied from the chaos run).
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
    schedule = _round_robin(workloads)
    total = len(schedule)

    def build_config(transport: str, wal_dir: Optional[str]) -> EFDedupConfig:
        return EFDedupConfig(
            chunk_size=4096,
            replication_factor=gamma,
            lookup_batch=lookup_batch,
            transport=transport,
            rpc_codec=codec,
            data_dir=wal_dir,
            heartbeat_interval_s=heartbeat_interval_s if transport == "asyncio" else 0.0,
        )

    baseline_ratio: Optional[float] = None
    if not skip_baseline:
        ref = D2Ring("chaos-ref", members, config=build_config("inproc", None))
        for node_id, data in schedule:
            ref.agent(node_id).ingest(data)
        baseline_ratio = ref.combined_stats().dedup_ratio

    from repro.rpc.faults import FaultInjector

    injector = FaultInjector(seed=seed)
    tmp = None
    if data_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        data_dir = tmp.name
    try:
        with D2Ring(
            "chaos-0",
            members,
            config=build_config("asyncio", str(data_dir)),
            fault_injector=injector,
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
            invariants = check_invariants(ring)
            ratio = ring.combined_stats().dedup_ratio
            report = ChaosReport(
                scenario=scenario.name,
                seed=seed,
                nodes=nodes,
                total_files=total,
                events_fired=driver.log,
                invariants=invariants,
                dedup_ratio=ratio,
                baseline_ratio=ratio if baseline_ratio is None else baseline_ratio,
                recovery_times_s=driver.recovery_times_s,
                degraded_seconds=degraded_s,
                degraded_bytes=degraded_b,
                healthy_seconds=healthy_s,
                healthy_bytes=healthy_b,
                store_stats=ring.store.stats.snapshot(),
                wal_stats=ring.live_cluster.wal_stats(),
            )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return report
