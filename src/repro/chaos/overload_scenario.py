"""Overload chaos: drive the ring past its knee and verify graceful brownout.

The other chaos scenarios break *machines*; this one breaks the *load*.
An open-loop generator (the same harness as ``benchmarks/bench_loadgen``)
fires key-claim batches at a live ring in two steps — at the knee, then at
twice the knee — while the ring's own agents keep ingesting a seeded file
workload through the overloaded index. The service plane is expected to
degrade *by design*:

- the bounded admission queue sheds excess work with typed
  :class:`~repro.rpc.errors.RpcOverloadError` pushback (a shed is not a
  failure: the generator accounts it separately, and conservation
  ``arrivals == completed + shed + failed`` must hold exactly);
- circuit breakers open on the pushback, converting queue-time into
  fail-fast, so the latency of *admitted* requests stays bounded — the
  headline gate is p99-of-admitted at 2x knee within a small factor of
  the at-knee p99, instead of the unbounded queueing collapse an
  unprotected ring exhibits past saturation;
- the agents' index lookups hit the same shedding servers, trip their
  :class:`~repro.dedup.brownout.BrownoutIndex` wrappers into
  write-through, and journal every unverified claim;
- after the load stops, :meth:`~repro.system.ring.D2Ring.reconcile_brownouts`
  replays the journals and the final dedup ratio must equal the unloaded
  in-process baseline **bit-for-bit** — overload may cost redundant
  uploads, never dedup correctness.

The redundant-upload cost is itself checked exactly: every chunk the cloud
received beyond the final unique count must be accounted for by the
brownout's corrected (false-unique) claims.

Exposed as ``repro chaos overload`` on the CLI and measured by
``benchmarks/bench_overload.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

from repro.chaos.report import ScenarioReport
from repro.loadgen.arrivals import make_arrivals
from repro.loadgen.identity import IdentityPool
from repro.loadgen.runner import OpenLoopRunner, StepResult
from repro.loadgen.seeding import derive_seed
from repro.loadgen.workload import ZipfWorkload
from repro.system.config import EFDedupConfig
from repro.system.reference import (
    reference_ring,
    round_robin,
    seeded_pool_workload,
)
from repro.system.ring import D2Ring

# Loadgen key namespaces start with this marker; ring-index fingerprints are
# hex digests, so the prefix cleanly separates the two key populations when
# checking the index-vs-cloud invariant.
_LOAD_KEY_PREFIX = "fp-"

# The beyond-knee step offers knee_rps x this.
OVERLOAD_FACTOR = 2.0
# Fingerprints claimed per generated request.
LOAD_BATCH = 4

# The service-plane protection under test.
ADMISSION_QUEUE = 12
SERVICE_WORKERS = 2
DEADLINE_S = 0.2
BREAKER_FAILURES = 5
RETRY_BUDGET = 10.0

# Gate: p99-of-admitted at the overload step must stay within this factor
# of the (floored) at-knee p99.
LATENCY_BOUND_FACTOR = 10.0

# The beyond-knee window also inflates every member's service time by this
# constant (a fleet-wide gray failure via FaultInjector.slow_serves with
# sigma 0). This pins per-node capacity at roughly
# SERVICE_WORKERS / SLOW_MEDIAN_S messages/s regardless of host speed, so
# the overload step is *actually* past the knee on any machine — without
# it, a fast host can swallow the nominal 2x rate and nothing sheds.
SLOW_MEDIAN_S = 0.004

# The at-knee p99 reference is floored before the bound multiplies it: on a
# fast machine the unloaded p99 can be a few milliseconds, and 10x of almost
# nothing would gate on scheduler jitter rather than on queueing behavior.
# 10ms ~ the smallest reference where the bound still dominates the bounded
# queue's worst-case wait (ADMISSION_QUEUE x SLOW_MEDIAN_S / workers per hop).
MIN_REFERENCE_P99_S = 10e-3


def _load_step(
    ring: D2Ring,
    members: list[str],
    rate: float,
    duration_s: float,
    seed: int,
    step: int,
) -> StepResult:
    """One open-loop step against the live ring's KV store, with overload
    pushback (:class:`RpcOverloadError`, :class:`CircuitOpenError`)
    classified as shed rather than failed."""
    from repro.rpc.errors import CircuitOpenError, RpcOverloadError

    trial_seed = derive_seed("overload", seed, step, 0)
    pool = IdentityPool(1_000, 16, members, seed=seed)
    workload = ZipfWorkload(
        pool,
        batch=LOAD_BATCH,
        source_s=1.1,
        key_s=0.8,
        keys_per_source=50_000,
        namespace=f"ovl{step}",
        seed=trial_seed,
    )
    arrivals = make_arrivals("poisson", rate, seed=trial_seed)
    schedule = arrivals.schedule(duration_s)
    runner = OpenLoopRunner(
        ring.store.submit_put_if_absent_many,
        members,
        drain_timeout_s=10.0,
        shed_types=(RpcOverloadError, CircuitOpenError),
    )
    return runner.run(schedule, workload.requests(len(schedule)), duration_s)


def run_overload_scenario(
    nodes: int = 3,
    files_per_node: int = 4,
    file_kb: int = 32,
    seed: int = 7,
    gamma: int = 2,
    lookup_batch: int = 16,
    knee_rps: float = 400.0,
    duration_s: float = 0.6,
) -> ScenarioReport:
    """Run the overload scenario; see the module docstring.

    Args:
        knee_rps: the at-knee offered load (measure it with
            ``benchmarks/bench_loadgen.py`` / ``bench_overload.py`` —
            400 req/s is a conservative 3-node localhost default).
        duration_s: offered window per step; ring agents ingest their file
            workload concurrently with the beyond-knee step.
    """
    workloads = seeded_pool_workload(nodes, files_per_node, file_kb, seed)
    members = sorted(workloads)
    schedule = round_robin(workloads)
    overload_rps = knee_rps * OVERLOAD_FACTOR
    reference = EFDedupConfig(
        chunk_size=4096,
        replication_factor=gamma,
        lookup_batch=lookup_batch,
    )
    baseline_ratio = reference_ring(members, schedule, reference).dedup_ratio
    protected = replace(
        reference,
        transport="asyncio",
        rpc_timeout_s=0.5,
        rpc_attempts=3,
        rpc_deadline_s=DEADLINE_S,
        admission_queue=ADMISSION_QUEUE,
        service_workers=SERVICE_WORKERS,
        breaker_failures=BREAKER_FAILURES,
        retry_budget=RETRY_BUDGET,
        brownout=True,
    )

    from repro.rpc.faults import FaultInjector

    injector = FaultInjector(seed=seed)
    with D2Ring(
        "overload-0", members, config=protected, fault_injector=injector
    ) as ring:
        # Step 1 — at the knee, unloaded by ingest: the latency reference.
        knee_step = _load_step(ring, members, knee_rps, duration_s, seed, step=0)

        # Step 2 — beyond the knee, with the agents ingesting through the
        # same (now shedding) index servers. The generator runs in a
        # thread so both hit the ring concurrently, like independent edge
        # populations would. A fleet-wide constant service-time inflation
        # pins the knee below the offered rate on any host.
        slow_rules = [
            injector.slow_serves(SLOW_MEDIAN_S, dst=member) for member in members
        ]
        overload_box: list[StepResult] = []

        def drive() -> None:
            overload_box.append(
                _load_step(ring, members, overload_rps, duration_s, seed, step=1)
            )

        generator = threading.Thread(target=drive, name="overload-loadgen")
        generator.start()
        try:
            for node_id, data in schedule:
                ring.agent(node_id).ingest(data)
        finally:
            generator.join()
            for rule in slow_rules:
                injector.remove_rule(rule)
        overload_step = overload_box[0]

        # Heal: let breakers half-open and queues drain, then reconcile
        # the brownout journals against the recovered index. A still-hot
        # probe can re-trip the first attempt; retry briefly.
        reconcile: dict[str, int] = {}
        deadline = time.perf_counter() + 10.0
        while True:
            try:
                reconcile = ring.reconcile_brownouts()
                break
            except Exception:
                if time.perf_counter() >= deadline:
                    raise
                time.sleep(0.1)

        brownout = ring.brownout_metrics()
        stats = ring.combined_stats()
        cloud = ring.cloud
        report = ScenarioReport("overload", seed, nodes, len(schedule))
        report.measurements.update(
            knee_rps=knee_rps,
            overload_rps=overload_rps,
            knee_step=knee_step.as_dict(),
            overload_step=overload_step.as_dict(),
            shed_fraction=(
                overload_step.shed / overload_step.arrivals
                if overload_step.arrivals
                else 0.0
            ),
            latency_bound_factor=LATENCY_BOUND_FACTOR,
            breaker_opens=(
                ring.live_cluster.client.breakers.open_count
                if ring.live_cluster.client.breakers is not None
                else 0
            ),
            brownout=brownout,
            reconcile=reconcile,
            server_stats=ring.live_cluster.server_stats(),
        )

        report.record(
            "shed_nonzero",
            overload_step.shed > 0,
            f"beyond-knee step at {overload_rps:.0f} req/s shed nothing "
            f"(queue bound {ADMISSION_QUEUE} never filled?)",
        )
        report.record(
            "arrivals_conserved",
            overload_step.arrivals
            == overload_step.completed + overload_step.shed + overload_step.failed
            and knee_step.arrivals
            == knee_step.completed + knee_step.shed + knee_step.failed,
            f"arrivals {overload_step.arrivals} != completed "
            f"{overload_step.completed} + shed {overload_step.shed} "
            f"+ failed {overload_step.failed}",
        )
        # The reference is the at-knee p99, floored twice: by the host-
        # jitter minimum, and by the wait a full admission queue
        # necessarily imposes on every admitted request under the synthetic
        # gray failure (queue depth x inflated service time / drain
        # workers). Without the second floor the gate would punish the
        # protection for the injected slowness itself; the end-to-end
        # deadline still caps the admitted tail well inside the bound.
        queue_wait_s = ADMISSION_QUEUE * SLOW_MEDIAN_S / SERVICE_WORKERS
        reference_p99 = max(knee_step.p99_s, MIN_REFERENCE_P99_S, queue_wait_s)
        report.record(
            "admitted_latency_bounded",
            overload_step.completed > 0
            and overload_step.p99_s <= LATENCY_BOUND_FACTOR * reference_p99,
            f"p99-of-admitted {overload_step.p99_s * 1e3:.1f}ms at "
            f"{overload_rps:.0f} req/s exceeds {LATENCY_BOUND_FACTOR:g}x "
            f"the at-knee reference {reference_p99 * 1e3:.1f}ms (largest gc "
            f"pause {overload_step.max_gc_pause_s * 1e3:.1f}ms, dispatch lag "
            f"{overload_step.max_dispatch_lag_s * 1e3:.1f}ms)"
            if overload_step.completed
            else f"no admitted request completed at {overload_rps:.0f} req/s "
            f"({overload_step.shed} shed, {overload_step.failed} failed of "
            f"{overload_step.arrivals} arrivals), so no p99 bounds them",
        )
        report.record_ratio(stats.dedup_ratio, baseline_ratio, "unloaded")
        report.record(
            "claims_conserved",
            stats.raw_chunks == stats.unique_chunks + stats.duplicate_chunks,
            f"raw={stats.raw_chunks} != unique={stats.unique_chunks} "
            f"+ duplicate={stats.duplicate_chunks}",
        )
        corrected = brownout["corrected_chunks"]
        report.record(
            "redundant_uploads_accounted",
            cloud.received_chunks == stats.unique_chunks + corrected,
            f"cloud received {cloud.received_chunks} uploads but final "
            f"unique={stats.unique_chunks} + brownout-corrected={corrected}",
        )
        index_fps = {
            key
            for key in ring.store.unique_keys()
            if not key.startswith(_LOAD_KEY_PREFIX)
        }
        cloud_fps = cloud.fingerprints()
        report.record(
            "no_unique_chunk_lost",
            index_fps == cloud_fps,
            f"{len(index_fps - cloud_fps)} index keys missing from the "
            f"cloud, {len(cloud_fps - index_fps)} cloud chunks missing "
            f"from the index",
        )
        report.record(
            "journal_drained",
            brownout["journal_depth"] == 0 and brownout["active"] == 0,
            f"journal depth {brownout['journal_depth']} "
            f"active {brownout['active']} after reconcile",
        )
    return report
