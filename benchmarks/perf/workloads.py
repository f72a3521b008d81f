"""The reference deployment and the six named workloads.

Every workload is a fixed amount of work per *repetition* (files,
batches — never a duration), so the counts a repetition produces repeat
exactly; the runner decides only how many repetitions fit its time
budget. Sizes are constants, not scaled to the machine: on the durable
path ``RefcountGC.incr`` costs O(ledger) per call today, so ingest MB/s
is a function of corpus size and only equal sizes compare.

Reference deployment (all workloads): one D2-ring of three members,
gamma = 2, consistency ONE, FastCDC at 8 KiB, ``lookup_batch=64``,
``content_batch=16``, RS(3, 2) cloud tier, synchronous spill, no agent
cache, JSON codec, index WAL with the default flush-to-OS policy.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager

import corpus
from measure import percentile

from repro.chaos.invariants import check_invariants
from repro.core.costs import SNOD2Problem
from repro.core.model import ChunkPoolModel, grouped_sources
from repro.dedup.engine import DedupEngine
from repro.dedup.recipes import RecipeError
from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import KVStoreError
from repro.loadgen.identity import IdentityPool
from repro.loadgen.workload import ZipfWorkload
from repro.network.costmatrix import latency_cost_matrix
from repro.network.topology import build_testbed
from repro.system.cluster import DurableEFDedupCluster, EFDedupCluster
from repro.system.config import EFDedupConfig

N_NODES = 3
CHUNK_SIZE = 8192
EC_DATA, EC_PARITY = 3, 2
MIB = 1 << 20

# What an operation of the measured program may raise when it fails, is
# refused or runs out of retries; anything else is a bug and propagates.
OPERATION_ERRORS = (KVStoreError, RecipeError, KeyError)

RequestScope = Callable[[str], ContextManager]


def no_request(_request_id: str) -> ContextManager:
    return nullcontext()


def reference_config(
    transport: str, data_dir: str | None = None, secure: bool = False
) -> EFDedupConfig:
    return EFDedupConfig(
        chunk_size=CHUNK_SIZE,
        chunking_algo="fastcdc",
        replication_factor=2,
        consistency=ConsistencyLevel.ONE,
        lookup_batch=64,
        content_batch=16,
        transport=transport,
        rpc_codec="json",
        # Generous, so a scheduler stall on a shared box shows up as
        # latency instead of as a retry that changes the call counts.
        rpc_timeout_s=2.0,
        data_dir=data_dir,
        ec_data_shards=EC_DATA,
        ec_parity_shards=EC_PARITY,
        spill_mode="sync",
        cache_capacity=0,
        secure=secure,
    )


class Deployment:
    """One booted reference cluster and the scratch directory it owns.

    ``kind`` picks the rung: ``ring-inproc`` (accounting-only cloud,
    in-process index), ``ring-live`` (the same over loopback RPC with the
    index WAL), ``durable-inproc`` (payload plane, erasure tier and
    refcount journal over the in-process index) and ``durable-live``
    (the product: all of it over loopback).
    """

    KINDS = ("ring-inproc", "ring-live", "durable-inproc", "durable-live")

    def __init__(self, kind: str, work_root: Path, secure: bool = False) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown deployment kind {kind!r}")
        self.kind = kind
        self.durable = kind.startswith("durable")
        live = kind.endswith("live")
        self.dir = Path(tempfile.mkdtemp(prefix=f"{kind}-", dir=work_root))
        topology = build_testbed(N_NODES, N_NODES)
        self.node_ids = topology.node_ids
        problem = SNOD2Problem(
            model=ChunkPoolModel(
                [150.0, 150.0],
                grouped_sources(
                    [i % 2 for i in range(N_NODES)], [[0.9, 0.1], [0.1, 0.9]], 80.0
                ),
            ),
            nu=latency_cost_matrix(topology),
            duration=2.0,
            gamma=2,
            alpha=50.0,
        )
        config = reference_config(
            "asyncio" if live else "inproc",
            data_dir=str(self.dir / "wal") if live else None,
            secure=secure,
        )
        try:
            if self.durable:
                self.cluster = DurableEFDedupCluster(
                    topology, problem, config=config,
                    journal_dir=str(self.dir / "journal"),
                )
            else:
                self.cluster = EFDedupCluster(topology, problem, config=config)
            self.cluster.partition = [list(range(N_NODES))]
            self.cluster.deploy()
        except BaseException:
            shutil.rmtree(self.dir, ignore_errors=True)
            raise

    @property
    def ring(self):
        return self.cluster.rings[0]

    def ingest(self, index: int, data: bytes) -> None:
        """Ingest file number ``index`` at the agent it is dealt to."""
        node = self.node_ids[index % N_NODES]
        if self.durable:
            self.cluster.ingest_file(node, f"file-{index}", data)
        else:
            self.cluster.ingest(node, data)

    def stored_bytes(self) -> int:
        """Bytes kept for the files ingested: tier shards plus edge
        shelves, or the accounting cloud's unique bytes when there is no
        payload plane."""
        if not self.durable:
            return self.cluster.cloud.stored_bytes
        shelves = sum(ring.content.stats.put_bytes for ring in self.cluster.rings)
        return self.tier_bytes() + shelves

    def tier_bytes(self) -> int:
        return int(self.cluster.tier.metrics()["stored_shard_bytes"])

    def disk_bytes(self) -> int:
        """Bytes of WAL, snapshot and journal files on disk."""
        return sum(p.stat().st_size for p in self.dir.rglob("*") if p.is_file())

    def counters(self) -> dict:
        """The program's own public counters, ring prefix stripped."""
        collected = self.cluster.metrics_hub().collect()
        return {k.removeprefix("ring-0."): v for k, v in collected.items()}

    def close(self) -> None:
        try:
            self.cluster.shutdown()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


@dataclass
class Rep:
    """One timed repetition: its end-to-end values and raw material."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    wall_s: float
    op_ms: list[float]
    extras: dict[str, float] = field(default_factory=dict)
    # Named correctness failures seen inside the repetition.
    problems: list[str] = field(default_factory=list)


def timed_ops(
    request_ids: list[str], op: Callable[[int], "str | None"], request: RequestScope
) -> tuple[list[float], list[str], float]:
    """The closed loop every repetition is: ``op(i)`` once per request id,
    each timed, each inside its request scope. ``op`` returns a named
    problem or None; an operation the program fails, refuses or gives up
    on is a problem too. Returns (ms per operation, problems, wall s)."""
    op_ms: list[float] = []
    problems: list[str] = []
    started = time.perf_counter()
    for i, request_id in enumerate(request_ids):
        t0 = time.perf_counter()
        with request(request_id):
            try:
                problem = op(i)
            except OPERATION_ERRORS as exc:
                problem = f"{request_id}: {type(exc).__name__}"
        if problem:
            problems.append(problem)
        op_ms.append((time.perf_counter() - t0) * 1e3)
    return op_ms, problems, time.perf_counter() - started


class Workload:
    name: str
    why: str
    kind: str

    def __init__(self, quick: bool = False, plant_corruption: bool = False) -> None:
        self.quick = quick
        # Self-test of the restore workloads' byte-compare gate: flip one
        # bit of one restored file before it is compared.
        self.plant_corruption = plant_corruption

    def prepare(self, seed: int) -> None:
        """Generate the inputs and the expected outputs from ``seed``."""
        raise NotImplementedError

    def boot(self, work_root: Path) -> Deployment:
        return Deployment(self.kind, work_root)

    def populate(self, dep: Deployment) -> None:
        """Untimed pre-population of the fresh cluster a repetition runs
        on. Every repetition boots its own: a second ingest pass over a
        used cluster would be all duplicates, and a node server remembers
        its last 4096 responses for replay, so restores from a long-lived
        one slow down and grow by the size of every file they return."""

    def rep(self, dep: Deployment, request: RequestScope = no_request) -> Rep:
        raise NotImplementedError

    def verify(self, dep: Deployment) -> list[str]:
        """Correctness gates run after the timed section (some perform
        anti-entropy passes); returns the named failures."""
        raise NotImplementedError

    def inputs(self) -> dict:
        """What was ingested, for the result file."""
        raise NotImplementedError


def _invariant_failures(dep: Deployment) -> list[str]:
    return [f"invariant {v}" for v in check_invariants(dep.ring).violations]


# --------------------------------------------------------------------- #
# file workloads
# --------------------------------------------------------------------- #


class FileWorkload(Workload):
    n_files: int
    file_bytes: int
    dup: float
    quick_files: int
    segment_bytes = corpus.SEGMENT_BYTES

    def prepare(self, seed: int) -> None:
        n_files = self.quick_files if self.quick else self.n_files
        self.spec = corpus.CorpusSpec(
            seed, n_files, self.file_bytes, self.dup, self.segment_bytes
        )
        self.files = corpus.build(self.spec)
        self.digests = corpus.file_digests(self.files)
        # The expected output: one in-memory engine over the same files.
        engine = DedupEngine(chunker=reference_config("inproc").make_chunker())
        for data in self.files:
            engine.dedup_bytes(data)
        self.expected_ratio = engine.stats.dedup_ratio
        self.chunks = engine.stats.raw_chunks
        self.logical_bytes = self.spec.total_bytes

    def inputs(self) -> dict:
        return {
            "corpus": self.spec.as_dict(),
            "corpus_sha256": corpus.corpus_sha256(self.digests),
            "chunks": self.chunks,
            "dedup_ratio": self.expected_ratio,
        }

    def _rep(self, op, request: RequestScope, exact: dict[str, float]) -> Rep:
        """One pass of ``op`` over every file of the corpus."""
        ids = [f"file-{i}" for i in range(len(self.files))]
        op_ms, problems, wall = timed_ops(ids, op, request)
        metrics = {
            "throughput_mb_s": self.logical_bytes / 1e6 / wall,
            "op_p50_ms": percentile(op_ms, 50),
            **exact,
        }
        return Rep(metrics, len(ids), len(problems), wall, op_ms, problems=problems)

    def _exact(self, dep: Deployment, stored_bytes: int) -> dict[str, float]:
        return {
            "dedup_ratio": dep.cluster.report()["dedup_ratio"],
            "stored_bytes_per_logical_byte": stored_bytes / self.logical_bytes,
        }

    def _ratio_failures(self, dep: Deployment) -> list[str]:
        got = dep.cluster.report()["dedup_ratio"]
        if got != self.expected_ratio:
            return [f"dedup_ratio {got!r} != reference engine {self.expected_ratio!r}"]
        return []

    def _restore_failures(self, dep: Deployment, indexes, phase: str) -> list[str]:
        bad = []
        for i in indexes:
            try:
                out = dep.cluster.restore_file(f"file-{i}")
            except OPERATION_ERRORS as exc:
                bad.append(f"{phase}: file-{i} not restorable ({type(exc).__name__})")
                continue
            if hashlib.sha256(out).hexdigest() != self.digests[i]:
                bad.append(f"{phase}: file-{i} sha256 mismatch")
        return bad


class IngestWorkload(FileWorkload):
    def rep(self, dep: Deployment, request: RequestScope = no_request) -> Rep:
        rep = self._rep(lambda i: dep.ingest(i, self.files[i]), request, {})
        # What is stored is only known once everything is ingested.
        rep.metrics.update(self._exact(dep, dep.stored_bytes()))
        return rep

    def verify(self, dep: Deployment) -> list[str]:
        failures = self._ratio_failures(dep)
        if dep.durable:
            failures += self._restore_failures(
                dep, range(len(self.files)), "after ingest"
            )
            if dep.cluster.tier.under_replicated_stripes:
                failures.append("tier.under_replicated_stripes != 0")
        return failures + _invariant_failures(dep)


class EdgeInproc(IngestWorkload):
    name = "edge-inproc"
    why = (
        "paper-shaped in-process ring: chunking, hashing and the in-process "
        "index do the work; rpc, content, erasure and WAL do none"
    )
    kind = "ring-inproc"
    n_files, file_bytes, dup, quick_files = 16, 4 * MIB, 0.8, 2


class DurableUnique(IngestWorkload):
    name = "durable-unique"
    why = (
        "product write path, nearly all chunks unique: payload frames, RS "
        "encode, spill, refcount journal and WAL dominate; chunking is small"
    )
    kind = "durable-live"
    n_files, file_bytes, dup, quick_files = 8, MIB, 0.1, 2


class DurableDup(IngestWorkload):
    name = "durable-dup"
    why = (
        "product write path, most chunks cross-node duplicates: claims over "
        "RPC, recipes, refcounts and the double chunk+hash dominate"
    )
    kind = "durable-live"
    n_files, file_bytes, dup, quick_files = 16, MIB, 0.9, 4
    # Whole-file repeats. With 256 KiB segments the few chunks FastCDC
    # needs to fall back into step after each join are a third of this
    # corpus's unique bytes, and their number moves the unique-chunk work,
    # and so the throughput, by 11 % between seeds.
    segment_bytes = MIB


class Restore(FileWorkload):
    name = "restore"
    why = (
        "healthy read path from the edge shelves over loopback: content, "
        "rpc and recipe verification used the other way round"
    )
    kind = "durable-live"
    n_files, file_bytes, dup, quick_files = 8, MIB, 0.5, 2
    degraded = False

    def populate(self, dep: Deployment) -> None:
        for i, data in enumerate(self.files):
            dep.ingest(i, data)
        stored = dep.stored_bytes()
        if self.degraded:
            for ring in dep.cluster.rings:
                ring.content.clear()
            for zone in range(EC_PARITY):
                dep.cluster.fail_zone(zone)
            stored = dep.tier_bytes()  # the shelves were just emptied
        self.exact = self._exact(dep, stored)

    def rep(self, dep: Deployment, request: RequestScope = no_request) -> Rep:
        def restore(i: int) -> "str | None":
            out = dep.cluster.restore_file(f"file-{i}")
            if self.plant_corruption and i == 0:
                out = out[:-1] + bytes([out[-1] ^ 1])
            if out != self.files[i]:
                return f"{self.name}: file-{i} restored bytes differ"
            return None

        return self._rep(restore, request, self.exact)

    def verify(self, dep: Deployment) -> list[str]:
        failures = self._ratio_failures(dep)
        failures += self._restore_failures(dep, range(len(self.files)), self.name)
        return failures + _invariant_failures(dep)


class RestoreDegraded(Restore):
    name = "restore-degraded"
    why = (
        "edge copies evicted and two tier zones down: every byte comes from "
        "k-of-n reconstruction, so erasure decides and rpc payload frames do not"
    )
    degraded = True

    def verify(self, dep: Deployment) -> list[str]:
        failures = self._ratio_failures(dep)
        everything = range(len(self.files))
        failures += self._restore_failures(dep, everything, "degraded")
        for zone in range(EC_PARITY):
            dep.cluster.recover_zone(zone)
        if dep.cluster.tier.under_replicated_stripes:
            failures.append("tier.under_replicated_stripes != 0 after recovery")
        doomed = [i for i in everything if i % 2]
        for i in doomed:
            dep.cluster.delete_file(f"file-{i}")
        sweep = dep.cluster.gc_sweep()
        if sweep.orphans_adopted:
            failures.append(f"sweep.orphans_adopted == {sweep.orphans_adopted}")
        survivors = [i for i in everything if not i % 2]
        failures += self._restore_failures(dep, survivors, "after sweep")
        return failures + _invariant_failures(dep)


# --------------------------------------------------------------------- #
# index service plane
# --------------------------------------------------------------------- #


class Claims(Workload):
    name = "claims"
    why = (
        "fingerprint claims only, no chunking or payloads: isolates rpc "
        "framing/client/server and the kvstore node + WAL from the data path"
    )
    kind = "ring-live"
    # Two batch sizes: per-message cost sets the 8-key rate, per-key cost
    # the 64-key rate (64 is the reference deployment's lookup_batch).
    small_batch, small_n, small_n_quick = 8, 400, 60
    bulk_batch, bulk_n, bulk_n_quick = 64, 60, 10

    def prepare(self, seed: int) -> None:
        node_ids = build_testbed(N_NODES, N_NODES).node_ids
        pool = IdentityPool(10_000, 48, node_ids, seed=seed)
        self.phases = {}
        for label, batch, n in (
            ("small", self.small_batch, self.small_n_quick if self.quick else self.small_n),
            ("bulk", self.bulk_batch, self.bulk_n_quick if self.quick else self.bulk_n),
        ):
            stream = ZipfWorkload(
                pool, batch=batch, key_s=0.8, namespace=label, seed=seed
            )
            self.phases[label] = list(stream.requests(n))
        keys = [k for reqs in self.phases.values() for r in reqs for k in r.keys]
        self.n_keys = len(keys)
        self.n_distinct = len(set(keys))
        self.key_bytes = sum(len(k) for k in keys)
        self.keys_sha256 = hashlib.sha256("\n".join(keys).encode()).hexdigest()

    def inputs(self) -> dict:
        return {
            "keys": self.n_keys,
            "distinct_keys": self.n_distinct,
            "keys_sha256": self.keys_sha256,
            "batches": {label: len(reqs) for label, reqs in self.phases.items()},
        }

    def rep(self, dep: Deployment, request: RequestScope = no_request) -> Rep:
        store = dep.ring.store
        new = 0
        problems: list[str] = []
        elapsed: dict[str, float] = {}
        latencies: dict[str, list[float]] = {}
        for label, requests in self.phases.items():

            def claim(i: int) -> None:
                nonlocal new
                req = requests[i]
                new += sum(
                    store.put_if_absent_many(req.keys, "", coordinator=req.coordinator)
                )

            ids = [f"{label}-{req.seq}" for req in requests]
            latencies[label], failed, elapsed[label] = timed_ops(ids, claim, request)
            problems += failed
        failed_ops = len(problems)
        if new != self.n_distinct:
            problems.append(
                f"claims: {new} new verdicts for {self.n_distinct} distinct keys"
            )
        keys_s = len(self.phases["bulk"]) * self.bulk_batch / elapsed["bulk"]
        metrics = {
            # The ingest rate the index plane alone could carry: one key
            # stands for one chunk of the reference chunk size.
            "throughput_mb_s": keys_s * CHUNK_SIZE / 1e6,
            "op_p50_ms": percentile(latencies["small"], 50),
            "dedup_ratio": self.n_keys / new if new else 0.0,
            # For a bare index the stored bytes are its WAL files.
            "stored_bytes_per_logical_byte": dep.disk_bytes() / self.key_bytes,
        }
        extras = {
            "claim_batches_s": len(self.phases["small"]) / elapsed["small"],
            "claim_keys_s": keys_s,
            "claim_new_fraction": new / self.n_keys,
        }
        attempted = sum(len(reqs) for reqs in self.phases.values())
        return Rep(
            metrics, attempted, failed_ops, sum(elapsed.values()),
            latencies["small"], extras, problems,
        )

    def verify(self, dep: Deployment) -> list[str]:
        from repro.rpc.repair import RemoteReplicaRepairer

        failures = []
        stored = len(dep.ring.store.unique_keys())
        if stored != self.n_distinct:
            failures.append(
                f"index holds {stored} keys, {self.n_distinct} distinct submitted"
            )
        RemoteReplicaRepairer(dep.ring.store).repair_all()
        second = RemoteReplicaRepairer(dep.ring.store)
        if second.repair_all().synced_keys:
            failures.append("replicas not converged after one anti-entropy pass")
        if second.verify_replication():
            failures.append("keys under-replicated on alive nodes")
        return failures


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (EdgeInproc, DurableUnique, DurableDup, Restore, RestoreDegraded, Claims)
}
