"""Layer probes and the kernel-to-product waterfall, on one shared corpus.

A probe calls one layer's public entry points directly — from outside,
like every measurement here — on the chunks of a ``durable-unique``
shaped corpus, and reports work per second. The *waterfall* pushes that
same corpus through cumulative rungs, from the FastCDC kernel to the
durable live ring (and once more with the secure tier on), so the drop
from kernel to product is decomposed on one input.

Every probe runs one discarded warm-up and then ``reps`` timed passes of
a fixed amount of work; the median is the metric, min, max and the
samples are kept.
"""

from __future__ import annotations

import base64
import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable

import corpus
from measure import percentile, summary
from workloads import EC_DATA, EC_PARITY, MIB, Deployment, reference_config

from repro.chunking.hashing import default_fingerprint
from repro.content import ContentPlane, RefcountGC
from repro.content.ring_store import RingContentStore
from repro.dedup.engine import DedupEngine
from repro.dedup.recipes import make_recipe, restore_file
from repro.erasure.reedsolomon import ReedSolomonCode
from repro.erasure.striped_store import ErasureCodedChunkStore
from repro.kvstore.store import DistributedKVStore
from repro.kvstore.wal import WriteAheadLog
from repro.rpc.framing import decode_frame, encode_frame
from repro.secure import SecureTier

LOOKUP_BATCH = 64
CONTENT_BATCH = 16

# The cumulative rungs, kernel first; (label, metric).
WATERFALL = (
    ("chunk (FastCDC-8K kernel)", "chunking.fastcdc_mb_s"),
    ("+ fingerprint (SHA-256)", "chunking.chunk_fingerprint_mb_s"),
    ("+ engine, in-memory index", "dedup.engine_mem_mb_s"),
    ("+ ring, in-process index", "system.ring_inproc_mb_s"),
    ("+ loopback RPC, index WAL", "system.ring_live_mb_s"),
    ("payload plane + RS + journal, in-process", "system.durable_inproc_mb_s"),
    ("durable live ring (the product)", "system.durable_live_mb_s"),
    ("+ secure tier", "system.durable_live_secure_mb_s"),
)


def _timed(fn: Callable[[], None]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _batches(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


class Probes:
    def __init__(self, seed: int, work_root: Path, quick: bool) -> None:
        self.work_root = work_root
        self.reps_fast = 2 if quick else 5
        self.reps_cluster = 1 if quick else 3
        spec = corpus.CorpusSpec(seed, 2 if quick else 4, MIB, 0.1)
        self.files = corpus.build(spec)
        self.mb = spec.total_bytes / 1e6
        self.chunker = reference_config("inproc").make_chunker()
        self.recipes = [
            make_recipe(f"file-{i}", data, chunker=self.chunker)
            for i, data in enumerate(self.files)
        ]
        self.views = [c for data in self.files for c in self.chunker.chunk_views(data)]
        fps = [e.fingerprint for r in self.recipes for e in r.entries]
        self.fingerprints = fps
        # Unique chunks in first-seen order: what the payload plane stores.
        self.chunks: dict[str, bytes] = {}
        for fp, view in zip(fps, self.views):
            self.chunks.setdefault(fp, bytes(view.data))
        self.unique_mb = sum(len(d) for d in self.chunks.values()) / 1e6
        self.out: dict[str, dict] = {}

    # -- bookkeeping ---------------------------------------------------- #

    def _rate(self, name: str, unit: str, work: float, fn, reps: int) -> None:
        """``fn()`` returns the seconds one pass of ``work`` units took."""
        fn()  # warm-up, discarded
        self.out[name] = {"unit": unit, **summary([work / fn() for _ in range(reps)])}

    def _count(self, name: str, value: float) -> None:
        self.out[name] = {"unit": "count", "value": value}

    def _scratch(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="probe-", dir=self.work_root))

    # -- chunking, dedup ------------------------------------------------ #

    def chunking_and_dedup(self) -> None:
        chunker, files, reps = self.chunker, self.files, self.reps_fast

        def cut() -> None:
            for data in files:
                for _ in chunker.chunk_views(data):
                    pass

        def fingerprint() -> None:
            for chunk in self.views:
                default_fingerprint(chunk.data)

        def cut_and_fingerprint() -> None:
            for data in files:
                for chunk in chunker.chunk_views(data):
                    default_fingerprint(chunk.data)

        def engine() -> None:
            eng = DedupEngine(chunker=chunker, batch_size=LOOKUP_BATCH)
            for data in files:
                eng.dedup_bytes(data)

        def recipes() -> None:
            for i, data in enumerate(files):
                make_recipe(f"file-{i}", data, chunker=chunker)

        def restore() -> None:
            for recipe in self.recipes:
                restore_file(recipe, self.chunks.__getitem__)

        for name, body in (
            ("chunking.fastcdc_mb_s", cut),
            ("chunking.fingerprint_mb_s", fingerprint),
            ("chunking.chunk_fingerprint_mb_s", cut_and_fingerprint),
            ("dedup.engine_mem_mb_s", engine),
            ("dedup.make_recipe_mb_s", recipes),
            ("dedup.restore_file_mb_s", restore),
        ):
            self._rate(name, "MB/s", self.mb, lambda body=body: _timed(body), reps)

    # -- kvstore -------------------------------------------------------- #

    def kvstore(self) -> None:
        node_ids = [f"edge-{i}" for i in range(3)]
        batches = _batches(self.fingerprints, LOOKUP_BATCH)

        def claims() -> float:
            store = DistributedKVStore(node_ids, replication_factor=2)
            return _timed(
                lambda: [
                    store.put_if_absent_many(batch, "", coordinator=node_ids[0])
                    for batch in batches
                ]
            )

        def appends() -> float:
            scratch = self._scratch()
            try:
                with WriteAheadLog(scratch, "probe") as wal:
                    return _timed(
                        lambda: [
                            wal.append(fp, "", ts, False)
                            for ts, fp in enumerate(self.fingerprints)
                        ]
                    )
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

        n = len(self.fingerprints)
        self._rate("kvstore.inproc_claim_keys_s", "1/s", n, claims, self.reps_fast)
        self._rate("kvstore.wal_appends_s", "1/s", n, appends, self.reps_fast)

    # -- rpc, content (over a live ring) -------------------------------- #

    def rpc_and_content(self) -> None:
        entries = list(self.chunks.items())
        per_file = [
            list(dict.fromkeys(e.fingerprint for e in r.entries)) for r in self.recipes
        ]

        def codec() -> None:
            for batch in _batches(entries, CONTENT_BATCH):
                wire = [[fp, base64.b64encode(d).decode("ascii")] for fp, d in batch]
                frame = encode_frame(
                    {"id": "c1", "method": "put_chunks", "params": {"entries": wire}}
                )
                message, _ = decode_frame(frame)
                for _, row in message["params"]["entries"]:
                    base64.b64decode(row)

        self._rate(
            "rpc.frame_codec_mb_s", "MB/s", self.unique_mb,
            lambda: _timed(codec), self.reps_fast,
        )

        # One live ring per pass; each pass yields all five samples.
        samples: dict[str, list[float]] = {
            "rpc.ping_rtt_p50_us": [], "rpc.put_chunks_mb_s": [],
            "rpc.get_chunks_mb_s": [], "content.shelve_mb_s": [],
            "content.fetch_mb_s": [],
        }
        for rep in range(self.reps_cluster + 1):
            dep = Deployment("ring-live", self.work_root)
            try:
                store, nodes = dep.ring.store, dep.node_ids
                rtts = [r for _ in range(50) for r in store.ping_all().values()]
                groups = [
                    {nodes[k % 3]: batch}
                    for k, batch in enumerate(_batches(entries, CONTENT_BATCH))
                ]
                put_s = _timed(lambda: [store.scatter_put_chunks(g) for g in groups])
                get_s = _timed(
                    lambda: [
                        store.scatter_get_chunks({n: [fp for fp, _ in b]})
                        for g in groups for n, b in g.items()
                    ]
                )
                # The same payloads through the ring's placement and
                # batching (a re-put overwrites the shelf entry).
                shelf = RingContentStore("probe", store, CONTENT_BATCH)

                def shelve() -> None:
                    for fp, data in entries:
                        shelf.put_chunk(fp, data)
                    shelf.flush()

                shelve_s = _timed(shelve)
                fetch_s = _timed(lambda: [shelf.get_many(fps) for fps in per_file])
            finally:
                dep.close()
            if rep == 0:
                continue  # warm-up pass
            samples["rpc.ping_rtt_p50_us"].append(percentile(rtts, 50) * 1e6)
            samples["rpc.put_chunks_mb_s"].append(self.unique_mb / put_s)
            samples["rpc.get_chunks_mb_s"].append(self.unique_mb / get_s)
            samples["content.shelve_mb_s"].append(self.unique_mb / shelve_s)
            samples["content.fetch_mb_s"].append(self.unique_mb / fetch_s)
        for name, values in samples.items():
            unit = "us" if name.endswith("_us") else "MB/s"
            self.out[name] = {"unit": unit, **summary(values)}

    # -- content (in process), erasure, secure -------------------------- #

    def content_erasure_secure(self) -> None:
        entries = list(self.chunks.items())
        reps = self.reps_fast

        def spill() -> float:
            plane = ContentPlane(ErasureCodedChunkStore(EC_DATA, EC_PARITY))
            try:
                return _timed(lambda: [plane.spill(fp, d) for fp, d in entries])
            finally:
                plane.close()

        def incr() -> float:
            scratch = self._scratch()
            try:
                with RefcountGC(journal_dir=scratch) as gc:
                    return _timed(lambda: [gc.incr(fp) for fp in self.fingerprints])
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

        self._rate("content.spill_mb_s", "MB/s", self.unique_mb, spill, reps)
        # Journaled, at this corpus's tracked-fingerprint count: every
        # append rebuilds the whole ledger view today, so ops/s falls as
        # the ledger grows.
        self._rate(
            "content.gc_incr_ops_s", "1/s", len(self.fingerprints), incr, reps
        )

        code = ReedSolomonCode(EC_DATA, EC_PARITY)
        striped = [(code.encode(d), len(d)) for _, d in entries]
        survivors = [(shards[2:], n) for shards, n in striped]  # 2 data shards lost
        self._rate(
            "erasure.rs_encode_mb_s", "MB/s", self.unique_mb,
            lambda: _timed(lambda: [code.encode(d) for _, d in entries]), reps,
        )
        self._rate(
            "erasure.rs_decode_mb_s", "MB/s", self.unique_mb,
            lambda: _timed(lambda: [code.decode(s, n) for s, n in survivors]), reps,
        )

        tiers: list[ErasureCodedChunkStore] = []

        def tier_put() -> float:
            tiers.append(ErasureCodedChunkStore(EC_DATA, EC_PARITY))
            return _timed(lambda: [tiers[-1].put_chunk(fp, d) for fp, d in entries])

        self._rate("erasure.tier_put_mb_s", "MB/s", self.unique_mb, tier_put, reps)
        tier = tiers[-1]
        self._count("erasure.storage_overhead", tier.storage_overhead)
        for zone in range(EC_PARITY):
            tier.fail_zone(zone)
        self._rate(
            "erasure.tier_get_degraded_mb_s", "MB/s", self.unique_mb,
            lambda: _timed(lambda: [tier.get_chunk(fp) for fp, _ in entries]), reps,
        )
        for zone in range(EC_PARITY):
            tier.recover_zone(zone)
        self._count("erasure.under_replicated_stripes", tier.under_replicated_stripes)

        sealed: dict[str, bytes] = {}
        secure = SecureTier()

        def seal() -> None:
            for fp, data in entries:
                sealed[fp] = secure.seal(fp, data)

        self._rate(
            "secure.seal_mb_s", "MB/s", self.unique_mb, lambda: _timed(seal), reps
        )
        self._rate(
            "secure.open_mb_s", "MB/s", self.unique_mb,
            lambda: _timed(lambda: [secure.open(fp, c) for fp, c in sealed.items()]),
            reps,
        )

    # -- the cluster rungs of the waterfall ----------------------------- #

    def rungs(self) -> None:
        sweep_rates: list[float] = []

        def rung(kind: str, secure: bool = False, sweep: bool = False):
            def one_pass() -> float:
                dep = Deployment(kind, self.work_root, secure=secure)
                try:
                    elapsed = _timed(
                        lambda: [dep.ingest(i, d) for i, d in enumerate(self.files)]
                    )
                    if sweep:
                        for i in range(len(self.files)):
                            dep.cluster.delete_file(f"file-{i}")
                        report = dep.cluster.gc_sweep()
                        sweep_rates.append(report.swept / report.elapsed_s)
                    return elapsed
                finally:
                    dep.close()

            return one_pass

        reps = self.reps_cluster
        for name, body in (
            ("system.ring_inproc_mb_s", rung("ring-inproc")),
            ("system.ring_live_mb_s", rung("ring-live")),
            ("system.durable_inproc_mb_s", rung("durable-inproc", sweep=True)),
            ("system.durable_live_mb_s", rung("durable-live")),
            ("system.durable_live_secure_mb_s", rung("durable-live", secure=True)),
        ):
            self._rate(name, "MB/s", self.mb, body, reps)
        self.out["content.gc_sweep_chunks_s"] = {
            "unit": "1/s", **summary(sweep_rates[1:])  # first is the warm-up
        }

    def run(self) -> dict[str, dict]:
        self.chunking_and_dedup()
        self.kvstore()
        self.rpc_and_content()
        self.content_erasure_secure()
        self.rungs()
        return self.out


def waterfall_rows(per_layer: dict[str, dict]) -> list[dict]:
    """The rungs as rows: MB/s with spread, s/GB, the marginal s/GB each
    rung adds over the one before, and whether it is below the previous
    rung to within the two spreads."""
    rows = []
    previous = None
    for label, metric in WATERFALL:
        cell = per_layer[metric]
        s_per_gb = 1000.0 / cell["value"]
        rows.append(
            {
                "rung": label,
                "metric": metric,
                "mb_s": cell["value"],
                "min": cell["min"],
                "max": cell["max"],
                "s_per_gb": s_per_gb,
                "marginal_s_per_gb": (
                    s_per_gb - 1000.0 / previous["value"] if previous else s_per_gb
                ),
                "non_increasing": previous is None or cell["min"] <= previous["max"],
            }
        )
        previous = cell
    return rows
