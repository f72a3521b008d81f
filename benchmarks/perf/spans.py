"""Outside-in tracing: timing wrappers the *benchmark* installs around a
fixed table of public layer entry points, and the self-time arithmetic
over the spans they record.

Nothing under ``src/`` changes. :func:`tracing` swaps each entry point in
:data:`ENTRY_POINTS` for a wrapper that records one :class:`Span` per
call — name, layer, thread, start, end, the span that caused it, and the
id of the request (file or batch) it serves — and puts the originals
back on exit, so an untraced run after a traced one executes the
program's own code again. Spans stay in memory until the run ends.

The recorder is deliberately leaner than ``repro.obs.trace.Tracer``
(about 1 us per span against 4): a 1 ms claim batch crosses a dozen
wrapped calls, and the tracer's cost would be a tenth of what it
measures.

A span's *self time* is its duration minus the part of that interval
covered by its child spans on the same thread. Summed per layer on the
caller thread, self times partition the caller's wall clock: what is
left over — the benchmark's own loop — is the unattributed share. Spans
recorded on the cluster's event-loop thread (server-side WAL appends)
overlap the caller's blocked RPC wait, so they are reported beside the
partition, never inside it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterable, Iterator, NamedTuple

# (module, class or None for a module-level function, attribute, layer).
# Layers are this repo's data-path packages. Each attribute is defined on
# the named owner itself. ``make_recipe`` and ``restore_file`` are patched
# on their module, which reaches the cluster facade because it imports
# them at call time.
ENTRY_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.system.cluster", "EFDedupCluster", "ingest", "system"),
    ("repro.system.cluster", "DurableEFDedupCluster", "ingest_file", "system"),
    ("repro.system.cluster", "DurableEFDedupCluster", "restore_file", "system"),
    ("repro.system.cluster", "DurableEFDedupCluster", "delete_file", "system"),
    ("repro.system.agent", "DedupAgent", "ingest", "system"),
    ("repro.system.agent", "RingIndex", "lookup_and_insert_many", "system"),
    ("repro.system.cloud", "CentralCloudStore", "receive_chunk", "system"),
    ("repro.dedup.recipes", None, "make_recipe", "dedup"),
    ("repro.dedup.recipes", None, "restore_file", "dedup"),
    ("repro.dedup.engine", "DedupEngine", "dedup_bytes", "dedup"),
    ("repro.chunking.fastcdc", "FastCDCChunker", "cut_points", "chunking"),
    ("repro.kvstore.store", "DistributedKVStore", "put_if_absent_many", "kvstore"),
    ("repro.kvstore.wal", "WriteAheadLog", "append", "kvstore"),
    ("repro.rpc.remote_store", "RemoteKVStore", "put_if_absent_many", "rpc"),
    ("repro.rpc.remote_store", "RemoteKVStore", "scatter_put_chunks", "rpc"),
    ("repro.rpc.remote_store", "RemoteKVStore", "scatter_get_chunks", "rpc"),
    ("repro.rpc.remote_store", "RemoteKVStore", "scatter_delete_chunks", "rpc"),
    ("repro.rpc.remote_store", "RemoteKVStore", "contains", "rpc"),
    ("repro.rpc.remote_store", "RemoteKVStore", "delete", "rpc"),
    ("repro.content.ring_store", "RingContentStore", "put_chunk", "content"),
    ("repro.content.ring_store", "RingContentStore", "flush", "content"),
    ("repro.content.ring_store", "RingContentStore", "get_many", "content"),
    ("repro.content.plane", "ContentPlane", "spill", "content"),
    ("repro.content.plane", "ContentPlane", "fetch_many", "content"),
    ("repro.content.plane", "ContentPlane", "sweep", "content"),
    ("repro.content.gc", "RefcountGC", "incr", "content"),
    ("repro.content.gc", "RefcountGC", "decr", "content"),
    ("repro.erasure.striped_store", "ErasureCodedChunkStore", "put_chunk", "erasure"),
    ("repro.erasure.striped_store", "ErasureCodedChunkStore", "get_chunk", "erasure"),
    ("repro.erasure.reedsolomon", "ReedSolomonCode", "encode", "erasure"),
    ("repro.erasure.reedsolomon", "ReedSolomonCode", "decode", "erasure"),
)

LAYERS = ("chunking", "dedup", "kvstore", "rpc", "content", "erasure", "system")

# Layer label of the per-request root spans the workloads open themselves;
# its self time is the benchmark's own loop, i.e. unattributed.
BENCHMARK_LAYER = "benchmark"


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0: no parent on this thread
    name: str
    layer: str
    tid: int
    request: str  # id of the file or batch being served; "" outside one
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class Recorder:
    """In-memory span sink with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[tuple[int, str]]] = defaultdict(list)

    def clear(self) -> None:
        self.spans.clear()

    @contextmanager
    def span(self, name: str, layer: str, request: str | None = None) -> Iterator[None]:
        """Record the ``with`` block as one span. ``request`` starts a new
        request id; otherwise the enclosing span's is inherited."""
        tid = threading.get_ident()
        stack = self._stacks[tid]
        parent_id, inherited = stack[-1] if stack else (0, "")
        span_id = next(self._ids)
        request = inherited if request is None else request
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent_id, name, layer, tid, request, start, end)
            )

    def wrap(self, fn, name: str, layer: str):
        """``fn`` with every call recorded — :meth:`span` inlined, because
        this runs thousands of times per repetition."""
        stacks, ids, spans = self._stacks, self._ids, self.spans
        get_ident, clock = threading.get_ident, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = get_ident()
            stack = stacks[tid]
            parent_id, request = stack[-1] if stack else (0, "")
            span_id = next(ids)
            stack.append((span_id, request))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(span_id, parent_id, name, layer, tid, request, start, end)
                )

        return wrapper

    def request(self, request_id: str):
        """Root span for one operation of a workload."""
        return self.span("request", BENCHMARK_LAYER, request=request_id)

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace JSON (``chrome://tracing``, Perfetto):
        one process per thread, one lane per layer, so the lanes read as
        the waterfall of a request from facade to kernel."""
        origin = min((s.start_s for s in self.spans), default=0.0)
        pids = {tid: i + 1 for i, tid in enumerate(sorted({s.tid for s in self.spans}))}
        lanes = {layer: i + 1 for i, layer in enumerate((BENCHMARK_LAYER, *LAYERS))}
        events: list[dict] = [
            {"ph": "M", "pid": pid, "tid": lane, "name": "thread_name",
             "args": {"name": layer}}
            for pid in pids.values() for layer, lane in lanes.items()
        ]
        for s in self.spans:
            events.append(
                {
                    "name": s.name, "cat": s.layer, "ph": "X",
                    "ts": (s.start_s - origin) * 1e6, "dur": s.duration_s * 1e6,
                    "pid": pids[s.tid], "tid": lanes[s.layer],
                    "args": {"span_id": s.span_id, "parent_id": s.parent_id,
                             "request": s.request},
                }
            )
        return {"displayTimeUnit": "ms", "traceEvents": events}


@contextmanager
def tracing(
    recorder: Recorder,
    entry_points: Iterable[tuple[str, str | None, str, str]] = ENTRY_POINTS,
) -> Iterator[Recorder]:
    """Install the wrappers for the ``with`` block; restore on exit."""
    installed: list[tuple[object, str, object]] = []
    try:
        for module_name, class_name, attr, layer in entry_points:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
            label = f"{class_name}.{attr}" if class_name else attr
            setattr(owner, attr, recorder.wrap(original, label, layer))
            installed.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of the intervals
    its children cover (clipped to the span, so overlapping or
    overhanging children are never subtracted twice)."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id:
            children[span.parent_id].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start_s
        for kid in sorted(children.get(span.span_id, ()), key=lambda s: s.start_s):
            lo = max(kid.start_s, cursor)
            hi = min(kid.end_s, span.end_s)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration_s - covered
    return out


def self_seconds_by(spans: Iterable[Span], tid: int, key: str) -> dict[str, float]:
    """Self time of one thread's spans, summed per ``key`` — ``"layer"``
    for the partition of the wall clock, ``"name"`` to see which entry
    point inside a layer holds the time."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.tid == tid:
            totals[getattr(span, key)] += selfs[span.span_id]
    return dict(totals)


def off_thread_seconds(spans: Iterable[Span], tid: int, name: str) -> float:
    """Total duration of the spans called ``name`` on threads other than
    ``tid`` (work the cluster's loop thread did while the caller waited)."""
    return sum(s.duration_s for s in spans if s.name == name and s.tid != tid)
