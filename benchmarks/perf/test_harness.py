"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Not named ``bench_*``, so CI's ``pytest benchmarks/ --benchmark-only``
skips it; tier-1 (``testpaths = tests``) never collects it.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import spans  # noqa: E402
from compare import verdict  # noqa: E402
from measure import percentile  # noqa: E402
from spans import Span  # noqa: E402
from workloads import WORKLOADS, Restore  # noqa: E402


def _span(span_id, parent_id, start, end, layer="x", tid=1):
    return Span(span_id, parent_id, f"s{span_id}", layer, tid, "", start, end)


class TestSelfTime:
    def test_nested(self):
        selfs = spans.self_times(
            [_span(1, 0, 0.0, 10.0), _span(2, 1, 2.0, 8.0), _span(3, 2, 3.0, 4.0)]
        )
        assert selfs == {1: 4.0, 2: 5.0, 3: 1.0}

    def test_siblings(self):
        selfs = spans.self_times(
            [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 3.0), _span(3, 1, 5.0, 9.0)]
        )
        assert selfs[1] == pytest.approx(4.0)

    def test_overlapping_children_are_not_subtracted_twice(self):
        selfs = spans.self_times(
            [_span(1, 0, 0.0, 10.0), _span(2, 1, 1.0, 6.0), _span(3, 1, 4.0, 8.0)]
        )
        assert selfs[1] == pytest.approx(3.0)  # children cover [1, 8]

    def test_child_overhanging_its_parent_is_clipped(self):
        selfs = spans.self_times([_span(1, 0, 2.0, 6.0), _span(2, 1, 5.0, 9.0)])
        assert selfs[1] == pytest.approx(3.0)

    def test_layer_sums_partition_one_thread(self):
        recorded = [
            _span(1, 0, 0.0, 10.0, "benchmark"),
            _span(2, 1, 1.0, 9.0, "system"),
            _span(3, 2, 2.0, 5.0, "rpc"),
            _span(4, 0, 2.0, 4.0, "kvstore", tid=2),  # loop thread: beside, not inside
        ]
        sums = spans.self_seconds_by(recorded, 1, "layer")
        assert sums == {"benchmark": 2.0, "system": 5.0, "rpc": 3.0}
        assert sum(sums.values()) == pytest.approx(10.0)
        assert spans.off_thread_seconds(recorded, 1, "s4") == pytest.approx(2.0)


class TestWrappers:
    @staticmethod
    def _current():
        out = []
        for module_name, class_name, attr, _ in spans.ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            out.append(vars(owner)[attr])
        return out

    def test_installed_then_restored(self):
        originals = self._current()
        recorder = spans.Recorder()
        with spans.tracing(recorder):
            assert all(
                now is not was for now, was in zip(self._current(), originals)
            )
        assert all(now is was for now, was in zip(self._current(), originals))

    def test_restored_when_the_traced_block_raises(self):
        originals = self._current()
        with pytest.raises(RuntimeError):
            with spans.tracing(spans.Recorder()):
                raise RuntimeError("boom")
        assert all(now is was for now, was in zip(self._current(), originals))

    def test_records_parent_and_request(self):
        from repro.content.gc import RefcountGC

        recorder = spans.Recorder()
        with spans.tracing(recorder):
            with recorder.request("file-0"):
                RefcountGC().incr("fp")
        incr, request = recorder.spans
        assert (incr.name, incr.layer, incr.request) == ("RefcountGC.incr", "content", "file-0")
        assert incr.parent_id == request.span_id and request.parent_id == 0
        assert len(recorder.chrome_trace()["traceEvents"]) > 2


@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 99.9, 100])
def test_percentile_matches_numpy(q):
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 1000):
        samples = rng.exponential(size=n).tolist()
        assert percentile(samples, q) == pytest.approx(np.percentile(samples, q))


class TestCorpus:
    SPEC = dict(n_files=4, file_bytes=1 << 20, dup=0.5)

    def test_same_seed_same_bytes(self):
        a = corpus.build(corpus.CorpusSpec(seed=5, **self.SPEC))
        b = corpus.build(corpus.CorpusSpec(seed=5, **self.SPEC))
        assert a == b
        c = corpus.build(corpus.CorpusSpec(seed=6, **self.SPEC))
        assert corpus.corpus_sha256(corpus.file_digests(a)) != corpus.corpus_sha256(
            corpus.file_digests(c)
        )

    def test_exact_duplicate_share(self):
        spec = corpus.CorpusSpec(seed=1, **self.SPEC)
        files = corpus.build(spec)
        seg = spec.segment_bytes
        segments = [f[i : i + seg] for f in files for i in range(0, len(f), seg)]
        assert len(segments) - len(set(segments)) == round(spec.dup * len(segments))


@pytest.mark.parametrize("name", ["durable-dup", "claims"])
def test_same_seed_gives_identical_exact_metrics(name, tmp_path):
    def once():
        workload = WORKLOADS[name](quick=True)
        workload.prepare(11)
        dep = workload.boot(tmp_path)
        try:
            rep = workload.rep(dep)
            counters = dep.counters()
        finally:
            dep.close()
        exact = {k: rep.metrics[k] for k in ("dedup_ratio", "stored_bytes_per_logical_byte")}
        counts = {k: counters[k] for k in ("rpc.calls", "rpc.wal.appends", "kvstore.writes")}
        return workload.inputs(), exact, counts, rep.failed

    first, second = once(), once()
    assert first == second
    assert first[3] == 0


def test_planted_corruption_trips_the_gate(tmp_path):
    workload = Restore(quick=True, plant_corruption=True)
    workload.prepare(2)
    dep = workload.boot(tmp_path)
    try:
        workload.populate(dep)
        rep = workload.rep(dep)
    finally:
        dep.close()
    assert rep.failed == 1
    assert rep.problems == ["restore: file-0 restored bytes differ"]


def test_one_command_exits_nonzero_on_planted_corruption():
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--quick", "--workload", "restore",
            "--seed", "2", "--trace", "0", "--plant-corruption",
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


class TestVerdict:
    def test_within_and_regression(self):
        a = {"value": 100.0, "q25": 99.0, "q75": 101.0}
        assert verdict(a, {"value": 95.0, "q25": 94.0, "q75": 96.0}, "higher", 0.1) == "within-bound"
        assert verdict(a, {"value": 80.0, "q25": 79.0, "q75": 81.0}, "higher", 0.1) == "regression"
        assert verdict(a, {"value": 120.0, "q25": 119.0, "q75": 121.0}, "lower", 0.1) == "regression"
        assert verdict({"value": 5.0}, {"value": 5.2}, "lower", 0.1) == "within-bound"

    def test_wide_interleaved_runs_are_unresolved(self):
        a = {"value": 100.0, "q25": 80.0, "q75": 120.0}
        b = {"value": 95.0, "q25": 85.0, "q75": 110.0}
        assert verdict(a, b, "higher", 0.1) == "unresolved"
        better = {"value": 150.0, "q25": 130.0, "q75": 170.0}
        assert verdict(a, better, "higher", 0.1) == "within-bound"
