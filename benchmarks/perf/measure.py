"""Shared measuring helpers: percentiles, repetition summaries, the
time-budgeted repetition loop, and the provenance envelope every result
file carries."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Sequence, TypeVar

SCHEMA = "repro.perf/v1"
REPO_ROOT = Path(__file__).resolve().parents[2]
# The contract with the benchmark driver: command, workloads, and every
# metric's name, unit, direction and bound.
CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

T = TypeVar("T")


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    order statistics — numpy's default method, from raw samples rather
    than histogram buckets."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q!r}")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(samples: Sequence[float], report: float = 50.0) -> dict:
    """One metric over the repetitions of a run: the reported ``value``
    (the ``report``-th percentile; the median unless told otherwise), the
    quartiles, the extremes, and every sample."""
    return {
        "value": percentile(samples, report),
        "median": statistics.median(samples),
        "q25": percentile(samples, 25),
        "q75": percentile(samples, 75),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": list(samples),
    }


MAX_REPS = 16


def repeat_for(
    rep: Callable[[], T], seconds: float, min_reps: int = 3
) -> list[T]:
    """Run ``MAX_REPS`` fixed-work repetitions, fewer (but at least
    ``min_reps``) when ``seconds`` run out first. The budget only limits
    how many samples the median is taken over, never how much work one
    sample does, so per-repetition counts repeat exactly; the cap keeps
    what accumulates over a run (peak RSS) from depending on how fast the
    machine is."""
    out: list[T] = []
    deadline = time.perf_counter() + seconds
    while len(out) < min_reps or (
        len(out) < MAX_REPS and time.perf_counter() < deadline
    ):
        out.append(rep())
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None  # not a git checkout (the benchmark driver's copy)
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, seconds: float, quick: bool) -> dict:
    """Where a number came from: enough to tell two result files apart
    and to refuse comparing runs of different inputs."""
    import numpy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "schema": SCHEMA,
        "git_commit": commit[:12] if commit else None,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "platform": sys.platform,
        "seed": seed,
        "seconds_per_run": seconds,
        "quick": quick,
        "load_model": "closed loop, one generator thread in the benchmark "
        "process plus the cluster's own event-loop thread",
        "network": "host loopback (127.0.0.1); in-process for edge-inproc",
        "wal_flush_policy": "flush to OS on every append, fsync=False",
        "codec": "json",
        "claim": None,
    }
