"""Seeded segment corpus: the only input the measured program ever sees.

A corpus is ``n_files`` files of ``file_bytes`` each, cut into
``segment_bytes`` segments. A share ``dup`` of the segments repeats a
segment emitted earlier *anywhere in the corpus* — files are dealt
round-robin to the ring's agents, so most repeats are cross-node, the
redundancy EF-Dedup exists to remove. Everything is a pure function of
the spec: the same seed gives byte-identical files.

Three choices keep the numbers comparable between seeds and runs:

- the seed decides the *bytes*; the shape — exactly
  ``round(dup * n_segments)`` repeats, fresh segments at evenly spaced
  positions, and which earlier segment each repeat copies — is a function
  of the spec alone. A workload is a shape: drawing every segment
  independently adds binomial noise to the dedup ratio; a seeded placement
  decides how early the refcount ledger fills (with ``RefcountGC.incr``
  costing O(ledger) today that alone moved ``durable-dup`` between 31 and
  41 MB/s); and a seeded choice of sources decides how many repeats land
  in the file they came from, which a restore fetches only once;
- what remains between seeds (about 2 % of the dedup ratio at 256 KiB
  segments) is the chunker itself: after a join FastCDC needs a few
  chunks to fall back into step with the segment's first occurrence, and
  how many depends on the bytes;
- segments are 256 KiB by default. The chunks straddling a join are
  unique, so short segments cap the ratio far below 1/(1-dup): 32 KiB
  segments collapse ``dup=0.9`` to a ratio of 2.4.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass

SEGMENT_BYTES = 256 * 1024


@dataclass(frozen=True)
class CorpusSpec:
    seed: int
    n_files: int
    file_bytes: int
    dup: float
    segment_bytes: int = SEGMENT_BYTES

    def __post_init__(self) -> None:
        if self.n_files < 1 or self.file_bytes < 1:
            raise ValueError("a corpus needs at least one non-empty file")
        if not 0.0 <= self.dup < 1.0:
            raise ValueError(f"dup must be in [0, 1), got {self.dup!r}")
        if self.file_bytes % self.segment_bytes:
            raise ValueError("file_bytes must be a multiple of segment_bytes")

    @property
    def total_bytes(self) -> int:
        return self.n_files * self.file_bytes

    def as_dict(self) -> dict:
        return asdict(self)


def build(spec: CorpusSpec) -> list[bytes]:
    """The corpus's files, in ingest order."""
    content = random.Random(f"perf-corpus:{spec.seed}")
    shape = random.Random("perf-corpus-shape")
    per_file = spec.file_bytes // spec.segment_bytes
    n_segments = spec.n_files * per_file
    # At least one fresh segment: the first has nothing to repeat.
    n_fresh = max(n_segments - round(spec.dup * n_segments), 1)
    fresh_at = {i * n_segments // n_fresh for i in range(n_fresh)}
    fresh: list[bytes] = []
    segments: list[bytes] = []
    for i in range(n_segments):
        if i in fresh_at:
            fresh.append(content.randbytes(spec.segment_bytes))
            segments.append(fresh[-1])
        else:
            segments.append(fresh[shape.randrange(len(fresh))])
    return [
        b"".join(segments[f * per_file : (f + 1) * per_file])
        for f in range(spec.n_files)
    ]


def file_digests(files: list[bytes]) -> list[str]:
    return [hashlib.sha256(data).hexdigest() for data in files]


def corpus_sha256(digests: list[str]) -> str:
    """One digest for the whole corpus (order-sensitive), so two result
    files can prove they ingested identical inputs."""
    return hashlib.sha256("\n".join(digests).encode("ascii")).hexdigest()
