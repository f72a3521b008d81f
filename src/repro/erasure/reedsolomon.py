"""Systematic Reed–Solomon erasure coding.

The paper's future work proposes erasure-coding stored replicas "to make
the data more reliable and save more storage space": an RS(k, m) code keeps
availability through any m shard losses at a storage overhead of m/k —
versus the 2× of the prototype's replication factor 2.

Construction: start from a (k+m)×k Vandermonde matrix over distinct field
elements, then right-multiply by the inverse of its top k×k block. The top
becomes the identity (systematic: data shards are stored verbatim) and any
k rows of the result remain linearly independent, so any k surviving shards
reconstruct the data.

Solving for lost shards is per *survivor set*, not per chunk: the rows that
express every shard of the stripe as a combination of k given survivors are
computed once (one small matrix inversion) and kept in a bounded per-code
cache, so a degraded read or a repair pays only the byte arithmetic for the
shards it is actually missing.

The batch is the unit of the arithmetic: one ``gf_dot`` per planned row
over a batch's concatenated columns (per survivor set, for decode). Every
decode runs through one core, :meth:`ReedSolomonCode.decode_chosen`, fed
``(survivor indexes, blocks, payload length)`` per stripe: ``decode_many``
feeds it caller-supplied shards it has validated, the striped store feeds
it blocks read straight from its zone maps, with no ``Shard`` in between.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from repro.erasure.gf256 import gf_dot, gf_mat_inv, gf_matmul, gf_pow

# Survivor sets whose solved rows a code keeps. RS(3,2) has 10 and RS(4,2)
# has 15, so they never evict; RS(10,4) has 1001, of which an outage
# exercises the few its down zones produce.
SOLVE_CACHE_MAX = 64


class _Plan(NamedTuple):
    rows: list[list[int]]  # each over the k columns, then the rows before it
    walks: int  # table walks per column byte


def _plan_rows(rows: list[list[int]]) -> _Plan:
    """Row i directly, or as earlier row j (coefficient 1 on operand k + j)
    plus ``row i ⊕ row j`` when that costs fewer table walks, then fewer
    XORs — so a plan is never worse than its direct rows. RS(3, 2)'s parity
    rows ``[7, 9, 15]`` and ``[7, 8, 14]`` make shard 4 = shard 3 ⊕ d₁ ⊕ d₂."""

    def walks(row: list[int]) -> int:  # gf_dot walks no table for 0 and 1
        return sum(c > 1 for c in row)

    plan: list[list[int]] = []
    for i, row in enumerate(rows):
        best = list(row)
        cost = (walks(row), sum(c > 0 for c in row) - 1)
        for j, earlier in enumerate(rows[:i]):
            delta = [a ^ b for a, b in zip(row, earlier)]
            derived = (walks(delta), sum(c > 0 for c in delta))
            if derived < cost:
                best, cost = delta + [0] * j + [1], derived
        plan.append(best)
    return _Plan(plan, sum(map(walks, plan)))


def _vandermonde(rows: int, cols: int) -> np.ndarray:
    v = np.zeros((rows, cols), dtype=np.uint8)
    for r in range(rows):
        for c in range(cols):
            v[r, c] = gf_pow(r + 1, c)
    return v


@dataclass(frozen=True, slots=True)
class Shard:
    """One erasure-coded shard: its index in the stripe and its bytes."""

    index: int
    data: bytes


class ReedSolomonCode:
    """An RS(k, m) systematic erasure code over GF(256).

    Args:
        data_shards: k — shards the payload is split into.
        parity_shards: m — extra shards; any m losses are recoverable.
    """

    def __init__(self, data_shards: int, parity_shards: int) -> None:
        if data_shards < 1:
            raise ValueError(f"data_shards must be >= 1, got {data_shards!r}")
        if parity_shards < 0:
            raise ValueError(f"parity_shards must be >= 0, got {parity_shards!r}")
        if data_shards + parity_shards > 255:
            raise ValueError(
                f"k + m must be <= 255 in GF(256), got {data_shards + parity_shards}"
            )
        self.k = data_shards
        self.m = parity_shards
        vander = _vandermonde(self.k + self.m, self.k)
        top_inv = gf_mat_inv(vander[: self.k])
        self.encode_matrix = gf_matmul(top_inv.T, vander.T).T  # (k+m) × k
        # Guard the construction: the top block must be the identity.
        assert np.array_equal(self.encode_matrix[: self.k], np.eye(self.k, dtype=np.uint8))
        self._encode_plan = _plan_rows(self.encode_matrix[self.k :].tolist())
        self._solved: dict[tuple[int, ...], tuple[list[list[int]], _Plan, list[int]]] = {}
        self._solve_lock = threading.Lock()
        # Table-walked bytes; exact while calls are serialised (the plane's tier lock).
        self.walk_bytes = 0

    @property
    def total_shards(self) -> int:
        return self.k + self.m

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per payload byte (1 + m/k)."""
        return 1.0 + self.m / self.k

    # ------------------------------------------------------------------ #

    def encode(self, payload: bytes) -> list[Shard]:
        """Split ``payload`` into k data shards and compute m parity shards.

        The payload is zero-padded to a multiple of k; ``decode`` needs the
        original length to strip the padding.
        """
        return self.encode_many([payload])[0]

    def _run(self, plan: _Plan, columns: list[bytes]) -> list[bytes]:
        """``columns``, extended in place by the planned rows over them."""
        self.walk_bytes += plan.walks * len(columns[0])
        for coefficients in plan.rows:
            columns.append(gf_dot(coefficients, columns))
        return columns

    def encode_many(self, payloads: list[bytes]) -> list[list[Shard]]:
        """:meth:`encode` for a batch in one pass: the planned parity rows
        over the batch's columns, sliced back per stripe."""
        k = self.k
        stripes = []  # systematic: the data shards are slices of the payload
        for payload in payloads:
            size = max(1, -(-len(payload) // k))
            stripes.append([payload[i * size : (i + 1) * size].ljust(size, b"\0") for i in range(k)])
        columns = list(map(b"".join, zip(*stripes))) if stripes else [b""] * k
        parity = self._run(self._encode_plan, columns)[k:]
        out: list[list[Shard]] = []
        start = 0
        for parts in stripes:
            end = start + len(parts[0])
            parts += [row[start:end] for row in parity]
            out.append([Shard(i, data) for i, data in enumerate(parts)])
            start = end
        return out

    def _choose(
        self, shards: list[Shard], payload_length: int
    ) -> tuple[tuple[int, ...], list[bytes]]:
        """Validate ``shards`` and pick the k lowest-indexed to solve from:
        their indexes (ascending) and their bytes, in the same order. Their
        lengths are :meth:`_fit`'s to check."""
        if payload_length < 0:
            raise ValueError(f"payload_length must be >= 0, got {payload_length!r}")
        k, total = self.k, self.k + self.m
        seen: dict[int, bytes] = {}
        for shard in shards:
            index = shard.index
            if not 0 <= index < total:
                raise ValueError(f"shard index {index!r} out of range")
            if index in seen:
                raise ValueError(f"duplicate shard index {index!r}")
            seen[index] = shard.data
        if len(seen) < k:
            raise ValueError(f"need at least k={k} shards to decode, got {len(seen)}")
        indexes = tuple(sorted(seen)[:k])
        return indexes, [seen[index] for index in indexes]

    def _fit(self, blocks: list[bytes], payload_length: int) -> None:
        """Check that the chosen ``blocks`` are equally long and together
        hold ``payload_length`` bytes."""
        size = len(blocks[0])
        for block in blocks:
            if len(block) != size:
                lengths = sorted({len(block) for block in blocks})
                raise ValueError(f"inconsistent shard lengths: {lengths!r}")
        if payload_length > self.k * size:
            raise ValueError(
                f"payload_length {payload_length!r} exceeds the {self.k * size} bytes "
                f"the shards hold"
            )

    def _solve(self, survivors: tuple[int, ...]) -> tuple[list[list[int]], _Plan, list[int]]:
        """For ``survivors`` (k shard indexes, ascending): rows over them
        (row i gives shard i), the plan of the data rows they lack, and
        which operand of that plan's run holds each data shard."""
        solved = self._solved.get(survivors)
        if solved is None:
            inverse = gf_mat_inv(self.encode_matrix[list(survivors), :])
            rows = gf_matmul(self.encode_matrix, inverse).tolist()
            missing = [i for i in range(self.k) if i not in survivors]
            layout = [
                survivors.index(i) if i in survivors else self.k + missing.index(i)
                for i in range(self.k)
            ]
            solved = (rows, _plan_rows([rows[i] for i in missing]), layout)
            # Hits read the dict without the lock; only eviction + insert,
            # a check-then-act on its size, needs it.
            with self._solve_lock:
                while len(self._solved) >= SOLVE_CACHE_MAX:
                    del self._solved[next(iter(self._solved))]  # oldest first
                self._solved[survivors] = solved
        return solved

    def decode(self, shards: list[Shard], payload_length: int) -> bytes:
        """Reconstruct the payload from any >= k distinct shards.

        Raises:
            ValueError: on fewer than k shards, duplicates, bad indexes,
                inconsistent shard lengths, or a ``payload_length`` the
                shards cannot hold.
        """
        return self.decode_many([(shards, payload_length)])[0]

    def decode_many(self, stripes: list[tuple[list[Shard], int]]) -> list[bytes]:
        """:meth:`decode` for a batch of ``(shards, payload_length)``: every
        stripe is validated first, then one pass per survivor set."""
        return self.decode_chosen(
            (*self._choose(shards, length), length) for shards, length in stripes
        )

    def decode_chosen(
        self, stripes: Iterable[tuple[tuple[int, ...], list[bytes], int]]
    ) -> list[bytes]:
        """The decode core: per stripe, ``(survivors, blocks, payload_length)``
        with the k survivor indexes ascending, distinct and in range and
        ``blocks`` their bytes in the same order. Every stripe's lengths are
        checked first (:meth:`_fit`), then one pass per survivor set."""
        k = self.k
        out: list[bytes] = []
        groups: dict[tuple[int, ...], list[tuple[int, list[bytes], int]]] = {}
        for indexes, blocks, length in stripes:
            self._fit(blocks, length)
            if indexes[-1] < k:
                out.append(b"".join(blocks)[:length])  # every data shard survived
            else:
                groups.setdefault(indexes, []).append((len(out), blocks, length))
                out.append(b"")
        for survivors, members in groups.items():  # solve only the missing data rows
            _, plan, layout = self._solve(survivors)
            if len(members) == 1:  # one stripe: its blocks are the columns
                columns = list(members[0][1])
            else:
                columns = list(map(b"".join, zip(*[blocks for _, blocks, _ in members])))
            operands = self._run(plan, columns)
            start = 0
            for n, blocks, length in members:
                end = start + len(blocks[0])
                data = [blocks[o] if o < k else operands[o][start:end] for o in layout]
                out[n] = b"".join(data)[:length]
                start = end
        return out

    def reconstruct_shard(self, shards: list[Shard], missing_index: int, payload_length: int) -> Shard:
        """Rebuild one lost shard from any k survivors (repair path): only
        that shard's row is computed, never the payload or its siblings."""
        if not 0 <= missing_index < self.total_shards:
            raise ValueError(f"shard index {missing_index!r} out of range")
        indexes, blocks = self._choose(shards, payload_length)
        self._fit(blocks, payload_length)
        row = self._solve(indexes)[0][missing_index]
        return Shard(index=missing_index, data=gf_dot(row, blocks))
