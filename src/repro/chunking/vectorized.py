"""Vectorized boundary scanning for content-defined chunking.

The scalar Gear and Rabin chunkers walk the stream one byte at a time in
pure Python — the dominant cost of the dedup hot path. This module computes
the *windowed* rolling hash at every position of the buffer with numpy, so
boundary candidates for the whole buffer fall out of one
``np.flatnonzero`` and the per-chunk work shrinks to advancing a cursor
over the sorted candidate list.

Both kernels exploit the same property: the boundary predicate of a rolling
hash depends on a bounded suffix of the stream, so it can be evaluated
position-independently. Both build the window hash by **binary doubling** —
``W_{p+q}[i] = shift(W_p[i-q], q) + W_q[i]`` — which needs O(log window)
vector passes instead of O(window).

- **Gear** (``h = (h << 1) + G[b]`` mod 2^64, boundary when
  ``h & (2^L - 1) == 0``): a term ``G[b] << j`` contributes nothing to the
  low ``L`` bits once ``j >= L``, so the masked hash depends on exactly the
  last ``L`` bytes. Because only those low bits are ever consulted, the
  whole computation runs in **uint32** whenever ``L <= 32`` (addition and
  shifts mod 2^32 agree with mod 2^64 on the low 32 bits) — 32-bit SIMD
  lanes are twice as wide as 64-bit ones.
- **Rabin** (polynomial hash of the last ``w`` bytes mod ``2^61 - 1``,
  boundary when ``h % D == D - 1``): already windowed by construction.
  The Mersenne-prime modular multiply is done in 32-bit limbs with
  shift-only reductions (2^61 ≡ 1, 2^64 ≡ 8 mod M61) so everything stays
  inside uint64.

Three implementation rules keep the kernels fast on large buffers:

1. **No allocation in the hot loop.** Every pass writes into preallocated
   scratch with ``out=`` — page-faulting a fresh tens-of-MB array per op
   costs several times the arithmetic itself.
2. **Blocked processing.** Buffers are scanned in 256K-position blocks
   (overlapping by ``window - 1`` bytes so every window is complete), which
   keeps the working set cache-resident and bounds scratch memory
   regardless of buffer size. Candidates are position-independent, so the
   per-block hit lists concatenate exactly.
3. **No 8-bit shift ufuncs.** numpy has no SIMD loop for shifts of uint8:
   ``np.left_shift`` costs ~275 µs per MiB, against ~38 µs for the equal
   ``np.add(x, x)`` or ``np.multiply(x, 4)`` (numpy 2.4, 2-vCPU Xeon).
   Every doubling step therefore multiplies by ``2**p`` instead of
   shifting, which wraps identically in every unsigned dtype.

Intermediate Rabin values are kept *semi-canonical* (``<= 2^61``, where
``M61`` itself represents zero) and only canonicalized once at the end; the
bounds noted beside each step show no intermediate can overflow uint64.

The chunkers keep their scalar loops as the reference oracle; property
tests assert byte-identical boundaries between the two backends.
"""

from __future__ import annotations

import numpy as np

_U32 = np.uint32
_U64 = np.uint64
_M61 = (1 << 61) - 1  # the Rabin modulus (Mersenne prime)
_LOW32 = (1 << 32) - 1
_LOW29 = (1 << 29) - 1

# Positions scanned per block, chosen for the split-gear kernel: its
# working set is the block's input bytes plus three one-byte-per-position
# scratch arrays (S4 lane, temp, predicate), ~1 MiB, which stays in a
# core's L2. Measured on a 2-vCPU Xeon with 2 MiB L2 per core, 1 << 18 beat
# 1 << 17 and 1 << 19 on 4 and 32 MiB buffers; the uint32 gear and uint64
# Rabin kernels would prefer smaller blocks still.
_BLOCK = 1 << 18


def _blocks(n: int, window: int):
    """Yield ``(lo, s, e)``: scan positions ``[s, e)`` using bytes
    ``[lo, e)`` so every window ending in the block is complete."""
    pad = window - 1
    for s in range(0, n, _BLOCK):
        yield max(0, s - pad), s, min(s + _BLOCK, n)


# ---------------------------------------------------------------------- #
# Gear
# ---------------------------------------------------------------------- #


def _gear_doubling_into(
    g: np.ndarray, window: int, acc: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Window hash ``W[i] = sum_{j<window} g[i-j] << j`` by binary doubling.

    Works in ``g``'s own integer dtype; overflow wraps, which is exactly the
    modular arithmetic the uint8, uint32 and uint64 lanes want. Shifts are
    written as multiplies by ``2**p`` (rule 3): equal under unsigned
    wraparound, and vectorized for every dtype; ``2**p`` must fit the
    dtype, so ``window`` is at most its bit width. Entries with
    ``i < window - 1`` are partial-window garbage. ``acc``/``tmp`` are
    caller-provided scratch of ``g``'s length and dtype; returns ``acc``.
    """
    if window == 1:
        np.copyto(acc, g)
        return acc
    acc[:1] = g[:1]
    ty = g.dtype.type
    width = 1
    for bit in bin(window)[3:]:  # binary digits after the leading 1
        q = width
        if q < len(g):
            # W_{2p}[i] = W_p[i-p] * 2^p + W_p[i]. The first step reads
            # W_1 = g in place, so the lane is never copied into acc.
            src = g if q == 1 else acc
            np.multiply(src[:-q], ty(1 << q), out=tmp[q:])
            np.add(src[q:], tmp[q:], out=acc[q:])
        width *= 2
        if bit == "1":
            if len(g) > 1:
                # W_{p+1}[i] = 2 W_p[i-1] + W_1[i]
                np.add(acc[:-1], acc[:-1], out=tmp[1:])
                np.add(tmp[1:], g[1:], out=acc[1:])
            width += 1
    return acc


def gear_window_hashes(buf: np.ndarray, table: np.ndarray, window: int) -> np.ndarray:
    """Gear hash of the ``window`` bytes ending at each position.

    Args:
        buf: uint8 view of the input.
        table: 256-entry uint64 gear table.
        window: window length in bytes (the mask's bit width).

    Returns:
        Array ``wh`` with ``wh[i]`` the gear hash of ``buf[i-window+1 : i+1]``
        reduced mod 2^32 (uint32, when ``window <= 32``) or mod 2^64
        (uint64) — either way exact on the low ``window`` bits, which are
        the only ones the boundary mask reads. Entries with
        ``i < window - 1`` are partial-window garbage and must not be
        consulted.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    tbl = table.astype(_U32) if window <= 32 else table
    g = tbl[buf]
    return _gear_doubling_into(g, window, np.empty_like(g), np.empty_like(g))


def gear_boundary_candidates(
    buf: np.ndarray, table: np.ndarray, mask: int, window: int
) -> np.ndarray:
    """Sorted end positions where the windowed gear hash matches the mask.

    A returned position ``e`` means "the hash after consuming byte ``e-1``
    has ``h & mask == 0``", valid for any chunk that started at least
    ``window`` bytes before ``e``.
    """
    n = len(buf)
    if n < window:
        return np.empty(0, dtype=np.int64)
    # Only the low `window` bits are consulted; uint32 wrapping preserves
    # them and 32-bit lanes are twice as fast.
    tbl = table.astype(_U32) if window <= 32 else table
    ty = tbl.dtype.type
    cap = min(n, _BLOCK + window - 1)
    g = np.empty(cap, dtype=tbl.dtype)
    acc = np.empty(cap, dtype=tbl.dtype)
    tmp = np.empty(cap, dtype=tbl.dtype)
    pred = np.empty(cap, dtype=bool)
    parts: list[np.ndarray] = []
    for lo, s, e in _blocks(n, window):
        m = e - lo
        np.take(tbl, buf[lo:e], out=g[:m])
        wh = _gear_doubling_into(g[:m], window, acc[:m], tmp[:m])
        np.bitwise_and(wh, ty(mask), out=wh)
        np.equal(wh, ty(0), out=pred[:m])
        hits = np.flatnonzero(pred[:m])
        hits += lo
        hits = hits[hits >= max(s, window - 1)]
        parts.append(hits + 1)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ---------------------------------------------------------------------- #
# Rabin (arithmetic mod 2^61 - 1 in uint64 limbs)
# ---------------------------------------------------------------------- #


class _M61Scratch:
    """Preallocated uint64 work arrays for the in-place M61 kernel."""

    def __init__(self, n: int) -> None:
        self.hi = np.empty(n, dtype=_U64)
        self.lo = np.empty(n, dtype=_U64)
        self.t = np.empty(n, dtype=_U64)
        self.u = np.empty(n, dtype=_U64)
        self.acc = np.empty(n, dtype=_U64)


def _compose_m61_inplace(
    acc: np.ndarray, right: np.ndarray, q: int, c: int, s: _M61Scratch
) -> None:
    """``acc[i] <- acc[i-q] * c + right[i]  (mod M61)``, in place.

    ``right`` may alias ``acc`` (the doubling step): ``acc`` is only read
    into scratch up front and at the final fold, never partially written
    before a read. Inputs are semi-canonical (``<= 2^61``, so the high limb
    is at most 2^29); the output is too. ``acc[:q]`` is left stale — those
    positions are partial-window garbage for the wider window anyway.
    """
    m = len(acc) - q
    a = acc[:-q]
    hi, lo, t, u = s.hi[:m], s.lo[:m], s.t[:m], s.u[:m]
    c_hi, c_lo = _U64(c >> 32), _U64(c & _LOW32)
    m61, low29 = _U64(_M61), _U64(_LOW29)

    # 32x32 limb products of a * c.
    np.right_shift(a, _U64(32), out=hi)
    np.bitwise_and(a, _U64(_LOW32), out=lo)
    np.multiply(lo, c_lo, out=t)  # ll < 2^64, weight 1
    np.multiply(lo, c_hi, out=lo)  # a_lo*c_hi < 2^61
    np.multiply(hi, c_lo, out=u)  # a_hi*c_lo < 2^61
    np.add(lo, u, out=lo)  # mid < 2^62, weight 2^32
    np.multiply(hi, c_hi, out=hi)  # hh < 2^58, weight 2^64 ≡ 8
    np.left_shift(hi, _U64(3), out=hi)  # 8*hh < 2^61
    # Fold mid below 2^61 + 1, then split at bit 29:
    # mid * 2^32 ≡ (mid >> 29) + (mid & LOW29) << 32   (2^61 ≡ 1).
    np.right_shift(lo, _U64(61), out=u)
    np.bitwise_and(lo, m61, out=lo)
    np.add(lo, u, out=lo)  # <= 2^61
    np.right_shift(lo, _U64(29), out=u)  # <= 2^32
    np.bitwise_and(lo, low29, out=lo)
    np.left_shift(lo, _U64(32), out=lo)  # < 2^61
    np.add(hi, lo, out=hi)  # < 2^62
    np.add(hi, u, out=hi)  # < 2^62 + 2^32
    # Fold ll and accumulate the three weights: total < 2^63.
    np.right_shift(t, _U64(61), out=u)
    np.bitwise_and(t, m61, out=t)
    np.add(t, u, out=t)
    np.add(t, hi, out=t)
    # Add `right` before reducing (< 2^63 + 2^61, still no overflow), then
    # two shift-folds bring the sum back <= 2^61 (semi-canonical).
    np.add(t, right[q:], out=t)
    np.right_shift(t, _U64(61), out=u)
    np.bitwise_and(t, m61, out=t)
    np.add(t, u, out=t)
    np.right_shift(t, _U64(61), out=u)
    np.bitwise_and(t, m61, out=acc[q:])
    np.add(acc[q:], u, out=acc[q:])


def _rabin_doubling(
    b64: np.ndarray, window: int, base: int, s: _M61Scratch
) -> np.ndarray:
    """Window hash mod M61 at every position of ``b64`` by binary doubling.

    Returns the ``s.acc`` scratch seeded from ``b64``; ``b64`` itself is
    preserved (it is W_1, needed by the increment steps).
    """
    acc = s.acc[: len(b64)]
    np.copyto(acc, b64)  # W_1: the byte value itself, already canonical
    width = 1
    for bit in bin(window)[3:]:
        if width < len(b64):
            _compose_m61_inplace(acc, acc, width, pow(base, width, _M61), s)
        width *= 2
        if bit == "1":
            if len(b64) > 1:
                _compose_m61_inplace(acc, b64, 1, base % _M61, s)
            width += 1
    # Full canonicalization (values were semi-canonical: M61 means zero).
    u = s.u[: len(acc)]
    np.right_shift(acc, _U64(61), out=u)
    np.bitwise_and(acc, _U64(_M61), out=acc)
    np.add(acc, u, out=acc)
    acc[acc == _U64(_M61)] = _U64(0)
    return acc


def rabin_window_hashes(buf: np.ndarray, window: int, base: int) -> np.ndarray:
    """Rabin hash of the ``window`` bytes ending at each position.

    Returns:
        uint64 array ``wh`` with ``wh[i] = sum_j buf[i-j] * base^j mod M61``
        over ``j < window``; entries with ``i < window-1`` are garbage.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    b64 = buf.astype(_U64)
    return _rabin_doubling(b64, window, base, _M61Scratch(len(buf)))


def rabin_boundary_candidates(
    buf: np.ndarray, window: int, base: int, divisor: int
) -> np.ndarray:
    """Sorted end positions ``e`` where the hash of ``buf[e-window:e]``
    satisfies ``h % divisor == divisor - 1`` (the Rabin cut predicate)."""
    n = len(buf)
    if n < window:
        return np.empty(0, dtype=np.int64)
    cap = min(n, _BLOCK + window - 1)
    b64 = np.empty(cap, dtype=_U64)
    scratch = _M61Scratch(cap)
    pred = np.empty(cap, dtype=bool)
    pow2 = divisor & (divisor - 1) == 0
    parts: list[np.ndarray] = []
    for lo, s, e in _blocks(n, window):
        m = e - lo
        b64[:m] = buf[lo:e]  # widening copy into scratch
        wh = _rabin_doubling(b64[:m], window, base, scratch)
        if pow2:  # h % 2^k via mask — uint64 division is the slowest pass
            np.bitwise_and(wh, _U64(divisor - 1), out=wh)
        else:
            np.mod(wh, _U64(divisor), out=wh)
        np.equal(wh, _U64(divisor - 1), out=pred[:m])
        hits = np.flatnonzero(pred[:m])
        hits += lo
        hits = hits[hits >= max(s, window - 1)]
        parts.append(hits + 1)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ---------------------------------------------------------------------- #
# Split-gear (FastCDC)
# ---------------------------------------------------------------------- #
#
# The FastCDC chunker's boundary value is a 32-bit *split-lane* hash over a
# fixed 8-byte window:
#
#   V(e) = (W8(e) & 0xffffff00) | S4(e)
#   W8(e) = sum_{j<8} T32[b[e-1-j]] << j   (mod 2^32, gear over the table)
#   S4(e) = sum_{j<4}     b[e-1-j] << j    (mod 2^8, tableless positional lane)
#
# with both sums truncated at the chunk start (absent bytes contribute 0).
# A cut fires when ``V & mask == 0``. The split lanes exist purely for
# vectorization economics:
#
# - The low byte (S4) needs **no table gather** — it is computed for every
#   position with four uint8 ufunc passes straight from the input, and
#   ``S4 & mask & 0xff == 0`` filters the buffer down to ~1/256 of its
#   positions.
# - The table-gear lane (W8) is only evaluated **at the survivors**, as
#   eight Horner steps of table gathers — O(survivors) instead of O(n)
#   gather traffic, which is what the pure-gear kernel spends most of its
#   time on.
#
# A block whose survivor count explodes (constant runs make S4 degenerate)
# falls back to evaluating the exact 32-bit hash for the whole block by
# doubling — a bounded slowdown instead of a survivor blowup.

_SPLIT_WINDOW = 8  # bytes of context the boundary value V depends on
_S4_WINDOW = 4

# Survivor density above which a block switches to the exact evaluation:
# 1/32 of positions, vs the ~1/256 the filter passes on mixing data.
_DENSE_SHIFT = 5


def split_gear_values(buf: np.ndarray, table32: np.ndarray) -> np.ndarray:
    """The split-lane value ``V`` at every position of ``buf`` (uint32).

    ``out[i]`` is the value for the cut *end* ``e = i + 1``, with windows
    truncated at the buffer start — the definition oracle used by tests,
    summed term by term so it shares no code with the doubling kernel; the
    chunkers use the blocked :func:`split_gear_candidates`.
    """
    n = len(buf)
    g = table32[buf]
    b = buf.astype(_U32)
    w8 = np.zeros(n, dtype=_U32)
    s4 = np.zeros(n, dtype=_U32)
    for j in range(min(_SPLIT_WINDOW, n)):
        w8[j:] += g[: n - j] << _U32(j)
    for j in range(min(_S4_WINDOW, n)):
        s4[j:] += b[: n - j] << _U32(j)
    return (w8 & _U32(0xFFFFFF00)) | (s4 & _U32(0xFF))


def split_gear_candidates(
    buf: np.ndarray, table32: np.ndarray, masks: tuple[int, ...]
) -> list[np.ndarray]:
    """Sorted end positions where ``V & mask == 0``, one array per mask.

    A returned position ``e`` means the split-lane value of the full 8-byte
    window ending at ``e`` matches the mask; only ``e >= 8`` is reported
    (shorter, truncated windows are start-dependent and are checked by the
    chunker's scalar gap scan). Masks sharing a low byte share one filter
    pass and one survivor-hash evaluation.
    """
    n = len(buf)
    window = _SPLIT_WINDOW
    if n < window:
        return [np.empty(0, dtype=np.int64) for _ in masks]
    # Group masks by their low-byte filter; typically both normalized-
    # chunking masks have >= 8 low bits set and share the single S4 == 0
    # filter.
    groups: dict[int, list[int]] = {}
    for k, mask in enumerate(masks):
        groups.setdefault(mask & 0xFF, []).append(k)
    cap = min(n, _BLOCK + window - 1)
    s4 = np.empty(cap, dtype=np.uint8)
    tmp8 = np.empty(cap, dtype=np.uint8)
    pred = np.empty(cap, dtype=bool)
    surv_parts: dict[int, list[np.ndarray]] = {fm: [] for fm in groups}
    exact_parts: list[list[np.ndarray]] = [[] for _ in masks]
    for lo, s, e in _blocks(n, window):
        m = e - lo
        b = buf[lo:e]
        a = _gear_doubling_into(b, _S4_WINDOW, s4[:m], tmp8[:m])
        first = max(s, window - 1)  # emit only full-window positions
        acc32 = None
        for fm, ks in groups.items():
            if fm == 0xFF:
                np.equal(a, np.uint8(0), out=pred[:m])
            else:
                np.bitwise_and(a, np.uint8(fm), out=tmp8[:m])
                np.equal(tmp8[:m], np.uint8(0), out=pred[:m])
            hits = np.flatnonzero(pred[:m])  # at most one block of int64
            if len(hits) <= m >> _DENSE_SHIFT:
                hits += lo
                surv_parts[fm].append(hits[hits >= first])
                continue
            # Dense block (constant runs): evaluate the exact 32-bit value
            # for the whole block instead of drowning in survivors.
            if acc32 is None:
                g32 = np.take(table32, b)
                t32 = np.empty_like(g32)
                acc32 = _gear_doubling_into(g32, window, np.empty_like(g32), t32)
                np.bitwise_and(acc32, _U32(0xFFFFFF00), out=acc32)
                np.bitwise_or(acc32, a, out=acc32)
            for k in ks:
                np.bitwise_and(acc32, _U32(masks[k]), out=t32)
                np.equal(t32, _U32(0), out=pred[:m])
                hits = np.flatnonzero(pred[:m])
                hits += lo
                exact_parts[k].append(hits[hits >= first])
    out: list[np.ndarray | None] = [None] * len(masks)
    for fm, ks in groups.items():
        parts = surv_parts[fm]
        if not parts:
            surv = np.empty(0, dtype=np.int64)
        else:
            surv = parts[0] if len(parts) == 1 else np.concatenate(parts)
        h = None
        if len(surv) and any(masks[k] > 0xFF for k in ks):
            # Table-gear lane only at the survivors, oldest byte first.
            idx = surv - (window - 1)
            h = table32[buf[idx]]
            for _ in range(window - 1):
                idx += 1
                h += h
                h += table32[buf[idx]]
        for k in ks:
            hi = masks[k] & ~0xFF
            cands = surv if (h is None or hi == 0) else surv[(h & _U32(hi)) == 0]
            pieces = [cands, *exact_parts[k]]
            c = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
            c = np.sort(c) if len(pieces) > 1 else c
            out[k] = c + 1
    return out  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# candidate walking
# ---------------------------------------------------------------------- #


def first_candidate_in(candidates: np.ndarray, lo: int, hi: int) -> int | None:
    """Smallest candidate ``e`` with ``lo <= e <= hi``, or None."""
    idx = int(np.searchsorted(candidates, lo))
    if idx < len(candidates) and int(candidates[idx]) <= hi:
        return int(candidates[idx])
    return None
