"""GF(2⁸) arithmetic for Reed–Solomon coding.

The field is GF(2)[x] / (x⁸ + x⁴ + x³ + x² + 1) — the 0x11D polynomial used
by most storage systems. Scalar multiplication and division go through
exp/log tables. The vectorized variants go through :data:`MUL_TABLE`, the
full 256 × 256 product table (64 KiB): multiplying a byte array by a
coefficient is one ``take`` against that coefficient's row, with no masking
of zeros and no log/exp arithmetic per byte.
"""

from __future__ import annotations

import numpy as np

_PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

# exp table is doubled so exp[log a + log b] needs no modular reduction.
EXP_TABLE = np.zeros(512, dtype=np.uint8)
LOG_TABLE = np.zeros(256, dtype=np.int32)

_x = 1
for _i in range(255):
    EXP_TABLE[_i] = _x
    LOG_TABLE[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIMITIVE_POLY
for _i in range(255, 512):
    EXP_TABLE[_i] = EXP_TABLE[_i - 255]

# MUL_TABLE[a, b] == gf_mul(a, b); row 0 and column 0 stay zero.
MUL_TABLE = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
_logs = LOG_TABLE[1:]
MUL_TABLE[1:, 1:] = EXP_TABLE[_logs[:, None] + _logs[None, :]]


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]])


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b`` (``b`` must be nonzero)."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] - LOG_TABLE[b] + 255])


def gf_pow(a: int, n: int) -> int:
    """Raise ``a`` to the ``n``-th power."""
    if n == 0:
        return 1
    if a == 0:
        return 0
    return int(EXP_TABLE[(LOG_TABLE[a] * n) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse (``a`` must be nonzero)."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return int(EXP_TABLE[255 - LOG_TABLE[a]])


def gf_mul_vec(scalar: int, vec: np.ndarray) -> np.ndarray:
    """Multiply every byte of ``vec`` by ``scalar`` (vectorized)."""
    if scalar == 0:
        return np.zeros_like(vec)
    if scalar == 1:
        return vec.copy()
    return MUL_TABLE[scalar].take(vec)


def gf_matmul(matrix: np.ndarray, shards: np.ndarray) -> np.ndarray:
    """GF(256) matrix × shard-matrix product.

    Args:
        matrix: (r × k) coefficients.
        shards: (k × L) byte rows.

    Returns:
        (r × L) byte rows: out[i] = ⊕_j matrix[i, j] · shards[j].
    """
    r, k = matrix.shape
    if shards.shape[0] != k:
        raise ValueError(
            f"matrix expects {k} shards, got {shards.shape[0]}"
        )
    out = np.zeros((r, shards.shape[1]), dtype=np.uint8)
    for acc, coefficients in zip(out, matrix.tolist()):
        for coefficient, shard in zip(coefficients, shards):
            if coefficient == 1:
                acc ^= shard
            elif coefficient:
                acc ^= MUL_TABLE[coefficient].take(shard)
    return out


def gf_mat_inv(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(256) matrix by Gauss–Jordan elimination.

    Raises:
        ValueError: if the matrix is singular.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape!r}")
    aug = np.concatenate(
        [matrix.astype(np.uint8).copy(), np.eye(n, dtype=np.uint8)], axis=1
    )
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r, col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(256)")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_pivot = gf_inv(int(aug[col, col]))
        aug[col] = gf_mul_vec(inv_pivot, aug[col])
        for row in range(n):
            if row != col and aug[row, col] != 0:
                aug[row] = aug[row] ^ gf_mul_vec(int(aug[row, col]), aug[col])
    return aug[:, n:]
