"""GF(2⁸) arithmetic for Reed–Solomon coding.

The field is GF(2)[x] / (x⁸ + x⁴ + x³ + x² + 1) — the 0x11D polynomial used
by most storage systems. Scalar multiplication and division go through
exp/log tables. Everything that multiplies a run of bytes goes through one
kernel, :func:`gf_dot`: row ``c`` of the 256 × 256 product table is a
256-byte translate table, so ``c · part`` is ``part.translate(MUL_ROWS[c])``
— a byte-indexed walk of the table with no index widening, no masking of
zeros and no log/exp arithmetic per byte — and a parity or recovered shard
is the XOR of those terms.
"""

from __future__ import annotations

from collections.abc import Sequence

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

# MUL_ROWS[c] is row c of MUL_TABLE as a ``bytes.translate`` table.
MUL_ROWS: tuple[bytes, ...] = tuple(row.tobytes() for row in MUL_TABLE)


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


def gf_dot(coefficients: Sequence[int], parts: Sequence[bytes]) -> bytes:
    """⊕_j coefficients[j] · parts[j] over equal-length byte strings.

    Zero coefficients contribute nothing and coefficient 1 contributes the
    part itself; every other term is one translate through its row of
    :data:`MUL_ROWS`.
    """
    terms = [
        part if coefficient == 1 else part.translate(MUL_ROWS[coefficient])
        for coefficient, part in zip(coefficients, parts)
        if coefficient
    ]
    if not terms:
        return bytes(len(parts[0])) if parts else b""
    if len(terms) == 1:
        return bytes(terms[0])
    acc = np.bitwise_xor(
        np.frombuffer(terms[0], np.uint8), np.frombuffer(terms[1], np.uint8)
    )
    for term in terms[2:]:
        acc ^= np.frombuffer(term, np.uint8)
    return acc.tobytes()


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
    parts = [shard.tobytes() for shard in np.asarray(shards, dtype=np.uint8)]
    rows = b"".join(gf_dot(coefficients, parts) for coefficients in matrix.tolist())
    return np.frombuffer(rows, dtype=np.uint8).reshape(r, shards.shape[1]).copy()


def gf_mat_inv(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(256) matrix by Gauss–Jordan elimination.

    Raises:
        ValueError: if the matrix is singular.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape!r}")
    # Each row of the augmented matrix [matrix | I] is one byte string, so
    # scaling and eliminating are the same kernel the shards go through.
    aug = [
        row.tobytes()
        for row in np.concatenate(
            [matrix.astype(np.uint8), np.eye(n, dtype=np.uint8)], axis=1
        )
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(256)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = gf_dot((gf_inv(aug[col][col]),), (aug[col],))
        for row in range(n):
            if row != col and aug[row][col]:
                aug[row] = gf_dot((1, aug[row][col]), (aug[row], aug[col]))
    return np.array([list(row[n:]) for row in aug], dtype=np.uint8).reshape(n, n)
