"""The retired log/exp GF(256) kernel, kept as the test oracle.

Until the table-driven kernel replaced it, this was ``repro.erasure.gf256``'s
vector arithmetic and ``ReedSolomonCode``'s encode/decode: a masked log/exp
gather per coefficient, every row of the encode matrix multiplied (identity
rows included), every data row solved for on decode. It shares only the
scalar exp/log tables and the code's encode matrix with the production
path, so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import numpy as np

from repro.erasure.gf256 import EXP_TABLE, LOG_TABLE, gf_inv
from repro.erasure.reedsolomon import ReedSolomonCode, Shard


def gf_mul_vec(scalar: int, vec: np.ndarray) -> np.ndarray:
    if scalar == 0:
        return np.zeros_like(vec)
    if scalar == 1:
        return vec.copy()
    out = np.zeros_like(vec)
    nz = vec != 0
    out[nz] = EXP_TABLE[LOG_TABLE[scalar] + LOG_TABLE[vec[nz]]]
    return out


def gf_matmul(matrix: np.ndarray, shards: np.ndarray) -> np.ndarray:
    r, k = matrix.shape
    out = np.zeros((r, shards.shape[1]), dtype=np.uint8)
    for i in range(r):
        acc = np.zeros(shards.shape[1], dtype=np.uint8)
        for j in range(k):
            acc ^= gf_mul_vec(int(matrix[i, j]), shards[j])
        out[i] = acc
    return out


def gf_mat_inv(matrix: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    aug = np.concatenate(
        [matrix.astype(np.uint8).copy(), np.eye(n, dtype=np.uint8)], axis=1
    )
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r, col] != 0)
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = gf_mul_vec(gf_inv(int(aug[col, col])), aug[col])
        for row in range(n):
            if row != col and aug[row, col] != 0:
                aug[row] = aug[row] ^ gf_mul_vec(int(aug[row, col]), aug[col])
    return aug[:, n:]


def encode(code: ReedSolomonCode, payload: bytes) -> list[Shard]:
    shard_len = max(1, (len(payload) + code.k - 1) // code.k)
    padded = payload + b"\x00" * (shard_len * code.k - len(payload))
    data = np.frombuffer(padded, dtype=np.uint8).reshape(code.k, shard_len)
    coded = gf_matmul(code.encode_matrix, data)
    return [Shard(index=i, data=coded[i].tobytes()) for i in range(code.total_shards)]


def decode(code: ReedSolomonCode, shards: list[Shard], payload_length: int) -> bytes:
    chosen = sorted(shards, key=lambda s: s.index)[: code.k]
    inverse = gf_mat_inv(code.encode_matrix[[s.index for s in chosen], :])
    rows = np.stack([np.frombuffer(s.data, dtype=np.uint8) for s in chosen])
    return gf_matmul(inverse, rows).reshape(-1).tobytes()[:payload_length]
