"""Erasure-coded chunk storage (the paper's future-work item): GF(256)
arithmetic, systematic Reed-Solomon codes, and a zone-striped chunk store."""

from repro.erasure.gf256 import gf_div, gf_dot, gf_inv, gf_mat_inv, gf_matmul, gf_mul, gf_pow
from repro.erasure.reedsolomon import ReedSolomonCode, Shard
from repro.erasure.striped_store import ErasureCodedChunkStore, ZoneFailedError

__all__ = [
    "ErasureCodedChunkStore",
    "ReedSolomonCode",
    "Shard",
    "ZoneFailedError",
    "gf_div",
    "gf_dot",
    "gf_inv",
    "gf_mat_inv",
    "gf_matmul",
    "gf_mul",
    "gf_pow",
]
