"""Token computation for the random partitioner.

Cassandra's RandomPartitioner maps every key to a token — the MD5 digest of
the key interpreted as an integer in ``[0, 2**127)`` — and assigns each node
one or more tokens on a ring of that size. A key is owned by the first node
token clockwise from the key's token. We reproduce that scheme exactly; it is
what gives EF-dedup's index its uniform spread across ring members (the
``1 - γ/|P|`` non-local lookup probability in Eq. 2 assumes uniform
placement).
"""

from __future__ import annotations

try:
    # CPython's own MD5 allocates no OpenSSL context per call: ~60 % of
    # hashlib.md5's time on a fingerprint, hashed once per index lookup.
    from _md5 import md5
except ImportError:  # a build without it
    from hashlib import md5

TOKEN_SPACE = 2**127


def key_token(key: str) -> int:
    """Token of ``key`` under the random (MD5) partitioner, in [0, 2**127)."""
    return int.from_bytes(md5(key.encode("utf-8")).digest(), "big") % TOKEN_SPACE


def node_token(node_id: str, vnode: int = 0) -> int:
    """Deterministic token for a node's ``vnode``-th virtual node.

    Derived by hashing ``node_id:vnode`` so a cluster built from the same
    node ids always produces the same ring layout.
    """
    if vnode < 0:
        raise ValueError(f"vnode index must be non-negative, got {vnode!r}")
    return key_token(f"{node_id}:{vnode}")


def token_distance(a: int, b: int) -> int:
    """Clockwise distance from token ``a`` to token ``b`` on the ring."""
    return (b - a) % TOKEN_SPACE
