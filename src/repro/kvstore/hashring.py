"""Consistent-hash ring with virtual nodes.

Maps key tokens to the physical nodes responsible for them. Each physical
node contributes ``vnodes`` positions on the ring; the owner of a key is the
node whose token is first clockwise from the key's token, and the replica set
is formed by continuing clockwise past *distinct physical* nodes (see
:mod:`repro.kvstore.replication`).

Virtual nodes smooth the load distribution: with v vnodes per node the
per-node load imbalance shrinks roughly as 1/sqrt(v).
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, Iterator

from repro.kvstore.errors import NoSuchNodeError, RingEmptyError
from repro.kvstore.tokens import key_token, node_token


class ConsistentHashRing:
    """A consistent-hash ring over string node ids.

    Node membership changes (add/remove) rebuild the sorted token list; the
    clusters in this reproduction have at most hundreds of nodes, so the
    O(N·v log(N·v)) rebuild is negligible; the :meth:`placement` table
    empties with it and refills one vnode slot at a time.
    """

    def __init__(self, vnodes: int = 16) -> None:
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes!r}")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._tokens: list[int] = []
        self._token_owner: dict[int, str] = {}
        # select → vnode slot → what select() chose; a slot's keys walk alike.
        self._placements: dict[Callable, dict[int, tuple[str, ...]]] = {}

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add_node(self, node_id: str) -> None:
        """Add ``node_id`` with ``self.vnodes`` ring positions.

        Adding an existing node is an error — it would silently change
        nothing and usually indicates a bookkeeping bug in the caller.
        """
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} is already on the ring")
        self._nodes.add(node_id)
        for v in range(self.vnodes):
            token = node_token(node_id, v)
            # MD5 collisions between distinct (node, vnode) pairs are
            # effectively impossible; fail loudly if one ever appears.
            if token in self._token_owner:
                raise RuntimeError(
                    f"token collision between {node_id!r} and "
                    f"{self._token_owner[token]!r}"
                )
            self._token_owner[token] = node_id
        self._tokens = sorted(self._token_owner)
        self._placements.clear()

    def remove_node(self, node_id: str) -> None:
        """Remove ``node_id`` and all its vnode positions."""
        if node_id not in self._nodes:
            raise NoSuchNodeError(f"node {node_id!r} is not on the ring")
        self._nodes.discard(node_id)
        self._token_owner = {
            t: owner for t, owner in self._token_owner.items() if owner != node_id
        }
        self._tokens = sorted(self._token_owner)
        self._placements.clear()

    def primary_for_token(self, token: int) -> str:
        """Physical node owning ``token`` (first node token clockwise)."""
        if not self._tokens:
            raise RingEmptyError("ring has no nodes")
        idx = bisect.bisect_right(self._tokens, token)
        if idx == len(self._tokens):
            idx = 0
        return self._token_owner[self._tokens[idx]]

    def primary_for_key(self, key: str) -> str:
        """Physical node owning ``key``."""
        return self.primary_for_token(key_token(key))

    def walk_from_token(self, token: int) -> Iterator[str]:
        """Yield physical nodes clockwise from ``token``, skipping repeats.

        Yields each distinct physical node exactly once; used by replication
        strategies to build replica sets.
        """
        if not self._tokens:
            raise RingEmptyError("ring has no nodes")
        start = bisect.bisect_right(self._tokens, token)
        seen: set[str] = set()
        n = len(self._tokens)
        for i in range(n):
            owner = self._token_owner[self._tokens[(start + i) % n]]
            if owner not in seen:
                seen.add(owner)
                yield owner
            if len(seen) == len(self._nodes):
                return

    def walk_from_key(self, key: str) -> Iterator[str]:
        """Yield physical nodes clockwise from ``key``'s token."""
        return self.walk_from_token(key_token(key))

    def placement(self, key: str, select: Callable[[list[str]], list[str]]) -> list[str]:
        """``select(walk)`` over ``key``'s full distinct-owner walk, kept per
        (``select``, vnode slot) until membership changes: one hash, one
        bisect and a list copy. ``select`` may depend on the walk only."""
        return list(self.placements([key], select)[0])

    def placements(
        self, keys: Iterable[str], select: Callable[[list[str]], list[str]]
    ) -> list[tuple[str, ...]]:
        """:meth:`placement` of each key, from the same table: one hash and
        one bisect per key. The answers are the table's own tuples, shared
        by a slot's keys: immutable, so no caller can corrupt the table."""
        slots = self._placements.setdefault(select, {})
        tokens = self._tokens
        placed: list[tuple[str, ...]] = []
        for key in keys:
            token = key_token(key)
            slot = bisect.bisect_right(tokens, token)
            replicas = slots.get(slot)
            if replicas is None:
                replicas = slots[slot] = tuple(select(list(self.walk_from_token(token))))
            placed.append(replicas)
        return placed

    def primary_token_ranges(self, node_id: str) -> list[tuple[int, int]]:
        """Half-open ``[lo, hi)`` token intervals primarily owned by
        ``node_id`` — one per vnode: the interval ``[prev, token)`` reaching
        back to the previous ring token (:meth:`primary_for_token` resolves
        a query token to the first ring token *strictly greater*, so the
        vnode's own token belongs to its successor). Wrap-around at the top
        of the token space is split into two intervals, so every returned
        range satisfies ``lo < hi``. This is the unit the live-migration
        path streams: a moved node's share of its old ring's index is
        exactly the keys whose tokens fall in these ranges.
        """
        if node_id not in self._nodes:
            raise NoSuchNodeError(f"node {node_id!r} is not on the ring")
        from repro.kvstore.tokens import TOKEN_SPACE

        if len(self._nodes) == 1:
            return [(0, TOKEN_SPACE)]
        ranges: list[tuple[int, int]] = []
        n = len(self._tokens)
        for i, token in enumerate(self._tokens):
            if self._token_owner[token] != node_id:
                continue
            prev = self._tokens[(i - 1) % n]
            lo, hi = prev, token
            if lo < hi:
                ranges.append((lo, hi))
            else:  # wraps past the top of the token space
                ranges.append((lo, TOKEN_SPACE))
                ranges.append((0, hi))
        return ranges
