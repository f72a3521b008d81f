"""Failure detection: heartbeats with a phi-accrual detector.

Cassandra decides liveness with the phi-accrual failure detector (Hayashibara
et al.): each node tracks the inter-arrival distribution of its peers'
heartbeats and computes a suspicion level

    φ(t) = −log10( P[no heartbeat gap this long | history] )

so the "is it dead?" question becomes a tunable threshold instead of a fixed
timeout. We reproduce the standard exponential-tail variant: with mean
inter-arrival μ, φ(Δt) = Δt / (μ · ln 10).

The detector runs on simulated time (a plain float clock), so tests and
simulations can script heartbeat schedules deterministically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque


@dataclass
class _PeerState:
    last_heartbeat: float
    intervals: Deque[float] = field(default_factory=lambda: deque(maxlen=128))

    def mean_interval(self, default: float) -> float:
        if not self.intervals:
            return default
        return sum(self.intervals) / len(self.intervals)


class PhiAccrualDetector:
    """Phi-accrual failure detector over explicit heartbeat events.

    Args:
        threshold: φ above which a peer is considered down. Cassandra's
            default is 8 (≈ 10⁻⁸ chance the peer is actually alive).
        default_interval_s: assumed heartbeat period before enough samples
            accumulate.
        min_std_fraction: floor on the modeled interval so a burst of
            perfectly regular heartbeats doesn't make φ explode on the
            first slightly-late one.
    """

    def __init__(
        self,
        threshold: float = 8.0,
        default_interval_s: float = 1.0,
        min_std_fraction: float = 0.1,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold!r}")
        if default_interval_s <= 0:
            raise ValueError(
                f"default_interval_s must be positive, got {default_interval_s!r}"
            )
        if not 0 < min_std_fraction <= 1:
            raise ValueError(
                f"min_std_fraction must be in (0, 1], got {min_std_fraction!r}"
            )
        self.threshold = threshold
        self.default_interval_s = default_interval_s
        self.min_std_fraction = min_std_fraction
        self._peers: dict[str, _PeerState] = {}

    def heartbeat(self, peer: str, now: float) -> None:
        """Record a heartbeat from ``peer`` at simulated time ``now``."""
        state = self._peers.get(peer)
        if state is None:
            self._peers[peer] = _PeerState(last_heartbeat=now)
            return
        gap = now - state.last_heartbeat
        if gap < 0:
            raise ValueError(
                f"heartbeat from {peer!r} went backwards in time ({gap!r}s)"
            )
        state.intervals.append(gap)
        state.last_heartbeat = now

    def phi(self, peer: str, now: float) -> float:
        """Current suspicion level of ``peer`` (0 = just heard from it)."""
        state = self._peers.get(peer)
        if state is None:
            return math.inf  # never heard from it
        elapsed = now - state.last_heartbeat
        if elapsed <= 0:
            return 0.0
        mean = max(
            state.mean_interval(self.default_interval_s),
            self.default_interval_s * self.min_std_fraction,
        )
        return elapsed / (mean * math.log(10))

    def is_available(self, peer: str, now: float) -> bool:
        """True while φ stays under the threshold."""
        return self.phi(peer, now) < self.threshold

    def suspected(self, now: float) -> list[str]:
        """Peers currently over the suspicion threshold."""
        return [p for p in self._peers if not self.is_available(p, now)]

    def known_peers(self) -> list[str]:
        return sorted(self._peers)


class HeartbeatMonitor:
    """Drives a phi detector from a ring's membership and flips node state.

    Glue between the detector and a store: call :meth:`observe` whenever a
    node proves liveness (e.g. served a request, answered a ping) and
    :meth:`sweep` periodically to mark suspected nodes down / recovered
    nodes up. Works against any
    :class:`~repro.kvstore.coordinator.QuorumCoordinator` (``nodes``,
    ``is_up``, ``mark_down``, ``mark_up``): the in-process
    :class:`~repro.kvstore.store.DistributedKVStore` on a simulated clock,
    the live :class:`~repro.rpc.remote_store.RemoteKVStore` on the wall
    clock (driven by :class:`~repro.rpc.heartbeat.HeartbeatService`).
    """

    def __init__(self, store, detector: PhiAccrualDetector | None = None) -> None:
        self.store = store
        self.detector = detector if detector is not None else PhiAccrualDetector()
        self.transitions: list[tuple[float, str, str]] = []

    def observe(self, node_id: str, now: float) -> None:
        if node_id not in self.store.nodes:
            raise KeyError(f"unknown node {node_id!r}")
        self.detector.heartbeat(node_id, now)

    def sweep(self, now: float) -> None:
        """Reconcile store liveness with the detector's verdicts."""
        for node_id in list(self.store.nodes):
            available = self.detector.is_available(node_id, now)
            up = self.store.is_up(node_id)
            if up and not available:
                self.store.mark_down(node_id)
                self.transitions.append((now, node_id, "down"))
            elif available and not up:
                self.store.mark_up(node_id)
                self.transitions.append((now, node_id, "up"))

    def snapshot(self) -> dict[str, float]:
        """Transition counters (for a MetricsHub mount)."""
        downs = sum(1 for _, _, state in self.transitions if state == "down")
        return {
            "suspicions": float(downs),
            "recoveries": float(len(self.transitions) - downs),
            "known_peers": float(len(self.detector.known_peers())),
        }
