"""Wire-level failure detection: background heartbeats for a live ring.

The in-process store drives its :class:`~repro.kvstore.gossip.HeartbeatMonitor`
from a simulated clock; a live ring has to earn its liveness evidence from
the network. :class:`HeartbeatService` runs a daemon thread that, every
``interval_s`` seconds:

1. pings every member through the store's transport (one concurrent round);
2. feeds each successful reply to the shared phi-accrual detector — a reply
   from an administratively-downed replica (``up: False``) is *not*
   counted, so an operator's ``mark_down`` isn't fought by the sweeper;
3. sweeps: members whose φ crosses the threshold are marked down on the
   coordinator (writes become hints), and suspected members that answer
   again are marked up (hints replay + recovery read-repair run as part of
   :meth:`~repro.kvstore.coordinator.QuorumCoordinator.mark_up`).

The service must run in its own thread — never on the transport's event
loop — because the sweep calls the store's synchronous facade
(``mark_down``/``mark_up``), which would deadlock on the loop thread.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.kvstore.gossip import HeartbeatMonitor, PhiAccrualDetector
from repro.rpc.remote_store import RemoteKVStore


class HeartbeatService:
    """Periodic liveness probing driving coordinator-side up/down state.

    Args:
        store: the live coordinator whose membership is probed and whose
            aliveness set the sweep flips.
        interval_s: heartbeat period (also the detector's assumed interval
            until real samples accumulate).
        detector: optional pre-configured phi detector (e.g. a lower
            threshold for fast tests).
    """

    def __init__(
        self,
        store: RemoteKVStore,
        interval_s: float = 0.2,
        detector: Optional[PhiAccrualDetector] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        self.store = store
        self.interval_s = interval_s
        self.monitor = HeartbeatMonitor(
            store,
            detector
            if detector is not None
            else PhiAccrualDetector(default_interval_s=interval_s),
        )
        self.pings = 0
        self.ping_failures = 0
        self.sweep_errors = 0
        self.last_error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("heartbeat service already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="kv-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=30)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_once()
            except Exception as exc:  # keep the prober alive across sweeps
                self.sweep_errors += 1
                self.last_error = exc
            self._stop.wait(self.interval_s)

    # ------------------------------------------------------------------ #
    # one heartbeat round (callable directly from tests, no thread needed)
    # ------------------------------------------------------------------ #

    def poll_once(self, now: Optional[float] = None) -> list[tuple[float, str, str]]:
        """Ping every member, feed the detector, sweep. Returns the
        monitor's cumulative (time, node, state) transition log."""
        answers = self.store.probe_members()
        if now is None:
            now = time.monotonic()
        for node_id, up in answers.items():
            if up is None:
                self.ping_failures += 1
                continue
            self.pings += 1
            if up:
                self.monitor.observe(node_id, now)
        self.monitor.sweep(now)
        return self.monitor.transitions

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, float]:
        """Failure-detection counters (mounted as ``rpc.failure.*``)."""
        snap = self.monitor.snapshot()
        snap["pings"] = float(self.pings)
        snap["ping_failures"] = float(self.ping_failures)
        snap["sweep_errors"] = float(self.sweep_errors)
        return snap
