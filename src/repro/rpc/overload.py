"""Overload-protection primitives: deadlines, admission, breakers, budgets.

Four small state machines that together keep a saturated ring *degraded*
instead of *collapsed* (the PR-9 load harness showed p50 inflating from
2.3ms to 8.8s past the knee, with every queued request eventually served
at a latency nobody was still waiting for):

- :class:`Deadline` — an end-to-end budget carried with a call. The wire
  format carries *seconds remaining* (a duration), not an absolute
  timestamp, so nodes need no clock agreement: each hop re-stamps the
  frame with what is left of the budget and the server adds only its own
  locally-measured queue wait.
- :class:`AdmissionController` — a bounded-queue admit/shed decision with
  a seeded probabilistic ramp (RED-style): admit freely below the
  high-watermark, shed with probability rising linearly to 1.0 at the
  queue bound. Seeded, so chaos runs replay the exact shed sequence.
- :class:`CircuitBreaker` — the classic closed/open/half-open machine per
  (coordinator, node) pair: after ``failure_threshold`` consecutive
  transport failures the pair fails fast for ``cooldown_s``, then a single
  half-open probe decides between closing and re-opening.
- :class:`RetryBudget` — a token bucket bounding retry *amplification*
  across concurrent calls (gRPC's retry-throttling shape): first attempts
  are always free, each retry withdraws a whole token, each success
  deposits a fraction. Under a 100% failure storm deposits stop, so total
  extra frames across N calls is bounded by the bucket capacity.

Methods here never sleep and never touch the loop — callers (RpcClient,
NodeServer) own all timing; these are pure decision kernels, which is what
makes them unit-testable without a transport. Which methods skip the
deadline, admission and breaker is declared per op
(:data:`~repro.rpc.ops.CONTROL_METHODS`).
"""

from __future__ import annotations

import random
import time
from typing import Optional


class Deadline:
    """A monotonic end-to-end time budget for one logical call.

    Created once at the call site (``Deadline.after(0.5)``) and consulted
    at every decision point: before each retry attempt (is there budget
    left to even try?), when sizing the per-attempt timeout (never wait
    past the budget), and when stamping the frame (the server receives
    seconds-remaining, not a wall-clock instant).
    """

    __slots__ = ("budget_s", "_started")

    def __init__(self, budget_s: float, _started: Optional[float] = None) -> None:
        if budget_s <= 0:
            raise ValueError(f"deadline budget must be positive, got {budget_s!r}")
        self.budget_s = float(budget_s)
        # Clock contract: ``_started`` must be a time.monotonic() reading —
        # elapsed()/remaining() always subtract it from time.monotonic(),
        # so a test-supplied epoch or simulated-clock value here silently
        # yields a deadline that is already (or never) expired. Tests that
        # need a controlled deadline should pass a *recent monotonic*
        # reading (e.g. ``time.monotonic() - 0.4``), not an arbitrary one.
        self._started = time.monotonic() if _started is None else _started

    @classmethod
    def after(cls, budget_s: float) -> "Deadline":
        return cls(budget_s)

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def remaining(self) -> float:
        """Seconds of budget left; negative once expired."""
        return self.budget_s - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def __repr__(self) -> str:
        return f"Deadline(budget_s={self.budget_s:g}, remaining={self.remaining():.3f})"


class AdmissionController:
    """Admit-or-shed decisions against a bounded queue, seeded.

    The ramp: depth below ``shed_start × max_queue`` always admits; depth
    at or above ``max_queue`` always sheds; in between, the shed
    probability rises linearly from 0 to 1. The early probabilistic
    shedding (vs a hard cliff at the bound) spreads rejections across
    coordinators instead of starving whoever arrives just after the queue
    fills, and gives clients backpressure *before* latency is hopeless.
    """

    def __init__(self, max_queue: int, shed_start: float = 0.75, seed: int = 0) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue!r}")
        if not 0.0 < shed_start <= 1.0:
            raise ValueError(f"shed_start must be in (0, 1], got {shed_start!r}")
        self.max_queue = int(max_queue)
        self.shed_start = float(shed_start)
        self._rng = random.Random(seed)
        self.admitted = 0
        self.shed = 0

    def decide(self, depth: int) -> bool:
        """True = admit the request at the given queue depth."""
        lo = self.shed_start * self.max_queue
        if depth >= self.max_queue:
            admit = False
        elif depth < lo:
            admit = True
        else:
            p_shed = (depth - lo) / (self.max_queue - lo)
            admit = self._rng.random() >= p_shed
        if admit:
            self.admitted += 1
        else:
            self.shed += 1
        return admit


# Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed/open/half-open failure gate for one (coordinator, node) pair.

    Counts *consecutive* transport-level failures (timeouts, connection
    errors, overload pushback); any success resets. At the threshold the
    breaker opens: calls fail fast (no frames sent) until ``cooldown_s``
    passes, then exactly one probe is let through half-open. The probe's
    fate decides: success closes, failure re-opens for another cooldown.

    Clock contract: ``allow``/``record_failure`` accept an optional
    ``now`` for tests. A breaker instance must use **one** time source for
    its whole lifetime — either every call passes ``now`` (manual clock)
    or none does (``time.monotonic()``). Mixing would compare an
    ``_opened_at`` from one clock against a ``now`` from the other, so the
    cooldown window becomes nonsense (an epoch timestamp next to a
    monotonic one can hold a breaker open for decades, or not at all).
    The first timed call pins the mode; a call on the other clock raises
    ``ValueError``.
    """

    def __init__(self, failure_threshold: int = 5, cooldown_s: float = 0.25) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}"
            )
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be positive, got {cooldown_s!r}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.state = CLOSED
        self.failures = 0
        self.opens = 0  # times the breaker tripped open (for metrics)
        self._opened_at = 0.0
        self._probing = False
        self._clock_mode: Optional[str] = None  # "manual" | "monotonic"

    def _resolve_now(self, now: Optional[float]) -> float:
        """Pin the breaker to one clock on first use; reject mixing."""
        mode = "monotonic" if now is None else "manual"
        if self._clock_mode is None:
            self._clock_mode = mode
        elif self._clock_mode != mode:
            raise ValueError(
                f"CircuitBreaker is pinned to its {self._clock_mode} clock; "
                f"a {mode} timestamp here would compare times from two "
                "different clocks within one cooldown window (either always "
                "pass now=, or never)"
            )
        return time.monotonic() if now is None else now

    def allow(self, now: Optional[float] = None) -> bool:
        """May a call proceed right now? (May transition open → half-open.)"""
        now = self._resolve_now(now)
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self._opened_at < self.cooldown_s:
                return False
            self.state = HALF_OPEN
            self._probing = False
        # Half-open: exactly one in-flight probe at a time.
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self._probing = False

    def record_failure(self, now: Optional[float] = None) -> None:
        now = self._resolve_now(now)
        if self.state == HALF_OPEN:
            # The probe failed: straight back to open for a fresh cooldown.
            self.state = OPEN
            self._opened_at = now
            self.opens += 1
            self._probing = False
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.failure_threshold:
            self.state = OPEN
            self._opened_at = now
            self.opens += 1


class BreakerBoard:
    """Lazy per-(src, dst) breaker registry sharing one configuration."""

    def __init__(self, failure_threshold: int = 5, cooldown_s: float = 0.25) -> None:
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self._breakers: dict[tuple[Optional[str], str], CircuitBreaker] = {}

    def for_pair(self, src: Optional[str], dst: str) -> CircuitBreaker:
        breaker = self._breakers.get((src, dst))
        if breaker is None:
            breaker = CircuitBreaker(self.failure_threshold, self.cooldown_s)
            self._breakers[(src, dst)] = breaker
        return breaker

    def snapshot(self) -> dict[str, dict]:
        return {
            f"{src or '*'}->{dst}": {
                "state": b.state,
                "failures": b.failures,
                "opens": b.opens,
            }
            for (src, dst), b in sorted(
                self._breakers.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
            )
        }

    @property
    def open_count(self) -> int:
        return sum(1 for b in self._breakers.values() if b.state != CLOSED)


class RetryBudget:
    """Token bucket bounding total retry amplification across calls.

    First attempts never consume tokens (a budget must not turn a healthy
    client into a non-client). Each *retry* withdraws one whole token or
    is denied; each *success* deposits ``deposit`` tokens (capped at
    capacity). During a total outage no successes land, so across any set
    of concurrent calls the number of retries ever granted is bounded by
    the initial capacity — retry storms cannot amplify offered load.
    """

    def __init__(self, capacity: float = 10.0, deposit: float = 0.5) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        if deposit < 0:
            raise ValueError(f"deposit must be >= 0, got {deposit!r}")
        self.capacity = float(capacity)
        self.deposit_per_success = float(deposit)
        self.tokens = float(capacity)
        self.granted = 0
        self.denied = 0

    def try_spend(self) -> bool:
        """Withdraw one token for a retry; False = retry denied."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False

    def on_success(self) -> None:
        self.tokens = min(self.capacity, self.tokens + self.deposit_per_success)
