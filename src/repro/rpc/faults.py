"""Deterministic fault injection for the RPC transport.

The transport consults a :class:`FaultInjector` at two points:

- :meth:`FaultInjector.plan_send` — before a request frame leaves the
  client: the request may be *dropped* (never sent; the call times out and
  retries), *delayed* (held for a fixed interval before the write), or
  *duplicated* (the frame is written twice; the server's idempotency cache
  makes the second delivery harmless and the client discards the second
  response).
- :meth:`FaultInjector.should_drop_response` /
  :meth:`FaultInjector.response_delay` — when a response frame arrives:
  dropping here models "the server did the work but the network ate the
  reply" (the scenario that distinguishes at-most-once from at-least-once
  semantics); delaying here models "the server did the work *slowly*" as
  seen from the client, distinct from a request the network ate.
- :meth:`FaultInjector.plan_serve` — before a server executes admitted
  work: SLOW rules inflate service time by a seeded lognormal multiple of
  a median, the gray-failure shape (a lagging disk or a GC-thrashing
  process: mostly fine, occasionally 10×) that binary up/down faults
  cannot express.

Rules match on the (src, dst) *coordinator → replica node* pair, with
``None`` as a wildcard, an optional probability, and an optional ``times``
budget after which the rule retires. :meth:`partition` installs an
unconditional symmetric drop for a pair (both directions, requests and
responses) until :meth:`heal` removes it.

All randomness comes from one seeded ``random.Random``, so a single-threaded
test replays the exact same fault sequence every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"
SLOW = "slow"

REQUEST = "request"
RESPONSE = "response"


@dataclass
class FaultRule:
    """One injected-fault pattern.

    Attributes:
        kind: DROP, DELAY, DUPLICATE, or SLOW.
        src: coordinator node id to match (None = any).
        dst: replica node id to match (None = any).
        direction: REQUEST or RESPONSE (duplicate is request-only; SLOW
            acts server-side at ``dst`` and ignores direction).
        probability: chance the rule fires when it matches.
        delay_s: hold time for DELAY rules; *median* service-time
            inflation for SLOW rules.
        sigma: lognormal shape for SLOW rules — 0 means a constant
            ``delay_s`` inflation, larger values grow the heavy tail
            (occasional 10× stalls) around the same median.
        times: remaining firings before the rule retires (None = unlimited).
    """

    kind: str
    src: Optional[str] = None
    dst: Optional[str] = None
    direction: str = REQUEST
    probability: float = 1.0
    delay_s: float = 0.0
    sigma: float = 0.0
    times: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in (DROP, DELAY, DUPLICATE, SLOW):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.direction not in (REQUEST, RESPONSE):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.kind == DUPLICATE and self.direction != REQUEST:
            raise ValueError(f"{self.kind} faults apply to requests only")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability!r}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s!r}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma!r}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1 or None, got {self.times!r}")

    def matches(self, src: Optional[str], dst: Optional[str]) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )

    @property
    def exhausted(self) -> bool:
        return self.times is not None and self.times <= 0


@dataclass(frozen=True)
class SendPlan:
    """What the injector decided for one outgoing request frame."""

    drop: bool = False
    delay_s: float = 0.0
    duplicate: bool = False


@dataclass
class FaultStats:
    """How often each fault actually fired."""

    dropped_requests: int = 0
    dropped_responses: int = 0
    delayed_requests: int = 0
    delayed_responses: int = 0
    duplicated_requests: int = 0
    slowed_serves: int = 0


@dataclass
class FaultInjector:
    """A rule set the transport consults on every message.

    An injector with no rules and no partitions is a no-op (the transport's
    default is ``None``, skipping the consult entirely).
    """

    seed: int = 0
    rules: list[FaultRule] = field(default_factory=list)
    stats: FaultStats = field(default_factory=FaultStats)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._partitions: set[frozenset[str]] = set()

    # -- rule installation ---------------------------------------------- #

    def add_rule(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def drop_requests(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Lose request frames on the pair (call times out, retries resend)."""
        return self.add_rule(
            FaultRule(DROP, src, dst, REQUEST, probability=probability, times=times)
        )

    def drop_responses(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Lose response frames: the server applied the call, the client
        retries it — the idempotency test case."""
        return self.add_rule(
            FaultRule(DROP, src, dst, RESPONSE, probability=probability, times=times)
        )

    def delay_requests(
        self,
        delay_s: float,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Hold request frames for ``delay_s`` before they are written."""
        return self.add_rule(
            FaultRule(
                DELAY, src, dst, REQUEST,
                probability=probability, delay_s=delay_s, times=times,
            )
        )

    def delay_responses(
        self,
        delay_s: float,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Hold response frames for ``delay_s`` before the client sees them:
        the server did the work, the reply crawled back — distinguishable
        from a request the network ate (the work *did* happen)."""
        return self.add_rule(
            FaultRule(
                DELAY, src, dst, RESPONSE,
                probability=probability, delay_s=delay_s, times=times,
            )
        )

    def slow_serves(
        self,
        median_s: float,
        dst: Optional[str] = None,
        sigma: float = 0.0,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Inflate ``dst``'s service time by a seeded lognormal sample with
        the given median — the gray-failure knob (a slow node, not a dead
        one: it still answers everything, just late)."""
        return self.add_rule(
            FaultRule(
                SLOW, None, dst, REQUEST,
                probability=probability, delay_s=median_s, sigma=sigma, times=times,
            )
        )

    def duplicate_requests(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> FaultRule:
        """Deliver request frames twice."""
        return self.add_rule(
            FaultRule(DUPLICATE, src, dst, REQUEST, probability=probability, times=times)
        )

    def partition(self, a: str, b: str) -> None:
        """Cut the pair symmetrically: every request and response between
        ``a`` and ``b`` (either direction) is dropped until :meth:`heal`."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: Optional[str] = None, b: Optional[str] = None) -> None:
        """Remove one partition (both ids given) or all partitions."""
        if a is None and b is None:
            self._partitions.clear()
        elif a is not None and b is not None:
            self._partitions.discard(frozenset((a, b)))
        else:
            raise ValueError("heal() takes both node ids or neither")

    def remove_rule(self, rule: FaultRule) -> None:
        """Retire one installed rule (no-op if already gone) — the undo for
        long-lived rules like a ``slow_serves`` gray failure."""
        try:
            self.rules.remove(rule)
        except ValueError:
            pass

    def clear(self) -> None:
        """Retire every rule and partition."""
        self.rules.clear()
        self._partitions.clear()

    # -- transport-side queries ----------------------------------------- #

    def is_partitioned(self, src: Optional[str], dst: Optional[str]) -> bool:
        if src is None or dst is None:
            return False
        return frozenset((src, dst)) in self._partitions

    def _fire(self, kind: str, direction: str, src: Optional[str], dst: Optional[str]) -> list[FaultRule]:
        fired = []
        for rule in self.rules:
            if rule.kind != kind or rule.direction != direction or rule.exhausted:
                continue
            if not rule.matches(src, dst):
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            if rule.times is not None:
                rule.times -= 1
            fired.append(rule)
        return fired

    def plan_send(self, src: Optional[str], dst: Optional[str]) -> SendPlan:
        """Decide the fate of one outgoing request frame."""
        if self.is_partitioned(src, dst):
            self.stats.dropped_requests += 1
            return SendPlan(drop=True)
        if self._fire(DROP, REQUEST, src, dst):
            self.stats.dropped_requests += 1
            return SendPlan(drop=True)
        delay_s = sum(r.delay_s for r in self._fire(DELAY, REQUEST, src, dst))
        duplicate = bool(self._fire(DUPLICATE, REQUEST, src, dst))
        if delay_s:
            self.stats.delayed_requests += 1
        if duplicate:
            self.stats.duplicated_requests += 1
        return SendPlan(drop=False, delay_s=delay_s, duplicate=duplicate)

    def should_drop_response(self, src: Optional[str], dst: Optional[str]) -> bool:
        """Decide the fate of one incoming response frame for the (src, dst)
        pair of the call it answers."""
        if self.is_partitioned(src, dst) or self._fire(DROP, RESPONSE, src, dst):
            self.stats.dropped_responses += 1
            return True
        return False

    def response_delay(self, src: Optional[str], dst: Optional[str]) -> float:
        """How long to hold one incoming response frame before delivery
        (0.0 = deliver now). Consulted after :meth:`should_drop_response`."""
        delay_s = sum(r.delay_s for r in self._fire(DELAY, RESPONSE, src, dst))
        if delay_s:
            self.stats.delayed_responses += 1
        return delay_s

    def plan_serve(self, node_id: Optional[str]) -> float:
        """Service-time inflation for one admitted request at ``node_id``.

        SLOW rules match on ``dst`` only (a slow node is slow for every
        caller). Each fired rule contributes a lognormal sample whose
        median is the rule's ``delay_s``: ``exp(N(ln(median), sigma))``,
        drawn from the injector's seeded RNG.
        """
        total = 0.0
        for rule in self._fire(SLOW, REQUEST, None, node_id):
            if rule.sigma > 0 and rule.delay_s > 0:
                total += self._rng.lognormvariate(math.log(rule.delay_s), rule.sigma)
            else:
                total += rule.delay_s
        if total:
            self.stats.slowed_serves += 1
        return total
