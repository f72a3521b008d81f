"""Bounded retries with exponential backoff and jitter.

The schedule is the classic one (e.g. AWS architecture-blog "exponential
backoff and jitter"): attempt ``i`` waits ``base * multiplier**i`` seconds,
capped at ``max_delay_s``, then scaled by a random factor in
``[1 - jitter, 1 + jitter]`` so a fleet of retrying coordinators does not
resynchronize into thundering herds. Randomness comes from a caller-owned
``random.Random`` so tests are deterministic under a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to try a call and how long to wait between tries.

    Attributes:
        attempts: total tries (1 = no retries).
        base_delay_s: backoff before the first retry.
        multiplier: exponential growth factor per retry.
        max_delay_s: backoff ceiling (pre-jitter).
        jitter: relative jitter half-width in [0, 1]; 0 = deterministic.
    """

    attempts: int = 4
    base_delay_s: float = 0.02
    multiplier: float = 2.0
    max_delay_s: float = 0.5
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts!r}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0, got {self.base_delay_s!r}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier!r}")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError(
                f"max_delay_s {self.max_delay_s!r} < base_delay_s {self.base_delay_s!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter!r}")

    def backoff_delays(self, rng: random.Random) -> Iterator[float]:
        """The ``attempts - 1`` waits between consecutive tries."""
        for retry in range(self.attempts - 1):
            delay = min(self.base_delay_s * self.multiplier**retry, self.max_delay_s)
            if self.jitter:
                delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield delay
