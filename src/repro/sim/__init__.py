"""Discrete-event simulation substrate: clock, event engine, RNG and
shared-bandwidth modeling used by the EF-dedup throughput experiments."""

from repro.sim.bandwidth import SharedLink, gbps, mbps
from repro.sim.clock import SimClock
from repro.sim.events import EventEngine, EventHandle
from repro.sim.rng import SeedLike, derive_seed, make_rng, spawn_rng, stable_hash_seed

__all__ = [
    "EventEngine",
    "EventHandle",
    "SeedLike",
    "SharedLink",
    "SimClock",
    "derive_seed",
    "gbps",
    "make_rng",
    "mbps",
    "spawn_rng",
    "stable_hash_seed",
]
