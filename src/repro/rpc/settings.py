"""What a live node serves with, and what its callers call with.

A live ring is configured by two frozen values:

- :class:`NodeSpec` — one member's: everything its
  :class:`~repro.rpc.server.NodeServer`, the server's
  :class:`~repro.kvstore.replica.Replica` and its
  :class:`~repro.kvstore.wal.WriteAheadLog` are built from. It holds only
  JSON values, so a node can be handed its spec across a process boundary.
- :class:`CallPolicy` — the ring's: what the
  :class:`~repro.rpc.client.RpcClient` and the
  :class:`~repro.rpc.remote_store.RemoteKVStore` coordinator call with.

:meth:`~repro.system.config.EFDedupConfig.node_spec` and
:meth:`~repro.system.config.EFDedupConfig.call_policy` build both from a
deployment's config. Each knob has its one default here and one range
check: here, or in the value that checks itself — a
:class:`~repro.rpc.retry.RetryPolicy`, a codec name
(:func:`~repro.rpc.framing.get_codec`), γ and vnodes (the placement
strategy and hash ring) and the hint window (the hint buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.kvstore.consistency import ConsistencyLevel
from repro.rpc.retry import RetryPolicy


@dataclass(frozen=True)
class NodeSpec:
    """One ring member's serving settings.

    Attributes:
        node_id: the member's id (also its WAL's file name).
        host: bind address of the member's server.
        data_dir: when set, the member keeps a write-ahead log under this
            directory, so a kill/restart cycle restores its shard from disk
            instead of restarting empty.
        admission_queue: when > 0, the server runs a bounded request queue
            of this size and sheds with ``RpcOverloadError`` past the
            :class:`~repro.rpc.overload.AdmissionController` default of
            three quarters of it. 0 serves inline.
        service_workers: queue-draining tasks when admission is on.
    """

    node_id: str
    host: str = "127.0.0.1"
    data_dir: Optional[str] = None
    admission_queue: int = 0
    service_workers: int = 1

    def __post_init__(self) -> None:
        if self.admission_queue < 0:
            raise ValueError(f"admission_queue must be >= 0, got {self.admission_queue!r}")
        if self.service_workers < 1:
            raise ValueError(f"service_workers must be >= 1, got {self.service_workers!r}")


@dataclass(frozen=True)
class CallPolicy:
    """How a live ring's client and coordinator call its members.

    Attributes:
        replication_factor: γ — copies of each key.
        vnodes: virtual nodes per member.
        consistency: the store's default consistency level.
        max_hints_per_node: hinted-handoff window per down replica.
        codec: wire codec name; None picks msgpack when installed, else
            JSON. Servers answer each request in the codec it arrived in.
        timeout_s: per-attempt RPC timeout.
        retry: attempts and backoff schedule per call.
        deadline_s: end-to-end budget per data-plane call (None =
            unbounded). Carried on the wire; servers drop work whose budget
            expired in queue.
        breaker_failures: consecutive transport failures per (src, dst)
            pair before its circuit breaker opens. 0 disables breakers.
        breaker_cooldown_s: open-breaker cooldown before a half-open probe.
        retry_budget: token-bucket capacity bounding retry amplification
            across concurrent calls. 0 disables the budget.
        heartbeat_interval_s: when > 0, a heartbeat prober pings every
            member at this period and drives the coordinator's up/down
            state through the phi-accrual detector. 0 disables it.
    """

    replication_factor: int = 2
    vnodes: int = 16
    consistency: ConsistencyLevel = ConsistencyLevel.ONE
    max_hints_per_node: int = 100_000
    codec: Optional[str] = None
    timeout_s: float = 0.25
    retry: RetryPolicy = RetryPolicy()
    deadline_s: Optional[float] = None
    breaker_failures: int = 0
    breaker_cooldown_s: float = 0.25
    retry_budget: float = 0.0
    heartbeat_interval_s: float = 0.0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s!r}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive or None, got {self.deadline_s!r}")
        if self.breaker_failures < 0:
            raise ValueError(f"breaker_failures must be >= 0, got {self.breaker_failures!r}")
        if self.breaker_cooldown_s <= 0:
            raise ValueError(
                f"breaker_cooldown_s must be positive, got {self.breaker_cooldown_s!r}"
            )
        if self.retry_budget < 0:
            raise ValueError(f"retry_budget must be >= 0, got {self.retry_budget!r}")
        if self.heartbeat_interval_s < 0:
            raise ValueError(
                f"heartbeat_interval_s must be >= 0, got {self.heartbeat_interval_s!r}"
            )
