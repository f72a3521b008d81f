"""The open-loop driver: fire requests on schedule, measure what completes.

The contract that makes this *open-loop*: the dispatcher fires request i at
its scheduled arrival time whether or not requests 0..i-1 completed. A
saturated cluster therefore accumulates in-flight work and its queueing
delay lands in the latency histogram — closed-loop drivers (ingest one file,
wait, ingest the next) can never see that, because their offered load
politely slows down with the server.

Two measurement rules keep the numbers honest:

- latency is measured from the request's *scheduled* arrival, not from the
  moment the dispatcher got around to sending it — if the dispatcher falls
  behind, that lag is queueing delay too (the coordinated-omission fix);
- goodput divides completed requests by the span from the first scheduled
  arrival to the last completion, so work that straggles past the offered
  window deflates goodput instead of hiding.

The runner is transport-agnostic: it drives any ``submit(keys, value,
coordinator) -> Future`` callable. The live path binds it to
:meth:`~repro.rpc.remote_store.RemoteKVStore.submit_put_if_absent_many`;
tests bind fakes with frozen completions to pin the open-loop property.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.loadgen.workload import LoadRequest
from repro.obs.gcpause import GcPauses
from repro.obs.histogram import Histogram

# submit(keys, value, *, coordinator=...) -> Future, matching
# RemoteKVStore.submit_put_if_absent_many (coordinator passed by keyword).
SubmitFn = Callable[..., Future]

# Load latencies reach past RPC buckets once queueing kicks in: extend the
# range up to 10s so a saturated step still resolves its tail.
LOAD_LATENCY_BUCKETS_S: tuple[float, ...] = (
    100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
    250e-3, 500e-3, 1.0, 2.5, 5.0, 10.0,
)


@dataclass
class StepResult:
    """One (offered-load, trial) measurement."""

    offered_rps: float
    duration_s: float
    arrivals: int
    completed: int
    failed: int
    shed: int
    span_s: float
    goodput_rps: float
    claims_new: int
    claims_dup: int
    mean_s: float
    p50_s: float
    p99_s: float
    p999_s: float
    max_dispatch_lag_s: float
    max_gc_pause_s: float
    per_node: dict[str, int] = field(default_factory=dict)
    hotspot_skew: float = 1.0

    @property
    def efficiency(self) -> float:
        """Goodput as a fraction of offered load (1.0 = tracking)."""
        return self.goodput_rps / self.offered_rps if self.offered_rps else 0.0

    def as_dict(self) -> dict:
        return {
            "offered_rps": self.offered_rps,
            "duration_s": self.duration_s,
            "arrivals": self.arrivals,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "span_s": self.span_s,
            "goodput_rps": self.goodput_rps,
            "efficiency": self.efficiency,
            "claims_new": self.claims_new,
            "claims_dup": self.claims_dup,
            "latency_mean_s": self.mean_s,
            "latency_p50_s": self.p50_s,
            "latency_p99_s": self.p99_s,
            "latency_p999_s": self.p999_s,
            "max_dispatch_lag_s": self.max_dispatch_lag_s,
            "max_gc_pause_s": self.max_gc_pause_s,
            "per_node": dict(sorted(self.per_node.items())),
            "hotspot_skew": self.hotspot_skew,
        }


def hotspot_skew(per_node: dict[str, int], node_ids: Sequence[str]) -> float:
    """Hottest member's request share relative to a uniform spread.

    1.0 means perfectly balanced; ``len(node_ids)`` means one member takes
    everything. Members that saw no traffic still count in the denominator.
    """
    total = sum(per_node.values())
    n = max(len(node_ids), len(per_node), 1)
    if not total:
        return 1.0
    return max(per_node.values()) / total * n


class OpenLoopRunner:
    """Drive one arrival schedule through a submit function, open-loop.

    Args:
        submit: ``(keys, value, coordinator) -> Future`` — must return
            immediately (the live store's ``submit_put_if_absent_many``).
        node_ids: ring membership, for the skew denominator.
        drain_timeout_s: how long past the last arrival to wait for
            stragglers; anything still pending after that counts as failed.
        shed_types: exception types counted as *shed* (deliberate
            overload pushback — ``RpcOverloadError``, ``CircuitOpenError``)
            rather than failed. Shed requests are the system working as
            designed under overload; the latency percentiles cover
            *admitted* (completed) requests only, and conservation becomes
            ``arrivals == completed + shed + failed``.
    """

    def __init__(
        self,
        submit: SubmitFn,
        node_ids: Sequence[str] = (),
        drain_timeout_s: float = 30.0,
        shed_types: tuple[type[BaseException], ...] = (),
    ) -> None:
        self._submit = submit
        self._node_ids = list(node_ids)
        self._drain_timeout_s = float(drain_timeout_s)
        self._shed_types = tuple(shed_types)

    def run(
        self,
        schedule: Sequence[float],
        requests: Iterable[LoadRequest],
        duration_s: float,
    ) -> StepResult:
        # Each completion: (latency, end, claims_new | None, nkeys, shed?).
        completions: list[tuple[float, float, Optional[int], int, bool]] = []
        futures: list[Future] = []
        per_node: dict[str, int] = {}
        max_lag = 0.0
        # Collections during the step are timed, so a latency tail can be
        # told apart from a collector pause.
        with GcPauses() as pauses:
            base = time.perf_counter()

            for t_arr, req in zip(schedule, requests):
                target = base + t_arr
                delay = target - time.perf_counter()
                if delay > 0.0:
                    time.sleep(delay)
                else:
                    max_lag = max(max_lag, -delay)
                fut = self._submit(req.keys, req.agent_id, coordinator=req.coordinator)
                per_node[req.coordinator] = per_node.get(req.coordinator, 0) + 1

                def _done(f: Future, sched: float = target, nkeys: int = len(req.keys)):
                    end = time.perf_counter()
                    if f.cancelled():
                        completions.append((end - sched, end, None, nkeys, False))
                        return
                    exc = f.exception()
                    if exc is not None:
                        shed = self._shed_types and isinstance(exc, self._shed_types)
                        completions.append((end - sched, end, None, nkeys, bool(shed)))
                    else:
                        completions.append((end - sched, end, sum(f.result()), nkeys, False))

                fut.add_done_callback(_done)
                futures.append(fut)

            arrivals = len(futures)
            not_done = wait(futures, timeout=self._drain_timeout_s).not_done
            for fut in not_done:
                fut.cancel()
            drain_end = time.perf_counter()
            # wait() releases its waiter a hair before done-callbacks fire on
            # the loop thread; settle until every arrival (cancelled included)
            # has reported, bounded so a wedged coroutine cannot hang the step.
            settle_deadline = time.perf_counter() + 2.0
            while len(completions) < arrivals and time.perf_counter() < settle_deadline:
                time.sleep(0.001)

        latency = Histogram("loadgen.latency_s", buckets=LOAD_LATENCY_BUCKETS_S)
        recorded = list(completions)
        completed = failed = shed = claims_new = claims_dup = 0
        last_end = base + duration_s
        for lat, end, new, nkeys, was_shed in recorded:
            if new is None:
                if was_shed:
                    shed += 1
                else:
                    failed += 1
                continue
            completed += 1
            latency.observe(max(lat, 0.0))
            last_end = max(last_end, end)
            claims_new += new
            claims_dup += nkeys - new
        # Arrivals whose callbacks never landed (still pending past the
        # drain + settle window) are failures too.
        failed += arrivals - len(recorded)

        # The span runs from the first scheduled arrival to the last
        # completion (or the drain cutoff while work is still pending):
        # straggling work deflates goodput instead of hiding past the
        # offered window.
        span = last_end - base
        if not_done:
            span = max(span, drain_end - base)
        offered = arrivals / duration_s if duration_s else 0.0
        return StepResult(
            offered_rps=offered,
            duration_s=duration_s,
            arrivals=arrivals,
            completed=completed,
            failed=failed,
            shed=shed,
            span_s=span,
            goodput_rps=completed / span if span else 0.0,
            claims_new=claims_new,
            claims_dup=claims_dup,
            mean_s=latency.mean if latency.count else 0.0,
            p50_s=latency.percentile(50) if latency.count else 0.0,
            p99_s=latency.percentile(99) if latency.count else 0.0,
            p999_s=latency.percentile(99.9) if latency.count else 0.0,
            max_dispatch_lag_s=max_lag,
            max_gc_pause_s=pauses.max_pause_s,
            per_node=per_node,
            hotspot_skew=hotspot_skew(per_node, self._node_ids),
        )
