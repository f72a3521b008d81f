"""Lightweight trace spans with RPC correlation-id linkage.

A :class:`Tracer` records :class:`Span` intervals (name, start, duration,
node label, free-form attrs). Nesting is automatic within one thread/task:
``tracer.span(...)`` uses a :mod:`contextvars` variable for the current
span, so a span opened inside another becomes its child — and because
asyncio copies the context at task creation, spans opened in tasks spawned
under an open span (e.g. the scatter-gather fan-out of a batched index
round) parent correctly too.

Crossing the wire, the parent link is the RPC **correlation id**: the
client opens its call span with ``span_id=<correlation id>`` and the server
opens its handler span with ``parent_id=<correlation id>`` (the id already
travels in every request frame), so one client batch can be followed
client → coordinator → replica with per-hop timings and no wire-format
change.

Dump with :meth:`Tracer.chrome_trace` / :meth:`Tracer.dump_chrome_trace`:
the output is Chrome-trace JSON (``chrome://tracing`` / Perfetto), one
complete-event (``"ph": "X"``) per span, with node labels mapped to named
threads.

A tracer costs nothing when disabled (the shared :data:`NULL_TRACER` is how
un-traced components run): ``span`` short-circuits to yielding ``None``.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional

DEFAULT_MAX_SPANS = 100_000

_current_span: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_current_span", default=None
)


@dataclass
class Span:
    """One recorded interval. ``duration_s`` is filled when the span closes."""

    name: str
    span_id: str
    trace_id: str
    parent_id: Optional[str]
    start_s: float
    duration_s: float = 0.0
    node: Optional[str] = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; bounded so a long live run cannot grow memory.

    Args:
        max_spans: retained span budget — spans past it are dropped and
            counted in :attr:`dropped`.
        enabled: a disabled tracer records nothing and yields ``None`` from
            :meth:`span` (the no-op fast path).
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS, enabled: bool = True) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans!r}")
        self.max_spans = max_spans
        self.enabled = enabled
        self.dropped = 0
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._t0 = time.perf_counter()

    @contextmanager
    def span(
        self,
        name: str,
        *,
        node: Optional[str] = None,
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        trace_id: Optional[str] = None,
        **attrs,
    ) -> Iterator[Optional[Span]]:
        """Open a span around a ``with`` block.

        ``span_id``/``parent_id`` override the automatic ids — that is how
        the RPC layers link hops by correlation id. Extra keyword arguments
        become span attrs; the yielded :class:`Span` accepts more
        (``rec.attrs["key"] = value``) while the block runs.
        """
        if not self.enabled:
            yield None
            return
        parent = _current_span.get()
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else f"t{next(self._ids)}"
        if parent_id is None and parent is not None:
            parent_id = parent.span_id
        rec = Span(
            name=name,
            span_id=span_id if span_id is not None else f"s{next(self._ids)}",
            trace_id=trace_id,
            parent_id=parent_id,
            start_s=time.perf_counter() - self._t0,
            node=node if node is not None else (parent.node if parent is not None else None),
            attrs=dict(attrs),
        )
        token = _current_span.set(rec)
        try:
            yield rec
        finally:
            _current_span.reset(token)
            rec.duration_s = (time.perf_counter() - self._t0) - rec.start_s
            if len(self._spans) < self.max_spans:
                self._spans.append(rec)
            else:
                self.dropped += 1

    # -- reading --------------------------------------------------------- #

    def spans(self, name_prefix: str = "") -> list[Span]:
        """Recorded spans (optionally filtered by name prefix), in close order."""
        if not name_prefix:
            return list(self._spans)
        return [s for s in self._spans if s.name.startswith(name_prefix)]

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0

    # -- export ---------------------------------------------------------- #

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome-trace JSON object.

        Node labels become named threads; span/parent/trace ids and attrs
        land in each event's ``args`` so cross-hop correlation survives the
        dump.
        """
        tids: dict[str, int] = {}
        events: list[dict] = []
        for rec in self._spans:
            label = rec.node if rec.node is not None else "main"
            tid = tids.setdefault(label, len(tids) + 1)
            events.append(
                {
                    "name": rec.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": rec.start_s * 1e6,
                    "dur": rec.duration_s * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "span_id": rec.span_id,
                        "parent_id": rec.parent_id,
                        "trace_id": rec.trace_id,
                        **rec.attrs,
                    },
                }
            )
        thread_names = [
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": label},
            }
            for label, tid in tids.items()
        ]
        return {"displayTimeUnit": "ms", "traceEvents": thread_names + events}

    def dump_chrome_trace(self, path: str) -> int:
        """Write :meth:`chrome_trace` to ``path``; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)
        return len(self._spans)

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self._spans)}, dropped={self.dropped}, enabled={self.enabled})"


# Shared no-op: components default to this so tracing costs one boolean
# check per span site unless a real tracer is installed.
NULL_TRACER = Tracer(enabled=False)

# Entered instead of a span where ``tracer.enabled`` is false: no name, no allocation.
NO_SPAN = nullcontext()
