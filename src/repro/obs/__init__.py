"""Unified observability layer: histograms, trace spans, and the MetricsHub.

One import surface for the three pieces the rest of the system wires in:

- :class:`Histogram` — fixed-bucket latency histograms (O(1) memory), the
  one latency summary; :class:`GcPauses` times garbage collections into
  them while a ``with`` block runs;
- :class:`Tracer` / :data:`NULL_TRACER` — lightweight spans linked across the
  wire by the RPC correlation id, dumpable as Chrome-trace JSON;
- :class:`MetricsHub` — the process-wide registry joining every component's
  counters into one Prometheus-text / JSON export, and :func:`series`, the
  one reading of a stats dataclass as bare-named metric series.
"""

from repro.obs.gcpause import GcPauses
from repro.obs.histogram import DEFAULT_LATENCY_BUCKETS_S, Histogram
from repro.obs.hub import MetricsHub, prometheus_name, render_prometheus, series
from repro.obs.trace import NULL_TRACER, Span, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "GcPauses",
    "Histogram",
    "MetricsHub",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "prometheus_name",
    "render_prometheus",
    "series",
]
