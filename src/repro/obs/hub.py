"""MetricsHub: one export for every component registry in the process.

One vocabulary rule: a stats object (``CacheStats``, ``StoreStats``,
``ClientStats``, ``ServerStats``, ``WalStats``, …) is a plain dataclass
whose *field names are its metric names*, bare — :func:`series` is the one
function that reads them out — and the mount point is the only place a
prefix is ever added. ``register("kvstore", store.stats)`` mounts that
object's fields under ``kvstore.*`` in the collected view, nested dicts
flatten into dotted names, and the whole tree renders as one JSON document
(:meth:`MetricsHub.to_json`) or one Prometheus text exposition
(:meth:`MetricsHub.render_prometheus`) — so a live cluster, the in-process
engine, benchmarks, and CI all read the same metric names. A gauge that is
derived rather than counted (a hit rate, a queue depth, a state's index) is
an explicit line beside ``series(...)`` in the callable its owner mounts.

Name hygiene is enforced at collect time: if two sources flatten onto the
same metric name the collect raises instead of silently clobbering one of
them.

Sources may be:

- a :class:`~repro.obs.histogram.Histogram` (exported structured, under its
  registered name);
- a stats dataclass instance (read through :func:`series` per collect);
- any object with a ``snapshot()`` method returning a mapping;
- a zero-argument callable returning a mapping (evaluated per collect);
- a plain mapping (static gauges).

A snapshot value that is itself a mapping with ``"type": "histogram"``
(i.e. :meth:`Histogram.snapshot` output) stays structured instead of being
flattened.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Mapping, Union

from repro.obs.histogram import Histogram

SCHEMA = "repro.metrics/v1"

MetricSource = Union[Histogram, Mapping, Callable[[], Mapping], Any]

_NAME_RE = re.compile(r"^[A-Za-z0-9_.:\-]+$")
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _is_histogram_snapshot(value: Any) -> bool:
    return isinstance(value, Mapping) and value.get("type") == "histogram"


def series(*stats: Any) -> dict[str, Any]:
    """Stats dataclasses as metric series, bare-named.

    Every numeric field is a series under the field's own name, in the
    field's own type (an ``int`` counter stays an ``int``); a dict field
    keyed by strings (``by_method``) nests under its field name; any other
    field (a state label, a tuple of moves, a dict keyed by node pairs) is
    not a series. Several objects of one type sum field by field — a ring's
    view of its per-agent or per-node counters — and none gives ``{}``.
    """
    out: dict[str, Any] = {}
    for obj in stats:
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, dict):
                if all(isinstance(key, str) for key in value):
                    nested = out.setdefault(f.name, {})
                    for key, count in value.items():
                        nested[key] = nested.get(key, 0) + count
            elif isinstance(value, (int, float)):
                out[f.name] = out.get(f.name, 0) + value
    return out


class MetricsHub:
    """A process-wide registry of named metric sources."""

    def __init__(self) -> None:
        self._sources: dict[str, MetricSource] = {}

    # -- registration ---------------------------------------------------- #

    def register(self, name: str, source: MetricSource, replace: bool = False) -> None:
        """Mount ``source`` under ``name`` (dotted hierarchical path).

        Raises:
            ValueError: on an invalid name, or when ``name`` is taken and
                ``replace`` is False — re-registering a component silently
                would hide whichever instance lost the race.
        """
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(
                f"metric source name must be a dotted identifier, got {name!r}"
            )
        if name in self._sources and not replace:
            raise ValueError(
                f"metric source {name!r} is already registered "
                "(pass replace=True to swap it, or use a distinct prefix)"
            )
        self._sources[name] = source

    def unregister(self, name: str) -> None:
        self._sources.pop(name, None)

    def names(self) -> list[str]:
        return list(self._sources)

    # -- collection ------------------------------------------------------ #

    @staticmethod
    def _resolve(source: MetricSource) -> Mapping:
        if isinstance(source, Histogram):
            return source.snapshot()
        if is_dataclass(source) and not isinstance(source, type):
            return series(source)
        snapshot = getattr(source, "snapshot", None)
        if callable(snapshot):
            return snapshot()
        if isinstance(source, Mapping):
            return source
        if callable(source):
            return source()
        raise TypeError(
            f"metric source must be a Histogram, stats dataclass, mapping, "
            f"callable, or expose snapshot(); got {type(source).__name__}"
        )

    def collect(self) -> dict[str, Any]:
        """One flat ``dotted.name -> value`` view across every source.

        Values are numbers (counters/gauges) or structured histogram dicts.
        Non-numeric leaves (e.g. string labels) are kept as-is; renderers
        that cannot express them skip them.
        """
        out: dict[str, Any] = {}
        owners: dict[str, str] = {}

        def emit(key: str, value: Any, owner: str) -> None:
            if key in out:
                raise ValueError(
                    f"metric name collision on {key!r}: produced by both "
                    f"{owners[key]!r} and {owner!r} — register one of them "
                    "under a distinct prefix"
                )
            out[key] = value
            owners[key] = owner

        def walk(prefix: str, value: Any, owner: str) -> None:
            if _is_histogram_snapshot(value):
                emit(prefix, dict(value), owner)
            elif isinstance(value, Mapping):
                for k, v in value.items():
                    walk(f"{prefix}.{k}", v, owner)
            else:
                emit(prefix, value, owner)

        for name, source in self._sources.items():
            resolved = self._resolve(source)
            if isinstance(source, Histogram) or _is_histogram_snapshot(resolved):
                emit(name, dict(resolved), name)
                continue
            for key, value in resolved.items():
                walk(f"{name}.{key}", value, name)
        return out

    # -- rendering ------------------------------------------------------- #

    def to_json(self) -> dict[str, Any]:
        """The export as a JSON-serializable document (stable schema)."""
        return {"schema": SCHEMA, "metrics": self.collect()}

    def dump_json(self, path: str) -> int:
        """Write :meth:`to_json` to ``path``; returns the series count."""
        doc = self.to_json()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return len(doc["metrics"])

    def render_prometheus(self) -> str:
        return render_prometheus(self.collect())


def prometheus_name(name: str) -> str:
    """Sanitize a dotted metric name into a legal Prometheus identifier."""
    sanitized = _PROM_BAD.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(metrics: Mapping[str, Any]) -> str:
    """Render a collected (or re-loaded) metrics mapping as Prometheus text.

    Numbers become gauges; histogram structs expand into the standard
    ``_bucket``/``_sum``/``_count`` triplet with ``le`` labels. Non-numeric
    leaves are skipped (Prometheus has no string samples).
    """
    lines: list[str] = []
    for name in sorted(metrics):
        value = metrics[name]
        prom = prometheus_name(name)
        if _is_histogram_snapshot(value):
            lines.append(f"# TYPE {prom} histogram")
            for le, cumulative in value["buckets"]:
                lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{prom}_sum {_format_value(float(value['sum']))}")
            lines.append(f"{prom}_count {value['count']}")
        elif isinstance(value, bool):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {int(value)}")
        elif isinstance(value, (int, float)):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_format_value(float(value))}")
        # non-numeric leaves (labels, strings) have no Prometheus form
    return "\n".join(lines) + ("\n" if lines else "")
