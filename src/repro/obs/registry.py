"""The metrics registry: named counters, gauges and histograms.

Components register a :class:`Scope` (a dotted-name namespace) and
describe their metrics once at construction time; nothing is recorded on
the simulation hot path.  Counters that components already maintain as
plain integer attributes are exposed as *gauges*: callables sampled only
when a snapshot is taken, so registering costs one closure and zero
per-event work.

A **snapshot** is a flat ``{dotted_name: number}`` dict -- trivially
JSON-serialisable and diffable, which is what the persistent
result store and the ``repro stats`` CLI traffic in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping


@dataclass
class Histogram:
    """A power-of-two bucketed histogram of non-negative samples.

    Bucket ``i`` counts samples in ``[2**(i-1), 2**i)`` (bucket 0 counts
    samples < 1).  Tracks count/total/min/max exactly; the buckets give
    the shape without storing samples.
    """

    buckets: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    def record(self, value: float) -> None:
        index = 0
        scaled = value
        while scaled >= 1 and index < 64:
            scaled /= 2
            index += 1
        while len(self.buckets) <= index:
            self.buckets.append(0)
        self.buckets[index] += 1
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot_into(self, out: dict[str, float], prefix: str) -> None:
        out[f"{prefix}.count"] = self.count
        out[f"{prefix}.total"] = self.total
        out[f"{prefix}.mean"] = self.mean
        if self.count:
            out[f"{prefix}.min"] = self.minimum
            out[f"{prefix}.max"] = self.maximum
        for index, bucket in enumerate(self.buckets):
            if bucket:
                out[f"{prefix}.bucket_lt_{1 << index}"] = bucket


class Scope:
    """One component's namespace inside the registry."""

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self.name = name

    def gauge(self, name: str, sample: Callable[[], float]) -> None:
        """Register a lazily-sampled value (e.g. an existing counter
        attribute or an occupancy method)."""
        self._registry._gauges[f"{self.name}.{name}"] = sample

    def histogram(self, name: str) -> Histogram:
        key = f"{self.name}.{name}"
        histogram = self._registry._histograms.get(key)
        if histogram is None:
            histogram = Histogram()
            self._registry._histograms[key] = histogram
        return histogram

    def scope(self, name: str) -> "Scope":
        """A nested sub-scope (``sbb`` -> ``sbb.u``)."""
        return Scope(self._registry, f"{self.name}.{name}")


class MetricsRegistry:
    """All scopes of one simulator instance."""

    def __init__(self) -> None:
        self._gauges: dict[str, Callable[[], float]] = {}
        self._histograms: dict[str, Histogram] = {}

    def scope(self, name: str) -> Scope:
        return Scope(self, name)

    def snapshot(self) -> dict[str, float]:
        """Sample every gauge and histogram into one flat dict."""
        out: dict[str, float] = {}
        for name, sample in self._gauges.items():
            out[name] = sample()
        for name, histogram in self._histograms.items():
            histogram.snapshot_into(out, name)
        return out


# ----------------------------------------------------------------------
# Snapshot algebra: diff / render / persist
# ----------------------------------------------------------------------

def diff_snapshots(before: Mapping[str, float],
                   after: Mapping[str, float]) -> dict[str, tuple]:
    """Changed keys only: ``{name: (before, after)}``.

    Keys missing on one side appear with ``None`` for that side, so a
    diff between snapshots of different schema versions is explicit
    rather than silently partial.
    """
    out: dict[str, tuple] = {}
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        if a != b:
            out[key] = (a, b)
    return out


def render_snapshot(snapshot: Mapping[str, float],
                    title: str | None = None) -> str:
    """Group dotted names by component and format as an ASCII listing."""
    groups: dict[str, list[tuple[str, float]]] = {}
    for key in sorted(snapshot):
        component, _, metric = key.partition(".")
        groups.setdefault(component, []).append((metric or component,
                                                 snapshot[key]))
    lines = []
    if title:
        lines.append(title)
    for component, metrics in groups.items():
        lines.append(f"[{component}]")
        width = max(len(name) for name, _ in metrics)
        for name, value in metrics:
            if isinstance(value, float) and not value.is_integer():
                rendered = f"{value:.4f}"
            else:
                rendered = str(int(value))
            lines.append(f"  {name.ljust(width)}  {rendered}")
    return "\n".join(lines)


def save_snapshot(path: str | Path, snapshot: Mapping[str, float],
                  meta: Mapping[str, object] | None = None) -> Path:
    """Persist a snapshot (plus free-form metadata) as JSON."""
    path = Path(path)
    payload = {"meta": dict(meta or {}), "metrics": dict(snapshot)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_snapshot(path: str | Path) -> tuple[dict[str, float], dict]:
    """Load a snapshot written by :func:`save_snapshot`.

    Also accepts a bare ``{name: value}`` mapping, so store payloads and
    hand-written fixtures load the same way.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if "metrics" in payload and isinstance(payload["metrics"], dict):
        return dict(payload["metrics"]), dict(payload.get("meta", {}))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a metric snapshot")
    return dict(payload), {}
