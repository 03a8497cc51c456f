"""A namespaced metrics registry for serving runs.

One :class:`MetricsRegistry` lives for one ``serve()`` and replaces the
historical scatter of ad-hoc ``fault_*`` / ``slo_*`` entries in
``ServingResult.extras``: every layer registers its counters, gauges,
and histograms under a slash-namespaced metric name
(``fault/shed_requests``, ``bless/squads``, ``latency/request_us``),
and the harness snapshots the registry once at the end of the run.
Only simulated outcomes are registered; host-side machinery (the
engine's event counters, the decision cache's hit rate) stays on the
objects that own it (``SimEngine.counters``,
``ExecutionConfigDeterminer.cache_stats``).

Two snapshot views exist:

* :meth:`MetricsRegistry.snapshot` — the full namespaced view,
  histograms expanded into ``<name>/le_<bound>`` cumulative buckets
  plus ``<name>/count`` and ``<name>/sum`` (Prometheus-style);
* :meth:`MetricsRegistry.legacy_extras` — the **compatibility shim**:
  scalar metrics only, renamed to the historical ``extras`` keys
  (``fault/x`` → ``fault_x``, ``slo/x`` → ``slo_x``, ``bless/x`` →
  ``x``), in registration order.

Metric mutation is deterministic (no wall clock, no sampling), so two
same-seed runs produce identical snapshots.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram boundaries for latency-like quantities in
#: microseconds: 1 ms … 10 s in a 1-2.5-5 ladder.  Fixed boundaries
#: keep bucket counts comparable across runs and systems.
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    1e3, 2.5e3, 5e3,
    1e4, 2.5e4, 5e4,
    1e5, 2.5e5, 5e5,
    1e6, 2.5e6, 5e6,
    1e7,
)

#: Default boundaries for kernel-scale durations/waits (µs).
KERNEL_BUCKETS_US: Tuple[float, ...] = (
    1.0, 2.5, 5.0,
    10.0, 25.0, 50.0,
    100.0, 250.0, 500.0,
    1e3, 2.5e3, 5e3,
)

#: Namespaces whose metrics the compatibility shim exports under the
#: historical ``extras`` key scheme; ``bless`` drops its prefix (the
#: runtime's squad/context counters were historically unprefixed).
_LEGACY_BARE_NAMESPACE = "bless"


class Counter:
    """A monotonically increasing scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: Number = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A scalar that can move in either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: Number) -> None:
        self.value = float(value)


class Histogram:
    """A fixed-boundary histogram with cumulative-bucket snapshots.

    ``boundaries`` are the inclusive upper bounds of the finite
    buckets; observations above the last boundary land in the implicit
    ``+inf`` bucket.  Boundaries are fixed at creation so bucket counts
    are comparable across runs, systems, and exports.
    """

    __slots__ = ("name", "boundaries", "counts", "sum", "count")

    def __init__(self, name: str, boundaries: Sequence[float]):
        if not boundaries:
            raise ValueError(f"histogram {name} needs at least one boundary")
        ordered = tuple(float(b) for b in boundaries)
        if any(b >= c for b, c in zip(ordered, ordered[1:])):
            raise ValueError(f"histogram {name} boundaries must strictly increase")
        self.name = name
        self.boundaries = ordered
        self.counts = [0] * (len(ordered) + 1)  # last = +inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot_items(self) -> List[Tuple[str, float]]:
        """Cumulative ``le`` buckets plus count/sum, Prometheus-style."""
        items: List[Tuple[str, float]] = []
        cumulative = 0
        for bound, bucket in zip(self.boundaries, self.counts):
            cumulative += bucket
            items.append((f"{self.name}/le_{bound:g}", float(cumulative)))
        items.append((f"{self.name}/le_inf", float(self.count)))
        items.append((f"{self.name}/count", float(self.count)))
        items.append((f"{self.name}/sum", self.sum))
        return items


Metric = Union[Counter, Gauge, Histogram]


def _check_name(name: str) -> None:
    if not name or name.startswith("/") or name.endswith("/"):
        raise ValueError(f"bad metric name {name!r}")
    for ch in name:
        if not (ch.isascii() and (ch.isalnum() or ch in "_/")):
            raise ValueError(f"bad metric name {name!r} (character {ch!r})")


class MetricsRegistry:
    """Get-or-create registry of namespaced metrics.

    Registration order is preserved, which is what makes
    :meth:`legacy_extras` reproduce the historical ``extras`` key order
    byte for byte.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- construction --------------------------------------------------
    def _get_or_create(self, name: str, kind: type, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            _check_name(name)
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, boundaries: Sequence[float] = LATENCY_BUCKETS_US
    ) -> Histogram:
        metric = self._metrics.get(name)
        if isinstance(metric, Histogram):
            return metric
        return self._get_or_create(name, Histogram, boundaries)

    def import_mapping(self, namespace: str, values: Mapping[str, Number]) -> None:
        """Bulk-register ``namespace/key`` gauges from a plain mapping.

        Used by the harness to pull end-of-run tallies (fault stats,
        gateway counters) into the registry in their historical order.
        """
        for key, value in values.items():
            self.gauge(f"{namespace}/{key}").set(float(value))

    # -- introspection -------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return list(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """The full namespaced view (histograms expanded into buckets)."""
        out: Dict[str, float] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out.update(metric.snapshot_items())
            else:
                out[name] = float(metric.value)
        return out

    def legacy_extras(self) -> Dict[str, float]:
        """The compatibility shim: scalars under the historical keys.

        ``fault/x`` → ``fault_x``, ``slo/x`` → ``slo_x``, and the
        runtime's own ``bless/x`` metrics drop their prefix (→ ``x``),
        exactly as the pre-registry harness wrote them.  Histograms are
        registry-only: they did not exist before the registry, so adding
        them to ``extras`` would churn the golden schemas.
        """
        out: Dict[str, float] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                continue
            namespace, _, rest = name.partition("/")
            if namespace == _LEGACY_BARE_NAMESPACE and rest:
                key = rest.replace("/", "_")
            else:
                key = name.replace("/", "_")
            out[key] = float(metric.value)
        return out
