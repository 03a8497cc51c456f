"""Latency statistics for serving runs.

The paper's two headline metrics (§6.2):

* **average latency** of requests from different applications under a
  given quota assignment;
* **average latency deviation** across quota assignments, where the
  deviation of one assignment is ``sum_j max(T_sys_j - T_iso_j, 0)``.

This module provides the per-run record keeping; deviation lives in
:mod:`repro.metrics.deviation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss accounting for a memoization cache.

    Used by the execution-configuration cache (``repro.core.config_cache``)
    and read from ``ExecutionConfigDeterminer.cache_stats``.  It is host
    machinery, not a simulated outcome, so it stays out of
    ``ServingResult.extras``: how a cache was shared must not change a
    result.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return self.hits / lookups


@dataclass
class FaultStats:
    """Fault-injection and graceful-degradation accounting.

    Populated by the serving harness when a :class:`~repro.gpusim.faults.
    FaultPlan` is active and surfaced in ``ServingResult.extras`` under
    the ``fault_`` prefix (see docs/robustness.md for the degradation
    ladder each counter belongs to).
    """

    # Injected events.
    slowdown_spikes: int = 0
    transient_retries: int = 0
    permanent_failures: int = 0
    context_crashes: int = 0
    context_crashes_skipped: int = 0
    kernels_killed: int = 0
    # Degradation responses.
    degraded_relaunches: int = 0
    shed_failed: int = 0
    shed_timeout: int = 0
    stale_completions: int = 0
    profile_stale_events: int = 0

    @property
    def shed_requests(self) -> int:
        return self.shed_failed + self.shed_timeout

    @property
    def degradation_events(self) -> int:
        """Total graceful-degradation actions the run had to take."""
        return (
            self.transient_retries
            + self.permanent_failures
            + self.context_crashes
            + self.kernels_killed
            + self.degraded_relaunches
            + self.shed_failed
            + self.shed_timeout
            + self.stale_completions
            + self.profile_stale_events
        )

    def merge(self, other: "FaultStats") -> "FaultStats":
        """Combine counters from another run (e.g. across sub-GPUs)."""
        return FaultStats(
            slowdown_spikes=self.slowdown_spikes + other.slowdown_spikes,
            transient_retries=self.transient_retries + other.transient_retries,
            permanent_failures=self.permanent_failures + other.permanent_failures,
            context_crashes=self.context_crashes + other.context_crashes,
            context_crashes_skipped=(
                self.context_crashes_skipped + other.context_crashes_skipped
            ),
            kernels_killed=self.kernels_killed + other.kernels_killed,
            degraded_relaunches=self.degraded_relaunches + other.degraded_relaunches,
            shed_failed=self.shed_failed + other.shed_failed,
            shed_timeout=self.shed_timeout + other.shed_timeout,
            stale_completions=self.stale_completions + other.stale_completions,
            profile_stale_events=(
                self.profile_stale_events + other.profile_stale_events
            ),
        )

    def as_dict(self, prefix: str = "") -> Dict[str, float]:
        """Flatten to float-valued counters for ``ServingResult.extras``."""
        return {
            f"{prefix}slowdown_spikes": float(self.slowdown_spikes),
            f"{prefix}transient_retries": float(self.transient_retries),
            f"{prefix}permanent_failures": float(self.permanent_failures),
            f"{prefix}context_crashes": float(self.context_crashes),
            f"{prefix}context_crashes_skipped": float(self.context_crashes_skipped),
            f"{prefix}kernels_killed": float(self.kernels_killed),
            f"{prefix}degraded_relaunches": float(self.degraded_relaunches),
            f"{prefix}shed_failed": float(self.shed_failed),
            f"{prefix}shed_timeout": float(self.shed_timeout),
            f"{prefix}shed_requests": float(self.shed_requests),
            f"{prefix}stale_completions": float(self.stale_completions),
            f"{prefix}profile_stale_events": float(self.profile_stale_events),
            f"{prefix}degradation_events": float(self.degradation_events),
        }


@dataclass
class RequestRecord:
    """Outcome of one served request."""

    app_id: str
    request_id: int
    arrival: float
    finish: float

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass
class ServingResult:
    """Everything measured while a sharing system served a workload."""

    system: str
    records: List[RequestRecord] = field(default_factory=list)
    makespan_us: float = 0.0
    utilization: float = 0.0
    # Extra system-specific measurements (e.g. squad stats for BLESS).
    extras: Dict[str, float] = field(default_factory=dict)

    def add(self, record: RequestRecord) -> None:
        self.records.append(record)

    @property
    def app_ids(self) -> List[str]:
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.app_id, None)
        return list(seen)

    def latencies(self, app_id: Optional[str] = None) -> List[float]:
        return [
            r.latency
            for r in self.records
            if app_id is None or r.app_id == app_id
        ]

    def mean_latency(self, app_id: Optional[str] = None) -> float:
        values = self.latencies(app_id)
        if not values:
            return math.nan
        return float(np.mean(values))

    def per_app_mean_latency(self) -> Dict[str, float]:
        return {app_id: self.mean_latency(app_id) for app_id in self.app_ids}

    def mean_of_app_means(self) -> float:
        """The paper's 'average latency': mean over apps of per-app means."""
        per_app = self.per_app_mean_latency()
        if not per_app:
            return math.nan
        return float(np.mean(list(per_app.values())))

    def percentile_latency(self, q: float, app_id: Optional[str] = None) -> float:
        values = self.latencies(app_id)
        if not values:
            return math.nan
        return float(np.percentile(values, q))

    def throughput_qps(self, app_id: Optional[str] = None) -> float:
        """Completed requests per second of simulated time."""
        count = len(self.latencies(app_id))
        if self.makespan_us <= 0:
            return 0.0
        return count / (self.makespan_us / 1e6)

    def count(self, app_id: Optional[str] = None) -> int:
        return len(self.latencies(app_id))

    @classmethod
    def merge(
        cls,
        results: Sequence["ServingResult"],
        system: Optional[str] = None,
        *,
        num_slots: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
        offsets: Optional[Sequence[float]] = None,
    ) -> "ServingResult":
        """Combine independent sub-results into one cluster-level result.

        Used wherever one logical serving run is realised on several
        private engines: the §4.2.2 cluster controller (one engine per
        GPU), the composite baselines (ISO/MIG serve each tenant on its
        own partition-sized engine), and the online orchestrator's
        epoch chain.

        * ``records`` are concatenated in the given order (callers pass
          results in a deterministic order — GPU index, epoch index —
          so merged output is reproducible byte for byte);
        * ``extras`` counters are **summed** — this is what keeps the
          ``completed + shed == arrived`` fault-accounting invariant
          true at cluster level.  Every extras value is meant to be
          additive: a ratio is stored as its numerator and denominator
          (``squad_kernels`` and ``squads``) and divided by the reader;
        * ``utilization`` is busy-time over capacity: each sub-result
          contributes ``utilization * makespan_us * weight`` busy
          GPU-microseconds (``weight`` = how many GPUs it represents,
          default 1), and capacity is ``merged makespan × num_slots``.
          ``num_slots`` **must count idle GPUs too** — a pool of three
          GPUs serving one app is one-third as utilised as a busy
          single GPU, not equally utilised (the historical
          ``len(per_gpu)`` denominator bug);
        * ``offsets`` (cluster-clock start of each sub-result, for
          sequential epochs) shift record timestamps and extend the
          merged makespan to ``max(offset + makespan)``.  When offsets
          are in play the sub-results run on the **same** slots one
          after another, so the default slot count is ``max(weights)``
          — not ``sum(weights)``, which would count each epoch's GPUs
          as distinct hardware and dilute utilization by the number of
          epochs (the epoch-chaining denominator bug).
        """
        results = list(results)
        if not results:
            raise ValueError("cannot merge zero results")
        if weights is None:
            weights = [1.0] * len(results)
        if offsets is None:
            offsets = [0.0] * len(results)
        if len(weights) != len(results) or len(offsets) != len(results):
            raise ValueError("weights/offsets must match results in length")
        if num_slots is None:
            if any(offset != 0.0 for offset in offsets):
                # Sequential epoch chain: the same slots are reused, so
                # capacity is the widest epoch, not the epoch total.
                num_slots = int(max(weights)) or len(results)
            else:
                num_slots = int(sum(weights)) or len(results)
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")

        merged = cls(system=system or results[0].system)
        busy = 0.0
        makespan = 0.0
        for result, weight, offset in zip(results, weights, offsets):
            if offset == 0.0:
                merged.records.extend(result.records)
            else:
                merged.records.extend(
                    RequestRecord(
                        app_id=r.app_id,
                        request_id=r.request_id,
                        arrival=r.arrival + offset,
                        finish=r.finish + offset,
                    )
                    for r in result.records
                )
            makespan = max(makespan, offset + result.makespan_us)
            busy += result.utilization * result.makespan_us * weight
            for key, value in result.extras.items():
                merged.extras[key] = merged.extras.get(key, 0.0) + value
        merged.makespan_us = makespan
        merged.utilization = (
            min(1.0, busy / (makespan * num_slots)) if makespan > 0 else 0.0
        )
        return merged


def qos_violation_rate(
    result: ServingResult, targets_us: Mapping[str, float]
) -> float:
    """Fraction of requests whose latency exceeds the app's QoS target."""
    total = 0
    violated = 0
    for record in result.records:
        target = targets_us.get(record.app_id)
        if target is None:
            continue
        total += 1
        if record.latency > target:
            violated += 1
    if total == 0:
        return 0.0
    return violated / total


def summarize(results: Sequence[ServingResult]) -> str:
    """A compact table of per-system average latencies (for harness output)."""
    lines = []
    for result in results:
        per_app = result.per_app_mean_latency()
        apps = ", ".join(f"{a}={v / 1000:.2f}ms" for a, v in per_app.items())
        lines.append(
            f"{result.system:<10} avg={result.mean_of_app_means() / 1000:7.2f}ms "
            f"util={result.utilization:5.1%}  [{apps}]"
        )
    return "\n".join(lines)
