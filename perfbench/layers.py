"""Per-layer host-time tracing from outside the library.

The benchmark wraps public functions of each layer with a span
recorder: every call becomes a span ``(layer, start, end, parent)``
kept in memory, and some wrappers also read counters on return.  A
layer's self time is the time its spans cover minus the time their
child spans cover, so the self times of all layers plus the time no
span covers add up to the traced wall time.

``PREDICTIONS`` records, for every per-layer metric, which end-to-end
metric it should move and on which workload.  The traced report prints
it beside each value.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

PREDICTIONS: Dict[str, str] = {
    "gpusim.calls": "engine runs; cpu_s on fig13_pairs",
    "gpusim.self_s": "cpu_s, host_us_per_kernel on fig13_pairs (~90%); much less on cluster_churn",
    "gpusim.kernels": "simulated work; a change here is a model change, not a speedup",
    "gpusim.events": "cpu_s on fig13_pairs",
    "gpusim.rebalances": "cpu_s on fig13_pairs",
    "gpusim.rebalance_hit_rate": "cpu_s on fig13_pairs",
    "gpusim.epoch_batches": "cpu_s on fig13_pairs",
    "gpusim.self_us_per_kernel": "host_us_per_kernel on fig13_pairs",
    "core.squad.calls": "cpu_s on cluster_churn",
    "core.squad.self_s": "cpu_s on cluster_churn (~33%); less on fig13_pairs (~9%)",
    "core.squad.kernels_per_call": "cpu_s on cluster_churn",
    "core.configurator.calls": "cpu_s on cluster_churn",
    "core.configurator.self_s": "cpu_s on cluster_churn (cache-hostile), not fig13_pairs",
    "core.configurator.cache_hit_rate": "cpu_s on cluster_churn vs fig13_pairs",
    "core.kernel_manager.calls": "cpu_s on cluster_churn; preemption only on zoo",
    "core.kernel_manager.self_s": "cpu_s on cluster_churn",
    "core.profiler.calls": "cpu_s on cluster_churn (every per-GPU serve profiles again)",
    "core.profiler.self_s": "cpu_s on cluster_churn",
    "baselines.self_s": "cpu_s on fig13_pairs (seven systems)",
    "gateway.calls": "cpu_s on zoo only",
    "gateway.self_s": "cpu_s on zoo only",
    "gateway.shed_rate": "sim.completed_frac on zoo only",
    "parallel.cells": "cpu_s on zoo; no effect on the jobs=1 workloads",
    "parallel.self_s": "cpu_s on zoo; no effect on the jobs=1 workloads",
    "parallel.wall_s": "zoo's wall time (in the report) and cpu_s on zoo",
    "parallel.efficiency": "zoo's wall time (in the report); cpu_s only through pickling and merge",
    "parallel.cell_pickle_bytes": "cpu_s on zoo",
    "parallel.result_pickle_bytes": "cpu_s on zoo",
    "catalog.calls": "cpu_s on zoo only",
    "catalog.rows": "cpu_s on zoo only",
    "catalog.self_s": "cpu_s on zoo only",
    "cluster.epochs": "cpu_s on cluster_churn",
    "cluster.migrations": "cpu_s on cluster_churn; a little on zoo",
    "cluster.estimator_hit_rate": "cpu_s on cluster_churn",
    "cluster.serve.self_s": "cpu_s on cluster_churn; a little on zoo",
    "cluster.place_all.self_s": "cpu_s on cluster_churn",
    "cluster.select.self_s": "cpu_s on cluster_churn; a little on zoo",
    "cluster.propose_migration.self_s": "cpu_s on cluster_churn",
    "cluster.solve_placement.self_s": "cpu_s on cluster_churn",
    "cluster.joint_us.self_s": "cpu_s on cluster_churn",
    "cluster.merge.self_s": "cpu_s on cluster_churn; a little on zoo",
    "scenarios.self_s": "cpu_s on zoo",
    "scenarios.setup_self_s": "setup_s on zoo",
    "setup.import_s": "setup_s on every workload",
    "traced_wall_s": "cpu_s (wall time of the traced run; the sum the layer table accounts for)",
    "unattributed_s": "cpu_s; host time outside every wrapped layer",
    "trace_overhead": "none; the cost of tracing itself",
}


class SpanRecorder:
    """Spans in memory: ``[layer, start, end, parent_index]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        # (cells, results, jobs, span) of every outermost run_cells
        # call; pickled for their sizes only after the timed run.
        self.grids: List[tuple] = []
        self.cell_walls: List[float] = []

    def wrap(self, layer: str, fn: Callable,
             on_return: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def self_times(self, start: float, end: float) -> Dict[str, float]:
        """Self time per layer over the spans that begin in [start, end)."""
        child = [0.0] * len(self.spans)
        for layer, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: Dict[str, float] = defaultdict(float)
        for index, (layer, s, e, _) in enumerate(self.spans):
            if start <= s < end:
                out[layer] += (e - s) - child[index]
        return out


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module binding of ``original`` at the
    replacement (functions imported by name keep their own binding)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_method(rec: SpanRecorder, cls, name: str, layer: str,
                 on_return: Optional[Callable] = None) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(rec.wrap(layer, raw.__func__, on_return)))
    else:
        setattr(cls, name, rec.wrap(layer, raw, on_return))


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def install_harness_probe(rec: SpanRecorder) -> None:
    """Wrap only ``run_cells`` and catalog ingest (cheap: one call per
    grid), for the parallel.* numbers of an untraced pooled run."""
    from repro import parallel
    from repro.catalog import ingest

    # Grids nested inside a cell (a cluster serve inside a scenario
    # cell) are part of that cell's wall time: only outermost grids
    # count towards the parallel.* numbers.
    depth = [0]

    def outermost(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            depth[0] += 1
            index = len(rec.spans)
            try:
                results = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                grid_done(args, kwargs, results, rec.spans[index])
            return results
        return run

    def grid_done(args, kwargs, results, span):
        cells = list(args[0]) if args else list(kwargs["cells"])
        jobs = parallel.resolve_jobs(args[1] if len(args) > 1 else kwargs.get("jobs"))
        backend = parallel.resolve_backend(
            args[3] if len(args) > 3 else kwargs.get("backend"))
        if backend == "inproc" or len(cells) <= 1:
            jobs = 1
        rec.grids.append((cells, results, jobs, span))
        rec.counts["parallel.cells"] += len(cells)

    def ingested(args, kwargs, _):
        rec.counts["catalog.calls"] += 1
        if depth[0] == 1:
            walls = args[2] if len(args) > 2 else kwargs["walls"]
            rec.cell_walls.extend(w for w in walls if w is not None)
        if ingest.catalog_enabled():
            rec.counts["catalog.rows"] += len(args[1] if len(args) > 1 else kwargs["results"])

    traced = outermost(rec.wrap("parallel", parallel.run_cells))
    _replace_everywhere(parallel.run_cells, traced)
    ingest.ingest_cells_safe = rec.wrap("catalog", ingest.ingest_cells_safe, ingested)


def install_tracer(rec: SpanRecorder) -> None:
    """Wrap every layer boundary named in the benchmark's per-layer list."""
    import repro.experiments.cluster_scale  # noqa: F401  (load every binding)
    import repro.scenarios.runner  # noqa: F401
    from repro.baselines.base import SharingSystem
    from repro.cluster import interference, placement
    from repro.cluster.online import OnlineClusterController
    from repro.core import configurator, kernel_manager, profiler, runtime
    from repro.gateway.gateway import ServingGateway
    from repro.gpusim.engine import SimEngine
    from repro.metrics.stats import ServingResult
    from repro.scenarios import runner

    counts = rec.counts
    install_harness_probe(rec)

    def engine_run(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            before = self.counters
            kernels = self.kernels_completed
            try:
                return fn(self, *args, **kwargs)
            finally:
                after = self.counters
                counts["gpusim.calls"] += 1
                counts["gpusim.kernels"] += self.kernels_completed - kernels
                for key in ("events_processed", "rebalances",
                            "rebalance_cache_hits", "epoch_batches"):
                    counts["gpusim." + key] += after[key] - before[key]
        return run

    SimEngine.run = rec.wrap("gpusim", engine_run(SimEngine.__dict__["run"]))

    def squad_done(args, kwargs, squad):
        counts["core.squad.calls"] += 1
        counts["core.squad.kernels"] += squad.total_kernels

    _replace_everywhere(runtime.generate_squad,
                        rec.wrap("core.squad", runtime.generate_squad, squad_done))

    def determine(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            stats = self.cache_stats
            hits = stats.hits if stats is not None else 0
            try:
                return fn(self, *args, **kwargs)
            finally:
                counts["core.configurator.calls"] += 1
                if stats is not None:
                    counts["core.configurator.hits"] += stats.hits - hits
        return run

    cls = configurator.ExecutionConfigDeterminer
    cls.determine = rec.wrap("core.configurator", determine(cls.__dict__["determine"]))

    def counted(key):
        def bump(args, kwargs, result):
            counts[key] += 1
        return bump

    for name in ("execute_squad", "preempt_squad"):
        _wrap_method(rec, kernel_manager.ConcurrentKernelManager, name,
                     "core.kernel_manager", counted("core.kernel_manager.calls"))
    _wrap_method(rec, profiler.OfflineProfiler, "profile", "core.profiler",
                 counted("core.profiler.calls"))
    for cls in _subclasses(SharingSystem):
        if "serve" in cls.__dict__:
            _wrap_method(rec, cls, "serve", "baselines")

    def admitted(args, kwargs, decision):
        counts["gateway.calls"] += 1
        counts["gateway.shed"] += 0 if decision.admitted else 1

    _wrap_method(rec, ServingGateway, "admit", "gateway", admitted)

    def cluster_served(args, kwargs, result):
        counts["cluster.epochs"] += result.stats.epochs
        counts["cluster.migrations"] += result.stats.migrations

    _wrap_method(rec, OnlineClusterController, "serve", "cluster.serve", cluster_served)
    for name in ("place_all", "select", "propose_migration"):
        _wrap_method(rec, placement.ClusterPlacer, name, "cluster." + name)
    _replace_everywhere(interference.solve_placement,
                        rec.wrap("cluster.solve_placement", interference.solve_placement))

    def joint(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            hits, misses = self.hits, self.misses
            try:
                return fn(self, *args, **kwargs)
            finally:
                counts["cluster.estimator_hits"] += self.hits - hits
                counts["cluster.estimator_lookups"] += (
                    self.hits - hits + self.misses - misses)
        return run

    est = interference.InterferenceEstimator
    est.joint_us = rec.wrap("cluster.joint_us", joint(est.__dict__["joint_us"]))
    _wrap_method(rec, ServingResult, "merge", "cluster.merge")
    for name in ("load_zoo", "expand_sweep", "scenario_cells"):
        _replace_everywhere(getattr(runner, name),
                            rec.wrap("scenarios", getattr(runner, name)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def grid_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """parallel.* from the recorded run_cells calls (after the run)."""
    wall = capacity = cell_bytes = result_bytes = 0.0
    for cells, results, jobs, span in rec.grids:
        wall += span[2] - span[1]
        capacity += jobs * (span[2] - span[1])
        cell_bytes += len(pickle.dumps(cells))
        result_bytes += len(pickle.dumps(results))
    return {
        "parallel.cells": rec.counts["parallel.cells"],
        "parallel.wall_s": wall,
        "parallel.efficiency": _ratio(sum(rec.cell_walls), capacity),
        "parallel.cell_pickle_bytes": cell_bytes,
        "parallel.result_pickle_bytes": result_bytes,
    }


def layer_metrics(rec: SpanRecorder, start: float, end: float,
                  setup_start: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run except the parallel.*
    grid numbers and trace_overhead (the caller adds those)."""
    c = rec.counts
    run = rec.self_times(start, end)
    setup = rec.self_times(setup_start, start)
    wall = end - start
    out = {
        "gpusim.calls": c["gpusim.calls"],
        "gpusim.self_s": run["gpusim"],
        "gpusim.kernels": c["gpusim.kernels"],
        "gpusim.events": c["gpusim.events_processed"],
        "gpusim.rebalances": c["gpusim.rebalances"],
        "gpusim.rebalance_hit_rate": _ratio(c["gpusim.rebalance_cache_hits"],
                                            c["gpusim.rebalances"]),
        "gpusim.epoch_batches": c["gpusim.epoch_batches"],
        "gpusim.self_us_per_kernel": _ratio(run["gpusim"] * 1e6, c["gpusim.kernels"]),
        "core.squad.calls": c["core.squad.calls"],
        "core.squad.self_s": run["core.squad"],
        "core.squad.kernels_per_call": _ratio(c["core.squad.kernels"],
                                              c["core.squad.calls"]),
        "core.configurator.calls": c["core.configurator.calls"],
        "core.configurator.self_s": run["core.configurator"],
        "core.configurator.cache_hit_rate": _ratio(c["core.configurator.hits"],
                                                   c["core.configurator.calls"]),
        "core.kernel_manager.calls": c["core.kernel_manager.calls"],
        "core.kernel_manager.self_s": run["core.kernel_manager"],
        "core.profiler.calls": c["core.profiler.calls"],
        "core.profiler.self_s": run["core.profiler"],
        "baselines.self_s": run["baselines"],
        "gateway.calls": c["gateway.calls"],
        "gateway.self_s": run["gateway"],
        "gateway.shed_rate": _ratio(c["gateway.shed"], c["gateway.calls"]),
        "parallel.self_s": run["parallel"],
        "catalog.calls": c["catalog.calls"],
        "catalog.rows": c["catalog.rows"],
        "catalog.self_s": run["catalog"],
        "cluster.epochs": c["cluster.epochs"],
        "cluster.migrations": c["cluster.migrations"],
        "cluster.estimator_hit_rate": _ratio(c["cluster.estimator_hits"],
                                             c["cluster.estimator_lookups"]),
        "scenarios.self_s": run["scenarios"],
        "scenarios.setup_self_s": setup["scenarios"],
        "traced_wall_s": wall,
        "unattributed_s": wall - sum(run.values()),
    }
    for name in ("serve", "place_all", "select", "propose_migration",
                 "solve_placement", "joint_us", "merge"):
        out[f"cluster.{name}.self_s"] = run["cluster." + name]
    return out
