"""Automatic write path into the results catalog.

Every experiment runner already funnels its independent simulations
through :func:`repro.parallel.run_cells`; this module is the thin layer
that turns each completed cell — plus cluster epochs, CLI serves, and
``tools/bench_trajectory.py`` snapshots — into catalog rows without the
callers managing connections.

Environment contract (``REPRO_CATALOG``):

* unset/empty — ingest **on**, into ``results/catalog.sqlite`` under
  the current directory (gitignored in this repo);
* a path      — ingest on, into that sqlite file;
* ``off``/``0``/``false``/``none``/``no`` — ingest disabled.

The automatic paths must never turn catalog trouble (read-only
filesystem, version skew, a corrupt file) into a failed experiment:
``*_safe`` entry points catch everything, warn once per path, and
disable that catalog for the rest of the process.  Explicit API/CLI
users call :class:`~repro.catalog.store.ResultsCatalog` directly and do
get exceptions.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from ..metrics.stats import ServingResult
from .schema import describe_callable, stable_repr
from .store import ResultsCatalog

_OFF_VALUES = {"off", "0", "false", "none", "no"}
DEFAULT_CATALOG_PATH = Path("results") / "catalog.sqlite"

# path -> open catalog, keyed per process (forked pool workers must not
# share the parent's sqlite connection).
_catalogs: Dict[Tuple[str, int], Optional[ResultsCatalog]] = {}
_warned: set = set()


def resolve_catalog_path(
    explicit: Optional[Union[str, Path]] = None,
) -> Optional[Path]:
    """Where ingest writes, or ``None`` when opted out."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("REPRO_CATALOG", "").strip()
    if env.lower() in _OFF_VALUES and env:
        return None
    if env:
        return Path(env)
    return DEFAULT_CATALOG_PATH


def catalog_enabled() -> bool:
    return resolve_catalog_path() is not None


def get_catalog(
    path: Optional[Union[str, Path]] = None,
) -> Optional[ResultsCatalog]:
    """The cached catalog for ``path`` (or the env default); None when off.

    A catalog that fails to open is remembered as broken for this
    process so one unwritable path warns once instead of erroring every
    ``run_cells`` call.
    """
    resolved = resolve_catalog_path(path)
    if resolved is None:
        return None
    key = (str(resolved), os.getpid())
    if key in _catalogs:
        return _catalogs[key]
    try:
        catalog: Optional[ResultsCatalog] = ResultsCatalog(resolved)
    except Exception as exc:
        catalog = None
        _warn_once(resolved, exc)
    _catalogs[key] = catalog
    return catalog


def reset_catalog_cache() -> None:
    """Close and forget cached connections (tests switch paths a lot)."""
    for catalog in _catalogs.values():
        if catalog is not None:
            try:
                catalog.close()
            except Exception:
                pass
    _catalogs.clear()
    _warned.clear()


def _warn_once(path: Path, exc: BaseException) -> None:
    key = str(path)
    if key not in _warned:
        _warned.add(key)
        print(
            f"repro: results catalog disabled for {path}: "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )


def result_metrics(result: ServingResult) -> Dict[str, float]:
    """The headline ``ServingResult`` numbers plus every extras counter.

    Non-finite values (an empty run's NaN mean) are dropped — sqlite
    would store NaN as NULL and break the lossless round-trip contract.
    The ``extras`` counters keep their existing names (``fault_*``,
    ``slo_*``, ``cluster_*`` and the runtime's bare ``squads``-style
    counts), so cluster-merged results carry the
    ``completed + shed == arrived`` accounting into the catalog.  They
    are all simulated outcomes; host-side engine and cache counters are
    not in ``extras`` and so not in the catalog.  When a serving gateway
    ran (``slo_*`` extras present), two derived headline metrics are
    added for the latency-critical class: ``slo_attainment`` (deadline
    hits over arrivals — gate-shed and fault-shed requests count against
    attainment, matching the SLO-attainment figures of serving papers)
    and ``deadline_miss_rate`` (misses over completions).
    """
    metrics: Dict[str, float] = {
        "mean_latency_us": result.mean_of_app_means(),
        "p50_latency_us": result.percentile_latency(50),
        "p99_latency_us": result.percentile_latency(99),
        "throughput_qps": result.throughput_qps(),
        "utilization": result.utilization,
        "makespan_us": result.makespan_us,
        "completed": float(len(result.records)),
    }
    lc_arrived = float(result.extras.get("slo_arrived_latency_critical", 0.0))
    if lc_arrived > 0.0:
        hits = float(result.extras.get("slo_deadline_hits_latency_critical", 0.0))
        misses = float(
            result.extras.get("slo_deadline_misses_latency_critical", 0.0)
        )
        lc_completed = float(
            result.extras.get("slo_completed_latency_critical", 0.0)
        )
        metrics["slo_attainment"] = hits / lc_arrived
        if lc_completed > 0.0:
            metrics["deadline_miss_rate"] = misses / lc_completed
    for key, value in result.extras.items():
        metrics.setdefault(key, float(value))
    return {
        name: float(value)
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and math.isfinite(value)
    }


def _fault_plan_fields(system_kwargs: Mapping[str, Any]) -> Tuple[Optional[str],
                                                                  Optional[int]]:
    plan = system_kwargs.get("fault_plan")
    if plan is None:
        return None, None
    describe = getattr(plan, "describe", None)
    text = describe() if callable(describe) else stable_repr(plan)
    seed = getattr(plan, "seed", None)
    return text, seed if isinstance(seed, int) else None


def ingest_result(
    result: ServingResult,
    *,
    experiment: str,
    config: Mapping[str, Any],
    catalog: Optional[ResultsCatalog] = None,
    system: Optional[str] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    fault_plan: Optional[str] = None,
    wall_time_s: Optional[float] = None,
    artifacts: Iterable[Tuple[str, str]] = (),
) -> Optional[int]:
    """Record one serving result; returns the run_id (None when off)."""
    catalog = catalog if catalog is not None else get_catalog()
    if catalog is None:
        return None
    return catalog.record_run(
        experiment=experiment,
        system=system or result.system,
        config=config,
        metrics=result_metrics(result),
        seed=seed,
        jobs=jobs,
        fault_plan=fault_plan,
        wall_time_s=wall_time_s,
        artifacts=artifacts,
    )


def cell_config(cell: Any, experiment: str) -> Dict[str, Any]:
    """The canonical (hashable) config of one harness cell.

    Includes everything that determines the cell's output — system
    factory, bindings factory with its bound arguments, extra system
    kwargs — so equal configs at two revisions are directly joinable.
    """
    return {
        "experiment": experiment,
        "key": stable_repr(cell.key),
        "system": cell.system,
        "system_factory": describe_callable(cell.system_factory),
        "bindings": describe_callable(cell.bindings_factory),
        "system_kwargs": {
            k: stable_repr(v) for k, v in sorted(cell.system_kwargs.items())
        },
    }


def ingest_cells_safe(
    cells: Sequence[Any],
    results: Sequence[ServingResult],
    walls: Sequence[Optional[float]],
    *,
    experiment: str,
    jobs: Optional[int] = None,
) -> None:
    """Best-effort ingest of a completed ``run_cells`` grid.

    Called by the parallel harness after every grid; catalog failure
    must never fail the experiment, so everything is caught and the
    offending catalog is disabled for the process.
    """
    catalog = get_catalog()
    if catalog is None:
        return
    try:
        for cell, result, wall in zip(cells, results, walls):
            fault_plan, seed = _fault_plan_fields(cell.system_kwargs)
            catalog.record_run(
                experiment=experiment,
                system=cell.system,
                config=cell_config(cell, experiment),
                metrics=result_metrics(result),
                seed=seed,
                jobs=jobs,
                fault_plan=fault_plan,
                wall_time_s=wall,
            )
    except Exception as exc:
        _warn_once(catalog.path, exc)
        _catalogs[(str(catalog.path), os.getpid())] = None


def ingest_metrics_safe(
    experiment: str,
    system: str,
    config: Mapping[str, Any],
    metrics: Mapping[str, float],
    *,
    jobs: Optional[int] = None,
    seed: Optional[int] = None,
    wall_time_s: Optional[float] = None,
    artifacts: Iterable[Tuple[str, str]] = (),
) -> Optional[int]:
    """Best-effort ingest of one scenario-level metrics dict."""
    catalog = get_catalog()
    if catalog is None:
        return None
    try:
        finite = {
            name: float(value)
            for name, value in metrics.items()
            if isinstance(value, (int, float)) and math.isfinite(value)
        }
        return catalog.record_run(
            experiment=experiment,
            system=system,
            config=config,
            metrics=finite,
            seed=seed,
            jobs=jobs,
            wall_time_s=wall_time_s,
            artifacts=artifacts,
        )
    except Exception as exc:
        _warn_once(catalog.path, exc)
        _catalogs[(str(catalog.path), os.getpid())] = None
        return None


def bench_entry_metrics(bench: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten one ``BENCH_*.json`` benchmark record into metric rows.

    Wall stats become ``wall_s_min``/``wall_s_mean``/...; numeric
    ``extra_info`` values (the interleaved-median ``speedup`` ratios the
    perf gate consumes) pass through by name; numeric lists (e.g.
    ``pair_speedups``) contribute their median as ``<name>_median``.
    """
    import statistics

    metrics: Dict[str, float] = {}
    for stat, value in (bench.get("wall_s") or {}).items():
        if isinstance(value, (int, float)) and math.isfinite(value):
            metrics[f"wall_s_{stat}"] = float(value)
    for name, value in (bench.get("extra_info") or {}).items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)) and math.isfinite(float(value)):
            metrics[name] = float(value)
        elif (
            isinstance(value, (list, tuple))
            and value
            and all(isinstance(v, (int, float)) for v in value)
        ):
            metrics[f"{name}_median"] = float(statistics.median(value))
    return metrics


def ingest_bench_entry(
    entry: Mapping[str, Any],
    *,
    catalog: Optional[ResultsCatalog] = None,
    source: Optional[str] = None,
) -> int:
    """Ingest one trajectory entry (one ``bench_trajectory`` append).

    Each benchmark becomes a run under ``experiment="bench"`` keyed on
    the benchmark name, recorded at the entry's ``git_rev`` (falling
    back to the current checkout for pre-rev snapshots).  Returns how
    many runs were recorded.  Raises on catalog errors — the callers
    (``tools/bench_trajectory.py`` via a safe wrapper, the CLI and
    ``tools/perf_gate.py`` deliberately) decide how loud to be.
    """
    catalog = catalog if catalog is not None else get_catalog()
    if catalog is None:
        return 0
    git_rev = entry.get("git_rev") or None
    artifacts = [("bench", source)] if source else []
    count = 0
    for bench in entry.get("benchmarks", []):
        name = bench.get("name") or "unnamed"
        config = {
            "experiment": "bench",
            "benchmark": name,
            "python": entry.get("python", ""),
        }
        wall = (bench.get("wall_s") or {}).get("min")
        catalog.record_run(
            experiment="bench",
            system=name,
            config=config,
            metrics=bench_entry_metrics(bench),
            git_rev=git_rev,
            wall_time_s=wall if isinstance(wall, (int, float)) else None,
            artifacts=artifacts,
            created_at=entry.get("timestamp") or None,
        )
        count += 1
    return count


def ingest_bench_file(
    path: Union[str, Path], catalog: Optional[ResultsCatalog] = None
) -> int:
    """Ingest every entry of a ``BENCH_*.json`` trajectory file."""
    import json

    payload = json.loads(Path(path).read_text())
    if isinstance(payload, Mapping):
        payload = [payload]
    count = 0
    for entry in payload:
        count += ingest_bench_entry(entry, catalog=catalog, source=str(path))
    return count
