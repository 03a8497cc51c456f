"""The benchmark's three workloads, their output checks and simulated metrics.

Each workload is split into ``setup`` (imports are already done; this
builds apps, bindings, scenario specs and, for ``zoo``, starts the
process pool) and ``run`` (every simulation).  ``run`` returns an
:class:`Outcome`: every ``ServingResult`` with the kernel count of each
app, the checks that failed, and the workload's named simulated numbers.

All paths are relative to the checkout root, which is the working
directory the benchmark runs in.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

GOLDEN_DIR = Path("tests") / "golden"

# fig13_pairs runs at the size of tests/golden/fig13_inference_small.json
# (requests=3, load A), so a run with seed 0 is checked against it.
FIG13_REQUESTS = 3
FIG13_LOAD = "A"
# cluster_churn is the 8-GPU slice pinned by cluster_contention_smoke.json.
CHURN_GPUS = 8
CHURN_REQUESTS = 2
ZOO_JOBS = 2

# Headline keys result_metrics always emits for a finite result; one
# missing from its output was non-finite and scrubbed.
HEADLINE_KEYS = (
    "mean_latency_us",
    "p50_latency_us",
    "p99_latency_us",
    "throughput_qps",
    "utilization",
    "makespan_us",
    "completed",
)


@dataclass
class Cell:
    """One simulated serve: its grid label, result and app kernel counts."""

    label: str
    system: str
    result: object
    kernels: Dict[str, int]


@dataclass
class Outcome:
    cells: List[Cell] = field(default_factory=list)
    attempted: int = 0
    # (label, system) of every cell that raised or failed a check.
    failed_cells: Set[Tuple[str, str]] = field(default_factory=set)
    errors: List[str] = field(default_factory=list)
    # Workload-specific simulated numbers, reported by name.
    report: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failed_cells)

    def fail(self, cells: Iterable[Tuple[str, str]], message: str) -> None:
        self.failed_cells.update(cells)
        self.errors.append(message)


# ----------------------------------------------------------------------
# Checks and metrics shared by every workload
# ----------------------------------------------------------------------
def request_books(result) -> Dict[str, float]:
    """Completed, shed and arrived requests of one result, from its extras.

    Arrivals are counted by the fault layer when a fault plan ran, by
    the gateway when an SLO policy ran, and otherwise equal completions.
    Requests the cluster refused at admission count as arrived and shed.
    """
    extras = result.extras
    completed = float(len(result.records))
    gate_shed = sum(v for k, v in extras.items() if k.startswith("slo_shed_admission_"))
    fault_shed = float(extras.get("fault_shed_requests", 0.0))
    cluster_shed = float(extras.get("cluster_requests_shed", 0.0))
    if "fault_requests_arrived" in extras:
        arrived = float(extras["fault_requests_arrived"])
    elif any(k.startswith("slo_arrived_") for k in extras):
        arrived = sum(v for k, v in extras.items() if k.startswith("slo_arrived_"))
    else:
        arrived = completed
    return {
        "completed": completed,
        "shed": gate_shed + fault_shed + cluster_shed,
        "arrived": arrived + cluster_shed,
    }


def check_result(result) -> Optional[str]:
    """The per-result output checks; returns a failure message or None."""
    from repro.catalog.ingest import result_metrics
    from repro.gateway import check_slo_accounting

    books = request_books(result)
    if books["completed"] + books["shed"] != books["arrived"]:
        return f"completed + shed != arrived: {books}"
    try:
        check_slo_accounting(result.extras)
    except AssertionError as exc:
        return str(exc)
    missing = [key for key in HEADLINE_KEYS if key not in result_metrics(result)]
    if missing:
        return f"non-finite headline metrics: {missing}"
    return None


def check_cells(outcome: Outcome) -> None:
    for cell in outcome.cells:
        problem = check_result(cell.result)
        if problem is not None:
            outcome.fail([(cell.label, cell.system)],
                         f"{cell.label}/{cell.system}: {problem}")


def compare_golden(outcome: Outcome, name: str, measured, cells,
                   golden_key=None) -> None:
    """Compare ``measured`` with a committed golden file (read only)."""
    golden = json.loads((GOLDEN_DIR / name).read_text())
    if golden_key is not None:
        golden = golden[golden_key]
    measured = json.loads(json.dumps(measured, sort_keys=True))
    if measured != golden:
        outcome.fail(cells, f"output differs from {GOLDEN_DIR / name}"
                     + (f" [{golden_key}]" if golden_key else ""))


def digest(outcome: Outcome) -> str:
    """Hash of every simulated output, in workload order.

    Follows ``result_fingerprint`` in tests/test_parallel_harness.py:
    records as ``(app_id, arrival, finish)``, makespan, utilization and
    sorted extras.  ``request_id`` is left out; it comes from a
    process-global counter.
    """
    h = hashlib.sha256()
    for cell in outcome.cells:
        r = cell.result
        h.update(repr((
            cell.label,
            r.system,
            r.makespan_us,
            r.utilization,
            tuple((rec.app_id, rec.arrival, rec.finish) for rec in r.records),
            tuple(sorted(r.extras.items())),
        )).encode())
    return h.hexdigest()[:16]


def kernels_completed(outcome: Outcome) -> int:
    """Simulated kernels of every completed request, from the results."""
    return sum(
        cell.kernels[rec.app_id]
        for cell in outcome.cells
        for rec in cell.result.records
    )


def tail_rank(n: int) -> int:
    """Index of the highest order statistic with ten samples above it."""
    return max(0, n - 11)


def sim_metrics(outcome: Outcome) -> Dict[str, float]:
    """Simulated-time end-to-end metrics of one run (deterministic)."""
    bless = sorted(
        rec.latency
        for cell in outcome.cells
        if cell.system == "BLESS"
        for rec in cell.result.records
    )
    books = [request_books(cell.result) for cell in outcome.cells]
    arrived = sum(b["arrived"] for b in books)
    return {
        "sim.bless_mean_ms": sum(bless) / len(bless) / 1000.0,
        "sim.bless_tail_ms": bless[tail_rank(len(bless))] / 1000.0,
        "sim.bless_requests": float(len(bless)),
        "sim.completed_frac": sum(b["completed"] for b in books) / arrived,
    }


def apps_kernels(bindings) -> Dict[str, int]:
    return {b.app.app_id: b.app.num_kernels for b in bindings}


# ----------------------------------------------------------------------
# fig13_pairs
# ----------------------------------------------------------------------
def setup_fig13(seed: int, inproc: bool) -> Callable[[], Outcome]:
    from repro.apps.models import MODEL_NAMES
    from repro.experiments.common import INFERENCE_SYSTEMS, mean_latency_ms
    from repro.parallel import ServeCell, run_cells
    from repro.workloads.suite import LOAD_FACTORS, bind_closed_loop, symmetric_pair

    # The Fig. 13 grid of run_inference, with the benchmark seed reaching
    # the closed loop's think-time jitter (seed 0 is bind_load exactly).
    cells = []
    for model in MODEL_NAMES:
        bindings = partial(
            bind_closed_loop,
            symmetric_pair(model),
            LOAD_FACTORS[FIG13_LOAD],
            FIG13_REQUESTS,
            seed=seed,
        )
        for name, factory in INFERENCE_SYSTEMS.items():
            cells.append(ServeCell(key=model, system=name,
                                   system_factory=factory,
                                   bindings_factory=bindings))

    def run() -> Outcome:
        outcome = Outcome(attempted=len(cells))
        try:
            results = run_cells(cells, jobs=1)
        except Exception as exc:  # every cell of the grid is lost
            outcome.fail([(c.key, c.system) for c in cells],
                         f"grid raised {type(exc).__name__}: {exc}")
            return outcome
        for cell, result in zip(cells, results):
            outcome.cells.append(Cell(cell.key, cell.system, result,
                                      apps_kernels(cell.bindings_factory())))
        check_cells(outcome)
        for cell in outcome.cells:
            # Closed loop, no faults: every offered request completes.
            offered = FIG13_REQUESTS * len(cell.kernels)
            if len(cell.result.records) != offered:
                outcome.fail([(cell.label, cell.system)],
                             f"{cell.label}/{cell.system}: "
                             f"{len(cell.result.records)} of {offered} completed")

        grouped: Dict[str, Dict[str, float]] = {}
        for cell in outcome.cells:
            grouped.setdefault(cell.label, {})[cell.system] = mean_latency_ms(cell.result)
        rows = [{"model": m, "load": FIG13_LOAD, **grouped[m]} for m in MODEL_NAMES]
        reductions = {
            name: float(1.0 - sum(r["BLESS"] / r[name] for r in rows) / len(rows))
            for name in INFERENCE_SYSTEMS
            if name != "BLESS"
        }
        if seed == 0:
            compare_golden(outcome, "fig13_inference_small.json",
                           {"rows": rows, "reductions": reductions},
                           [(c.key, c.system) for c in cells])
        by_system = {(c.label, c.system): c.result for c in outcome.cells}
        excess = []
        for model in MODEL_NAMES:
            iso = by_system[(model, "ISO")].per_app_mean_latency()
            bless = by_system[(model, "BLESS")].per_app_mean_latency()
            excess += [bless[app] / iso[app] - 1.0 for app in bless]
        outcome.report = {
            "sim.iso_excess_max": max(excess),
            "sim.bless_reduction_min": min(reductions.values()),
        }
        return outcome

    return run


# ----------------------------------------------------------------------
# cluster_churn
# ----------------------------------------------------------------------
def setup_churn(seed: int, inproc: bool) -> Callable[[], Outcome]:
    from repro.cluster import OnlineClusterController, PlacementPolicy
    from repro.experiments.cluster_scale import CHURN_POLICIES, churn_schedule

    # Continuous arrivals take no seed: the schedule is the same for
    # every seed, so every run is checked against the golden.
    schedules = {p: churn_schedule(CHURN_GPUS, requests=CHURN_REQUESTS)
                 for p in CHURN_POLICIES}

    def run() -> Outcome:
        outcome = Outcome(attempted=len(CHURN_POLICIES))
        stats = {}
        for policy in CHURN_POLICIES:
            schedule = schedules[policy]
            controller = OnlineClusterController(
                num_gpus=CHURN_GPUS, policy=PlacementPolicy(policy), migrate=True
            )
            try:
                served = controller.serve(schedule, jobs=1)
            except Exception as exc:
                outcome.fail([(policy, "BLESS")],
                             f"{policy} raised {type(exc).__name__}: {exc}")
                continue
            merged = served.merged
            outcome.cells.append(Cell(
                policy, "BLESS", merged,
                apps_kernels(arrival.binding for arrival in schedule)))
            # The row run_churn reports for this policy.
            row = {
                "mean_ms": merged.mean_of_app_means() / 1000.0,
                "throughput_qps": merged.throughput_qps(),
                "p99_latency_us": merged.percentile_latency(99),
                "makespan_ms": merged.makespan_us / 1000.0,
                "util": merged.utilization,
                "completed": float(len(merged.records)),
                "shed_apps": float(served.stats.apps_shed),
                "migrations": float(served.stats.migrations),
            }
            cost = merged.extras.get("cluster_placement_cost")
            if cost is not None:
                row["placement_cost"] = float(cost)
            stats[f"gpus={CHURN_GPUS} policy={policy} churn"] = row
        check_cells(outcome)
        if not outcome.errors:
            compare_golden(outcome, "cluster_contention_smoke.json", stats,
                           [(p, "BLESS") for p in CHURN_POLICIES])
            outcome.report = {
                "sim.cluster_qps": stats[
                    f"gpus={CHURN_GPUS} policy=contention_aware churn"
                ]["throughput_qps"],
            }
        return outcome

    return run


# ----------------------------------------------------------------------
# zoo
# ----------------------------------------------------------------------
def setup_zoo(seed: int, inproc: bool) -> Callable[[], Outcome]:
    from repro import parallel
    from repro.catalog.ingest import result_metrics
    from repro.scenarios.runner import (
        list_zoo,
        load_zoo,
        resolve_scenario,
        scenario_cells,
    )

    # The committed specs, seeds included: overriding the spec seed with
    # the benchmark seed moved the wall time by 30% and sim.bless_mean_ms by 55%
    # between seeds (heavy-tailed and open-loop traces), wider than any
    # bound.  So every run is the golden's run and is checked against it.
    specs = {name: load_zoo(name) for name in list_zoo()}
    for spec in specs.values():
        resolve_scenario(spec)
    # Traced runs stay in process so the wrappers see every call.
    jobs, backend = (1, "inproc") if inproc else (ZOO_JOBS, None)
    if jobs > 1:
        # Start the pool now so its fork is set-up, not run, time.
        get_pool = getattr(parallel, "_get_pool", None)
        if get_pool is not None:
            get_pool(parallel.resolve_jobs(jobs)).submit(os.getpid).result()

    def run() -> Outcome:
        outcome = Outcome()
        lc_hits = lc_arrived = 0.0
        for name, spec in specs.items():
            # run_scenario, keeping the ServingResults for the checks.
            cells = scenario_cells(spec)
            outcome.attempted += len(cells)
            try:
                results = parallel.run_cells(cells, jobs=jobs,
                                             experiment=spec.name,
                                             backend=backend)
            except Exception as exc:
                outcome.fail([(f"{name}/{c.key[0]}", c.system) for c in cells],
                             f"{name} raised {type(exc).__name__}: {exc}")
                continue
            out: Dict[str, Dict[str, Dict[str, float]]] = {}
            for cell, result in zip(cells, results):
                key, system = cell.key
                out.setdefault(key, {})[system] = result_metrics(result)
                outcome.cells.append(Cell(f"{name}/{key}", system, result,
                                          apps_kernels(cell.bindings_factory())))
                if name == "flash_crowd" and system == "BLESS":
                    extras = result.extras
                    lc_hits += extras.get("slo_deadline_hits_latency_critical", 0.0)
                    lc_arrived += extras.get("slo_arrived_latency_critical", 0.0)
            compare_golden(outcome, "scenario_smoke.json", out,
                           [(f"{name}/{c.key[0]}", c.system) for c in cells],
                           golden_key=name)
        check_cells(outcome)
        if lc_arrived:
            outcome.report = {"sim.slo_attainment": lc_hits / lc_arrived}
        return outcome

    return run


WORKLOADS: Dict[str, Callable[..., Callable[[], Outcome]]] = {
    "fig13_pairs": setup_fig13,
    "cluster_churn": setup_churn,
    "zoo": setup_zoo,
}
