"""Offline profiler (§4.2): per-kernel statistics at every partition size.

For an application provisioned ``n%`` of the GPU the profiler records:

* ``T[n%]``     — isolated request latency on an MPS partition of n%;
* ``t[n%][k]``  — duration of kernel *k* at n% SMs;
* ``tau[n%][k]``— elapsed time from request start to the end of *k*;
* ``d%[k]``     — the kernel's maximum active SM usage.

The paper measures these with CUDA events over ``N`` solo runs (one per
partition size).  Our simulator's solo-run kernel duration at a
partition is exactly ``KernelSpec.duration_at``, so the profile can be
computed analytically; :func:`profile_via_simulation` cross-checks that
the analytic profile matches an actual simulated solo run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..apps.application import Application
from ..gpusim.device import GPUSpec
from .config import BlessConfig, DEFAULT_CONFIG


@dataclass
class AppProfile:
    """Profiled data of one application over all partition sizes."""

    app_name: str
    num_partitions: int
    # durations[p][k]: duration of kernel k at partition index p (1-based
    # index stored at p-1).
    durations: np.ndarray
    # elapsed[p][k]: time from request start to end of kernel k,
    # including the host dispatch gaps between kernels.
    elapsed: np.ndarray
    # sm_demand[k]: the kernel's d%.
    sm_demand: np.ndarray
    # gaps[k]: host dispatch gap preceding kernel k.
    gaps: np.ndarray
    # mem_intensity[k]: bandwidth appetite, used by the wave estimator.
    mem_intensity: np.ndarray
    memory_mb: int
    # Simulated profiling cost (one full run + N partitioned runs).
    profiling_cost_us: float = 0.0
    # Calibration token: bumped by OfflineProfiler.recalibrate().  The
    # squad-signature cache embeds it, so decisions memoized against an
    # older calibration become unreachable the moment the profile is
    # re-measured (repro.core.config_cache).
    version: int = 0
    # Per-partition rows of ``elapsed`` and of ``durations + gaps`` as
    # Python float lists, converted on first read: squad generation
    # reads them per kernel, and scalar numpy indexing costs several
    # times a list lookup.  Only the rows actually read are converted.
    _tau_rows: Dict[int, List[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _step_rows: Dict[int, List[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The row caches above mirror the arrays, so the arrays must not
        # change under them: an in-place write raises ValueError.
        for array in (
            self.durations, self.elapsed, self.sm_demand, self.gaps,
            self.mem_intensity,
        ):
            array.flags.writeable = False

    @property
    def num_kernels(self) -> int:
        return self.durations.shape[1]

    def duration(self, partition: int, kernel: int) -> float:
        """``t[n%][k]`` with ``partition`` 1-based."""
        return float(self.durations[partition - 1, kernel])

    def step_cost(self, partition: int, kernel: int) -> float:
        """Kernel duration plus its preceding dispatch gap — the time
        the kernel occupies on its request's critical path."""
        row = self._step_rows.get(partition)
        if row is None:
            row = (self.durations[partition - 1] + self.gaps).tolist()
            self._step_rows[partition] = row
        return row[kernel]

    def tau(self, partition: int, kernel: int) -> float:
        """``tau[n%][k]`` with ``partition`` 1-based."""
        row = self._tau_rows.get(partition)
        if row is None:
            row = self.elapsed[partition - 1].tolist()
            self._tau_rows[partition] = row
        return row[kernel]

    def iso_latency(self, partition: int) -> float:
        """``T[n%]`` — isolated latency at a partition size."""
        return self.tau(partition, -1)

    def stack_duration(self, partition: int, start: int, end: int) -> float:
        """Critical-path time of kernels ``[start, end)`` in one queue
        (Eq. 1 term): durations plus the dispatch gaps between them."""
        if start >= end:
            return 0.0
        return float(
            self.durations[partition - 1, start:end].sum()
            + self.gaps[start:end].sum()
        )

    def duration_at_fraction(self, fraction: float, kernel: int) -> float:
        """Duration at an arbitrary SM fraction, interpolated over the
        profiled partition grid (§4.4.2: 'the duration of a kernel using
        the desired number of SM is interpolated')."""
        grid = np.arange(1, self.num_partitions + 1) / self.num_partitions
        fraction = min(1.0, max(grid[0], fraction))
        return float(np.interp(fraction, grid, self.durations[:, kernel]))

    def durations_at_fractions(
        self, fractions: np.ndarray, kernels: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`duration_at_fraction`.

        ``fractions[i]`` is the SM fraction for kernel ``kernels[i]``;
        returns the interpolated durations as one array.  The profiled
        grid is uniform (``p / N``), so the piecewise-linear lookup is a
        direct index-and-lerp into the duration matrix.
        """
        n = self.num_partitions
        frac = np.clip(np.asarray(fractions, dtype=float), 1.0 / n, 1.0)
        position = frac * n - 1.0  # float row index into durations
        low = np.floor(position).astype(int)
        high = np.minimum(low + 1, n - 1)
        weight = position - low
        cols = np.asarray(kernels, dtype=int)
        base = self.durations[low, cols]
        return base + weight * (self.durations[high, cols] - base)

    def stack_costs(self, kernels: Sequence[int]) -> np.ndarray:
        """Per-partition critical-path cost of a kernel-index stack.

        Returns an ``(N,)`` array whose ``p-1``-th element is the Eq. 1
        stack term ``sum_i t[p][k_i] + gap[k_i]`` — every partition size
        at once, which is what the vectorized configuration search
        consumes as one row of its ``(K, N)`` cost matrix.
        """
        cols = np.asarray(list(kernels), dtype=int)
        if cols.size == 0:
            return np.zeros(self.num_partitions, dtype=float)
        return self.durations[:, cols].sum(axis=1) + float(self.gaps[cols].sum())

    def mean_kernel_duration(self) -> float:
        return float(self.durations[-1].mean())


class OfflineProfiler:
    """Profiles applications at deployment time (§4.2.1)."""

    def __init__(
        self,
        config: BlessConfig = DEFAULT_CONFIG,
        gpu_spec: Optional[GPUSpec] = None,
    ):
        self.config = config
        self.gpu_spec = gpu_spec or GPUSpec()
        self._cache: Dict[str, AppProfile] = {}
        # Bumped on recalibration; stamped into every profile produced
        # afterwards so downstream memoization keys change with it.
        self.version = 0

    def recalibrate(self, app_name: Optional[str] = None) -> int:
        """Drop measured profiles and advance the calibration token.

        ``app_name`` limits the re-measurement to one application;
        either way the token advances, so every squad-signature built
        from profiles produced after this call differs from the ones
        built before.  Callers holding an execution-config cache should
        also call its ``invalidate()`` hook to free stale entries
        eagerly (``BlessRuntime.recalibrate_profiles`` does both).
        """
        if app_name is None:
            self._cache.clear()
        else:
            self._cache.pop(app_name, None)
        self.version += 1
        return self.version

    def profile(self, app: Application) -> AppProfile:
        """Profile ``app`` at every partition size (cached per app name)."""
        cached = self._cache.get(app.name)
        if cached is not None:
            return cached

        n = self.config.num_partitions
        columns = np.array(
            [
                (
                    k.base_duration_us,
                    k.sm_demand,
                    k.serial_fraction,
                    k.dispatch_gap_us,
                    k.mem_intensity,
                    k.is_compute,
                )
                for k in app.kernels
            ],
            dtype=float,
        ).T
        base, demand, serial, gaps, intensity, compute = columns
        # KernelSpec.duration_at over the whole (partition, kernel) grid,
        # with the same IEEE operations in the same order, so every entry
        # is bit-identical to the scalar call.
        fraction = (np.arange(1, n + 1) / n)[:, None]
        usable = np.minimum(fraction, demand)
        slowdown = demand / usable
        durations = base * (serial + (1.0 - serial) * slowdown)
        fixed = compute == 0.0  # non-compute kernels do not scale with SMs
        durations[:, fixed] = base[fixed]
        elapsed = (durations + gaps[None, :]).cumsum(axis=1)

        # One full run to get overall performance + N partitioned runs
        # (the paper's O(MN) profiling procedure).
        cost = float(elapsed[-1, -1]) + float(elapsed[:, -1].sum())
        # The per-kernel columns are strided views; the profile keeps
        # contiguous copies.
        profile = AppProfile(
            app_name=app.name,
            num_partitions=n,
            durations=durations,
            elapsed=elapsed,
            sm_demand=demand.copy(),
            gaps=gaps.copy(),
            mem_intensity=intensity.copy(),
            memory_mb=app.memory_mb,
            profiling_cost_us=cost,
            version=self.version,
        )
        self._cache[app.name] = profile
        return profile


def profile_via_simulation(
    app: Application,
    partition: int,
    config: BlessConfig = DEFAULT_CONFIG,
    gpu_spec: Optional[GPUSpec] = None,
) -> List[float]:
    """Measure kernel durations of a solo run on the simulator.

    Cross-validation helper: launches the app alone on an MPS partition
    and returns the per-kernel measured durations, which must agree with
    the analytic profile (the simulator uses the same scaling law).
    """
    from ..gpusim.context import ContextRegistry
    from ..gpusim.device import GPUDevice
    from ..gpusim.engine import SimEngine
    from ..gpusim.kernel import KernelInstance

    spec = gpu_spec or GPUSpec()
    engine = SimEngine(device=GPUDevice(spec))
    registry = ContextRegistry(engine.device)
    fraction = config.partition_fraction(partition)
    context = registry.create(app.app_id, fraction, charge_memory=False)
    queue = engine.create_queue(context)
    measured: List[float] = []

    def record(kernel: KernelInstance) -> None:
        measured.append(kernel.finish_time - kernel.start_time)

    for index in range(len(app.kernels)):
        instance = KernelInstance(spec=app.kernels[index], app_id=app.app_id, seq=index)
        engine.launch(instance, queue, on_finish=record)
    engine.run()
    return measured
