"""The BLESS runtime (§4): the paper's primary contribution, end to end.

``BlessRuntime`` plugs the three online components into the shared
serving harness:

1. the **multi-task scheduler** tracks per-request progress and builds
   kernel squads at every squad boundary (§4.3);
2. the **execution configuration determiner** picks each squad's
   spatial plan with the two estimators (§4.4);
3. the **concurrent kernel manager** launches the squad into the
   pre-established GPU contexts, realising Semi-SP spatial-temporal
   sharing (§4.5).

Between boundaries the host runs in parallel with the GPU; scheduling
cost is charged only when it cannot be hidden behind the previous
squad's execution (§6.9).  Fig. 20's ablations are the two config
switches; §6.5's SLO mode is ``BlessConfig.slo_targets_us``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..baselines.base import ClientState, SharingSystem
from ..gateway.slo import BEST_EFFORT, SLOSpec
from ..gpusim.context import GPUContext
from ..gpusim.device import GPUSpec
from ..gpusim.faults import FaultPlan
from ..gpusim.kernel import KernelInstance
from ..obs import events as obs_events
from .config import BlessConfig, DEFAULT_CONFIG
from .configurator import (
    ExecutionConfigDeterminer,
    quota_proportional_config,
)
from .kernel_manager import ConcurrentKernelManager, SquadExecution
from .profiler import AppProfile, OfflineProfiler
from .progress import RequestProgress
from .squad import generate_squad


class BlessRuntime(SharingSystem):
    """Bubble-less spatial-temporal GPU sharing.

    Parameters (all optional):

    * ``config`` — :class:`BlessConfig` hyper-parameters: squad cap,
      Semi-SP split ratio, SLO targets, the Fig. 20 ablation switches;
    * ``gpu_spec`` — the simulated GPU (defaults to the calibrated
      A100-like spec);
    * ``record_timeline`` — keep per-kernel execution records for the
      ASCII timeline renderer;
    * ``hw_policy`` — hardware block-dispatch policy (``"fair"``/
      ``"fifo"``);
    * ``validate`` — run invariant checks during serving;
    * ``fault_plan`` — deterministic fault injection
      (``docs/robustness.md``);
    * ``trace`` — opt into decision tracing: ``True`` attaches a
      :class:`~repro.obs.tracer.DecisionTracer` recording squad
      composition (with every request's relative progress ``P̃``),
      Eq. 1/Eq. 2 configuration decisions, Semi-SP switches, and fault
      events on the simulated clock; ``None`` defers to the
      ``REPRO_TRACE`` environment variable (``docs/observability.md``).

    ``serve(bindings)`` returns a
    :class:`~repro.metrics.stats.ServingResult`; the runtime's
    observability state lives on ``self.obs``.
    """

    name = "BLESS"

    def __init__(
        self,
        config: BlessConfig = DEFAULT_CONFIG,
        gpu_spec: Optional[GPUSpec] = None,
        record_timeline: bool = False,
        hw_policy: str = "fair",
        validate: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        trace: Optional[bool] = None,
        gpu_index: Optional[int] = None,
        slo: Optional[SLOSpec] = None,
    ):
        super().__init__(
            gpu_spec=gpu_spec,
            record_timeline=record_timeline,
            hw_policy=hw_policy,
            validate=validate,
            fault_plan=fault_plan,
            trace=trace,
            gpu_index=gpu_index,
            slo=slo,
        )
        self.config = config
        self.profiler = OfflineProfiler(config=config, gpu_spec=self.gpu_spec)
        # The determiner owns the squad-signature decision cache (LRU,
        # invalidated on profile recalibration — see recalibrate_profiles).
        self.determiner = ExecutionConfigDeterminer(config)
        # Populated in setup():
        self.manager: ConcurrentKernelManager
        self.profiles: Dict[str, AppProfile] = {}
        self._partition_of: Dict[str, int] = {}
        self._t_ref: Dict[str, float] = {}
        self._squad_inflight = False
        self._last_squad_duration = 0.0
        self._squad_count = 0
        self._squad_kernel_total = 0
        self._spatial_squads = 0
        self._profiles_stale = False
        self._stale_streak = 0
        # Squad-boundary preemption (serving gateway): the in-flight
        # execution, and whether an epoch hook is already armed.
        self._current_execution: Optional[SquadExecution] = None
        self._preempt_armed = False

    # ------------------------------------------------------------------
    # Deployment (§4.2)
    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.manager = ConcurrentKernelManager(
            self.engine, self.registry, self.config
        )
        # Wire the run's decision tracer (None when tracing is off)
        # into the components that emit config/context events.
        self.determiner.trace = self.obs.tracer
        self.manager.trace = self.obs.tracer
        self.profiles = {}
        self._partition_of = {}
        self._t_ref = {}
        self._squad_inflight = False
        self._last_squad_duration = 0.0
        self._squad_count = 0
        self._squad_kernel_total = 0
        self._spatial_squads = 0
        self._profiles_stale = False
        self._stale_streak = 0
        self._current_execution = None
        self._preempt_armed = False

        slo = self.config.slo_targets_us or {}
        for client in self.clients.values():
            app = client.app
            profile = self.profiler.profile(app)
            self.profiles[app.app_id] = profile
            partition = self.config.nearest_partition(app.quota)
            self._partition_of[app.app_id] = partition
            self._t_ref[app.app_id] = slo.get(
                app.app_id, profile.iso_latency(partition)
            )
            self.manager.register_client(app.app_id)

    def recalibrate_profiles(self) -> None:
        """Re-measure every client's profile and drop stale decisions.

        The profiler's version token advances, so re-measured profiles
        produce new squad signatures; the explicit cache invalidation
        frees the memoized decisions built against the old calibration.
        """
        self.profiler.recalibrate()
        self.determiner.invalidate_cache()
        slo = self.config.slo_targets_us or {}
        for client in self.clients.values():
            app = client.app
            profile = self.profiler.profile(app)
            self.profiles[app.app_id] = profile
            partition = self._partition_of[app.app_id]
            self._t_ref[app.app_id] = slo.get(
                app.app_id, profile.iso_latency(partition)
            )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def on_request_activated(self, client: ClientState) -> None:
        if not self._squad_inflight:
            self._schedule_round(from_idle=True)

    def _active_progresses(self) -> List[RequestProgress]:
        progresses = []
        gateway = self._gateway
        for client in self.clients.values():
            request = client.active
            if request is None or request.all_scheduled:
                continue
            app_id = client.app_id
            progress = RequestProgress(
                request=request,
                profile=self.profiles[app_id],
                partition=self._partition_of[app_id],
                t_ref_us=self._t_ref[app_id],
            )
            if gateway is not None:
                # Annotate for slo_aware squad composition: class plus
                # the absolute deadline the gateway admitted against.
                progress.slo_class = gateway.class_of(app_id)
                progress.slo_deadline_us = gateway.deadline_of.get(
                    request.request_id
                )
            progresses.append(progress)
        return progresses

    def _schedule_round(self, from_idle: bool = False) -> None:
        """Arm the next scheduling round.

        Squad generation is deferred by the squad-boundary sync (20 µs,
        §6.9) — or a zero-delay event when waking from idle — so that
        every request arriving up to the generation instant joins the
        squad.  Without the deferral, two requests arriving at the same
        simulated time would be split into consecutive solo squads.
        """
        self._squad_inflight = True
        delay = 0.0 if from_idle else self.gpu_spec.sync_overhead_us
        self.engine.schedule(delay, lambda: self._generate_and_launch(from_idle))

    def _generate_and_launch(self, from_idle: bool) -> None:
        progresses = self._active_progresses()
        if not progresses:
            self._squad_inflight = False
            return

        # Generate against the *projected* end-of-squad time: a request
        # must receive enough kernels to still be on its plan when this
        # squad finishes, not merely now.  Without the horizon, a
        # high-quota (small T[n%]) app carries a standing lag of about
        # one squad duration — exactly the deviation Fig. 14 penalises.
        now = self.engine.now + self._last_squad_duration
        squad = generate_squad(progresses, now, self.config)
        if squad.total_kernels == 0:
            self._squad_inflight = False
            return

        tracer = self.obs.tracer
        if tracer is not None:
            tracer.emit(
                "squad.composed",
                squad_id=self._squad_count + 1,
                members=list(squad.app_ids),
                kernels={a: squad.entry(a).count for a in squad.app_ids},
                relative_progress={
                    p.request.app.app_id: p.relative_progress(self.engine.now)
                    for p in progresses
                },
            )

        if self.config.use_config_determiner and not self._profiles_stale:
            exec_config = self.determiner.determine(squad, self.profiles)
        else:
            # Either the determiner is ablated (Fig. 20) or the drift
            # watchdog flagged the offline profiles as untrustworthy —
            # degrade to the estimate-free quota-proportional plan.
            quotas = {c.app_id: c.app.quota for c in self.clients.values()}
            exec_config = quota_proportional_config(
                squad, self.profiles, quotas, self.config
            )
            if tracer is not None:
                tracer.emit(
                    "config.fallback",
                    reason=(
                        "profiles_stale"
                        if self.config.use_config_determiner
                        else "determiner_ablated"
                    ),
                    predicted_us=exec_config.predicted_duration_us,
                    is_spatial=exec_config.is_spatial,
                )

        # Host-side scheduling cost (§6.9): the host pipelines ~6.7us of
        # work per kernel with the GPU, so only the first kernel's
        # scheduling is exposed — plus any residue when kernels are so
        # short the host cannot keep ahead ("overspending").
        per_kernel = self.config.scheduling_us_per_kernel
        sched_time = per_kernel * squad.total_kernels
        overspend = max(0.0, sched_time - exec_config.predicted_duration_us)
        delay = per_kernel + overspend

        self._squad_count += 1
        self._squad_kernel_total += squad.total_kernels
        if exec_config.is_spatial:
            self._spatial_squads += 1

        preemptible = self.slo is not None and self.slo.preempt

        def launch() -> None:
            self._current_execution = self.manager.execute_squad(
                squad,
                exec_config,
                on_kernel_finish=self._on_kernel_finish,
                on_done=self._on_squad_done,
                preemptible=preemptible,
            )

        if delay > 0:
            self.engine.schedule(delay, launch)
        else:
            launch()

    def _on_kernel_finish(self, kernel: KernelInstance) -> None:
        if kernel.failed:
            # Killed/permanently-failed kernels still drain squad
            # accounting, but must not complete their (shed) request.
            return
        client = self.clients.get(kernel.app_id)
        if client is None or client.active is None:
            return
        request = client.active
        if (
            kernel.request_id == request.request_id
            and kernel.seq == request.total_kernels - 1
        ):
            self.finish_request(client)

    def _on_squad_done(self, execution: SquadExecution) -> None:
        if execution is self._current_execution:
            self._current_execution = None
        self._last_squad_duration = execution.duration_us
        if self.obs.tracer is not None:
            self.obs.emit(
                "squad.done",
                squad_id=self._squad_count,
                start_us=execution.started_at,
                duration_us=execution.duration_us,
                predicted_us=execution.config.predicted_duration_us,
                is_spatial=execution.config.is_spatial,
            )
        if self.fault_injector is not None and not self._profiles_stale:
            self._check_profile_drift(execution)
        self._schedule_round(from_idle=False)

    def _check_profile_drift(self, execution: SquadExecution) -> None:
        """Drift watchdog: distrust profiles that keep under-predicting.

        Fault injection can perturb kernel durations away from the
        offline profiles.  After ``profile_stale_patience`` consecutive
        squads overrunning their prediction by ``profile_stale_ratio``,
        the determiner is benched in favour of the quota-proportional
        fallback, which does not rely on duration estimates.
        """
        predicted = execution.config.predicted_duration_us
        if predicted <= 0:
            return
        if execution.duration_us / predicted >= self.config.profile_stale_ratio:
            self._stale_streak += 1
        else:
            self._stale_streak = 0
        if self._stale_streak >= self.config.profile_stale_patience:
            self._profiles_stale = True
            self.fault_stats.profile_stale_events += 1

    # ------------------------------------------------------------------
    # Squad-boundary preemption (serving gateway)
    # ------------------------------------------------------------------
    def request_slo_preemption(self, client: ClientState, request) -> None:
        """An admitted latency-critical request wants the GPU.

        Arms an epoch hook (:meth:`SimEngine.request_preemption`) that
        withdraws the running squad's best-effort kernels at the next
        rate-change epoch — running kernels finish naturally, pending
        and Semi-SP-rear ones are pulled back and rewound, so the squad
        boundary (the only reconfiguration point, §3.3) arrives early
        and the next squad is composed with the new request in it.
        """
        execution = self._current_execution
        if execution is None or execution.finished_at is not None:
            return
        gateway = self._gateway
        if gateway is None or self._preempt_armed:
            return
        if not any(
            gateway.class_of(app_id) == BEST_EFFORT
            and app_id not in execution.preempted
            for app_id in execution.squad.app_ids
        ):
            return  # nothing preemptible in flight
        self._preempt_armed = True
        self.engine.request_preemption(self._do_preempt)

    def _do_preempt(self) -> None:
        self._preempt_armed = False
        execution = self._current_execution
        gateway = self._gateway
        if execution is None or execution.finished_at is not None or gateway is None:
            return
        if execution.unconfirmed > 0:
            # A launch burst is inside its launch-overhead window, so
            # the pending queues are not the whole truth yet.  Re-arm
            # and preempt at the next epoch instead.
            self._preempt_armed = True
            self.engine.request_preemption(self._do_preempt)
            return
        be_apps = [
            app_id
            for app_id in execution.squad.app_ids
            if gateway.class_of(app_id) == BEST_EFFORT
        ]
        withdrawn = self.manager.preempt_squad(execution, be_apps)
        if not withdrawn:
            return
        for app_id, indices in withdrawn.items():
            gateway.on_preempt(len(indices))
            if self.obs.tracer is not None:
                self.obs.emit(
                    obs_events.SLO_PREEMPT,
                    app_id,
                    request_id=execution.squad.entry(app_id).request.request_id,
                    kernels=len(indices),
                    first_index=indices[0],
                )
        if execution.remaining == 0 and execution.finished_at is None:
            # Every surviving kernel had already drained: the squad is
            # over now; close it so the next round schedules at once.
            execution.finished_at = self.engine.now
            execution.on_done(execution)

    def on_context_crash(self, context: GPUContext, killed) -> None:
        """Recover from a restricted (MPS) context dying mid-squad.

        The manager forgets the dead cached queues (and re-registers
        the owner if its default context died), then the killed kernels
        are relaunched through the owner's default queue so the squad —
        and every non-faulted request in it — still completes.
        """
        self.manager.handle_context_crash(context)
        queue = self.manager.register_client(context.owner)
        self.relaunch_killed(killed, queue)

    # ------------------------------------------------------------------
    def serve(self, bindings):  # type: ignore[override]
        result = super().serve(bindings)
        # Runtime tallies flow through the metrics registry; the
        # ``bless/`` namespace maps to bare extras keys.  The counts are
        # additive, so merged results sum them (a reader derives kernels
        # per squad as ``squad_kernels / squads``); the two context-memory
        # values are gauges.  The decision cache's hit/miss stats are host
        # machinery and stay on ``self.determiner.cache_stats``.
        reg = self.obs.registry
        reg.gauge("bless/squads").set(float(self._squad_count))
        reg.gauge("bless/spatial_squads").set(float(self._spatial_squads))
        reg.gauge("bless/context_switches").set(float(self.manager.context_switches))
        reg.gauge("bless/context_memory_mb").set(float(self.manager.context_memory_mb))
        reg.gauge("bless/peak_context_memory_mb").set(
            float(self.manager.peak_context_memory_mb)
        )
        reg.gauge("bless/context_evictions").set(float(self.manager.context_evictions))
        reg.gauge("bless/oom_fallbacks").set(float(self.manager.oom_fallbacks))
        if self.fault_injector is not None:
            reg.gauge("bless/profile_stale").set(float(self._profiles_stale))
        reg.gauge("bless/squad_kernels").set(float(self._squad_kernel_total))
        result.extras.update(self.obs.legacy_extras())
        return result
