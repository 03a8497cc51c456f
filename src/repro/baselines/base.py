"""Shared serving harness for all GPU-sharing systems.

Every comparison system (§6.1: ISO, TEMPORAL, MIG, GSLICE, UNBOUND,
REEF+, ZICO) and BLESS itself drive the same simulator through this
harness: it owns the engine, client bookkeeping (per-app FIFO task
queues, one in-flight request per app — §4.3), the arrival machinery,
and result collection.  Subclasses implement only their scheduling
policy via the ``setup`` / ``on_request_activated`` hooks.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..apps.application import Application, Request
from ..gpusim.context import ContextRegistry, GPUContext
from ..gpusim.device import GPUDevice, GPUSpec
from ..gpusim.engine import SimEngine
from ..gpusim.faults import FaultInjector, FaultPlan, resolve_fault_plan
from ..gpusim.kernel import KernelInstance
from ..gpusim.stream import DeviceQueue
from ..gateway.gateway import ServingGateway
from ..gateway.slo import SLOSpec
from ..metrics.stats import FaultStats, RequestRecord, ServingResult
from ..obs import Observability
from ..obs import events as obs_events
from ..workloads.arrivals import ArrivalProcess, TraceReplay, OneShot
from ..workloads.suite import WorkloadBinding


def _is_open_loop(process: ArrivalProcess) -> bool:
    return isinstance(process, (TraceReplay, OneShot))


@dataclass
class ClientState:
    """Runtime bookkeeping for one deployed application."""

    app: Application
    process: ArrivalProcess
    pending: Deque[Request] = field(default_factory=deque)
    active: Optional[Request] = None
    completed: int = 0
    # System-specific attachments (contexts, queues, slices ...).
    attachments: Dict[str, object] = field(default_factory=dict)

    @property
    def app_id(self) -> str:
        return self.app.app_id


class SharingSystem(abc.ABC):
    """Base class for GPU-sharing systems running on the simulator."""

    name = "BASE"

    def __init__(
        self,
        gpu_spec: Optional[GPUSpec] = None,
        record_timeline: bool = False,
        hw_policy: str = "fair",
        validate: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        trace: Optional[bool] = None,
        gpu_index: Optional[int] = None,
        slo: Optional[SLOSpec] = None,
    ):
        self.gpu_spec = gpu_spec or GPUSpec()
        self.record_timeline = record_timeline
        self.hw_policy = hw_policy
        self.validate = validate
        # When this system serves one GPU of a §4.2.2 cluster, the
        # controller sets gpu_index so every trace record this run
        # emits carries its GPU identity (Perfetto per-GPU tracks).
        self.gpu_index = gpu_index
        # Observability: the metrics registry always rides along; the
        # decision tracer only when `trace=True` (or REPRO_TRACE is
        # set).  A fresh bundle is created per serve() so repeated
        # serves on one system object never mix streams.
        self._trace_flag = trace
        self.obs = Observability(trace)
        # Fault injection: an explicit plan wins; otherwise the
        # REPRO_FAULT_PLAN / REPRO_FAULT_SEED environment (None = off).
        self.fault_plan = fault_plan if fault_plan is not None else resolve_fault_plan()
        self.fault_injector: Optional[FaultInjector] = None
        self.fault_stats = FaultStats()
        # SLO serving gateway: attach an SLOSpec to stream arrivals
        # through admission control + deadline accounting.  None (the
        # default) keeps the serving loop byte-identical to history.
        self.slo = slo
        self._gateway: Optional[ServingGateway] = None
        # Populated per serve() call:
        self.engine: SimEngine
        self.registry: ContextRegistry
        self.clients: Dict[str, ClientState] = {}
        self._result: ServingResult
        self._inflight = 0
        self._inflight_windows: List[Tuple[float, float]] = []
        self._window_start = 0.0
        self._requests_arrived = 0
        self._request_timeout_us: Optional[float] = None
        self._timeout_events: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def setup(self) -> None:
        """Create contexts/queues for ``self.clients`` (deployment stage)."""

    @abc.abstractmethod
    def on_request_activated(self, client: ClientState) -> None:
        """A request became the client's active request: schedule it."""

    def on_request_finished(self, client: ClientState, request: Request) -> None:
        """Optional hook after a request completes (default: no-op)."""

    def on_request_shed(self, client: ClientState, request: Request) -> None:
        """Optional hook after a request is shed (failure/timeout)."""

    def request_slo_preemption(self, client: ClientState, request: Request) -> None:
        """A latency-critical request was admitted with preemption on.

        Systems that can interrupt in-flight work at a safe boundary
        override this (BLESS: withdraw the running squad's best-effort
        kernels at the next rate-change epoch).  Default: no-op — the
        request simply waits its turn.
        """

    def on_context_crash(
        self, context: GPUContext, killed: List[Tuple[KernelInstance, object]]
    ) -> None:
        """Degradation hook for an injected MPS-context crash.

        ``killed`` holds the torn-down kernels with their per-kernel
        callbacks, in queue order.  The default recovery recreates an
        equivalent context + queue, repoints client attachments at it,
        and relaunches the killed kernels after a context switch —
        systems with richer context bookkeeping (BLESS) override this.
        """
        replacement = self.registry.create(
            owner=context.owner,
            sm_limit=context.sm_limit,
            label=context.label or "recovered",
            priority=context.priority,
        )
        queue = self.engine.create_queue(
            replacement, label=f"{context.owner}/recovered"
        )
        client = self.clients.get(context.owner)
        if client is not None:
            for key, value in list(client.attachments.items()):
                if isinstance(value, DeviceQueue) and value.context is context:
                    client.attachments[key] = queue
        self.relaunch_killed(killed, queue)

    def relaunch_killed(
        self,
        killed: List[Tuple[KernelInstance, object]],
        queue: DeviceQueue,
    ) -> int:
        """Re-issue killed kernels as fresh instances on ``queue``.

        Preserves launch order and per-kernel callbacks; charged one
        context-switch delay.  Returns the number of relaunched kernels.
        """
        if not killed:
            return 0
        kernels = [
            KernelInstance(
                spec=dead.spec,
                app_id=dead.app_id,
                request_id=dead.request_id,
                seq=dead.seq,
            )
            for dead, _ in killed
        ]
        callbacks = [callback for _, callback in killed]
        self.fault_stats.degraded_relaunches += len(kernels)
        self.engine.schedule(
            self.engine.device.spec.context_switch_us,
            lambda: self.engine.launch_batch(kernels, queue, callbacks=callbacks),
        )
        return len(kernels)

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def serve(self, bindings: Sequence[WorkloadBinding]) -> ServingResult:
        """Serve a workload to completion; returns the measured result."""
        if not bindings:
            raise ValueError("cannot serve an empty workload")
        plan = self.fault_plan
        if plan is not None and plan.active:
            self.fault_stats = FaultStats()
            self.fault_injector = FaultInjector(plan, stats=self.fault_stats)
            self._request_timeout_us = plan.request_timeout_us
        else:
            self.fault_injector = None
            self._request_timeout_us = None
        self.engine = SimEngine(
            device=GPUDevice(self.gpu_spec),
            record_timeline=self.record_timeline,
            hw_policy=self.hw_policy,
            validate=self.validate,
            fault_injector=self.fault_injector,
        )
        self.registry = ContextRegistry(self.engine.device)
        self.obs = Observability(self._trace_flag)
        self.obs.begin_serve(self.engine)
        if self.obs.tracer is not None and self.gpu_index is not None:
            self.obs.tracer.base_args["gpu"] = self.gpu_index
        self.clients = {}
        self._result = ServingResult(system=self.name)
        self._inflight = 0
        self._inflight_windows = []
        self._requests_arrived = 0
        self._timeout_events = {}
        if self.fault_injector is not None:
            self.engine.subscribe_failure(self._on_kernel_failure)
            for ordinal, crash_time in enumerate(plan.context_crash_times):
                self.engine.schedule_at(
                    crash_time,
                    lambda ordinal=ordinal: self._inject_context_crash(ordinal),
                )

        for binding in bindings:
            app = binding.app
            if app.app_id in self.clients:
                raise ValueError(f"duplicate app_id {app.app_id!r}")
            self.engine.device.memory.allocate(app.app_id, app.memory_mb)
            self.clients[app.app_id] = ClientState(
                app=app, process=binding.fresh_process()
            )

        self._gateway = (
            ServingGateway(
                self.slo, {c.app_id: c.app for c in self.clients.values()}
            )
            if self.slo is not None
            else None
        )
        self.setup()
        for client in self.clients.values():
            first = client.process.first_arrival()
            if first is not None:
                self._schedule_arrival(client, first)

        self.engine.run()

        self._result.makespan_us = self.engine.now
        self._result.utilization = self.engine.utilization()
        # End-of-run tallies of the simulated system flow through the
        # metrics registry into extras.  The engine's own counters are
        # host machinery and stay on ``self.engine.counters``.
        if self._gateway is not None:
            # slo/* gauges map to slo_* extras via the legacy shim; all
            # additive, so cluster/epoch merges sum them exactly.
            self.obs.registry.import_mapping("slo", self._gateway.counters)
        if self.fault_injector is not None:
            stats = self.fault_stats
            stats.transient_retries = self.engine.kernels_retried
            stats.permanent_failures = self.engine.kernels_failed
            stats.kernels_killed = self.engine.kernels_killed
            self.obs.registry.import_mapping("fault", stats.as_dict())
            self.obs.registry.gauge("fault/requests_arrived").set(
                float(self._requests_arrived)
            )
        self._result.extras.update(self.obs.legacy_extras())
        return self._result

    # ------------------------------------------------------------------
    # Arrival / completion machinery
    # ------------------------------------------------------------------
    def _schedule_arrival(self, client: ClientState, at: float) -> None:
        self.engine.schedule_at(at, lambda: self._on_arrival(client))

    def _on_arrival(self, client: ClientState) -> None:
        now = self.engine.now
        request = Request(app=client.app, arrival_time=now)
        self._requests_arrived += 1
        if self.obs.tracer is not None:
            self.obs.emit(
                obs_events.REQUEST_ARRIVED,
                client.app_id,
                request_id=request.request_id,
            )
        gateway = self._gateway
        decision = None
        if gateway is not None:
            backlog = len(client.pending) + (1 if client.active is not None else 0)
            decision = gateway.admit(
                client.app_id, backlog, now, request.request_id
            )
            if self.obs.tracer is not None:
                self.obs.emit(
                    obs_events.SLO_ADMIT,
                    client.app_id,
                    request_id=request.request_id,
                    slo_class=decision.slo_class,
                    admitted=decision.admitted,
                    rung=decision.rung,
                    deadline_us=decision.deadline_us,
                )
            if not decision.admitted:
                # Shed at the gate: the request never enters the system
                # (no backlog slot, no timeout, no inflight window) —
                # only the gateway's shed_admission counter moves, so
                # fault-path sheds can never double-count it.  The
                # closed-loop client thinks again as after a completion;
                # an open-loop process keeps replaying its trace either
                # way (prev_completion = now in both styles here).
                nxt = client.process.next_arrival(now, now)
                if nxt is not None:
                    self._schedule_arrival(client, nxt)
                return
        client.pending.append(request)
        self._inflight_enter()
        if self._request_timeout_us is not None:
            self._timeout_events[request.request_id] = self.engine.schedule(
                self._request_timeout_us,
                lambda: self._on_request_timeout(client, request),
            )
        if _is_open_loop(client.process):
            nxt = client.process.next_arrival(now, now)
            if nxt is not None:
                self._schedule_arrival(client, nxt)
        if client.active is None:
            self._activate_next(client)
        if decision is not None and decision.preempt:
            self.request_slo_preemption(client, request)

    def _activate_next(self, client: ClientState) -> None:
        if client.active is not None or not client.pending:
            return
        client.active = client.pending.popleft()
        client.active.start_time = self.engine.now
        self.on_request_activated(client)

    def finish_request(self, client: ClientState) -> None:
        """Systems call this when the active request's last kernel ends."""
        request = client.active
        if request is None:
            if self.fault_injector is not None:
                # A completion raced a shed/crash teardown: the request
                # is already gone.  Count it instead of crashing the run.
                self.fault_stats.stale_completions += 1
                return
            raise RuntimeError(f"no active request for {client.app_id}")
        now = self.engine.now
        request.finish_time = now
        client.active = None
        client.completed += 1
        self._cancel_timeout(request)
        self._result.add(
            RequestRecord(
                app_id=client.app_id,
                request_id=request.request_id,
                arrival=request.arrival_time,
                finish=now,
            )
        )
        self.obs.registry.histogram("latency/request_us").observe(
            now - request.arrival_time
        )
        if self.obs.tracer is not None:
            self.obs.emit(
                obs_events.REQUEST_DONE,
                client.app_id,
                request_id=request.request_id,
                latency_us=now - request.arrival_time,
            )
        if self._gateway is not None:
            missed = self._gateway.on_finish(
                client.app_id, request.request_id, now
            )
            if missed and self.obs.tracer is not None:
                self.obs.emit(
                    obs_events.SLO_DEADLINE_MISS,
                    client.app_id,
                    request_id=request.request_id,
                    latency_us=now - request.arrival_time,
                    slo_class=self._gateway.class_of(client.app_id),
                )
        self._inflight_exit()
        self.on_request_finished(client, request)
        if not _is_open_loop(client.process):
            nxt = client.process.next_arrival(request.arrival_time, now)
            if nxt is not None:
                self._schedule_arrival(client, nxt)
        self._activate_next(client)

    # ------------------------------------------------------------------
    # Fault handling: shedding, timeouts, context crashes
    # ------------------------------------------------------------------
    def _cancel_timeout(self, request: Request) -> None:
        event = self._timeout_events.pop(request.request_id, None)
        if event is not None:
            self.engine.cancel(event)

    def _on_kernel_failure(self, kernel: KernelInstance) -> None:
        """A kernel failed permanently: shed the owning request."""
        client = self.clients.get(kernel.app_id)
        if client is None:
            return
        request = client.active
        if request is not None and request.request_id == kernel.request_id:
            self._shed_request(client, request, timeout=False)
        # A failure for a non-active request means it was already shed
        # (its stragglers are zombies); nothing further to do.

    def _on_request_timeout(self, client: ClientState, request: Request) -> None:
        self._timeout_events.pop(request.request_id, None)
        if request.done:
            return
        if client.active is request:
            self._shed_request(client, request, timeout=True)
        elif request in client.pending:
            client.pending.remove(request)
            self._account_shed(client, request, timeout=True)
            self._activate_next(client)

    def _shed_request(
        self, client: ClientState, request: Request, timeout: bool
    ) -> None:
        """Abort the active request: kill its kernels, keep serving.

        Killed kernels' callbacks still fire (marked ``failed``) so
        batch/squad accounting in the policy layers drains; identity
        guards there skip the usual completion handling because
        ``client.active`` has already moved on.
        """
        killed = self.engine.kill_request(client.app_id, request.request_id)
        client.active = None
        self._account_shed(client, request, timeout=timeout)
        for kernel, callback in killed:
            if callback is not None:
                callback(kernel)
        self._activate_next(client)
        self.on_request_shed(client, request)

    def _account_shed(
        self, client: ClientState, request: Request, timeout: bool
    ) -> None:
        now = self.engine.now
        if timeout:
            self.fault_stats.shed_timeout += 1
        else:
            self.fault_stats.shed_failed += 1
        if self._gateway is not None:
            self._gateway.on_shed(client.app_id, request.request_id)
        if self.obs.tracer is not None:
            self.obs.emit(
                obs_events.FAULT_REQUEST_SHED,
                client.app_id,
                request_id=request.request_id,
                timeout=timeout,
            )
        self._cancel_timeout(request)
        self._inflight_exit()
        # A closed-loop client keeps issuing requests after a shed, the
        # same way it would after a completion.
        if not _is_open_loop(client.process):
            nxt = client.process.next_arrival(request.arrival_time, now)
            if nxt is not None:
                self._schedule_arrival(client, nxt)

    # Retry cadence when a crash fires before any MPS context exists
    # (BLESS creates restricted contexts lazily at the first spatial
    # squad, which may be well after the scheduled crash time).
    _CRASH_RETRY_US = 1_000.0

    def _inject_context_crash(self, ordinal: int) -> None:
        """Scheduled by serve() for each FaultPlan.context_crash_times."""
        victims = [c for c in self.registry.contexts if c.restricted]
        if not victims:
            if self._inflight > 0:
                # Defer until a restricted context exists; give up only
                # once the run has drained.
                self.engine.schedule(
                    self._CRASH_RETRY_US,
                    lambda: self._inject_context_crash(ordinal),
                )
            else:
                self.fault_stats.context_crashes_skipped += 1
            return
        victims.sort(key=lambda c: c.context_id)
        victim = victims[self.fault_injector.pick_index(len(victims), ordinal)]
        killed = self.engine.kill_context(victim)
        self.registry.destroy(victim)
        self.fault_stats.context_crashes += 1
        if self.obs.tracer is not None:
            self.obs.emit(
                obs_events.FAULT_CONTEXT_CRASH,
                victim.owner,
                context_id=victim.context_id,
                kernels_killed=len(killed),
            )
        self.on_context_crash(victim, killed)

    def _inflight_enter(self) -> None:
        if self._inflight == 0:
            self._window_start = self.engine.now
        self._inflight += 1

    def _inflight_exit(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._inflight_windows.append((self._window_start, self.engine.now))

    @property
    def inflight_windows(self) -> List[Tuple[float, float]]:
        windows = list(self._inflight_windows)
        if self._inflight > 0:
            windows.append((self._window_start, self.engine.now))
        return windows

    # ------------------------------------------------------------------
    # Common launch helpers
    # ------------------------------------------------------------------
    def launch_whole_request(
        self,
        client: ClientState,
        queue: DeviceQueue,
        launch_overhead: Optional[float] = None,
    ) -> None:
        """Launch every kernel of the active request into one queue.

        This is the request-granularity launch style of static/unbounded
        sharing (§3.2): all kernels go to the device queue at once and
        the host loses control until the request finishes.
        """
        request = client.active
        if request is None:
            raise RuntimeError(f"no active request for {client.app_id}")
        total = request.total_kernels

        def on_last(k, c=client):
            if k.failed:
                # Killed with its request (shed/crash) — the shed path
                # already accounted for it.
                return
            self.finish_request(c)

        kernels = [request.make_kernel(index) for index in range(total)]
        callbacks: List[Optional[Callable[[KernelInstance], None]]] = [None] * total
        callbacks[total - 1] = on_last
        self.engine.launch_batch(
            kernels, queue, launch_overhead=launch_overhead, callbacks=callbacks
        )
        request.next_kernel = total
