"""Discrete-event simulation engine with processor-sharing execution.

The engine advances a simulated clock (microseconds) through events:
kernel launches becoming visible to the device, kernel completions, and
arbitrary host callbacks (request arrivals, scheduler wake-ups).

Execution model
---------------
Every running compute kernel has ``remaining_work`` measured in
solo-speed microseconds.  Whenever the set of running kernels changes,
the engine re-derives each kernel's execution *rate*:

``rate = spec.rate_at(sm_share) * interference_multiplier``

where ``sm_share`` comes from the hardware scheduler's max-min fair
allocation and the interference multiplier from the memory-bandwidth
contention model.  Between state changes, work drains linearly, so the
next completion time is exact — no time-stepping error.

Memcpy kernels drain through the PCIe channel instead of the SM pool.
SYNC kernels complete immediately when they reach the queue head.

Two event loops (see docs/performance.md)
----------------------------------------
``SimEngine(mode=...)``, or ``REPRO_ENGINE_MODE`` for every engine in a
process tree, picks one of two loops with byte-identical results:

* ``batched`` (the default) is the fast path.  Between two
  rate-changing events (arrival, completion, squad switch, fault) every
  running kernel advances at a constant rate, so the next completion
  and the queue gap wake-ups are *pseudo-events* compared against the
  heap top, not heap entries cancelled and re-pushed on every
  rebalance, and each completion tick advances the running set in one
  fused pass.  Dispatch examines only the queues a push, a completion
  or a gap expiry marked ready.  Rates are a pure function of the
  running set's *membership* (specs + contexts): a rebalance is skipped
  when membership did not change, and the allocation → slowdown → rate
  pipeline is memoized per membership signature in an engine-local
  LRU.  A memo miss on a solo kernel or on a pair in distinct contexts
  at one priority — nearly every miss — is rated in closed form; any
  other set takes one scalar pass in the reference operation order.
* ``reference`` is the oracle the fast path is checked against: every
  dispatch scans every queue, every event re-rates the running set
  through ``HardwareScheduler.allocate`` →
  ``InterferenceModel.slowdowns`` → ``KernelSpec.rate_at``, and
  completions, gap wake-ups and each launched kernel's visibility are
  heap events.  ``validate=True`` and the ``fifo`` hardware policy
  always run this loop: it checks the physical invariants on every
  rebalance and takes any allocation policy.

Both loops drop cancelled heap events lazily when popped, and rebuild
the heap in place once cancelled events outnumber half of it.

``SimEngine.counters`` exposes the event/rebalance/epoch/compaction
tallies.  They count the host loop's own work, which differs between
the two loops by design, so they stay on the engine: they are not part
of ``ServingResult.extras``, the results catalog or the golden files.
perfbench's traced mode reads them as its ``gpusim.*`` counts.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from .device import GPUDevice
from .hwsched import CAPACITY_EPS, SATISFIED_EPS, HardwareScheduler, _waterfill_small
from .interference import InterferenceModel
from .kernel import KernelInstance, KernelKind, KernelSpec
from .pcie import PCIeChannel
from .stream import DeviceQueue
from .context import GPUContext

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultInjector

EventCallback = Callable[[], None]

ENGINE_MODES = ("batched", "reference")

# Heap-compaction policy: rebuild when cancelled events outnumber live
# ones and there are enough of them to be worth an O(n) sweep.
_COMPACT_MIN_CANCELLED = 64

_NEVER_FINISHED = float("-inf")

# Bound on the membership-signature -> rates memo (batched loop).
_REBALANCE_CACHE_SIZE = 8192
# Only track hit recency (LRU move-to-end) once the cache could
# plausibly fill; below this nothing is evicted anyway.
_REBALANCE_CACHE_TRACK = _REBALANCE_CACHE_SIZE // 2

def _closed_form_rate(
    spec: KernelSpec, grant: float, total_intensity: float, kappa: float,
    model: InterferenceModel,
) -> float:
    """``spec.rate_at(grant) / slowdown`` of one granted kernel, with the
    slowdown of ``InterferenceModel.slowdowns`` — same operations, same
    order (``min``/``max`` as conditionals that pick identically)."""
    m = spec.mem_intensity
    pressure = total_intensity - m
    pressure = pressure if pressure > 0.0 else 0.0
    pressure = pressure if pressure < 1.0 else 1.0
    slowdown = 1.0 + kappa * (pressure ** model.gamma) * (m if m < 1.0 else 1.0)
    max_slowdown = model.max_slowdown
    slowdown = slowdown if slowdown < max_slowdown else max_slowdown
    demand = spec.sm_demand
    serial = spec.serial_fraction
    base = spec.base_duration_us
    usable = demand if demand < grant else grant
    duration = base * (serial + (1.0 - serial) * (demand / usable))
    return base / duration / slowdown


def default_engine_mode() -> str:
    """The engine mode used when ``SimEngine(mode=None)``.

    Read from ``REPRO_ENGINE_MODE`` (``batched`` | ``reference``) so test
    harnesses can flip every engine in a process tree at once;
    ``batched`` when unset.
    """
    mode = os.environ.get("REPRO_ENGINE_MODE", "batched")
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"REPRO_ENGINE_MODE must be one of {ENGINE_MODES}, got {mode!r}"
        )
    return mode


class _Event:
    """A scheduled callback.  Heap entries are ``(time, seq, event)``
    tuples so ordering never falls back to Python-level comparisons."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: EventCallback):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"_Event(t={self.time:.3f}, seq={self.seq}{state})"


@dataclass
class TimelineSegment:
    """One interval of constant execution state (for figure rendering)."""

    start: float
    end: float
    # kernel uid -> (app_id, sm_fraction, rate)
    running: Dict[int, Tuple[str, float, float]]

    @property
    def busy_fraction(self) -> float:
        return min(1.0, sum(sm for (_, sm, _) in self.running.values()))


class SimEngine:
    """Processor-sharing discrete-event GPU simulator."""

    def __init__(
        self,
        device: Optional[GPUDevice] = None,
        interference: Optional[InterferenceModel] = None,
        record_timeline: bool = False,
        hw_policy: str = "fair",
        validate: bool = False,
        mode: Optional[str] = None,
        timeline_capacity: int = 65536,
        fault_injector: Optional["FaultInjector"] = None,
    ):
        self.device = device or GPUDevice()
        self.interference = interference or InterferenceModel()
        self.hwsched = HardwareScheduler(policy=hw_policy)
        if mode is None:
            mode = default_engine_mode()
        if mode not in ENGINE_MODES:
            raise ValueError(f"engine mode must be one of {ENGINE_MODES}, got {mode!r}")
        self.mode = mode
        # Debug mode: assert physical invariants on every rebalance
        # (allocation feasibility, rate bounds, work conservation).
        self.validate = validate
        # The epoch loop needs the memoized fair-policy rebalance; with
        # validate or a non-fair policy the engine runs the
        # (byte-identical) reference loop, which checks the invariants
        # and takes any allocation policy.
        self._batched = (
            mode == "batched" and not validate and self.hwsched.policy == "fair"
        )
        self.pcie = PCIeChannel()
        self.now = 0.0
        self._heap: List[Tuple[float, int, _Event]] = []
        self._event_seq = itertools.count()
        self._cancelled_in_heap = 0
        self._queues: List[DeviceQueue] = []
        self._queue_of: Dict[int, DeviceQueue] = {}  # kernel uid -> queue
        # Reference loop: queue id -> (pending wake time, its event) for
        # gapped heads.
        self._gap_events: Dict[int, Tuple[float, _Event]] = {}
        # Ready set (batched loop): queues whose head may have become
        # actionable since the last dispatch (push / completion / gap
        # expiry).  The reference loop scans every queue instead.
        self._dirty_queues: Dict[int, DeviceQueue] = {}
        self._running_compute: List[KernelInstance] = []
        self._running_memcpy: List[KernelInstance] = []
        # Context of each running kernel, aligned with _running_compute
        # (avoids per-rebalance queue lookups on the fast path).
        self._running_ctx: List[GPUContext] = []
        # Incrementally-maintained membership signature, aligned with
        # _running_compute: context_id and spec token packed into one
        # int (cheap tuple hashing on the memoized rebalance path).
        # Contexts are immutable and specs frozen, so the pair pins down
        # everything the allocation/interference pipeline reads.
        self._sig_parts: List[int] = []
        self._spec_tokens: Dict[int, int] = {}  # id(spec) -> token
        self._spec_refs: List[object] = []  # keep specs alive: ids stay unique
        # True whenever the running-set membership changed since the
        # last rebalance; rates are a pure function of membership, so a
        # clean flag means the previous rates (and the pending
        # completion) are still exact.
        self._running_dirty = False
        # Reference loop: the pending completion heap event.
        self._completion_event: Optional[_Event] = None
        # Batched-loop pseudo-events: the next completion and the queue
        # gap wake-ups live outside the heap as (time, seq) pairs the
        # main loop compares against the heap top.  Seqs come from the
        # same counter as heap events, at the same points the
        # reference loop would schedule them, so tie-breaking at equal
        # times is identical across loops.
        self._completion_time = math.inf
        self._completion_seq = 0
        # queue id -> (requested ready_at, scheduled time, seq, queue)
        self._gap_wakes: Dict[int, Tuple[float, float, int, DeviceQueue]] = {}
        self._gap_min_time = math.inf
        self._gap_min_seq = 0
        self._gap_min_qid = -1
        self._finish_subscribers: List[Callable[[KernelInstance], None]] = []
        self._failure_subscribers: List[Callable[[KernelInstance], None]] = []
        self._per_kernel_callbacks: Dict[int, Callable[[KernelInstance], None]] = {}
        # One-shot hooks drained at the next rate-change epoch (the
        # completion tick), between the finish sweep and re-dispatch —
        # the squad-boundary preemption points of the serving gateway.
        # Empty outside gateway runs, so the epoch loop pays only a
        # truthiness check and stays byte-identical to the reference.
        self._epoch_hooks: List[Callable[[], None]] = []
        # Fault injection (None on the default, perfect-world path).
        self._faults = fault_injector
        # Optional DecisionTracer (obs/): fault/decision events are
        # emitted only from cold branches, guarded on this attribute,
        # so the hot path is untouched when tracing is off.
        self.trace = None
        # kernel uid -> event for kernels parked in retry backoff; their
        # queue stays blocked on them until the retry (or a kill) runs.
        self._pending_retries: Dict[int, _Event] = {}
        # Batched loop: memoized membership-signature ->
        # (fractions, rates, busy).
        self._rebalance_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        # Utilization accounting: integral of busy SM fraction over time.
        self._busy_integral = 0.0
        self._busy_since = 0.0
        self._current_busy_fraction = 0.0
        self.record_timeline = record_timeline
        self.timeline: Union[List[TimelineSegment], Deque[TimelineSegment]] = (
            deque(maxlen=timeline_capacity) if record_timeline else []
        )
        self._pending_segment: Optional[TimelineSegment] = None
        self._kernels_completed = 0
        self._kernels_failed = 0
        self._kernels_retried = 0
        self._kernels_killed = 0
        # Hot-path diagnostics (host machinery, read via ``counters``).
        self._events_processed = 0
        self._rebalances = 0
        self._rebalances_skipped = 0
        self._rebalance_cache_hits = 0
        self._heap_compactions = 0
        self._peak_heap_size = 0
        self._gap_events_superseded = 0
        # Epoch-batched advance tally (batched loop).
        self._epoch_batches = 0
        if self._batched:
            # Route the shared entry points (launch visibility, fault
            # teardown, retries) into the epoch-batched loop without a
            # mode branch on every hot call.
            self._dispatch = self._dispatch_batched
            self._maybe_rebalance = self._maybe_rebalance_batched
            self._ensure_gap_event = self._ensure_gap_wake

    # ------------------------------------------------------------------
    # Queue / context management
    # ------------------------------------------------------------------
    def create_queue(self, context: GPUContext, label: str = "") -> DeviceQueue:
        queue = DeviceQueue(context=context, label=label)
        self._queues.append(queue)
        return queue

    @property
    def queues(self) -> List[DeviceQueue]:
        return list(self._queues)

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: EventCallback) -> _Event:
        """Run ``callback`` at ``now + delay`` (host-side event)."""
        if delay < 0:
            raise ValueError(f"cannot schedule event in the past (delay={delay})")
        event = _Event(self.now + delay, next(self._event_seq), callback)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        if len(self._heap) > self._peak_heap_size:
            self._peak_heap_size = len(self._heap)
        return event

    def schedule_at(self, time: float, callback: EventCallback) -> _Event:
        # Inlined schedule(max(0.0, time - now)) — same arithmetic, so
        # event times stay bit-identical, without the extra call.
        now = self.now
        delay = time - now
        if delay < 0.0:
            delay = 0.0
        event = _Event(now + delay, next(self._event_seq), callback)
        heap = self._heap
        heapq.heappush(heap, (event.time, event.seq, event))
        if len(heap) > self._peak_heap_size:
            self._peak_heap_size = len(heap)
        return event

    def cancel(self, event: _Event) -> None:
        """Lazy-cancel: the event is dropped when popped, or swept out
        by compaction once cancelled events dominate the heap."""
        if event.cancelled:
            return
        event.cancelled = True
        self._cancelled_in_heap += 1
        if (
            self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._heap_compactions += 1

    @property
    def heap_size(self) -> int:
        """Current heap length, cancelled entries included (tests)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # Kernel launch / completion
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: KernelInstance,
        queue: DeviceQueue,
        launch_overhead: Optional[float] = None,
        on_finish: Optional[Callable[[KernelInstance], None]] = None,
    ) -> None:
        """Launch ``kernel`` into ``queue``.

        The kernel becomes visible to the device after the launch
        overhead (defaults to the device's ~3us kernel launch latency).
        """
        if launch_overhead is None:
            launch_overhead = self.device.spec.kernel_launch_us
        if on_finish is not None:
            self._per_kernel_callbacks[kernel.uid] = on_finish

        def make_visible() -> None:
            if queue.dead:
                self._fail_launch([kernel])
                return
            queue.push(kernel, self.now)
            self._queue_of[kernel.uid] = queue
            self._mark_ready(queue)
            self._dispatch()

        if launch_overhead > 0:
            self.schedule(launch_overhead, make_visible)
        else:
            make_visible()

    def launch_batch(
        self,
        kernels: List[KernelInstance],
        queue: DeviceQueue,
        launch_overhead: Optional[float] = None,
        callbacks: Optional[List[Optional[Callable[[KernelInstance], None]]]] = None,
    ) -> None:
        """Launch several kernels into one queue at once.

        Equivalent to calling :meth:`launch` per kernel — the host
        issues the whole burst back to back, so all kernels become
        visible at ``now + launch_overhead`` in list order — but with a
        single visibility event instead of one per kernel.
        ``callbacks``, when given, is aligned with ``kernels`` (``None``
        entries for kernels without an ``on_finish``).
        """
        if not kernels:
            return
        if not self._batched:
            # Reference loop: one visibility event per kernel.
            for position, kernel in enumerate(kernels):
                on_finish = callbacks[position] if callbacks else None
                self.launch(kernel, queue, launch_overhead, on_finish)
            return
        if launch_overhead is None:
            launch_overhead = self.device.spec.kernel_launch_us
        if callbacks:
            for kernel, callback in zip(kernels, callbacks):
                if callback is not None:
                    self._per_kernel_callbacks[kernel.uid] = callback

        def make_visible() -> None:
            if queue.dead:
                self._fail_launch(kernels)
                return
            queue_of = self._queue_of
            for kernel in kernels:
                queue.push(kernel, self.now)
                queue_of[kernel.uid] = queue
            self._mark_ready(queue)
            self._dispatch()

        if launch_overhead > 0:
            self.schedule(launch_overhead, make_visible)
        else:
            make_visible()

    def subscribe_finish(self, callback: Callable[[KernelInstance], None]) -> None:
        """Register a callback invoked on every kernel completion."""
        self._finish_subscribers.append(callback)

    def subscribe_failure(self, callback: Callable[[KernelInstance], None]) -> None:
        """Register a callback invoked on every permanent kernel failure.

        Fires *before* the failed kernel's per-kernel callback, so a
        harness can shed the owning request first and let the identity
        guards in the per-kernel callbacks short-circuit naturally.
        """
        self._failure_subscribers.append(callback)

    def _fail_launch(self, kernels: List[KernelInstance]) -> None:
        """A launch landed on a dead (crashed-context) queue: fail it."""
        for kernel in kernels:
            kernel.failed = True
            self._kernels_failed += 1
            if self.trace is not None:
                self.trace.emit(
                    "fault.launch_failed",
                    kernel.app_id,
                    request_id=kernel.request_id,
                    seq=kernel.seq,
                    name=kernel.name,
                )
            callback = self._per_kernel_callbacks.pop(kernel.uid, None)
            for subscriber in self._failure_subscribers:
                subscriber(kernel)
            if callback is not None:
                callback(kernel)

    # ------------------------------------------------------------------
    # Execution state machine
    # ------------------------------------------------------------------
    def _mark_ready(self, queue: DeviceQueue) -> None:
        """Register ``queue`` for the next dispatch pass."""
        self._dirty_queues[queue.queue_id] = queue

    def _add_running(self, kernel: KernelInstance, ctx: GPUContext) -> None:
        spec = kernel.spec
        token = self._spec_tokens.get(id(spec))
        if token is None:
            token = len(self._spec_tokens)
            self._spec_tokens[id(spec)] = token
            self._spec_refs.append(spec)
        self._running_compute.append(kernel)
        self._running_ctx.append(ctx)
        # Tokens stay below 2**32, so the packed int is collision-free.
        self._sig_parts.append((ctx.context_id << 32) | token)
        self._running_dirty = True

    # -- reference loop ------------------------------------------------
    def _dispatch(self) -> None:
        """Start every actionable queue head, then rebalance.

        Scans every queue in creation order until no head changes (a
        SYNC kernel completes at once and may expose the next head).
        The batched loop swaps in :meth:`_dispatch_batched`.
        """
        self._dirty_queues.clear()
        started = False
        progressing = True
        while progressing:
            progressing = False
            for queue in self._queues:
                head = queue.head()
                if head is None:
                    continue
                ready_at = queue.head_ready_at()
                if ready_at is not None and ready_at > self.now + 1e-9:
                    self._ensure_gap_event(queue, ready_at)
                    continue
                kernel = queue.start_head(self.now)
                kernel.traced_context_id = queue.context.context_id
                kernel.traced_context_limit = queue.context.sm_limit
                if kernel.spec.kind is KernelKind.SYNC or kernel.spec.base_duration_us == 0:
                    self._complete_kernel(queue, kernel)
                    progressing = True
                else:
                    if self._faults is not None:
                        multiplier = self._faults.work_multiplier(kernel)
                        if multiplier != 1.0:
                            kernel.remaining_work = (
                                kernel.spec.base_duration_us * multiplier
                            )
                    if kernel.spec.is_memcpy:
                        self._running_memcpy.append(kernel)
                        self._running_dirty = True
                    else:
                        self._add_running(kernel, queue.context)
                    started = True
        if started or progressing:
            self._rebalance()

    def _ensure_gap_event(self, queue: DeviceQueue, ready_at: float) -> None:
        """Schedule (once) a dispatch retry when a queue's gap expires.

        If an earlier-or-equal wake is already pending it is reused; a
        pending *later* wake (possible when a queue's head changes under
        preemption, e.g. REEF killing buffered kernels) is cancelled
        rather than left to fire stale.  The batched loop swaps in
        :meth:`_ensure_gap_wake`.
        """
        pending = self._gap_events.get(queue.queue_id)
        if pending is not None:
            pending_time, pending_event = pending
            if pending_time <= ready_at + 1e-9:
                return
            # A tighter gap supersedes the pending wake: cancel it so the
            # heap does not accumulate stale expiries.
            self.cancel(pending_event)
            self._gap_events_superseded += 1

        def expire() -> None:
            entry = self._gap_events.get(queue.queue_id)
            if entry is not None and entry[0] == ready_at:
                del self._gap_events[queue.queue_id]
            self._dispatch()
            self._rebalance()

        event = self.schedule_at(ready_at, expire)
        self._gap_events[queue.queue_id] = (ready_at, event)

    def _maybe_rebalance(self) -> None:
        """Re-rate after a retry or a fault changed the running set.

        The reference loop re-rates unconditionally; the batched loop
        swaps in :meth:`_maybe_rebalance_batched`, which skips the
        rebalance when membership did not change.
        """
        self._rebalance()

    def _rebalance(self) -> None:
        """Recompute rates for all running kernels and the next completion.

        Hardware-scheduler allocation → interference slowdowns →
        ``KernelSpec.rate_at``, per kernel and unmemoized: the
        arithmetic every fast path reproduces bit for bit.
        """
        self._rebalances += 1
        if self.now > self._busy_since:
            self._accrue_busy_time()

        # Compute-kernel SM allocation.
        allocations = self.hwsched.allocate(self._running_compute, self._queue_of)
        active = [a for a in allocations if a.sm_fraction > 0]
        interference_inputs = [
            (
                a.kernel.spec.mem_intensity,
                self._queue_of[a.kernel.uid].context.restricted,
            )
            for a in active
        ]
        total_demand = sum(a.kernel.spec.sm_demand for a in active)
        slowdowns = self.interference.slowdowns(
            interference_inputs, total_sm_demand=total_demand
        )

        busy = 0.0
        for alloc in allocations:
            kernel = alloc.kernel
            if alloc.sm_fraction <= 0:
                kernel.current_rate = 0.0
                kernel.current_sm_fraction = 0.0
                continue
            kernel.current_sm_fraction = alloc.sm_fraction
            busy += alloc.sm_fraction
        for alloc, slowdown in zip(active, slowdowns):
            kernel = alloc.kernel
            kernel.current_rate = kernel.spec.rate_at(alloc.sm_fraction) / slowdown
        self._current_busy_fraction = min(1.0, busy)

        if self.validate:
            self._check_invariants(allocations)

        # Memcpy kernels share the PCIe channel.
        pcie_rates = self.pcie.rates(self._running_memcpy)
        for kernel in self._running_memcpy:
            kernel.current_rate = pcie_rates.get(kernel.uid, 0.0)
            kernel.current_sm_fraction = 0.0

        self._running_dirty = False
        if self.record_timeline:
            self._record_segment_start()
        self._schedule_next_completion()

    def _check_invariants(self, allocations) -> None:
        """Debug-mode physical invariants (``validate=True``).

        * the GPU is never oversubscribed (sum of SM shares <= 1);
        * no kernel exceeds its own demand or its context's limit;
        * every execution rate lies in [0, 1] (no free speedups);
        * remaining work never goes negative.
        """
        total = 0.0
        for alloc in allocations:
            kernel = alloc.kernel
            total += alloc.sm_fraction
            if alloc.sm_fraction > kernel.spec.sm_demand + 1e-9:
                raise AssertionError(
                    f"{kernel.name}: granted {alloc.sm_fraction:.3f} SMs "
                    f"above demand {kernel.spec.sm_demand:.3f}"
                )
            limit = self._queue_of[kernel.uid].context.sm_limit
            if alloc.sm_fraction > limit + 1e-9:
                raise AssertionError(
                    f"{kernel.name}: granted {alloc.sm_fraction:.3f} SMs "
                    f"above context limit {limit:.3f}"
                )
            if kernel.remaining_work < -1e-9:
                raise AssertionError(f"{kernel.name}: negative remaining work")
        if total > 1.0 + 1e-6:
            raise AssertionError(f"GPU oversubscribed: {total:.4f} SM fractions")
        for kernel in self._running_compute:
            if not 0.0 <= kernel.current_rate <= 1.0 + 1e-9:
                raise AssertionError(
                    f"{kernel.name}: rate {kernel.current_rate:.4f} out of [0, 1]"
                )

    def _schedule_next_completion(self) -> None:
        if self._completion_event is not None:
            self.cancel(self._completion_event)
            self._completion_event = None
        best_time = self._earliest_finish()
        if math.isfinite(best_time):
            self._completion_event = self.schedule_at(best_time, self._on_completion_tick)

    def _on_completion_tick(self) -> None:
        # Advances work to `now`, accrues utilization, resets _busy_since
        # so the later _rebalance does not double-count the interval.
        self._completion_event = None
        self._accrue_busy_time()
        # Finish threshold: completion times are floats; at large
        # simulated times the residual work after advancing can be
        # ~ulp(now) * rate and would never drain (the next event would
        # round to the same instant).  Treat anything the kernel would
        # clear within ~1 ulp of `now` (floored at a picosecond) as done.
        time_eps = max(1e-9, 4.0 * math.ulp(self.now))
        running_compute = self._running_compute
        finished_compute = []
        for k in running_compute:
            threshold = k.current_rate * time_eps
            if k.remaining_work <= (threshold if threshold > 1e-9 else 1e-9):
                finished_compute.append(k)
        finished_memcpy = []
        if self._running_memcpy:
            for k in self._running_memcpy:
                threshold = k.current_rate * time_eps
                if k.remaining_work <= (threshold if threshold > 1e-9 else 1e-9):
                    finished_memcpy.append(k)
        for kernel in finished_compute:
            try:
                index = running_compute.index(kernel)
            except ValueError:
                # Removed by a fault handler (kill/shed) earlier in this
                # same sweep — nothing left to complete.
                continue
            del running_compute[index]
            del self._running_ctx[index]
            del self._sig_parts[index]
            self._running_dirty = True
            self._complete_kernel(self._queue_of[kernel.uid], kernel)
        for kernel in finished_memcpy:
            try:
                self._running_memcpy.remove(kernel)
            except ValueError:
                continue
            self._running_dirty = True
            self._complete_kernel(self._queue_of[kernel.uid], kernel)
        if self._epoch_hooks:
            self._drain_epoch_hooks()
        self._dispatch()
        self._rebalance()

    # -- batched loop ---------------------------------------------------
    def _compute_rates(
        self,
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...], float]:
        """Allocation → slowdown → rate over the running set (memo miss).

        Reproduces the reference :meth:`_rebalance` byte for byte: the
        water-filling allocation, the slowdowns and the SM-scaled rates
        follow its iteration and reduction order, inlined into one
        scalar pass.  Solo and same-level distinct-context pairs take
        :meth:`_rates_closed_form` first.  Returns per-kernel SM
        fractions and rates aligned with ``_running_compute``, plus the
        busy fraction.
        """
        running = self._running_compute
        contexts = self._running_ctx
        n = len(running)
        if n == 0:
            return (), (), 0.0
        if n == 1 or (
            n == 2
            and contexts[0].priority == contexts[1].priority
            and contexts[0].context_id != contexts[1].context_id
        ):
            closed = self._rates_closed_form(running, contexts)
            if closed is not None:
                return closed

        # SM allocation as (running-index, grant) pairs in the hardware
        # scheduler's allocation order (priority level desc, then
        # context first-appearance order) — bit-identical arithmetic to
        # HardwareScheduler.allocate.
        pairs = self.hwsched.allocate_fair_indexed(running, contexts)

        # Active subset (sm > 0) in allocation order, exactly the
        # reference path's `active` list and its busy-fraction reduction.
        busy = 0.0
        active = []
        for index, grant in pairs:
            if grant > 0:
                busy += grant
                active.append((index, grant))

        fractions = [0.0] * n
        rates = [0.0] * n
        if active:
            model = self.interference
            # Explicit loops: same left-to-right accumulation as the
            # sum() builtins they replace, without the genexpr frames.
            total_intensity = 0.0
            num_unrestricted = 0
            for i, _ in active:
                total_intensity = total_intensity + running[i].spec.mem_intensity
                if not contexts[i].restricted:
                    num_unrestricted += 1
            kappa_unrestricted = model.kappa_unrestricted
            kappa_restricted = model.kappa_restricted
            gamma = model.gamma
            max_slowdown = model.max_slowdown
            for index, grant in active:
                spec = running[index].spec
                m = spec.mem_intensity
                pressure = min(1.0, max(0.0, total_intensity - m))
                scattered = not contexts[index].restricted and num_unrestricted >= 2
                kappa = kappa_unrestricted if scattered else kappa_restricted
                slowdown = min(
                    max_slowdown,
                    1.0 + kappa * (pressure ** gamma) * min(1.0, m),
                )
                # spec.rate_at(grant) / slowdown, inlined.
                demand = spec.sm_demand
                serial = spec.serial_fraction
                base = spec.base_duration_us
                duration = base * (
                    serial + (1.0 - serial) * (demand / min(grant, demand))
                )
                fractions[index] = grant
                rates[index] = base / duration / slowdown

        return tuple(fractions), tuple(rates), min(1.0, busy)

    def _rates_closed_form(
        self,
        running: List[KernelInstance],
        contexts: List[GPUContext],
    ) -> Optional[Tuple[Tuple[float, ...], Tuple[float, ...], float]]:
        """Rates of a solo kernel, or of two kernels in distinct contexts
        at one priority level, in one pass (None if a kernel is starved).

        With one kernel per context and a single level, the fair
        allocation reduces to each context's want (its kernel's demand
        clamped by the context limit) water-filled over the whole GPU.
        Every IEEE operation runs in the order of
        ``HardwareScheduler.allocate`` → ``InterferenceModel.slowdowns``
        → ``KernelSpec.rate_at``: grants keep the ``want * (fill /
        want)`` normalisation, ``busy`` and the total intensity sum left
        to right from 0.0, and ``pressure ** gamma`` stays a float
        power — so the results match the general path bit for bit.
        """
        model = self.interference
        spec0 = running[0].spec
        cap = contexts[0].sm_limit
        demand = spec0.sm_demand
        w0 = (demand if demand <= cap + SATISFIED_EPS else cap) if cap > CAPACITY_EPS else 0.0
        if len(running) == 1:
            # Pass 2: the lone want water-filled over the whole GPU.
            f0 = w0 if w0 <= 1.0 + SATISFIED_EPS else 1.0
            g0 = w0 * (f0 / w0) if w0 > 0 else 0.0
            if not g0 > 0:
                return None
            busy = 0.0 + g0
            rate = _closed_form_rate(
                spec0, g0, 0.0 + spec0.mem_intensity, model.kappa_restricted, model
            )
            return (g0,), (rate,), busy if busy < 1.0 else 1.0
        spec1 = running[1].spec
        cap = contexts[1].sm_limit
        demand = spec1.sm_demand
        w1 = (demand if demand <= cap + SATISFIED_EPS else cap) if cap > CAPACITY_EPS else 0.0
        f0, f1 = _waterfill_small((w0, w1), 1.0)
        g0 = w0 * (f0 / w0) if w0 > 0 else 0.0
        g1 = w1 * (f1 / w1) if w1 > 0 else 0.0
        if not (g0 > 0 and g1 > 0):
            return None
        busy = 0.0 + g0 + g1
        total = 0.0 + spec0.mem_intensity + spec1.mem_intensity
        # Two scattered kernels couple at the unrestricted rate; a
        # partition pin on either drops both to the restricted one.
        if contexts[0].restricted or contexts[1].restricted:
            kappa = model.kappa_restricted
        else:
            kappa = model.kappa_unrestricted
        rates = (
            _closed_form_rate(spec0, g0, total, kappa, model),
            _closed_form_rate(spec1, g1, total, kappa, model),
        )
        return (g0, g1), rates, busy if busy < 1.0 else 1.0

    def _ensure_gap_wake(self, queue: DeviceQueue, ready_at: float) -> None:
        """Batched-loop :meth:`_ensure_gap_event`: a dict entry, no heap.

        Same supersede semantics — an earlier-or-equal pending wake is
        reused, a later one is replaced — with the scheduled time
        computed by the same ``now + max(0, ready_at - now)`` arithmetic
        ``schedule_at`` applies, so wake instants stay bit-identical.
        """
        qid = queue.queue_id
        wakes = self._gap_wakes
        pending = wakes.get(qid)
        if pending is not None:
            if pending[0] <= ready_at + 1e-9:
                return
            self._gap_events_superseded += 1
        now = self.now
        delay = ready_at - now
        if delay < 0.0:
            delay = 0.0
        time = now + delay
        seq = next(self._event_seq)
        wakes[qid] = (ready_at, time, seq, queue)
        if pending is not None and qid == self._gap_min_qid:
            self._recompute_gap_min()
        elif time < self._gap_min_time or (
            time == self._gap_min_time and seq < self._gap_min_seq
        ):
            self._gap_min_time = time
            self._gap_min_seq = seq
            self._gap_min_qid = qid

    def _recompute_gap_min(self) -> None:
        best_time = math.inf
        best_seq = 0
        best_qid = -1
        for qid, entry in self._gap_wakes.items():
            time = entry[1]
            seq = entry[2]
            if time < best_time or (time == best_time and seq < best_seq):
                best_time = time
                best_seq = seq
                best_qid = qid
        self._gap_min_time = best_time
        self._gap_min_seq = best_seq
        self._gap_min_qid = best_qid

    def _discard_gap_wake(self, queue_id: int) -> None:
        """Drop a queue's pending wake (context teardown paths)."""
        if self._gap_wakes.pop(queue_id, None) is not None:
            if queue_id == self._gap_min_qid:
                self._recompute_gap_min()

    def _fire_gap_wake(self) -> None:
        """Process the earliest gap wake (clock already advanced)."""
        entry = self._gap_wakes.pop(self._gap_min_qid)
        self._recompute_gap_min()
        queue = entry[3]
        self._dirty_queues[queue.queue_id] = queue
        self._dispatch_batched()

    def _dispatch_batched(self) -> None:
        """:meth:`_dispatch` with gap wakes as pseudo-events and the
        epoch rebalance at the tail."""
        started = False
        progressing = False
        dirty = self._dirty_queues
        faults = self._faults
        now = self.now
        horizon = now + 1e-9
        while dirty:
            # Creation order mirrors the historical full-scan order.
            if len(dirty) == 1:
                batch = (dirty.popitem()[1],)
            else:
                batch = [dirty.pop(qid) for qid in sorted(dirty)]
            for queue in batch:
                pending = queue._pending
                if queue._running is not None or not pending:
                    continue
                head = pending[0]
                spec = head.spec
                last_finish = queue.last_finish_time
                if last_finish != _NEVER_FINISHED:
                    ready_at = last_finish + spec.dispatch_gap_us
                    if ready_at > horizon:
                        self._ensure_gap_wake(queue, ready_at)
                        continue
                pending.popleft()
                head.start_time = now
                queue._running = head
                context = queue.context
                head.traced_context_id = context.context_id
                head.traced_context_limit = context.sm_limit
                kind = spec.kind
                if kind is KernelKind.SYNC or spec.base_duration_us == 0:
                    self._complete_kernel(queue, head)
                    progressing = True
                else:
                    if faults is not None:
                        multiplier = faults.work_multiplier(head)
                        if multiplier != 1.0:
                            head.remaining_work = spec.base_duration_us * multiplier
                    if kind is KernelKind.COMPUTE:
                        self._add_running(head, context)
                    else:
                        self._running_memcpy.append(head)
                        self._running_dirty = True
                    started = True
        if started or progressing:
            if self._running_dirty or self.record_timeline:
                self._rebalance_batched()
            else:
                self._rebalances_skipped += 1
                if self._completion_time == math.inf and (
                    self._running_compute or self._running_memcpy
                ):
                    self._accrue_busy_time()
                    self._rearm_completion()

    def _maybe_rebalance_batched(self) -> None:
        if self._running_dirty or self.record_timeline:
            self._rebalance_batched()
            return
        self._rebalances_skipped += 1
        if self._completion_time == math.inf and (
            self._running_compute or self._running_memcpy
        ):
            self._accrue_busy_time()
            self._rearm_completion()

    def _rebalance_batched(self) -> None:
        """:meth:`_rebalance` through the membership memo, with the
        completion kept as a pseudo-event: arming it is two stores and
        a seq draw instead of a heap cancel + push."""
        self._rebalances += 1
        if self.now > self._busy_since:
            self._accrue_busy_time()

        running = self._running_compute
        if not running and not self._running_memcpy:
            # Idle GPU (solo-queue engines park here between a kernel's
            # completion and its successor's gap wake): nothing to rate,
            # no completion to arm.  Skipping the memo probe here means
            # the empty set never counts as a "cache hit" — acceptable,
            # since machinery counters are per-loop diagnostics, not
            # part of the cross-loop identity contract.
            self._current_busy_fraction = 0.0
            self._running_dirty = False
            if self.record_timeline:
                self._record_segment_start()
            self._completion_time = math.inf
            return

        key = tuple(self._sig_parts)
        cache = self._rebalance_cache
        cached = cache.get(key)
        if cached is not None:
            self._rebalance_cache_hits += 1
            if len(cache) >= _REBALANCE_CACHE_TRACK:
                cache.move_to_end(key)
        else:
            cached = self._compute_rates()
            cache[key] = cached
            if len(cache) > _REBALANCE_CACHE_SIZE:
                cache.popitem(last=False)
        fractions, rates, busy = cached

        now = self.now
        eta = math.inf
        for kernel, sm, rate in zip(running, fractions, rates):
            kernel.current_sm_fraction = sm
            kernel.current_rate = rate
            if rate > 0:
                finish = now + kernel.remaining_work / rate
                if finish < eta:
                    eta = finish
        self._current_busy_fraction = busy

        if self._running_memcpy:
            pcie_rates = self.pcie.rates(self._running_memcpy)
            for kernel in self._running_memcpy:
                rate = pcie_rates.get(kernel.uid, 0.0)
                kernel.current_rate = rate
                kernel.current_sm_fraction = 0.0
                if rate > 0:
                    finish = now + kernel.remaining_work / rate
                    if finish < eta:
                        eta = finish

        self._running_dirty = False
        if self.record_timeline:
            self._record_segment_start()
        if eta != math.inf:
            # schedule_at's arithmetic, without the event or the heap.
            delay = eta - now
            if delay < 0.0:
                delay = 0.0
            self._completion_time = now + delay
            self._completion_seq = next(self._event_seq)
        else:
            self._completion_time = math.inf

    def _rearm_completion(self) -> None:
        """Batched :meth:`_schedule_next_completion` (epsilon-miss re-arm)."""
        best_time = self._earliest_finish()
        if math.isfinite(best_time):
            now = self.now
            delay = best_time - now
            if delay < 0.0:
                delay = 0.0
            self._completion_time = now + delay
            self._completion_seq = next(self._event_seq)
        else:
            self._completion_time = math.inf

    def _tick_batched(self) -> None:
        """Completion pseudo-event: one fused epoch step.

        Advances every running kernel by the epoch (``_accrue_busy_time``
        and the finish sweep of ``_on_completion_tick`` fused into one
        pass), completes what drained, re-dispatches and re-rates.
        Arithmetic and sweep order match the reference tick exactly.
        """
        self._completion_time = math.inf
        now = self.now
        dt = now - self._busy_since
        time_eps = 4.0 * math.ulp(now)
        if time_eps < 1e-9:
            time_eps = 1e-9
        running_compute = self._running_compute
        memcpy = self._running_memcpy
        finished_compute = []
        finished_memcpy = []
        if dt > 0:
            self._epoch_batches += 1
            for k in running_compute:
                rate = k.current_rate
                left = k.remaining_work - rate * dt
                if left <= 0.0:
                    k.remaining_work = 0.0
                    finished_compute.append(k)
                else:
                    k.remaining_work = left
                    threshold = rate * time_eps
                    if left <= (threshold if threshold > 1e-9 else 1e-9):
                        finished_compute.append(k)
            for k in memcpy:
                rate = k.current_rate
                left = k.remaining_work - rate * dt
                if left <= 0.0:
                    k.remaining_work = 0.0
                    finished_memcpy.append(k)
                else:
                    k.remaining_work = left
                    threshold = rate * time_eps
                    if left <= (threshold if threshold > 1e-9 else 1e-9):
                        finished_memcpy.append(k)
            self._busy_integral += self._current_busy_fraction * dt
            if self.record_timeline:
                self._record_segment_end()
            self._busy_since = now
        else:
            for k in running_compute:
                threshold = k.current_rate * time_eps
                if k.remaining_work <= (threshold if threshold > 1e-9 else 1e-9):
                    finished_compute.append(k)
            for k in memcpy:
                threshold = k.current_rate * time_eps
                if k.remaining_work <= (threshold if threshold > 1e-9 else 1e-9):
                    finished_memcpy.append(k)
        for kernel in finished_compute:
            try:
                index = running_compute.index(kernel)
            except ValueError:
                # Removed by a fault handler (kill/shed) earlier in this
                # same sweep — nothing left to complete.
                continue
            del running_compute[index]
            del self._running_ctx[index]
            del self._sig_parts[index]
            self._running_dirty = True
            self._complete_kernel(self._queue_of[kernel.uid], kernel)
        for kernel in finished_memcpy:
            try:
                memcpy.remove(kernel)
            except ValueError:
                continue
            self._running_dirty = True
            self._complete_kernel(self._queue_of[kernel.uid], kernel)
        if self._epoch_hooks:
            self._drain_epoch_hooks()
        self._dispatch_batched()
        if self._running_dirty or self.record_timeline:
            self._rebalance_batched()
        else:
            self._rebalances_skipped += 1
            if self._completion_time == math.inf and (
                self._running_compute or self._running_memcpy
            ):
                self._accrue_busy_time()
                self._rearm_completion()

    def _complete_kernel(self, queue: DeviceQueue, kernel: KernelInstance) -> None:
        # queue.finish_running + _mark_ready, inlined (hot: once per
        # kernel).  The queue invariably holds `kernel` as its running
        # entry here — dispatch and the completion sweep guarantee it.
        faults = self._faults
        if (
            faults is not None
            and not kernel.failed
            and kernel.spec.base_duration_us > 0.0
            and kernel.spec.kind is not KernelKind.SYNC
            and faults.should_fail(kernel)
        ):
            if kernel.attempts < faults.max_retries:
                # Transient failure: the queue stays blocked on this
                # kernel while it backs off, exactly like a stalled
                # stream — ordering within the queue is preserved.
                kernel.attempts += 1
                self._kernels_retried += 1
                backoff = faults.backoff_us(kernel.attempts)
                event = self.schedule(
                    backoff,
                    lambda: self._retry_kernel(queue, kernel),
                )
                self._pending_retries[kernel.uid] = event
                if self.trace is not None:
                    self.trace.emit(
                        "fault.retry",
                        kernel.app_id,
                        request_id=kernel.request_id,
                        seq=kernel.seq,
                        name=kernel.name,
                        attempt=kernel.attempts,
                        backoff_us=backoff,
                    )
                return
            kernel.failed = True
        now = self.now
        kernel.finish_time = now
        queue._running = None
        queue.last_finish_time = now
        kernel.remaining_work = 0.0
        self._queue_of.pop(kernel.uid, None)
        self._dirty_queues[queue.queue_id] = queue
        callback = self._per_kernel_callbacks.pop(kernel.uid, None)
        if kernel.failed:
            # Permanent failure: notify the harness first (it sheds the
            # owning request), then drain the per-kernel callback so
            # squad/batch accounting never stalls.
            self._kernels_failed += 1
            if self.trace is not None:
                self.trace.emit(
                    "fault.kernel_failed",
                    kernel.app_id,
                    request_id=kernel.request_id,
                    seq=kernel.seq,
                    name=kernel.name,
                    attempts=kernel.attempts,
                )
            for subscriber in self._failure_subscribers:
                subscriber(kernel)
            if callback is not None:
                callback(kernel)
            return
        self._kernels_completed += 1
        if callback is not None:
            callback(kernel)
        for subscriber in self._finish_subscribers:
            subscriber(kernel)

    def _retry_kernel(self, queue: DeviceQueue, kernel: KernelInstance) -> None:
        """Re-issue a transiently-failed kernel after its backoff.

        The kernel never left ``queue._running``, so the queue order is
        intact; work is reset (re-rolling the slowdown spike for the new
        attempt) and the kernel re-enters the running set.
        """
        self._pending_retries.pop(kernel.uid, None)
        kernel.start_time = self.now
        multiplier = self._faults.work_multiplier(kernel) if self._faults else 1.0
        kernel.remaining_work = kernel.spec.base_duration_us * multiplier
        if kernel.spec.is_memcpy:
            self._running_memcpy.append(kernel)
            self._running_dirty = True
        else:
            self._add_running(kernel, queue.context)
        self._maybe_rebalance()

    # ------------------------------------------------------------------
    # Fault teardown: killing kernels, requests, and whole contexts
    # ------------------------------------------------------------------
    def _remove_from_running(self, kernel: KernelInstance) -> bool:
        """Drop ``kernel`` from the running sets; False if not running
        (e.g. parked in retry backoff or still pending)."""
        if kernel.spec.is_memcpy:
            try:
                self._running_memcpy.remove(kernel)
            except ValueError:
                return False
            self._running_dirty = True
            return True
        try:
            index = self._running_compute.index(kernel)
        except ValueError:
            return False
        del self._running_compute[index]
        del self._running_ctx[index]
        del self._sig_parts[index]
        self._running_dirty = True
        return True

    def _kill_kernel(self, queue: DeviceQueue, kernel: KernelInstance) -> tuple:
        """Common kill bookkeeping; returns the (kernel, callback) pair."""
        self._remove_from_running(kernel)
        retry = self._pending_retries.pop(kernel.uid, None)
        if retry is not None:
            self.cancel(retry)
        kernel.failed = True
        self._kernels_killed += 1
        if self.trace is not None:
            self.trace.emit(
                "fault.kernel_killed",
                kernel.app_id,
                request_id=kernel.request_id,
                seq=kernel.seq,
                name=kernel.name,
            )
        self._queue_of.pop(kernel.uid, None)
        return kernel, self._per_kernel_callbacks.pop(kernel.uid, None)

    def kill_request(
        self, app_id: str, request_id: int
    ) -> List[Tuple[KernelInstance, Optional[Callable[[KernelInstance], None]]]]:
        """Remove every queued/running kernel of one request.

        Killed kernels are marked ``failed`` and returned with their
        per-kernel callbacks (in queue order) so the caller can drain
        accounting.  The engine does NOT invoke the callbacks itself.
        """
        killed = []
        had_running = False
        for queue in self._queues:
            running = queue._running
            if (
                running is not None
                and running.app_id == app_id
                and running.request_id == request_id
            ):
                had_running = True
                killed.append(self._kill_kernel(queue, running))
                queue._running = None
                queue.last_finish_time = self.now
                self._dirty_queues[queue.queue_id] = queue
            pending = queue._pending
            if pending:
                kept = deque()
                for kernel in pending:
                    if kernel.app_id == app_id and kernel.request_id == request_id:
                        killed.append(self._kill_kernel(queue, kernel))
                    else:
                        kept.append(kernel)
                if len(kept) != len(pending):
                    queue._pending = kept
                    self._dirty_queues[queue.queue_id] = queue
        if had_running:
            # Freed queue heads and/or SM share: re-dispatch and re-rate.
            self._dispatch()
            self._maybe_rebalance()
        return killed

    # ------------------------------------------------------------------
    # Squad-boundary preemption (serving gateway)
    # ------------------------------------------------------------------
    def request_preemption(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` once at the next rate-change epoch.

        Hooks drain inside the completion tick, after the finish sweep
        and before re-dispatch — i.e. at a kernel/squad boundary, never
        mid-kernel — in both the reference and epoch-batched loops,
        so preemption timing is loop-independent.  If nothing is
        running (idle GPU: no completion tick will ever fire), a
        zero-delay event drains the hooks instead.
        """
        self._epoch_hooks.append(hook)
        if not (self._running_compute or self._running_memcpy):
            self.schedule(0.0, self._drain_epoch_hooks)

    def _drain_epoch_hooks(self) -> None:
        hooks = self._epoch_hooks
        if not hooks:
            return
        self._epoch_hooks = []
        for hook in hooks:
            hook()

    def preempt_pending(
        self, app_id: str, request_id: int
    ) -> List[Tuple[KernelInstance, Optional[Callable[[KernelInstance], None]]]]:
        """Withdraw every *pending* (not yet running) kernel of a request.

        The cooperative half of squad-boundary preemption: running
        kernels are left to finish (kernel-boundary semantics, as in
        Hummingbird), queued ones are handed back to the caller so the
        scheduler can re-issue them in a later squad.  Unlike
        :meth:`kill_request`, withdrawn kernels are NOT marked failed
        and no kill counters move — the request is still live, merely
        rescheduled.  Per-kernel callbacks are returned uninvoked.
        """
        removed = []
        for queue in self._queues:
            pending = queue._pending
            if not pending:
                continue
            kept = deque()
            for kernel in pending:
                if kernel.app_id == app_id and kernel.request_id == request_id:
                    self._queue_of.pop(kernel.uid, None)
                    removed.append(
                        (kernel, self._per_kernel_callbacks.pop(kernel.uid, None))
                    )
                else:
                    kept.append(kernel)
            if len(kept) != len(pending):
                queue._pending = kept
                self._dirty_queues[queue.queue_id] = queue
        return removed

    def kill_context(
        self, context: GPUContext
    ) -> List[Tuple[KernelInstance, Optional[Callable[[KernelInstance], None]]]]:
        """Tear down ``context``: its queues die with every buffered kernel.

        Models an MPS context crash.  Queues bonded to the context are
        removed from the engine and flagged ``dead`` so in-flight
        launches fail instead of executing on a ghost context.  Returns
        (kernel, callback) pairs in queue order for the caller to shed
        or relaunch.
        """
        killed = []
        removed_running = False
        survivors = []
        for queue in self._queues:
            if queue.context is not context:
                survivors.append(queue)
                continue
            running = queue._running
            if running is not None:
                # A kernel parked in retry backoff is queue._running but
                # not in the running sets; it frees no SM share.
                was_running = running.uid not in self._pending_retries
                killed.append(self._kill_kernel(queue, running))
                removed_running = removed_running or was_running
                queue._running = None
            for kernel in queue._pending:
                killed.append(self._kill_kernel(queue, kernel))
            queue._pending.clear()
            queue.dead = True
            self._dirty_queues.pop(queue.queue_id, None)
            gap = self._gap_events.pop(queue.queue_id, None)
            if gap is not None:
                self.cancel(gap[1])
            self._discard_gap_wake(queue.queue_id)
        self._queues = survivors
        if removed_running:
            self._maybe_rebalance()
        return killed

    def remove_queue(self, queue: DeviceQueue) -> None:
        """Detach an *idle* queue (context eviction, not a crash).

        The queue must have no running or pending kernels.  It is
        flagged ``dead`` so that any launch already in flight (inside
        its launch-overhead window) fails cleanly instead of landing on
        a detached queue and stalling forever.
        """
        if queue._running is not None or queue._pending:
            raise ValueError("cannot remove a non-idle queue")
        try:
            self._queues.remove(queue)
        except ValueError:
            pass
        queue.dead = True
        self._dirty_queues.pop(queue.queue_id, None)
        gap = self._gap_events.pop(queue.queue_id, None)
        if gap is not None:
            self.cancel(gap[1])
        self._discard_gap_wake(queue.queue_id)

    # ------------------------------------------------------------------
    # Utilization accounting
    # ------------------------------------------------------------------
    def _earliest_finish(self) -> float:
        """Earliest projected finish over the running sets (inf if idle)."""
        best_time = math.inf
        now = self.now
        for kernel in itertools.chain(self._running_compute, self._running_memcpy):
            rate = kernel.current_rate
            if rate <= 0:
                continue
            eta = now + kernel.remaining_work / rate
            if eta < best_time:
                best_time = eta
        return best_time

    def _accrue_busy_time(self) -> None:
        # Advance remaining work to 'now' before rates change
        # (_advance_work inlined: this runs on every event).
        now = self.now
        dt = now - self._busy_since
        if dt > 0:
            for kernel in self._running_compute:
                left = kernel.remaining_work - kernel.current_rate * dt
                kernel.remaining_work = left if left > 0.0 else 0.0
            for kernel in self._running_memcpy:
                left = kernel.remaining_work - kernel.current_rate * dt
                kernel.remaining_work = left if left > 0.0 else 0.0
            self._busy_integral += self._current_busy_fraction * dt
            if self.record_timeline:
                self._record_segment_end()
            self._busy_since = now

    def _record_segment_start(self) -> None:
        running = {}
        for kernel in itertools.chain(self._running_compute, self._running_memcpy):
            running[kernel.uid] = (
                kernel.app_id,
                kernel.current_sm_fraction,
                kernel.current_rate,
            )
        self._pending_segment = TimelineSegment(start=self.now, end=self.now, running=running)

    def _record_segment_end(self) -> None:
        segment = self._pending_segment
        if segment is None or segment.start >= self.now:
            return
        segment.end = self.now
        self.timeline.append(segment)

    def utilization(self, since: float = 0.0) -> float:
        """Average busy-SM fraction over ``[since, now]``."""
        elapsed = self.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_integral / elapsed)

    @property
    def busy_sm_time(self) -> float:
        """Integral of busy SM fraction (SM-fraction x microseconds)."""
        return self._busy_integral

    @property
    def kernels_completed(self) -> int:
        return self._kernels_completed

    @property
    def has_running_kernels(self) -> bool:
        return bool(self._running_compute or self._running_memcpy)

    @property
    def running_kernels(self) -> List[KernelInstance]:
        return list(itertools.chain(self._running_compute, self._running_memcpy))

    @property
    def counters(self) -> Dict[str, int]:
        """Hot-path diagnostics for this engine's lifetime."""
        return {
            "events_processed": self._events_processed,
            "rebalances": self._rebalances,
            "rebalances_skipped": self._rebalances_skipped,
            "rebalance_cache_hits": self._rebalance_cache_hits,
            "epoch_batches": self._epoch_batches,
            "heap_compactions": self._heap_compactions,
            "peak_heap_size": self._peak_heap_size,
            "gap_events_superseded": self._gap_events_superseded,
            "kernels_failed": self._kernels_failed,
            "kernels_retried": self._kernels_retried,
            "kernels_killed": self._kernels_killed,
        }

    @property
    def kernels_failed(self) -> int:
        return self._kernels_failed

    @property
    def kernels_retried(self) -> int:
        return self._kernels_retried

    @property
    def kernels_killed(self) -> int:
        return self._kernels_killed

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event; returns False when nothing is left."""
        if self._batched:
            return self._step_batched()
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            now = self.now
            if time < now - 1e-9:
                raise RuntimeError("event in the past — engine invariant broken")
            if time > now:
                self.now = time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def _step_batched(self) -> bool:
        """One event across the three batched sources (heap / completion
        pseudo-event / gap-wake pseudo-events), earliest ``(time, seq)``
        first."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        if heap:
            head = heap[0]
            best_time = head[0]
            best_seq = head[1]
            source = 0
        else:
            best_time = math.inf
            best_seq = 0
            source = -1
        time = self._completion_time
        if time < best_time or (
            time == best_time and self._completion_seq < best_seq
        ):
            best_time = time
            best_seq = self._completion_seq
            source = 1
        time = self._gap_min_time
        if time < best_time or (time == best_time and self._gap_min_seq < best_seq):
            best_time = time
            source = 2
        if source < 0 or best_time == math.inf:
            return False
        now = self.now
        if best_time < now - 1e-9:
            raise RuntimeError("event in the past — engine invariant broken")
        if best_time > now:
            self.now = best_time
        self._events_processed += 1
        if source == 0:
            event = heapq.heappop(heap)[2]
            event.callback()
        elif source == 1:
            self._tick_batched()
        else:
            self._fire_gap_wake()
        return True

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the event queue drains (or ``until`` is reached)."""
        if self._batched:
            return self._run_batched(until, max_events)
        events = 0
        if until is None:
            # Unbounded run: no per-event peek at the heap top.
            while self.step():
                events += 1
                if events >= max_events:
                    raise RuntimeError(f"simulation exceeded {max_events} events")
            self._accrue_busy_time()
            return self.now
        while self._heap:
            next_time = self._heap[0][0]
            if next_time > until:
                self._accrue_busy_time_at(until)
                self.now = until
                return self.now
            if not self.step():
                break
            events += 1
            if events >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        self._accrue_busy_time()
        return self.now

    def _run_batched(
        self, until: Optional[float], max_events: int
    ) -> float:
        """Batched main loop: the heap plus two out-of-heap pseudo-event
        sources, merged by ``(time, seq)``.

        The ``until`` gate mirrors the heap loop's observable quirk of
        peeking the *raw* earliest pending time (cancelled heap entries
        included) before deciding whether to stop.
        """
        heap = self._heap
        events = 0
        while True:
            if until is not None:
                # Gate on the *raw* earliest pending time — cancelled
                # heap entries included — before lazily skipping them,
                # exactly like the heap loop's peek-then-step order.
                raw = heap[0][0] if heap else math.inf
                if self._completion_time < raw:
                    raw = self._completion_time
                if self._gap_min_time < raw:
                    raw = self._gap_min_time
                if raw == math.inf:
                    break
                if raw > until:
                    self._accrue_busy_time_at(until)
                    self.now = until
                    return self.now
            while heap and heap[0][2].cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
            if heap:
                head = heap[0]
                best_time = head[0]
                best_seq = head[1]
                source = 0
            else:
                best_time = math.inf
                best_seq = 0
                source = -1
            time = self._completion_time
            if time < best_time or (
                time == best_time and self._completion_seq < best_seq
            ):
                best_time = time
                best_seq = self._completion_seq
                source = 1
            time = self._gap_min_time
            if time < best_time or (
                time == best_time and self._gap_min_seq < best_seq
            ):
                best_time = time
                source = 2
            if source < 0 or best_time == math.inf:
                break
            now = self.now
            if best_time < now - 1e-9:
                raise RuntimeError("event in the past — engine invariant broken")
            if best_time > now:
                self.now = best_time
            self._events_processed += 1
            if source == 0:
                event = heapq.heappop(heap)[2]
                event.callback()
            elif source == 1:
                self._tick_batched()
            else:
                self._fire_gap_wake()
            events += 1
            if events >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        self._accrue_busy_time()
        return self.now

    def _accrue_busy_time_at(self, time: float) -> None:
        saved = self.now
        self.now = time
        self._accrue_busy_time()
        self.now = saved
