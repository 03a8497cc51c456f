"""The GPU hardware scheduler: SM allocation among runnable kernels.

Given the compute kernels at the heads of their device queues, the
hardware scheduler decides how many SMs each occupies.  Two policies
are provided:

* ``fair`` (default): max-min water-filling — kernels' thread blocks
  interleave at fine granularity, so equal-priority device queues share
  SMs fairly over time (the Volta+ behaviour of paper footnote 1).
  Co-run *cost* is carried by the interference model, not by starvation.

* ``fifo``: strict dispatch order — an earlier kernel occupies up to
  its full demand (and its context's SM-affinity cap) and later kernels
  get the leftovers, starving behind wide kernels.  Used for ablations
  of hardware-dispatch assumptions.

Both respect (a) a kernel never exceeds its own demand ``d%``, and
(b) the kernels of one context never jointly exceed the context's SM
affinity limit (MPS semantics).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .context import GPUContext
from .kernel import KernelInstance
from .stream import DeviceQueue

#: Water-fill tolerances, shared by every allocation path: a residual
#: capacity at or below ``CAPACITY_EPS`` counts as exhausted, and a
#: demand within ``SATISFIED_EPS`` of its fair share counts as
#: satisfied.  The engine's closed-form solo/pair rates
#: (``SimEngine._rates_closed_form``) apply the same two constants, so
#: every allocation path stays bit-identical to :func:`waterfill`.
CAPACITY_EPS = 1e-12
SATISFIED_EPS = 1e-15


@dataclass(frozen=True)
class Allocation:
    """SM share granted to one running kernel."""

    kernel: KernelInstance
    sm_fraction: float


def waterfill(demands: Sequence[float], capacity: float) -> List[float]:
    """Max-min fair split of ``capacity``, never exceeding a demand."""
    n = len(demands)
    if n == 0:
        return []
    alloc = [0.0] * n
    remaining = capacity
    active = list(range(n))
    while active and remaining > CAPACITY_EPS:
        share = remaining / len(active)
        satisfied = [i for i in active if demands[i] - alloc[i] <= share + SATISFIED_EPS]
        if satisfied:
            done = set(satisfied)
            for i in satisfied:
                remaining -= demands[i] - alloc[i]
                alloc[i] = demands[i]
            active = [i for i in active if i not in done]
        else:
            for i in active:
                alloc[i] += share
            remaining = 0.0
            active = []
    return alloc


def _waterfill_small(demands: Sequence[float], capacity: float) -> List[float]:
    """:func:`waterfill` with inlined one- and two-demand fast paths.

    One kernel in a context, one context at a priority level, or two
    co-running contexts cover nearly every allocation the engine asks
    for; the general loop reduces to exactly this arithmetic for
    ``n <= 2`` (same operations in the same order, so the results are
    bit-identical).
    """
    n = len(demands)
    if n == 1:
        if capacity <= CAPACITY_EPS:
            return [0.0]
        demand = demands[0]
        return [demand] if demand <= capacity + SATISFIED_EPS else [capacity]
    if n == 2:
        if capacity <= CAPACITY_EPS:
            return [0.0, 0.0]
        d0 = demands[0]
        d1 = demands[1]
        share = capacity / 2
        bar = share + SATISFIED_EPS
        if d0 <= bar:
            if d1 <= bar:
                return [d0, d1]
            remaining = capacity - d0
            if remaining > CAPACITY_EPS:
                return [d0, d1] if d1 <= remaining + SATISFIED_EPS else [d0, remaining]
            return [d0, 0.0]
        if d1 <= bar:
            remaining = capacity - d1
            if remaining > CAPACITY_EPS:
                return [d0, d1] if d0 <= remaining + SATISFIED_EPS else [remaining, d1]
            return [0.0, d1]
        return [share, share]
    return waterfill(demands, capacity)


class HardwareScheduler:
    """Allocates SM fractions to the runnable kernels of all queues."""

    def __init__(self, policy: str = "fair"):
        if policy not in ("fifo", "fair"):
            raise ValueError(f"unknown hardware policy {policy!r}")
        self.policy = policy

    def allocate(
        self,
        running: Sequence[KernelInstance],
        queues: Dict[int, DeviceQueue],
    ) -> List[Allocation]:
        """Compute the SM share of each running compute kernel.

        ``queues`` maps ``kernel.uid`` to the queue it runs in (to look
        up the context's SM limit).
        """
        if not running:
            return []
        if self.policy == "fifo":
            return self._allocate_fifo(running, queues)
        return self._allocate_fair(running, queues)

    # ------------------------------------------------------------------
    def _allocate_fifo(
        self,
        running: Sequence[KernelInstance],
        queues: Dict[int, DeviceQueue],
    ) -> List[Allocation]:
        # Blocks dispatch in kernel start order; ties (same dispatch
        # instant) break by uid, i.e. launch order — the simple fair
        # round-robin the Volta+ scheduler applies to equal-priority
        # queues (paper footnote 1).
        ordered = sorted(
            running, key=lambda k: (k.start_time if k.start_time is not None else 0.0, k.uid)
        )
        free = 1.0
        context_used: Dict[int, float] = defaultdict(float)
        allocations = []
        for kernel in ordered:
            ctx = queues[kernel.uid].context
            cap = ctx.sm_limit - context_used[ctx.context_id]
            grant = max(0.0, min(kernel.spec.sm_demand, cap, free))
            context_used[ctx.context_id] += grant
            free -= grant
            allocations.append(Allocation(kernel=kernel, sm_fraction=grant))
        return allocations

    def allocate_fair_indexed(
        self,
        running: Sequence[KernelInstance],
        contexts: Sequence[GPUContext],
    ) -> List[Tuple[int, float]]:
        """Fair allocation as ``(running_index, grant)`` pairs.

        Object-free variant of :meth:`allocate` for the batched
        engine's rate computation: ``contexts[i]`` is the context of
        ``running[i]``, and the returned pairs follow the identical
        allocation order (priority level descending, then context
        first-appearance order, then running order within a context)
        with bit-identical arithmetic to ``_allocate_fair``.
        """
        # Common shape: every kernel in its own context, one priority
        # level (one queue per app, one head kernel running each).  The
        # general grouping below then degenerates to a single
        # water-fill over the per-context wants; replicate exactly that
        # arithmetic without the dict plumbing.  (The engine rates solo
        # and pair sets in closed form before reaching this.)
        n = len(contexts)
        if n <= 6:
            first_priority = contexts[0].priority
            singleton = True
            seen_ids = set()
            for ctx in contexts:
                if ctx.priority != first_priority or ctx.context_id in seen_ids:
                    singleton = False
                    break
                seen_ids.add(ctx.context_id)
            if singleton:
                wants: List[float] = []
                for index, ctx in enumerate(contexts):
                    cap = ctx.sm_limit
                    if cap <= CAPACITY_EPS:
                        wants.append(0.0)
                    else:
                        demand = running[index].spec.sm_demand
                        wants.append(demand if demand <= cap + SATISFIED_EPS else cap)
                fills = _waterfill_small(wants, 1.0)
                pairs = []
                for index, (want, fill) in enumerate(zip(wants, fills)):
                    scale = fill / want if want > 0 else 0.0
                    pairs.append((index, want * scale))
                return pairs

        # Group kernels by context in first-appearance order; note on
        # the way whether a second priority level exists (rare).
        by_context: Dict[int, List[int]] = {}
        limits: Dict[int, float] = {}
        priorities: Dict[int, int] = {}
        single_level = True
        first_priority: int = 0
        for index, ctx in enumerate(contexts):
            cid = ctx.context_id
            group = by_context.get(cid)
            if group is None:
                by_context[cid] = [index]
                limits[cid] = ctx.sm_limit
                priority = ctx.priority
                priorities[cid] = priority
                if len(priorities) == 1:
                    first_priority = priority
                elif priority != first_priority:
                    single_level = False
            else:
                group.append(index)

        pairs: List[Tuple[int, float]] = []
        capacity = 1.0
        if single_level:
            levels = [first_priority] if priorities else []
        else:
            levels = sorted(set(priorities.values()), reverse=True)
        for level in levels:
            if single_level:
                level_cids = list(by_context)
            else:
                level_cids = [c for c, p in priorities.items() if p == level]

            # Pass 1: split each context's limit among its kernels.
            per_kernel_want: Dict[int, float] = {}
            context_want: Dict[int, float] = {}
            for cid in level_cids:
                indices = by_context[cid]
                fills = _waterfill_small(
                    [running[i].spec.sm_demand for i in indices], limits[cid]
                )
                for index, fill in zip(indices, fills):
                    per_kernel_want[index] = fill
                context_want[cid] = sum(fills)

            # Pass 2: water-fill this level's contexts over what's left.
            ctx_fills = _waterfill_small(
                [context_want[c] for c in level_cids], capacity
            )
            for cid, fill in zip(level_cids, ctx_fills):
                want = context_want[cid]
                scale = fill / want if want > 0 else 0.0
                for index in by_context[cid]:
                    grant = per_kernel_want[index] * scale
                    capacity -= grant
                    pairs.append((index, grant))
            capacity = max(0.0, capacity)
        return pairs

    def _allocate_fair(
        self,
        running: Sequence[KernelInstance],
        queues: Dict[int, DeviceQueue],
    ) -> List[Allocation]:
        by_context: Dict[int, List[KernelInstance]] = defaultdict(list)
        limits: Dict[int, float] = {}
        priorities: Dict[int, int] = {}
        for kernel in running:
            ctx = queues[kernel.uid].context
            by_context[ctx.context_id].append(kernel)
            limits[ctx.context_id] = ctx.sm_limit
            priorities[ctx.context_id] = ctx.priority

        # Higher-priority contexts (REEF-style real-time clients) are
        # satisfied first; within a priority level, fair water-filling.
        allocations: List[Allocation] = []
        capacity = 1.0
        for level in sorted(set(priorities.values()), reverse=True):
            level_cids = [c for c, p in priorities.items() if p == level]

            # Pass 1: split each context's limit among its kernels.
            per_kernel_want: Dict[int, float] = {}
            context_want: Dict[int, float] = {}
            for cid in level_cids:
                kernels = by_context[cid]
                fills = waterfill([k.spec.sm_demand for k in kernels], limits[cid])
                for kernel, fill in zip(kernels, fills):
                    per_kernel_want[kernel.uid] = fill
                context_want[cid] = sum(fills)

            # Pass 2: water-fill this level's contexts over what's left.
            ctx_fills = waterfill(
                [context_want[c] for c in level_cids], capacity
            )
            for cid, fill in zip(level_cids, ctx_fills):
                want = context_want[cid]
                scale = fill / want if want > 0 else 0.0
                for kernel in by_context[cid]:
                    grant = per_kernel_want[kernel.uid] * scale
                    capacity -= grant
                    allocations.append(
                        Allocation(kernel=kernel, sm_fraction=grant)
                    )
            capacity = max(0.0, capacity)
        return allocations
