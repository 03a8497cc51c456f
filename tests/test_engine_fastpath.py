"""Engine fast-path features added by the hot-path overhaul.

Covers: the two engine loops (``batched`` byte-identical to the
``reference`` oracle), batched kernel launch, the gap-event supersede
fix (stale events must be cancelled, not leaked into the heap),
lazy-cancel heap compaction, the bounded timeline ring buffer, and the
engine counters staying on the engine rather than in serving results.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.context import ContextRegistry
from repro.gpusim.device import GPUDevice, GPUSpec
from repro.gpusim.engine import ENGINE_MODES, SimEngine, default_engine_mode
from repro.gpusim.faults import FaultInjector, FaultPlan
from repro.gpusim.kernel import KernelInstance, KernelSpec


def make_engine(**kwargs):
    engine = SimEngine(device=GPUDevice(GPUSpec()), **kwargs)
    registry = ContextRegistry(engine.device)
    return engine, registry


def compute(name="k", dur=100.0, demand=0.8, mem=0.0, gap=0.0):
    return KernelSpec(
        name=name, base_duration_us=dur, sm_demand=demand,
        mem_intensity=mem, dispatch_gap_us=gap,
    )


def run_mixed_workload(mode):
    """Three contexts, mixed demands/gaps; returns (finish order, times)."""
    engine, registry = make_engine(mode=mode)
    queues = [
        engine.create_queue(registry.create(f"app{i}", 0.4, charge_memory=False))
        for i in range(3)
    ]
    finished = []
    for qi, queue in enumerate(queues):
        kernels = [
            KernelInstance(
                compute(
                    name=f"q{qi}k{ki}",
                    dur=20.0 + 7.0 * ki + 3.0 * qi,
                    demand=0.3 + 0.1 * ki,
                    mem=0.2 * qi,
                    gap=2.0 if ki % 2 else 0.0,
                )
            )
            for ki in range(5)
        ]
        callbacks = [
            (lambda k: finished.append((k.name, engine.now))) for _ in kernels
        ]
        engine.launch_batch(kernels, queue, callbacks=callbacks)
    engine.run()
    return finished, engine.now


class TestEngineModes:
    def test_default_mode(self):
        assert default_engine_mode() in ENGINE_MODES

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MODE", "reference")
        assert default_engine_mode() == "reference"

    def test_env_selects_loop(self, engine_mode, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MODE", engine_mode)
        engine, _ = make_engine()
        assert engine.mode == engine_mode
        assert engine._batched == (engine_mode == "batched")

    @pytest.mark.parametrize("retired", ["legacy", "jit", "vectorized", "scalar"])
    def test_retired_mode_names_rejected(self, retired, monkeypatch):
        """Mode names from before the two-loop engine fail loudly and
        name the accepted values, from the environment and the ctor."""
        with pytest.raises(ValueError, match="'batched', 'reference'"):
            make_engine(mode=retired)
        monkeypatch.setenv("REPRO_ENGINE_MODE", retired)
        with pytest.raises(ValueError, match="REPRO_ENGINE_MODE.*'batched', 'reference'"):
            default_engine_mode()
        with pytest.raises(ValueError, match="'batched', 'reference'"):
            make_engine()

    def test_unknown_env_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MODE", "warp9")
        with pytest.raises(ValueError):
            default_engine_mode()

    def test_unknown_ctor_mode_rejected(self):
        with pytest.raises(ValueError):
            make_engine(mode="warp9")

    def test_modes_bit_identical(self):
        assert run_mixed_workload("batched") == run_mixed_workload("reference")


def run_faulty_switching_workload(
    mode,
    kernel_params,
    failure_rate,
    fault_seed,
    switch_at,
    second_wave,
    limits=(0.5, 0.5),
    priorities=(0, 0),
    layout="distinct",
):
    """Random workload with a fault plan and a mid-run squad switch.

    Two contexts (SM ``limits``, ``priorities``) run the generated
    kernels; a scheduled action at ``switch_at`` tears the first
    context down (the squad-switch analogue of a REEF-style
    preemption) and launches a second wave on the survivor — scheduled,
    like the harness's squad switches, so the whole history is one
    deterministic event sequence.  ``layout`` bonds the queues:
    ``distinct`` gives each queue its own context, ``shared`` puts
    both queues in the survivor context, ``three`` adds a third queue
    sharing the survivor context, so running sets reach three kernels,
    and ``wide`` spreads nine queues over the two contexts, so running
    sets reach nine.  Returns every observable the modes must agree on
    byte for byte.
    """
    plan = FaultPlan(
        seed=fault_seed, kernel_failure_rate=failure_rate, max_retries=2
    )
    engine = SimEngine(
        device=GPUDevice(GPUSpec()),
        mode=mode,
        fault_injector=FaultInjector(plan),
    )
    registry = ContextRegistry(engine.device)
    contexts = [
        registry.create(f"app{i}", limit, charge_memory=False, priority=priority)
        for i, (limit, priority) in enumerate(zip(limits, priorities))
    ]
    bonded = {
        "distinct": contexts,
        "shared": [contexts[1], contexts[1]],
        "three": contexts + [contexts[1]],
        "wide": contexts * 4 + [contexts[1]],
    }[layout]
    queues = [engine.create_queue(ctx) for ctx in bonded]
    finished = []
    for qi, queue in enumerate(queues):
        kernels = [
            KernelInstance(
                compute(
                    name=f"q{qi}k{ki}",
                    dur=dur,
                    demand=demand,
                    mem=mem,
                    gap=gap,
                ),
                app_id=f"app{qi}",
                request_id=qi,
                seq=ki,
            )
            for ki, (dur, demand, mem, gap) in enumerate(kernel_params)
        ]
        engine.launch_batch(
            kernels,
            queue,
            callbacks=[
                (lambda k: finished.append((k.name, k.failed, engine.now)))
                for _ in kernels
            ],
        )
    killed = []

    def squad_switch():
        killed.extend(k.name for k, _ in engine.kill_context(contexts[0]))
        for ki, (dur, demand, mem, gap) in enumerate(second_wave):
            engine.launch(
                KernelInstance(
                    compute(
                        name=f"w2k{ki}", dur=dur, demand=demand, mem=mem, gap=gap
                    ),
                    app_id="app1",
                    request_id=2,
                    seq=ki,
                ),
                queues[1],
                on_finish=lambda k: finished.append((k.name, k.failed, engine.now)),
            )

    engine.schedule(switch_at, squad_switch)
    engine.run()
    return (
        finished,
        killed,
        engine.now,
        engine.kernels_completed,
        engine.kernels_failed,
        engine.kernels_retried,
        engine.kernels_killed,
    )


kernel_param = st.tuples(
    st.floats(min_value=1.0, max_value=200.0, allow_nan=False),  # duration
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),  # sm demand
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),  # mem intensity
    st.sampled_from([0.0, 1.5, 4.0]),  # dispatch gap
)


# Context SM limits, 1.0 (unrestricted) included so two scattered
# kernels take the kappa_unrestricted coupling.
context_limit = st.sampled_from([0.3, 0.5, 0.8, 1.0])


class TestEpochBatchingProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        kernel_params=st.lists(kernel_param, min_size=1, max_size=5),
        failure_rate=st.sampled_from([0.0, 0.2, 0.6]),
        fault_seed=st.integers(min_value=0, max_value=2**31),
        switch_at=st.floats(min_value=0.0, max_value=400.0, allow_nan=False),
        second_wave=st.lists(kernel_param, min_size=0, max_size=3),
        limits=st.tuples(context_limit, context_limit),
        priorities=st.tuples(st.sampled_from([0, 1]), st.sampled_from([0, 1])),
        layout=st.sampled_from(["distinct", "shared", "three", "wide"]),
    )
    def test_batched_equals_reference(
        self,
        kernel_params,
        failure_rate,
        fault_seed,
        switch_at,
        second_wave,
        limits,
        priorities,
        layout,
    ):
        """Epoch-batched advancement and the closed-form solo/pair rates
        are byte-identical to the reference loop across random fault
        plans, squad switches, context limits and priorities, and
        running sets on both sides of the closed-form boundary (pairs
        in one context or at two priorities, three- and nine-kernel
        sets)."""
        args = (kernel_params, failure_rate, fault_seed, switch_at, second_wave,
                limits, priorities, layout)
        assert run_faulty_switching_workload(
            "batched", *args
        ) == run_faulty_switching_workload("reference", *args)


class TestLaunchBatch:
    def test_batch_equivalent_to_single_launches(self):
        specs = [compute(name=f"k{i}", dur=10.0 + i) for i in range(4)]

        engine_a, registry_a = make_engine(mode="batched")
        queue_a = engine_a.create_queue(
            registry_a.create("a", 1.0, charge_memory=False)
        )
        order_a = []
        for spec in specs:
            engine_a.launch(
                KernelInstance(spec), queue_a,
                on_finish=lambda k: order_a.append((k.name, engine_a.now)),
            )
        engine_a.run()

        engine_b, registry_b = make_engine(mode="batched")
        queue_b = engine_b.create_queue(
            registry_b.create("a", 1.0, charge_memory=False)
        )
        order_b = []
        engine_b.launch_batch(
            [KernelInstance(spec) for spec in specs],
            queue_b,
            callbacks=[
                (lambda k: order_b.append((k.name, engine_b.now)))
                for _ in specs
            ],
        )
        engine_b.run()

        assert order_b == order_a
        assert engine_b.now == engine_a.now
        # One visibility event instead of one per kernel.
        assert engine_b.counters["events_processed"] < engine_a.counters[
            "events_processed"
        ]

    def test_empty_batch_is_noop(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch_batch([], queue)
        assert engine.heap_size == 0
        engine.run()
        assert engine.now == 0.0

    def test_partial_callbacks(self):
        engine, registry = make_engine()
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        hits = []
        kernels = [KernelInstance(compute(name=f"k{i}", dur=5.0)) for i in range(3)]
        engine.launch_batch(
            kernels, queue, callbacks=[None, None, lambda k: hits.append(k.name)]
        )
        engine.run()
        assert hits == ["k2"]


class TestGapEventSupersede:
    # These tests pin mode="reference": they assert on the *heap*
    # mechanics of gap wakes, which the batched loop replaces with
    # out-of-heap pseudo-events (covered by TestBatchedGapWakes).
    def test_superseded_wake_is_cancelled(self):
        """Regression: a later pending wake must not leak when a tighter
        gap replaces it — the stale event is cancelled in the heap."""
        engine, registry = make_engine(mode="reference")
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine._ensure_gap_event(queue, 100.0)
        assert engine.heap_size == 1
        engine._ensure_gap_event(queue, 50.0)
        # Two entries (one cancelled), one live wake at t=50.
        assert engine.heap_size == 2
        assert engine.counters["gap_events_superseded"] == 1
        assert engine._cancelled_in_heap == 1
        engine.run()
        assert engine.now == pytest.approx(50.0)

    def test_earlier_pending_wake_is_reused(self):
        engine, registry = make_engine(mode="reference")
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine._ensure_gap_event(queue, 50.0)
        engine._ensure_gap_event(queue, 100.0)
        assert engine.heap_size == 1
        assert engine.counters["gap_events_superseded"] == 0

    def test_repeated_supersede_does_not_grow_heap_unboundedly(self):
        engine, registry = make_engine(mode="reference")
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        deadline = 100_000.0
        for step in range(500):
            engine._ensure_gap_event(queue, deadline - step)
        # Compaction keeps the heap near the live-event count instead of
        # accumulating one stale wake per supersede.
        assert engine.heap_size < 200
        assert engine.counters["heap_compactions"] >= 1
        assert engine.counters["gap_events_superseded"] == 499


class TestBatchedGapWakes:
    """Batched mode keeps gap wakes out of the heap entirely."""

    def test_gap_wake_is_a_pseudo_event(self):
        engine, registry = make_engine(mode="batched")
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine._ensure_gap_event(queue, 100.0)
        assert engine.heap_size == 0
        assert len(engine._gap_wakes) == 1
        engine.run()
        assert engine.now == pytest.approx(100.0)
        assert engine._gap_wakes == {}

    def test_supersede_replaces_in_place(self):
        engine, registry = make_engine(mode="batched")
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        deadline = 100_000.0
        for step in range(500):
            engine._ensure_gap_event(queue, deadline - step)
        # One dict slot per queue, no stale entries anywhere.
        assert engine.heap_size == 0
        assert len(engine._gap_wakes) == 1
        assert engine.counters["gap_events_superseded"] == 499
        engine.run()
        assert engine.now == pytest.approx(deadline - 499)

    def test_earlier_pending_wake_is_reused(self):
        engine, registry = make_engine(mode="batched")
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine._ensure_gap_event(queue, 50.0)
        engine._ensure_gap_event(queue, 100.0)
        assert len(engine._gap_wakes) == 1
        assert engine.counters["gap_events_superseded"] == 0
        assert engine._gap_min_time == pytest.approx(50.0)


class TestHeapCompaction:
    def test_compaction_sweeps_cancelled_events(self):
        engine, _ = make_engine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(200)]
        for event in events[:150]:
            engine.cancel(event)
        assert engine.counters["heap_compactions"] >= 1
        assert engine.heap_size < 200
        assert engine.counters["peak_heap_size"] == 200

    def test_below_threshold_keeps_lazy_entries(self):
        engine, _ = make_engine()
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(40)]
        for event in events[:20]:
            engine.cancel(event)
        assert engine.counters["heap_compactions"] == 0
        assert engine.heap_size == 40

    def test_cancelled_events_do_not_fire(self):
        engine, _ = make_engine()
        fired = []
        keep = engine.schedule(10.0, lambda: fired.append("keep"))
        drop = engine.schedule(5.0, lambda: fired.append("drop"))
        engine.cancel(drop)
        engine.run()
        assert fired == ["keep"]
        assert keep is not None


class TestTimelineRingBuffer:
    def test_disabled_timeline_stays_empty(self):
        engine, registry = make_engine(record_timeline=False)
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        engine.launch_batch(
            [KernelInstance(compute(dur=5.0)) for _ in range(10)], queue
        )
        engine.run()
        assert list(engine.timeline) == []

    def test_capacity_bounds_recorded_segments(self):
        engine, registry = make_engine(record_timeline=True, timeline_capacity=8)
        queue = engine.create_queue(registry.create("a", 1.0, charge_memory=False))
        for _ in range(30):
            engine.launch(KernelInstance(compute(dur=5.0, gap=1.0)), queue)
        engine.run()
        assert 0 < len(engine.timeline) <= 8


class TestHostCountersStayOnEngine:
    """Engine and decision-cache counters are host machinery: they stay
    on ``SimEngine.counters`` / ``determiner.cache_stats`` and never
    reach ``ServingResult.extras``, so results of the two loops compare
    whole."""

    def test_extras_carry_no_host_counters(self):
        from repro.apps.models import inference_app
        from repro.baselines.gslice import GSLICESystem
        from repro.baselines.mig_system import MIGSystem
        from repro.cluster import ClusterController
        from repro.core.runtime import BlessRuntime
        from repro.workloads.suite import bind_load

        apps = [
            inference_app("R50").with_quota(0.5, app_id="app1"),
            inference_app("VGG").with_quota(0.5, app_id="app2"),
        ]
        bindings = bind_load(apps, "A", requests=2)
        bless = BlessRuntime(fault_plan=FaultPlan(seed=3, kernel_failure_rate=0.2))
        results = {
            "BLESS+faults": bless.serve(bindings),
            "GSLICE": GSLICESystem().serve(bindings),
            "MIG": MIGSystem().serve(bindings),
            "cluster": ClusterController(num_gpus=2).serve(bindings).merged,
        }
        assert results["BLESS+faults"].extras["fault_transient_retries"] > 0
        for name, result in results.items():
            host = [k for k in result.extras
                    if k.startswith(("engine_", "config_cache_"))]
            assert not host, (name, host)
        # perfbench's traced mode reads these four off the engine.
        counters = bless.engine.counters
        for key in ("events_processed", "rebalances",
                    "rebalance_cache_hits", "epoch_batches"):
            assert key in counters, key
        assert counters["events_processed"] > 0
        assert bless.determiner.cache_stats.lookups > 0
