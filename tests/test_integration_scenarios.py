"""Cross-feature integration scenarios.

Each test wires several subsystems together the way a downstream user
would — exactly the combinations a unit suite misses.
"""

import pytest

from repro.apps.models import inference_app, training_app
from repro.baselines import GSLICESystem, iso_targets_us
from repro.cluster import ClusterController, PlacementPolicy
from repro.core.config import BlessConfig
from repro.core.graphs import with_cuda_graphs
from repro.core.runtime import BlessRuntime
from repro.dynamic import DynamicLLMApp, LLMSpec, route_requests, synthesize_requests
from repro.metrics.deviation import latency_deviation_us
from repro.metrics.io import load_results, save_results
from repro.viz.timeline import render_timeline
from repro.workloads.arrivals import OneShot
from repro.workloads.suite import WorkloadBinding, bind_load, bind_trace


class TestMixedTenancy:
    def test_inference_and_training_co_locate(self):
        """A latency-sensitive inference service next to a training job."""
        apps = [
            inference_app("R50").with_quota(0.5, app_id="serving"),
            training_app("VGG").with_quota(0.5, app_id="training"),
        ]
        targets = iso_targets_us(bind_load(apps, "C", requests=3))
        result = BlessRuntime().serve(bind_load(apps, "C", requests=3))
        assert result.count() == 6
        deviation = latency_deviation_us(result, targets)
        assert deviation < 0.1 * sum(targets.values())

    def test_graphed_llm_and_cnn_mix(self):
        """CUDA-graph app + LLM variants + plain CNN on one GPU."""
        llm = DynamicLLMApp(spec=LLMSpec(num_layers=8), quota=0.4)
        requests = synthesize_requests(4, 50_000.0, seed=2)
        bindings = [
            WorkloadBinding(
                app=b.app.with_quota(0.1, app_id=b.app.app_id),
                process_factory=b.process_factory,
            )
            for b in route_requests(llm, requests)
        ]
        graphed = with_cuda_graphs(inference_app("R50"), 10)
        bindings.append(
            WorkloadBinding(
                app=graphed.with_quota(0.3, app_id="graphed-r50"),
                process_factory=OneShot,
            )
        )
        result = BlessRuntime().serve(bindings)
        assert result.count() >= len(requests) + 1
        assert result.mean_latency("graphed-r50") > 0


class TestClusterScenarios:
    def test_cluster_of_bless_with_trace_load(self):
        apps = [
            inference_app("R50").with_quota(0.6, app_id="a"),
            inference_app("VGG").with_quota(0.6, app_id="b"),
            inference_app("BERT").with_quota(0.4, app_id="c"),
        ]
        controller = ClusterController(num_gpus=2, policy=PlacementPolicy.BEST_FIT)
        result = controller.serve(
            bind_trace(apps, trace="azure", mean_interval_factor=4.0,
                       duration_intervals=4.0, seed=3)
        )
        assert result.merged.count() > 0
        # Apps never split across GPUs.
        placed = [app for apps_ in result.placements.values() for app in apps_]
        assert sorted(placed) == ["a", "b", "c"]

    def test_cluster_result_roundtrip_through_json(self, tmp_path):
        apps = [inference_app("VGG").with_quota(0.5, app_id=f"v{i}") for i in range(2)]
        controller = ClusterController(num_gpus=1)
        result = controller.serve(bind_load(apps, "C", requests=2))
        path = tmp_path / "cluster.json"
        save_results(list(result.per_gpu.values()), path)
        loaded = load_results(path)
        assert loaded[0].count() == result.merged.count()


class TestObservability:
    def test_timeline_of_slo_run(self):
        """Timeline recording composes with SLO mode."""
        apps = [
            inference_app("R50").with_quota(0.5, app_id="x"),
            inference_app("R50").with_quota(0.5, app_id="y"),
        ]
        targets = {"x": 20_000.0, "y": 40_000.0}
        system = BlessRuntime(
            config=BlessConfig(slo_targets_us=targets), record_timeline=True
        )
        system.serve(bind_load(apps, "C", requests=2))
        view = render_timeline(system.engine.timeline, width=40)
        assert "x" in view.lanes and "y" in view.lanes

    def test_extras_track_squad_composition(self):
        apps = [
            inference_app("VGG").with_quota(0.5, app_id="p"),
            inference_app("R50").with_quota(0.5, app_id="q"),
        ]
        result = BlessRuntime().serve(
            [WorkloadBinding(app=a, process_factory=OneShot) for a in apps]
        )
        assert result.extras["squads"] >= 1
        assert result.extras["spatial_squads"] <= result.extras["squads"]
        per_squad = result.extras["squad_kernels"] / result.extras["squads"]
        assert 0 < per_squad <= 50 + 25  # graph slack


class TestDegenerateWorkloads:
    def test_single_kernel_app(self):
        from repro.apps.application import Application, AppKind
        from repro.gpusim.kernel import KernelSpec

        tiny = Application(
            name="tiny", kind=AppKind.INFERENCE,
            kernels=[KernelSpec(name="only", base_duration_us=50.0, sm_demand=0.5)],
            memory_mb=10, quota=0.5, app_id="tiny",
        )
        result = BlessRuntime().serve(
            [WorkloadBinding(app=tiny, process_factory=OneShot)]
        )
        assert result.count() == 1
        assert result.mean_latency("tiny") >= 50.0

    def test_many_tiny_requests(self):
        from repro.workloads.arrivals import TraceReplay

        app = inference_app("VGG").with_quota(1.0, app_id="burst")
        times = [float(i) for i in range(20)]  # all within 20us
        result = BlessRuntime().serve(
            [WorkloadBinding(
                app=app,
                process_factory=lambda: TraceReplay(times_us=list(times)),
            )]
        )
        assert result.count() == 20
        latencies = sorted(r.latency for r in result.records)
        assert latencies == sorted(latencies)

    def test_gslice_and_bless_agree_on_empty_interference(self):
        """A solo app under both systems at quota 1.0: same latency."""
        app = inference_app("BERT").with_quota(1.0, app_id="solo")
        bless = BlessRuntime().serve(
            [WorkloadBinding(app=app, process_factory=OneShot)]
        )
        gslice = GSLICESystem().serve(
            [WorkloadBinding(app=app, process_factory=OneShot)]
        )
        assert bless.mean_latency("solo") == pytest.approx(
            gslice.mean_latency("solo"), rel=0.05
        )
