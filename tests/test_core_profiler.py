"""Tests for the offline profiler (§4.2)."""

import numpy as np
import pytest

from repro.apps.application import AppKind, Application
from repro.apps.models import MODEL_NAMES, inference_app, training_app
from repro.core.config import BlessConfig
from repro.core.graphs import with_cuda_graphs
from repro.core.profiler import OfflineProfiler, profile_via_simulation
from repro.gpusim.kernel import KernelKind, KernelSpec


@pytest.fixture(scope="module")
def profile():
    return OfflineProfiler().profile(inference_app("R50"))


class TestProfileShape:
    def test_dimensions(self, profile):
        app = inference_app("R50")
        assert profile.durations.shape == (18, len(app.kernels))
        assert profile.elapsed.shape == profile.durations.shape
        assert profile.num_kernels == len(app.kernels)

    def test_demand_is_spec_demand(self, profile):
        app = inference_app("R50")
        assert profile.sm_demand[3] == app.kernels[3].sm_demand

    def test_gaps_recorded(self, profile):
        app = inference_app("R50")
        assert profile.gaps.sum() == pytest.approx(app.total_gap_us)


class TestProfileSemantics:
    def test_iso_latency_decreases_with_partition(self, profile):
        latencies = [profile.iso_latency(p) for p in range(1, 19)]
        assert latencies == sorted(latencies, reverse=True)

    def test_full_partition_matches_solo_span(self, profile):
        app = inference_app("R50")
        assert profile.iso_latency(18) == pytest.approx(app.solo_span_us)

    def test_tau_monotone_in_kernel_index(self, profile):
        taus = [profile.tau(9, k) for k in range(profile.num_kernels)]
        assert taus == sorted(taus)

    def test_duration_at_least_base(self, profile):
        app = inference_app("R50")
        for k in (0, 10, 40):
            assert profile.duration(9, k) >= app.kernels[k].base_duration_us - 1e-9

    def test_step_cost_adds_gap(self, profile):
        k = 5
        assert profile.step_cost(18, k) == pytest.approx(
            profile.duration(18, k) + profile.gaps[k]
        )

    def test_stack_duration_includes_gaps(self, profile):
        stack = profile.stack_duration(18, 0, 10)
        assert stack == pytest.approx(
            profile.durations[17, :10].sum() + profile.gaps[:10].sum()
        )
        assert profile.stack_duration(9, 5, 5) == 0.0

    def test_duration_at_fraction_interpolates(self, profile):
        k = 3
        mid = profile.duration_at_fraction(0.5, k)
        assert profile.duration(18, k) <= mid <= profile.duration(1, k)

    def test_mean_kernel_duration(self, profile):
        assert profile.mean_kernel_duration() == pytest.approx(
            float(np.mean(profile.durations[-1]))
        )


class TestProfilerBehaviour:
    def test_caching_by_app_name(self):
        profiler = OfflineProfiler()
        a = profiler.profile(inference_app("VGG"))
        b = profiler.profile(inference_app("VGG"))
        assert a is b

    def test_custom_partition_count(self):
        config = BlessConfig(num_partitions=9)
        profile = OfflineProfiler(config=config).profile(inference_app("VGG"))
        assert profile.durations.shape[0] == 9

    def test_profiling_cost_positive_and_reported(self):
        profile = OfflineProfiler().profile(inference_app("VGG"))
        # Table 1: sub-second profiling cost for the small models.
        assert 0.0 < profile.profiling_cost_us < 5e6


class TestAnalyticVsSimulated:
    """The profiler's analytic durations must match a simulated solo run
    (same scaling law, no co-runners)."""

    @pytest.mark.parametrize("partition", [18, 9, 5])
    def test_agreement(self, partition):
        app = inference_app("VGG")
        profile = OfflineProfiler().profile(app)
        measured = profile_via_simulation(app, partition)
        analytic = profile.durations[partition - 1]
        assert np.allclose(measured, analytic, rtol=1e-6)


def _hand_built_app() -> Application:
    """Every kernel kind, zero durations, partial demands and gaps."""
    kernels = [
        KernelSpec("h2d", KernelKind.H2D, base_duration_us=40.0, dispatch_gap_us=3.0),
        KernelSpec("zero", base_duration_us=0.0, sm_demand=0.3),
        KernelSpec("narrow", base_duration_us=17.3, sm_demand=0.07,
                   serial_fraction=0.0, dispatch_gap_us=1.5),
        KernelSpec("wide", base_duration_us=123.456, sm_demand=1.0,
                   serial_fraction=0.37, mem_intensity=0.9),
        KernelSpec("sync", KernelKind.SYNC, base_duration_us=0.0,
                   sm_demand=0.5, dispatch_gap_us=2.0),
        KernelSpec("odd", base_duration_us=9.99, sm_demand=1.0 / 3.0,
                   serial_fraction=0.999),
        KernelSpec("d2h", KernelKind.D2H, base_duration_us=25.0),
    ]
    return Application(name="hand", kind=AppKind.INFERENCE, kernels=kernels,
                       memory_mb=10)


_BIT_EXACT_APPS = (
    [inference_app(m) for m in MODEL_NAMES]
    + [training_app(m) for m in MODEL_NAMES]
    + [with_cuda_graphs(inference_app("R50"), 8), _hand_built_app()]
)


class TestBitExactProfile:
    """The array-built profile equals the per-kernel ``duration_at``
    stack bit for bit, not merely to a tolerance."""

    @pytest.mark.parametrize("num_partitions", [2, 9, 18])
    @pytest.mark.parametrize(
        "app", _BIT_EXACT_APPS,
        ids=lambda a: f"{a.name}-{a.kind.value}-{'graphed' if a.graph_boundaries else 'plain'}",
    )
    def test_matches_duration_at(self, app, num_partitions):
        config = BlessConfig(num_partitions=num_partitions)
        profile = OfflineProfiler(config=config).profile(app)
        n = num_partitions
        stack = np.array(
            [[k.duration_at(p / n) for k in app.kernels] for p in range(1, n + 1)]
        )
        gaps = np.array([k.dispatch_gap_us for k in app.kernels])
        assert np.array_equal(profile.durations, stack)
        assert np.array_equal(profile.elapsed, (stack + gaps[None, :]).cumsum(axis=1))
        assert np.array_equal(profile.gaps, gaps)
        assert np.array_equal(
            profile.sm_demand, np.array([k.sm_demand for k in app.kernels])
        )
        assert np.array_equal(
            profile.mem_intensity, np.array([k.mem_intensity for k in app.kernels])
        )

    def test_scalar_reads_are_python_floats(self, profile):
        for partition in (1, 9, 18):
            iso = profile.iso_latency(partition)
            assert type(iso) is float
            assert iso == profile.elapsed[partition - 1, -1]
            for kernel in (0, 7, profile.num_kernels - 1):
                tau = profile.tau(partition, kernel)
                assert type(tau) is float
                assert tau == profile.elapsed[partition - 1, kernel]
                step = profile.step_cost(partition, kernel)
                assert type(step) is float
                assert step == profile.durations[partition - 1, kernel] + profile.gaps[kernel]


class TestFrozenArrays:
    @pytest.mark.parametrize(
        "name", ["durations", "elapsed", "gaps", "sm_demand", "mem_intensity"]
    )
    def test_in_place_write_raises(self, name):
        profile = OfflineProfiler().profile(inference_app("VGG"))
        array = getattr(profile, name)
        with pytest.raises(ValueError):
            array[..., 0] = 1.0
        with pytest.raises(ValueError):
            array *= 2.0
