"""Tests for progress perception (§4.3.1) and squad generation (§4.3.2)."""

import functools
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.application import Request
from repro.apps.models import MODEL_NAMES, inference_app
from repro.core.config import BlessConfig
from repro.core.graphs import with_cuda_graphs
from repro.core.profiler import OfflineProfiler
from repro.core.progress import RequestProgress
from repro.core.squad import KernelSquad, generate_squad


def make_progress(quota=0.5, arrival=0.0, app_id="a", model="R50", t_ref=None):
    app = inference_app(model).with_quota(quota, app_id=app_id)
    profile = OfflineProfiler().profile(app)
    config = BlessConfig()
    partition = config.nearest_partition(quota)
    if t_ref is None:
        t_ref = profile.iso_latency(partition)
    return RequestProgress(
        request=Request(app=app, arrival_time=arrival),
        profile=profile,
        partition=partition,
        t_ref_us=t_ref,
    )


class TestRequestProgress:
    def test_new_request_has_zero_tau(self):
        progress = make_progress()
        assert progress.tau_scheduled() == 0.0
        assert progress.scheduled == 0
        assert not progress.exhausted

    def test_lag_grows_with_time_when_unserved(self):
        progress = make_progress(arrival=0.0)
        assert progress.lag(1000.0) > progress.lag(100.0) > 0.0

    def test_lag_negative_when_ahead_of_plan(self):
        progress = make_progress()
        progress.request.next_kernel = 40  # scheduled 40 kernels instantly
        assert progress.lag(10.0) < 0.0

    def test_urgency_floors_negative_lag(self):
        progress = make_progress()
        progress.request.next_kernel = 40
        # Deeply ahead of plan: urgency is just the (tiny) slack bonus,
        # never a negative number that would invert the ordering.
        assert 0.0 <= progress.urgency(10.0) <= progress.SLACK_BIAS

    def test_urgency_prefers_more_progressed_on_tie(self):
        early = make_progress(arrival=0.0, app_id="early")
        late = make_progress(arrival=5000.0, app_id="late")
        # Both well ahead of plan -> lag floored to 0; the request with
        # more executed progress gets the slack bonus.
        early.request.next_kernel = 40
        late.request.next_kernel = 40
        now = 6000.0
        assert early.urgency(now) > late.urgency(now)

    def test_slo_target_changes_pace(self):
        tight = make_progress(t_ref=10_000.0)
        loose = make_progress(t_ref=40_000.0)
        # Same elapsed time, same zero progress: the tight target lags more.
        assert tight.lag(5_000.0) > loose.lag(5_000.0)

    def test_invalid_t_ref_rejected(self):
        with pytest.raises(ValueError):
            make_progress(t_ref=0.0)

    def test_relative_progress_tracks_plan(self):
        progress = make_progress()
        progress.request.next_kernel = 10
        tau = progress.tau_scheduled()
        assert progress.relative_progress(tau) == pytest.approx(1.0)

    def test_next_kernel_duration(self):
        progress = make_progress()
        expected = progress.profile.duration(progress.partition, 0)
        assert progress.next_kernel_duration() == pytest.approx(expected)

    def test_next_kernel_duration_when_exhausted(self):
        progress = make_progress()
        progress.request.next_kernel = progress.request.total_kernels
        with pytest.raises(RuntimeError):
            progress.next_kernel_duration()


class TestSquadGeneration:
    def test_respects_kernel_cap(self):
        config = BlessConfig(max_kernels_per_squad=10)
        a = make_progress(app_id="a", arrival=0.0)
        b = make_progress(app_id="b", arrival=0.0)
        squad = generate_squad([a, b], now=1000.0, config=config)
        assert squad.total_kernels <= 10

    def test_stops_at_request_end(self):
        config = BlessConfig(max_kernels_per_squad=500)
        a = make_progress(app_id="a", model="VGG")  # 33 kernels incl. memcpy
        generate_squad([a], now=1000.0, config=config)
        # Solo squads are capped, so drain the request in several calls.
        total = 0
        while not a.exhausted:
            total += generate_squad([a], now=1000.0, config=config).total_kernels or 1
            if total > 200:
                break
        assert a.exhausted

    def test_solo_squad_capped(self):
        config = BlessConfig(max_kernels_per_squad=40, solo_squad_fraction=0.25)
        a = make_progress(app_id="a")
        squad = generate_squad([a], now=1000.0, config=config)
        assert squad.total_kernels == 10

    def test_two_active_requests_both_served_when_on_plan(self):
        config = BlessConfig(max_kernels_per_squad=40)
        a = make_progress(app_id="a", arrival=0.0)
        b = make_progress(app_id="b", arrival=0.0)
        squad = generate_squad([a, b], now=10.0, config=config)
        assert set(squad.app_ids) == {"a", "b"}

    def test_lagging_request_compensated(self):
        config = BlessConfig(max_kernels_per_squad=40)
        lagging = make_progress(app_id="lag", arrival=0.0)
        ahead = make_progress(app_id="ahead", arrival=0.0)
        ahead.request.next_kernel = 30  # served a lot already
        squad = generate_squad([lagging, ahead], now=5000.0, config=config)
        assert squad.entry("lag").count > squad.entries.get(
            "ahead", type("E", (), {"count": 0})
        ).count

    def test_kernel_indices_contiguous_per_request(self):
        config = BlessConfig(max_kernels_per_squad=30)
        a = make_progress(app_id="a")
        b = make_progress(app_id="b")
        squad = generate_squad([a, b], now=100.0, config=config)
        for entry in squad.entries.values():
            idx = entry.kernel_indices
            assert idx == list(range(idx[0], idx[0] + len(idx)))

    def test_round_robin_ablation_alternates(self):
        config = BlessConfig(max_kernels_per_squad=10, use_multitask_scheduler=False)
        a = make_progress(app_id="a")
        b = make_progress(app_id="b")
        squad = generate_squad([a, b], now=100.0, config=config)
        assert squad.entry("a").count == squad.entry("b").count == 5

    def test_exhausted_requests_skipped(self):
        config = BlessConfig()
        a = make_progress(app_id="a")
        a.request.next_kernel = a.request.total_kernels
        squad = generate_squad([a], now=100.0, config=config)
        assert squad.total_kernels == 0

    def test_generation_advances_next_kernel(self):
        config = BlessConfig(max_kernels_per_squad=8, solo_squad_fraction=0.25)
        a = make_progress(app_id="a")
        generate_squad([a], now=100.0, config=config)
        assert a.request.next_kernel == 2  # 8 * 0.25 solo fraction

    def test_empty_input(self):
        assert generate_squad([], now=0.0, config=BlessConfig()).total_kernels == 0


class TestKernelSquad:
    def test_add_groups_by_app(self):
        squad = KernelSquad()
        app = inference_app("VGG").with_quota(0.5, app_id="x")
        request = Request(app=app, arrival_time=0.0)
        squad.add(request, 0)
        squad.add(request, 1)
        assert squad.num_requests == 1
        assert squad.entry("x").count == 2
        assert squad.total_kernels == 2


def reference_generate_squad(
    progresses: Sequence[RequestProgress],
    now: float,
    config: BlessConfig,
) -> KernelSquad:
    """The straightforward generation loop, kept as the oracle for the
    incremental :func:`generate_squad`: every step rescans every
    candidate and recomputes its urgency."""
    squad = KernelSquad()
    candidates = [p for p in progresses if not p.exhausted]
    if not candidates:
        return squad

    limit = config.max_kernels_per_squad
    solo = len(candidates) == 1
    if solo:
        # Solo streaming: keep squads short so a newly arriving request
        # gets resources at the next (near) boundary (§3.3).  Both a
        # kernel-count cap and a time budget apply — counts alone do
        # not bound the reconfiguration latency when kernels are large.
        limit = max(1, round(limit * config.solo_squad_fraction))

    accumulated_us = 0.0
    rr_index = 0
    while squad.total_kernels < limit:
        available = [p for p in candidates if not p.exhausted]
        if not available:
            break
        if config.use_multitask_scheduler:
            # Final tie-break: quota-weighted interleaving — the request
            # with the smallest (kernels already in this squad / quota)
            # goes next.  Exactly-tied requests (two identical apps
            # arriving at the same instant) interleave instead of one
            # filling the squad, and a 8/9-quota app correctly receives
            # ~8x the kernels of a 1/9-quota co-runner at equal lag.
            # ``slo_aware`` swaps in the deadline-pressure ordering for
            # gateway-annotated requests; the default flag preserves the
            # legacy arithmetic byte-for-byte.
            if config.slo_aware:
                def key(p: RequestProgress):
                    entry = squad.entries.get(p.request.app.app_id)
                    in_squad = entry.count if entry is not None else 0
                    return (p.slo_urgency(now), -in_squad / p.request.app.quota)
            else:
                def key(p: RequestProgress):
                    entry = squad.entries.get(p.request.app.app_id)
                    in_squad = entry.count if entry is not None else 0
                    return (p.urgency(now), -in_squad / p.request.app.quota)

            chosen = max(available, key=key)
        else:
            chosen = available[rr_index % len(available)]
            rr_index += 1
        index = chosen.request.next_kernel
        end = index + 1
        boundaries = chosen.request.app.graph_boundaries
        if boundaries is not None:
            # CUDA-graph granularity (§6.10): graphs are indivisible —
            # take every kernel to the end of the current graph.
            from repro.core.graphs import graph_end

            end = graph_end(boundaries, index, chosen.request.total_kernels)
        for kernel_index in range(index, end):
            squad.add(chosen.request, kernel_index)
            if solo:
                accumulated_us += chosen.profile.step_cost(
                    chosen.profile.num_partitions, kernel_index
                )
        chosen.request.next_kernel = end
        if chosen.request.all_scheduled:
            break
        if solo and accumulated_us >= config.solo_squad_budget_us:
            break
    return squad


@functools.lru_cache(maxsize=None)
def _profiled_app(model: str, graph_size: int):
    """(app, profile) for a model, graphed when ``graph_size`` > 0.

    A graphed app keeps its model's name but drops the in-graph gaps,
    so it gets a profiler of its own.
    """
    app = inference_app(model)
    if graph_size:
        app = with_cuda_graphs(app, graph_size)
    return app, OfflineProfiler().profile(app)


@st.composite
def request_specs(draw):
    return {
        "model": draw(st.sampled_from(MODEL_NAMES)),
        "graph_size": draw(st.sampled_from([0, 0, 1, 4, 12])),
        "quota": draw(st.sampled_from([1 / 9, 2 / 9, 1 / 3, 0.5, 2 / 3, 1.0])),
        "arrival": draw(st.floats(0.0, 20_000.0)),
        # Fraction of the request already scheduled before this squad.
        "start": draw(st.floats(0.0, 1.0)),
        "slo_class": draw(st.sampled_from([None, "latency_critical", "best_effort"])),
        "deadline_after": draw(st.one_of(st.none(), st.floats(0.0, 40_000.0))),
        "t_ref_scale": draw(st.sampled_from([None, 0.5, 2.0])),
    }


@st.composite
def squad_scenarios(draw):
    specs = draw(st.lists(request_specs(), min_size=1, max_size=5))
    for i, spec in enumerate(specs):
        spec["app_id"] = f"a{i}"
    twin = draw(st.sampled_from([None, "tie", "same_app"]))
    if len(specs) < 5 and twin is not None:
        # "tie": an identical app arriving at the same instant.
        # "same_app": a second request of the first app, sharing its
        # squad entry and in-squad count.
        copy = dict(specs[0])
        if twin == "tie":
            copy["app_id"] = f"a{len(specs)}"
        specs.insert(1, copy)
    config = BlessConfig(
        max_kernels_per_squad=draw(st.integers(1, 80)),
        solo_squad_fraction=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
        use_multitask_scheduler=draw(st.booleans()),
        slo_aware=draw(st.booleans()),
    )
    now = draw(st.floats(0.0, 60_000.0))
    return specs, config, now


def _build_progresses(specs, config):
    progresses = []
    for spec in specs:
        base, profile = _profiled_app(spec["model"], spec["graph_size"])
        app = base.with_quota(spec["quota"], app_id=spec["app_id"])
        partition = config.nearest_partition(spec["quota"])
        t_ref = profile.iso_latency(partition)
        if spec["t_ref_scale"] is not None:
            t_ref *= spec["t_ref_scale"]
        request = Request(app=app, arrival_time=spec["arrival"])
        request.next_kernel = int(spec["start"] * request.total_kernels)
        deadline = None
        if spec["deadline_after"] is not None:
            deadline = spec["arrival"] + spec["deadline_after"]
        progresses.append(
            RequestProgress(
                request=request,
                profile=profile,
                partition=partition,
                t_ref_us=t_ref,
                slo_class=spec["slo_class"],
                slo_deadline_us=deadline,
            )
        )
    return progresses


def _outcome(squad, progresses):
    """Entry order, each entry's request (by position) and kernel
    indices, and every request's next kernel afterwards."""
    position = {id(p.request): i for i, p in enumerate(progresses)}
    entries = [
        (entry.app_id, position[id(entry.request)], entry.kernel_indices)
        for entry in squad.entries.values()
    ]
    return entries, [p.request.next_kernel for p in progresses]


class TestIncrementalMatchesReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(squad_scenarios())
    def test_same_squad_and_progress(self, scenario):
        specs, config, now = scenario
        expected_progresses = _build_progresses(specs, config)
        actual_progresses = _build_progresses(specs, config)
        expected = reference_generate_squad(expected_progresses, now, config)
        actual = generate_squad(actual_progresses, now, config)
        assert _outcome(actual, actual_progresses) == _outcome(
            expected, expected_progresses
        )
        assert actual.total_kernels == expected.total_kernels
