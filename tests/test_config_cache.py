"""Tests for the squad-signature decision cache (§4.4 memoization).

Covers the ISSUE-1 acceptance points: (a) cached decisions equal
uncached decisions over randomized squads, (b) the cache invalidates on
profile recalibration, (c) the LRU eviction bound holds — plus the
signature's canonicalization and the search-mode equivalences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.application import Application, AppKind, Request
from repro.core.config import BlessConfig
from repro.core.config_cache import CachedDecision, ExecutionConfigCache
from repro.core.configurator import ExecutionConfigDeterminer
from repro.core.profiler import OfflineProfiler
from repro.core.runtime import BlessRuntime
from repro.core.squad import KernelSquad, SquadEntry
from repro.gpusim.kernel import KernelSpec
from repro.metrics.stats import CacheStats
from repro.workloads.suite import bind_closed_loop


def build_app(app_id, durations, demands, quota=0.5, gap=0.0):
    kernels = [
        KernelSpec(
            name=f"{app_id}-{i}",
            base_duration_us=d,
            sm_demand=s,
            mem_intensity=0.4,
            dispatch_gap_us=gap,
        )
        for i, (d, s) in enumerate(zip(durations, demands))
    ]
    return Application(
        name=app_id,
        kind=AppKind.INFERENCE,
        kernels=kernels,
        memory_mb=10,
        quota=quota,
        app_id=app_id,
    )


def squad_of(apps_with_indices):
    squad = KernelSquad()
    for app, indices in apps_with_indices:
        squad.entries[app.app_id] = SquadEntry(
            request=Request(app=app, arrival_time=0.0),
            kernel_indices=list(indices),
        )
    return squad


# Random squads: 2-4 apps, each with 2-10 kernels of varied durations
# and demands, contributing a window of its kernels to the squad.
app_strategy = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=0.05, max_value=1.0),
    ),
    min_size=2,
    max_size=10,
)
squad_strategy = st.lists(app_strategy, min_size=2, max_size=4)


class TestCachedEqualsUncached:
    @settings(max_examples=50, deadline=None)
    @given(squad_strategy, st.randoms(use_true_random=False))
    def test_cached_decision_matches_uncached(self, specs, rng):
        """(a) 50 randomized squads: cache on == cache off, decision-wise."""
        apps = [
            build_app(
                f"app{i}",
                [d for d, _ in spec],
                [s for _, s in spec],
                quota=1.0 / len(specs),
            )
            for i, spec in enumerate(specs)
        ]
        profiler = OfflineProfiler()
        profiles = {a.app_id: profiler.profile(a) for a in apps}
        pairs = []
        for a in apps:
            count = rng.randrange(1, len(a.kernels) + 1)
            start = rng.randrange(0, len(a.kernels) - count + 1)
            pairs.append((a, range(start, start + count)))
        squad = squad_of(pairs)

        cached = ExecutionConfigDeterminer(BlessConfig())
        uncached = ExecutionConfigDeterminer(BlessConfig(use_config_cache=False))
        first = cached.determine(squad, profiles)
        replay = cached.determine(squad, profiles)  # served from cache
        fresh = uncached.determine(squad, profiles)

        assert cached.cache.stats.hits == 1
        for got in (replay, fresh):
            assert got.partitions == first.partitions
            assert got.rear_counts == first.rear_counts
            assert got.predicted_duration_us == pytest.approx(
                first.predicted_duration_us
            )

    @settings(max_examples=25, deadline=None)
    @given(squad_strategy, st.randoms(use_true_random=False))
    def test_search_modes_agree(self, specs, rng):
        """The vectorized search and the legacy oracle pick the same split."""
        apps = [
            build_app(f"app{i}", [d for d, _ in spec], [s for _, s in spec])
            for i, spec in enumerate(specs)
        ]
        profiler = OfflineProfiler()
        profiles = {a.app_id: profiler.profile(a) for a in apps}
        pairs = []
        for a in apps:
            count = rng.randrange(1, len(a.kernels) + 1)
            start = rng.randrange(0, len(a.kernels) - count + 1)
            pairs.append((a, range(start, start + count)))
        squad = squad_of(pairs)

        results = {}
        for mode in ("vectorized", "legacy"):
            determiner = ExecutionConfigDeterminer(
                BlessConfig(use_config_cache=False), mode=mode
            )
            results[mode] = determiner.determine(squad, profiles)
        assert results["vectorized"].partitions == results["legacy"].partitions


class TestInvalidation:
    def make_setup(self):
        a = build_app("a", [100.0, 80.0, 60.0], [1.0, 1.0, 1.0])
        b = build_app("b", [50.0, 40.0, 30.0], [1.0, 1.0, 1.0])
        profiler = OfflineProfiler()
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        squad = squad_of([(a, [0, 1, 2]), (b, [0, 1, 2])])
        return profiler, profiles, squad, (a, b)

    def test_recalibration_changes_signature(self):
        """(b) recalibrated profiles never hit stale cache entries."""
        profiler, profiles, squad, (a, b) = self.make_setup()
        determiner = ExecutionConfigDeterminer(BlessConfig())
        determiner.determine(squad, profiles)
        assert determiner.cache.stats.misses == 1

        profiler.recalibrate()
        fresh = {"a": profiler.profile(a), "b": profiler.profile(b)}
        assert fresh["a"].version > profiles["a"].version
        determiner.determine(squad, fresh)
        # Same squad, same numbers — but the new calibration token means
        # a new signature: the lookup must miss, not reuse stale data.
        assert determiner.cache.stats.hits == 0
        assert determiner.cache.stats.misses == 2

    def test_explicit_invalidate_empties_cache(self):
        profiler, profiles, squad, _ = self.make_setup()
        determiner = ExecutionConfigDeterminer(BlessConfig())
        determiner.determine(squad, profiles)
        assert len(determiner.cache) == 1
        determiner.invalidate_cache()
        assert len(determiner.cache) == 0
        assert determiner.cache.stats.invalidations == 1
        determiner.determine(squad, profiles)
        assert determiner.cache.stats.hits == 0

    def test_runtime_recalibration_hook(self):
        """BlessRuntime.recalibrate_profiles refreshes profiles + cache."""
        apps = [
            build_app("a", [100.0] * 4, [1.0] * 4),
            build_app("b", [60.0] * 4, [1.0] * 4),
        ]
        runtime = BlessRuntime()
        runtime.serve(bind_closed_loop(apps, factor=1.0, requests=3))
        assert runtime.determiner.cache.stats.lookups > 0
        old_versions = {a: p.version for a, p in runtime.profiles.items()}
        runtime.recalibrate_profiles()
        assert runtime.determiner.cache.stats.invalidations == 1
        assert len(runtime.determiner.cache) == 0
        for app_id, profile in runtime.profiles.items():
            assert profile.version > old_versions[app_id]


class TestLRUBound:
    def test_eviction_bound_holds(self):
        """(c) the cache never exceeds its capacity; LRU order evicts."""
        cache = ExecutionConfigCache(capacity=8)
        decision = CachedDecision(split=(9, 9), predicted_duration_us=1.0)
        for i in range(20):
            cache.put(("key", i), decision)
            assert len(cache) <= 8
        assert len(cache) == 8
        assert cache.stats.evictions == 12
        # The 8 most recent keys survive, the older ones are gone.
        for i in range(12):
            assert ("key", i) not in cache
        for i in range(12, 20):
            assert ("key", i) in cache

    def test_get_refreshes_recency(self):
        cache = ExecutionConfigCache(capacity=2)
        decision = CachedDecision(split=None, predicted_duration_us=1.0)
        cache.put("a", decision)
        cache.put("b", decision)
        assert cache.get("a") is decision  # refresh "a"
        cache.put("c", decision)  # evicts "b", not "a"
        assert "a" in cache
        assert "b" not in cache

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ExecutionConfigCache(capacity=0)
        with pytest.raises(ValueError):
            BlessConfig(config_cache_size=0)


class TestSignature:
    def test_insertion_order_irrelevant(self):
        a = build_app("a", [100.0, 50.0], [1.0, 1.0])
        b = build_app("b", [80.0, 40.0], [1.0, 1.0])
        profiler = OfflineProfiler()
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        config = BlessConfig()
        key_ab, _ = squad_of([(a, [0, 1]), (b, [0, 1])]).signature(
            profiles, config
        )
        key_ba, _ = squad_of([(b, [0, 1]), (a, [0, 1])]).signature(
            profiles, config
        )
        assert key_ab == key_ba

    def test_cross_client_reuse_remaps_partitions(self):
        """Two clients of one model share an entry, remapped by app_id."""
        profiler = OfflineProfiler()
        long_a = build_app("long", [100.0] * 3, [1.0] * 3)
        short_a = build_app("short", [25.0] * 3, [1.0] * 3)
        profiles = {}
        squads = []
        for suffix in ("#0", "#1"):
            clients = [
                long_a.with_quota(0.5, app_id=f"long{suffix}"),
                short_a.with_quota(0.5, app_id=f"short{suffix}"),
            ]
            for c in clients:
                profiles[c.app_id] = profiler.profile(c)
            squads.append(squad_of([(c, [0, 1, 2]) for c in clients]))

        determiner = ExecutionConfigDeterminer(BlessConfig())
        first = determiner.determine(squads[0], profiles)
        second = determiner.determine(squads[1], profiles)
        assert determiner.cache.stats.hits == 1  # second squad reused it
        assert second.partitions == {
            f"{name}#1": parts
            for name, parts in (
                (k.split("#")[0], v) for k, v in first.partitions.items()
            )
        }
        # The long app still gets the bigger slice after remapping.
        assert second.partitions["long#1"] > second.partitions["short#1"]

    def test_kernel_window_distinguishes(self):
        a = build_app("a", [100.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        b = build_app("b", [50.0, 50.0, 50.0], [1.0, 1.0, 1.0])
        profiler = OfflineProfiler()
        profiles = {"a": profiler.profile(a), "b": profiler.profile(b)}
        config = BlessConfig()
        key_head, _ = squad_of([(a, [0, 1]), (b, [0, 1])]).signature(
            profiles, config
        )
        key_tail, _ = squad_of([(a, [1, 2]), (b, [1, 2])]).signature(
            profiles, config
        )
        assert key_head != key_tail


class TestCacheStats:
    def test_hit_rate_and_merge(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0

    def test_runtime_reports_hit_rate(self):
        apps = [
            build_app("a", [80.0] * 6, [1.0] * 6),
            build_app("b", [40.0] * 6, [1.0] * 6),
        ]
        runtime = BlessRuntime()
        runtime.serve(bind_closed_loop(apps, factor=1.0, requests=4))
        stats = runtime.determiner.cache_stats
        assert stats.lookups > 0
        # Closed-loop requests replay the same kernel windows: the
        # steady state must be served from the cache.
        assert stats.hits > 0
        assert 0.0 < stats.hit_rate < 1.0
