"""Tests for the sqlite results catalog + perf-regression gate.

Covers the pinned schema (any DDL drift must bump ``SCHEMA_VERSION``
*and* this file), canonical config hashing, the automatic ingest paths
(``run_cells`` grids, cluster merges, bench snapshots), lossless
ingest→query round-trips, concurrent multi-process writers into one WAL
file, and the ``repro results compare`` / ``tools/perf_gate.py`` exit
codes CI leans on.
"""

import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    DEFAULT_THRESHOLDS,
    CatalogSchemaError,
    GateViolation,
    MetricComparison,
    ResultsCatalog,
    ThresholdError,
    bench_entry_metrics,
    canonical_json,
    config_hash,
    describe_callable,
    evaluate,
    ingest_bench_entry,
    parse_thresholds,
    result_metrics,
    stable_repr,
)
from repro.catalog.ingest import (
    get_catalog,
    reset_catalog_cache,
    resolve_catalog_path,
)
from repro.catalog.schema import EXPECTED_TABLES, SCHEMA_VERSION
from repro.apps.models import inference_app
from repro.cli import main as cli_main
from repro.cluster import ClusterController
from repro.gpusim.faults import FaultPlan
from repro.metrics.stats import RequestRecord, ServingResult
from repro.parallel import ServeCell, run_cells
from repro.baselines.gslice import GSLICESystem
from repro.workloads.suite import bind_load, symmetric_pair

REPO_ROOT = Path(__file__).parent.parent

REV_A = "a" * 40
REV_B = "b" * 40


@pytest.fixture(autouse=True)
def _clean_catalog_env(monkeypatch):
    """Isolate every test from the ambient catalog configuration."""
    monkeypatch.delenv("REPRO_CATALOG", raising=False)
    monkeypatch.delenv("REPRO_GIT_REV", raising=False)
    reset_catalog_cache()
    yield
    reset_catalog_cache()


def make_result(system="GSLICE", latencies=(10.0, 20.0, 30.0), extras=None):
    result = ServingResult(system=system, makespan_us=100.0, utilization=0.5)
    for index, latency in enumerate(latencies):
        result.add(
            RequestRecord(app_id="a", request_id=index, arrival=0.0, finish=latency)
        )
    result.extras.update(extras or {})
    return result


def seed_two_revisions(db_path, baseline_tput, current_tput):
    """A catalog with one serve triple at two revisions (3 runs each)."""
    with ResultsCatalog(db_path) as catalog:
        for rev, tput in ((REV_A, baseline_tput), (REV_B, current_tput)):
            for jitter in (-1.0, 0.0, 1.0):  # median == tput
                catalog.record_run(
                    "serve",
                    "BLESS",
                    {"experiment": "serve", "models": ["R50"]},
                    {"throughput_qps": tput + jitter, "p99_latency_us": 50.0},
                    git_rev=rev,
                )


class TestSchemaPin:
    def test_table_layout_matches_pin(self, tmp_path):
        with ResultsCatalog(tmp_path / "cat.sqlite") as catalog:
            assert catalog.table_columns() == EXPECTED_TABLES

    def test_schema_version_recorded(self, tmp_path):
        path = tmp_path / "cat.sqlite"
        ResultsCatalog(path).close()
        import sqlite3

        row = sqlite3.connect(str(path)).execute(
            "SELECT value FROM meta WHERE key='schema_version'"
        ).fetchone()
        assert row[0] == str(SCHEMA_VERSION)

    def test_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "cat.sqlite"
        ResultsCatalog(path).close()
        import sqlite3

        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(CatalogSchemaError):
            ResultsCatalog(path)

    def test_pin_is_the_ddl(self):
        """EXPECTED_TABLES must describe the DDL actually executed."""
        from repro.catalog.schema import SCHEMA_DDL

        for table in EXPECTED_TABLES:
            assert f"CREATE TABLE IF NOT EXISTS {table}" in SCHEMA_DDL


class TestConfigHash:
    def test_dict_order_does_not_matter(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}, "z": [1, 2]}
        b = {"z": [1, 2], "y": {"a": 3, "b": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)
        assert canonical_json(a) == canonical_json(b)

    def test_value_changes_the_hash(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})
        assert config_hash({"x": 1}) != config_hash({"y": 1})

    def test_stable_repr_scrubs_addresses(self):
        class Thing:
            pass

        r1, r2 = stable_repr(Thing()), stable_repr(Thing())
        assert r1 == r2
        assert "0x0" in r1

    def test_describe_callable_unwraps_partials(self):
        desc = describe_callable(partial(bind_load, "APPS", "B", requests=4))
        assert desc["func"].endswith("bind_load")
        assert desc["args"] == ["'APPS'", "'B'"]
        assert desc["kwargs"] == {"requests": "4"}
        # The bound arguments land in the hash: different loads differ.
        other = describe_callable(partial(bind_load, "APPS", "C", requests=4))
        assert config_hash({"b": desc}) != config_hash({"b": other})

    def test_non_json_values_fall_back_to_repr(self):
        text = canonical_json({"fn": bind_load})
        assert "bind_load" in text


class TestRecordRoundTrip:
    def test_runs_metrics_artifacts(self, tmp_path):
        config = {"experiment": "unit", "models": ["R50", "VGG"], "load": "B"}
        with ResultsCatalog(tmp_path / "cat.sqlite") as catalog:
            run_id = catalog.record_run(
                "unit",
                "BLESS",
                config,
                {"throughput_qps": 123.5, "p99_latency_us": 42.0},
                git_rev=REV_A,
                seed=7,
                jobs=2,
                fault_plan="failure=0.05",
                wall_time_s=1.25,
                artifacts=[("trace", "out/trace.json"), ("golden", "g.json")],
            )
            (run,) = catalog.runs()
            assert run.run_id == run_id
            assert run.experiment == "unit"
            assert run.system == "BLESS"
            assert run.git_rev == REV_A
            assert run.seed == 7
            assert run.jobs == 2
            assert run.fault_plan == "failure=0.05"
            assert run.wall_time_s == pytest.approx(1.25)
            assert run.config == config
            assert run.config_hash == config_hash(config)
            assert catalog.metrics(run_id) == {
                "throughput_qps": 123.5,
                "p99_latency_us": 42.0,
            }
            assert catalog.artifacts(run_id) == [
                ("golden", "g.json"),
                ("trace", "out/trace.json"),
            ]

    @settings(max_examples=25, deadline=None)
    @given(
        metrics=st.dictionaries(
            st.text(min_size=1, max_size=20),
            st.floats(allow_nan=False, allow_infinity=False),
            max_size=8,
        ),
        config=st.dictionaries(
            st.text(min_size=1, max_size=10),
            st.floats(allow_nan=False, allow_infinity=False),
            max_size=5,
        ),
    )
    def test_ingest_query_lossless(self, tmp_path_factory, metrics, config):
        """Whatever goes in comes back out bit-identical."""
        path = tmp_path_factory.mktemp("cat") / "cat.sqlite"
        with ResultsCatalog(path) as catalog:
            run_id = catalog.record_run(
                "prop", "SYS", config, metrics, git_rev=REV_A
            )
            assert catalog.metrics(run_id) == metrics
            (run,) = catalog.runs(git_rev=REV_A)
            assert run.config == config

    def test_result_metrics_drop_non_finite(self):
        empty = ServingResult(system="X", makespan_us=0.0, utilization=0.0)
        metrics = result_metrics(empty)  # mean of no requests is NaN
        assert all(v == v for v in metrics.values())
        assert metrics["completed"] == 0.0

    def test_result_metrics_carry_extras(self):
        result = make_result(extras={"fault_shed_requests": 2.0})
        metrics = result_metrics(result)
        assert metrics["fault_shed_requests"] == 2.0
        assert metrics["completed"] == 3.0
        assert metrics["throughput_qps"] == result.throughput_qps()

    def test_result_metrics_derive_slo_headlines(self):
        # A gateway-attached run gets the two derived serving-paper
        # headlines; attainment counts gate/fault sheds against the
        # latency-critical class (hits over arrivals, not completions).
        result = make_result(
            extras={
                "slo_arrived_latency_critical": 10.0,
                "slo_completed_latency_critical": 8.0,
                "slo_shed_admission_latency_critical": 2.0,
                "slo_deadline_hits_latency_critical": 6.0,
                "slo_deadline_misses_latency_critical": 2.0,
            }
        )
        metrics = result_metrics(result)
        assert metrics["slo_attainment"] == pytest.approx(0.6)
        assert metrics["deadline_miss_rate"] == pytest.approx(0.25)
        # Raw per-class counters still ride along untouched.
        assert metrics["slo_arrived_latency_critical"] == 10.0

    def test_result_metrics_no_slo_headlines_without_gateway(self):
        metrics = result_metrics(make_result())
        assert "slo_attainment" not in metrics
        assert "deadline_miss_rate" not in metrics

    def test_result_metrics_slo_no_completions(self):
        # Every latency-critical arrival shed: attainment is defined
        # (0.0), miss rate is not (no completions to miss over).
        result = make_result(
            extras={
                "slo_arrived_latency_critical": 4.0,
                "slo_shed_admission_latency_critical": 4.0,
            }
        )
        metrics = result_metrics(result)
        assert metrics["slo_attainment"] == 0.0
        assert "deadline_miss_rate" not in metrics


class TestRevisions:
    def test_resolve_exact_prefix_ambiguous(self, tmp_path):
        with ResultsCatalog(tmp_path / "cat.sqlite") as catalog:
            catalog.record_run("e", "s", {"k": 1}, git_rev=REV_A)
            catalog.record_run("e", "s", {"k": 1}, git_rev=REV_B)
            assert catalog.resolve_rev(REV_A) == REV_A
            assert catalog.resolve_rev("bbbb") == REV_B
            with pytest.raises(ValueError, match="no runs"):
                catalog.resolve_rev("cccc")
            catalog.record_run("e", "s", {"k": 1}, git_rev="a1" + "0" * 38)
            with pytest.raises(ValueError, match="ambiguous"):
                catalog.resolve_rev("a")

    def test_resolve_head_uses_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_REV", REV_B)
        with ResultsCatalog(tmp_path / "cat.sqlite") as catalog:
            assert catalog.resolve_rev("HEAD") == REV_B

    def test_revisions_newest_first(self, tmp_path):
        with ResultsCatalog(tmp_path / "cat.sqlite") as catalog:
            catalog.record_run("e", "s", {"k": 1}, git_rev=REV_A)
            catalog.record_run("e", "s", {"k": 1}, git_rev=REV_B)
            catalog.record_run("e", "s", {"k": 2}, git_rev=REV_A)
            assert catalog.revisions() == [(REV_A, 2), (REV_B, 1)]


class TestCompare:
    def test_medians_and_delta(self, tmp_path):
        path = tmp_path / "cat.sqlite"
        seed_two_revisions(path, 100.0, 90.0)
        with ResultsCatalog(path) as catalog:
            comparisons = catalog.compare(REV_A, REV_B)
            by_metric = {c.metric: c for c in comparisons}
            tput = by_metric["throughput_qps"]
            assert tput.baseline == pytest.approx(100.0)
            assert tput.current == pytest.approx(90.0)
            assert tput.rel_delta == pytest.approx(-0.10)
            assert tput.runs_baseline == tput.runs_current == 3
            assert by_metric["p99_latency_us"].rel_delta == 0.0

    def test_one_sided_metrics_are_skipped(self, tmp_path):
        with ResultsCatalog(tmp_path / "cat.sqlite") as catalog:
            catalog.record_run("e", "s", {"k": 1}, {"old": 1.0}, git_rev=REV_A)
            catalog.record_run("e", "s", {"k": 1}, {"new": 2.0}, git_rev=REV_B)
            assert catalog.compare(REV_A, REV_B) == []

    def test_gc_keeps_newest_per_config(self, tmp_path):
        with ResultsCatalog(tmp_path / "cat.sqlite") as catalog:
            ids = [
                catalog.record_run(
                    "e", "s", {"k": 1}, {"m": float(i)},
                    artifacts=[("t", "p")], git_rev=REV_A,
                )
                for i in range(3)
            ]
            catalog.record_run("e", "s", {"k": 2}, git_rev=REV_A)
            assert catalog.gc(keep_per_config=1, dry_run=True) == 2
            assert catalog.count_runs() == 4
            assert catalog.gc(keep_per_config=1) == 2
            assert catalog.count_runs() == 2
            survivors = {run.run_id for run in catalog.runs()}
            assert ids[2] in survivors and ids[0] not in survivors
            assert catalog.metrics(ids[0]) == {}
            assert catalog.artifacts(ids[0]) == []
            assert catalog.metrics(ids[2]) == {"m": 2.0}


class TestGate:
    def comparison(self, metric, baseline, current):
        return MetricComparison(
            experiment="e", system="s", metric=metric,
            baseline=baseline, current=current,
            runs_baseline=1, runs_current=1,
        )

    def test_default_thresholds(self):
        assert parse_thresholds([]) == DEFAULT_THRESHOLDS

    def test_parse_rejects_malformed(self):
        with pytest.raises(ThresholdError):
            parse_thresholds(["nope"])
        with pytest.raises(ThresholdError):
            parse_thresholds(["m=abc"])
        with pytest.raises(ThresholdError):
            parse_thresholds(["m=0"])
        assert parse_thresholds(["m=-0.2"]) == {"m": -0.2}

    def test_negative_threshold_gates_drops(self):
        thresholds = {"throughput_qps": -0.05}
        bad = self.comparison("throughput_qps", 100.0, 90.0)
        ok = self.comparison("throughput_qps", 100.0, 96.0)
        violations, checked = evaluate([bad, ok], thresholds)
        assert [v.comparison for v in violations] == [bad]
        assert checked == [bad, ok]
        assert "fell" in violations[0].describe()

    def test_positive_threshold_gates_rises(self):
        thresholds = {"p99_latency_us": 0.10}
        bad = self.comparison("p99_latency_us", 100.0, 115.0)
        ok = self.comparison("p99_latency_us", 100.0, 80.0)  # faster is fine
        violations, _ = evaluate([bad, ok], thresholds)
        assert [v.comparison for v in violations] == [bad]
        assert "rose" in violations[0].describe()

    def test_ungated_metrics_are_informational(self):
        drop = self.comparison("wall_s_mean", 1.0, 10.0)
        violations, checked = evaluate([drop], DEFAULT_THRESHOLDS)
        assert violations == [] and checked == []
        assert isinstance(GateViolation(drop, -0.1).describe(), str)


class TestEnvContract:
    def test_default_path(self):
        assert resolve_catalog_path() == Path("results") / "catalog.sqlite"

    @pytest.mark.parametrize("value", ["off", "OFF", "0", "false", "none", "no"])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CATALOG", value)
        assert resolve_catalog_path() is None
        assert get_catalog() is None

    def test_env_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CATALOG", str(tmp_path / "env.sqlite"))
        assert resolve_catalog_path() == tmp_path / "env.sqlite"

    def test_explicit_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CATALOG", "off")
        assert resolve_catalog_path(tmp_path / "x.sqlite") == tmp_path / "x.sqlite"

    def test_broken_catalog_warns_once_and_disables(self, tmp_path, capsys):
        path = tmp_path / "broken.sqlite"
        path.write_text("this is not a sqlite database, not even close")
        assert get_catalog(path) is None
        assert get_catalog(path) is None
        err = capsys.readouterr().err
        assert err.count("results catalog disabled") == 1


def _cells(requests=3):
    return [
        ServeCell(
            key=("unit", "GSLICE"),
            system="GSLICE",
            system_factory=GSLICESystem,
            bindings_factory=partial(
                bind_load, symmetric_pair("R50"), "B", requests
            ),
        )
    ]


class TestAutoIngest:
    def test_run_cells_ingests_each_cell(self, monkeypatch, tmp_path):
        db = tmp_path / "cat.sqlite"
        monkeypatch.setenv("REPRO_CATALOG", str(db))
        results = run_cells(_cells(), jobs=1, experiment="unit")
        assert len(results) == 1
        reset_catalog_cache()
        with ResultsCatalog(db) as catalog:
            (run,) = catalog.runs(experiment="unit")
            assert run.system == "GSLICE"
            assert run.jobs == 1
            assert run.wall_time_s is not None and run.wall_time_s > 0
            metrics = catalog.metrics(run.run_id)
            assert metrics["completed"] == float(len(results[0].records))
            assert metrics["throughput_qps"] == results[0].throughput_qps()
            assert run.config["system"] == "GSLICE"
            assert run.config["bindings"]["func"].endswith("bind_load")

    def test_run_cells_defaults_experiment_to_caller(self, monkeypatch, tmp_path):
        db = tmp_path / "cat.sqlite"
        monkeypatch.setenv("REPRO_CATALOG", str(db))
        run_cells(_cells(), jobs=1)
        reset_catalog_cache()
        with ResultsCatalog(db) as catalog:
            (run,) = catalog.runs()
            assert run.experiment == "test_catalog"

    def test_off_means_no_file(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CATALOG", "off")
        results = run_cells(_cells(), jobs=1, experiment="unit")
        assert len(results) == 1
        assert not (tmp_path / "results").exists()

    def test_ingest_never_fails_the_run(self, monkeypatch, tmp_path):
        """Catalog trouble must not fail an experiment (read-only dir)."""
        bad = tmp_path / "not-a-dir.sqlite"
        bad.mkdir()  # opening a directory as sqlite fails
        monkeypatch.setenv("REPRO_CATALOG", str(bad))
        results = run_cells(_cells(), jobs=1, experiment="unit")
        assert len(results) == 1

    def test_cluster_merge_preserves_fault_accounting(self, monkeypatch, tmp_path):
        """The merged cluster row keeps completed + shed == arrived."""
        db = tmp_path / "cat.sqlite"
        monkeypatch.setenv("REPRO_CATALOG", str(db))
        # 0.6 + 0.6 overflows GPU 0, so the cluster genuinely spans
        # both GPUs and the merge has something to add up.
        apps = [
            inference_app("R50").with_quota(0.6, app_id="a"),
            inference_app("R50").with_quota(0.6, app_id="b"),
            inference_app("R50").with_quota(0.4, app_id="c"),
        ]
        plan = FaultPlan(seed=7, kernel_failure_rate=0.05, max_retries=2)
        controller = ClusterController(
            num_gpus=2, system_kwargs={"fault_plan": plan}
        )
        result = controller.serve(bind_load(apps, "B", requests=4))
        reset_catalog_cache()
        with ResultsCatalog(db) as catalog:
            (merged,) = catalog.runs(experiment="cluster_merged")
            metrics = catalog.metrics(merged.run_id)
            arrived = metrics["fault_requests_arrived"]
            shed = metrics.get("fault_shed_requests", 0.0)
            assert metrics["completed"] + shed == arrived
            assert metrics["completed"] == float(len(result.merged.records))
            assert merged.config["num_gpus"] == 2
            # The per-GPU cells were ingested too, under "cluster".
            per_gpu = catalog.runs(experiment="cluster")
            assert len(per_gpu) == 2


class TestBenchIngest:
    ENTRY = {
        "timestamp": "2026-08-07T00:00:00+00:00",
        "git_rev": REV_A,
        "python": "3.12.0",
        "benchmarks": [
            {
                "name": "test_bless_vs_temporal",
                "wall_s": {"min": 0.5, "mean": 0.6, "max": 0.7, "rounds": 5},
                "extra_info": {
                    "speedup": 1.8,
                    "pair_speedups": [1.5, 1.8, 2.1],
                    "significant": True,
                },
            }
        ],
    }

    def test_entry_metrics_flattening(self):
        metrics = bench_entry_metrics(self.ENTRY["benchmarks"][0])
        assert metrics["wall_s_min"] == 0.5
        assert metrics["speedup"] == 1.8
        assert metrics["pair_speedups_median"] == 1.8
        assert "significant" not in metrics  # bools are not measurements
        assert "wall_s_rounds" in metrics

    def test_entry_ingest(self, tmp_path):
        with ResultsCatalog(tmp_path / "cat.sqlite") as catalog:
            count = ingest_bench_entry(
                self.ENTRY, catalog=catalog, source="BENCH_2026-08-07.json"
            )
            assert count == 1
            (run,) = catalog.runs(experiment="bench")
            assert run.system == "test_bless_vs_temporal"
            assert run.git_rev == REV_A
            assert run.created_at == self.ENTRY["timestamp"]
            assert ("bench", "BENCH_2026-08-07.json") in catalog.artifacts(
                run.run_id
            )

    def test_committed_snapshot_ingests(self, tmp_path):
        """The repo's committed BENCH_*.json baselines must stay loadable."""
        snapshots = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert snapshots, "no committed BENCH_*.json baseline in the repo root"
        from repro.catalog.ingest import ingest_bench_file

        with ResultsCatalog(tmp_path / "cat.sqlite") as catalog:
            total = sum(ingest_bench_file(p, catalog) for p in snapshots)
            assert total >= 1
            assert catalog.count_runs() == total


class TestResultsCLI:
    def test_compare_fails_on_injected_regression(self, tmp_path, capsys):
        """The acceptance criterion: −10% throughput trips the gate."""
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, baseline_tput=100.0, current_tput=90.0)
        code = cli_main(
            ["results", "compare", "aaaa", "bbbb", "--db", str(db)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "PERF GATE" in out and "throughput_qps" in out and "FAIL" in out

    def test_compare_passes_identical_revisions(self, tmp_path, capsys):
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, baseline_tput=100.0, current_tput=90.0)
        code = cli_main(
            ["results", "compare", "aaaa", "aaaa", "--db", str(db)]
        )
        assert code == 0
        assert "PERF GATE: ok" in capsys.readouterr().out

    def test_compare_respects_custom_threshold(self, tmp_path):
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, baseline_tput=100.0, current_tput=90.0)
        code = cli_main(
            ["results", "compare", "aaaa", "bbbb", "--db", str(db),
             "--threshold", "throughput_qps=-0.25"]
        )
        assert code == 0

    def test_compare_unknown_revision_exits_2(self, tmp_path):
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, 100.0, 100.0)
        code = cli_main(["results", "compare", "cccc", "aaaa", "--db", str(db)])
        assert code == 2

    def test_compare_json_output(self, tmp_path, capsys):
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, 100.0, 90.0)
        code = cli_main(
            ["results", "compare", "aaaa", "bbbb", "--db", str(db), "--json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == REV_A
        assert len(payload["violations"]) == 1

    def test_list_and_query(self, tmp_path, capsys):
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, 100.0, 90.0)
        assert cli_main(["results", "list", "--db", str(db)]) == 0
        assert "serve" in capsys.readouterr().out
        assert cli_main(
            ["results", "query", "--db", str(db),
             "--metric", "throughput_qps", "--json"]
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["rev"] for row in rows} == {REV_A, REV_B}
        assert all(row["metric"] == "throughput_qps" for row in rows)

    def test_gc_cli(self, tmp_path, capsys):
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, 100.0, 90.0)
        assert cli_main(
            ["results", "gc", "--db", str(db), "--keep", "1"]
        ) == 0
        # All 6 runs share one config per revision-independent hash, so
        # keep-1 drops everything but the newest run.
        assert "dropped 5" in capsys.readouterr().out

    def test_missing_catalog_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["results", "list", "--db", str(tmp_path / "no.sqlite")])


class TestPerfGateTool:
    def gate_main(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "perf_gate", REPO_ROOT / "tools" / "perf_gate.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main

    def test_regression_fails(self, tmp_path, capsys):
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, 100.0, 90.0)
        code = self.gate_main()(
            ["--db", str(db), "--ingest-bench",
             "--baseline-rev", "aaaa", "--current-rev", "bbbb"]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_identical_passes(self, tmp_path):
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, 100.0, 90.0)
        code = self.gate_main()(
            ["--db", str(db), "--ingest-bench",
             "--baseline-rev", "aaaa", "--current-rev", "aaaa"]
        )
        assert code == 0

    def test_missing_baseline_passes_unless_required(self, tmp_path, monkeypatch):
        db = tmp_path / "cat.sqlite"
        monkeypatch.setenv("REPRO_GIT_REV", REV_A)
        with ResultsCatalog(db) as catalog:
            catalog.record_run("e", "s", {"k": 1}, {"m": 1.0}, git_rev=REV_A)
        gate = self.gate_main()
        assert gate(["--db", str(db), "--ingest-bench"]) == 0
        assert gate(
            ["--db", str(db), "--ingest-bench", "--require-baseline"]
        ) == 2

    def test_auto_baseline_is_newest_other_revision(self, tmp_path, monkeypatch):
        db = tmp_path / "cat.sqlite"
        seed_two_revisions(db, 100.0, 90.0)  # REV_B is newest
        monkeypatch.setenv("REPRO_GIT_REV", REV_B)
        code = self.gate_main()(["--db", str(db), "--ingest-bench"])
        assert code == 1  # baseline auto-picked REV_A, -10% throughput

    def test_disabled_catalog_passes(self, monkeypatch):
        monkeypatch.setenv("REPRO_CATALOG", "off")
        assert self.gate_main()(["--ingest-bench"]) == 0

    def test_reads_snapshots_with_and_without_core_counts(self, tmp_path, capsys):
        """Snapshots gained ``cpu_count``/``affinity_cores``; the gate
        compares an old-format baseline with a new-format candidate."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_trajectory", REPO_ROOT / "tools" / "bench_trajectory.py"
        )
        trajectory = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trajectory)
        new = trajectory.distil({"benchmarks": TestBenchIngest.ENTRY["benchmarks"]})
        assert new["cpu_count"] >= new["affinity_cores"] >= 1
        new["git_rev"] = REV_B
        old = dict(TestBenchIngest.ENTRY)
        assert "cpu_count" not in old
        (tmp_path / "BENCH_old.json").write_text(json.dumps([old]))
        (tmp_path / "BENCH_new.json").write_text(json.dumps([new]))
        code = self.gate_main()(
            ["--db", str(tmp_path / "cat.sqlite"), "--ingest-bench",
             str(tmp_path / "BENCH_old.json"), str(tmp_path / "BENCH_new.json"),
             "--baseline-rev", REV_A, "--current-rev", REV_B]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 gated" in out and "perf-gate: ok" in out


_WRITER_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
from repro.catalog import ResultsCatalog
catalog = ResultsCatalog({db!r})
for i in range({n}):
    catalog.record_run(
        "concurrent", "writer{w}", {{"writer": {w}, "i": i}},
        {{"value": float(i)}}, git_rev="f" * 40,
    )
catalog.close()
"""


class TestConcurrentWriters:
    def test_concurrent_processes_lose_no_rows(self, tmp_path):
        """Two real processes append to one WAL sqlite file; 0 lost rows."""
        db = tmp_path / "cat.sqlite"
        ResultsCatalog(db).close()  # settle schema creation up front
        n = 25
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _WRITER_SNIPPET.format(
                        src=str(REPO_ROOT / "src"), db=str(db), n=n, w=w
                    ),
                ],
                stderr=subprocess.PIPE,
            )
            for w in (1, 2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        with ResultsCatalog(db) as catalog:
            assert catalog.count_runs() == 2 * n
            for w in (1, 2):
                rows = catalog.runs(system=f"writer{w}")
                assert {run.config["i"] for run in rows} == set(range(n))
                assert {
                    catalog.metrics(run.run_id)["value"] for run in rows
                } == {float(i) for i in range(n)}

    def test_concurrent_catalog_uses_wal(self, tmp_path):
        db = tmp_path / "cat.sqlite"
        catalog = ResultsCatalog(db)
        mode = catalog._conn.execute("PRAGMA journal_mode").fetchone()[0]
        catalog.close()
        assert mode.lower() == "wal"

    def test_parallel_run_cells_grids_coexist(self, monkeypatch, tmp_path):
        """Back-to-back grids (as REPRO_JOBS=2 CI runs them) all land."""
        db = tmp_path / "cat.sqlite"
        monkeypatch.setenv("REPRO_CATALOG", str(db))
        run_cells(_cells(), jobs=2, experiment="grid_one")
        run_cells(_cells(), jobs=2, experiment="grid_two")
        reset_catalog_cache()
        with ResultsCatalog(db) as catalog:
            assert catalog.count_runs() == 2
            assert {run.experiment for run in catalog.runs()} == {
                "grid_one",
                "grid_two",
            }
