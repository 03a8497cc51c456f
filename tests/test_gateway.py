"""Serving gateway: SLO classes, admission ladder, deadlines, preemption.

Covers the gateway layer end to end: policy/spec validation and the
``--slo-mix`` parser, the degrade→shed admission ladder at request
granularity, deadline accounting (a deadline exactly met is a hit),
per-class conservation (``completed + shed_admission + shed_fault ==
arrived``), squad-boundary preemption on BLESS (withdrawn kernels are
rewound and relaunched, never lost), determinism of gateway-attached
runs, and byte-identity of the no-gateway default against every engine
mode.
"""

import dataclasses
from functools import partial

import pytest

from repro.apps.models import inference_app
from repro.baselines.gslice import GSLICESystem
from repro.baselines.iso import ISOSystem
from repro.baselines.mig_system import MIGSystem
from repro.core.config import DEFAULT_CONFIG
from repro.core.runtime import BlessRuntime
from repro.gateway import (
    BEST_EFFORT,
    LATENCY_CRITICAL,
    ServingGateway,
    SLOPolicy,
    SLOSpec,
    check_slo_accounting,
    parse_slo_mix,
)
from repro.workloads.arrivals import ClosedLoop, Continuous
from repro.workloads.suite import (
    WorkloadBinding,
    bind_load,
    estimated_solo_us,
    symmetric_pair,
)

from .conftest import result_fingerprint


def lc_be_spec(apps, **kwargs):
    policies = {
        apps[0].app_id: SLOPolicy(slo_class=LATENCY_CRITICAL),
        apps[1].app_id: SLOPolicy(slo_class=BEST_EFFORT),
    }
    return SLOSpec(policies=policies, **kwargs)


class TestSLOPolicy:
    def test_defaults(self):
        policy = SLOPolicy()
        assert policy.slo_class == BEST_EFFORT
        assert policy.deadline_us is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOPolicy(slo_class="urgent")
        with pytest.raises(ValueError):
            SLOPolicy(deadline_factor=0.0)
        with pytest.raises(ValueError):
            SLOPolicy(deadline_us=-1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(max_backlog=0)
        with pytest.raises(ValueError):
            SLOSpec(degrade_factors=(1.5,))

    def test_spec_class_lookup_falls_back(self):
        spec = SLOSpec(policies={"a": SLOPolicy(slo_class=LATENCY_CRITICAL)})
        assert spec.slo_class("a") == LATENCY_CRITICAL
        assert spec.slo_class("unknown") == BEST_EFFORT


class TestParseSloMix:
    def test_cycles_over_apps(self):
        spec = parse_slo_mix("lc,be", ["a", "b", "c"])
        assert spec.slo_class("a") == LATENCY_CRITICAL
        assert spec.slo_class("b") == BEST_EFFORT
        assert spec.slo_class("c") == LATENCY_CRITICAL

    def test_deadline_factor_token(self):
        spec = parse_slo_mix("lc:2.0", ["a"])
        assert spec.policy_for("a").deadline_factor == 2.0

    def test_full_names_and_errors(self):
        spec = parse_slo_mix("latency_critical,best_effort", ["a", "b"])
        assert spec.slo_class("a") == LATENCY_CRITICAL
        with pytest.raises(ValueError):
            parse_slo_mix("", ["a"])
        with pytest.raises(ValueError):
            parse_slo_mix("vip", ["a"])


class TestAdmissionLadder:
    def make_gateway(self, **spec_kwargs):
        apps = symmetric_pair("R50")
        spec = lc_be_spec(apps, **spec_kwargs)
        gateway = ServingGateway(spec, {a.app_id: a for a in apps})
        return gateway, apps

    def test_clean_admit_below_backlog(self):
        gateway, apps = self.make_gateway(max_backlog=2)
        decision = gateway.admit(apps[0].app_id, backlog=0, now=0.0, request_id=1)
        assert decision.admitted and decision.rung == -1
        assert decision.deadline_us == pytest.approx(
            gateway.budget_us(apps[0].app_id)
        )
        assert decision.preempt  # latency-critical + preempt spec default

    def test_degrade_rungs_stretch_deadline(self):
        gateway, apps = self.make_gateway(
            max_backlog=1, degrade_factors=(0.5,)
        )
        app_id = apps[0].app_id
        clean = gateway.admit(app_id, backlog=0, now=0.0, request_id=1)
        degraded = gateway.admit(app_id, backlog=1, now=0.0, request_id=2)
        assert degraded.admitted and degraded.rung == 0
        assert degraded.deadline_us == pytest.approx(clean.deadline_us / 0.5)
        assert gateway.counters[f"degraded_{LATENCY_CRITICAL}"] == 1.0

    def test_shed_past_last_rung(self):
        gateway, apps = self.make_gateway(
            max_backlog=1, degrade_factors=(0.5,)
        )
        app_id = apps[0].app_id
        shed = gateway.admit(app_id, backlog=2, now=0.0, request_id=3)
        assert not shed.admitted and shed.deadline_us is None
        assert gateway.counters[f"shed_admission_{LATENCY_CRITICAL}"] == 1.0
        # A gate-shed request never entered, so the fault path finding
        # it later must not double-count it as a fault shed.
        gateway.on_shed(app_id, request_id=3)
        assert gateway.counters[f"shed_fault_{LATENCY_CRITICAL}"] == 0.0

    def test_best_effort_never_arms_preemption(self):
        gateway, apps = self.make_gateway()
        decision = gateway.admit(apps[1].app_id, backlog=0, now=0.0, request_id=1)
        assert decision.admitted and not decision.preempt

    def test_deadline_exactly_met_is_a_hit(self):
        gateway, apps = self.make_gateway()
        app_id = apps[0].app_id
        decision = gateway.admit(app_id, backlog=0, now=0.0, request_id=1)
        missed = gateway.on_finish(app_id, 1, now=decision.deadline_us)
        assert missed is False
        assert gateway.counters[f"deadline_hits_{LATENCY_CRITICAL}"] == 1.0
        assert gateway.counters[f"deadline_misses_{LATENCY_CRITICAL}"] == 0.0

    def test_deadline_missed_past_budget(self):
        gateway, apps = self.make_gateway()
        app_id = apps[0].app_id
        decision = gateway.admit(app_id, backlog=0, now=0.0, request_id=1)
        missed = gateway.on_finish(app_id, 1, now=decision.deadline_us + 1.0)
        assert missed is True

    def test_fault_shed_pops_deadline(self):
        gateway, apps = self.make_gateway()
        app_id = apps[0].app_id
        gateway.admit(app_id, backlog=0, now=0.0, request_id=1)
        gateway.on_shed(app_id, request_id=1)
        assert gateway.counters[f"shed_fault_{LATENCY_CRITICAL}"] == 1.0
        # Already popped: a second shed (or a late finish) is a no-op.
        gateway.on_shed(app_id, request_id=1)
        assert gateway.counters[f"shed_fault_{LATENCY_CRITICAL}"] == 1.0
        assert gateway.on_finish(app_id, 1, now=10.0) is None


class TestCheckSloAccounting:
    def test_balanced_books_pass(self):
        extras = {
            "slo_arrived_latency_critical": 5.0,
            "slo_completed_latency_critical": 3.0,
            "slo_shed_admission_latency_critical": 1.0,
            "slo_shed_fault_latency_critical": 1.0,
        }
        report = check_slo_accounting(extras)
        assert report[LATENCY_CRITICAL]["leak"] == 0.0

    def test_leak_raises(self):
        extras = {
            "slo_arrived_latency_critical": 5.0,
            "slo_completed_latency_critical": 3.0,
        }
        with pytest.raises(AssertionError, match="leak"):
            check_slo_accounting(extras)

    def test_offered_load_check_includes_cluster_shed(self):
        extras = {
            "slo_arrived_latency_critical": 5.0,
            "slo_completed_latency_critical": 5.0,
            "cluster_requests_shed_latency_critical": 3.0,
        }
        report = check_slo_accounting(
            extras, offered={LATENCY_CRITICAL: 8.0}
        )
        assert report[LATENCY_CRITICAL]["offered"] == 8.0
        with pytest.raises(AssertionError, match="offered"):
            check_slo_accounting(extras, offered={LATENCY_CRITICAL: 9.0})


class TestServingWithGateway:
    def serve_bless(self, spec=None, config=None, **kwargs):
        apps = symmetric_pair("R50")
        spec = spec or lc_be_spec(apps)
        runtime = (
            BlessRuntime(config=config, slo=spec, **kwargs)
            if config is not None
            else BlessRuntime(slo=spec, **kwargs)
        )
        return runtime.serve(bind_load(apps, "A", requests=6)), apps

    def test_counters_conserve_and_export(self):
        result, _ = self.serve_bless()
        report = check_slo_accounting(result.extras)
        assert report[LATENCY_CRITICAL]["arrived"] == 6.0
        assert report[BEST_EFFORT]["arrived"] == 6.0
        # Fixed schema: every class counter exported even at zero.
        assert "slo_shed_admission_best_effort" in result.extras

    def test_gateway_run_deterministic(self):
        first, _ = self.serve_bless()
        second, _ = self.serve_bless()
        assert result_fingerprint(first) == result_fingerprint(second)

    def test_preemption_fires_and_nothing_is_lost(self):
        lc_app = inference_app("R50").with_quota(0.5, app_id="R50-lc")
        be_app = inference_app("BERT").with_quota(0.5, app_id="BERT-be")
        spec = SLOSpec(
            policies={
                "R50-lc": SLOPolicy(slo_class=LATENCY_CRITICAL),
                "BERT-be": SLOPolicy(slo_class=BEST_EFFORT),
            }
        )
        bindings = [
            WorkloadBinding(
                app=lc_app,
                process_factory=partial(
                    ClosedLoop,
                    interval_us=estimated_solo_us(lc_app),
                    max_requests=6,
                ),
            ),
            WorkloadBinding(
                app=be_app,
                process_factory=partial(Continuous, max_requests=12),
            ),
        ]
        result = BlessRuntime(slo=spec).serve(bindings)
        assert result.extras["slo_preemptions"] > 0
        assert result.extras["slo_preempted_kernels"] > 0
        # Withdrawn kernels are rewound and relaunched: every request
        # still completes and the per-class books balance.
        assert len(result.records) == 18
        check_slo_accounting(result.extras)

    def test_preemption_improves_long_squad_latency(self):
        """With sparse squad boundaries, preempting the best-effort
        backlog must not make the latency-critical class slower."""
        from repro.experiments.slo_attainment import (
            ablation_bindings,
            ablation_spec,
        )

        config = dataclasses.replace(
            DEFAULT_CONFIG,
            max_kernels_per_squad=400,
            solo_squad_fraction=1.0,
            solo_squad_budget_us=20_000.0,
        )
        stats = {}
        for preempt in (True, False):
            result = BlessRuntime(
                config=config, slo=ablation_spec(preempt)
            ).serve(ablation_bindings(0.7, 8, 18))
            stats[preempt] = result.extras[
                "slo_deadline_hits_latency_critical"
            ]
        assert stats[True] > stats[False]

    def test_admission_shed_at_gate_never_enters(self):
        apps = symmetric_pair("R50")
        spec = lc_be_spec(apps, max_backlog=1, degrade_factors=())
        result = BlessRuntime(slo=spec).serve(
            bind_load(apps, "A", requests=6)
        )
        report = check_slo_accounting(result.extras)
        total_shed = sum(r["shed_admission"] for r in report.values())
        # Shed requests are absent from the records (never served).
        completed = sum(r["completed"] for r in report.values())
        assert len(result.records) == completed
        assert completed + total_shed == 12.0

    def test_slo_aware_flag_default_is_byte_identical(self):
        apps = symmetric_pair("R50")
        base = BlessRuntime().serve(bind_load(apps, "A", requests=6))
        flag_off = BlessRuntime(
            config=dataclasses.replace(DEFAULT_CONFIG, slo_aware=False)
        ).serve(bind_load(apps, "A", requests=6))
        assert result_fingerprint(base) == result_fingerprint(flag_off)


class TestCompositeBaselinesWithGateway:
    @pytest.mark.parametrize("system_cls", [ISOSystem, MIGSystem, GSLICESystem])
    def test_books_balance(self, system_cls):
        apps = symmetric_pair("R50")
        spec = lc_be_spec(apps)
        result = system_cls(slo=spec).serve(bind_load(apps, "A", requests=4))
        report = check_slo_accounting(result.extras)
        assert report[LATENCY_CRITICAL]["arrived"] == 4.0


class TestNoGatewayByteIdentity:
    def test_engine_modes_unchanged(self, engine_mode, monkeypatch):
        apps = symmetric_pair("R50")
        monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)
        reference = BlessRuntime().serve(bind_load(apps, "A", requests=6))
        monkeypatch.setenv("REPRO_ENGINE_MODE", engine_mode)
        result = BlessRuntime().serve(bind_load(apps, "A", requests=6))
        assert result_fingerprint(result) == result_fingerprint(reference)
        assert not any(k.startswith("slo_") for k in result.extras)
