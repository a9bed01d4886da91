"""The critical-path analyzer: decomposition, self-check, introspection.

The unit tests hand-build span trees with exact timestamps, so every
budget line has a known right answer.  The differential tests then
drive real seeded workloads through sync and 4-worker engines and
assert the arithmetic guarantee end to end: the self-check — phases
sum to the instance's wall time within tolerance — never fires
``out_of_tolerance``.
"""

import itertools

import pytest

from repro.domain import WorkloadConfig
from repro.obs import (BUDGET_PHASES, CriticalPathAnalyzer, MetricsRegistry,
                       Observability, Span, WAIT_KINDS)
from repro.obs.ops.admin import IntrospectionSurface
from repro.runtime import Runtime

from ..runtime.harness import build_world, run_workload

_ids = itertools.count(1)


def _span(name, trace, parent, start, end, **attributes):
    span = Span(name, trace, f"s{next(_ids)}", parent, start,
                attributes=dict(attributes))
    span.ended_at = end
    return span


def _export_tree(analyzer, spans):
    """Hand the analyzer one whole trace, root last (finish order)."""
    analyzer.export(sorted(spans, key=lambda s: s.parent_id is None))


class TestDecomposition:
    def test_simple_instance_splits_exactly(self):
        analyzer = CriticalPathAnalyzer()
        root = _span("rule", "t1", None, 0.0, 1.0, rule="r1",
                     queue_wait=0.5)
        phase = _span("phase:query", "t1", root.span_id, 0.1, 0.9)
        request = _span("grh.request", "t1", phase.span_id, 0.2, 0.8,
                        pool_wait=0.1)
        service = _span("service.query", "t1", request.span_id, 0.3, 0.6)
        _export_tree(analyzer, [service, request, phase, root])
        assert analyzer.instances == 1
        assert analyzer.selfcheck_failed == 0
        view = analyzer.snapshot()
        # wall = 1.0 duration + 0.5 queue = 1.5s
        assert view["wall"]["p50_ms"] == pytest.approx(1500.0)
        phases = view["phases"]
        assert phases["queue_wait"]["p50_ms"] == pytest.approx(500.0)
        assert phases["engine"]["p50_ms"] == pytest.approx(200.0)
        assert phases["query"]["p50_ms"] == pytest.approx(200.0)
        assert phases["pool_wait"]["p50_ms"] == pytest.approx(100.0)
        assert phases["service"]["p50_ms"] == pytest.approx(300.0)
        assert phases["network"]["p50_ms"] == pytest.approx(200.0)

    def test_waits_clamped_into_request_budget(self):
        """Hedge branches may jointly over-report; clamping keeps the
        sum exact."""
        analyzer = CriticalPathAnalyzer()
        root = _span("rule", "t2", None, 0.0, 1.0, rule="r1")
        phase = _span("phase:query", "t2", root.span_id, 0.0, 1.0)
        request = _span("grh.request", "t2", phase.span_id, 0.0, 0.5,
                        hedge_wait=0.4, retry_backoff=9.0)
        _export_tree(analyzer, [request, phase, root])
        assert analyzer.selfcheck_failed == 0
        view = analyzer.snapshot()
        # waits clamp in WAIT_KINDS order: retry_backoff (9s claimed)
        # absorbs the whole 0.5s request, hedge_wait gets nothing
        assert view["phases"]["retry_backoff"]["p50_ms"] == \
            pytest.approx(500.0)
        assert "hedge_wait" not in view["phases"]
        assert "network" not in view["phases"]

    def test_fetch_spans_without_children_land_in_network(self):
        analyzer = CriticalPathAnalyzer()
        root = _span("rule", "t3", None, 0.0, 0.6, rule="r2")
        phase = _span("phase:query", "t3", root.span_id, 0.0, 0.5)
        fetch = _span("grh.fetch", "t3", phase.span_id, 0.1, 0.4)
        _export_tree(analyzer, [fetch, phase, root])
        view = analyzer.snapshot()
        assert view["phases"]["network"]["p50_ms"] == pytest.approx(300.0)

    def test_dominant_phase_and_shares(self):
        analyzer = CriticalPathAnalyzer()
        root = _span("rule", "t4", None, 0.0, 1.0, rule="r1")
        phase = _span("phase:action", "t4", root.span_id, 0.0, 0.9)
        _export_tree(analyzer, [phase, root])
        view = analyzer.snapshot()
        assert view["dominant_phase"] == "action"
        assert view["shares"]["action"] == pytest.approx(0.9)
        assert sum(view["shares"].values()) == pytest.approx(1.0)

    def test_selfcheck_flags_unattributed_time(self):
        """A phase span missing from the tree (lost export) must be
        caught by the self-check, not silently absorbed."""
        analyzer = CriticalPathAnalyzer()
        root = _span("rule", "t5", None, 0.0, 1.0, rule="r1",
                     queue_wait=-3.0)       # negative: clamped to 0
        # claim a wall of 1.0s but attach a phase of only 0.2s — the
        # engine remainder absorbs it, so this one stays in tolerance …
        phase = _span("phase:event", "t5", root.span_id, 0.0, 0.2)
        _export_tree(analyzer, [phase, root])
        assert analyzer.selfcheck_ok == 1
        # … but a request OUTLIVING its phase cannot be absorbed:
        # attributed > wall by more than tolerance
        root2 = _span("rule", "t6", None, 0.0, 0.1, rule="r1")
        phase2 = _span("phase:event", "t6", root2.span_id, 0.0, 0.5)
        _export_tree(analyzer, [phase2, root2])
        assert analyzer.selfcheck_failed == 1

    def test_rule_lru_is_bounded(self):
        analyzer = CriticalPathAnalyzer(max_rules=4)
        for n in range(10):
            root = _span("rule", f"lru{n}", None, 0.0, 0.01, rule=f"r{n}")
            _export_tree(analyzer, [root])
        assert len(analyzer.snapshot()["rules"]) == 4

    def test_rootless_fragments_are_skipped(self):
        analyzer = CriticalPathAnalyzer()
        for n in range(8):
            analyzer.export([_span("phase:event", f"orph{n}", "missing",
                                   0.0, 0.1)])
        assert analyzer.instances == 0
        assert analyzer.evicted == 8
        assert analyzer.snapshot()["evicted_traces"] == 8

    def test_service_records_count_as_service_time(self):
        analyzer = CriticalPathAnalyzer()
        root = _span("rule", "t7", None, 0.0, 1.0, rule="r1")
        phase = _span("phase:query", "t7", root.span_id, 0.0, 1.0)
        request = _span("grh.request", "t7", phase.span_id, 0.0, 0.8)
        request.add_records([("service:query", "xq", "ok", 0.5)])
        request.add_records([("sparql:scan", "xq", "ok", 0.1)])
        _export_tree(analyzer, [request, phase, root])
        phases = analyzer.snapshot()["phases"]
        assert phases["service"]["p50_ms"] == pytest.approx(600.0)
        assert phases["network"]["p50_ms"] == pytest.approx(200.0)

    def test_budget_histograms_feed_metrics(self):
        registry = MetricsRegistry()
        analyzer = CriticalPathAnalyzer()
        analyzer.bind_metrics(registry)
        root = _span("rule", "m1", None, 0.0, 1.0, rule="r1")
        _export_tree(analyzer, [root])
        text = registry.render_prometheus()
        assert 'eca_latency_budget_seconds_count{phase="engine"} 1' in text
        assert 'eca_latency_selfcheck_total{outcome="ok"} 1' in text


class TestDifferentialSelfCheck:
    """Seeds 0–2, sync and 4-worker engines: the decomposition's
    arithmetic holds for every real instance the engine produces."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workers", [None, 4])
    def test_phases_sum_to_wall(self, seed, workers):
        config = WorkloadConfig(persons=10, fleet_size=8, cities=3,
                                seed=seed)
        obs = Observability(critical=True)
        runtime = Runtime(workers=workers) if workers else None
        run_workload(config, 12, runtime=runtime, observability=obs)
        analyzer = obs.critical
        assert analyzer.instances > 0
        assert analyzer.selfcheck_failed == 0, \
            f"{analyzer.selfcheck_failed}/{analyzer.instances} instances " \
            f"out of tolerance: {analyzer.snapshot()}"
        assert analyzer.evicted == 0
        obs.close()

    def test_concurrent_run_reports_queue_wait(self):
        """Under a worker pool the budget includes nonzero queue wait
        for at least some instances (the pool stamps the root)."""
        obs = Observability(critical=True)
        run_workload(WorkloadConfig(persons=10, fleet_size=8, cities=3),
                     30, runtime=Runtime(workers=2), observability=obs)
        phases = obs.critical.snapshot()["phases"]
        assert "queue_wait" in phases
        obs.close()


class TestIntrospectionRoutes:
    def _engine(self, **obs_kwargs):
        obs = Observability(**obs_kwargs)
        deployment, engine = build_world(observability=obs)
        return deployment, engine, obs

    def test_latency_route(self):
        deployment, engine, obs = self._engine(critical=True)
        try:
            surface = IntrospectionSurface(engine, obs)
            status, view = surface.handle("/introspect/latency")
            assert status == 200
            assert view["enabled"] is True
            assert view["instances"] == 0
            for phase in view["phases"]:
                assert phase in BUDGET_PHASES
        finally:
            engine.shutdown(5)
            obs.close()

    def test_latency_route_disabled(self):
        deployment, engine, obs = self._engine()
        try:
            surface = IntrospectionSurface(engine, obs)
            status, view = surface.handle("/introspect/latency")
            assert status == 200
            assert view == {"enabled": False}
        finally:
            engine.shutdown(5)
            obs.close()

    def test_profile_route_snapshot_and_capture(self):
        from repro.obs import SamplingProfiler

        deployment, engine, obs = self._engine(
            profiler=SamplingProfiler(hz=200.0))
        try:
            surface = IntrospectionSurface(engine, obs)
            status, view = surface.handle("/introspect/profile")
            assert status == 200
            assert view["enabled"] is True and view["running"]
            status, view = surface.handle(
                "/introspect/profile",
                {"seconds": "0.1", "format": "folded"})
            assert status == 200
            assert "folded" in view
            status, view = surface.handle("/introspect/profile",
                                          {"seconds": "bogus"})
            assert status == 400
        finally:
            engine.shutdown(5)
            obs.close()

    def test_profile_route_disabled(self):
        deployment, engine, obs = self._engine()
        try:
            surface = IntrospectionSurface(engine, obs)
            status, view = surface.handle("/introspect/profile")
            assert status == 200
            assert view == {"enabled": False}
        finally:
            engine.shutdown(5)
            obs.close()

    def test_wait_kinds_are_budget_phases(self):
        for kind in WAIT_KINDS:
            assert kind in BUDGET_PHASES
