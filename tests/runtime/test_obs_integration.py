"""Observability over the concurrent runtime: metrics, probes, views."""

from repro.obs import Observability
from repro.obs.ops import INTROSPECTION_ROUTES, IntrospectionSurface
from repro.runtime import Runtime

from .harness import build_world, run_workload
from repro.domain import WorkloadConfig


def _observed_world(runtime):
    obs = Observability()
    deployment, engine = build_world(runtime, observability=obs)
    return deployment, engine, obs


class TestRuntimeMetrics:
    def test_pool_metrics_render(self):
        _, engine, obs = _observed_world(Runtime(workers=2))
        try:
            text = obs.render_prometheus()
        finally:
            engine.shutdown(5)
        assert "eca_runtime_queue_depth" in text
        assert "eca_runtime_worker_utilization" in text
        assert 'eca_runtime_accepting 1' in text
        assert 'outcome="submitted"' in text

    def test_queue_wait_histogram_observes_real_work(self):
        obs = Observability()
        effects = run_workload(WorkloadConfig(seed=7), 10,
                               runtime=Runtime(workers=2),
                               observability=obs)
        assert effects
        text = obs.render_prometheus()
        assert "eca_runtime_queue_wait_seconds_count" in text
        count = [line for line in text.splitlines()
                 if line.startswith("eca_runtime_queue_wait_seconds_count")]
        assert count and float(count[0].split()[-1]) > 0


class TestRuntimeAdminSurface:
    def test_route_is_registered(self):
        assert "/introspect/runtime" in INTROSPECTION_ROUTES

    def test_runtime_view_sync_engine(self):
        _, engine = build_world()
        assert IntrospectionSurface(engine).runtime() == \
            {"concurrent": False}

    def test_runtime_view_concurrent_engine(self):
        _, engine, _ = _observed_world(
            Runtime(workers=3, queue_capacity=64))
        try:
            status, view = IntrospectionSurface(engine).handle(
                "/introspect/runtime")
        finally:
            engine.shutdown(5)
        assert status == 200
        assert view["concurrent"] is True
        assert view["workers"] == 3
        assert view["queue_capacity"] == 64
        assert view["backpressure"] == "block"
        assert len(view["queue_depths"]) == 3
        assert len(view["utilization"]) == 3
        assert "submitted" in view["counters"]

    def test_readyz_reflects_admission_gate(self):
        _, engine, _ = _observed_world(Runtime(workers=2))
        surface = IntrospectionSurface(engine)
        status, payload = surface.readyz()
        assert status == 200
        assert payload["checks"]["runtime_accepting"] is True
        engine.shutdown(5)
        status, payload = surface.readyz()
        assert status == 503
        assert payload["checks"]["runtime_accepting"] is False
