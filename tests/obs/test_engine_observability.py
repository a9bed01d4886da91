"""Observability wired into a full engine: traces, metrics, switches."""

from repro.core import ECAEngine
from repro.domain import TRAVEL_NS, booking_event, fleet_graph
from repro.obs import Observability
from repro.services import DATALOG_LANG, standard_deployment

ECA = 'xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml"'
ACT = 'xmlns:act="http://www.semwebtech.org/languages/2006/actions"'

PROGRAM = """
    owns("John Doe", "Golf"). owns("John Doe", "Passat").
    class("Golf", "B"). class("Passat", "C").
    owned_class(P, K) :- owns(P, C), class(C, K).
"""

RULE = f"""
<eca:rule {ECA} id="offers">
  <eca:event>
    <travel:booking xmlns:travel="{TRAVEL_NS}"
                    person="{{Person}}" to="{{To}}"/>
  </eca:event>
  <eca:query>
    <dl:query xmlns:dl="{DATALOG_LANG}">owned_class("{{Person}}", Class)</dl:query>
  </eca:query>
  <eca:action>
    <act:send {ACT} to="offers"><offer class="{{Class}}"/></act:send>
  </eca:action>
</eca:rule>
"""


def run_once(observability):
    deployment = standard_deployment(graph=fleet_graph(),
                                     datalog_program=PROGRAM)
    engine = ECAEngine(deployment.grh, observability=observability)
    engine.register_rule(RULE)
    deployment.stream.emit(booking_event())
    return engine


class TestTraceShape:
    def test_one_stitched_trace_per_instance(self):
        obs = Observability()
        engine = run_once(obs)
        instance = engine.instances[-1]
        assert instance.status == "completed"
        spans = obs.trace_of_instance(instance.instance_id)
        assert spans, "the rule instance left no trace"
        # every span of the evaluation shares the root's trace id
        assert len({span.trace_id for span in spans}) == 1
        names = [span.name for span in spans]
        (root,) = [span for span in spans if span.name == "rule"]
        assert root.parent_id is None
        assert root.attributes["rule"] == "offers"
        assert root.attributes["status"] == "completed"
        assert "phase:event" in names
        assert "phase:query" in names
        assert "phase:action" in names
        assert "grh.request" in names

    def test_remote_service_spans_are_adopted(self):
        obs = Observability()
        engine = run_once(obs)
        spans = obs.trace_of_instance(engine.instances[-1].instance_id)
        remote = [span for span in spans if span.remote]
        assert remote, "no server-side spans were adopted"
        by_id = {span.span_id: span for span in spans}
        for span in remote:
            assert span.name.startswith("service:")
            # parented under the grh.request that reached the service
            assert by_id[span.parent_id].name == "grh.request"

    def test_phase_spans_nest_under_the_rule_root(self):
        obs = Observability()
        engine = run_once(obs)
        spans = obs.trace_of_instance(engine.instances[-1].instance_id)
        (root,) = [span for span in spans if span.name == "rule"]
        for span in spans:
            if span.name.startswith("phase:"):
                assert span.parent_id == root.span_id

    def test_render_shows_the_tree(self):
        obs = Observability()
        run_once(obs)
        text = obs.render()
        lines = text.splitlines()
        assert lines[0].startswith("rule ")
        assert any(line.startswith("  phase:query") for line in lines)
        assert any("service:query" in line and "remote" in line
                   for line in lines)

    def test_jsonl_export(self, tmp_path):
        import json
        path = str(tmp_path / "trace.jsonl")
        obs = Observability(trace_jsonl=path)
        run_once(obs)
        obs.close()
        records = [json.loads(line) for line in open(path)]
        assert any(record["name"] == "rule" for record in records)


class TestMetrics:
    def test_exposition_covers_engine_grh_and_resilience(self):
        obs = Observability()
        run_once(obs)
        text = obs.render_prometheus()
        assert "eca_detections_total 1" in text
        assert "eca_rule_instances_total 1" in text
        assert 'eca_instances_total{status="completed"} 1' in text
        assert "eca_actions_total 2" in text
        assert "eca_registered_rules 1" in text
        assert 'eca_phase_latency_seconds_count{phase="query"} 1' in text
        assert 'eca_phase_latency_seconds_count{phase="action"} 1' in text
        assert 'eca_grh_request_latency_seconds_count{kind="query"} 1' \
            in text
        assert "eca_retries_total 0" in text
        assert "eca_dead_letters 0" in text
        assert 'eca_breaker_state{endpoint="svc:datalog"} 0.0' in text
        assert ('eca_service_requests_total{endpoint="svc:datalog",'
                'outcome="successes"} 1') in text

    def test_failed_instance_marks_span_and_counters(self):
        deployment = standard_deployment(datalog_program="p(1).")
        obs = Observability()
        engine = ECAEngine(deployment.grh, observability=obs)
        engine.register_rule(f"""
<eca:rule {ECA} id="doomed">
  <eca:event><travel:booking xmlns:travel="{TRAVEL_NS}"
                             person="{{P}}"/></eca:event>
  <eca:query>
    <dl:query xmlns:dl="{DATALOG_LANG}">)( not datalog</dl:query>
  </eca:query>
  <eca:action>
    <act:send {ACT} to="x"><y/></act:send>
  </eca:action>
</eca:rule>
""")
        deployment.stream.emit(booking_event())
        instance = engine.instances[-1]
        assert instance.status == "failed"
        spans = obs.trace_of_instance(instance.instance_id)
        (root,) = [span for span in spans if span.name == "rule"]
        assert root.status == "error"
        assert 'eca_instances_total{status="failed"} 1' in \
            obs.render_prometheus()

    def test_durability_metrics_when_journaling(self, tmp_path):
        from repro.durability import DurabilityManager
        deployment = standard_deployment(graph=fleet_graph(),
                                         datalog_program=PROGRAM)
        obs = Observability()
        durability = DurabilityManager(str(tmp_path), sync="commit",
                                       checkpoint_interval=10 ** 9)
        engine = ECAEngine(deployment.grh, durability=durability,
                           observability=obs)
        engine.register_rule(RULE)
        deployment.stream.emit(booking_event())
        durability.checkpoint()
        text = obs.render_prometheus()
        assert "eca_journal_records_total" in text
        assert "eca_in_flight_detections 0" in text
        # fsync + checkpoint latency histograms actually observed
        assert "eca_journal_fsync_seconds_count 0" not in text
        assert "eca_checkpoint_seconds_count 1" in text
        engine.durability.close()


class TestSwitches:
    def test_default_engine_has_no_observability(self):
        engine = run_once(None)
        assert engine.observability is None
        assert engine._obs is None

    def test_disabled_observability_records_nothing(self):
        obs = Observability(enabled=False)
        engine = run_once(obs)
        assert engine.instances[-1].status == "completed"
        assert engine._obs is None
        assert obs.trace_ids() == []
        assert obs.render() == ""
        # the handle stays usable: no-op tracer, empty registry render
        span = obs.tracer.begin("x")
        obs.tracer.finish(span)
        assert obs.render_prometheus().endswith("\n")

    def test_shared_registry_between_engines(self):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        run_once(Observability(metrics=registry))
        run_once(Observability(metrics=registry))
        # the second install re-bound the callbacks to the newer engine
        assert "eca_detections_total 1" in registry.render_prometheus()

    def test_trace_buffer_is_bounded(self):
        obs = Observability(trace_buffer=4)
        deployment = standard_deployment(graph=fleet_graph(),
                                         datalog_program=PROGRAM)
        engine = ECAEngine(deployment.grh, observability=obs)
        engine.register_rule(RULE)
        for _ in range(5):
            deployment.stream.emit(booking_event())
        assert len(obs.ring) == 4


class TestInstanceLookup:
    def test_trace_of_unknown_instance_is_empty(self):
        obs = Observability()
        run_once(obs)
        assert obs.trace_of_instance(999) == []

    def test_trace_ids_one_per_instance(self):
        obs = Observability()
        deployment = standard_deployment(graph=fleet_graph(),
                                         datalog_program=PROGRAM)
        engine = ECAEngine(deployment.grh, observability=obs)
        engine.register_rule(RULE)
        deployment.stream.emit(booking_event())
        deployment.stream.emit(booking_event())
        # one trace per rule instance (event *registration* also traces,
        # as a root of its own — without a rule span)
        rule_traces = {span.trace_id for span in obs.ring.spans()
                       if span.name == "rule"}
        assert len(rule_traces) == 2
        assert len(obs.trace_ids()) == 3
