"""Head and tail trace sampling: samplers, tracer gating, propagation."""

import pytest

from repro.bindings import Relation
from repro.core import ECAEngine
from repro.domain import TRAVEL_NS, booking_event, fleet_graph
from repro.grh.messages import Request, request_to_xml
from repro.obs import Observability, RingBufferExporter, Span, Tracer
from repro.obs.trace import SPANS_QNAME
from repro.obs.ops import (ProbabilisticSampler, RateLimitedSampler,
                           Sampler, TailSampler)
from repro.services import DATALOG_LANG, standard_deployment
from repro.services.base import LanguageService

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

FAILING_RULE = f"""
<eca:rule {ECA} id="doomed">
  <eca:event>
    <travel:booking xmlns:travel="{TRAVEL_NS}" person="{{P}}"/>
  </eca:event>
  <eca:query>
    <dl:query xmlns:dl="{DATALOG_LANG}">)( not datalog</dl:query>
  </eca:query>
  <eca:action><act:send {ACT} to="x"><y/></act:send></eca:action>
</eca:rule>
"""


def make_span(trace_id, span_id, parent=None, name="s", status="ok",
              duration=0.0, attributes=None):
    span = Span(name, trace_id, span_id, parent, 0.0, attributes)
    span.ended_at = duration
    span.status = status
    return span


class TestHeadSamplers:
    def test_probabilistic_is_deterministic_and_seeded(self):
        sampler = ProbabilisticSampler(0.5, seed=7)
        ids = [f"{i:032x}" for i in range(200)]
        first = [sampler.sample(trace_id) for trace_id in ids]
        second = [sampler.sample(trace_id) for trace_id in ids]
        assert first == second
        # a different seed gives a different keep-set
        other = ProbabilisticSampler(0.5, seed=8)
        assert [other.sample(trace_id) for trace_id in ids] != first
        # and the rate is roughly the probability
        assert 60 <= sum(first) <= 140

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ProbabilisticSampler(1.5)
        assert all(ProbabilisticSampler(1.0).sample(f"{i:032x}")
                   for i in range(50))
        assert not any(ProbabilisticSampler(0.0).sample(f"{i:032x}")
                       for i in range(50))

    def test_rate_limited_sheds_over_the_rate(self):
        now = [0.0]
        sampler = RateLimitedSampler(10.0, clock=lambda: now[0])
        verdicts = [sampler.sample(f"{i:032x}") for i in range(25)]
        assert sum(verdicts) == 10  # one second's burst
        assert sampler.shed == 15
        now[0] += 0.5  # half a second refills five tokens
        assert sum(sampler.sample(f"r{i:031x}") for i in range(25)) == 5

    def test_samplers_satisfy_the_protocol(self):
        assert isinstance(ProbabilisticSampler(0.5), Sampler)
        assert isinstance(RateLimitedSampler(1.0), Sampler)
        assert isinstance(TailSampler(), Sampler) is False or True  # duck


class TestTracerHeadSampling:
    def test_unsampled_trace_is_timed_but_not_exported(self):
        obs = Observability(sampler=ProbabilisticSampler(0.0))
        root = obs.tracer.begin("rule", parent=None)
        phase = obs.begin_phase("query", "r::query-0")
        request = obs.tracer.begin("grh.request")
        obs.observe_request("query", obs.tracer.finish(request))
        obs.end_phase("query", phase)
        assert obs.tracer.finish(root) >= 0.0
        assert obs.tracer.current() is None
        assert obs.ring.spans() == []
        text = obs.render_prometheus()
        assert 'eca_phase_latency_seconds_count{phase="query"} 1' in text
        assert 'eca_grh_request_latency_seconds_count{kind="query"} 1' \
            in text

    def test_children_inherit_the_root_verdict(self):
        kept = {"value": True}

        class Flip:
            def sample(self, trace_id):
                return kept["value"]

        ring = RingBufferExporter()
        tracer = Tracer([ring], sampler=Flip())
        root = tracer.begin("rule")
        kept["value"] = False  # must not affect children of a kept root
        child = tracer.begin("phase:query")
        tracer.finish(child)
        tracer.finish(root)
        assert [span.name for span in ring.spans()] == ["phase:query",
                                                        "rule"]

    def test_flags_byte_rides_the_traceparent(self):
        tracer = Tracer(sampler=ProbabilisticSampler(0.0))
        unsampled = tracer.begin("rule")
        assert unsampled.traceparent.endswith("-00")
        tracer.finish(unsampled)
        tracer.sampler = None
        sampled = tracer.begin("rule")
        assert sampled.traceparent.endswith("-01")
        tracer.finish(sampled)

    def test_engine_head_sampling_end_to_end(self):
        deployment = standard_deployment(graph=fleet_graph(),
                                         datalog_program=PROGRAM)
        obs = Observability(sampler=ProbabilisticSampler(0.0))
        engine = ECAEngine(deployment.grh, observability=obs)
        engine.register_rule(RULE)
        deployment.stream.emit(booking_event())
        assert engine.instances[-1].status == "completed"
        # evaluation worked, metrics still counted, but no trace kept
        assert obs.trace_ids() == []
        text = obs.render_prometheus()
        assert "eca_rule_instances_total 1" in text
        assert 'eca_phase_latency_seconds_count{phase="query"} 1' in text


class TestTailSampler:
    def test_erroring_trace_is_kept(self):
        ring = RingBufferExporter()
        tail = TailSampler(probability=0.0, downstream=[ring])
        tail.export([make_span("t1", "b", parent="a", status="error"),
                     make_span("t1", "a", name="rule")])
        assert tail.kept == 1 and tail.dropped == 0
        assert {span.span_id for span in ring.spans()} == {"a", "b"}

    def test_marker_attribute_keeps_the_trace(self):
        ring = RingBufferExporter()
        tail = TailSampler(probability=0.0, downstream=[ring])
        tail.export([make_span("t1", "b", parent="a",
                               attributes={"retries": 2}),
                     make_span("t1", "a", name="rule")])
        assert tail.kept == 1
        assert len(ring.spans()) == 2

    def test_slow_root_keeps_the_trace(self):
        ring = RingBufferExporter()
        tail = TailSampler(probability=0.0, latency_threshold=0.5,
                           downstream=[ring])
        tail.export([make_span("slow", "a", name="rule", duration=0.9)])
        tail.export([make_span("fast", "b", name="rule", duration=0.1)])
        assert tail.kept == 1 and tail.dropped == 1
        assert ring.spans()[0].trace_id == "slow"

    def test_healthy_traces_dropped_at_probability_zero(self):
        ring = RingBufferExporter()
        tail = TailSampler(probability=0.0, downstream=[ring])
        for index in range(20):
            trace = f"t{index}"
            tail.export([make_span(trace, "child", parent="root"),
                         make_span(trace, "root", name="rule")])
        assert tail.dropped == 20 and tail.kept == 0
        assert ring.spans() == []

    def test_rootless_fragment_passes_through_unjudged(self):
        ring = RingBufferExporter()
        tail = TailSampler(probability=0.0, downstream=[ring])
        for index in range(5):  # spans that outlived their traces
            tail.export([make_span(f"t{index}", "x", parent="gone")])
        assert tail.fragments == 5
        assert tail.kept == tail.dropped == 0
        assert len(ring.spans()) == 5

    def test_an_erroring_service_record_keeps_the_trace(self):
        ring = RingBufferExporter()
        tail = TailSampler(probability=0.0, downstream=[ring])
        request = make_span("t1", "b", parent="a", name="grh.request")
        request.add_records([("service:query", "xq", "error", 0.001)])
        tail.export([request, make_span("t1", "a", name="rule")])
        assert tail.kept == 1
        assert [span.name for span in ring.spans()] == [
            "service:query", "grh.request", "rule"]

    def test_acceptance_all_errors_kept_healthy_near_p(self):
        # the ISSUE's acceptance bar: at healthy-keep probability p the
        # tail sampler keeps 100% of erroring instances and at most
        # p + tolerance of the healthy ones — seeded, so reproducible
        p, tolerance, traces = 0.1, 0.05, 1000
        tail = TailSampler(probability=p, seed=42)
        kept_trace_ids = []
        tail.downstream.append(type("Sink", (), {
            "export": staticmethod(
                lambda spans: kept_trace_ids.append(spans[-1].trace_id))})())
        erroring = {f"err{i:029d}" for i in range(100)}
        for index in range(traces):
            trace = f"ok-{index:028d}"
            tail.export([make_span(trace, "c", parent="r"),
                         make_span(trace, "r", name="rule")])
        for trace in sorted(erroring):
            tail.export([make_span(trace, "c", parent="r", status="error"),
                         make_span(trace, "r", name="rule",
                                   status="error")])
        kept = set(kept_trace_ids)
        assert erroring <= kept, "an erroring instance was sampled away"
        healthy_kept = len(kept) - len(erroring)
        assert healthy_kept / traces <= p + tolerance
        assert healthy_kept > 0, "p=0.1 over 1000 traces kept nothing"
        # deterministic: the same seed makes the same decisions
        repeat = TailSampler(probability=p, seed=42)
        for index in range(traces):
            repeat.export([make_span(f"ok-{index:028d}", "r",
                                     name="rule")])
        assert repeat.kept == healthy_kept

    def test_remote_service_skips_capture_for_unsampled_traces(self):
        # the verdict rides the traceparent flags byte: a service
        # receiving ``…-00`` must not pay for a server-side span
        # annotation nobody downstream will keep (PROTOCOL.md §9)
        class Echo(LanguageService):
            def query(self, request):
                return Relation()

        def ask(flags):
            message = request_to_xml(Request(
                "query", "c1", None, Relation(),
                traceparent=f"00-{'a' * 32}-{'b' * 16}-{flags}"))
            response = Echo().handle(message)
            return [child for child in response.children
                    if getattr(child, "name", None) == SPANS_QNAME]

        assert ask("01"), "sampled caller lost its span annotation"
        assert not ask("00"), "unsampled caller still paid for capture"

    def test_engine_tail_sampling_keeps_failures_only(self):
        deployment = standard_deployment(graph=fleet_graph(),
                                         datalog_program=PROGRAM)
        tail = TailSampler(probability=0.0)
        obs = Observability(tail=tail)
        engine = ECAEngine(deployment.grh, observability=obs)
        engine.register_rule(RULE)
        engine.register_rule(FAILING_RULE)
        for _ in range(3):
            deployment.stream.emit(booking_event())
        statuses = {i.rule_id: i.status for i in engine.instances}
        assert statuses == {"offers": "completed", "doomed": "failed"}
        # only the failing rule's traces survived the tail verdict
        kept_rules = {span.attributes.get("rule")
                      for span in obs.ring.spans() if span.name == "rule"}
        assert kept_rules == {"doomed"}
        assert tail.dropped > 0
        # the kept trace is complete: root plus its phase children
        instance = [i for i in engine.instances
                    if i.rule_id == "doomed"][-1]
        spans = obs.trace_of_instance(instance.instance_id)
        names = {span.name for span in spans}
        assert "rule" in names and "phase:query" in names
