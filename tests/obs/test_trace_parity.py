"""Trace parity: what one booking of the running example leaves behind.

The paper's running example (booking → Datalog ownership query →
SPARQL fleet query → offer action) is driven once with
``Observability()``, and everything a reader of the trace can see is
pinned: the ring buffer's spans as a multiset of ``(name, parent name,
status, attribute keys, remote)``, the rendered tree, the JSONL lines
and the phase/request latency histogram counts.  The same booking over
a real HTTP hop (``PooledHttpTransport`` inside ``HybridTransport``)
must still come back as one stitched trace.  The figures are the
tracer's contract, so a refactor of how spans are built or handed to
exporters must leave every one of them unchanged.
"""

import json
import re
from collections import Counter

import pytest

from repro.actions import ACTION_NS, ActionRuntime
from repro.conditions import TEST_NS
from repro.core import ECAEngine
from repro.domain import (CAR_RENTAL_RULE, TRAVEL_NS, booking_event,
                          classes_document, fleet_document, fleet_graph,
                          persons_document)
from repro.events import ATOMIC_NS, EventStream
from repro.grh import (GenericRequestHandler, LanguageDescriptor,
                       LanguageRegistry)
from repro.obs import Observability, WAIT_KINDS, render_trace
from repro.services import (ActionExecutionService, AtomicEventService,
                            DATALOG_LANG, EXIST_LANG, ExistLikeService,
                            HttpServiceServer, HybridTransport, SPARQL_LANG,
                            TestLanguageService, XQ_LANG, XQService,
                            standard_deployment)
from repro.xmlmodel import ECA_NS

ECA = f'xmlns:eca="{ECA_NS}"'
ACT = f'xmlns:act="{ACTION_NS}"'
FLEET_PREFIX = "http://example.org/fleet#"

PROGRAM = """
    owns("John Doe", "Golf"). owns("John Doe", "Passat").
    owns("Jane Roe", "Clio").
    class("Clio", "A"). class("Golf", "B"). class("Polo", "B").
    class("Passat", "C"). class("Espace", "D").
    owned_class(P, K) :- owns(P, C), class(C, K).
"""

PAPER_RULE = f"""
<eca:rule {ECA} id="offers">
  <eca:event>
    <travel:booking xmlns:travel="{TRAVEL_NS}"
                    person="{{Person}}" to="{{To}}"/>
  </eca:event>
  <eca:query>
    <dl:query xmlns:dl="{DATALOG_LANG}">owned_class("{{Person}}", Class)</dl:query>
  </eca:query>
  <eca:query>
    <sp:select xmlns:sp="{SPARQL_LANG}">
      SELECT ?Avail ?Class WHERE {{
        ?c fleet:location '{{To}}' ;
           fleet:model ?Avail ; fleet:carClass ?Class .
      }}
    </sp:select>
  </eca:query>
  <eca:action>
    <act:send {ACT} to="offers"><offer car="{{Avail}}"/></act:send>
  </eca:action>
</eca:rule>
"""

REQUEST = ("component", "kind", "language", "tuples")
SERVICE = ("service",)

#: one booking's trace: (name, parent name, status, attribute keys,
#: remote) → count.  The SPARQL service reports one record per plan
#: stage, the other co-located services one per request.
IN_PROCESS_SPANS = Counter({
    ("rule", None, "ok", ("instance", "rule", "status"), False): 1,
    ("phase:event", "rule", "ok", ("component", "tuples"), False): 1,
    ("phase:query", "rule", "ok", ("component", "tuples"), False): 2,
    ("phase:action", "rule", "ok", ("component",), False): 1,
    ("grh.request", "phase:query", "ok", REQUEST, False): 2,
    ("grh.request", "phase:action", "ok", REQUEST, False): 1,
    ("service:query", "grh.request", "ok", SERVICE, True): 2,
    ("service:action", "grh.request", "ok", SERVICE, True): 1,
    ("sparql:scan", "grh.request", "ok", SERVICE, True): 6,
})

#: the car-rental rule with XQ-lite behind HTTP (it annotates its
#: server-side span onto the reply) and eXist-like behind plain GETs
#: (framework-unaware: client-side ``grh.fetch`` spans only)
HTTP_SPANS = Counter({
    ("rule", None, "ok", ("instance", "rule", "status"), False): 1,
    ("phase:event", "rule", "ok", ("component", "tuples"), False): 1,
    ("phase:query", "rule", "ok", ("component", "tuples"), False): 3,
    ("phase:action", "rule", "ok", ("component",), False): 1,
    ("grh.request", "phase:query", "ok", REQUEST, False): 1,
    ("grh.fetch", "phase:query", "ok", ("language",), False): 4,
    ("grh.request", "phase:action", "ok", REQUEST, False): 1,
    ("service:query", "grh.request", "ok", SERVICE, True): 1,
    ("service:action", "grh.request", "ok", SERVICE, True): 1,
})


def shape(spans):
    """The multiset of what each span shows; wait attributes are
    timing-dependent (a zero wait is not recorded), so they are left
    out."""
    by_id = {span.span_id: span for span in spans}
    return Counter(
        (span.name,
         by_id[span.parent_id].name if span.parent_id is not None else None,
         span.status,
         tuple(sorted(set(span.attributes).difference(WAIT_KINDS))),
         span.remote)
        for span in spans)


def skeleton(text):
    """A rendered tree without its timings and attribute values."""
    return [re.sub(r" [\d.]+ms.*$", "", line) for line in text.splitlines()]


def histogram_counts(obs, family, label):
    pattern = re.compile(
        rf'^{family}_count{{{label}="([^"]+)"}} (\S+)$', re.M)
    return {key: float(value) for key, value
            in pattern.findall(obs.render_prometheus())}


@pytest.fixture
def booked(tmp_path):
    path = tmp_path / "spans.jsonl"
    obs = Observability(trace_jsonl=str(path))
    deployment = standard_deployment(graph=fleet_graph(),
                                     datalog_program=PROGRAM)
    deployment.sparql.prefixes["fleet"] = FLEET_PREFIX
    engine = ECAEngine(deployment.grh, observability=obs)
    engine.register_rule(PAPER_RULE)
    deployment.stream.emit(booking_event())
    obs.close()
    yield engine, obs, path
    engine.shutdown()


class TestInProcessParity:
    def test_ring_holds_the_seventeen_spans(self, booked):
        engine, obs, _ = booked
        assert engine.instances[-1].status == "completed"
        (registration, booking) = obs.trace_ids()
        assert [span.name for span in obs.trace(registration)] == [
            "service:register-event", "grh.request"]
        spans = obs.trace(booking)
        assert len(spans) == 17
        assert shape(spans) == IN_PROCESS_SPANS
        assert len({span.span_id for span in spans}) == 17
        assert len(obs.ring.spans()) == 19

    def test_instance_lookup_returns_the_whole_trace(self, booked):
        engine, obs, _ = booked
        spans = obs.trace_of_instance(engine.instances[-1].instance_id)
        assert shape(spans) == IN_PROCESS_SPANS
        assert obs.trace_ids()[-1] == spans[0].trace_id
        assert shape(obs.trace(spans[0].trace_id)) == IN_PROCESS_SPANS

    def test_rendered_tree(self, booked):
        engine, obs, _ = booked
        assert skeleton(obs.render()) == [
            "rule",
            "  phase:event",
            "  phase:query",
            "    grh.request",
            "      service:query",
            "  phase:query",
            "    grh.request",
            "      sparql:scan",
            "      sparql:scan",
            "      sparql:scan",
            "      sparql:scan",
            "      sparql:scan",
            "      sparql:scan",
            "      service:query",
            "  phase:action",
            "    grh.request",
            "      service:action",
        ]

    def test_jsonl_lines(self, booked):
        engine, obs, path = booked
        records = [json.loads(line, parse_constant=pytest.fail)
                   for line in path.read_text().splitlines()]
        # the rule's registration request is a trace of its own
        assert [record["name"] for record in records[:2]] == [
            "service:register-event", "grh.request"]
        records = records[2:]
        assert len(records) == 17
        by_id = {record["id"]: record for record in records}
        assert Counter(
            (record["name"],
             by_id[record["parent"]]["name"] if record["parent"] else None,
             record["status"], tuple(sorted(record.get("attributes", {}))),
             record.get("remote", False))
            for record in records) == IN_PROCESS_SPANS
        assert records[-1]["name"] == "rule"

    def test_latency_histograms_count_every_phase_and_request(self, booked):
        _, obs, _ = booked
        assert histogram_counts(obs, "eca_phase_latency_seconds",
                                "phase") == {
            "event": 1.0, "query": 2.0, "test": 0.0, "action": 1.0}
        requests = histogram_counts(obs, "eca_grh_request_latency_seconds",
                                    "kind")
        # register-event at rule registration, then the booking's three
        assert {kind: count for kind, count in requests.items()
                if count} == {"register-event": 1.0, "query": 2.0,
                              "action": 1.0}


@pytest.fixture
def over_http():
    obs = Observability()
    registry = LanguageRegistry()
    grh = GenericRequestHandler(registry, HybridTransport())
    stream = EventStream()
    atomic = AtomicEventService(grh.notify)
    atomic.attach(stream)
    grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic-events"),
                    atomic)
    grh.add_service(LanguageDescriptor(TEST_NS, "test", "test"),
                    TestLanguageService())
    grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                    ActionExecutionService(ActionRuntime(event_stream=stream)))
    xq_server = HttpServiceServer(aware_handler=XQService(
        {"persons.xml": persons_document(),
         "fleet.xml": fleet_document()}).handle)
    exist_server = HttpServiceServer(opaque_handler=ExistLikeService(
        {"classes.xml": classes_document(),
         "fleet.xml": fleet_document()}).execute)
    grh.add_remote_language(
        LanguageDescriptor(XQ_LANG, "query", "xquery-lite"),
        xq_server.start())
    grh.add_remote_language(
        LanguageDescriptor(EXIST_LANG, "query", "exist-like",
                           framework_aware=False), exist_server.start())
    engine = ECAEngine(grh, observability=obs)
    try:
        yield engine, obs, stream
    finally:
        engine.shutdown()
        xq_server.stop()
        exist_server.stop()


class TestHttpParity:
    def test_remote_annotation_stitches_one_trace(self, over_http):
        engine, obs, stream = over_http
        engine.register_rule(CAR_RENTAL_RULE)
        stream.emit(booking_event())
        instance = engine.instances[-1]
        assert instance.status == "completed"
        spans = obs.trace_of_instance(instance.instance_id)
        assert len({span.trace_id for span in spans}) == 1
        assert shape(spans) == HTTP_SPANS
        assert render_trace(spans).splitlines()[0].startswith("rule ")
