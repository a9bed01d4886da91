"""Span stitching across a real HTTP round-trip, and /metrics scraping.

The deployment mirrors ``examples/distributed_services.py``: events,
tests and actions co-located with the engine; the XQ-lite query node
behind a real localhost HTTP endpoint (framework-aware, POSTed
``log:request`` messages); the eXist-like node behind plain GETs
(framework-unaware).  One booking then drives the paper's car-rental
rule over the wire — and must come back as ONE trace: the remote node's
server-side spans ride the ``log:spans`` response annotation and are
adopted under the GRH request spans that caused them (PROTOCOL.md §8).
"""

import urllib.request

import pytest

from repro.actions import ACTION_NS, ActionRuntime
from repro.conditions import TEST_NS
from repro.core import ECAEngine
from repro.domain import (CAR_RENTAL_RULE, booking_event, classes_document,
                          fleet_document, persons_document)
from repro.events import ATOMIC_NS, EventStream
from repro.grh import (GenericRequestHandler, LanguageDescriptor,
                       LanguageRegistry)
from repro.obs import Observability
from repro.services import (ActionExecutionService, AtomicEventService,
                            EXIST_LANG, ExistLikeService, HttpServiceServer,
                            HybridTransport, TestLanguageService, XQ_LANG,
                            XQService)


@pytest.fixture
def distributed():
    """(engine, obs, stream, xq_url) with the XQ node over real HTTP."""
    obs = Observability()
    registry = LanguageRegistry()
    grh = GenericRequestHandler(registry, HybridTransport())
    stream = EventStream()
    runtime = ActionRuntime(event_stream=stream)

    atomic = AtomicEventService(grh.notify)
    atomic.attach(stream)
    grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic-events"),
                    atomic)
    grh.add_service(LanguageDescriptor(TEST_NS, "test", "test"),
                    TestLanguageService())
    grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                    ActionExecutionService(runtime))

    xq_node = XQService({"persons.xml": persons_document(),
                         "fleet.xml": fleet_document()})
    exist_node = ExistLikeService({"classes.xml": classes_document(),
                                   "fleet.xml": fleet_document()})
    xq_server = HttpServiceServer(aware_handler=xq_node.handle,
                                  metrics=obs.metrics)
    exist_server = HttpServiceServer(opaque_handler=exist_node.execute)
    xq_url = xq_server.start()
    exist_url = exist_server.start()
    grh.add_remote_language(
        LanguageDescriptor(XQ_LANG, "query", "xquery-lite"), xq_url)
    grh.add_remote_language(
        LanguageDescriptor(EXIST_LANG, "query", "exist-like",
                           framework_aware=False), exist_url)

    engine = ECAEngine(grh, observability=obs)
    try:
        yield engine, obs, stream, xq_url
    finally:
        # closes the pooled client connections, so no server handler
        # thread outlives the test waiting on a keep-alive socket
        engine.shutdown()
        xq_server.stop()
        exist_server.stop()


class TestHttpStitching:
    def test_one_trace_spans_the_wire(self, distributed):
        engine, obs, stream, _ = distributed
        rule_id = engine.register_rule(CAR_RENTAL_RULE)
        stream.emit(booking_event())

        (instance,) = engine.instances_of(rule_id)
        assert instance.status == "completed"
        spans = obs.trace_of_instance(instance.instance_id)
        assert len({span.trace_id for span in spans}) == 1

        (root,) = [span for span in spans if span.name == "rule"]
        assert root.parent_id is None and root.attributes["rule"] == rule_id

        # the XQ node ran in another process-boundary context (real HTTP
        # POST); its server-side span came back in the response and was
        # adopted into the same trace, under the grh.request that sent it
        remote = [span for span in spans if span.remote]
        by_id = {span.span_id: span for span in spans}
        assert all(span.name.startswith("service:") for span in remote)
        # the propagation rides the log: envelope, so the co-located
        # (but still serialized) action service annotates spans too;
        # the XQ node's crossed an actual HTTP boundary
        over_http = [span for span in remote
                     if span.attributes.get("service") == "xq-lite"]
        assert over_http, "no server-side span crossed the HTTP boundary"
        for span in over_http:
            assert span.name == "service:query"
            parent = by_id[span.parent_id]
            assert parent.name == "grh.request"
            assert parent.attributes.get("language") == "xquery-lite"
            # the remote duration is bounded by the observed round-trip
            assert 0.0 <= span.duration <= parent.duration

    def test_unaware_node_gets_client_side_fetch_spans(self, distributed):
        engine, obs, stream, _ = distributed
        rule_id = engine.register_rule(CAR_RENTAL_RULE)
        stream.emit(booking_event())
        (instance,) = engine.instances_of(rule_id)
        spans = obs.trace_of_instance(instance.instance_id)
        # the eXist-like node speaks no log: protocol, so there is no
        # envelope to carry a traceparent: client-side spans only
        fetches = [span for span in spans if span.name == "grh.fetch"]
        assert fetches
        assert all(not span.remote for span in fetches)
        assert all(span.attributes.get("language") == "exist-like"
                   for span in fetches)

    def test_rendered_trace_shows_the_remote_hop(self, distributed):
        engine, obs, stream, _ = distributed
        engine.register_rule(CAR_RENTAL_RULE)
        stream.emit(booking_event())
        instance = engine.instances[-1]
        from repro.obs import render_trace
        text = render_trace(obs.trace_of_instance(instance.instance_id))
        assert "service:query" in text and "remote" in text


class TestMetricsRoute:
    def test_scrape_over_http(self, distributed):
        engine, obs, stream, xq_url = distributed
        engine.register_rule(CAR_RENTAL_RULE)
        stream.emit(booking_event())
        with urllib.request.urlopen(xq_url + "metrics", timeout=5) as reply:
            assert reply.status == 200
            content_type = reply.headers.get("Content-Type", "")
            body = reply.read().decode("utf-8")
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "eca_rule_instances_total 1" in body
        # the car-rental rule has three query components (Figs. 8-10)
        assert 'eca_phase_latency_seconds_count{phase="query"} 3' in body

    def test_plain_query_route_still_works(self, distributed):
        # /metrics must not shadow the aware POST or lifecycle routes
        engine, obs, stream, xq_url = distributed
        engine.register_rule(CAR_RENTAL_RULE)
        stream.emit(booking_event())
        assert engine.instances[-1].status == "completed"

    def test_no_registry_no_route(self):
        with HttpServiceServer(opaque_handler=lambda q: "<r/>") as url:
            with urllib.request.urlopen(url + "metrics?query=x",
                                        timeout=5) as reply:
                # falls through to the opaque handler instead of 404
                assert reply.read() == b"<r/>"
