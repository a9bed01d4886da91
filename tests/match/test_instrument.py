"""Match observability: metrics scrape and the admin view."""

import gc
import json
import urllib.error
import urllib.request

from repro.bindings import Relation
from repro.core import ECAEngine
from repro.events.base import Event
from repro.grh.messages import Request
from repro.obs import Observability, declare_service_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.ops import IntrospectionSurface, ObsAdminServer
from repro.services import standard_deployment
from repro.services.event_service import AtomicEventService
from repro.xmlmodel import parse

from .storm import DOMAIN_NS

D = f'xmlns:d="{DOMAIN_NS}"'
SNOOP = 'xmlns:snoop="http://www.semwebtech.org/languages/2006/snoop"'


def build_service():
    service = AtomicEventService(lambda element: None, incarnation="")
    for index in range(6):
        service.register_event(Request(
            "register-event", f"c{index}::event",
            parse(f'<d:a {D} to="oslo"/>'), Relation.unit()))
    service.register_event(Request(
        "register-event", "other::event",
        parse(f'<d:b {D} person="{{P}}"/>'), Relation.unit()))
    return service


class TestMetrics:
    def test_gauges_and_histogram_scrape(self):
        registry = MetricsRegistry()
        service = build_service()
        declare_service_metrics(registry, lambda: [service])
        service.feed(Event(parse(f'<d:a {D} to="oslo"/>'), 0.0, 0))
        service.feed(Event(parse(f'<d:miss {D}/>'), 1.0, 1))
        text = registry.render_prometheus()
        assert ('eca_match_alpha_nodes{service="atomic-event-matcher"} 2'
                in text)
        assert ('eca_match_shared_memories'
                '{service="atomic-event-matcher"} 1' in text)
        assert ('eca_match_events_total'
                '{service="atomic-event-matcher"} 2' in text)
        # candidate histogram: one 6-candidate event, one 0-candidate
        assert ('eca_match_candidates_bucket'
                '{service="atomic-event-matcher",le="0.0"} 1' in text)
        assert ('eca_match_candidates_bucket'
                '{service="atomic-event-matcher",le="10.0"} 2' in text)
        assert ('eca_match_candidates_count'
                '{service="atomic-event-matcher"} 2' in text)

    def test_install_is_idempotent_across_services(self):
        registry = MetricsRegistry()
        first, second = build_service(), build_service()
        declare_service_metrics(registry, lambda: [first])
        # a second declaration must not raise; it re-binds the families,
        # and two services of one name sum under one label
        declare_service_metrics(registry, lambda: [first, second])
        first.feed(Event(parse(f'<d:a {D} to="oslo"/>'), 0.0, 0))
        second.feed(Event(parse(f'<d:a {D} to="oslo"/>'), 0.0, 0))
        text = registry.render_prometheus()
        assert ('eca_match_alpha_nodes{service="atomic-event-matcher"} 4'
                in text)
        assert ('eca_match_candidates_count'
                '{service="atomic-event-matcher"} 2' in text)
        assert ('eca_match_candidates_sum'
                '{service="atomic-event-matcher"} 12.0' in text)

    def test_fallback_gauge(self):
        registry = MetricsRegistry()
        service = build_service()
        from repro.services.event_service import SnoopService
        snoop = SnoopService(lambda element: None, incarnation="")
        declare_service_metrics(registry, lambda: [service, snoop])
        snoop.register_event(Request(
            "register-event", "tick::event", parse(f"""
                <snoop:periodic {SNOOP} period="3">
                  <d:open {D}/><d:close {D}/>
                </snoop:periodic>"""), Relation.unit()))
        text = registry.render_prometheus()
        assert ('eca_match_fallback_patterns'
                '{service="snoop-detector"} 1' in text)
        assert service.network.fallback_count == 0


def http_get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestAdminView:
    def test_introspect_match_surface(self):
        deployment = standard_deployment()
        engine = ECAEngine(deployment.grh)
        surface = IntrospectionSurface(engine, Observability())
        status, view = surface.handle("/introspect/match")
        assert status == 200
        services = [entry["service"] for entry in view["networks"]]
        # exactly the engine's three event services
        assert services == ["atomic-event-matcher", "snoop-detector",
                            "xchange-detector"]
        for entry in view["networks"]:
            assert {"registered", "alpha_nodes", "shared_memories",
                    "fallback", "key_families",
                    "fallback_reasons"} <= set(entry)

    def test_scrape_over_http(self):
        deployment = standard_deployment()
        engine = ECAEngine(deployment.grh, observability=Observability())
        with ObsAdminServer(engine) as address:
            status, view = http_get(f"{address}/introspect/match")
        assert status == 200
        assert view["total_registered"] == sum(
            entry["registered"] for entry in view["networks"])


class TestHostedScope:
    """The views and families cover the services the engine hosts —
    not whatever else happens to be alive in the process."""

    def test_a_dropped_deployment_does_not_leak_into_another_engine(self):
        gc.disable()
        try:
            dropped = standard_deployment()
            ECAEngine(dropped.grh)
            del dropped
            deployment = standard_deployment()
            surface = IntrospectionSurface(ECAEngine(deployment.grh))
            _, match = surface.handle("/introspect/match")
            _, sparql = surface.handle("/introspect/sparql")
        finally:
            gc.enable()
        assert len(match["networks"]) == 3
        assert len(sparql["services"]) == 1

    def test_an_observed_engine_exposes_match_and_sparql_families(self):
        deployment = standard_deployment()
        obs = Observability()
        ECAEngine(deployment.grh, observability=obs)
        deployment.stream.emit(parse(f'<d:a {D} to="oslo"/>'))
        text = obs.render_prometheus()
        assert ('eca_match_events_total{service="atomic-event-matcher"} 1'
                in text)
        assert "# TYPE eca_sparql_queries_total counter" in text
        assert 'eca_sparql_store_triples{service="rdf-sparql"} 0' in text
