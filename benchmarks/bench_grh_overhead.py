"""BENCH-T4: what does the modular architecture cost?  (ablation)

The same business logic runs on four configurations:

1. **monolithic** — the baseline engine, Python callables, no GRH,
2. **modular, no serialization** — full engine + GRH, in-process
   transport with message serialization disabled,
3. **modular, serialized** — the default: every message rendered to
   markup and re-parsed (byte-identical to the wire),
4. **modular, HTTP** — query services behind real localhost HTTP.

Plus the aware-vs-unaware adaptation cost: the framework-unaware path
issues one request *per input tuple* (Fig. 9), so its cost grows with
the tuple count while the aware path sends one request total — and what
the GRH's opaque-request cache buys back on that path when most
substituted queries repeat (BENCH-A3).

Expected shape: 1 < 2 < 3 < 4, with serialization dominating the
modularity overhead and HTTP adding per-request latency.
"""

import pytest

from repro.baseline import MonolithicEngine, MonolithicRule
from repro.bindings import Relation
from repro.core import ECAEngine
from repro.domain import (WorkloadConfig, booking_payloads,
                          full_pipeline_rule_markup, synthetic_classes,
                          synthetic_fleet, synthetic_persons)
from repro.events import AtomicPattern, EventStream
from repro.grh import ComponentSpec, GenericRequestHandler, LanguageDescriptor, LanguageRegistry
from repro.services import standard_deployment
from repro.xmlmodel import parse
from repro.xpath import evaluate

CONFIG = WorkloadConfig(persons=30, fleet_size=30, cities=3)
EVENT_COUNT = 10


def modular_run(serialize_messages):
    deployment = standard_deployment(serialize_messages=serialize_messages)
    deployment.add_document("persons.xml", synthetic_persons(CONFIG))
    deployment.add_document("classes.xml", synthetic_classes())
    deployment.add_document("fleet.xml", synthetic_fleet(CONFIG))
    engine = ECAEngine(deployment.grh, keep_instances=False)
    engine.register_rule(full_pipeline_rule_markup("pipeline"))
    payloads = booking_payloads(CONFIG, EVENT_COUNT)

    def run():
        for payload in payloads:
            deployment.stream.emit(payload.copy())

    return run


def monolithic_run():
    persons = synthetic_persons(CONFIG)
    classes = synthetic_classes()
    fleet = synthetic_fleet(CONFIG)
    engine = MonolithicEngine()
    stream = EventStream()
    engine.attach(stream)

    def own_cars(binding):
        for node in evaluate(
                f"//person[@name='{binding['Person']}']/car/model", persons):
            yield {"OwnCar": node.text()}

    def class_of(binding):
        for node in evaluate(
                f"//entry[@model='{binding['OwnCar']}']/@class", classes):
            yield {"Class": node.value}

    def available(binding):
        for node in evaluate(
                f"//car[@location='{binding['To']}']"
                f"[@class='{binding['Class']}']/@model", fleet):
            yield {"Avail": node.value}

    engine.register_rule(MonolithicRule(
        "pipeline",
        AtomicPattern(parse(
            '<travel:booking xmlns:travel='
            '"http://www.semwebtech.org/domains/2006/travel" '
            'person="{Person}" to="{To}"/>')),
        queries=(own_cars, class_of, available)))
    payloads = booking_payloads(CONFIG, EVENT_COUNT)

    def run():
        for payload in payloads:
            stream.emit(payload.copy())

    return run


class TestArchitectureAblation:
    def test_1_monolithic_baseline(self, benchmark):
        benchmark(monolithic_run())

    def test_2_modular_no_serialization(self, benchmark):
        benchmark(modular_run(serialize_messages=False))

    def test_3_modular_serialized(self, benchmark):
        benchmark(modular_run(serialize_messages=True))

    def test_4_modular_http_queries(self, benchmark):
        """Query services behind real localhost HTTP endpoints."""
        from repro.actions import ACTION_NS, ActionRuntime
        from repro.core import ECAEngine as Engine
        from repro.events import ATOMIC_NS
        from repro.services import (ActionExecutionService,
                                    AtomicEventService, EXIST_LANG,
                                    ExistLikeService, HttpServiceServer,
                                    HybridTransport, XQ_LANG, XQService)

        registry = LanguageRegistry()
        transport = HybridTransport()
        grh = GenericRequestHandler(registry, transport)
        stream = EventStream()
        runtime = ActionRuntime(event_stream=stream)
        atomic = AtomicEventService(grh.notify)
        atomic.attach(stream)
        grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic"),
                        atomic)
        grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                        ActionExecutionService(runtime))
        documents = {"persons.xml": synthetic_persons(CONFIG),
                     "classes.xml": synthetic_classes(),
                     "fleet.xml": synthetic_fleet(CONFIG)}
        xq_server = HttpServiceServer(
            aware_handler=XQService(documents).handle)
        exist_server = HttpServiceServer(
            opaque_handler=ExistLikeService(documents).execute)
        grh.add_remote_language(
            LanguageDescriptor(XQ_LANG, "query", "xquery-lite"),
            xq_server.start())
        grh.add_remote_language(
            LanguageDescriptor(EXIST_LANG, "query", "exist-like",
                               framework_aware=False), exist_server.start())
        engine = Engine(grh, keep_instances=False)
        engine.register_rule(full_pipeline_rule_markup("pipeline"))
        payloads = booking_payloads(CONFIG, EVENT_COUNT)

        def run():
            for payload in payloads:
                stream.emit(payload.copy())

        try:
            benchmark(run)
        finally:
            xq_server.stop()
            exist_server.stop()


class TestAdaptationCost:
    """Aware = one request per component; unaware = one per tuple."""

    def _grh_with_query_services(self, cache=False):
        from repro.services import (ExistLikeService, XQService, EXIST_LANG,
                                    XQ_LANG, InProcessTransport)
        registry = LanguageRegistry()
        grh = GenericRequestHandler(registry, InProcessTransport(),
                                    cache_opaque_requests=cache)
        documents = {"classes.xml": synthetic_classes()}
        grh.add_service(LanguageDescriptor(XQ_LANG, "query", "xq"),
                        XQService(documents))
        grh.add_service(LanguageDescriptor(EXIST_LANG, "query", "exist",
                                           framework_aware=False),
                        ExistLikeService(documents))
        return grh

    @pytest.mark.parametrize("tuples", [1, 10, 50])
    def test_aware_single_request(self, benchmark, tuples):
        grh = self._grh_with_query_services()
        from repro.services import XQ_LANG
        spec = ComponentSpec(
            "query", XQ_LANG,
            content=parse(f'<q xmlns="{XQ_LANG}">'
                          "doc('classes.xml')//entry[@model = $OwnCar]"
                          "/@class</q>"),
            bind_to="Class")
        relation = Relation({"OwnCar": "Golf", "N": i} for i in range(tuples))
        benchmark(grh.evaluate_query, "b::q", spec, relation)

    @pytest.mark.parametrize("tuples", [1, 10, 50])
    def test_unaware_request_per_tuple(self, benchmark, tuples):
        grh = self._grh_with_query_services()
        from repro.services import EXIST_LANG
        spec = ComponentSpec(
            "query", EXIST_LANG,
            opaque="doc('classes.xml')//entry[@model = '{OwnCar}']/@class",
            bind_to="Class")
        relation = Relation({"OwnCar": "Golf", "N": i} for i in range(tuples))
        benchmark(grh.evaluate_query, "b::q", spec, relation)

    @pytest.mark.parametrize("cache", [False, True],
                             ids=["no-cache", "cached"])
    def test_unaware_duplicate_heavy_tuple_stream(self, benchmark, cache):
        """BENCH-A3: 100 tuples over only 3 distinct models (97%
        duplicates); caching trades memory for transport round-trips."""
        grh = self._grh_with_query_services(cache)
        from repro.services import EXIST_LANG
        spec = ComponentSpec(
            "query", EXIST_LANG,
            opaque="doc('classes.xml')//entry[@model = '{OwnCar}']/@class",
            bind_to="Class")
        relation = Relation({"OwnCar": ["Golf", "Polo", "Clio"][i % 3],
                             "N": i} for i in range(100))

        def run():
            grh.clear_opaque_cache()
            return grh.evaluate_query("b::q", spec, relation)

        assert len(benchmark(run)) == 100
