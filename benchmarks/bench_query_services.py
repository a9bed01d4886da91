"""BENCH-T5: the same logical query through four heterogeneous languages.

"Which cars of a given class are at a given location?" answered by:

* **XPath** directly over the XML fleet document,
* **XQ-lite** (FLWOR) over the same document,
* **SPARQL** over the RDF fleet store,
* **Datalog** over an equivalent fact base,

each measured standalone (language engine only) and through the full
service + GRH stack.

Expected shape: XPath < XQ-lite (FLWOR adds tuple machinery);
SPARQL/Datalog pay index-lookup costs per pattern; the service stack
adds a roughly constant mediation overhead on top of each.
"""

import pytest

from repro.bindings import Relation
from repro.datalog import DatalogEngine
from repro.domain import WorkloadConfig, synthetic_fleet
from repro.grh import (ComponentSpec, GenericRequestHandler,
                       LanguageDescriptor, LanguageRegistry)
from repro.rdf import Literal, Namespace
from repro.services import (DATALOG_LANG, DatalogService, InProcessTransport,
                            XQ_LANG, XQService)
from repro.sparql import (RDF_SPARQL_LANG, SparqlQueryService, TripleStore,
                          plan_query, run_select)
from repro.xpath import evaluate
from repro.xq import evaluate_query

CONFIG = WorkloadConfig(fleet_size=200, cities=4)
FLEET = Namespace("urn:fleet#")


@pytest.fixture(scope="module")
def fleet_xml():
    return synthetic_fleet(CONFIG)


@pytest.fixture(scope="module")
def fleet_rdf(fleet_xml):
    graph = TripleStore()
    for car in fleet_xml.elements():
        subject = FLEET[car.get("id")]
        graph.add(subject, FLEET.model, Literal(car.get("model")))
        graph.add(subject, FLEET.carClass, Literal(car.get("class")))
        graph.add(subject, FLEET.location, Literal(car.get("location")))
    return graph


@pytest.fixture(scope="module")
def fleet_datalog(fleet_xml):
    facts = "\n".join(
        f'car("{car.get("id")}", "{car.get("model")}", '
        f'"{car.get("class")}", "{car.get("location")}").'
        for car in fleet_xml.elements())
    program = facts + "\navail(M, C, L) :- car(_Id, M, C, L).\n"
    engine = DatalogEngine(program)
    engine.query("avail(M, C, L)")  # force fixpoint outside the benchmark
    return engine


class TestStandaloneEngines:
    def test_xpath(self, benchmark, fleet_xml):
        result = benchmark(
            evaluate, "//car[@location='Paris'][@class='B']/@model",
            fleet_xml)
        assert result

    def test_xq_lite(self, benchmark, fleet_xml):
        query = ("for $c in //car where $c/@location = 'Paris' and "
                 "$c/@class = 'B' return $c/@model")
        result = benchmark(evaluate_query, query, fleet_xml)
        assert result

    def test_sparql(self, benchmark, fleet_rdf):
        plan = plan_query(fleet_rdf, (
            "PREFIX f: <urn:fleet#> SELECT ?m WHERE { "
            "?c f:location 'Paris' ; f:carClass 'B' ; f:model ?m }"))
        result, _stats = benchmark(run_select, fleet_rdf, plan)
        assert result

    def test_datalog(self, benchmark, fleet_datalog):
        result = benchmark(fleet_datalog.query, 'avail(M, "B", "Paris")')
        assert result


class TestThroughServiceStack:
    def _grh(self, descriptor, service):
        grh = GenericRequestHandler(LanguageRegistry(), InProcessTransport())
        grh.add_service(descriptor, service)
        return grh

    def test_xq_service(self, benchmark, fleet_xml):
        grh = self._grh(LanguageDescriptor(XQ_LANG, "query", "xq"),
                        XQService({"fleet.xml": fleet_xml}))
        spec = ComponentSpec(
            "query", XQ_LANG,
            content=_content(XQ_LANG,
                             "for $c in doc('fleet.xml')//car "
                             "where $c/@location = 'Paris' and "
                             "$c/@class = 'B' return $c/@model"),
            bind_to="Model")
        result = benchmark(grh.evaluate_query, "b::q", spec, Relation.unit())
        assert result

    def test_sparql_service(self, benchmark, fleet_rdf):
        grh = self._grh(
            LanguageDescriptor(RDF_SPARQL_LANG, "query", "sparql"),
            SparqlQueryService(fleet_rdf, prefixes={"f": str(FLEET)}))
        spec = ComponentSpec(
            "query", RDF_SPARQL_LANG,
            content=_content(RDF_SPARQL_LANG,
                             "SELECT ?Model WHERE { ?c f:location 'Paris' ; "
                             "f:carClass 'B' ; f:model ?Model }"))
        result = benchmark(grh.evaluate_query, "b::q", spec, Relation.unit())
        assert result

    def test_datalog_service(self, benchmark, fleet_xml):
        facts = "\n".join(
            f'car("{car.get("model")}", "{car.get("class")}", '
            f'"{car.get("location")}").'
            for car in fleet_xml.elements())
        grh = self._grh(LanguageDescriptor(DATALOG_LANG, "query", "datalog"),
                        DatalogService(facts))
        spec = ComponentSpec(
            "query", DATALOG_LANG,
            content=_content(DATALOG_LANG, 'car(Model, "B", "Paris")'))
        result = benchmark(grh.evaluate_query, "b::q", spec, Relation.unit())
        assert result


def _content(language, text):
    from repro.xmlmodel import Element, QName, Text
    element = Element(QName(language, "q"), nsdecls={"q": language})
    element.append(Text(text))
    return element
