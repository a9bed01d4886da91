"""SparqlQueryService: pushdown, caching, metrics, introspection."""

import sys
import threading

from repro.bindings import Relation, Uri
from repro.core import ECAEngine
from repro.grh import ComponentSpec, Request, is_error, request_to_xml
from repro.obs import declare_service_metrics, hosted_services
from repro.obs.metrics import MetricsRegistry
from repro.obs.ops.admin import IntrospectionSurface
from repro.rdf import Graph, Literal, URIRef
from repro.services import SPARQL_LANG, standard_deployment
from repro.sparql import RDF_SPARQL_LANG, SparqlQueryService, TripleStore
from repro.xmlmodel import parse

EX = "http://example.org/"


def term(name):
    return URIRef(EX + name)


def build_store():
    store = TripleStore()
    for index in range(8):
        person = term(f"p{index}")
        store.add(person, term("name"), Literal(f"name{index}"))
        store.add(person, term("age"),
                  Literal(str(20 + index), datatype=URIRef(
                      "http://www.w3.org/2001/XMLSchema#integer")))
        store.add(person, term("lives"), term(f"city{index % 2}"))
    return store


def build_service(**kwargs):
    return SparqlQueryService(build_store(), prefixes={"ex": EX}, **kwargs)


def query_request(text, bindings=None):
    return Request("query", "r::q", parse(f"<q>{text}</q>"),
                   Relation(bindings if bindings is not None else [{}]))


class TestQueries:
    def test_standalone_select(self):
        service = build_service()
        result = service.query(query_request(
            'SELECT ?n WHERE { ?p ex:lives ex:city1 . ?p ex:name ?n }'))
        assert sorted(row["n"] for row in result) == \
            ["name1", "name3", "name5", "name7"]

    def test_ask(self):
        service = build_service()
        assert len(service.query(query_request(
            "ASK { ?p ex:lives ex:city0 }"))) == 1
        assert len(service.query(query_request(
            "ASK { ?p ex:lives ex:mars }"))) == 0

    def test_handle_speaks_the_protocol(self):
        service = build_service()
        response = service.handle(request_to_xml(query_request(
            "SELECT ?n WHERE { ?p ex:name ?n }")))
        assert not is_error(response)
        assert response.name.local == "answers"

    def test_syntax_error_is_a_service_error_message(self):
        service = build_service()
        response = service.handle(request_to_xml(query_request(
            "SELECT WHERE {")))
        assert is_error(response)


class TestPushdown:
    def test_seeded_join_keeps_input_linkage(self):
        service = build_service()
        result = service.query(query_request(
            "SELECT ?n WHERE { ?p ex:name ?n }",
            bindings=[{"p": Uri(EX + "p1")}, {"p": Uri(EX + "p2")}]))
        rows = sorted((row["n"], row["p"]) for row in result)
        # the seeded column rides along so the engine can join back
        assert rows == [("name1", Uri(EX + "p1")),
                        ("name2", Uri(EX + "p2"))]
        assert service.stats["pushdown_queries"] == 1

    def test_pushdown_matches_per_tuple_placeholder_path(self):
        service = build_service()
        bindings = [{"N": f"name{index}"} for index in range(4)]
        per_tuple = service.query(query_request(
            'SELECT ?p WHERE { ?p ex:name "{N}" }', bindings=bindings))
        pushdown = service.query(query_request(
            "SELECT ?p WHERE { ?p ex:name ?N }", bindings=bindings))
        people = lambda relation: sorted(str(row["p"]) for row in relation)
        assert people(per_tuple) == people(pushdown)

    def test_typed_values_seed_canonical_terms(self):
        service = build_service()
        result = service.query(query_request(
            "SELECT ?p WHERE { ?p ex:age ?a }",
            bindings=[{"a": 22}, {"a": 23.0}, {"a": 99}]))
        assert sorted(row["p"] for row in result) == \
            [Uri(EX + "p2"), Uri(EX + "p3")]

    def test_unseedable_value_leaves_variable_free(self):
        service = build_service()
        result = service.query(query_request(
            "SELECT ?n WHERE { ?p ex:name ?n }",
            bindings=[{"p": ("not", "a", "term")}]))
        # the odd value cannot become an RDF term: the query runs
        # unseeded and the engine's own join applies the constraint
        assert len(result) == 8


class TestPlanCache:
    def test_hit_then_version_invalidation(self):
        """A cached plan survives writes that keep every statistic it
        was costed from within 2x; a write past that, or one that fills
        a predicate that was empty, replans, and ``explain()`` names
        the statistic."""
        service = build_service()
        text = "SELECT ?n WHERE { ?p ex:name ?n }"
        request = query_request(text)
        service.query(request)
        service.query(request)
        assert service.stats["cache_hits"] == 1
        # a retract/assert like a rule's action: the version moves, the
        # 8 name triples stay 8
        service.store.remove(term("p0"), term("name"), Literal("name0"))
        service.store.add(term("p9"), term("name"), Literal("name9"))
        service.query(request)
        assert service.stats["cache_hits"] == 2
        assert service.recent_plans[-1]["replaced_because"] is None
        # 8 -> 17 name triples: more than doubled, so a miss
        for index in range(10, 19):
            service.store.add(term(f"p{index}"), term("name"),
                              Literal(f"name{index}"))
        service.query(request)
        assert service.stats["cache_hits"] == 2
        statistic = f"count(*, <{EX}name>, *)"
        assert service.recent_plans[-1]["replaced_because"] == \
            (statistic, 8, 17)
        assert f"{statistic} = 8 (now 17" in service.explain(text)

        # a plan made while a predicate was empty: zero only matches zero
        empty = "SELECT ?n WHERE { ?p ex:nick ?n }"
        service.query(query_request(empty))
        service.store.add(term("p1"), term("nick"), Literal("one"))
        service.query(query_request(empty))
        assert service.stats["cache_hits"] == 2
        assert "replaced a plan costed from " \
            f"count(*, <{EX}nick>, *) = 0 (now 1" in service.explain(empty)

    def test_seed_signature_keys_the_cache(self):
        service = build_service()
        text = "SELECT ?n WHERE { ?p ex:name ?n }"
        service.query(query_request(text))
        service.query(query_request(text,
                                    bindings=[{"p": Uri(EX + "p1")}]))
        assert service.stats["cache_hits"] == 0
        assert len(service._plans) == 2

    def test_cache_is_bounded(self):
        service = SparqlQueryService(build_store(), prefixes={"ex": EX},
                                     plan_cache_size=2)
        for index in range(4):
            service.query(query_request(
                f"SELECT ?n WHERE {{ ex:p{index} ex:name ?n }}"))
        assert len(service._plans) == 2

    def test_concurrent_lookups_survive_eviction(self):
        """Runtime lanes call one inline service concurrently, and the
        per-tuple ``{Var}`` path fills the cache with distinct texts: a
        lookup's recency bump must not race another thread's eviction
        (it used to raise ``KeyError``, surfaced as a ``ServiceError``)."""
        service = SparqlQueryService(build_store(), prefixes={"ex": EX},
                                     plan_cache_size=2)
        texts = [f"PREFIX ex: <{EX}>\n"
                 f"SELECT ?n WHERE {{ ex:p{index} ex:name ?n }}"
                 for index in range(3)]
        errors = []

        def lane(offset):
            try:
                for step in range(8000):
                    plan, _hit = service.plan_for(
                        texts[(offset + step) % len(texts)])
                    assert plan.query.form == "SELECT"
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=lane, args=(offset,))
                   for offset in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-7)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(service._plans) <= 2


class TestObservability:
    def test_metrics_registered_and_driven(self):
        registry = MetricsRegistry()
        service = build_service()
        declare_service_metrics(registry, lambda: [service])
        service.query(query_request(
            "SELECT ?n WHERE { ?p ex:name ?n }",
            bindings=[{"p": Uri(EX + "p1")}]))
        rendered = registry.render_prometheus()
        assert ('eca_sparql_queries_total{service="rdf-sparql",'
                'form="SELECT"} 1') in rendered
        assert 'eca_sparql_query_seconds_count{service="rdf-sparql"} 1' \
            in rendered
        assert "eca_sparql_index_probes_total" in rendered
        assert 'eca_sparql_store_triples{service="rdf-sparql"} 24' \
            in rendered
        assert ('eca_sparql_pushdown_seed_rows_bucket'
                '{service="rdf-sparql",le="1.0"} 1') in rendered

    def test_concurrent_queries_lose_no_tally(self):
        """Runtime lanes answer queries on one service concurrently: every
        query lands in ``stats``, ``forms`` and the latency histogram."""
        service = build_service()
        errors = []

        def lane(offset):
            try:
                for step in range(300):
                    service.query(query_request(
                        f"ASK {{ ex:p{(offset + step) % 8} ex:name ?n }}"))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=lane, args=(offset,))
                   for offset in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert service.stats["queries"] == 2400
        assert service.forms == {"ASK": 2400}
        assert service.query_seconds.count == 2400

    def test_introspection_view(self):
        service = build_service()
        service.query(query_request(
            'SELECT ?n WHERE { ?p ex:lives ex:city0 . ?p ex:name ?n }'))
        view = service.introspection()
        assert view["service"] == "rdf-sparql"
        assert view["store"]["triples"] == 24
        assert view["predicates"][0]["triples"] == 8
        assert view["stats"]["queries"] == 1
        recent = view["recent_plans"][-1]
        assert recent["form"] == "SELECT"
        assert recent["actual_rows"] == 4
        assert recent["estimated_rows"] > 0
        assert recent["stages"][0]["op"] in ("scan", "filter")
        assert recent["plan"]["stages"]

    def test_admin_route_reports_live_services(self):
        deployment = standard_deployment(graph=build_store())
        deployment.sparql.prefixes["ex"] = EX
        deployment.sparql.query(query_request(
            "ASK { ?p ex:lives ex:city0 }"))
        surface = IntrospectionSurface(ECAEngine(deployment.grh))
        status, view = surface.handle("/introspect/sparql")
        assert status == 200
        # one service, though it answers under two URIs
        (mine,) = view["services"]
        assert mine["service"] == "rdf-sparql"
        assert mine["stats"]["queries"] == 1
        assert view["total_triples"] == 24

    def test_hosted_services_list_each_service_once(self):
        deployment = standard_deployment(graph=build_store())
        hosted = hosted_services(deployment.grh)
        assert [service for service in hosted
                if service is deployment.sparql] == [deployment.sparql]
        assert len(hosted) == len({id(service) for service in hosted})


class TestConstruction:
    def test_plain_graph_is_upgraded(self):
        graph = Graph([(term("a"), term("p"), term("b"))])
        service = SparqlQueryService(graph)
        assert isinstance(service.store, TripleStore)


class TestSparqlLiteAlias:
    """``…/sparql-lite`` is an alias URI of the one SPARQL service
    (PROTOCOL.md §15).  It used to name a service that ran the query
    unseeded and left the join with the input tuples to the engine; a
    rule under the alias that has input bindings and no ``{Var}``
    placeholder now sees binding-set pushdown — one test per observable
    difference."""

    XSD = "http://www.w3.org/2001/XMLSchema#"

    def evaluate(self, uri, text, bindings, store=None):
        deployment = standard_deployment(
            graph=store if store is not None else build_store())
        deployment.sparql.prefixes["ex"] = EX
        spec = ComponentSpec("query", uri, content=parse(f"<q>{text}</q>"))
        relation = Relation(bindings)
        return relation, deployment.grh.evaluate_query("r::q", spec,
                                                       relation)

    def test_both_uris_reach_the_same_service_object(self):
        deployment = standard_deployment(graph=build_store())
        deployment.sparql.prefixes["ex"] = EX
        spec = {uri: ComponentSpec("query", uri, content=parse(
            "<q>SELECT ?n WHERE { ex:p1 ex:name ?n }</q>"))
            for uri in (SPARQL_LANG, RDF_SPARQL_LANG)}
        for uri in spec:
            answer = deployment.grh.evaluate_query("r::q", spec[uri],
                                                   Relation.unit())
            assert [row["n"] for row in answer] == ["name1"]
        assert deployment.sparql.stats["queries"] == 2
        assert deployment.sparql.stats["cache_hits"] == 1  # one plan cache

    def test_seeded_join_is_term_equality(self):
        """Input ``5`` seeds ``"5"^^xsd:integer``, which is not the
        stored ``"5.0"^^xsd:double``; the engine's value join (5 == 5.0)
        used to let the pair through."""
        store = build_store()
        store.add(term("thing"), term("size"),
                  Literal("5.0", datatype=URIRef(self.XSD + "double")))
        for uri in (SPARQL_LANG, RDF_SPARQL_LANG):
            relation, answer = self.evaluate(
                uri, "SELECT ?s WHERE { ?s ex:size ?V }", [{"V": 5}], store)
            assert len(relation.join(answer)) == 0
            relation, answer = self.evaluate(
                uri, "SELECT ?s WHERE { ?s ex:size ?V }", [{"V": 5.5}],
                store)
            assert len(relation.join(answer)) == 0
        # unseeded, the value comes back as the number and the engine's
        # join accepts it: the placeholder-free query without the input
        _relation, answer = self.evaluate(
            SPARQL_LANG, "SELECT ?s ?V WHERE { ?s ex:size ?V }", [{}], store)
        assert len(Relation([{"V": 5}]).join(answer)) == 1

    def test_modifiers_apply_after_the_seeded_join(self):
        """``ORDER BY … LIMIT 1`` keeps the best row *among the input
        tuples' matches*; unseeded it kept the store-wide best row,
        which the engine's join then discarded."""
        relation, answer = self.evaluate(
            SPARQL_LANG,
            "SELECT ?p ?a WHERE { ?p ex:age ?a } ORDER BY DESC(?a) LIMIT 1",
            [{"p": Uri(EX + "p2")}, {"p": Uri(EX + "p4")}])
        assert [(str(row["p"]), row["a"])
                for row in relation.join(answer)] == [(EX + "p4", 24)]
        # DISTINCT likewise sees the seeded rows: two inputs living in
        # the same city stay two answers, told apart by their seed
        relation, answer = self.evaluate(
            SPARQL_LANG, "SELECT DISTINCT ?c WHERE { ?p ex:lives ?c }",
            [{"p": Uri(EX + "p2")}, {"p": Uri(EX + "p4")}])
        assert len(answer) == 2

    def test_answers_carry_the_seeded_columns(self):
        """A projection that leaves the seeded variable out still
        answers it, so each answer joins only its own input tuple."""
        relation, answer = self.evaluate(
            SPARQL_LANG, "SELECT ?n WHERE { ?p ex:name ?n }",
            [{"p": Uri(EX + "p1")}, {"p": Uri(EX + "p3")}])
        assert sorted((str(row["p"]), row["n"]) for row in answer) == [
            (EX + "p1", "name1"), (EX + "p3", "name3")]
        assert len(relation.join(answer)) == 2  # not the 2 x 2 product
