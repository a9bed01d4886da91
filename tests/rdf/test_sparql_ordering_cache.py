"""SPARQL join-ordering equivalence and the GRH opaque-request cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bindings import Relation
from repro.grh import (ComponentSpec, GenericRequestHandler,
                       LanguageDescriptor, LanguageRegistry)
from repro.rdf import Graph, Literal, Namespace
from repro.services import InProcessTransport

from .both_paths import select

EX = Namespace("urn:x#")


def random_graph(triples):
    graph = Graph()
    for s, p, o in triples:
        graph.add(EX[f"s{s}"], EX[f"p{p}"], Literal(f"o{o}"))
    return graph


class TestJoinOrderingEquivalence:
    QUERY = ("PREFIX ex: <urn:x#> SELECT ?a ?b WHERE { "
             "?x ex:p0 ?a . ?x ex:p1 ?b }")

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 5), st.integers(0, 2),
                             st.integers(0, 5)), max_size=30))
    def test_reordering_never_changes_results(self, triples):
        """Whatever join order the planner's statistics pick on a random
        graph, the answer is the oracle's (``select`` asserts it) and is
        the self-join of the two predicate extents."""
        graph = random_graph(triples)
        expected = sorted(
            (f"o{a}", f"o{b}")
            for s, p, a in triples if p == 0
            for s2, p2, b in triples if p2 == 1 and s2 == s)
        assert sorted((row["a"].lexical, row["b"].lexical)
                      for row in select(graph, self.QUERY)) == expected


class _CountingService:
    def __init__(self):
        self.calls = 0

    def execute(self, query: str) -> str:
        self.calls += 1
        return f"result-for({query})"


class TestOpaqueCache:
    def _setup(self, cache):
        registry = LanguageRegistry()
        grh = GenericRequestHandler(registry, InProcessTransport(),
                                    cache_opaque_requests=cache)
        service = _CountingService()
        grh.add_service(LanguageDescriptor("urn:svc", "query", "svc",
                                           framework_aware=False), service)
        spec = ComponentSpec("query", "urn:svc", opaque="q({K})",
                             bind_to="V")
        return grh, service, spec

    def test_cache_collapses_duplicate_queries(self):
        grh, service, spec = self._setup(cache=True)
        relation = Relation({"K": i % 2, "N": i} for i in range(10))
        result = grh.evaluate_query("r::q", spec, relation)
        assert len(result) == 10          # every tuple still extended
        assert service.calls == 2         # only two distinct queries
        assert grh.cache_hits == 8

    def test_without_cache_every_tuple_is_a_request(self):
        grh, service, spec = self._setup(cache=False)
        relation = Relation({"K": i % 2, "N": i} for i in range(10))
        grh.evaluate_query("r::q", spec, relation)
        assert service.calls == 10
        assert grh.cache_hits == 0

    def test_cache_respects_distinct_endpoints_and_queries(self):
        grh, service, spec = self._setup(cache=True)
        grh.evaluate_query("r::q", spec, Relation([{"K": 1}]))
        grh.evaluate_query("r::q", spec, Relation([{"K": 2}]))
        assert service.calls == 2

    def test_clear_cache(self):
        grh, service, spec = self._setup(cache=True)
        grh.evaluate_query("r::q", spec, Relation([{"K": 1}]))
        grh.clear_opaque_cache()
        grh.evaluate_query("r::q", spec, Relation([{"K": 1}]))
        assert service.calls == 2

    def test_results_identical_with_and_without_cache(self):
        cached_grh, _, cached_spec = self._setup(cache=True)
        plain_grh, _, plain_spec = self._setup(cache=False)
        relation = Relation({"K": i % 3} for i in range(9))
        assert cached_grh.evaluate_query("r::q", cached_spec, relation) == \
            plain_grh.evaluate_query("r::q", plain_spec, relation)
