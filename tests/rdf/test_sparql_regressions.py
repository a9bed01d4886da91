"""Regression suite for evaluator corners the planner must preserve.

These pin the SPARQL subset's semantics — unbound variables in filters,
typed-literal comparisons, duplicate solutions, ``UNION`` multiset
behaviour — on both the backtracking oracle and the planned executor
(``both_paths``): the hand-written anchor of the seeded differential
suite in tests/sparql/.
"""

from collections import Counter

import pytest

from repro.rdf import Graph, Literal, Namespace, XSD, parse_turtle

from .both_paths import ask, select

EX = Namespace("http://example.org/")
PREFIX = "PREFIX ex: <http://example.org/>\n"

DATA = """
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:golf ex:carClass "B" ; ex:doors 5 ; ex:price 19999.5 ;
    ex:electric false .
ex:passat ex:carClass "C" ; ex:doors 5 .
ex:clio ex:carClass "A" ; ex:doors 3 ; ex:electric true .
ex:john ex:owns ex:golf, ex:passat .
ex:jane ex:owns ex:clio .
"""


@pytest.fixture(scope="module")
def graph():
    return parse_turtle(DATA)


def multiset(solutions):
    return Counter(tuple(sorted(solution.items()))
                   for solution in solutions)


class TestFilterUnboundVariables:
    def test_comparison_on_unbound_variable_eliminates(self, graph):
        # ex:passat has no ex:electric: the filter errors, the row dies
        rows = select(graph, PREFIX + (
            "SELECT ?car WHERE { ?car ex:doors ?d "
            "OPTIONAL { ?car ex:electric ?e } FILTER(?e = false) }"))
        assert [row["car"] for row in rows] == [EX.golf]

    def test_wholly_unbound_filter_variable_kills_all_rows(self, graph):
        rows = select(graph, PREFIX + (
            "SELECT ?car WHERE { ?car ex:doors ?d . FILTER(?nope > 1) }"))
        assert rows == []

    def test_bound_rescues_unbound_variable(self, graph):
        rows = select(graph, PREFIX + (
            "SELECT ?car WHERE { ?car ex:doors ?d "
            "OPTIONAL { ?car ex:electric ?e } FILTER(!BOUND(?e)) }"))
        assert [row["car"] for row in rows] == [EX.passat]


class TestTypedLiterals:
    def test_integer_comparison_is_numeric_not_lexical(self, graph):
        rows = select(graph, PREFIX +
                      "SELECT ?car WHERE { ?car ex:doors ?d . "
                      "FILTER(?d > 4) }")
        assert {row["car"] for row in rows} == {EX.golf, EX.passat}

    def test_double_and_boolean_literals(self, graph):
        assert ask(graph, PREFIX +
                   "ASK { ?car ex:price ?p . FILTER(?p < 20000) }")
        assert ask(graph, PREFIX + "ASK { ?car ex:electric true }")
        assert not ask(graph, PREFIX +
                       "ASK { ex:golf ex:electric true }")

    def test_typed_literal_object_match_respects_datatype(self, graph):
        # "5" as a plain string is a different term from 5^^xsd:integer
        plain = Graph([(EX.thing, EX.doors, Literal("5"))])
        assert not ask(plain, PREFIX + "ASK { ?x ex:doors 5 }")
        assert ask(graph, PREFIX + "ASK { ex:golf ex:doors 5 }")

    def test_solutions_carry_typed_terms(self, graph):
        rows = select(graph, PREFIX +
                      "SELECT ?d WHERE { ex:clio ex:doors ?d }")
        assert rows == [{"d": Literal("3", datatype=XSD.integer)}]


class TestDuplicateSolutions:
    def test_projection_keeps_duplicates(self, graph):
        rows = select(graph, PREFIX +
                      "SELECT ?d WHERE { ?car ex:doors ?d }")
        assert multiset(rows) == Counter({
            (("d", Literal("5", datatype=XSD.integer)),): 2,
            (("d", Literal("3", datatype=XSD.integer)),): 1,
        })

    def test_distinct_collapses_them(self, graph):
        rows = select(graph, PREFIX +
                      "SELECT DISTINCT ?d WHERE { ?car ex:doors ?d }")
        assert len(rows) == 2

    def test_union_preserves_branch_duplicates(self, graph):
        # ex:golf matches both branches: it appears twice (multiset
        # union, SPARQL semantics), once per branch
        rows = select(graph, PREFIX + (
            "SELECT ?car WHERE { { ?car ex:carClass \"B\" } UNION "
            "{ ?car ex:doors 5 } }"))
        counts = Counter(row["car"] for row in rows)
        assert counts[EX.golf] == 2
        assert counts[EX.passat] == 1
        assert counts[EX.polo] == 0

    def test_union_branches_evaluated_in_textual_order(self, graph):
        rows = select(graph, PREFIX + (
            "SELECT ?who WHERE { { ex:john ex:owns ?who } UNION "
            "{ ex:jane ex:owns ?who } }"))
        assert set(rows[-1].values()) == {EX.clio}

    def test_union_with_disjoint_variables_leaves_gaps(self, graph):
        rows = select(graph, PREFIX + (
            "SELECT * WHERE { { ?p ex:owns ?c } UNION "
            "{ ?q ex:electric true } }"))
        owner_rows = [row for row in rows if "p" in row]
        electric_rows = [row for row in rows if "q" in row]
        assert len(owner_rows) == 3
        assert electric_rows == [{"q": EX.clio}]
        assert all("q" not in row for row in owner_rows)
