"""SPARQL-subset parsing and evaluation."""

import pytest

from repro.rdf import (Namespace, SparqlEvaluationError, SparqlSyntaxError,
                       parse_sparql, parse_turtle)

from .both_paths import ask, select

DATA = """
@prefix ex: <http://example.org/> .

ex:golf a ex:Car ; ex:carClass "B" ; ex:owner ex:john ; ex:doors 5 .
ex:passat a ex:Car ; ex:carClass "C" ; ex:owner ex:john ; ex:doors 5 .
ex:clio a ex:Car ; ex:carClass "A" ; ex:owner ex:jane .
ex:polo a ex:Car ; ex:carClass "B" ; ex:location ex:paris .
ex:espace a ex:Car ; ex:carClass "D" ; ex:location ex:paris .

ex:john ex:name "John Doe" .
ex:jane ex:name "Jane Roe" .
"""

EX = Namespace("http://example.org/")


@pytest.fixture(scope="module")
def graph():
    return parse_turtle(DATA)


PREFIX = "PREFIX ex: <http://example.org/>\n"


class TestSelect:
    def test_single_pattern(self, graph):
        rows = select(graph, PREFIX + "SELECT ?c WHERE { ?c a ex:Car }")
        assert len(rows) == 5

    def test_join_over_shared_variable(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?car ?name WHERE {
                ?car ex:owner ?p .
                ?p ex:name ?name .
            }""")
        assert {(str(r["car"]), r["name"].lexical) for r in rows} == {
            (str(EX.golf), "John Doe"),
            (str(EX.passat), "John Doe"),
            (str(EX.clio), "Jane Roe"),
        }

    def test_paper_scenario_available_classes(self, graph):
        # cars available in Paris and their classes (Fig. 10 analogue)
        rows = select(graph, PREFIX + """
            SELECT ?car ?class WHERE {
                ?car ex:location ex:paris ; ex:carClass ?class .
            } ORDER BY ?class""")
        assert [r["class"].lexical for r in rows] == ["B", "D"]

    def test_predicate_object_list_syntax(self, graph):
        rows = select(graph, PREFIX +
                      'SELECT ?c WHERE { ?c ex:carClass "B" ; a ex:Car . }')
        assert len(rows) == 2

    def test_literal_object_match(self, graph):
        rows = select(graph, PREFIX +
                      'SELECT ?c WHERE { ?c ex:carClass "A" }')
        assert [str(row["c"]) for row in rows] == [str(EX.clio)]

    def test_numeric_literal_object(self, graph):
        rows = select(graph, PREFIX + "SELECT ?c WHERE { ?c ex:doors 5 }")
        assert len(rows) == 2

    def test_star_projection(self, graph):
        rows = select(graph, PREFIX +
                      "SELECT * WHERE { ?c ex:owner ?p . ?p ex:name ?n }")
        assert set(rows[0]) == {"c", "p", "n"}

    def test_distinct(self, graph):
        rows = select(graph, PREFIX +
                      "SELECT DISTINCT ?p WHERE { ?c ex:owner ?p }")
        assert len(rows) == 2

    def test_order_by_desc_and_limit(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?class WHERE { ?c ex:carClass ?class }
            ORDER BY DESC(?class) LIMIT 2""")
        assert [r["class"].lexical for r in rows] == ["D", "C"]

    def test_no_match_returns_empty(self, graph):
        assert select(graph, PREFIX +
                      "SELECT ?x WHERE { ?x ex:rents ?y }") == []


class TestFilters:
    def test_string_inequality(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?c WHERE {
                ?c ex:carClass ?k . FILTER(?k != "B")
            }""")
        assert len(rows) == 3

    def test_numeric_comparison(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?c WHERE { ?c ex:doors ?d . FILTER(?d > 4) }""")
        assert len(rows) == 2

    def test_boolean_connectives(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?c WHERE {
                ?c ex:carClass ?k .
                FILTER(?k = "B" || ?k = "D")
            }""")
        assert len(rows) == 3

    def test_negation(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?c WHERE { ?c ex:carClass ?k . FILTER(!(?k = "B")) }""")
        assert len(rows) == 3

    def test_regex(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?p WHERE { ?p ex:name ?n . FILTER(REGEX(?n, "^John")) }""")
        assert [str(row["p"]) for row in rows] == [str(EX.john)]

    def test_bound_with_optional(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?c WHERE {
                ?c a ex:Car .
                OPTIONAL { ?c ex:owner ?o }
                FILTER(!BOUND(?o))
            }""")
        assert {str(r["c"]) for r in rows} == {str(EX.polo), str(EX.espace)}

    def test_filter_error_eliminates_solution(self, graph):
        # comparing a URI with < is an error → solution dropped, not raised
        rows = select(graph, PREFIX + """
            SELECT ?c WHERE { ?c ex:owner ?o . FILTER(?o > 3) }""")
        assert rows == []

    def test_arithmetic_in_filter(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?c WHERE { ?c ex:doors ?d . FILTER(?d * 2 = 10) }""")
        assert len(rows) == 2


class TestOptional:
    def test_optional_extends_when_present(self, graph):
        rows = select(graph, PREFIX + """
            SELECT ?c ?o WHERE {
                ?c a ex:Car . OPTIONAL { ?c ex:owner ?o }
            }""")
        with_owner = [r for r in rows if "o" in r and r["o"] is not None]
        assert len(rows) == 5
        assert len(with_owner) == 3


class TestAsk:
    def test_ask_true(self, graph):
        assert ask(graph, PREFIX + 'ASK { ?c ex:carClass "D" }') is True

    def test_ask_false(self, graph):
        assert ask(graph, PREFIX + 'ASK { ?c ex:carClass "Z" }') is False

    def test_ask_with_filter(self, graph):
        assert ask(graph, PREFIX +
                   "ASK { ?c ex:doors ?d . FILTER(?d > 10) }") is False


class TestParsing:
    def test_parse_result_structure(self):
        query = parse_sparql(PREFIX + "SELECT ?a ?b WHERE { ?a ex:p ?b }")
        assert query.form == "SELECT"
        assert query.variables == ("a", "b")
        assert len(query.where.patterns) == 1

    @pytest.mark.parametrize("bad", [
        "SELECT WHERE { ?a ?b ?c }",        # no variables
        "SELECT ?a { ?a ex:p ?b }",          # undeclared prefix
        "FROB ?a WHERE { ?a ?b ?c }",        # unknown form
        "SELECT ?a WHERE { ?a ?b }",         # incomplete triple
        "SELECT ?a WHERE { ?a ?b ?c ",       # unterminated group
        PREFIX + "SELECT ?a WHERE { ?a ex:p ?b } garbage",
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql(bad)

    def test_select_on_ask_query_rejected(self, graph):
        with pytest.raises(SparqlEvaluationError):
            select(graph, "ASK { ?a ?b ?c }")
        with pytest.raises(SparqlEvaluationError):
            ask(graph, "SELECT * WHERE { ?a ?b ?c }")
