"""``select`` / ``ask`` as the ``tests/rdf`` cases call them: every query
runs through the backtracking oracle
(``tests/sparql/reference_evaluator.py``) *and* through the planned path
that ships (``repro.sparql``), the two must agree, and the planned
path's answer is what the case then asserts on.  So each case pins the
semantics once and checks both evaluators against it.
"""

import pytest

from repro.rdf import Graph, SparqlEvaluationError, parse_sparql
from repro.sparql import TripleStore, plan_query, run_ask, run_select

from ..sparql import reference_evaluator as oracle
from ..sparql.gen import solution_multiset


def _on_both(planned, reference):
    """The planned path's answer and the oracle's; an evaluation error
    on one must be an evaluation error on the other."""
    try:
        expected = reference()
    except SparqlEvaluationError:
        with pytest.raises(SparqlEvaluationError):
            planned()
        raise
    return planned(), expected


def select(graph: Graph, query: str) -> list[dict]:
    parsed = parse_sparql(query)
    store = TripleStore.from_graph(graph)
    actual, expected = _on_both(
        lambda: run_select(store, plan_query(store, parsed))[0],
        lambda: oracle.select(graph, parsed))
    if parsed.order_by:
        assert [solution.get(parsed.order_by) for solution in actual] == \
            [solution.get(parsed.order_by) for solution in expected]
    if parsed.limit is None:
        # row order without ORDER BY, and among ORDER BY ties, is the
        # evaluator's own: compare as multisets
        assert solution_multiset(actual) == solution_multiset(expected)
    else:
        assert len(actual) == len(expected)
    return actual


def ask(graph: Graph, query: str) -> bool:
    parsed = parse_sparql(query)
    store = TripleStore.from_graph(graph)
    actual, expected = _on_both(
        lambda: run_ask(store, plan_query(store, parsed))[0],
        lambda: oracle.ask(graph, parsed))
    assert actual == expected
    return actual
