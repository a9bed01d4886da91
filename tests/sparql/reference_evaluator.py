"""The backtracking SPARQL evaluator that shipped in ``repro.rdf.sparql``
(as ``select`` / ``ask``, and behind ``services.SparqlService``) until the
``repro.sparql`` planner and executor became the only path, kept as the
differential oracle of ``test_differential.py``, ``tests/rdf`` and
``benchmarks/bench_sparql.py``.

It extends one solution dict at a time, copying the dict per candidate
triple, picks the next pattern greedily by exact index counts, and
evaluates a group in a fixed order — basic patterns, then ``UNION``
blocks in textual order, then ``OPTIONAL`` groups, then every ``FILTER``
— which is the semantics the planned path must reproduce row for row
(as multisets: ``UNION`` branches keep their duplicates).

Tokenizer, parser, AST, filter-expression evaluation and the solution
modifiers are shared with ``src/`` (they were not replaced); the
matching and group evaluation below are the code as it was.
"""

from __future__ import annotations

from typing import Iterator

from repro.rdf.graph import Graph
from repro.rdf.sparql import (GroupPattern, Solution, SparqlEvaluationError,
                              SparqlQuery, TriplePattern, Variable,
                              filter_passes, finalize_select, parse_sparql)

__all__ = ["select", "ask", "evaluate_group"]


def _substitute(term, solution: Solution):
    if isinstance(term, Variable) and term.name in solution:
        return solution[term.name]
    return term


def _match_bgp(graph: Graph, patterns: list[TriplePattern],
               solution: Solution) -> Iterator[Solution]:
    if not patterns:
        yield dict(solution)
        return

    # greedy: evaluate the most selective pattern first
    def selectivity(pattern: TriplePattern) -> int:
        s = _substitute(pattern.subject, solution)
        p = _substitute(pattern.predicate, solution)
        o = _substitute(pattern.obj, solution)
        return graph.count(None if isinstance(s, Variable) else s,
                           None if isinstance(p, Variable) else p,
                           None if isinstance(o, Variable) else o)

    best_index = min(range(len(patterns)),
                     key=lambda i: selectivity(patterns[i]))
    pattern = patterns[best_index]
    rest = patterns[:best_index] + patterns[best_index + 1:]
    s = _substitute(pattern.subject, solution)
    p = _substitute(pattern.predicate, solution)
    o = _substitute(pattern.obj, solution)
    for triple in graph.triples(None if isinstance(s, Variable) else s,
                                None if isinstance(p, Variable) else p,
                                None if isinstance(o, Variable) else o):
        extended = dict(solution)
        consistent = True
        for pattern_term, value in zip((pattern.subject, pattern.predicate,
                                        pattern.obj), triple):
            if isinstance(pattern_term, Variable):
                bound = extended.get(pattern_term.name)
                if bound is None:
                    extended[pattern_term.name] = value
                elif bound != value:
                    consistent = False
                    break
        if consistent:
            yield from _match_bgp(graph, rest, extended)


def evaluate_group(graph: Graph, group: GroupPattern,
                   base: Solution) -> Iterator[Solution]:
    """Every extension of ``base`` that satisfies ``group``."""
    for solution in _match_bgp(graph, list(group.patterns), base):
        # UNION joins each solution against every branch; duplicates
        # produced by different branches are preserved (multiset union),
        # and a solution no branch extends is dropped (inner join).
        extended = [solution]
        for union in group.unions:
            next_round: list[Solution] = []
            for current in extended:
                for branch in union.branches:
                    next_round.extend(evaluate_group(graph, branch, current))
            extended = next_round
        # OPTIONAL is a left outer join: keep the solution unextended when
        # the optional group finds no match.
        for optional in group.optionals:
            next_round = []
            for current in extended:
                matches = list(evaluate_group(graph, optional.group,
                                              current))
                next_round.extend(matches if matches else [current])
            extended = next_round
        for current in extended:
            if all(filter_passes(filter_expr.expression, current)
                   for filter_expr in group.filters):
                yield current


def select(graph: Graph, query: str | SparqlQuery) -> list[Solution]:
    """Run a SELECT query and return solutions as dicts (var → term)."""
    parsed = parse_sparql(query) if isinstance(query, str) else query
    if parsed.form != "SELECT":
        raise SparqlEvaluationError("select() requires a SELECT query")
    return finalize_select(parsed,
                           list(evaluate_group(graph, parsed.where, {})))


def ask(graph: Graph, query: str | SparqlQuery) -> bool:
    """Run an ASK query."""
    parsed = parse_sparql(query) if isinstance(query, str) else query
    if parsed.form != "ASK":
        raise SparqlEvaluationError("ask() requires an ASK query")
    for _ in evaluate_group(graph, parsed.where, {}):
        return True
    return False
