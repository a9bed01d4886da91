"""Differential suite: planned executor ≡ backtracking oracle.

For seeds 0–9: build a seeded random graph, run a batch of seeded
random queries through both the oracle (``reference_evaluator.py``) and
the ``repro.sparql`` planner/executor, and assert identical solution
*multisets* (duplicates matter — UNION branches preserve them).
"""

import random

import pytest

import repro.sparql.exec as executor
from repro.rdf import Graph
from repro.rdf.sparql import parse_sparql
from repro.sparql import (ABSENT, TripleStore, plan_query, run_ask, run_plan,
                          run_select, solutions_from_table,
                          table_from_solutions)

from .gen import (ragged_query, ragged_seeds, random_query, random_triples,
                  solution_multiset)
from .reference_evaluator import ask, evaluate_group, select

SEEDS = range(10)
QUERIES_PER_SEED = 30


@pytest.mark.parametrize("seed", SEEDS)
def test_planned_matches_naive(seed):
    rng = random.Random(seed)
    triples = random_triples(rng)
    naive_graph = Graph(triples)
    store = TripleStore(triples)
    for number in range(QUERIES_PER_SEED):
        text = random_query(rng)
        parsed = parse_sparql(text)
        plan = plan_query(store, parsed)
        if parsed.form == "ASK":
            expected = ask(naive_graph, parsed)
            actual, _stats = run_ask(store, plan)
            assert actual == expected, f"seed {seed} query {number}: {text}"
        else:
            expected = solution_multiset(select(naive_graph, parsed))
            result, _stats = run_select(store, plan)
            actual = solution_multiset(result)
            assert actual == expected, f"seed {seed} query {number}: {text}"


@pytest.mark.parametrize("seed", SEEDS)
def test_planned_matches_naive_after_mutation(seed):
    """Same property on a mutated store: remove a slice of triples so
    the statistics walked both directions."""
    rng = random.Random(1000 + seed)
    triples = random_triples(rng)
    store = TripleStore(triples)
    removed = rng.sample(triples, len(triples) // 5)
    for triple in removed:
        assert store.remove(*triple)
    naive_graph = Graph(store)
    for _ in range(10):
        text = random_query(rng)
        parsed = parse_sparql(text)
        if parsed.form == "ASK":
            assert run_ask(store, plan_query(store, parsed))[0] == \
                ask(naive_graph, parsed)
        else:
            assert solution_multiset(
                run_select(store, plan_query(store, parsed))[0]) == \
                solution_multiset(select(naive_graph, parsed))


@pytest.fixture
def ragged_rows(monkeypatch):
    """Counts the rows that reach a UNION/OPTIONAL boundary with a
    shared column absent — the case the executor partitions for."""
    counted = [0]
    join_subgroup = executor._join_subgroup

    def counting(store, subplan, table, stats, outer):
        shared = [position for position, name in enumerate(table.columns)
                  if name in subplan.mentioned]
        counted[0] += sum(1 for row in table.rows
                          if any(row[position] is ABSENT
                                 for position in shared))
        return join_subgroup(store, subplan, table, stats, outer)

    monkeypatch.setattr(executor, "_join_subgroup", counting)
    return counted


@pytest.mark.parametrize("seed", SEEDS)
def test_ragged_rows_match_the_oracle(seed, ragged_rows):
    """Queries and seed tables built to send ragged rows into subgroups:
    standalone, then seeded with an input table that has missing values
    (the oracle extends each seed row on its own)."""
    rng = random.Random(2000 + seed)
    triples = random_triples(rng)
    graph = Graph(triples)
    store = TripleStore(triples)
    for number in range(12):
        text = ragged_query(rng)
        parsed = parse_sparql(text)
        assert solution_multiset(
            run_select(store, plan_query(store, parsed))[0]) == \
            solution_multiset(select(graph, parsed)), \
            f"seed {seed} query {number}: {text}"

        seeds = ragged_seeds(rng, triples)
        seed_table = table_from_solutions(seeds)
        table, _stats = run_plan(
            store, plan_query(store, parsed, seed_table.sure), seed_table)
        expected = [solution for seed_row in seeds for solution
                    in evaluate_group(graph, parsed.where, seed_row)]
        assert solution_multiset(solutions_from_table(table)) == \
            solution_multiset(expected), \
            f"seed {seed} query {number} seeded {seeds}: {text}"
    # not vacuous: the plain random_query batches above send no ragged
    # row at all, every seed here sends hundreds
    assert ragged_rows[0] >= 500
