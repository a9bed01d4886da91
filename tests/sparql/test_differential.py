"""Differential suite: planned executor ≡ backtracking oracle.

For seeds 0–9: build a seeded random graph, run a batch of seeded
random queries through both the oracle (``reference_evaluator.py``) and
the ``repro.sparql`` planner/executor, and assert identical solution
*multisets* (duplicates matter — UNION branches preserve them).  The
same holds for a plan run after the store it was costed on has moved
on, within and past the plan cache's drift ratio.
"""

import random

import pytest

import repro.sparql.exec as executor
from repro.rdf import Graph, URIRef
from repro.rdf.sparql import parse_sparql
from repro.sparql import (ABSENT, TripleStore, plan_query, run_ask, run_plan,
                          run_select, solutions_from_table,
                          table_from_solutions)

from .gen import (EX, ragged_query, ragged_seeds, random_query,
                  random_triples, solution_multiset)
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


@pytest.fixture
def all_bound_rows(monkeypatch):
    """Counts the rows that reach a scan binding no fresh variable with
    every variable a certainly-bound column — the rows the executor
    answers with one membership test each."""
    counted = [0]
    run_scan = executor._run_scan

    def counting(store, step, table, probes):
        if step.pattern.variables() <= table.sure:
            counted[0] += len(table.rows)
        return run_scan(store, step, table, probes)

    monkeypatch.setattr(executor, "_run_scan", counting)
    return counted


def _mutate(store, rng, remove, add):
    for triple in rng.sample(sorted(store, key=repr), remove):
        store.remove(*triple)
    for triple in add:
        store.add(*triple)


def _assert_plans_answer_now(store, plans, seeds, label):
    graph = Graph(store)
    seed_table = table_from_solutions(seeds)
    for number, (parsed, plan, seeded) in enumerate(plans):
        where = f"{label} query {number}"
        if parsed.form == "ASK":
            assert run_ask(store, plan)[0] == ask(graph, parsed), where
        else:
            assert solution_multiset(run_select(store, plan)[0]) == \
                solution_multiset(select(graph, parsed)), where
        table, _stats = run_plan(store, seeded, seed_table)
        expected = [solution for seed_row in seeds for solution
                    in evaluate_group(graph, parsed.where, seed_row)]
        assert solution_multiset(solutions_from_table(table)) == \
            solution_multiset(expected), f"{where} seeded"


@pytest.mark.parametrize("seed", SEEDS)
def test_stale_plan_matches_naive(seed, all_bound_rows):
    """A cached plan outlives writes (PROTOCOL.md §15.2): plan, mutate
    the store first within the drift ratio and then past it, and run
    the *old* plans — the answers are the oracle's on the store as it
    is now.  The seeded runs bind both columns of ``?a ex:lives ?c``,
    the shape answered by a membership test per row."""
    rng = random.Random(3000 + seed)
    triples = random_triples(rng)
    store = TripleStore(triples)
    lives = [(subject, obj) for subject, predicate, obj in triples
             if predicate == URIRef(EX + "lives")]
    seeds = [{"a": subject, "c": obj} for subject, obj in rng.sample(lives, 8)]
    seeds += [{"a": URIRef(f"{EX}p{rng.randrange(40)}"),
               "c": URIRef(f"{EX}city{rng.randrange(6)}")} for _ in range(8)]
    seed_vars = frozenset({"a", "c"})
    plans = []
    for _ in range(12):
        parsed = parse_sparql(random_query(rng))
        plans.append((parsed, plan_query(store, parsed),
                      plan_query(store, parsed, seed_vars)))

    # within the ratio: a few retracts and asserts
    _mutate(store, rng, 12, random_triples(rng)[:12])
    assert any(plan.drift(store) is None for _p, plan, _s in plans)
    _assert_plans_answer_now(store, plans, seeds, f"seed {seed} within")

    # past it: the graph grows fivefold and one predicate empties
    _mutate(store, rng, 0, random_triples(rng, people=200))
    for triple in list(store.triples(None, URIRef(EX + "vip"))):
        store.remove(*triple)
    assert all(plan.drift(store) is not None for _p, plan, _s in plans)
    _assert_plans_answer_now(store, plans, seeds, f"seed {seed} past")
    # not vacuous: every seed sends a few hundred rows (232 to 1276 over
    # seeds 0-9) through the membership test
    assert all_bound_rows[0] >= 200
