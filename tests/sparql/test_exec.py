"""The vectorized executor: tables, absent columns, ragged rows, stats."""

import pytest

from repro.rdf import Literal, URIRef
from repro.rdf.sparql import SparqlEvaluationError, parse_sparql
from repro.sparql import (ABSENT, Table, TripleStore, plan_query, run_ask,
                          run_plan, run_select, solutions_from_table,
                          table_from_solutions)

from .gen import solution_multiset
from .reference_evaluator import evaluate_group

EX = "http://example.org/"
PROLOGUE = f"PREFIX ex: <{EX}>\n"


def term(name):
    return URIRef(EX + name)


def build_store():
    store = TripleStore()
    for index in range(6):
        person = term(f"p{index}")
        store.add(person, term("name"), Literal(f"name{index}"))
        store.add(person, term("lives"), term(f"city{index % 2}"))
        if index % 2:
            store.add(person, term("score"),
                      Literal(str(index), datatype=URIRef(
                          "http://www.w3.org/2001/XMLSchema#integer")))
    return store


class TestTables:
    def test_round_trip_and_sure_columns(self):
        solutions = [{"a": 1, "b": 2}, {"a": 3}]
        table = table_from_solutions(solutions)
        assert table.columns == ("a", "b")
        assert table.sure == frozenset({"a"})
        assert table.rows[1][1] is ABSENT
        assert solutions_from_table(table) == solutions

    def test_explicit_columns(self):
        table = table_from_solutions([{"a": 1}], columns=("a", "z"))
        assert table.columns == ("a", "z")
        assert table.sure == frozenset({"a"})

    def test_unit_table(self):
        table = Table.unit()
        assert table.rows == [()]
        assert solutions_from_table(table) == [{}]


class TestSeededExecution:
    def test_absent_seed_column_behaves_like_fresh(self):
        """A row whose seed column is ABSENT leaves the variable free
        for that row, and the scan writes the binding back."""
        store = build_store()
        plan = plan_query(store, PROLOGUE +
                          "SELECT * WHERE { ?p ex:lives ?c }",
                          seed_vars=frozenset({"p"}))
        seed = table_from_solutions([{"p": term("p0")}, {}])
        table, _stats = run_plan(store, plan, seed)
        solutions = solutions_from_table(table)
        bound_row = [s for s in solutions if s["p"] == term("p0")]
        # the seeded row matches once; the unseeded row fans out fully
        assert len(bound_row) >= 1
        assert len(solutions) == 1 + 6  # 1 seeded + the full lives extent
        # every output row now carries a concrete ?p
        assert all(s.get("p") is not None for s in solutions)

    def test_seeded_join_is_term_equality(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE +
                          "SELECT ?n WHERE { ?p ex:name ?n }",
                          seed_vars=frozenset({"p"}))
        seed = table_from_solutions(
            [{"p": term("p1")}, {"p": term("nobody")}])
        solutions, _stats = run_select(store, plan, seed)
        assert solutions == [{"n": Literal("name1")}]

    def test_ragged_subgroup_rows_equal_the_oracle(self):
        """A row whose shared column is ABSENT at an OPTIONAL boundary
        leaves the variable bindable inside the group: the unseeded row
        fans out over every score, the seeded one keeps its ?p."""
        store = build_store()
        parsed = parse_sparql(PROLOGUE + (
            "SELECT * WHERE { OPTIONAL { ?p ex:score ?s } }"))
        seeds = [{"p": term("p1")}, {}, {"p": term("p0")}]
        table, _stats = run_plan(store, plan_query(store, parsed),
                                 table_from_solutions(seeds))
        solutions = solutions_from_table(table)
        assert solution_multiset(solutions) == solution_multiset(
            solution for seed in seeds
            for solution in evaluate_group(store, parsed.where, seed))
        # p1 extended, the empty row once per scored person, p0 kept bare
        assert len(solutions) == 1 + 3 + 1
        assert {"p": term("p0")} in solutions


class TestStats:
    def test_probes_flow_into_the_store(self):
        store = build_store()
        before = dict(store.probes)
        plan = plan_query(store, PROLOGUE +
                          'SELECT ?c WHERE { ?p ex:name "name1" . '
                          "?p ex:lives ?c }")
        _table, stats = run_plan(store, plan)
        assert stats.probes["pos"] >= 1  # predicate+object name lookup
        assert stats.probes["spo"] >= 1  # ?p-bound lives probe
        assert store.probes["pos"] == before["pos"] + stats.probes["pos"]

    def test_stage_actuals_recorded(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE +
                          "SELECT * WHERE { ?p ex:lives ?c }")
        _table, stats = run_plan(store, plan)
        assert stats.rows_in == 1
        assert stats.rows_out == 6
        assert stats.stages[0]["op"] == "scan"
        assert stats.stages[0]["rows"] == 6

    def test_empty_table_short_circuits(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + (
            'SELECT * WHERE { ?p ex:name "no-such" . ?p ex:lives ?c . '
            "?c ex:name ?n }"))
        _table, stats = run_plan(store, plan)
        assert stats.rows_out == 0
        # every planned step still reports a stage (zero-row skips)
        assert len(stats.stages) == len(plan.root.steps)
        assert stats.stages[-1]["rows"] == 0


class TestEntryPoints:
    def test_form_mismatch_raises(self):
        store = build_store()
        select_plan = plan_query(store, PROLOGUE +
                                 "SELECT * WHERE { ?p ex:lives ?c }")
        ask_plan = plan_query(store, PROLOGUE +
                              "ASK { ?p ex:lives ?c }")
        with pytest.raises(SparqlEvaluationError):
            run_select(store, ask_plan)
        with pytest.raises(SparqlEvaluationError):
            run_ask(store, select_plan)

    def test_ask(self):
        store = build_store()
        assert run_ask(store, plan_query(
            store, PROLOGUE + "ASK { ?p ex:lives ex:city0 }"))[0]
        assert not run_ask(store, plan_query(
            store, PROLOGUE + "ASK { ?p ex:lives ex:mars }"))[0]

    def test_select_applies_modifiers(self):
        store = build_store()
        solutions, _stats = run_select(store, plan_query(store, PROLOGUE + (
            "SELECT DISTINCT ?c WHERE { ?p ex:lives ?c } "
            "ORDER BY ?c LIMIT 1")))
        assert solutions == [{"c": term("city0")}]
