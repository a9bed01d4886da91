"""BENCH-S1: the planned/indexed SPARQL backend vs the backtracking oracle.

Builds a synthetic social graph (100k+ triples by default), then runs
three legs:

* **planned vs naive** — 3–5-pattern queries written in deliberately
  bad textual order, timed through the backtracking oracle
  (``tests/sparql/reference_evaluator.py``, "naive" below) and through
  the ``repro.sparql`` planner/executor; the planner must reorder by
  selectivity and win by ``--min-speedup`` (default 20×);
* **pushdown vs per-tuple** — the same query pushed through
  :class:`SparqlQueryService` with an input relation of ``--bindings``
  tuples (default 100), once via textual ``{Var}`` substitution (one
  parse/plan/run per tuple) and once via binding-set pushdown (one
  seeded vectorized run); pushdown must win by
  ``--min-pushdown-speedup`` (default 5×);
* **differential** — seeds 0–9 of the tests/sparql generator must
  produce identical solution multisets on both paths.

``--quick`` keeps the 100k-triple graph but trims repetitions for CI;
``BENCH_sparql.json`` lands next to this file.

Usage::

    PYTHONPATH=src python benchmarks/bench_sparql.py           # full
    PYTHONPATH=src python benchmarks/bench_sparql.py --quick   # CI gate
"""

from __future__ import annotations

import argparse
import gc
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.bindings import Relation, Uri
from repro.grh.messages import Request
from repro.rdf import Graph, Literal, URIRef, XSD
from repro.rdf.sparql import parse_sparql
from repro.sparql import SparqlQueryService, TripleStore, plan_query, \
    run_ask, run_select
from repro.xmlmodel import E
from tests.sparql.gen import random_query, random_triples, solution_multiset
from tests.sparql.reference_evaluator import ask, select

from reporting import summarize, write_bench_json

EX = "http://bench.example.org/"
PROLOGUE = f"PREFIX ex: <{EX}>\n"

#: 3–5-pattern queries whose selectivity lives in a *trailing filter*:
#: the naive evaluator (which also reorders patterns, by exact counts)
#: can only apply a FILTER after the whole group matches, and pays a
#: per-solution price for every intermediate binding, while the planner
#: pushes the filter to right after the scan that binds it, memoizes
#: verdicts per distinct value, and joins whole binding sets through
#: the index buckets
QUERIES = [
    ("filter_late",
     "SELECT ?n WHERE { ?p ex:age ?a . ?p ex:name ?n . "
     "?p ex:knows ?q . ?q ex:lives ?c . FILTER(?a > 89) }"),
    ("filter_eq",
     "SELECT ?n WHERE { ?p ex:age ?a . ?p ex:name ?n . "
     "?p ex:knows ?q . FILTER(?a = 33) }"),
    ("star5",
     "SELECT ?n ?b WHERE { ?p ex:knows ?q . ?q ex:knows ?r . "
     "?p ex:age ?a . ?r ex:age ?b . ?p ex:name ?n . FILTER(?a > 85) }"),
]


def build_store(people: int, cities: int, seed: int) -> TripleStore:
    rng = random.Random(seed)
    store = TripleStore()
    name = URIRef(EX + "name")
    age = URIRef(EX + "age")
    lives = URIRef(EX + "lives")
    knows = URIRef(EX + "knows")
    city_terms = [URIRef(f"{EX}city{i}") for i in range(cities)]
    person_terms = [URIRef(f"{EX}p{i}") for i in range(people)]
    for index, person in enumerate(person_terms):
        store.add(person, name, Literal(f"name{index}"))
        store.add(person, age, Literal(str(rng.randint(1, 90)),
                                       datatype=XSD.integer))
        store.add(person, lives, city_terms[rng.randrange(cities)])
        if rng.random() < 0.7:
            store.add(person, knows,
                      person_terms[rng.randrange(people)])
    for index, city in enumerate(city_terms):
        store.add(city, name, Literal(f"city{index}"))
    return store


def time_rounds(callable_, rounds: int) -> list[float]:
    # the collector's gen-2 passes walk the whole 100k-triple store and
    # land as ~100ms spikes inside arbitrary rounds; collect once up
    # front, then keep it out of the timed region
    timings = []
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            started = time.perf_counter()
            callable_()
            timings.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return timings


def planned_vs_naive(store: TripleStore, planned_rounds: int,
                     naive_rounds: int) -> tuple[dict, float]:
    series: dict = {}
    speedups = []
    for label, text in QUERIES:
        parsed = parse_sparql(PROLOGUE + text)
        plan = plan_query(store, parsed)
        expected = solution_multiset(run_select(store, plan)[0])
        assert expected == solution_multiset(select(store, parsed)), label
        planned = summarize(time_rounds(
            lambda: run_select(store, plan), planned_rounds))
        naive = summarize(time_rounds(
            lambda: select(store, parsed), naive_rounds))
        planned["result_rows"] = naive["result_rows"] = \
            sum(expected.values())
        series[f"planned_{label}"] = planned
        series[f"naive_{label}"] = naive
        speedup = naive["mean_s"] / planned["mean_s"]
        speedups.append(speedup)
        print(f"{label:>16}: planned {planned['mean_s'] * 1e3:8.2f} ms, "
              f"naive {naive['mean_s'] * 1e3:8.2f} ms, "
              f"speedup {speedup:6.1f}x "
              f"({planned['result_rows']} rows)")
    return series, min(speedups)


def pushdown_vs_per_tuple(store: TripleStore, bindings: int,
                          rounds: int) -> tuple[dict, float]:
    service = SparqlQueryService(store, prefixes={"ex": EX})
    relation = Relation([{"N": f"name{i * 7}"} for i in range(bindings)])

    def request(text: str) -> Request:
        return Request("query", "bench::q", E("q", None, text), relation)

    per_tuple_text = 'SELECT ?p ?c WHERE { ?p ex:name "{N}" . ' \
        "?p ex:lives ?c }"
    pushdown_text = "SELECT ?p ?c WHERE { ?p ex:name ?N . ?p ex:lives ?c }"
    per_tuple_rows = service.query(request(per_tuple_text))
    pushdown_rows = service.query(request(pushdown_text))
    assert sorted((str(row["p"]), str(row["c"])) for row in per_tuple_rows) \
        == sorted((str(row["p"]), str(row["c"])) for row in pushdown_rows)

    per_tuple = summarize(time_rounds(
        lambda: service.query(request(per_tuple_text)), rounds))
    pushdown = summarize(time_rounds(
        lambda: service.query(request(pushdown_text)), rounds))
    per_tuple["input_bindings"] = pushdown["input_bindings"] = bindings
    speedup = per_tuple["mean_s"] / pushdown["mean_s"]
    print(f"        pushdown: {pushdown['mean_s'] * 1e3:8.2f} ms vs "
          f"per-tuple {per_tuple['mean_s'] * 1e3:8.2f} ms at "
          f"{bindings} bindings, speedup {speedup:6.1f}x")
    return {"pushdown": pushdown, "per_tuple": per_tuple}, speedup


def differential(queries_per_seed: int) -> int:
    checked = 0
    for seed in range(10):
        rng = random.Random(seed)
        triples = random_triples(rng)
        graph = Graph(triples)
        store = TripleStore(triples)
        for _ in range(queries_per_seed):
            parsed = parse_sparql(random_query(rng))
            plan = plan_query(store, parsed)
            if parsed.form == "ASK":
                assert run_ask(store, plan)[0] == ask(graph, parsed)
            else:
                assert solution_multiset(run_select(store, plan)[0]) == \
                    solution_multiset(select(graph, parsed))
            checked += 1
    return checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: same graph, fewer repetitions")
    parser.add_argument("--people", type=int, default=30_000,
                        help="graph scale (~3.7 triples per person)")
    parser.add_argument("--cities", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bindings", type=int, default=100,
                        help="input relation size for the pushdown leg")
    parser.add_argument("--min-speedup", type=float, default=20.0)
    parser.add_argument("--min-pushdown-speedup", type=float, default=5.0)
    options = parser.parse_args(argv)

    planned_rounds, naive_rounds, push_rounds, diff_queries = \
        (5, 2, 5, 10) if options.quick else (20, 5, 20, 30)

    started = time.perf_counter()
    store = build_store(options.people, options.cities, options.seed)
    build_s = time.perf_counter() - started
    print(f"built {len(store)} triples in {build_s:.1f}s "
          f"({options.people} people, {options.cities} cities)")
    assert len(store) >= 100_000, "benchmark graph must hold >=100k triples"

    series, min_speedup = planned_vs_naive(store, planned_rounds,
                                           naive_rounds)
    push_series, pushdown_speedup = pushdown_vs_per_tuple(
        store, options.bindings, push_rounds)
    series.update(push_series)

    checked = differential(diff_queries)
    print(f"     differential: {checked} random queries identical on "
          f"both paths (seeds 0-9)")

    path = write_bench_json(
        "sparql", series,
        seed=options.seed, triples=len(store), people=options.people,
        cities=options.cities, build_s=round(build_s, 2),
        min_query_speedup=round(min_speedup, 1),
        pushdown_speedup=round(pushdown_speedup, 1),
        differential_queries=checked)
    print(f"wrote {path}")

    failures = []
    if min_speedup < options.min_speedup:
        failures.append(f"planned speedup {min_speedup:.1f}x < "
                        f"{options.min_speedup}x")
    if pushdown_speedup < options.min_pushdown_speedup:
        failures.append(f"pushdown speedup {pushdown_speedup:.1f}x < "
                        f"{options.min_pushdown_speedup}x")
    if failures:
        for failure in failures:
            print(f"GATE FAIL: {failure}", file=sys.stderr)
        return 1
    print("gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
