"""Seeded random graphs and queries for the differential suite.

Shared by ``tests/sparql/test_differential.py`` and
``benchmarks/bench_sparql.py``: the planner/executor must produce the
same solution *multisets* as the backtracking oracle
(``reference_evaluator.py``) on every seed, so the generator
deliberately avoids the two evaluator-order-sensitive modifiers
(``ORDER BY``, ``LIMIT``) and covers everything else: chains and stars
of patterns, typed literals, filters (including over variables that may
be unbound), ``OPTIONAL``, ``UNION`` and ``DISTINCT``.

:func:`random_query` rarely sends a *ragged* row — one with a shared
column absent — into a ``UNION``/``OPTIONAL`` boundary; the executor
partitions such rows by which shared columns they carry, and
:func:`ragged_query` / :func:`ragged_seeds` exist to reach that code.
"""

import random
from collections import Counter

EX = "http://example.org/"
PROLOGUE = f"PREFIX ex: <{EX}>\n"


def random_triples(rng: random.Random, people: int = 40,
                   cities: int = 6) -> list[tuple]:
    """A small social graph with typed literals, as term triples."""
    from repro.rdf import Literal, URIRef, XSD

    triples = []
    city_terms = [URIRef(f"{EX}city{i}") for i in range(cities)]
    person_terms = [URIRef(f"{EX}p{i}") for i in range(people)]
    name = URIRef(EX + "name")
    age = URIRef(EX + "age")
    lives = URIRef(EX + "lives")
    knows = URIRef(EX + "knows")
    score = URIRef(EX + "score")
    vip = URIRef(EX + "vip")
    for index, person in enumerate(person_terms):
        triples.append((person, name, Literal(f"name{index}")))
        triples.append((person, age, Literal(str(rng.randint(1, 90)),
                                             datatype=XSD.integer)))
        triples.append((person, lives,
                        city_terms[rng.randrange(cities)]))
        if rng.random() < 0.6:
            triples.append((person, knows,
                            person_terms[rng.randrange(people)]))
        if rng.random() < 0.4:
            triples.append((person, score,
                            Literal(f"{rng.randint(0, 100)}.5",
                                    datatype=XSD.double)))
        if rng.random() < 0.25:
            triples.append((person, vip,
                            Literal("true", datatype=XSD.boolean)))
    for index, city in enumerate(city_terms):
        triples.append((city, name, Literal(f"city{index}")))
    return triples


def random_query(rng: random.Random) -> str:
    """One random SELECT/ASK over the generator's vocabulary."""
    variables = ["a", "b", "c", "d"]
    patterns = [f"?a ex:lives ?c"]
    used = {"a", "c"}
    for _ in range(rng.randrange(3)):
        choice = rng.randrange(4)
        if choice == 0:
            patterns.append("?a ex:knows ?b")
            used |= {"a", "b"}
        elif choice == 1:
            patterns.append("?a ex:age ?d")
            used |= {"a", "d"}
        elif choice == 2:
            patterns.append(f"?a ex:name \"name{rng.randrange(40)}\"")
        else:
            patterns.append(f"?c ex:name ?n")
            used |= {"c", "n"}
    body = " . ".join(patterns)
    clauses = [body]
    if rng.random() < 0.4:
        # a union whose branches bind different variables
        clauses.append("{ ?a ex:knows ?u } UNION { ?a ex:vip true }")
        used.add("u")
    if rng.random() < 0.4:
        clauses.append("OPTIONAL { ?a ex:score ?s }")
        used.add("s")
    filters = []
    if rng.random() < 0.5:
        # ?d (age) may be unbound in some generated queries — the
        # error-eliminates rule is part of what we differentially test
        filters.append(f"FILTER(?d > {rng.randrange(10, 70)})")
        used.add("d")
    if rng.random() < 0.3:
        filters.append("FILTER(BOUND(?s) || BOUND(?u) || ?a != ?c)")
    if rng.random() < 0.2:
        # boolean literal in expression position (may be unbound)
        filters.append("FILTER(?v = true)")
        used.add("v")
        if rng.random() < 0.5:
            clauses.append("OPTIONAL { ?a ex:vip ?v }")
    # no "." between clause kinds: the subset grammar separates triple
    # blocks, groups and filters by juxtaposition
    where = " ".join(clauses + filters)
    if rng.random() < 0.1:
        return f"{PROLOGUE}ASK {{ {where} }}"
    selected = sorted(used & set(variables) | {"a"})
    if rng.random() < 0.3:
        head = "*"
    else:
        count = rng.randint(1, len(selected))
        head = " ".join("?" + name for name in
                        rng.sample(selected, count))
    distinct = "DISTINCT " if rng.random() < 0.3 else ""
    return f"{PROLOGUE}SELECT {distinct}{head} WHERE {{ {where} }}"


def ragged_query(rng: random.Random) -> str:
    """One random ``SELECT *`` in which a ``UNION``/``OPTIONAL`` group
    shares a variable with rows that only *may* have bound it."""
    age = rng.randrange(10, 70)
    shape = rng.randrange(6)
    if shape == 0:
        # two OPTIONALs sharing a maybe-bound variable: where the first
        # found nothing, the second binds ?b itself
        where = ("?a ex:lives ?c OPTIONAL { ?a ex:knows ?b } "
                 "OPTIONAL { ?b ex:score ?s }")
    elif shape == 1:
        # the same, with a filter inside the group over the shared column
        where = ("?a ex:vip true OPTIONAL { ?a ex:knows ?b } "
                 f"OPTIONAL {{ ?b ex:age ?d FILTER(?d > {age}) }}")
    elif shape == 2:
        # a UNION whose branches bind different variables, then an
        # OPTIONAL over one of them
        where = ("?a ex:lives ?c { ?a ex:knows ?u } UNION { ?a ex:vip ?v } "
                 "OPTIONAL { ?u ex:score ?s }")
    elif shape == 3:
        # a UNION over a column an earlier UNION left half-bound
        where = ("{ ?a ex:knows ?u } UNION { ?a ex:vip ?v } "
                 "{ ?u ex:vip ?w } UNION { ?a ex:score ?s }")
    elif shape == 4:
        # two shared columns absent in different combinations
        where = ("?a ex:lives ?c OPTIONAL { ?a ex:knows ?b } "
                 "OPTIONAL { ?a ex:score ?s } "
                 f"OPTIONAL {{ ?b ex:score ?s . ?b ex:age ?d "
                 f"FILTER(?d < {age + 20}) }}")
    else:
        # a nested OPTIONAL leaves ?s maybe-bound for the outer one, and
        # the trailing filter reads it
        where = ("?a ex:vip true "
                 "OPTIONAL { ?a ex:knows ?b OPTIONAL { ?b ex:score ?s } } "
                 "OPTIONAL { ?a ex:score ?s } FILTER(BOUND(?s) || ?a != ?b)")
    return f"{PROLOGUE}SELECT * WHERE {{ {where} }}"


def ragged_seeds(rng: random.Random, triples: list[tuple]) -> list[dict]:
    """A pushed-down input table with missing values: twelve term-valued
    rows over ``?a`` / ``?b`` / ``?u``, each variable left out of about
    a third of them."""
    people = sorted({subject for subject, _p, _o in triples
                     if str(subject).startswith(EX + "p")}, key=str)
    return [{name: rng.choice(people) for name in ("a", "b", "u")
             if rng.random() < 0.65}
            for _ in range(12)]


def solution_multiset(solutions) -> Counter:
    """Order-insensitive, duplicate-preserving comparison key."""
    return Counter(tuple(sorted(solution.items()))
                   for solution in solutions)
