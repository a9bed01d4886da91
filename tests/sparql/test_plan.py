"""The join planner: ordering, filter placement, index hints, explain."""

from repro.rdf import Literal, URIRef
from repro.sparql import (FilterStep, OptionalStep, ScanStep, TripleStore,
                          UnionStep, explain, plan_query)

EX = "http://example.org/"
PROLOGUE = f"PREFIX ex: <{EX}>\n"


def term(name):
    return URIRef(EX + name)


def build_store(people=20):
    """name is highly selective (distinct per person); lives is not
    (everyone lives in one of two cities)."""
    store = TripleStore()
    for index in range(people):
        person = term(f"p{index}")
        store.add(person, term("name"), Literal(f"name{index}"))
        store.add(person, term("lives"), term(f"city{index % 2}"))
    return store


def scans(plan):
    return [step for step in plan.root.steps if isinstance(step, ScanStep)]


class TestJoinOrder:
    def test_selective_constant_runs_first(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + (
            'SELECT ?c WHERE { ?p ex:lives ?c . ?p ex:name "name3" }'))
        ordered = scans(plan)
        # the constant-object name lookup (1 match) beats the full
        # lives extent (20 matches)
        assert ordered[0].pattern.predicate == term("name")
        assert ordered[0].per_row == 1.0
        assert ordered[1].pattern.predicate == term("lives")
        # with ?p bound, lives costs its subject fan-out (1 per person)
        assert ordered[1].per_row < 2.0

    def test_seed_vars_change_the_order(self):
        store = build_store()
        text = PROLOGUE + "SELECT ?c WHERE { ?p ex:lives ?c }"
        cold = plan_query(store, text)
        seeded = plan_query(store, text, seed_vars=frozenset({"p"}))
        assert scans(cold)[0].per_row == 20.0
        assert scans(seeded)[0].per_row == 1.0
        assert seeded.root.seed_vars == ("p",)

    def test_disconnected_pattern_deferred(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + (
            'SELECT * WHERE { ?p ex:name "name3" . ?q ex:name "name4" . '
            "?p ex:lives ?c }"))
        ordered = scans(plan)
        # ?p's two patterns come before the cross-product ?q pattern
        assert ordered[1].pattern.predicate == term("lives")
        assert ordered[2].pattern.variables() == {"q"}


class TestIndexHints:
    def test_index_selection_mirrors_graph_dispatch(self):
        store = build_store()
        cases = [
            ("?s ex:name ?o", "pos"),
            ('?s ?p "name3"', "osp"),
            ("?s ?p ?o", "scan"),
            ("ex:p1 ?p ?o", "spo"),
        ]
        for pattern, expected in cases:
            plan = plan_query(store,
                              PROLOGUE + f"SELECT * WHERE {{ {pattern} }}")
            assert scans(plan)[0].index == expected, pattern


class TestFilterPlacement:
    def test_filter_sinks_to_where_its_variables_complete(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + (
            "SELECT * WHERE { ?p ex:name ?n . ?p ex:lives ?c . "
            'FILTER(?n = "name3") }'))
        steps = plan.root.steps
        kinds = [type(step).__name__ for step in steps]
        # the filter runs right after the scan binding ?n, not last
        filter_at = kinds.index("FilterStep")
        name_at = next(index for index, step in enumerate(steps)
                       if isinstance(step, ScanStep)
                       and step.pattern.predicate == term("name"))
        assert filter_at == name_at + 1
        assert filter_at < len(steps) - 1

    def test_filter_over_optional_variable_stays_late(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + (
            "SELECT * WHERE { ?p ex:name ?n . "
            "OPTIONAL { ?p ex:lives ?c } FILTER(BOUND(?c)) }"))
        kinds = [type(step).__name__ for step in plan.root.steps]
        assert kinds.index("FilterStep") > kinds.index("OptionalStep")

    def test_seeded_filter_runs_before_any_scan(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + (
            'SELECT * WHERE { ?p ex:lives ?c . FILTER(?p != ex:p1) }'),
            seed_vars=frozenset({"p"}))
        assert isinstance(plan.root.steps[0], FilterStep)


class TestSubgroupsAndCertainty:
    def test_union_branches_seeded_with_bound_variables(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + (
            "SELECT * WHERE { ?p ex:name ?n "
            "{ ?p ex:lives ?c } UNION { ?p ex:name ?c } }"))
        union = next(step for step in plan.root.steps
                     if isinstance(step, UnionStep))
        assert all(branch.seed_vars == ("p",)
                   for branch in union.branches)
        # both branches certainly bind ?c, so the group does too
        assert "c" in plan.root.certain

    def test_optional_adds_no_certainty(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + (
            "SELECT * WHERE { ?p ex:name ?n "
            "OPTIONAL { ?p ex:lives ?c } }"))
        assert "c" not in plan.root.certain
        assert any(isinstance(step, OptionalStep)
                   for step in plan.root.steps)
        assert "c" in plan.root.mentioned


class TestRendering:
    def test_explain_and_describe(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + (
            'SELECT ?c WHERE { ?p ex:lives ?c . ?p ex:name "name3" . '
            "OPTIONAL { ?p ex:knows ?q } FILTER(BOUND(?q)) }"))
        rendering = explain(plan)
        assert "SELECT estimated_rows=" in rendering
        assert "index=pos" in rendering
        assert "optional" in rendering
        assert "filter" in rendering
        view = plan.describe()
        assert view["form"] == "SELECT"
        assert view["store_version"] == store.version
        ops = [stage["op"] for stage in view["stages"]]
        assert ops.count("scan") == 2
        assert "optional" in ops and "filter" in ops

    def test_describe_builds_once_per_plan(self):
        store = build_store()
        plan = plan_query(store, PROLOGUE + "SELECT * WHERE { ?p ex:lives ?c }")
        assert plan.describe() is plan.describe()

    def test_drift_is_a_factor_of_two_either_way(self):
        store = build_store(people=20)
        plan = plan_query(store, PROLOGUE + "SELECT * WHERE { ?p ex:lives ?c }")
        statistic = f"count(*, <{EX}lives>, *)"
        assert dict(plan.costed_from) == {
            ("count", (None, term("lives"), None)): 20}
        for index in range(20, 40):  # exactly doubled: still holds
            store.add(term(f"p{index}"), term("lives"), term("city0"))
        assert plan.drift(store) is None
        store.add(term("p40"), term("lives"), term("city0"))
        assert plan.drift(store) == (statistic, 20, 41)
        for index in range(10, 41):  # 20 -> 10 holds, 20 -> 9 does not
            store.remove(term(f"p{index}"), term("lives"),
                         term("city0" if index >= 20 else f"city{index % 2}"))
        assert plan.drift(store) is None
        store.remove(term("p9"), term("lives"), term("city1"))
        assert plan.drift(store) == (statistic, 20, 9)

    def test_plan_records_store_version(self):
        store = build_store()
        text = PROLOGUE + "SELECT * WHERE { ?p ex:lives ?c }"
        plan = plan_query(store, text)
        assert plan.store_version == store.version
        store.add(term("p99"), term("lives"), term("city0"))
        assert plan.store_version != store.version
