"""The semi-naive engine reaches the naive oracle's fixpoint with no
more work."""

from hypothesis import given, settings, strategies as st

from repro.datalog import DatalogEngine, evaluate

from .reference_fixpoint import NaiveDatalogEngine

TC_RULES = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
"""


def closure_program(edges):
    facts = "\n".join(f"edge(n{a}, n{b})." for a, b in edges)
    return facts + TC_RULES


class TestStrategyEquivalence:
    def test_same_fixpoint_on_chain(self):
        program = closure_program([(i, i + 1) for i in range(20)])
        semi = DatalogEngine(program)
        naive = NaiveDatalogEngine(program)
        assert semi.facts("path", 2) == naive.facts("path", 2)

    def test_semi_naive_uses_fewer_or_equal_derivation_rounds(self):
        program = closure_program([(i, i + 1) for i in range(15)])
        semi = DatalogEngine(program)
        naive = NaiveDatalogEngine(program)
        semi.facts("path", 2)
        naive.facts("path", 2)
        assert semi.rounds <= naive.rounds

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                   max_size=20))
    def test_property_same_fixpoint_on_random_graphs(self, edges):
        if not edges:
            return
        program = closure_program(sorted(edges))
        semi = DatalogEngine(program)
        naive = NaiveDatalogEngine(program)
        assert semi.facts("path", 2) == naive.facts("path", 2)


class TestQueryAnswerOrder:
    """``query`` unifies first and orders only the matches; the answers
    come out as when every fact was ordered first."""

    ENTITLED = """
        entitled(doe, b). entitled(doe, a). entitled(roe, c).
        entitled(doe, 10). entitled(doe, 9). entitled(doe, 2.5).
        entitled(doe, "B"). entitled(poe, a). entitled(doe, c).
    """

    def test_order_of_a_goal_with_several_matches_is_pinned(self):
        engine = DatalogEngine(self.ENTITLED)
        # by type name, then by the value's text: floats, ints ("10"
        # before "9"), strings
        assert [answer["C"] for answer in engine.query("entitled(doe, C)")] \
            == [2.5, 10, 9, "B", "a", "b", "c"]
        assert [answer["P"] for answer in engine.query("entitled(P, a)")] \
            == ["doe", "poe"]
        assert engine.query("entitled(doe, b)") == [{}]
        assert engine.query("entitled(moe, C)") == []

    def test_repeated_variable_answers_are_deduplicated_in_order(self):
        engine = DatalogEngine("e(b, b). e(a, a). e(a, b). e(c, c).")
        assert engine.query("e(X, X)") == [{"X": "a"}, {"X": "b"},
                                           {"X": "c"}]

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                   min_size=1, max_size=20), st.integers(0, 8))
    def test_same_answers_in_the_same_order_as_the_oracle(self, edges,
                                                           node):
        program = closure_program(sorted(edges))
        semi = DatalogEngine(program)
        naive = NaiveDatalogEngine(program)
        for goal in ("path(X, Y)", f"path(n{node}, Y)", f"path(X, n{node})",
                     "path(X, X)", f"path(n{node}, n{node})", "edge(X, Y)"):
            assert semi.query(goal) == naive.query(goal), goal


class TestAgainstNetworkxReference:
    """Transitive closure must equal the networkx reference result."""

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 10), st.integers(0, 10)),
                   min_size=1, max_size=25))
    def test_transitive_closure_matches_networkx(self, edges):
        import networkx as nx
        graph = nx.DiGraph(sorted(edges))
        expected = {(f"n{a}", f"n{b}")
                    for a, b in nx.transitive_closure(graph).edges()}
        engine = evaluate(closure_program(sorted(edges)))
        assert engine.facts("path", 2) == expected

    @settings(max_examples=15, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                   min_size=1, max_size=20),
           st.integers(0, 8))
    def test_reachability_matches_networkx(self, edges, source):
        import networkx as nx
        graph = nx.DiGraph(sorted(edges))
        graph.add_node(source)
        expected = {f"n{node}" for node in nx.descendants(graph, source)}
        expected.add(f"n{source}")
        facts = "\n".join(f"edge(n{a}, n{b})." for a, b in sorted(edges))
        engine = evaluate(facts + f"""
            reach(n{source}).
            reach(Y) :- reach(X), edge(X, Y).
        """)
        assert {values[0] for values in engine.facts("reach", 1)} == expected
