"""Datalog: parsing, bottom-up evaluation, recursion, negation, safety."""

import pytest

from repro.datalog import (Const, DatalogEngine, DatalogSyntaxError,
                           SafetyError, StratificationError, Var, evaluate,
                           parse_atom, parse_program, query)


class TestParser:
    def test_facts_and_rules(self):
        program = parse_program("""
            % the car-rental knowledge base
            owns("John Doe", golf).
            class(golf, "B").
            offer(P, C) :- owns(P, C), class(C, K).
        """)
        assert len(program) == 3
        assert program.rules[0].is_fact
        assert not program.rules[2].is_fact

    def test_terms(self):
        atom = parse_atom('p(X, _Anon, lower, "Str ing", 42, -1.5)')
        assert atom.arguments == (Var("X"), Var("_Anon"), Const("lower"),
                                  Const("Str ing"), Const(42), Const(-1.5))

    def test_negation_and_comparison(self):
        program = parse_program(
            "p(X) :- q(X), not r(X), X > 3, X != 10.")
        body = program.rules[0].body
        kinds = [type(item).__name__ for item in body]
        assert kinds == ["BodyLiteral", "BodyLiteral", "Comparison",
                         "Comparison"]
        assert body[1].negated

    def test_not_prefix_predicate_is_not_negation(self):
        program = parse_program("p(X) :- notes(X).")
        assert not program.rules[0].body[0].negated

    @pytest.mark.parametrize("bad", [
        "p(X)",                 # missing dot
        "p(X :- q(X).",         # bad parens
        "P(x).",                # uppercase predicate
        'p("unterminated).',
        "p(X) :- .",            # empty body item
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(DatalogSyntaxError):
            parse_program(bad)


class TestEvaluation:
    def test_simple_join(self):
        rows = query("""
            owns("John Doe", golf).  owns("John Doe", passat).
            class(golf, "B").        class(passat, "C").
            owned_class(P, K) :- owns(P, C), class(C, K).
        """, 'owned_class("John Doe", K)')
        assert {row["K"] for row in rows} == {"B", "C"}

    def test_transitive_closure(self):
        rows = query("""
            edge(a, b). edge(b, c). edge(c, d).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """, "path(a, X)")
        assert {row["X"] for row in rows} == {"b", "c", "d"}

    def test_cyclic_graph_terminates(self):
        rows = query("""
            edge(a, b). edge(b, a).
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """, "path(X, Y)")
        assert len(rows) == 4  # a-a, a-b, b-a, b-b

    def test_ground_query(self):
        engine = evaluate("p(1). p(2).")
        assert engine.holds("p(1)")
        assert not engine.holds("p(3)")

    def test_repeated_variable_in_query(self):
        rows = query("e(a, a). e(a, b).", "e(X, X)")
        assert rows == [{"X": "a"}]

    def test_repeated_variable_in_body(self):
        rows = query("""
            e(a, a). e(a, b).
            loop(X) :- e(X, X).
        """, "loop(X)")
        assert rows == [{"X": "a"}]

    def test_comparison_builtins(self):
        rows = query("""
            n(1). n(2). n(3).
            big(X) :- n(X), X >= 2.
        """, "big(X)")
        assert {row["X"] for row in rows} == {2, 3}

    def test_numeric_equality_across_int_float(self):
        rows = query("n(2). m(2.0). both(X) :- n(X), m(Y), X = Y.",
                     "both(X)")
        assert len(rows) == 1

    def test_negation(self):
        rows = query("""
            car(golf). car(passat).
            rented(passat).
            available(C) :- car(C), not rented(C).
        """, "available(C)")
        assert rows == [{"C": "golf"}]

    def test_two_strata(self):
        rows = query("""
            node(a). node(b). node(c).
            edge(a, b).
            reach(a).
            reach(Y) :- reach(X), edge(X, Y).
            unreachable(X) :- node(X), not reach(X).
        """, "unreachable(X)")
        assert {row["X"] for row in rows} == {"c"}

    def test_paper_car_rental_rule(self):
        # the full Fig. 4-11 pipeline expressed as one deductive rule
        rows = query("""
            books("John Doe", paris).
            owns("John Doe", golf). owns("John Doe", passat).
            class(golf, "B"). class(passat, "C").
            class(polo, "B"). class(espace, "D").
            available(polo, paris). available(espace, paris).
            offer(P, Dest, C) :- books(P, Dest), owns(P, Own),
                                 class(Own, K), available(C, Dest),
                                 class(C, K).
        """, "offer(P, D, C)")
        assert rows == [{"P": "John Doe", "D": "paris", "C": "polo"}]


class TestSemiNaive:
    def test_linear_chain_converges(self):
        facts = "\n".join(f"edge(n{i}, n{i+1})." for i in range(50))
        engine = evaluate(facts + """
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- path(X, Z), edge(Z, Y).
        """)
        assert len(engine.facts("path", 2)) == 50 * 51 // 2

    def test_facts_accessor(self):
        engine = evaluate("p(1). p(2). q(X) :- p(X).")
        assert engine.facts("q", 1) == {(1,), (2,)}
        assert engine.facts("missing", 1) == set()


class TestErrors:
    def test_unsafe_head_variable(self):
        with pytest.raises(SafetyError):
            DatalogEngine("p(X, Y) :- q(X).")

    def test_unsafe_negated_variable(self):
        with pytest.raises(SafetyError):
            DatalogEngine("p(X) :- q(X), not r(Y).")

    def test_unsafe_comparison_variable(self):
        with pytest.raises(SafetyError):
            DatalogEngine("p(X) :- q(X), Y > 1.")

    def test_fact_with_variable(self):
        with pytest.raises(SafetyError):
            evaluate("p(X).")

    def test_unstratifiable(self):
        with pytest.raises(StratificationError):
            evaluate("""
                p(X) :- q(X), not r(X).
                r(X) :- q(X), not p(X).
                q(1).
            """)

    def test_mixed_type_ordering_rejected(self):
        with pytest.raises(Exception, match="mixed"):
            query('p("a"). big(X) :- p(X), X > 1.', "big(X)")
