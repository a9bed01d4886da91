"""The argument index behind ``DatalogEngine.query``, against the oracle.

``query`` looks candidates up by the positions where the goal has
constants and still unifies each one; ``NaiveDatalogEngine.query``
orders every fact of the predicate and unifies them one by one.  The
answer lists must be equal, order included, for every goal shape:
nothing bound, some positions bound, all bound, repeated variables, and
constants that compare across types (``1`` = ``1.0``, ``True`` ≠ ``1``).
"""

import itertools
import math
import random

import pytest

from repro.bindings import Relation, answers_to_relation
from repro.datalog import DatalogEngine
from repro.datalog.ast import Atom, BodyLiteral, Const, Program, Rule, Var
from repro.datalog.engine import _index_key, _values_equal
from repro.grh.messages import Request, request_to_xml
from repro.services import DatalogService
from repro.xmlmodel import parse

from .reference_fixpoint import NaiveDatalogEngine

#: constants of every kind ``_values_equal`` joins or tells apart
VALUES = (0, 1, 2, 1.0, 2.0, 2.5, -0.0, True, False, "a", "b", "1", "True")


def _fact(predicate, *values):
    return Rule(Atom(predicate, tuple(Const(v) for v in values)), ())


def _program(seed: int) -> Program:
    rng = random.Random(seed)
    rules = [_fact("p", *(rng.choice(VALUES) for _ in range(3)))
             for _ in range(rng.randint(5, 40))]
    rules += [_fact("q", rng.choice(VALUES), rng.choice(VALUES))
              for _ in range(rng.randint(1, 15))]
    # a derived relation, so the index also covers what the fixpoint adds
    rules.append(Rule(Atom("r", (Var("X"), Var("Z"))), (
        BodyLiteral(Atom("p", (Var("X"), Var("Y"), Var("Z")))),
        BodyLiteral(Atom("q", (Var("Y"), Var("W")))))))
    return Program(rules)


def _goals(predicate: str, arity: int, rng: random.Random):
    """Every bound-position mask with random constants, plus goals that
    repeat a variable."""
    for mask in itertools.product((False, True), repeat=arity):
        yield Atom(predicate, tuple(
            Const(rng.choice(VALUES)) if bound else Var(f"V{position}")
            for position, bound in enumerate(mask)))
    yield Atom(predicate, (Var("X"), Var("X")) + tuple(
        Const(rng.choice(VALUES)) for _ in range(arity - 2)))
    if arity == 3:
        yield Atom(predicate, (Var("X"), Const(rng.choice(VALUES)),
                               Var("X")))


@pytest.mark.parametrize("seed", range(10))
def test_indexed_answers_equal_the_oracle_in_order(seed):
    program = _program(seed)
    indexed = DatalogEngine(program)
    oracle = NaiveDatalogEngine(program)
    rng = random.Random(1000 + seed)
    for predicate, arity in (("p", 3), ("q", 2), ("r", 2)):
        for goal in _goals(predicate, arity, rng):
            assert indexed.query(goal) == oracle.query(goal), goal


class TestKeys:
    def test_every_pair_the_comparison_accepts_shares_a_key(self):
        # the index is a necessary condition: it may never separate two
        # constants that unification would match
        for left, right in itertools.product(VALUES, repeat=2):
            if _values_equal(left, right):
                assert _index_key(left) == _index_key(right), (left, right)

    def test_one_equals_one_point_zero_and_true_is_apart(self):
        program = Program([_fact("v", 1), _fact("v", True), _fact("v", 2.0),
                           _fact("v", "1")])
        engine = DatalogEngine(program)
        oracle = NaiveDatalogEngine(program)
        for constant in (1, 1.0, True, False, 2, 2.0, "1", 0):
            goal = Atom("v", (Const(constant),))
            assert engine.query(goal) == oracle.query(goal), constant
        assert engine.query(Atom("v", (Const(2),))) == [{}]
        assert engine.query(Atom("v", (Const(0),))) == []

    def test_large_ints_meet_as_floats_do(self):
        # 2**53 + 1 has no float of its own: the comparison joins it
        # with 2**53, so the index must too
        program = Program([_fact("big", 2 ** 53 + 1)])
        goal = Atom("big", (Const(2 ** 53),))
        assert DatalogEngine(program).query(goal) \
            == NaiveDatalogEngine(program).query(goal) == [{}]

    def test_nan_matches_nothing_as_before(self):
        nan = float("nan")
        program = Program([_fact("n", nan), _fact("n", 1.5)])
        engine = DatalogEngine(program)
        assert engine.query(Atom("n", (Const(nan),))) == []
        assert engine.query(Atom("n", (Const(math.inf),))) == []
        assert engine.query(Atom("n", (Const(1.5),))) == [{}]


class TestGoalShapes:
    PROGRAM = """
        p(a, a, "a"). p(a, b, "a"). p(b, b, "a"). p(c, c, "b").
        p(1, 1.0, "a"). p(2, 3, "a").
    """

    def test_repeated_variable_beside_a_constant(self):
        engine = DatalogEngine(self.PROGRAM)
        goal = 'p(X, X, "a")'
        assert engine.query(goal) == NaiveDatalogEngine(self.PROGRAM) \
            .query(goal)
        assert [answer["X"] for answer in engine.query(goal)] \
            == [1, "a", "b"]

    def test_unknown_predicates_answer_nothing(self):
        engine = DatalogEngine(self.PROGRAM)
        for goal in ("nothing(X)", "nothing(a)", "p(a, b)", "p(a, X, Y, Z)"):
            assert engine.query(goal) == []

    def test_all_bound_goal(self):
        engine = DatalogEngine(self.PROGRAM)
        assert engine.query('p(a, b, "a")') == [{}]
        assert engine.query('p(b, a, "a")') == []


def _owned(service, person):
    response = service.handle(request_to_xml(Request(
        "query", "r::q", parse(f"<q>owns({person}, Car)</q>"),
        Relation([{}]))))
    return [row["Car"] for row in answers_to_relation(response)]


class TestServiceReloads:
    """``load``/``add_facts`` after a query build a new engine: the next
    query sees the new facts through a fresh index."""

    def test_add_facts_after_a_query(self):
        service = DatalogService("owns(doe, golf).")
        assert _owned(service, "doe") == ["golf"]
        service.add_facts("owns(doe, polo). owns(roe, clio).")
        assert _owned(service, "doe") == ["golf", "polo"]
        assert _owned(service, "roe") == ["clio"]

    def test_load_after_a_query(self):
        service = DatalogService("owns(doe, golf).")
        assert _owned(service, "doe") == ["golf"]
        service.load("owns(doe, passat).")
        assert _owned(service, "doe") == ["passat"]
