"""The test (condition) language.

Section 4.5: *"The test component (which corresponds to the WHERE clause
in SQL) contains a condition over the bound variables which discards
those tuples that do not satisfy the condition.  In general, it is
evaluated locally, using only simple comparison predicates."*

The language is the XPath expression grammar restricted to value
expressions: variable references, literals, comparisons, boolean
connectives, arithmetic and the core functions.  Because variables may be
bound to XML fragments (Sec. 3), path navigation *into a variable* is
allowed (``$Car/class = "B"``); free-standing paths are rejected — a test
has no context document.
"""

from __future__ import annotations

from ..bindings import Binding, Relation, Uri
from ..xmlmodel import Document, Element
from ..xpath.ast import (And, Arithmetic, Comparison, ContextItem, Expr,
                         Filter, FunctionCall, Negate, Or, Path, Root, Union,
                         VariableRef)
from ..xpath.evaluator import (Focus, XPathEvaluationError, as_boolean,
                               compile_expr)
from ..xpath.parser import parse_xpath, XPathSyntaxError

__all__ = ["TestExpression", "TestSyntaxError", "TestEvaluationError",
           "TEST_NS"]

#: Language URI of the built-in test language.
TEST_NS = "http://www.semwebtech.org/languages/2006/test"


class TestSyntaxError(ValueError):
    """Raised when a test expression is malformed or not a value expression."""

    __test__ = False  # not a pytest class, despite the name


class TestEvaluationError(ValueError):
    """Raised when a test cannot be evaluated over a binding."""

    __test__ = False  # not a pytest class, despite the name


def _collect_variables(expr: Expr, out: set[str]) -> None:
    if isinstance(expr, VariableRef):
        out.add(expr.name)
    elif isinstance(expr, (Or, And)):
        _collect_variables(expr.left, out)
        _collect_variables(expr.right, out)
    elif isinstance(expr, (Comparison, Arithmetic, Union)):
        _collect_variables(expr.left, out)
        _collect_variables(expr.right, out)
    elif isinstance(expr, Negate):
        _collect_variables(expr.operand, out)
    elif isinstance(expr, FunctionCall):
        for argument in expr.arguments:
            _collect_variables(argument, out)
    elif isinstance(expr, Filter):
        _collect_variables(expr.base, out)
        for predicate in expr.predicates:
            _collect_variables(predicate, out)
    elif isinstance(expr, Path):
        if expr.start is not None:
            _collect_variables(expr.start, out)
        for step in expr.steps:
            for predicate in step.predicates:
                _collect_variables(predicate, out)


def _reject_free_paths(expr: Expr) -> None:
    """Paths must be anchored in a variable (tests have no context node)."""
    if isinstance(expr, Path):
        if expr.start is None or isinstance(expr.start, (Root, ContextItem)):
            raise TestSyntaxError(
                "test expressions may only navigate into variables "
                "($Var/...); free paths have no context document")
        _reject_free_paths(expr.start)
        for step in expr.steps:
            for predicate in step.predicates:
                _reject_free_paths(predicate)
    elif isinstance(expr, (Root, ContextItem)):
        raise TestSyntaxError("test expressions have no context node")
    elif isinstance(expr, (Or, And, Comparison, Arithmetic, Union)):
        _reject_free_paths(expr.left)
        _reject_free_paths(expr.right)
    elif isinstance(expr, Negate):
        _reject_free_paths(expr.operand)
    elif isinstance(expr, FunctionCall):
        for argument in expr.arguments:
            _reject_free_paths(argument)
    elif isinstance(expr, Filter):
        _reject_free_paths(expr.base)
        for predicate in expr.predicates:
            _reject_free_paths(predicate)


class TestExpression:
    """A compiled boolean test over variable bindings."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, source: str,
                 namespaces: dict[str, str] | None = None) -> None:
        source = source.strip()
        if not source:
            raise TestSyntaxError("empty test expression")
        try:
            self._expr = parse_xpath(source)
        except XPathSyntaxError as exc:
            raise TestSyntaxError(str(exc)) from exc
        _reject_free_paths(self._expr)
        self._evaluate = compile_expr(self._expr)
        self.source = source
        self.namespaces = dict(namespaces or {})
        names: set[str] = set()
        _collect_variables(self._expr, names)
        self._variables = frozenset(names)

    def variables(self) -> frozenset[str]:
        """The variables the expression refers to (must be bound earlier)."""
        return self._variables

    def holds(self, binding: Binding) -> bool:
        """Evaluate the test over one tuple of bindings."""
        converted = {}
        for name, value in binding.items():
            if isinstance(value, Element):
                converted[name] = [value]
            elif isinstance(value, Uri):
                converted[name] = str(value)
            elif isinstance(value, (int, float)) and not isinstance(value,
                                                                    bool):
                converted[name] = float(value)
            else:
                converted[name] = value
        focus = Focus(Document([]), converted, self.namespaces)
        try:
            return as_boolean(self._evaluate(focus))
        except XPathEvaluationError as exc:
            raise TestEvaluationError(
                f"cannot evaluate test {self.source!r}: {exc}") from exc

    def filter(self, relation: Relation) -> Relation:
        """Keep the tuples satisfying the test (the Sec. 4.5 semantics)."""
        return relation.select(self.holds)

    def __repr__(self) -> str:
        return f"TestExpression({self.source!r})"
