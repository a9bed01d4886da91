"""Recursive-descent parser for the XPath 1.0 subset.

Supports location paths with the forward/reverse axes used in practice,
abbreviations (``//``, ``@``, ``.``, ``..``), predicates, the full
expression grammar (boolean, comparison, arithmetic, union), variables,
literals and function calls.
"""

from __future__ import annotations

from functools import lru_cache

from .ast import (And, Arithmetic, Comparison, ContextItem, Expr, Filter,
                  FunctionCall, KindTest, Literal, NameTest, Negate, NodeTest,
                  NumberLiteral, Or, Path, Root, Step, Union, VariableRef)
from .lexer import Lexer, Token, TokenError

__all__ = ["XPathSyntaxError", "parse_xpath", "XPathParser"]

AXES = frozenset({
    "child", "descendant", "descendant-or-self", "self", "parent",
    "ancestor", "ancestor-or-self", "attribute", "following-sibling",
    "preceding-sibling",
})

_KIND_TESTS = frozenset({"node", "text", "comment", "processing-instruction"})


class XPathSyntaxError(ValueError):
    """Raised when an expression does not conform to the grammar."""


class XPathParser:
    """Parses one expression from a :class:`Lexer`.

    The XQ-lite parser subclasses this and overrides :meth:`parse_primary`
    to add constructors and FLWOR expressions.
    """

    def __init__(self, lexer: Lexer) -> None:
        self.lexer = lexer

    # -- helpers -------------------------------------------------------------

    def error(self, message: str, token: Token) -> XPathSyntaxError:
        return XPathSyntaxError(f"{message} (at offset {token.position})")

    def expect_op(self, value: str) -> Token:
        token = self.lexer.next()
        if not token.is_op(value):
            raise self.error(f"expected {value!r}, found {token.value!r}",
                             token)
        return token

    # -- expression grammar ----------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.lexer.peek().is_name("or"):
            self.lexer.next()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_equality()
        while self.lexer.peek().is_name("and"):
            self.lexer.next()
            left = And(left, self.parse_equality())
        return left

    def parse_equality(self) -> Expr:
        left = self.parse_relational()
        while self.lexer.peek().is_op("=", "!="):
            op = self.lexer.next().value
            left = Comparison(op, left, self.parse_relational())
        return left

    def parse_relational(self) -> Expr:
        left = self.parse_additive()
        while self.lexer.peek().is_op("<", "<=", ">", ">="):
            op = self.lexer.next().value
            left = Comparison(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.lexer.peek().is_op("+", "-"):
            op = self.lexer.next().value
            left = Arithmetic(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            token = self.lexer.peek()
            if token.is_op("*") or token.is_name("div", "mod"):
                self.lexer.next()
                op = token.value
                left = Arithmetic(op, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        if self.lexer.peek().is_op("-"):
            self.lexer.next()
            return Negate(self.parse_unary())
        return self.parse_union()

    def parse_union(self) -> Expr:
        left = self.parse_path()
        while self.lexer.peek().is_op("|"):
            self.lexer.next()
            left = Union(left, self.parse_path())
        return left

    # -- paths -----------------------------------------------------------------

    def parse_path(self) -> Expr:
        token = self.lexer.peek()
        if token.is_op("/"):
            self.lexer.next()
            if self._starts_step(self.lexer.peek()):
                steps = self._parse_relative_steps()
                return Path(Root(), tuple(steps))
            return Root()
        if token.is_op("//"):
            self.lexer.next()
            steps = [Step("descendant-or-self", KindTest("node"))]
            steps.extend(self._parse_relative_steps())
            return Path(Root(), tuple(steps))
        if self._starts_primary(token) or self._is_function_start(token):
            base = self.parse_primary()
            predicates = self._parse_predicates()
            if predicates:
                base = Filter(base, tuple(predicates))
            if self.lexer.peek().is_op("/", "//"):
                steps = self._continue_steps()
                return Path(base, tuple(steps))
            return base
        steps = self._parse_relative_steps()
        return Path(None, tuple(steps))

    def _continue_steps(self) -> list[Step]:
        steps: list[Step] = []
        while True:
            token = self.lexer.peek()
            if token.is_op("//"):
                self.lexer.next()
                steps.append(Step("descendant-or-self", KindTest("node")))
                steps.append(self._parse_step())
            elif token.is_op("/"):
                self.lexer.next()
                steps.append(self._parse_step())
            else:
                return steps

    def _parse_relative_steps(self) -> list[Step]:
        steps = [self._parse_step()]
        steps.extend(self._continue_steps())
        return steps

    @staticmethod
    def _starts_step(token: Token) -> bool:
        return (token.kind == "name" or token.is_op("@", ".", "*")
                or (token.kind == "op" and token.value == ".."))

    @staticmethod
    def _starts_primary(token: Token) -> bool:
        return (token.kind in ("string", "number")
                or token.is_op("(", "$"))

    def _peek_ahead(self, count: int) -> list[Token]:
        """The next ``count`` tokens, without consuming them."""
        taken = [self.lexer.next() for _ in range(count)]
        for token in reversed(taken):
            self.lexer.push_back(token)
        return taken

    def _is_function_start(self, token: Token) -> bool:
        """True when the upcoming tokens are ``name(`` or ``pfx:name(``
        and the name is not a kind test (``text()`` etc. are steps)."""
        if token.kind != "name" or token.value in _KIND_TESTS:
            return False
        ahead = self._peek_ahead(4)
        if ahead[1].is_op("("):
            return True
        return (ahead[1].is_op(":") and ahead[2].kind == "name"
                and ahead[3].is_op("("))

    def _parse_step(self) -> Step:
        token = self.lexer.next()
        if token.is_op("."):
            if self.lexer.peek().is_op("."):
                self.lexer.next()
                return Step("parent", KindTest("node"),
                            tuple(self._parse_predicates()))
            return Step("self", KindTest("node"),
                        tuple(self._parse_predicates()))
        axis = "child"
        if token.is_op("@"):
            axis = "attribute"
            token = self.lexer.next()
        elif token.kind == "name" and self.lexer.peek().is_op("::"):
            if token.value not in AXES:
                raise self.error(f"unknown axis {token.value!r}", token)
            axis = token.value
            self.lexer.next()
            token = self.lexer.next()
        test = self._parse_node_test(token)
        return Step(axis, test, tuple(self._parse_predicates()))

    def _parse_node_test(self, token: Token) -> NodeTest:
        if token.is_op("*"):
            return NameTest(None, "*")
        if token.kind != "name":
            raise self.error(f"expected a node test, found {token.value!r}",
                             token)
        if token.value in _KIND_TESTS and self.lexer.peek().is_op("("):
            self.lexer.next()
            self.expect_op(")")
            return KindTest(token.value)
        prefix: str | None = None
        local = token.value
        if self.lexer.peek().is_op(":"):
            self.lexer.next()
            prefix = local
            after = self.lexer.next()
            if after.is_op("*"):
                local = "*"
            elif after.kind == "name":
                local = after.value
            else:
                raise self.error("expected local name after prefix", after)
        return NameTest(prefix, local)

    def _parse_predicates(self) -> list[Expr]:
        predicates: list[Expr] = []
        while self.lexer.peek().is_op("["):
            self.lexer.next()
            predicates.append(self.parse_expr())
            self.expect_op("]")
        return predicates

    # -- primaries ---------------------------------------------------------------

    def parse_primary(self) -> Expr:
        token = self.lexer.next()
        if token.kind == "string":
            return Literal(token.value)
        if token.kind == "number":
            return NumberLiteral(float(token.value))
        if token.is_op("$"):
            name = self.lexer.next()
            if name.kind != "name":
                raise self.error("expected variable name after '$'", name)
            return VariableRef(name.value)
        if token.is_op("("):
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if token.kind == "name":
            name = token.value
            if self.lexer.peek().is_op(":"):
                # prefixed function name such as fn:count
                self.lexer.next()
                local = self.lexer.next()
                name = f"{name}:{local.value}"
            self.expect_op("(")
            arguments: list[Expr] = []
            if not self.lexer.peek().is_op(")"):
                arguments.append(self.parse_expr())
                while self.lexer.peek().is_op(","):
                    self.lexer.next()
                    arguments.append(self.parse_expr())
            self.expect_op(")")
            return FunctionCall(name, tuple(arguments))
        raise self.error(f"unexpected token {token.value!r}", token)

    # -- entry -------------------------------------------------------------------

    def parse_complete(self) -> Expr:
        expr = self.parse_expr()
        trailing = self.lexer.next()
        if trailing.kind != "eof":
            raise self.error(
                f"unexpected trailing input {trailing.value!r}", trailing)
        return expr


#: how many parsed expressions :func:`parse_xpath` keeps (by text)
PARSE_CACHE_SIZE = 512


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_xpath(text: str) -> Expr:
    """Parse an XPath expression string into an AST.

    Cached by text: the AST is immutable, so one tree serves every caller
    of the same string.  A syntax error is not cached; it is raised anew,
    with the same message, each time.
    """
    try:
        return XPathParser(Lexer(text)).parse_complete()
    except TokenError as exc:
        raise XPathSyntaxError(str(exc)) from exc
