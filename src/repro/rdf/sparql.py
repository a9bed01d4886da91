"""A SPARQL subset: the language front end (SELECT / ASK).

Supports: ``PREFIX`` prologue, ``SELECT [DISTINCT] ?vars|* WHERE``,
``ASK``, triple patterns with ``;`` / ``,`` lists and ``a``, ``FILTER``
expressions (comparisons, ``&&`` ``||`` ``!``, ``BOUND``, ``REGEX``,
``STR``, arithmetic), ``OPTIONAL`` groups, braced subgroups joined by
``UNION``, ``ORDER BY`` and ``LIMIT``.

This module is the tokenizer, the parser, the AST, filter-expression
evaluation and the solution modifiers; :mod:`repro.sparql` plans and
executes the AST over an indexed store.  Within one group the
evaluation order is fixed: basic patterns, then ``UNION`` blocks (in
textual order), then ``OPTIONAL`` groups, then ``FILTER``\\ s.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .terms import BNode, Literal, RDF, Term, URIRef, XSD

__all__ = ["SparqlSyntaxError", "SparqlEvaluationError", "parse_sparql",
           "SparqlQuery", "Solution", "filter_passes", "finalize_select",
           "Variable", "TriplePattern", "GroupPattern", "OptionalGroup",
           "UnionGroup", "FilterExpr", "Expr", "BinOp", "NotOp", "VarExpr",
           "TermExpr", "Call"]

Solution = dict[str, Term]


class SparqlSyntaxError(ValueError):
    """Raised on malformed queries."""


class SparqlEvaluationError(ValueError):
    """Raised on evaluation-time errors (bad filter operands etc.)."""


@dataclass(frozen=True)
class Variable:
    name: str


PatternTerm = Term | Variable


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    obj: PatternTerm

    def variables(self) -> set[str]:
        return {t.name for t in (self.subject, self.predicate, self.obj)
                if isinstance(t, Variable)}


@dataclass(frozen=True)
class FilterExpr:
    expression: "Expr"


@dataclass(frozen=True)
class OptionalGroup:
    group: "GroupPattern"


@dataclass(frozen=True)
class UnionGroup:
    """Braced subgroups joined by ``UNION`` (one branch = a plain
    nested group); joined against the enclosing group's solutions with
    per-branch duplicates preserved (multiset union, SPARQL spec)."""

    branches: tuple["GroupPattern", ...]


@dataclass(frozen=True)
class GroupPattern:
    patterns: tuple[TriplePattern, ...]
    filters: tuple[FilterExpr, ...]
    optionals: tuple[OptionalGroup, ...]
    unions: tuple[UnionGroup, ...] = ()

    def mentioned_variables(self) -> set[str]:
        """Every variable this group (or any nested group) can mention."""
        names: set[str] = set()
        for pattern in self.patterns:
            names |= pattern.variables()
        for union in self.unions:
            for branch in union.branches:
                names |= branch.mentioned_variables()
        for optional in self.optionals:
            names |= optional.group.mentioned_variables()
        for filter_expr in self.filters:
            names |= expression_variables(filter_expr.expression)
        return names


# filter expression AST ---------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class NotOp(Expr):
    operand: Expr


@dataclass(frozen=True)
class VarExpr(Expr):
    name: str


@dataclass(frozen=True)
class TermExpr(Expr):
    term: Term


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arguments: tuple[Expr, ...]


def expression_variables(expr: Expr) -> set[str]:
    """All variable names a filter expression mentions."""
    if isinstance(expr, VarExpr):
        return {expr.name}
    if isinstance(expr, BinOp):
        return expression_variables(expr.left) | \
            expression_variables(expr.right)
    if isinstance(expr, NotOp):
        return expression_variables(expr.operand)
    if isinstance(expr, Call):
        out: set[str] = set()
        for argument in expr.arguments:
            out |= expression_variables(argument)
        return out
    return set()


@dataclass(frozen=True)
class SparqlQuery:
    form: str  # 'SELECT' | 'ASK'
    variables: tuple[str, ...]  # empty = '*'
    distinct: bool
    where: GroupPattern
    order_by: str | None = None
    descending: bool = False
    limit: int | None = None
    prefixes: dict[str, str] = field(default_factory=dict)


# -- tokenizer ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<iri><[^>]*>)
  | (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>[+-]?\d+(?:\.\d+)?)
  | (?P<pname>[A-Za-z_][A-Za-z0-9_.-]*)?:(?P<plocal>[A-Za-z0-9_.-]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<op>&&|\|\||!=|<=|>=|[{}().,;=<>!*/+-])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SparqlSyntaxError(
                f"unexpected character {text[pos]!r} at offset {pos}")
        kind = match.lastgroup
        if kind == "plocal":
            prefix = match.group("pname") or ""
            tokens.append(_Token("pname",
                                 f"{prefix}:{match.group('plocal')}", pos))
        elif kind != "ws":
            tokens.append(_Token(kind, match.group(0), pos))
        pos = match.end()
    tokens.append(_Token("eof", "", pos))
    return tokens


# -- parser -------------------------------------------------------------------------


class _SparqlParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        self.prefixes: dict[str, str] = {}

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def error(self, message: str) -> SparqlSyntaxError:
        token = self.peek()
        return SparqlSyntaxError(
            f"{message} near {token.value!r} (offset {token.position})")

    def match_word(self, word: str) -> bool:
        token = self.peek()
        if token.kind == "word" and token.value.upper() == word:
            self.index += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        token = self.next()
        if not (token.kind == "op" and token.value == op):
            self.index -= 1
            raise self.error(f"expected {op!r}")

    # -- grammar -----------------------------------------------------------------

    def parse(self) -> SparqlQuery:
        while self.match_word("PREFIX"):
            name = self.next()
            if name.kind != "pname" or not name.value.endswith(":"):
                raise self.error("expected prefix declaration")
            iri = self.next()
            if iri.kind != "iri":
                raise self.error("expected IRI in prefix declaration")
            self.prefixes[name.value[:-1]] = iri.value[1:-1]
        if self.match_word("SELECT"):
            query = self._select()
        elif self.match_word("ASK"):
            query = self._ask()
        else:
            raise self.error("expected SELECT or ASK")
        if self.peek().kind != "eof":
            raise self.error("trailing input after query")
        return query

    def _select(self) -> SparqlQuery:
        distinct = self.match_word("DISTINCT")
        variables: list[str] = []
        star = False
        while True:
            token = self.peek()
            if token.kind == "var":
                variables.append(self.next().value[1:])
            elif token.kind == "op" and token.value == "*" and not variables:
                self.next()
                star = True
                break
            else:
                break
        if not variables and not star:
            raise self.error("SELECT needs variables or *")
        self.match_word("WHERE")
        where = self._group()
        order_by = None
        descending = False
        limit = None
        if self.match_word("ORDER"):
            if not self.match_word("BY"):
                raise self.error("expected BY after ORDER")
            if self.match_word("DESC"):
                descending = True
                self.expect_op("(")
                order_by = self._variable_name()
                self.expect_op(")")
            elif self.match_word("ASC"):
                self.expect_op("(")
                order_by = self._variable_name()
                self.expect_op(")")
            else:
                order_by = self._variable_name()
        if self.match_word("LIMIT"):
            token = self.next()
            if token.kind != "number":
                raise self.error("expected number after LIMIT")
            limit = int(token.value)
        return SparqlQuery("SELECT", tuple(variables), distinct, where,
                           order_by, descending, limit, self.prefixes)

    def _ask(self) -> SparqlQuery:
        self.match_word("WHERE")
        return SparqlQuery("ASK", (), False, self._group(),
                           prefixes=self.prefixes)

    def _variable_name(self) -> str:
        token = self.next()
        if token.kind != "var":
            raise self.error("expected a variable")
        return token.value[1:]

    def _group(self) -> GroupPattern:
        self.expect_op("{")
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        optionals: list[OptionalGroup] = []
        unions: list[UnionGroup] = []
        while True:
            token = self.peek()
            if token.kind == "op" and token.value == "}":
                self.next()
                return GroupPattern(tuple(patterns), tuple(filters),
                                    tuple(optionals), tuple(unions))
            if self.match_word("FILTER"):
                self.expect_op("(")
                filters.append(FilterExpr(self._expression()))
                self.expect_op(")")
                continue
            if self.match_word("OPTIONAL"):
                optionals.append(OptionalGroup(self._group()))
                continue
            if token.kind == "op" and token.value == "{":
                # a braced subgroup, possibly continued by UNION; a
                # single branch is the degenerate one-armed union
                branches = [self._group()]
                while self.match_word("UNION"):
                    branches.append(self._group())
                unions.append(UnionGroup(tuple(branches)))
                if self.peek().kind == "op" and self.peek().value == ".":
                    self.next()
                continue
            patterns.extend(self._triples_same_subject())
            if self.peek().kind == "op" and self.peek().value == ".":
                self.next()

    def _triples_same_subject(self) -> list[TriplePattern]:
        subject = self._term(position="subject")
        out: list[TriplePattern] = []
        while True:
            predicate = self._term(position="predicate")
            while True:
                obj = self._term(position="object")
                out.append(TriplePattern(subject, predicate, obj))
                if self.peek().kind == "op" and self.peek().value == ",":
                    self.next()
                else:
                    break
            if self.peek().kind == "op" and self.peek().value == ";":
                self.next()
                if self.peek().kind == "op" and self.peek().value in ".}":
                    return out
            else:
                return out

    def _term(self, position: str) -> PatternTerm:
        token = self.next()
        if token.kind == "var":
            return Variable(token.value[1:])
        if token.kind == "iri":
            return URIRef(token.value[1:-1])
        if token.kind == "pname":
            prefix, _, local = token.value.partition(":")
            if prefix not in self.prefixes:
                raise self.error(f"undeclared prefix {prefix!r}")
            return URIRef(self.prefixes[prefix] + local)
        if token.kind == "word" and token.value == "a" \
                and position == "predicate":
            return RDF.type
        if position == "object":
            if token.kind == "string":
                return self._literal_from(token)
            if token.kind == "number":
                if "." in token.value:
                    return Literal(token.value, datatype=XSD.double)
                return Literal(token.value, datatype=XSD.integer)
            if token.kind == "word" and token.value in ("true", "false"):
                return Literal(token.value, datatype=XSD.boolean)
        if token.kind == "word" and token.value.startswith("_"):
            return BNode(token.value)
        self.index -= 1
        raise self.error(f"invalid {position} term")

    def _literal_from(self, token: _Token) -> Literal:
        lexical = token.value[1:-1].encode().decode("unicode_escape")
        if self.peek().kind == "op" and self.peek().value == "^":
            # unreachable with current tokenizer; kept for clarity
            raise self.error("typed literals use ^^ without spaces")
        return Literal(lexical)

    # -- filter expressions ----------------------------------------------------------

    def _expression(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self.peek().kind == "op" and self.peek().value == "||":
            self.next()
            left = BinOp("||", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._comparison()
        while self.peek().kind == "op" and self.peek().value == "&&":
            self.next()
            left = BinOp("&&", left, self._comparison())
        return left

    def _comparison(self) -> Expr:
        left = self._additive()
        token = self.peek()
        if token.kind == "op" and token.value in ("=", "!=", "<", "<=", ">",
                                                  ">="):
            self.next()
            return BinOp(token.value, left, self._additive())
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.next().value
            left = BinOp(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while self.peek().kind == "op" and self.peek().value in "*/":
            op = self.next().value
            left = BinOp(op, left, self._unary())
        return left

    def _unary(self) -> Expr:
        token = self.peek()
        if token.kind == "op" and token.value == "!":
            self.next()
            return NotOp(self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self.next()
        if token.kind == "var":
            return VarExpr(token.value[1:])
        if token.kind == "string":
            return TermExpr(Literal(token.value[1:-1]))
        if token.kind == "number":
            datatype = XSD.double if "." in token.value else XSD.integer
            return TermExpr(Literal(token.value, datatype=datatype))
        if token.kind == "iri":
            return TermExpr(URIRef(token.value[1:-1]))
        if token.kind == "pname":
            prefix, _, local = token.value.partition(":")
            if prefix not in self.prefixes:
                raise self.error(f"undeclared prefix {prefix!r}")
            return TermExpr(URIRef(self.prefixes[prefix] + local))
        if token.kind == "op" and token.value == "(":
            inner = self._expression()
            self.expect_op(")")
            return inner
        if token.kind == "word":
            if token.value in ("true", "false"):
                return TermExpr(Literal(token.value,
                                        datatype=XSD.boolean))
            name = token.value.upper()
            self.expect_op("(")
            arguments: list[Expr] = []
            if not (self.peek().kind == "op" and self.peek().value == ")"):
                arguments.append(self._expression())
                while self.peek().kind == "op" and self.peek().value == ",":
                    self.next()
                    arguments.append(self._expression())
            self.expect_op(")")
            return Call(name, tuple(arguments))
        self.index -= 1
        raise self.error("invalid filter expression")


@lru_cache(maxsize=512)
def parse_sparql(text: str) -> SparqlQuery:
    """Parse a SPARQL-subset query.

    Bounded LRU by query text: the per-tuple ``{Var}`` path re-submits
    the same substituted texts, and the AST is immutable.  A syntax
    error raises and is not cached.
    """
    return _SparqlParser(text).parse()


# -- filter expressions and solution modifiers ---------------------------------


def _truth(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        python = value.to_python()
        if isinstance(python, bool):
            return python
        if isinstance(python, (int, float)):
            return python != 0
        return bool(python)
    if value is None:
        raise SparqlEvaluationError("unbound value in boolean context")
    return True


def _numeric(value) -> float:
    if isinstance(value, Literal):
        python = value.to_python()
        if isinstance(python, (int, float)) and not isinstance(python, bool):
            return float(python)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise SparqlEvaluationError(f"not a number: {value!r}")


def _eval_filter(expr: Expr, solution: Solution) -> object:
    if isinstance(expr, VarExpr):
        return solution.get(expr.name)
    if isinstance(expr, TermExpr):
        return expr.term
    if isinstance(expr, NotOp):
        return not _truth(_eval_filter(expr.operand, solution))
    if isinstance(expr, BinOp):
        if expr.op == "&&":
            return (_truth(_eval_filter(expr.left, solution))
                    and _truth(_eval_filter(expr.right, solution)))
        if expr.op == "||":
            return (_truth(_eval_filter(expr.left, solution))
                    or _truth(_eval_filter(expr.right, solution)))
        left = _eval_filter(expr.left, solution)
        right = _eval_filter(expr.right, solution)
        if expr.op in ("+", "-", "*", "/"):
            a, b = _numeric(left), _numeric(right)
            if expr.op == "+":
                return Literal(repr(a + b), datatype=XSD.double)
            if expr.op == "-":
                return Literal(repr(a - b), datatype=XSD.double)
            if expr.op == "*":
                return Literal(repr(a * b), datatype=XSD.double)
            if b == 0:
                raise SparqlEvaluationError("division by zero")
            return Literal(repr(a / b), datatype=XSD.double)
        return _compare(expr.op, left, right)
    if isinstance(expr, Call):
        return _eval_call(expr, solution)
    raise SparqlEvaluationError(f"cannot evaluate {expr!r}")


def _compare(op: str, left, right) -> bool:
    if left is None or right is None:
        raise SparqlEvaluationError("comparison with unbound variable")
    both_literal = isinstance(left, Literal) and isinstance(right, Literal)
    if both_literal:
        left_py, right_py = left.to_python(), right.to_python()
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (left_py, right_py))
        if numeric:
            left_cmp, right_cmp = float(left_py), float(right_py)
        else:
            left_cmp, right_cmp = str(left_py), str(right_py)
    else:
        left_cmp, right_cmp = str(left), str(right)
        if op not in ("=", "!="):
            raise SparqlEvaluationError(
                "ordering comparison requires literals")
    if op == "=":
        if both_literal:
            return left_cmp == right_cmp
        return left == right
    if op == "!=":
        if both_literal:
            return left_cmp != right_cmp
        return left != right
    if op == "<":
        return left_cmp < right_cmp
    if op == "<=":
        return left_cmp <= right_cmp
    if op == ">":
        return left_cmp > right_cmp
    return left_cmp >= right_cmp


def _eval_call(call: Call, solution: Solution) -> object:
    if call.name == "BOUND":
        arg = call.arguments[0]
        if not isinstance(arg, VarExpr):
            raise SparqlEvaluationError("BOUND expects a variable")
        return arg.name in solution and solution[arg.name] is not None
    values = [_eval_filter(arg, solution) for arg in call.arguments]
    if call.name == "STR":
        value = values[0]
        if isinstance(value, Literal):
            return Literal(value.lexical)
        if value is None:
            raise SparqlEvaluationError("STR of unbound variable")
        return Literal(str(value))
    if call.name == "REGEX":
        text = values[0]
        pattern = values[1]
        flags = re.IGNORECASE if (len(values) > 2 and isinstance(
            values[2], Literal) and "i" in values[2].lexical) else 0
        text_str = text.lexical if isinstance(text, Literal) else str(text)
        pattern_str = (pattern.lexical if isinstance(pattern, Literal)
                       else str(pattern))
        return re.search(pattern_str, text_str, flags) is not None
    if call.name == "LANG":
        value = values[0]
        if isinstance(value, Literal):
            return Literal(value.language or "")
        raise SparqlEvaluationError("LANG expects a literal")
    if call.name == "DATATYPE":
        value = values[0]
        if isinstance(value, Literal):
            return value.datatype or URIRef(str(XSD) + "string")
        raise SparqlEvaluationError("DATATYPE expects a literal")
    if call.name == "ISURI" or call.name == "ISIRI":
        return isinstance(values[0], URIRef)
    if call.name == "ISLITERAL":
        return isinstance(values[0], Literal)
    raise SparqlEvaluationError(f"unknown function {call.name}")


def filter_passes(expression: Expr, solution: Solution) -> bool:
    """Whether ``solution`` survives ``FILTER(expression)``: an
    evaluation error eliminates the solution (SPARQL spec)."""
    try:
        return _truth(_eval_filter(expression, solution))
    except SparqlEvaluationError:
        return False


def finalize_select(parsed: SparqlQuery,
                    solutions: list[Solution]) -> list[Solution]:
    """Apply the solution-sequence modifiers (projection, DISTINCT,
    ORDER BY, LIMIT) to raw group solutions."""
    if parsed.variables:
        solutions = [{name: solution[name] for name in parsed.variables
                      if name in solution}
                     for solution in solutions]
    if parsed.distinct:
        unique: list[Solution] = []
        seen = set()
        for solution in solutions:
            key = tuple(sorted(solution.items()))
            if key not in seen:
                seen.add(key)
                unique.append(solution)
        solutions = unique
    if parsed.order_by:
        solutions.sort(key=lambda s: _sort_key(s.get(parsed.order_by)),
                       reverse=parsed.descending)
    if parsed.limit is not None:
        solutions = solutions[:parsed.limit]
    return solutions


def _sort_key(term: Term | None):
    if term is None:
        return (0, "")
    if isinstance(term, Literal):
        python = term.to_python()
        if isinstance(python, (int, float)) and not isinstance(python, bool):
            return (1, float(python))
        return (2, str(python))
    return (3, str(term))
