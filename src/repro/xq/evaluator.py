"""Evaluation of XQ-lite queries.

A query evaluates to a **sequence** of items (nodes and/or atomic values).
The service layer turns each item of the result sequence into one
``log:result`` — which is exactly how the wrapped Saxon node of Fig. 8
produces one ``log:answer`` per result.

Documents are provided by name through a small registry so that queries
can say ``doc('cars.xml')/...`` without any filesystem or network access.

Like the XPath layer underneath, a query is **compiled once** into
closures (:func:`compile_query`, cached by AST; the text is cached by
:func:`~repro.xq.parser.parse_query`): one per FLWOR, conditional,
sequence and constructor, with the embedded XPath expressions compiled by
:func:`repro.xpath.evaluator.compile_expr`.  All of them run against one
:class:`~repro.xpath.evaluator.Focus` whose ``variables`` a FLWOR swaps
per tuple.  The interpreter this replaced is the differential oracle
``tests/xq/reference_evaluator.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from ..xmlmodel import Document, Element, QName, Text
from ..xpath.evaluator import (Focus, XPathEvaluationError, as_boolean,
                               as_number, as_string, compile_expr)
from ..xpath.nodeops import string_value, XPathNode
from .ast import (AttributeTemplate, ElementTemplate, FLWOR, ForClause,
                  IfExpr, Query, SequenceExpr, TextTemplate)
from .parser import parse_query

__all__ = ["XQEvaluationError", "evaluate_query", "evaluate_parsed_query",
           "compile_query", "Sequence"]

Sequence = list  # a sequence of items (nodes or atomic values)

#: how many compiled queries :func:`compile_query` keeps (by AST)
COMPILE_CACHE_SIZE = 512


class XQEvaluationError(ValueError):
    """Raised for evaluation errors specific to XQ-lite."""


def _to_sequence(value: Any) -> Sequence:
    """Normalize an XPath value to a sequence of items."""
    if isinstance(value, list):
        return value
    return [value]


def _to_variable_value(sequence: Sequence) -> Any:
    """The value form under which a sequence is bound to a variable."""
    if len(sequence) == 1 and not _is_node(sequence[0]):
        return sequence[0]
    return sequence


def _is_node(item: Any) -> bool:
    return isinstance(item, (Element, Document, Text)) or hasattr(item, "owner")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _effective_boolean(sequence: Sequence) -> bool:
    if len(sequence) == 1 and not _is_node(sequence[0]):
        return as_boolean(sequence[0])
    return as_boolean(sequence)


# -- the compiler ----------------------------------------------------------------
#
# ``_compile`` turns one expression into ``run(focus) -> Sequence``.  The
# namespace scope of the enclosing direct constructors is lexical (XQ-lite
# has no user functions), so it is resolved here and not tracked at run
# time; only a prefix that no constructor declares is looked up per
# evaluation, in the prolog's and the caller's namespaces.

Compiled = Callable[[Focus], Sequence]


def _compile(expr, scope: dict[str, str], default_ns: str | None) -> Compiled:
    if isinstance(expr, FLWOR):
        return _compile_flwor(expr, scope, default_ns)
    if isinstance(expr, IfExpr):
        condition = _compile(expr.condition, scope, default_ns)
        then = _compile(expr.then, scope, default_ns)
        otherwise = _compile(expr.otherwise, scope, default_ns)
        return lambda focus: (then(focus)
                              if _effective_boolean(condition(focus))
                              else otherwise(focus))
    if isinstance(expr, SequenceExpr):
        items = tuple(_compile(item, scope, default_ns)
                      for item in expr.items)

        def sequence(focus: Focus) -> Sequence:
            out: Sequence = []
            for item in items:
                out.extend(item(focus))
            return out
        return sequence
    if isinstance(expr, ElementTemplate):
        construct = _compile_constructor(expr, scope, default_ns)
        return lambda focus: [construct(focus)]
    # uncached: compile_query keeps the whole query, so an entry per
    # embedded expression would only push other callers' out of the LRU
    path = compile_expr.__wrapped__(expr)
    return lambda focus: _to_sequence(path(focus))


def _compile_flwor(expr: FLWOR, scope: dict[str, str],
                   default_ns: str | None) -> Compiled:
    clauses = tuple(
        (isinstance(clause, ForClause), clause.variable,
         _compile(clause.source if isinstance(clause, ForClause)
                  else clause.value, scope, default_ns))
        for clause in expr.clauses)
    where = None if expr.where is None \
        else _compile(expr.where, scope, default_ns)
    order_by = None if expr.order_by is None \
        else _compile(expr.order_by, scope, default_ns)
    descending = expr.descending
    body = _compile(expr.body, scope, default_ns)

    def flwor(focus: Focus) -> Sequence:
        outer = focus.variables
        tuples: list[dict[str, Any]] = [dict(outer)]
        for is_for, variable, source in clauses:
            if is_for:
                next_tuples = []
                for current in tuples:
                    focus.variables = current
                    for item in source(focus):
                        extended = dict(current)
                        extended[variable] = item
                        next_tuples.append(extended)
                tuples = next_tuples
            else:
                for current in tuples:
                    focus.variables = current
                    current[variable] = _to_variable_value(source(focus))
        if where is not None:
            kept = []
            for current in tuples:
                focus.variables = current
                if _effective_boolean(where(focus)):
                    kept.append(current)
            tuples = kept
        if order_by is not None:
            tuples = _order(tuples, order_by, descending, focus)
        out: Sequence = []
        for current in tuples:
            focus.variables = current
            out.extend(body(focus))
        focus.variables = outer
        return out
    return flwor


def _order(tuples: list[dict[str, Any]], key: Compiled, descending: bool,
           focus: Focus) -> list[dict[str, Any]]:
    keyed = []
    for current in tuples:
        focus.variables = current
        sequence = key(focus)
        if not sequence:
            key_value: Any = ""
        else:
            item = sequence[0]
            key_value = string_value(item) if _is_node(item) else item
        keyed.append((key_value, current))
    numeric = all(isinstance(key_value, (int, float))
                  or (isinstance(key_value, str) and _is_number(key_value))
                  for key_value, _ in keyed)
    if numeric:
        keyed.sort(key=lambda pair: as_number(pair[0]), reverse=descending)
    else:
        keyed.sort(key=lambda pair: as_string(pair[0]), reverse=descending)
    return [current for _, current in keyed]


# -- constructors ------------------------------------------------------------------


def _compile_name(raw: str, scope: dict[str, str], default_ns: str | None,
                  is_attribute: bool) -> Callable[[Focus], QName]:
    prefix, sep, local = raw.partition(":")
    if not sep:
        uri = None if is_attribute else scope.get("") or default_ns
        name = QName(uri, raw)
        return lambda focus: name
    declared = scope.get(prefix)

    def resolve(focus: Focus) -> QName:
        uri = declared or focus.namespaces.get(prefix)
        if uri is None:
            raise XQEvaluationError(
                f"undeclared prefix {prefix!r} in constructor")
        return QName(uri, local)
    return resolve


def _compile_attribute_value(attribute: AttributeTemplate,
                             scope: dict[str, str],
                             default_ns: str | None) -> Callable[[Focus], str]:
    parts = tuple(part if isinstance(part, str)
                  else _compile(part, scope, default_ns)
                  for part in attribute.parts)

    def value(focus: Focus) -> str:
        return "".join(
            part if isinstance(part, str) else " ".join(
                string_value(item) if _is_node(item) else as_string(item)
                for item in part(focus))
            for part in parts)
    return value


def _compile_constructor(template: ElementTemplate, scope: dict[str, str],
                         default_ns: str | None) -> Callable[[Focus], Element]:
    nsdecls = dict(template.nsdecls)
    # constructors nested in this one — directly or inside an embedded
    # { ... } expression — inherit its namespace scope
    scope = {**scope, **nsdecls}
    name = _compile_name(template.name, scope, default_ns,
                         is_attribute=False)
    attributes = tuple(
        (_compile_name(attribute.name, scope, default_ns, is_attribute=True),
         _compile_attribute_value(attribute, scope, default_ns))
        for attribute in template.attributes)
    # (literal text | None, nested constructor | None, embedded expr | None)
    content = []
    for item in template.content:
        if isinstance(item, TextTemplate):
            content.append((item.value if item.value.strip() else None,
                            None, None))
        elif isinstance(item, ElementTemplate):
            content.append((None, _compile_constructor(item, scope,
                                                       default_ns), None))
        else:
            content.append((None, None, _compile(item, scope, default_ns)))

    def construct(focus: Focus) -> Element:
        element = Element(name(focus), nsdecls=nsdecls)
        for attribute_name, attribute_value in attributes:
            element.set(attribute_name(focus), attribute_value(focus))
        last_was_atomic = False
        for literal, nested, embedded in content:
            if embedded is None:
                if nested is not None:
                    element.append(nested(focus))
                elif literal is not None:
                    element.append(Text(literal))
                last_was_atomic = False
                continue
            for value in embedded(focus):
                if _is_node(value):
                    if hasattr(value, "owner"):  # attribute node
                        element.append(Text(value.value))
                    elif isinstance(value, Document):
                        element.append(value.root_element.copy())
                    elif isinstance(value, Text):
                        element.append(Text(value.value))
                    else:
                        element.append(value.copy())
                    last_was_atomic = False
                else:
                    text = as_string(value)
                    if last_was_atomic:
                        text = " " + text
                    element.append(Text(text))
                    last_was_atomic = True
        return element
    return construct


# -- entry points ------------------------------------------------------------------------


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def compile_query(query: Query) -> Compiled:
    """The closure that evaluates ``query``'s body given a
    :class:`~repro.xpath.evaluator.Focus`; cached by AST."""
    return _compile(query.body, {}, query.prolog.default_element_namespace)


def evaluate_parsed_query(query: Query, context_node: XPathNode | None = None,
                          variables: dict[str, Any] | None = None,
                          documents: dict[str, Element] | None = None,
                          namespaces: dict[str, str] | None = None) -> Sequence:
    """Evaluate a parsed query; see :func:`evaluate_query`."""
    documents = documents or {}

    def fn_doc(_focus: Focus, args: list) -> list:
        name = as_string(args[0])
        if name not in documents:
            raise XQEvaluationError(f"unknown document {name!r}")
        return [documents[name]]

    in_scope = dict(namespaces or {})
    in_scope.update(query.prolog.namespaces)
    focus = Focus(Document([]) if context_node is None else context_node,
                  dict(variables or {}), in_scope,
                  query.prolog.default_element_namespace or None,
                  {"doc": fn_doc})
    try:
        return compile_query(query)(focus)
    except XPathEvaluationError as exc:
        raise XQEvaluationError(str(exc)) from exc


def evaluate_query(text: str, context_node: XPathNode | None = None,
                   variables: dict[str, Any] | None = None,
                   documents: dict[str, Element] | None = None,
                   namespaces: dict[str, str] | None = None) -> Sequence:
    """Parse and evaluate an XQ-lite query.

    ``variables`` are external bindings (the input variable bindings the
    GRH sends along with a query component); ``documents`` backs the
    ``doc()`` function.  Returns the result sequence.
    """
    return evaluate_parsed_query(parse_query(text), context_node, variables,
                                 documents, namespaces)
