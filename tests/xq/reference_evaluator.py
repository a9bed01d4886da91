"""The XQ-lite runtime that shipped in ``repro.xq.evaluator`` until
compiled closures replaced it, kept unmodified as the differential oracle
of ``test_evaluator_differential.py``.

It walks the query AST with ``isinstance`` for every tuple of every FLWOR,
copies the variable bindings into a new ``Context`` per embedded XPath
expression, and hands those to the tree-walking XPath oracle next door
(``tests/xpath/reference_evaluator.py``) — so a query evaluated here
touches none of the compiled code.  The sequence helpers and the error
class are shared with ``src/`` (they were not replaced).
"""

from __future__ import annotations

from typing import Any

from repro.xmlmodel import Document, Element, QName, Text
from repro.xpath.evaluator import (Context, XPathEvaluationError, as_boolean,
                                   as_number, as_string)
from repro.xpath.nodeops import XPathNode, string_value
from repro.xq.ast import (FLWOR, AttributeTemplate, ElementTemplate,
                          ForClause, IfExpr, LetClause, Prolog, Query,
                          SequenceExpr, TextTemplate)
from repro.xq.evaluator import (Sequence, XQEvaluationError, _is_node,
                                _is_number, _to_sequence, _to_variable_value)
from repro.xq.parser import parse_query

from ..xpath.reference_evaluator import evaluate_expr

__all__ = ["evaluate_query", "evaluate_parsed_query"]


class _XQRuntime:
    def __init__(self, prolog: Prolog, context: Context,
                 documents: dict[str, Element] | None) -> None:
        namespaces = dict(context.namespaces)
        namespaces.update(dict(prolog.namespaces))
        functions = dict(context.functions)
        documents = documents or {}

        def fn_doc(_context: Context, args: list) -> list:
            name = as_string(args[0])
            if name not in documents:
                raise XQEvaluationError(f"unknown document {name!r}")
            return [documents[name]]

        functions.setdefault("doc", fn_doc)
        default_ns = (prolog.default_element_namespace
                      or context.default_element_namespace)
        self.base_context = Context(
            node=context.node, position=context.position, size=context.size,
            variables=dict(context.variables), namespaces=namespaces,
            default_element_namespace=default_ns, functions=functions)
        self.prolog_namespaces = namespaces
        self.default_ns = prolog.default_element_namespace
        self._scope_stack: list[dict[str, str]] = [{}]

    # -- expression dispatch ---------------------------------------------------

    def evaluate(self, expr, variables: dict[str, Any]) -> Sequence:
        if isinstance(expr, FLWOR):
            return self._flwor(expr, variables)
        if isinstance(expr, IfExpr):
            condition = self._effective_boolean(expr.condition, variables)
            branch = expr.then if condition else expr.otherwise
            return self.evaluate(branch, variables)
        if isinstance(expr, SequenceExpr):
            out: Sequence = []
            for item in expr.items:
                out.extend(self.evaluate(item, variables))
            return out
        if isinstance(expr, ElementTemplate):
            # constructors inside embedded { ... } expressions inherit the
            # namespace scope of their enclosing constructor
            return [self._construct(expr, variables, self._scope_stack[-1])]
        value = evaluate_expr(expr, self._context(variables))
        return _to_sequence(value)

    def _context(self, variables: dict[str, Any]) -> Context:
        merged = dict(self.base_context.variables)
        merged.update(variables)
        return Context(node=self.base_context.node, position=1, size=1,
                       variables=merged,
                       namespaces=self.base_context.namespaces,
                       default_element_namespace=(
                           self.base_context.default_element_namespace),
                       functions=self.base_context.functions)

    def _effective_boolean(self, expr, variables: dict[str, Any]) -> bool:
        sequence = self.evaluate(expr, variables)
        if len(sequence) == 1 and not _is_node(sequence[0]):
            return as_boolean(sequence[0])
        return as_boolean(sequence)

    # -- FLWOR --------------------------------------------------------------------

    def _flwor(self, expr: FLWOR, variables: dict[str, Any]) -> Sequence:
        tuples: list[dict[str, Any]] = [dict(variables)]
        for clause in expr.clauses:
            if isinstance(clause, ForClause):
                next_tuples = []
                for current in tuples:
                    for item in self.evaluate(clause.source, current):
                        extended = dict(current)
                        extended[clause.variable] = item
                        next_tuples.append(extended)
                tuples = next_tuples
            else:
                assert isinstance(clause, LetClause)
                for current in tuples:
                    sequence = self.evaluate(clause.value, current)
                    current[clause.variable] = _to_variable_value(sequence)
        if expr.where is not None:
            tuples = [current for current in tuples
                      if self._effective_boolean(expr.where, current)]
        if expr.order_by is not None:
            tuples = self._order(tuples, expr.order_by, expr.descending)
        out: Sequence = []
        for current in tuples:
            out.extend(self.evaluate(expr.body, current))
        return out

    def _order(self, tuples: list[dict[str, Any]], key_expr,
               descending: bool) -> list[dict[str, Any]]:
        keyed = []
        for current in tuples:
            sequence = self.evaluate(key_expr, current)
            if not sequence:
                key_value: Any = ""
            else:
                item = sequence[0]
                key_value = string_value(item) if _is_node(item) else item
            keyed.append((key_value, current))
        numeric = all(isinstance(key, (int, float))
                      or (isinstance(key, str) and _is_number(key))
                      for key, _ in keyed)
        if numeric:
            keyed.sort(key=lambda pair: as_number(pair[0]),
                       reverse=descending)
        else:
            keyed.sort(key=lambda pair: as_string(pair[0]),
                       reverse=descending)
        return [current for _, current in keyed]

    # -- constructors ------------------------------------------------------------------

    def _construct(self, template: ElementTemplate,
                   variables: dict[str, Any],
                   scope: dict[str, str]) -> Element:
        local_scope = dict(scope)
        nsdecls = dict(template.nsdecls)
        local_scope.update(nsdecls)
        self._scope_stack.append(local_scope)
        try:
            return self._construct_in_scope(template, variables, local_scope,
                                            nsdecls)
        finally:
            self._scope_stack.pop()

    def _construct_in_scope(self, template: ElementTemplate,
                            variables: dict[str, Any],
                            local_scope: dict[str, str],
                            nsdecls: dict[str, str]) -> Element:
        name = self._resolve(template.name, local_scope, is_attribute=False)
        element = Element(name, nsdecls={prefix: uri for prefix, uri
                                         in nsdecls.items()})
        for attribute in template.attributes:
            attr_name = self._resolve(attribute.name, local_scope,
                                      is_attribute=True)
            element.set(attr_name, self._attribute_value(attribute, variables))
        last_was_atomic = False
        for item in template.content:
            if isinstance(item, TextTemplate):
                if item.value.strip():
                    element.append(Text(item.value))
                last_was_atomic = False
            elif isinstance(item, ElementTemplate):
                element.append(self._construct(item, variables, local_scope))
                last_was_atomic = False
            else:
                for value in self.evaluate(item, variables):
                    if _is_node(value):
                        node = value
                        if hasattr(node, "owner"):  # attribute node
                            element.append(Text(node.value))
                        elif isinstance(node, Document):
                            element.append(node.root_element.copy())
                        elif isinstance(node, Text):
                            element.append(Text(node.value))
                        else:
                            element.append(node.copy())
                        last_was_atomic = False
                    else:
                        text = as_string(value)
                        if last_was_atomic:
                            text = " " + text
                        element.append(Text(text))
                        last_was_atomic = True
        return element

    def _attribute_value(self, attribute: AttributeTemplate,
                         variables: dict[str, Any]) -> str:
        parts: list[str] = []
        for part in attribute.parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                sequence = self.evaluate(part, variables)
                parts.append(" ".join(
                    string_value(item) if _is_node(item) else as_string(item)
                    for item in sequence))
        return "".join(parts)

    def _resolve(self, raw: str, scope: dict[str, str],
                 is_attribute: bool) -> QName:
        prefix, sep, local = raw.partition(":")
        if not sep:
            if is_attribute:
                return QName(None, raw)
            uri = scope.get("") or self.default_ns
            return QName(uri, raw)
        uri = scope.get(prefix) or self.prolog_namespaces.get(prefix)
        if uri is None:
            raise XQEvaluationError(
                f"undeclared prefix {prefix!r} in constructor")
        return QName(uri, local)


def evaluate_parsed_query(query: Query, context_node: XPathNode | None = None,
                          variables: dict[str, Any] | None = None,
                          documents: dict[str, Element] | None = None,
                          namespaces: dict[str, str] | None = None) -> Sequence:
    """Evaluate a parsed query; see :func:`evaluate_query`."""
    if context_node is None:
        context_node = Document([])
    context = Context(node=context_node, variables=dict(variables or {}),
                      namespaces=dict(namespaces or {}))
    runtime = _XQRuntime(query.prolog, context, documents)
    try:
        return runtime.evaluate(query.body, {})
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
