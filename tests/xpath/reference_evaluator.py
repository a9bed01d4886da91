"""The tree-walking XPath evaluator that shipped in
``repro.xpath.evaluator`` until compiled closures replaced it, kept
unmodified as the differential oracle of ``test_evaluator_differential.py``.

It re-dispatches on the AST with ``isinstance`` at every node, expands
``//name`` to two steps, sorts into document order after **every** step
with a key that scans each ancestor's sibling list, and builds a frozen
``Context`` per predicate candidate.  That is slow and is the point: it
defines the value, the node order and the error the compiled evaluator
must reproduce.

The four value coercions, the function library and the ``Context`` class
are shared with ``src/`` (they were not replaced); the dispatch, the
comparison semantics, the axes and the document-order sort below are the
code as it was.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.xmlmodel import (Comment, Document, Element, ProcessingInstruction,
                            Text)
from repro.xpath.ast import (And, Arithmetic, Comparison, ContextItem, Expr,
                             Filter, FunctionCall, KindTest, Literal, NameTest,
                             Negate, NumberLiteral, Or, Path, Root, Step,
                             Union, VariableRef)
from repro.xpath.evaluator import (_FUNCTIONS, Context, XPathEvaluationError,
                                   XPathValue, as_boolean, as_nodeset,
                                   as_number, as_string)
from repro.xpath.nodeops import (AttributeNode, XPathNode, _identity_index,
                                 document_order_key, string_value)
from repro.xpath.parser import parse_xpath

__all__ = ["evaluate", "evaluate_expr", "sort_document_order", "axis_nodes"]


# -- document order and the axes (from nodeops.py) ------------------------------


def sort_document_order(nodes: list[XPathNode]) -> list[XPathNode]:
    """Sort and deduplicate a node list into document order."""
    seen: set[int] = set()
    unique: list[XPathNode] = []
    for node in nodes:
        key = id(node) if not isinstance(node, AttributeNode) else hash(
            (id(node.owner), node.name))
        if key not in seen:
            seen.add(key)
            unique.append(node)
    unique.sort(key=document_order_key)
    return unique


def _children(node: XPathNode) -> list:
    if isinstance(node, (Element, Document)):
        return node.children
    return []


def _descendants(node: XPathNode) -> Iterator[XPathNode]:
    for child in _children(node):
        yield child
        yield from _descendants(child)


def axis_nodes(node: XPathNode, axis: str) -> Iterator[XPathNode]:
    """The nodes on ``axis`` starting from ``node``, in axis order."""
    if axis == "child":
        yield from _children(node)
    elif axis == "descendant":
        yield from _descendants(node)
    elif axis == "descendant-or-self":
        yield node
        yield from _descendants(node)
    elif axis == "self":
        yield node
    elif axis == "parent":
        parent = node.owner if isinstance(node, AttributeNode) else node.parent
        if parent is not None:
            yield parent
    elif axis in ("ancestor", "ancestor-or-self"):
        if axis == "ancestor-or-self":
            yield node
        current = (node.owner if isinstance(node, AttributeNode)
                   else node.parent)
        while current is not None:
            yield current
            current = current.parent
    elif axis == "attribute":
        if isinstance(node, Element):
            for name, value in node.attributes.items():
                yield AttributeNode(node, name, value)
    elif axis == "following-sibling":
        yield from _siblings(node, forward=True)
    elif axis == "preceding-sibling":
        yield from _siblings(node, forward=False)
    else:  # pragma: no cover - parser rejects unknown axes
        raise ValueError(f"unsupported axis: {axis}")


def _siblings(node: XPathNode, forward: bool) -> Iterator[XPathNode]:
    if isinstance(node, AttributeNode) or node.parent is None:
        return
    siblings = node.parent.children
    index = _identity_index(siblings, node)
    if forward:
        yield from siblings[index + 1:]
    else:
        yield from reversed(siblings[:index])


# -- comparison semantics ------------------------------------------------------


def _normalize_operand(value: XPathValue) -> XPathValue:
    """A bare node (e.g. a variable bound to one element) acts as a
    singleton node-set in comparisons."""
    if isinstance(value, (Element, Document, Text, Comment,
                          ProcessingInstruction, AttributeNode)):
        return [value]
    return value


def _compare(op: str, left: XPathValue, right: XPathValue) -> bool:
    left = _normalize_operand(left)
    right = _normalize_operand(right)
    left_is_ns = isinstance(left, list)
    right_is_ns = isinstance(right, list)
    if left_is_ns and right_is_ns:
        return any(_compare_atoms(op, string_value(a), string_value(b))
                   for a in left for b in right)
    if left_is_ns:
        return any(_compare_atoms(op, string_value(node), right)
                   for node in left)
    if right_is_ns:
        return any(_compare_atoms(op, left, string_value(node))
                   for node in right)
    return _compare_atoms(op, left, right)


def _compare_atoms(op: str, left: XPathValue, right: XPathValue) -> bool:
    if op in ("=", "!="):
        if isinstance(left, bool) or isinstance(right, bool):
            result = as_boolean(left) == as_boolean(right)
        elif isinstance(left, (int, float)) or isinstance(right, (int, float)):
            result = as_number(left) == as_number(right)
        else:
            result = as_string(left) == as_string(right)
        return result if op == "=" else not result
    left_num, right_num = as_number(left), as_number(right)
    if op == "<":
        return left_num < right_num
    if op == "<=":
        return left_num <= right_num
    if op == ">":
        return left_num > right_num
    return left_num >= right_num


# -- the evaluator ---------------------------------------------------------------


def evaluate_expr(expr: Expr, context: Context) -> XPathValue:
    """Evaluate a parsed expression in the given context."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, NumberLiteral):
        return expr.value
    if isinstance(expr, VariableRef):
        if expr.name not in context.variables:
            raise XPathEvaluationError(f"unbound variable ${expr.name}")
        return context.variables[expr.name]
    if isinstance(expr, Or):
        return (as_boolean(evaluate_expr(expr.left, context))
                or as_boolean(evaluate_expr(expr.right, context)))
    if isinstance(expr, And):
        return (as_boolean(evaluate_expr(expr.left, context))
                and as_boolean(evaluate_expr(expr.right, context)))
    if isinstance(expr, Comparison):
        return _compare(expr.op, evaluate_expr(expr.left, context),
                        evaluate_expr(expr.right, context))
    if isinstance(expr, Arithmetic):
        left = as_number(evaluate_expr(expr.left, context))
        right = as_number(evaluate_expr(expr.right, context))
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "div":
            if right == 0:
                return math.nan if left == 0 else math.copysign(
                    math.inf, left)
            return left / right
        return math.nan if right == 0 else math.fmod(left, right)
    if isinstance(expr, Negate):
        return -as_number(evaluate_expr(expr.operand, context))
    if isinstance(expr, Union):
        left = as_nodeset(evaluate_expr(expr.left, context))
        right = as_nodeset(evaluate_expr(expr.right, context))
        return sort_document_order(left + right)
    if isinstance(expr, FunctionCall):
        return _call_function(expr, context)
    if isinstance(expr, Root):
        return [_root_of(context.node)]
    if isinstance(expr, ContextItem):
        return [context.node]
    if isinstance(expr, Path):
        return _evaluate_path(expr, context)
    if isinstance(expr, Step):
        return _evaluate_steps([context.node], [expr], context)
    if isinstance(expr, Filter):
        nodes = as_nodeset(evaluate_expr(expr.base, context))
        return _apply_predicates(nodes, expr.predicates, context)
    raise XPathEvaluationError(f"cannot evaluate {type(expr).__name__}")


def _call_function(expr: FunctionCall, context: Context) -> XPathValue:
    handler = context.functions.get(expr.name) or _FUNCTIONS.get(
        expr.name.partition(":")[2] or expr.name) or _FUNCTIONS.get(expr.name)
    if handler is None:
        raise XPathEvaluationError(f"unknown function {expr.name}()")
    arguments = [evaluate_expr(arg, context) for arg in expr.arguments]
    return handler(context, arguments)


def _root_of(node: XPathNode) -> XPathNode:
    if isinstance(node, AttributeNode):
        node = node.owner
    return node.root()


def _evaluate_path(path: Path, context: Context) -> XPathValue:
    if path.start is None:
        start_nodes: list[XPathNode] = [context.node]
    else:
        start_nodes = as_nodeset(evaluate_expr(path.start, context))
    return _evaluate_steps(start_nodes, list(path.steps), context)


def _evaluate_steps(nodes: list[XPathNode], steps: list[Step],
                    context: Context) -> list[XPathNode]:
    current = nodes
    for step in steps:
        gathered: list[XPathNode] = []
        for node in current:
            along_axis = [candidate
                          for candidate in axis_nodes(node, step.axis)
                          if _matches_test(candidate, step, context)]
            # axis_nodes yields in axis order (reverse axes: nearest first),
            # which is exactly the order position() counts in.
            along_axis = _apply_predicates(along_axis, step.predicates,
                                           context)
            gathered.extend(along_axis)
        current = sort_document_order(gathered)
    return current


def _apply_predicates(nodes: list[XPathNode], predicates,
                      context: Context) -> list[XPathNode]:
    current = nodes
    for predicate in predicates:
        size = len(current)
        kept = []
        for index, node in enumerate(current):
            position = index + 1
            inner = context.with_node(node, position, size)
            value = evaluate_expr(predicate, inner)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if float(value) == float(position):
                    kept.append(node)
            elif as_boolean(value):
                kept.append(node)
        current = kept
    return current


def _matches_test(node: XPathNode, step: Step, context: Context) -> bool:
    test = step.test
    if isinstance(test, KindTest):
        if test.kind == "node":
            return True
        if test.kind == "text":
            return isinstance(node, Text)
        if test.kind == "comment":
            return isinstance(node, Comment)
        return isinstance(node, ProcessingInstruction)
    assert isinstance(test, NameTest)
    if step.axis == "attribute":
        if not isinstance(node, AttributeNode):
            return False
        name = node.name
        expected_uri = None
    else:
        if not isinstance(node, Element):
            return False
        name = node.name
        expected_uri = context.default_element_namespace
    if test.prefix is not None:
        if test.prefix not in context.namespaces:
            raise XPathEvaluationError(
                f"undeclared prefix {test.prefix!r} in name test")
        expected_uri = context.namespaces[test.prefix]
    if test.local != "*" and name.local != test.local:
        return False
    if test.local == "*" and test.prefix is None:
        return True
    return name.uri == expected_uri or (expected_uri is None
                                        and name.uri is None)


def evaluate(xpath: str, node: XPathNode,
             variables: dict[str, XPathValue] | None = None,
             namespaces: dict[str, str] | None = None,
             default_element_namespace: str | None = None) -> XPathValue:
    """Parse and evaluate an XPath expression against ``node``.

    ``variables`` provides ``$name`` bindings; ``namespaces`` resolves
    prefixes in name tests.  ``default_element_namespace`` optionally
    applies a namespace to unprefixed element name tests (XPath 2.0-style
    convenience; XPath 1.0 semantics when left ``None``).
    """
    expr = parse_xpath(xpath)
    context = Context(node=node, variables=dict(variables or {}),
                      namespaces=dict(namespaces or {}),
                      default_element_namespace=default_element_namespace)
    return evaluate_expr(expr, context)
