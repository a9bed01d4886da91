"""Evaluation of XPath expressions against the XML node model.

Implements the XPath 1.0 data model: four value types (node-set, string,
number, boolean), existential comparison semantics, and the core function
library.  The :class:`Context` carries the context node, position/size,
variable bindings and in-scope namespace prefixes — variables are how the
ECA framework pushes rule bindings into component queries (Sec. 3 of the
paper).

An expression is evaluated by **compiling its AST once** into nested
Python closures (:func:`compile_expr`, cached by AST) and calling the
result with a :class:`Focus` — the one mutable context of an evaluation.
Location steps track whether the current node list is already in document
order, so :func:`~repro.xpath.nodeops.sort_document_order` runs only when
an axis can break it.  Nothing is kept about documents between calls.
The tree-walking interpreter this replaced lives on as the differential
oracle ``tests/xpath/reference_evaluator.py``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable

from ..xmlmodel import (Comment, Document, Element, ProcessingInstruction,
                        QName, Text)
from .ast import (And, Arithmetic, Comparison, ContextItem, Expr, Filter,
                  FunctionCall, KindTest, Literal, NameTest, Negate,
                  NumberLiteral, Or, Path, Root, Step, Union, VariableRef)
from .nodeops import (AXIS_FUNCTIONS, AttributeNode, XPathNode,
                      descendant_elements, sort_document_order, string_value)
from .parser import parse_xpath

__all__ = ["Context", "Focus", "XPathEvaluationError", "compile_expr",
           "evaluate", "evaluate_expr", "as_string", "as_number",
           "as_boolean", "as_nodeset"]

XPathValue = Any  # list[XPathNode] | str | float | bool

#: how many compiled expressions :func:`compile_expr` keeps (by AST)
COMPILE_CACHE_SIZE = 512


class XPathEvaluationError(ValueError):
    """Raised for type errors, unknown functions or unbound variables."""


@dataclass(frozen=True)
class Context:
    """Evaluation context for one expression."""

    node: XPathNode
    position: int = 1
    size: int = 1
    variables: dict[str, XPathValue] = field(default_factory=dict)
    namespaces: dict[str, str] = field(default_factory=dict)
    default_element_namespace: str | None = None
    functions: dict[str, Callable] = field(default_factory=dict)

    def with_node(self, node: XPathNode, position: int, size: int) -> "Context":
        return replace(self, node=node, position=position, size=size)


class Focus:
    """The one mutable context of an evaluation.

    Same attributes as :class:`Context`.  Variables, namespaces, the
    default element namespace and the functions are fixed when the
    evaluation starts; ``node``/``position``/``size`` are reassigned in
    place for every predicate candidate (and put back afterwards), so no
    object is allocated per candidate.  Function handlers receive the
    focus where the interpreter passed a ``Context``.
    """

    __slots__ = ("node", "position", "size", "variables", "namespaces",
                 "default_element_namespace", "functions")

    def __init__(self, node: XPathNode,
                 variables: dict[str, XPathValue],
                 namespaces: dict[str, str],
                 default_element_namespace: str | None = None,
                 functions: dict[str, Callable] | None = None,
                 position: int = 1, size: int = 1) -> None:
        self.node = node
        self.position = position
        self.size = size
        self.variables = variables
        self.namespaces = namespaces
        self.default_element_namespace = default_element_namespace
        self.functions = {} if functions is None else functions

    @classmethod
    def of(cls, context: Context) -> "Focus":
        return cls(context.node, context.variables, context.namespaces,
                   context.default_element_namespace, context.functions,
                   context.position, context.size)


# -- type coercions (XPath 1.0 §3.2/§4) ---------------------------------------


def as_string(value: XPathValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return _format_number(float(value))
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return string_value(value[0]) if value else ""
    raise XPathEvaluationError(f"cannot convert {type(value).__name__} to string")


def _format_number(number: float) -> str:
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "Infinity" if number > 0 else "-Infinity"
    if number == int(number):
        return str(int(number))
    return repr(number)


def as_number(value: XPathValue) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return math.nan
    if isinstance(value, list):
        return as_number(as_string(value))
    raise XPathEvaluationError(f"cannot convert {type(value).__name__} to number")


def as_boolean(value: XPathValue) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value) and not math.isnan(value)
    if isinstance(value, str):
        return bool(value)
    if isinstance(value, list):
        return bool(value)
    raise XPathEvaluationError(f"cannot convert {type(value).__name__} to boolean")


def as_nodeset(value: XPathValue) -> list[XPathNode]:
    if isinstance(value, list):
        return value
    if isinstance(value, (Element, Document, Text, Comment,
                          ProcessingInstruction, AttributeNode)):
        return [value]
    raise XPathEvaluationError("expression did not yield a node-set")


# -- comparison semantics ------------------------------------------------------

_NODE_TYPES = (Element, Document, Text, Comment, ProcessingInstruction,
               AttributeNode)


def _atoms_equal(left: XPathValue, right: XPathValue) -> bool:
    if type(left) is str and type(right) is str:   # the common pairing
        return left == right
    if isinstance(left, bool) or isinstance(right, bool):
        return as_boolean(left) == as_boolean(right)
    if isinstance(left, (int, float)) or isinstance(right, (int, float)):
        return as_number(left) == as_number(right)
    return as_string(left) == as_string(right)


#: comparison operator → its test on two atomic values (XPath 1.0 §3.4)
_ATOM_COMPARATORS: dict[str, Callable[[XPathValue, XPathValue], bool]] = {
    "=": _atoms_equal,
    "!=": lambda left, right: not _atoms_equal(left, right),
    "<": lambda left, right: as_number(left) < as_number(right),
    "<=": lambda left, right: as_number(left) <= as_number(right),
    ">": lambda left, right: as_number(left) > as_number(right),
    ">=": lambda left, right: as_number(left) >= as_number(right),
}


def _compare(atoms: Callable[[XPathValue, XPathValue], bool],
             left: XPathValue, right: XPathValue) -> bool:
    """Existential comparison: a node-set operand matches when one of its
    nodes' string-values does.  A bare node (e.g. a variable bound to one
    element) acts as a singleton node-set."""
    left_nodes = isinstance(left, list)
    if not left_nodes and isinstance(left, _NODE_TYPES):
        left, left_nodes = [left], True
    right_nodes = isinstance(right, list)
    if not right_nodes and isinstance(right, _NODE_TYPES):
        right, right_nodes = [right], True
    if left_nodes:
        if right_nodes:
            return any(atoms(string_value(a), string_value(b))
                       for a in left for b in right)
        for node in left:
            if atoms(string_value(node), right):
                return True
        return False
    if right_nodes:
        for node in right:
            if atoms(left, string_value(node)):
                return True
        return False
    return atoms(left, right)


# -- the core function library -------------------------------------------------


def _fn_last(context: Context, args: list) -> float:
    return float(context.size)


def _fn_position(context: Context, args: list) -> float:
    return float(context.position)


def _fn_count(context: Context, args: list) -> float:
    return float(len(as_nodeset(args[0])))


def _fn_string(context: Context, args: list) -> str:
    if not args:
        return string_value(context.node)
    return as_string(args[0])


def _fn_name(context: Context, args: list) -> str:
    nodes = as_nodeset(args[0]) if args else [context.node]
    if not nodes:
        return ""
    node = nodes[0]
    if isinstance(node, (Element, AttributeNode)):
        return node.name.local
    if isinstance(node, ProcessingInstruction):
        return node.target
    return ""


def _fn_namespace_uri(context: Context, args: list) -> str:
    nodes = as_nodeset(args[0]) if args else [context.node]
    if nodes and isinstance(nodes[0], (Element, AttributeNode)):
        return nodes[0].name.uri or ""
    return ""


def _fn_concat(context: Context, args: list) -> str:
    if len(args) < 2:
        raise XPathEvaluationError("concat() requires at least two arguments")
    return "".join(as_string(arg) for arg in args)


def _round_half_up(number: float) -> float:
    """XPath ``round()``: NaN and the infinities are their own result."""
    if math.isnan(number) or math.isinf(number):
        return number
    return float(math.floor(number + 0.5))


def _fn_substring(context: Context, args: list) -> str:
    # XPath 1.0 §4.2: the characters at positions p with
    # round(start) <= p < round(start) + round(length); a NaN bound
    # selects nothing, an infinite length runs to the end
    text = as_string(args[0])
    start = _round_half_up(as_number(args[1]))
    end = (start + _round_half_up(as_number(args[2])) if len(args) > 2
           else math.inf)
    begin = max(start, 1.0)
    if math.isnan(start) or not begin < end:
        return ""
    return text[int(begin) - 1:int(min(end, len(text) + 1.0)) - 1]


def _fn_substring_before(context: Context, args: list) -> str:
    text, sep = as_string(args[0]), as_string(args[1])
    index = text.find(sep)
    return text[:index] if index >= 0 else ""


def _fn_substring_after(context: Context, args: list) -> str:
    text, sep = as_string(args[0]), as_string(args[1])
    index = text.find(sep)
    return text[index + len(sep):] if index >= 0 else ""


def _fn_translate(context: Context, args: list) -> str:
    text, source, target = (as_string(arg) for arg in args[:3])
    table: dict[int, int | None] = {}
    for index, ch in enumerate(source):
        if ord(ch) not in table:
            table[ord(ch)] = ord(target[index]) if index < len(target) else None
    return text.translate(table)


def _fn_sum(context: Context, args: list) -> float:
    return float(sum(as_number(string_value(node))
                     for node in as_nodeset(args[0])))


_FUNCTIONS: dict[str, Callable[[Context, list], XPathValue]] = {
    "last": _fn_last,
    "position": _fn_position,
    "count": _fn_count,
    "string": _fn_string,
    "name": _fn_name,
    "local-name": _fn_name,
    "namespace-uri": _fn_namespace_uri,
    "concat": _fn_concat,
    "starts-with": lambda c, a: as_string(a[0]).startswith(as_string(a[1])),
    "ends-with": lambda c, a: as_string(a[0]).endswith(as_string(a[1])),
    "contains": lambda c, a: as_string(a[1]) in as_string(a[0]),
    "substring": _fn_substring,
    "substring-before": _fn_substring_before,
    "substring-after": _fn_substring_after,
    "string-length": lambda c, a: float(
        len(as_string(a[0]) if a else string_value(c.node))),
    "normalize-space": lambda c, a: " ".join(
        (as_string(a[0]) if a else string_value(c.node)).split()),
    "translate": _fn_translate,
    "boolean": lambda c, a: as_boolean(a[0]),
    "not": lambda c, a: not as_boolean(a[0]),
    "true": lambda c, a: True,
    "false": lambda c, a: False,
    "number": lambda c, a: as_number(a[0] if a else [c.node]),
    "sum": _fn_sum,
    "floor": lambda c, a: _integral(math.floor, as_number(a[0])),
    "ceiling": lambda c, a: _integral(math.ceil, as_number(a[0])),
    "round": lambda c, a: _round_half_up(as_number(a[0])),
    "abs": lambda c, a: abs(as_number(a[0])),
    # XQuery 1.0 additions usable from XQ-lite and tests
    "exists": lambda c, a: bool(as_nodeset(a[0])) if isinstance(a[0], list)
    else True,
    "empty": lambda c, a: not a[0] if isinstance(a[0], list) else False,
    "distinct-values": lambda c, a: _fn_distinct_values(c, a),
    "string-join": lambda c, a: _fn_string_join(c, a),
    "min": lambda c, a: _fn_aggregate(a[0], min),
    "max": lambda c, a: _fn_aggregate(a[0], max),
    "avg": lambda c, a: _fn_avg(a[0]),
}


def _integral(rounding, number: float):
    """``floor``/``ceiling``: NaN and the infinities are their own result."""
    if math.isnan(number) or math.isinf(number):
        return number
    return rounding(number)


def _atomized_strings(value: XPathValue) -> list[str]:
    if isinstance(value, list):
        return [string_value(item) if not isinstance(item, (str, int, float,
                                                            bool))
                else as_string(item) for item in value]
    return [as_string(value)]


def _fn_distinct_values(context: Context, args: list) -> list:
    # a sequence of atomic values (XQ-lite semantics), first occurrences
    # in order; dict keys make the membership test constant-time
    return list(dict.fromkeys(_atomized_strings(args[0])))


def _fn_string_join(context: Context, args: list) -> str:
    separator = as_string(args[1]) if len(args) > 1 else ""
    return separator.join(_atomized_strings(args[0]))


def _fn_aggregate(value: XPathValue, chooser) -> float:
    numbers = [as_number(text) for text in _atomized_strings(value)]
    if not numbers:
        return math.nan
    return chooser(numbers)


def _fn_avg(value: XPathValue) -> float:
    numbers = [as_number(text) for text in _atomized_strings(value)]
    if not numbers:
        return math.nan
    return sum(numbers) / len(numbers)


# -- the compiler ----------------------------------------------------------------
#
# ``_compile`` turns one AST node into a closure ``run(focus) -> value``;
# the closures of its children are captured, so evaluating never looks at
# the AST again.  The closures mirror the interpreter they replaced
# operation by operation (operand order, which error is met first), which
# is what ``tests/xpath/test_evaluator_differential.py`` checks.

Compiled = Callable[[Focus], XPathValue]


def _build_constant(expr) -> Compiled:
    value = expr.value
    return lambda focus: value


def _build_variable(expr: VariableRef) -> Compiled:
    name = expr.name

    def variable(focus: Focus) -> XPathValue:
        try:
            return focus.variables[name]
        except KeyError:
            raise XPathEvaluationError(f"unbound variable ${name}") from None
    return variable


def _build_or(expr: Or) -> Compiled:
    left, right = _compile(expr.left), _compile(expr.right)
    return lambda focus: (as_boolean(left(focus))
                          or as_boolean(right(focus)))


def _build_and(expr: And) -> Compiled:
    left, right = _compile(expr.left), _compile(expr.right)
    return lambda focus: (as_boolean(left(focus))
                          and as_boolean(right(focus)))


def _bare_attribute(expr: Expr) -> QName | None:
    """The attribute's name when ``expr`` is exactly ``@name``: one
    ``attribute::name`` step from the context node, unprefixed, not ``*``,
    no predicates."""
    if isinstance(expr, Path) and expr.start is None and len(expr.steps) == 1:
        expr = expr.steps[0]
    if isinstance(expr, Step) and expr.axis == "attribute" \
            and not expr.predicates and isinstance(expr.test, NameTest) \
            and expr.test.prefix is None and expr.test.local != "*":
        return QName(None, expr.test.local)
    return None


def _build_comparison(expr: Comparison) -> Compiled:
    atoms = _ATOM_COMPARATORS[expr.op]
    left, right = _compile(expr.left), _compile(expr.right)

    def compare(focus: Focus) -> bool:
        return _compare(atoms, left(focus), right(focus))

    if expr.op != "=":
        return compare
    # ``[@a = 'lit']`` / ``[@a = $v]`` (either way round): on an element
    # and a string the existential comparison is one dictionary probe —
    # no AttributeNode, no node list.  ``@a`` cannot raise there, so
    # evaluating the other operand first meets the same error; any other
    # node or value type takes the general comparison
    for attribute, operand, other in ((expr.left, expr.right, right),
                                      (expr.right, expr.left, left)):
        name = _bare_attribute(attribute)
        if name is not None and isinstance(operand, (Literal, VariableRef)):
            break
    else:
        return compare

    def probe(focus: Focus) -> bool:
        node = focus.node
        if isinstance(node, Element):
            value = other(focus)
            if type(value) is str:
                return node.attributes.get(name) == value
        return compare(focus)
    return probe


def _divide(left: float, right: float) -> float:
    if right == 0:
        return math.nan if left == 0 else math.copysign(math.inf, left)
    return left / right


def _modulo(left: float, right: float) -> float:
    return math.nan if right == 0 else math.fmod(left, right)


_ARITHMETIC: dict[str, Callable[[float, float], float]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "div": _divide, "mod": _modulo,
}


def _build_arithmetic(expr: Arithmetic) -> Compiled:
    apply = _ARITHMETIC[expr.op]
    left, right = _compile(expr.left), _compile(expr.right)
    return lambda focus: apply(as_number(left(focus)),
                               as_number(right(focus)))


def _build_negate(expr: Negate) -> Compiled:
    operand = _compile(expr.operand)
    return lambda focus: -as_number(operand(focus))


def _build_union(expr: Union) -> Compiled:
    left, right = _compile(expr.left), _compile(expr.right)

    def union(focus: Focus) -> list[XPathNode]:
        first = as_nodeset(left(focus))
        return sort_document_order(first + as_nodeset(right(focus)))
    return union


def _builtin(name: str) -> Callable | None:
    return _FUNCTIONS.get(name.partition(":")[2] or name) \
        or _FUNCTIONS.get(name)


def _build_call(expr: FunctionCall) -> Compiled:
    name = expr.name
    builtin = _builtin(name)
    arguments = tuple(_compile(argument) for argument in expr.arguments)

    def call(focus: Focus) -> XPathValue:
        # per evaluation, the caller's functions first: that is how an
        # XQ-lite query gets its doc()
        handler = focus.functions.get(name) or builtin
        if handler is None:
            raise XPathEvaluationError(f"unknown function {name}()")
        return handler(focus, [argument(focus) for argument in arguments])
    return call


def _root_of(node: XPathNode) -> XPathNode:
    if isinstance(node, AttributeNode):
        node = node.owner
    return node.root()


def _build_root(expr: Root) -> Compiled:
    return lambda focus: [_root_of(focus.node)]


def _build_context_item(expr: ContextItem) -> Compiled:
    return lambda focus: [focus.node]


def _build_filter(expr: Filter) -> Compiled:
    base = _compile(expr.base)
    if not expr.predicates:
        return lambda focus: as_nodeset(base(focus))
    keep = _compile_predicates(expr.predicates)

    def filtered(focus: Focus) -> list[XPathNode]:
        nodes = as_nodeset(base(focus))
        outer = focus.node, focus.position, focus.size
        nodes = keep(nodes, focus)
        focus.node, focus.position, focus.size = outer
        return nodes
    return filtered


def _build_path(expr: Path) -> Compiled:
    start = None if expr.start is None else _compile(expr.start)
    start_ordered = expr.start is None or _yields_document_order(expr.start)
    has_predicates = any(step.predicates for step in expr.steps)
    if start is None and len(expr.steps) == 1 and not has_predicates:
        # '@name', 'model', '..': the shape most predicates have — one
        # node in, so what the step selects is the result
        select = _compile_select(expr.steps[0])
        if expr.steps[0].axis in _REVERSE_AXES:
            return lambda focus: select(focus.node, focus)[::-1]
        return lambda focus: select(focus.node, focus)
    walk = _compile_steps(expr.steps)

    def path(focus: Focus) -> list[XPathNode]:
        nodes = [focus.node] if start is None else as_nodeset(start(focus))
        if not has_predicates:
            return walk(nodes, start_ordered, focus)
        outer = focus.node, focus.position, focus.size
        nodes = walk(nodes, start_ordered, focus)
        focus.node, focus.position, focus.size = outer
        return nodes
    return path


def _build_step(expr: Step) -> Compiled:
    return _build_path(Path(None, (expr,)))


def _build_unknown(expr) -> Compiled:
    kind = type(expr).__name__

    def unknown(focus: Focus) -> XPathValue:
        raise XPathEvaluationError(f"cannot evaluate {kind}")
    return unknown


_BUILDERS: dict[type, Callable[[Any], Compiled]] = {
    Literal: _build_constant, NumberLiteral: _build_constant,
    VariableRef: _build_variable, Or: _build_or, And: _build_and,
    Comparison: _build_comparison, Arithmetic: _build_arithmetic,
    Negate: _build_negate, Union: _build_union, FunctionCall: _build_call,
    Root: _build_root, ContextItem: _build_context_item,
    Path: _build_path, Step: _build_step, Filter: _build_filter,
}


def _compile(expr: Expr) -> Compiled:
    return _BUILDERS.get(type(expr), _build_unknown)(expr)


# -- predicates ----------------------------------------------------------------------


def _compile_predicates(predicates: tuple[Expr, ...]):
    """``keep(nodes, focus)``: the nodes each predicate in turn lets
    through, position counted in the order given.  Leaves the focus on
    the last candidate; the enclosing path or filter puts it back."""
    compiled = tuple(_compile(predicate) for predicate in predicates)

    def keep(nodes: list[XPathNode], focus: Focus) -> list[XPathNode]:
        for predicate in compiled:
            focus.size = len(nodes)
            kept = []
            position = 0
            for node in nodes:
                position += 1
                focus.node = node
                focus.position = position
                value = predicate(focus)
                if value is True:
                    kept.append(node)
                elif value is False:
                    pass
                elif isinstance(value, (int, float)):
                    if float(value) == position:
                        kept.append(node)
                elif as_boolean(value):
                    kept.append(node)
            nodes = kept
        return nodes
    return keep


#: the core functions whose result is a boolean whatever their arguments
_BOOLEAN_FUNCTIONS = frozenset(_FUNCTIONS[name] for name in (
    "boolean", "not", "true", "false", "starts-with", "ends-with",
    "contains", "exists", "empty"))


def _own_focus_calls(expr: Expr, names: set[str]) -> bool:
    """Collect into ``names`` the functions called in ``expr``'s own focus
    (not inside the predicates of its steps and filters, which get a
    focus of their own).  False when a call may read position or size:
    ``position()``, ``last()`` or anything that is not a core function."""
    if isinstance(expr, (Literal, NumberLiteral, VariableRef, Root,
                         ContextItem, Step)):
        return True
    if isinstance(expr, (Or, And, Comparison, Arithmetic, Union)):
        return (_own_focus_calls(expr.left, names)
                and _own_focus_calls(expr.right, names))
    if isinstance(expr, Negate):
        return _own_focus_calls(expr.operand, names)
    if isinstance(expr, FunctionCall):
        if _builtin(expr.name) in (None, _fn_position, _fn_last):
            return False
        names.add(expr.name)
        return all(_own_focus_calls(argument, names)
                   for argument in expr.arguments)
    if isinstance(expr, Path):
        return expr.start is None or _own_focus_calls(expr.start, names)
    if isinstance(expr, Filter):
        return _own_focus_calls(expr.base, names)
    return False


def _position_free(predicates: tuple[Expr, ...]) -> frozenset[str] | None:
    """The core functions the predicates rely on, if every one of them is
    statically a boolean test that never reads position or size — so the
    candidates may be offered in any grouping.  ``None`` otherwise:
    ``[1]``, ``[last()]``, ``[$n]`` (a variable may hold a number)."""
    names: set[str] = set()
    for predicate in predicates:
        boolean = isinstance(predicate, (Comparison, And, Or, Path, Step)) \
            or (isinstance(predicate, FunctionCall)
                and _builtin(predicate.name) in _BOOLEAN_FUNCTIONS)
        if not boolean or not _own_focus_calls(predicate, names):
            return None
    return frozenset(names)


# -- location steps --------------------------------------------------------------------
#
# A step maps (nodes, ordered, flat) to (nodes, ordered, flat).  ``ordered``
# says the list is in document order without duplicates — what the
# interpreter re-established by sorting after every step; ``flat`` says no
# node in it is an ancestor of another.  A list of at most one node is
# both.  The sort runs only where an axis can break the order.

_REVERSE_AXES = frozenset({"ancestor", "ancestor-or-self",
                           "preceding-sibling"})
_NESTING_AXES = frozenset({"descendant", "descendant-or-self", "ancestor",
                           "ancestor-or-self"})
_KIND_CLASSES = {"text": Text, "comment": Comment}
_DOUBLE_SLASH = Step("descendant-or-self", KindTest("node"), ())
_UNRESOLVED = object()


def _yields_document_order(expr: Expr) -> bool:
    if isinstance(expr, (Step, Union, Root, ContextItem)):
        return True
    if isinstance(expr, Path):
        return bool(expr.steps) or expr.start is None \
            or _yields_document_order(expr.start)
    if isinstance(expr, Filter):
        return _yields_document_order(expr.base)
    return False


def _attribute_order(node: AttributeNode) -> tuple[str, str]:
    return node.name.uri or "", node.name.local


def _compile_match(axis: str, test):
    """``match(node, focus)``: a fresh list of the nodes on ``axis`` from
    ``node`` that pass the node test, in axis order."""
    along = AXIS_FUNCTIONS[axis]
    if isinstance(test, KindTest):
        if test.kind == "node":
            return lambda node, focus: list(along(node))
        kind = _KIND_CLASSES.get(test.kind, ProcessingInstruction)
        return lambda node, focus: [candidate for candidate in along(node)
                                    if isinstance(candidate, kind)]
    assert isinstance(test, NameTest)
    prefix, local = test.prefix, test.local
    on_attributes = axis == "attribute"
    principal = AttributeNode if on_attributes else Element
    if prefix is None and local == "*":
        return lambda node, focus: [candidate for candidate in along(node)
                                    if isinstance(candidate, principal)]
    if prefix is None and on_attributes:
        name = QName(None, local)

        def match_attribute(node: XPathNode, focus: Focus) -> list:
            if isinstance(node, Element):
                value = node.attributes.get(name)
                if value is not None:
                    return [AttributeNode(node, name, value)]
            return []
        return match_attribute
    if prefix is None and axis == "descendant":
        return lambda node, focus: descendant_elements(
            node, local, focus.default_element_namespace)
    if prefix is None:
        def match_element(node: XPathNode, focus: Focus) -> list:
            uri = focus.default_element_namespace
            return [candidate for candidate in along(node)
                    if isinstance(candidate, Element)
                    and candidate.name.local == local
                    and candidate.name.uri == uri]
        return match_element

    def match_prefixed(node: XPathNode, focus: Focus) -> list:
        # the prefix is looked up when the first candidate of the
        # principal node type reaches the test, so an undeclared prefix
        # on an axis with no such candidate is not an error
        uri = _UNRESOLVED
        matched = []
        for candidate in along(node):
            if isinstance(candidate, principal):
                if uri is _UNRESOLVED:
                    if prefix not in focus.namespaces:
                        raise XPathEvaluationError(
                            f"undeclared prefix {prefix!r} in name test")
                    uri = focus.namespaces[prefix]
                if (local == "*" or candidate.name.local == local) \
                        and candidate.name.uri == uri:
                    matched.append(candidate)
        return matched
    return match_prefixed


def _compile_select(step: Step):
    """``select(node, focus)``: what the step yields from one node — on the
    axis, through the test, through the predicates — in axis order."""
    match = _compile_match(step.axis, step.test)
    # attributes order by expanded name, not by where they were written
    by_name = step.axis == "attribute" and not (
        isinstance(step.test, NameTest) and step.test.local != "*")
    if not step.predicates and not by_name:
        return match
    keep = _compile_predicates(step.predicates)

    def select(node: XPathNode, focus: Focus) -> list[XPathNode]:
        found = match(node, focus)
        if found:
            found = keep(found, focus)
            if by_name and len(found) > 1:
                found.sort(key=_attribute_order)
        return found
    return select


def _compile_step(step: Step):
    select = _compile_select(step)
    axis = step.axis
    reverse = axis in _REVERSE_AXES
    flat_from_one = axis not in _NESTING_AXES
    keeps_order = axis in ("self", "attribute")
    keeps_order_if_flat = axis in ("child", "descendant",
                                   "descendant-or-self")
    keeps_flat = axis in ("self", "child")
    attributes = axis == "attribute"

    def advance(current: list, ordered: bool, flat: bool, focus: Focus):
        if len(current) < 2:
            if not current:
                return [], True, True
            found = select(current[0], focus)
            if reverse:
                found.reverse()
            return found, True, flat_from_one
        gathered: list[XPathNode] = []
        for node in current:
            gathered += select(node, focus)
        if not (ordered and (keeps_order or (flat and keeps_order_if_flat))):
            gathered = sort_document_order(gathered)
        return gathered, True, attributes or (flat and keeps_flat)
    return advance


def _compile_fused(first: Step, second: Step, relied: frozenset[str]):
    """``//T[p]`` as one ``descendant::T[p]`` scan, when no ``p`` reads
    position or size.  Taken only while the core functions the predicates
    rely on are not replaced for this evaluation; and should a predicate
    raise, the steps are run one by one instead, so the error that
    surfaces is the one the step-by-step order meets first."""
    fused = _compile_step(Step("descendant", second.test, second.predicates))
    stepwise = _compile_step(first), _compile_step(second)

    def advance(current: list, ordered: bool, flat: bool, focus: Focus):
        if relied.isdisjoint(focus.functions):
            try:
                return fused(current, ordered, flat, focus)
            except Exception:
                pass
        for step in stepwise:
            current, ordered, flat = step(current, ordered, flat, focus)
        return current, ordered, flat
    return advance


def _compile_steps(steps: tuple[Step, ...]):
    """``walk(nodes, ordered, focus)``: the steps applied in turn."""
    plan = []
    index = 0
    while index < len(steps):
        step = steps[index]
        following = steps[index + 1] if index + 1 < len(steps) else None
        relied = None
        if step == _DOUBLE_SLASH and following is not None \
                and following.axis == "child":
            relied = _position_free(following.predicates)
        if relied is not None:
            plan.append(_compile_fused(step, following, relied))
            index += 2
        else:
            plan.append(_compile_step(step))
            index += 1
    plan = tuple(plan)

    def walk(nodes: list, ordered: bool, focus: Focus) -> list[XPathNode]:
        flat = False
        for advance in plan:
            nodes, ordered, flat = advance(nodes, ordered, flat, focus)
        return nodes
    return walk


# -- entry points ------------------------------------------------------------------------


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def compile_expr(expr: Expr) -> Compiled:
    """The closure that evaluates ``expr`` given a :class:`Focus`.

    Cached by AST (the nodes are frozen and hash by value), so together
    with the text cache of :func:`~repro.xpath.parser.parse_xpath` a query
    string is lexed, parsed and compiled once.
    """
    return _compile(expr)


def evaluate_expr(expr: Expr, context: Context) -> XPathValue:
    """Evaluate a parsed expression in the given context."""
    return compile_expr(expr)(Focus.of(context))


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
    focus = Focus(node, dict(variables or {}), dict(namespaces or {}),
                  default_element_namespace)
    return compile_expr(parse_xpath(xpath))(focus)
