"""XML markup for answers and variable bindings (the ``log:`` vocabulary).

The ECA engine and the component services exchange *sets of tuples of
variable bindings* as XML messages (Figs. 6–9 of the paper)::

    <log:answers xmlns:log="...">
      <log:answer>
        <log:variable name="Person">John Doe</log:variable>
        <log:variable name="OwnCar" type="xml"><car .../></log:variable>
      </log:answer>
      ...
    </log:answers>

Framework-aware functional services (the wrapped Saxon node of Fig. 8)
return one ``<log:result>`` per functional result inside each answer;
:func:`results_from_answer` extracts them for ``eca:variable`` binding.
"""

from __future__ import annotations

import re
from typing import Callable

from ..xmlmodel import Element, LOG_NS, QName, Text
from ..xmlmodel.nodes import trusted_element
from .relation import Binding, BindingError, Relation
from .values import Uri, Value

__all__ = [
    "ANSWERS", "ANSWER", "VARIABLE", "RESULT",
    "relation_to_answers", "answers_to_relation",
    "binding_to_answer", "answer_to_binding",
    "value_to_element", "element_to_value", "value_to_text",
    "PLACEHOLDER", "substitute",
    "results_from_answer", "MarkupError",
]

ANSWERS = QName(LOG_NS, "answers")
ANSWER = QName(LOG_NS, "answer")
VARIABLE = QName(LOG_NS, "variable")
RESULT = QName(LOG_NS, "result")

_NAME = QName(None, "name")
_TYPE = QName(None, "type")


class MarkupError(ValueError):
    """Raised on malformed answer markup."""


def value_to_text(value: Value) -> str:
    """The textual form of a value (used in tables and opaque substitution)."""
    if isinstance(value, Element):
        from ..xmlmodel import serialize
        return serialize(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


#: the ``{Var}`` placeholder of opaque components (Fig. 9), LP-style
#: query texts and action templates; group 1 is the variable name
PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def substitute(text: str, binding: Binding,
               unbound: Callable[[str], Exception]) -> str:
    """``text`` with every ``{Var}`` replaced by the tuple's value as
    text; ``unbound(name)`` builds the error raised for a placeholder
    the tuple does not bind."""
    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in binding:
            raise unbound(name)
        return value_to_text(binding[name])
    return PLACEHOLDER.sub(replace, text)


def _typed_text(value: Value) -> tuple[str | None, str]:
    """The ``type`` tag (``None`` for a plain string) and the text of a
    value that is not XML — one encoding for variables and results."""
    if isinstance(value, bool):
        return "boolean", "true" if value else "false"
    if isinstance(value, Uri):
        return "uri", str(value)
    if isinstance(value, (int, float)):
        return "number", value_to_text(value)
    return None, str(value)


def _typed_element(tag: QName, attributes: dict[QName, str],
                   value: Value) -> Element:
    """``value`` as the one child of a ``tag`` element; its ``type`` joins
    ``attributes`` (which becomes the element's own)."""
    if isinstance(value, Element):
        attributes[_TYPE] = "xml"
        child = value.copy()
    else:
        kind, text = _typed_text(value)
        if kind is not None:
            attributes[_TYPE] = kind
        child = Text(text)
    return trusted_element(tag, attributes, {}, [child])


def value_to_element(name: str, value: Value) -> Element:
    """Wrap one binding as a ``log:variable`` element."""
    return _typed_element(VARIABLE, {_NAME: name}, value)


def _typed_value(kind: str, text: str) -> Value:
    """Read the text of a ``log:variable`` or ``log:result`` of a type
    other than ``xml`` — one decoding for both."""
    if kind == "string":
        return text
    if kind == "uri":
        return Uri(text)
    if kind == "boolean":
        if text not in ("true", "false"):
            raise MarkupError(f"invalid boolean value {text!r}")
        return text == "true"
    if kind == "number":
        try:
            return int(text)
        except ValueError:
            try:
                return float(text)
            except ValueError:
                raise MarkupError(f"invalid number value {text!r}") from None
    raise MarkupError(f"unknown variable type {kind!r}")


def _text_of(element: Element) -> str:
    """``element.text()``, without the walk when all it holds is one text
    node — which is what every encoder here writes."""
    children = element.children
    if len(children) == 1 and type(children[0]) is Text:
        return children[0].value
    return element.text()


def _only_element(element: Element) -> Element | None:
    """The element child of an ``xml``-typed wrapper, if it has just one."""
    inner = list(element.elements())
    return inner[0] if len(inner) == 1 else None


def element_to_value(element: Element) -> tuple[str, Value]:
    """Read one ``log:variable`` element back into (name, value)."""
    if element.name != VARIABLE:
        raise MarkupError(f"expected log:variable, got {element.name.clark}")
    attributes = element.attributes
    name = attributes.get(_NAME)
    if not name:
        raise MarkupError("log:variable without name attribute")
    kind = attributes.get(_TYPE, "string")
    if kind == "xml":
        inner = _only_element(element)
        if inner is None:
            raise MarkupError(
                f"xml-typed variable {name!r} must contain exactly one element")
        return name, inner.copy()
    return name, _typed_value(kind, _text_of(element))


def binding_to_answer(binding: Binding,
                      results: list[Value] | None = None) -> Element:
    """Wrap one tuple as a ``log:answer`` element."""
    children = [value_to_element(name, binding[name])
                for name in sorted(binding)]
    for result in results or ():
        children.append(_typed_element(RESULT, {}, result))
    return trusted_element(ANSWER, {}, {}, children)


def answer_to_binding(answer: Element) -> Binding:
    """Read the variable bindings of one ``log:answer`` element."""
    if answer.name != ANSWER:
        raise MarkupError(f"expected log:answer, got {answer.name.clark}")
    data: dict[str, Value] = {}
    for child in answer.children:
        if isinstance(child, Element) and child.name == VARIABLE:
            name, value = element_to_value(child)
            if name in data:
                raise MarkupError(f"duplicate variable {name!r} in answer")
            data[name] = value
    try:
        return Binding(data)
    except BindingError as exc:
        raise MarkupError(str(exc)) from exc


def results_from_answer(answer: Element) -> list[Value]:
    """The ``log:result`` values of one answer (functional components)."""
    results: list[Value] = []
    for child in answer.children:
        if not (isinstance(child, Element) and child.name == RESULT):
            continue
        kind = child.attributes.get(_TYPE, "string")
        if kind == "xml":
            inner = _only_element(child)
            if inner is None:
                raise MarkupError("xml-typed result must contain one element")
            results.append(inner.copy())
        else:
            results.append(_typed_value(kind, _text_of(child)))
    return results


def relation_to_answers(relation: Relation) -> Element:
    """Serialize a whole relation as a ``log:answers`` message."""
    return trusted_element(ANSWERS, {}, {"log": LOG_NS},
                           [binding_to_answer(binding)
                            for binding in relation])


def answers_to_relation(answers: Element) -> Relation:
    """Parse a ``log:answers`` message back into a relation."""
    if answers.name != ANSWERS:
        raise MarkupError(f"expected log:answers, got {answers.name.clark}")
    return Relation(answer_to_binding(child)
                    for child in answers.children
                    if isinstance(child, Element) and child.name == ANSWER)
