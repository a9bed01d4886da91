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


def value_to_element(name: str, value: Value) -> Element:
    """Wrap one binding as a ``log:variable`` element."""
    element = Element(VARIABLE, {_NAME: name})
    if isinstance(value, Element):
        element.set(_TYPE, "xml")
        element.append(value.copy())
    elif isinstance(value, bool):
        element.set(_TYPE, "boolean")
        element.append(Text("true" if value else "false"))
    elif isinstance(value, Uri):
        element.set(_TYPE, "uri")
        element.append(Text(str(value)))
    elif isinstance(value, (int, float)):
        element.set(_TYPE, "number")
        element.append(Text(value_to_text(value)))
    else:
        element.append(Text(str(value)))
    return element


def element_to_value(element: Element) -> tuple[str, Value]:
    """Read one ``log:variable`` element back into (name, value)."""
    if element.name != VARIABLE:
        raise MarkupError(f"expected log:variable, got {element.name.clark}")
    name = element.get(_NAME)
    if not name:
        raise MarkupError("log:variable without name attribute")
    kind = element.get(_TYPE, "string")
    if kind == "xml":
        children = list(element.elements())
        if len(children) != 1:
            raise MarkupError(
                f"xml-typed variable {name!r} must contain exactly one element")
        return name, children[0].copy()
    text = element.text()
    if kind == "string":
        return name, text
    if kind == "uri":
        return name, Uri(text)
    if kind == "boolean":
        if text not in ("true", "false"):
            raise MarkupError(f"invalid boolean value {text!r}")
        return name, text == "true"
    if kind == "number":
        try:
            return name, int(text)
        except ValueError:
            try:
                return name, float(text)
            except ValueError:
                raise MarkupError(f"invalid number value {text!r}") from None
    raise MarkupError(f"unknown variable type {kind!r}")


def binding_to_answer(binding: Binding,
                      results: list[Value] | None = None) -> Element:
    """Wrap one tuple as a ``log:answer`` element."""
    answer = Element(ANSWER)
    for name in sorted(binding):
        answer.append(value_to_element(name, binding[name]))
    for result in results or ():
        wrapper = Element(RESULT)
        if isinstance(result, Element):
            wrapper.set(_TYPE, "xml")
            wrapper.append(result.copy())
        else:
            # Reuse the variable encoding to pick the right type tag.
            encoded = value_to_element("_", result)
            if encoded.get(_TYPE):
                wrapper.set(_TYPE, encoded.get(_TYPE))
            wrapper.append(Text(encoded.text()))
        answer.append(wrapper)
    return answer


def answer_to_binding(answer: Element) -> Binding:
    """Read the variable bindings of one ``log:answer`` element."""
    if answer.name != ANSWER:
        raise MarkupError(f"expected log:answer, got {answer.name.clark}")
    data: dict[str, Value] = {}
    for child in answer.findall(VARIABLE):
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
    for child in answer.findall(RESULT):
        kind = child.get(_TYPE, "string")
        if kind == "xml":
            inner = list(child.elements())
            if len(inner) != 1:
                raise MarkupError("xml-typed result must contain one element")
            results.append(inner[0].copy())
        elif kind == "number":
            text = child.text()
            try:
                results.append(int(text))
            except ValueError:
                results.append(float(text))
        elif kind == "boolean":
            results.append(child.text() == "true")
        elif kind == "uri":
            results.append(Uri(child.text()))
        else:
            results.append(child.text())
    return results


def relation_to_answers(relation: Relation) -> Element:
    """Serialize a whole relation as a ``log:answers`` message."""
    answers = Element(ANSWERS, nsdecls={"log": LOG_NS})
    for binding in relation:
        answers.append(binding_to_answer(binding))
    return answers


def answers_to_relation(answers: Element) -> Relation:
    """Parse a ``log:answers`` message back into a relation."""
    if answers.name != ANSWERS:
        raise MarkupError(f"expected log:answers, got {answers.name.clark}")
    return Relation(answer_to_binding(child)
                    for child in answers.findall(ANSWER))
