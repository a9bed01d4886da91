"""Instantiating XML templates with variable bindings.

The action component "is executed for each tuple of variable bindings"
(Sec. 4.5) — concretely, action markup contains ``{Var}`` placeholders in
attribute values and text content which are replaced by the tuple's
values before the action is carried out (the dual of atomic event
patterns).
"""

from __future__ import annotations

from ..bindings import PLACEHOLDER, Binding, substitute
from ..xmlmodel import Element, Text

__all__ = ["instantiate", "substitute_text", "template_variables",
           "TemplateError"]


class TemplateError(ValueError):
    """Raised when a template references an unbound variable."""


def template_variables(template: Element) -> set[str]:
    """All ``{Var}`` placeholders occurring in the template."""
    names: set[str] = set()
    for element in template.iter():
        for value in element.attributes.values():
            names.update(PLACEHOLDER.findall(value))
        for child in element.children:
            if isinstance(child, Text):
                names.update(PLACEHOLDER.findall(child.value))
    return names


def _unbound_variable(name: str) -> TemplateError:
    return TemplateError(f"unbound template variable {name!r}")


def substitute_text(text: str, binding: Binding) -> str:
    """``text`` with its ``{Var}`` placeholders replaced by the tuple's
    values; an unbound one raises :class:`TemplateError`."""
    return substitute(text, binding, _unbound_variable)


def _substitute_node(text: str, binding: Binding) -> str | Element:
    """Replace placeholders in text content; a lone ``{Var}`` bound to
    XML yields a copy of the fragment itself."""
    lone = PLACEHOLDER.fullmatch(text.strip())
    value = binding.get(lone.group(1)) if lone else None
    if isinstance(value, Element):
        return value.copy()
    return substitute_text(text, binding)


def instantiate(template: Element, binding: Binding) -> Element:
    """A deep copy of ``template`` with all placeholders substituted."""
    out = Element(template.name, nsdecls=dict(template.nsdecls))
    for name, value in template.attributes.items():
        out.attributes[name] = substitute_text(value, binding)
    for child in template.children:
        if isinstance(child, Element):
            out.append(instantiate(child, binding))
        elif isinstance(child, Text):
            substituted = _substitute_node(child.value, binding)
            if isinstance(substituted, Element):
                out.append(substituted)
            else:
                out.append(Text(substituted))
        # comments / PIs in templates are dropped
    return out
