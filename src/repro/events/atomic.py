"""Atomic event patterns.

The simplest event language of the framework (Fig. 5: the "Atomic Event
Matcher").  A pattern is written as a domain-markup element whose
attribute values are either literals (must match exactly) or variable
references ``{Name}`` (bind on match)::

    <travel:booking person="{Person}" from="{From}" to="{To}"/>

Matching an event yields a one-tuple relation of variable bindings — the
starting point of rule evaluation (Fig. 6).  Child elements of the
pattern are matched structurally against children of the event (each
pattern child must match some event child); their text may also be a
variable reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..bindings import Binding, BindingError, Relation
from ..xmlmodel import Element
from .base import Event, Occurrence

__all__ = ["AtomicPattern", "PatternError"]

_VARIABLE_RE = re.compile(r"^\{([A-Za-z_][A-Za-z0-9_]*)\}$")


class PatternError(ValueError):
    """Raised for malformed atomic patterns."""


def _classify(value: str) -> tuple[str, str]:
    """('var', name) for ``{Name}``, else ('lit', value)."""
    match = _VARIABLE_RE.match(value.strip())
    if match:
        return ("var", match.group(1))
    return ("lit", value)


@dataclass(frozen=True)
class AtomicPattern:
    """An atomic event pattern over one domain-event element."""

    template: Element
    bind_event_to: str | None = None

    def variables(self) -> set[str]:
        """All variable names the pattern can bind."""
        names: set[str] = set()
        if self.bind_event_to:
            names.add(self.bind_event_to)

        def walk(element: Element) -> None:
            for value in element.attributes.values():
                kind, payload = _classify(value)
                if kind == "var":
                    names.add(payload)
            has_child_elements = False
            for child in element.elements():
                has_child_elements = True
                walk(child)
            if not has_child_elements:
                kind, payload = _classify(element.text())
                if kind == "var":
                    names.add(payload)

        walk(self.template)
        return names

    def match(self, event: Event) -> Occurrence | None:
        """Match one event; an occurrence with one binding tuple, or None."""
        binding = _match_element(self.template, event.payload, Binding())
        if binding is None:
            return None
        if self.bind_event_to:
            try:
                binding = binding.extended(self.bind_event_to,
                                           event.payload.copy())
            except BindingError:
                return None
        return Occurrence(event.timestamp, event.timestamp,
                          Relation([binding]), (event,))


def _match_element(pattern: Element, target: Element,
                   binding: Binding) -> Binding | None:
    if pattern.name != target.name:
        return None
    for name, value in pattern.attributes.items():
        actual = target.attributes.get(name)
        if actual is None:
            return None
        binding = _match_text(value, actual, binding)
        if binding is None:
            return None
    pattern_children = list(pattern.elements())
    if pattern_children:
        # simulation-style: each pattern child must match a distinct
        # target child (order-insensitive)
        return _match_children(pattern_children, list(target.elements()),
                               binding)
    text = pattern.text().strip()
    if text:
        return _match_text(text, target.text().strip(), binding)
    return binding


def _match_children(patterns: list[Element], targets: list[Element],
                    binding: Binding) -> Binding | None:
    if not patterns:
        return binding
    head, *rest = patterns
    for index, target in enumerate(targets):
        extended = _match_element(head, target, binding)
        if extended is None:
            continue
        remaining = targets[:index] + targets[index + 1:]
        final = _match_children(rest, remaining, extended)
        if final is not None:
            return final
    return None


def _match_text(pattern_value: str, actual: str,
                binding: Binding) -> Binding | None:
    kind, payload = _classify(pattern_value)
    if kind == "var":
        try:
            return binding.extended(payload, actual)
        except BindingError:
            return None
    return binding if payload == actual else None
