"""Component specifications — the unit of work the GRH dispatches on.

A rule component, as the GRH sees it: its family, the URI of its
language, and either language markup (``content``) or an opaque string
(``opaque``, Sec. 4.3).  ``bind_to`` is set when the component was
wrapped in ``<eca:variable name=...>`` — the functional-result binding of
Sec. 3/Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bindings import PLACEHOLDER
from ..xmlmodel import ECA_NS, Element, QName, Text

__all__ = ["ComponentSpec", "opaque_placeholders"]


def opaque_placeholders(text: str) -> set[str]:
    """The ``{Var}`` input variables of an opaque component (Fig. 9:
    "Variables in the query string are replaced by their values")."""
    return set(PLACEHOLDER.findall(text))


@dataclass(frozen=True)
class ComponentSpec:
    """One rule component, ready for dispatch."""

    family: str                  # 'event' | 'query' | 'test' | 'action'
    language: str                # language URI (resolved for opaque too)
    content: Element | None = None
    opaque: str | None = None
    bind_to: str | None = None

    def __post_init__(self) -> None:
        if (self.content is None) == (self.opaque is None):
            raise ValueError(
                "a component carries either markup content or opaque text")

    @property
    def is_opaque(self) -> bool:
        return self.opaque is not None

    def payload(self) -> Element:
        """The component as a request to a framework-aware service
        carries it: its markup, or its opaque text in ``eca:opaque``."""
        if self.content is not None:
            return self.content
        element = Element(QName(ECA_NS, "opaque"),
                          {QName(None, "language"): self.language})
        element.append(Text(self.opaque))
        return element

    def consumed_variables(self) -> set[str] | None:
        """Input variables, when statically determinable (opaque only)."""
        if self.opaque is not None:
            return opaque_placeholders(self.opaque)
        return None
