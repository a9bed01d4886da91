"""XML markup ⇄ event-language expressions.

Rule event components carry their language as the namespace of their
content (Sec. 4.2)::

    <eca:event>
      <snoop:seq xmlns:snoop="..." context="chronicle">
        <travel:booking person="{P}" to="{City}"/>
        <travel:delayed flight="{F}" person="{P}"/>
      </snoop:seq>
    </eca:event>

Elements outside a known event-language namespace are atomic patterns of
the application domain (Fig. 2's hierarchy: composite operators embed
domain atomic events).  An ``eca:bind`` attribute on an atomic pattern
binds the whole matched event to a variable.
"""

from __future__ import annotations

from ..xmlmodel import ECA_NS, Element, QName
from .atomic import AtomicPattern
from .snoop import (And, Any, Aperiodic, AperiodicCumulative, Atomic,
                    Detector, Not, Or, Periodic, Seq, SnoopError)
from .xchange import (AndQuery, EventQuery, OrQuery, PatternQuery, SeqQuery,
                      WithoutQuery, XChangeError)

__all__ = ["SNOOP_NS", "XCHANGE_NS", "ATOMIC_NS", "parse_event_component",
           "parse_snoop", "parse_xchange", "parse_atomic",
           "EventMarkupError"]

SNOOP_NS = "http://www.semwebtech.org/languages/2006/snoop"
XCHANGE_NS = "http://www.semwebtech.org/languages/2006/xchange"
#: Pseudo language URI for bare atomic patterns (the Atomic Event Matcher).
ATOMIC_NS = "http://www.semwebtech.org/languages/2006/atomic-events"

_BIND = QName(ECA_NS, "bind")


class EventMarkupError(ValueError):
    """Raised on malformed event-component markup."""


def parse_atomic(element: Element) -> AtomicPattern:
    """Parse a domain element into an atomic pattern.

    The template is copied; an ``eca:bind="Var"`` attribute is stripped
    from the copy and binds the matched event itself to ``Var``.
    """
    template = element.copy()
    bind_to = template.attributes.pop(_BIND, None)
    return AtomicPattern(template, bind_event_to=bind_to)


def _context_of(element: Element) -> str:
    return element.get("context", "unrestricted")


def parse_snoop(element: Element) -> Detector:
    """Parse a SNOOP operator tree (or a bare atomic pattern)."""
    if element.name.uri != SNOOP_NS:
        return Atomic(parse_atomic(element))
    children = [parse_snoop(child) for child in element.elements()]
    operator = element.name.local
    try:
        if operator == "or":
            _need(element, children, at_least=1)
            return Or(children)
        if operator == "and":
            _need(element, children, exactly=2)
            return And(children[0], children[1], _context_of(element))
        if operator == "seq":
            _need(element, children, at_least=2)
            detector = children[0]
            for child in children[1:]:
                detector = Seq(detector, child, _context_of(element))
            return detector
        if operator == "any":
            _need(element, children, at_least=1)
            m_raw = element.get("m")
            if m_raw is None:
                raise EventMarkupError("snoop:any requires attribute m")
            return Any(int(m_raw), children, element.get("context",
                                                         "chronicle"))
        if operator == "not":
            _need(element, children, exactly=3)
            return Not(children[0], children[1], children[2],
                       _context_of(element))
        if operator == "aperiodic":
            _need(element, children, exactly=3)
            if element.get("cumulative") == "true":
                return AperiodicCumulative(children[0], children[1],
                                           children[2])
            return Aperiodic(children[0], children[1], children[2])
        if operator == "periodic":
            _need(element, children, exactly=2)
            period_raw = element.get("period")
            if period_raw is None:
                raise EventMarkupError(
                    "snoop:periodic requires attribute period")
            return Periodic(children[0], float(period_raw), children[1])
    except SnoopError as exc:
        raise EventMarkupError(str(exc)) from exc
    raise EventMarkupError(f"unknown snoop operator {operator!r}")


def parse_xchange(element: Element) -> EventQuery:
    """Parse an XChange-style event query (or a bare atomic pattern)."""
    if element.name.uri != XCHANGE_NS:
        return PatternQuery(parse_atomic(element))
    children = [parse_xchange(child) for child in element.elements()]
    operator = element.name.local
    within_raw = element.get("within")
    within = float(within_raw) if within_raw is not None else None
    try:
        if operator == "or":
            return OrQuery(children)
        if operator == "and":
            return AndQuery(children, within=within)
        if operator == "seq":
            return SeqQuery(children, within=within)
        if operator == "without":
            _need(element, children, exactly=2)
            return WithoutQuery(children[0], children[1])
    except XChangeError as exc:
        raise EventMarkupError(str(exc)) from exc
    raise EventMarkupError(f"unknown xchange operator {operator!r}")


def parse_event_component(content: Element) -> Detector:
    """Dispatch on the content's namespace to the right event language.

    This mirrors what the Generic Request Handler does when it inspects
    the namespace declaration of an event component (Sec. 4.4).
    """
    uri = content.name.uri
    if uri == SNOOP_NS:
        return parse_snoop(content)
    if uri == XCHANGE_NS:
        return parse_xchange(content)
    return Atomic(parse_atomic(content))


def _need(element: Element, children: list, exactly: int | None = None,
          at_least: int | None = None) -> None:
    if exactly is not None and len(children) != exactly:
        raise EventMarkupError(
            f"{element.name.local} requires exactly {exactly} children, "
            f"got {len(children)}")
    if at_least is not None and len(children) < at_least:
        raise EventMarkupError(
            f"{element.name.local} requires at least {at_least} children, "
            f"got {len(children)}")
