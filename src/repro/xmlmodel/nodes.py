"""The XML node model: elements, text, comments, processing instructions.

A deliberately small, immutable-name / mutable-tree DOM used across the
repository for rule markup, request/answer messages, events and XML data
sources.  It is namespace-aware (names are :class:`~repro.xmlmodel.names.QName`)
and keeps the prefix declarations seen at parse time so serialization can
round-trip documents faithfully.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .names import QName

__all__ = ["Node", "Element", "Text", "Comment", "ProcessingInstruction",
           "Document", "Child", "trusted_element"]

_new = object.__new__


class Node:
    """Base class of all tree nodes."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Element | Document | None = None

    def root(self) -> "Node":
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class Text(Node):
    """A text node."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.parent = None
        self.value = value

    def __repr__(self) -> str:
        return f"Text({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Text) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("text", self.value))


class Comment(Node):
    """A comment node (``<!-- ... -->``)."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.parent = None
        self.value = value

    def __repr__(self) -> str:
        return f"Comment({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Comment) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("comment", self.value))


class ProcessingInstruction(Node):
    """A processing instruction (``<?target data?>``)."""

    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str = "") -> None:
        self.parent = None
        self.target = target
        self.data = data

    def __repr__(self) -> str:
        return f"ProcessingInstruction({self.target!r}, {self.data!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ProcessingInstruction)
                and other.target == self.target and other.data == self.data)

    def __hash__(self) -> int:
        return hash(("pi", self.target, self.data))


Child = Union["Element", Text, Comment, ProcessingInstruction]


class Element(Node):
    """An element node with attributes, children and namespace context.

    ``nsdecls`` records the prefix → URI declarations *written on this
    element* (``""`` is the default namespace); it is advisory — names are
    always stored expanded — but lets the serializer reproduce the
    author's prefixes.
    """

    __slots__ = ("name", "attributes", "children", "nsdecls")

    def __init__(self, name: QName | str,
                 attributes: dict[QName, str] | None = None,
                 children: Iterable[Child | str] | None = None,
                 nsdecls: dict[str, str] | None = None) -> None:
        self.parent = None
        if isinstance(name, str):
            name = QName.parse(name)
        self.name = name
        self.attributes: dict[QName, str] = dict(attributes or {})
        self.nsdecls: dict[str, str] = dict(nsdecls or {})
        self.children: list[Child] = []
        for child in children or ():
            self.append(child)

    # -- tree construction -------------------------------------------------

    def append(self, child: Child | str) -> Child:
        if isinstance(child, str):
            child = Text(child)
        if isinstance(child.parent, Document):
            # Parsed fragments carry a synthetic Document parent (so that
            # absolute XPaths work); embedding them elsewhere detaches them.
            child.parent.remove(child)
        if child.parent is not None:
            raise ValueError("node already has a parent; detach it first")
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: Iterable[Child | str]) -> None:
        for child in children:
            self.append(child)

    def remove(self, child: Child) -> None:
        # identity-based removal: structurally equal siblings are
        # distinct nodes, so list.remove (which uses ==) would be wrong
        for index, candidate in enumerate(self.children):
            if candidate is child:
                del self.children[index]
                child.parent = None
                return
        raise ValueError("node is not a child of this element")

    def detach(self) -> "Element":
        """Remove this element from its parent (no-op at the root)."""
        if isinstance(self.parent, (Element, Document)):
            self.parent.remove(self)
        return self

    def copy(self) -> "Element":
        """A deep copy, detached from any parent."""
        children: list[Child] = []
        for child in self.children:
            if isinstance(child, Element):
                children.append(child.copy())
            elif isinstance(child, Text):
                children.append(Text(child.value))
            elif isinstance(child, Comment):
                children.append(Comment(child.value))
            else:
                children.append(
                    ProcessingInstruction(child.target, child.data))
        return trusted_element(self.name, dict(self.attributes),
                               dict(self.nsdecls), children)

    # -- accessors ---------------------------------------------------------

    def get(self, name: QName | str, default: str | None = None) -> str | None:
        if isinstance(name, str):
            name = QName.parse(name)
        return self.attributes.get(name, default)

    def set(self, name: QName | str, value: str) -> None:
        if isinstance(name, str):
            name = QName.parse(name)
        self.attributes[name] = str(value)

    def elements(self) -> Iterator["Element"]:
        """Child elements, in document order."""
        for child in self.children:
            if isinstance(child, Element):
                yield child

    def iter(self) -> Iterator["Element"]:
        """This element and all element descendants, in document order."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    def find(self, name: QName | str) -> "Element | None":
        """First child element with the given expanded name."""
        if isinstance(name, str):
            name = QName.parse(name)
        for child in self.elements():
            if child.name == name:
                return child
        return None

    def findall(self, name: QName | str) -> list["Element"]:
        if isinstance(name, str):
            name = QName.parse(name)
        return [child for child in self.elements() if child.name == name]

    def text(self) -> str:
        """Concatenated text of all descendant text nodes (string-value)."""
        parts: list[str] = []
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.value)
            elif isinstance(child, Element):
                parts.append(child.text())
        return "".join(parts)

    def xpath(self, expression: str, variables: dict | None = None,
              namespaces: dict[str, str] | None = None):
        """Evaluate an XPath expression with this element as context.

        Convenience wrapper around :func:`repro.xpath.evaluate` (imported
        lazily to keep the node model dependency-free).
        """
        from ..xpath import evaluate
        return evaluate(expression, self, variables=variables,
                        namespaces=namespaces)

    def scope(self) -> dict[str, str]:
        """In-scope prefix declarations, innermost binding winning."""
        chain: list[Element] = []
        node: Node | None = self
        while isinstance(node, Element):
            chain.append(node)
            node = node.parent
        merged: dict[str, str] = {}
        for element in reversed(chain):
            merged.update(element.nsdecls)
        return merged

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Structural equality: names, attributes and children (recursively).

        Prefix declarations and inter-element whitespace differences are
        ignored so that parsed and programmatically-built trees compare
        equal when they denote the same infoset.
        """
        if not isinstance(other, Element):
            return NotImplemented
        if self.name != other.name or self.attributes != other.attributes:
            return False
        return _significant(self.children) == _significant(other.children)

    def __hash__(self) -> int:
        return hash((self.name, frozenset(self.attributes.items()),
                     tuple(_significant(self.children))))

    def __repr__(self) -> str:
        return f"<Element {self.name.clark} attrs={len(self.attributes)} children={len(self.children)}>"


def trusted_element(name: QName, attributes: dict[QName, str],
                    nsdecls: dict[str, str],
                    children: list[Child]) -> Element:
    """An element made of parts the caller hands over for good.

    For code that builds a whole tree it has just made itself —
    :meth:`Element.copy` and the envelope builders of
    :mod:`repro.bindings.markup` and :mod:`repro.grh.messages`, where
    ``Element(...)`` plus one ``append`` per child was a measured half of
    the cost.  Nothing is converted, copied or detached: ``name`` is a
    :class:`QName` already, both dicts and the list become the element's
    own (the caller keeps no reference), every child is a node — never a
    ``str`` — without a parent, not even a parsed fragment's ``Document``.
    A child that has one is refused as ``append`` refuses it.
    """
    element = _new(Element)
    element.parent = None
    element.name = name
    element.attributes = attributes
    element.nsdecls = nsdecls
    element.children = children
    for child in children:
        if child.parent is not None:
            for adopted in children:
                if adopted.parent is element:
                    adopted.parent = None
            raise ValueError("node already has a parent; detach it first")
        child.parent = element
    return element


def _significant(children: list[Child]) -> list[Child]:
    """Children normalized for comparison.

    Adjacent text nodes are coalesced (the parser produces one node where a
    builder may produce several), and whitespace-only text and comments are
    removed.
    """
    kept: list[Child] = []
    for child in children:
        if isinstance(child, Comment):
            continue
        if isinstance(child, Text):
            if kept and isinstance(kept[-1], Text):
                kept[-1] = Text(kept[-1].value + child.value)
            else:
                kept.append(Text(child.value))
            continue
        kept.append(child)
    return [child for child in kept
            if not (isinstance(child, Text) and not child.value.strip())]


class Document(Node):
    """A document node: prolog items plus exactly one root element."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Child] | None = None) -> None:
        self.parent = None
        self.children: list[Child] = []
        for child in children or ():
            self.append(child)

    def append(self, child: Child) -> Child:
        if child.parent is not None:
            raise ValueError("node already has a parent; detach it first")
        child.parent = self
        self.children.append(child)
        return child

    def remove(self, child: Child) -> None:
        for index, candidate in enumerate(self.children):
            if candidate is child:
                del self.children[index]
                child.parent = None
                return
        raise ValueError("node is not a child of this document")

    @property
    def root_element(self) -> Element:
        for child in self.children:
            if isinstance(child, Element):
                return child
        raise ValueError("document has no root element")

    def __repr__(self) -> str:
        return f"<Document children={len(self.children)}>"
