"""Node-level operations backing the XPath evaluator.

The node model stores attributes in a dict, so XPath's attribute axis is
served by lightweight :class:`AttributeNode` wrappers created on demand.
This module also provides document order, string-values and the axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..xmlmodel import (Comment, Document, Element, Node,
                        ProcessingInstruction, QName, Text)

__all__ = ["AttributeNode", "XPathNode", "string_value", "document_order_key",
           "axis_nodes", "sort_document_order", "AXIS_FUNCTIONS",
           "descendant_elements"]


@dataclass(frozen=True)
class AttributeNode:
    """An attribute viewed as an XPath node."""

    owner: Element
    name: QName
    value: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttributeNode({self.name.clark}={self.value!r})"


XPathNode = Element | Document | Text | Comment | ProcessingInstruction | AttributeNode


def string_value(node: XPathNode) -> str:
    """The XPath string-value of a node."""
    if isinstance(node, Element):
        return node.text()
    if isinstance(node, AttributeNode):
        return node.value
    if isinstance(node, (Text, Comment)):
        return node.value
    if isinstance(node, ProcessingInstruction):
        return node.data
    if isinstance(node, Document):
        # an empty document (the default context node of an XQ-lite
        # query) has no root element; its string-value is ""
        return "".join(child.text() for child in node.children
                       if isinstance(child, Element))
    raise TypeError(f"not an XPath node: {node!r}")


def document_order_key(node: XPathNode) -> tuple:
    """A sort key realizing document order within one tree.

    Attributes order directly after their owner element, before its
    children, and among themselves by expanded name.
    """
    if isinstance(node, AttributeNode):
        base = document_order_key(node.owner)
        return base + ((0, node.name.uri or "", node.name.local),)
    indices: list[tuple] = []
    current: Node = node
    while current.parent is not None:
        parent = current.parent
        # identity-based position: structurally equal siblings are
        # distinct nodes and must not collapse onto the same index
        indices.append((1, _identity_index(parent.children, current)))
        current = parent
    indices.reverse()
    return (id(current),) + tuple(indices)


def _identity_index(children: list, node) -> int:
    for index, child in enumerate(children):
        if child is node:
            return index
    raise ValueError("node is not among its parent's children")


def _preorder_numbers(root: Node) -> dict[int, int]:
    """``id(node)`` → preorder rank for every node under ``root``."""
    numbers: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        numbers[id(node)] = len(numbers)
        if isinstance(node, (Element, Document)) and node.children:
            stack.extend(reversed(node.children))
    return numbers


def sort_document_order(nodes: list[XPathNode]) -> list[XPathNode]:
    """Sort and deduplicate a node list into document order.

    The order is the one :func:`document_order_key` defines, computed by
    numbering each tree the nodes come from in one preorder pass instead
    of scanning every ancestor's sibling list once per node.
    """
    if len(nodes) < 2:
        return list(nodes)
    seen: set = set()
    keyed: list[tuple] = []
    numberings: dict[int, dict[int, int]] = {}
    for node in nodes:
        is_attribute = isinstance(node, AttributeNode)
        identity = (id(node.owner), node.name) if is_attribute else id(node)
        if identity in seen:
            continue
        seen.add(identity)
        anchor = node.owner if is_attribute else node
        root = anchor
        while root.parent is not None:
            root = root.parent
        numbers = numberings.get(id(root))
        if numbers is None:
            numbers = numberings[id(root)] = _preorder_numbers(root)
        try:
            rank = numbers[id(anchor)]
        except KeyError:
            raise ValueError(
                "node is not among its parent's children") from None
        if is_attribute:
            keyed.append((id(root), rank, 1, node.name.uri or "",
                          node.name.local, node))
        else:
            keyed.append((id(root), rank, 0, "", "", node))
    # keys are unique after deduplication, so the node itself (last
    # field) is never compared
    keyed.sort()
    return [entry[-1] for entry in keyed]


# -- the axes --------------------------------------------------------------------


def _children(node: XPathNode) -> list:
    if isinstance(node, (Element, Document)):
        return node.children
    return []


def _descendants(node: XPathNode) -> list:
    out: list = []
    stack = _children(node)[::-1]
    while stack:
        current = stack.pop()
        out.append(current)
        if isinstance(current, Element) and current.children:
            stack.extend(current.children[::-1])
    return out


def descendant_elements(node: XPathNode, local: str,
                        uri: str | None) -> list[Element]:
    """The descendant elements of ``node`` named ``{uri}local``, in
    document order — ``//name`` as one scan that builds nothing else."""
    matched: list[Element] = []
    stack = _children(node)[::-1]
    while stack:
        current = stack.pop()
        if isinstance(current, Element):
            name = current.name
            if name.local == local and name.uri == uri:
                matched.append(current)
            if current.children:
                stack.extend(current.children[::-1])
    return matched


def _descendants_or_self(node: XPathNode) -> list:
    return [node] + _descendants(node)


def _self(node: XPathNode) -> list:
    return [node]


def _parent(node: XPathNode) -> list:
    parent = node.owner if isinstance(node, AttributeNode) else node.parent
    return [] if parent is None else [parent]


def _ancestors(node: XPathNode) -> list:
    out = []
    current = node.owner if isinstance(node, AttributeNode) else node.parent
    while current is not None:
        out.append(current)
        current = current.parent
    return out


def _ancestors_or_self(node: XPathNode) -> list:
    return [node] + _ancestors(node)


def _attributes(node: XPathNode) -> list:
    if isinstance(node, Element):
        return [AttributeNode(node, name, value)
                for name, value in node.attributes.items()]
    return []


def _following_siblings(node: XPathNode) -> list:
    if isinstance(node, AttributeNode) or node.parent is None:
        return []
    siblings = node.parent.children
    return siblings[_identity_index(siblings, node) + 1:]


def _preceding_siblings(node: XPathNode) -> list:
    if isinstance(node, AttributeNode) or node.parent is None:
        return []
    siblings = node.parent.children
    return siblings[:_identity_index(siblings, node)][::-1]


#: axis name → the nodes on that axis from one node, in axis order
#: (reverse axes: nearest first).  A compiled step picks its entry once.
AXIS_FUNCTIONS: dict[str, Callable[[XPathNode], list]] = {
    "child": _children,
    "descendant": _descendants,
    "descendant-or-self": _descendants_or_self,
    "self": _self,
    "parent": _parent,
    "ancestor": _ancestors,
    "ancestor-or-self": _ancestors_or_self,
    "attribute": _attributes,
    "following-sibling": _following_siblings,
    "preceding-sibling": _preceding_siblings,
}


def axis_nodes(node: XPathNode, axis: str) -> Iterator[XPathNode]:
    """The nodes on ``axis`` starting from ``node``, in axis order."""
    along = AXIS_FUNCTIONS.get(axis)
    if along is None:  # pragma: no cover - parser rejects unknown axes
        raise ValueError(f"unsupported axis: {axis}")
    return iter(along(node))
