"""``repro.xmlmodel.serializer`` as it stood before ``_write_element``
stopped copying the scope and re-creating its closure for every element,
kept unmodified so ``test_parser_differential.py`` can require the
rewritten function's output to be byte-identical.
"""

from __future__ import annotations

from repro.xmlmodel.names import QName, XMLNS_NS, XML_NS
from repro.xmlmodel.nodes import (Comment, Document, Element, Node,
                                  ProcessingInstruction, Text)

__all__ = ["serialize", "canonicalize"]


def _escape_text(value: str) -> str:
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _escape_attribute(value: str) -> str:
    return (_escape_text(value).replace('"', "&quot;")
            .replace("\n", "&#10;").replace("\t", "&#9;"))


class _PrefixAllocator:
    """Tracks in-scope prefix bindings while writing a tree."""

    def __init__(self, deterministic: bool) -> None:
        self.deterministic = deterministic
        self._counter = 0

    def fresh(self, bound: dict[str, str]) -> str:
        while True:
            candidate = f"ns{self._counter}"
            self._counter += 1
            if candidate not in bound:
                return candidate


def _write_element(element: Element, out: list[str], scope: dict[str, str],
                   allocator: _PrefixAllocator, indent: str | None,
                   depth: int) -> None:
    # Determine declarations needed on this element: start from the ones the
    # author wrote, then add whatever the element/attribute names require.
    new_decls: dict[str, str] = {}
    local_scope = dict(scope)
    for prefix, uri in sorted(element.nsdecls.items()):
        if local_scope.get(prefix) != uri:
            new_decls[prefix] = uri
            local_scope[prefix] = uri

    def prefix_for(name: QName, is_attribute: bool) -> str:
        if name.uri is None:
            # An unprefixed attribute has no namespace; an unprefixed element
            # must not be captured by a default namespace declaration.
            if not is_attribute and local_scope.get("") not in (None, ""):
                new_decls[""] = ""
                local_scope[""] = ""
            return ""
        if name.uri == XML_NS:
            return "xml:"
        for prefix, uri in local_scope.items():
            if uri == name.uri and (prefix or not is_attribute):
                return f"{prefix}:" if prefix else ""
        if not is_attribute and local_scope.get("") in (None, ""):
            new_decls[""] = name.uri
            local_scope[""] = name.uri
            return ""
        fresh = allocator.fresh(local_scope)
        new_decls[fresh] = name.uri
        local_scope[fresh] = name.uri
        return f"{fresh}:"

    tag = prefix_for(element.name, is_attribute=False) + element.name.local
    attribute_parts: list[tuple[str, str]] = []
    attribute_items = element.attributes.items()
    if allocator.deterministic:
        attribute_items = sorted(attribute_items,
                                 key=lambda kv: (kv[0].uri or "", kv[0].local))
    for name, value in attribute_items:
        if name.uri == XMLNS_NS:
            continue
        attribute_parts.append(
            (prefix_for(name, is_attribute=True) + name.local, value))

    out.append(f"<{tag}")
    for prefix, uri in sorted(new_decls.items()):
        attr = "xmlns" if not prefix else f"xmlns:{prefix}"
        out.append(f' {attr}="{_escape_attribute(uri)}"')
    for attr_tag, value in attribute_parts:
        out.append(f' {attr_tag}="{_escape_attribute(value)}"')

    if not element.children:
        out.append("/>")
        return
    out.append(">")
    only_text = all(isinstance(child, Text) for child in element.children)
    pad = None if indent is None or only_text else indent * (depth + 1)
    for child in element.children:
        if pad is not None:
            out.append(f"\n{pad}")
        if isinstance(child, Element):
            _write_element(child, out, local_scope, allocator, indent,
                           depth + 1)
        elif isinstance(child, Text):
            out.append(_escape_text(child.value))
        elif isinstance(child, Comment):
            out.append(f"<!--{child.value}-->")
        elif isinstance(child, ProcessingInstruction):
            data = f" {child.data}" if child.data else ""
            out.append(f"<?{child.target}{data}?>")
    if pad is not None:
        out.append(f"\n{indent * depth}")
    out.append(f"</{tag}>")


def serialize(node: Node, indent: str | None = None,
              declaration: bool = False) -> str:
    """Serialize an :class:`Element` or :class:`Document` to markup text.

    ``indent`` pretty-prints with the given unit (e.g. ``"  "``); elements
    with pure-text content are kept on one line so string-values survive.
    """
    out: list[str] = []
    if declaration:
        out.append('<?xml version="1.0" encoding="UTF-8"?>\n')
    allocator = _PrefixAllocator(deterministic=False)
    if isinstance(node, Document):
        for child in node.children:
            if isinstance(child, Element):
                _write_element(child, out, {}, allocator, indent, 0)
            elif isinstance(child, Comment):
                out.append(f"<!--{child.value}-->\n")
            elif isinstance(child, ProcessingInstruction):
                data = f" {child.data}" if child.data else ""
                out.append(f"<?{child.target}{data}?>\n")
    elif isinstance(node, Element):
        _write_element(node, out, {}, allocator, indent, 0)
    elif isinstance(node, Text):
        out.append(_escape_text(node.value))
    else:
        raise TypeError(f"cannot serialize {type(node).__name__}")
    return "".join(out)


def _strip_insignificant(element: Element) -> Element:
    clone = element.copy()

    def walk(node: Element) -> None:
        merged: list = []
        for child in node.children:
            if isinstance(child, Comment):
                child.parent = None
            elif isinstance(child, Text):
                if merged and isinstance(merged[-1], Text):
                    merged[-1].value += child.value
                    child.parent = None
                else:
                    merged.append(child)
            else:
                merged.append(child)
                if isinstance(child, Element):
                    walk(child)
        kept = []
        for child in merged:
            if isinstance(child, Text):
                if child.value.strip():
                    child.value = child.value.strip()
                    kept.append(child)
                else:
                    child.parent = None
            else:
                kept.append(child)
        node.children = kept

    walk(clone)
    return clone


def canonicalize(node: Element | Document) -> str:
    """A deterministic serialization for message comparison.

    Attributes are sorted by (namespace, local name), author prefixes are
    ignored in favour of deterministic generated ones, comments and
    whitespace-only text are dropped, and remaining text is trimmed.
    Two structurally equal trees canonicalize to the same string.
    """
    element = node.root_element if isinstance(node, Document) else node
    stripped = _strip_insignificant(element)
    stripped.nsdecls = {}
    for descendant in stripped.iter():
        descendant.nsdecls = {}
    out: list[str] = []
    _write_element(stripped, out, {}, _PrefixAllocator(deterministic=True),
                   indent=None, depth=0)
    return "".join(out)
