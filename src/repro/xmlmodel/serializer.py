"""Serialization of the XML node model back to markup.

Two modes are provided:

* :func:`serialize` — compact output reusing the prefixes recorded at parse
  time where possible, inventing ``ns0``, ``ns1``, … prefixes otherwise.
* :func:`canonicalize` — deterministic output (sorted attributes, fixed
  prefix generation, no insignificant whitespace) used by the tests that
  byte-compare messages across transports (DESIGN.md §5).
"""

from __future__ import annotations

from .names import XMLNS_NS, XML_NS
from .nodes import Comment, Document, Element, Node, ProcessingInstruction, Text

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


def _bound_prefix(uri: str | None, is_attribute: bool,
                  scope: dict[str, str]) -> str | None:
    """The tag prefix (``""`` or ``"p:"``) that ``scope`` already gives
    names in ``uri``, or ``None`` when the element must declare one first."""
    if uri is None:
        # An unprefixed attribute has no namespace; an unprefixed element
        # must not be captured by a default namespace declaration.
        if not is_attribute and scope.get("") not in (None, ""):
            return None
        return ""
    if uri == XML_NS:
        return "xml:"
    for prefix, bound in scope.items():
        if bound == uri and (prefix or not is_attribute):
            return f"{prefix}:" if prefix else ""
    return None


def _declare(uri: str | None, is_attribute: bool, scope: dict[str, str],
             new_decls: dict[str, str], allocator: _PrefixAllocator) -> str:
    """Bind a prefix for names in ``uri`` on the element being written
    (``scope`` and ``new_decls`` are updated) and return its tag prefix."""
    if uri is None:
        prefix, uri = "", ""            # un-declare the default namespace
    elif not is_attribute and scope.get("") in (None, ""):
        prefix = ""
    else:
        prefix = allocator.fresh(scope)
    new_decls[prefix] = scope[prefix] = uri
    return f"{prefix}:" if prefix else ""


def _by_prefix(decls: dict[str, str]):
    """The declarations in the order they are written (most elements that
    have any have one)."""
    return sorted(decls.items()) if len(decls) > 1 else decls.items()


def _write_element(element: Element, out: list[str], scope: dict[str, str],
                   allocator: _PrefixAllocator, indent: str | None,
                   depth: int) -> None:
    # Determine declarations needed on this element: start from the ones the
    # author wrote, then add whatever the element/attribute names require.
    # Most elements need none and write under their parent's scope as it is;
    # the first declaration copies it.
    new_decls: dict[str, str] = {}
    nsdecls = element.nsdecls
    if nsdecls:
        new_decls = {prefix: uri for prefix, uri in _by_prefix(nsdecls)
                     if scope.get(prefix) != uri}
    local_scope = {**scope, **new_decls} if new_decls else scope

    uri, local = element.name
    tag_prefix = _bound_prefix(uri, False, local_scope)
    if tag_prefix is None:
        if local_scope is scope:
            local_scope = dict(scope)
        tag_prefix = _declare(uri, False, local_scope, new_decls, allocator)
    tag = tag_prefix + local
    # The attributes are written after the declarations they may add to.
    written: list[str] = []
    attribute_items = element.attributes.items()
    if allocator.deterministic:
        attribute_items = sorted(attribute_items,
                                 key=lambda kv: (kv[0].uri or "", kv[0].local))
    for name, value in attribute_items:
        uri, local = name
        if uri is None:
            written.append(f' {local}="{_escape_attribute(value)}"')
            continue
        if uri == XMLNS_NS:
            continue
        attr_prefix = _bound_prefix(uri, True, local_scope)
        if attr_prefix is None:
            if local_scope is scope:
                local_scope = dict(scope)
            attr_prefix = _declare(uri, True, local_scope, new_decls,
                                   allocator)
        written.append(
            f' {attr_prefix}{local}="{_escape_attribute(value)}"')

    out.append(f"<{tag}")
    if new_decls:
        for prefix, uri in _by_prefix(new_decls):
            attr = "xmlns" if not prefix else f"xmlns:{prefix}"
            out.append(f' {attr}="{_escape_attribute(uri)}"')
    out += written

    if not element.children:
        out.append("/>")
        return
    out.append(">")
    pad = None
    if indent is not None and not all(isinstance(child, Text)
                                      for child in element.children):
        pad = indent * (depth + 1)
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
