"""A from-scratch, namespace-aware XML parser.

Covers the subset of XML 1.0 + Namespaces needed by the framework:
elements, attributes, namespace declarations, character data, CDATA
sections, comments, processing instructions, the five predefined entities
and numeric character references.  DTDs are not supported (a leading
``<!DOCTYPE ...>`` without an internal subset is tolerated and skipped).

The parser reports errors with line/column positions, which matters in
practice because rule authors hand-write ECA-ML documents.

It is one iterative tokenizer: compiled regular expressions recognise a
whole start tag, attribute or end tag at a time, ``str.find`` skips over
character data, and an explicit stack of open elements replaces recursion.
Every message between the engine, the GRH and the language services passes
through here several times, so the well-formed case is the fast one; when
a pattern does not match, a ``*_fault`` helper replays the checks one at a
time to name the first violation and where it is.
"""

from __future__ import annotations

import re

from .names import NamespaceError, QName, XMLNS_NS, XML_NS
from .nodes import Comment, Document, Element, ProcessingInstruction, Text

__all__ = ["XMLSyntaxError", "parse", "parse_document", "parse_fragment"]

_PREDEFINED_ENTITIES = {
    "lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"',
}

#: Open elements a document may nest.  ``serialize``, ``Element.copy`` and
#: ``Element.__eq__`` recurse once or twice per level, so the bound sits
#: well under the interpreter's default recursion limit (1000): every tree
#: the parser accepts can still be written, copied and compared.
_MAX_DEPTH = 256

# XML white space is exactly these four characters (not ``\s``).  A name
# starts with a letter, "_" or ":" and continues with ASCII alphanumerics,
# "_:.-" or anything beyond ASCII.  No character class says "non-ASCII
# letter", so the patterns admit any non-ASCII first character and
# _name_fault() applies ``str.isalpha`` to the names that have one.
_WS = r"[ \t\r\n]"
_NAME = (r"[:A-Z_a-z\x80-\U0010ffff]"
         r"[-.0-9:A-Z_a-z\x80-\U0010ffff]*")
_TAG_END = rf"(?:{_WS}*(/?>))?"

_SPACE = re.compile(rf"{_WS}*")
_NAME_RE = re.compile(_NAME)
#: ``<name``, and the end of the tag when no attribute intervenes.
_OPEN = re.compile(rf"<({_NAME}){_TAG_END}")
#: One ``name="value"`` (either quote), and the end of the tag if it follows.
_ATTRIBUTE = re.compile(
    rf"""{_WS}+({_NAME}){_WS}*={_WS}*(?:"([^"]*)"|'([^']*)'){_TAG_END}""")
_CLOSE = re.compile(rf"</({_NAME}){_WS}*>")


class XMLSyntaxError(ValueError):
    """A well-formedness violation, with source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _error(text: str, pos: int, message: str) -> XMLSyntaxError:
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return XMLSyntaxError(message, line, column)


def _skip_space(text: str, pos: int) -> int:
    return _SPACE.match(text, pos).end()


# -- faults: which check failed, and where ------------------------------------

def _name_fault(text: str, pos: int) -> XMLSyntaxError | None:
    """What is wrong with the name at ``pos``; ``None`` if it may start there."""
    if pos >= len(text):
        return _error(text, pos, "expected name, found end of input")
    first = text[pos]
    if first.isalpha() or first in "_:":
        return None
    return _error(text, pos, f"invalid name start character {first!r}")


def _read_name(text: str, pos: int) -> int:
    """The offset after the name that starts at ``pos``."""
    fault = _name_fault(text, pos)
    if fault is not None:
        raise fault
    return _NAME_RE.match(text, pos).end()


def _attribute_fault(text: str, pos: int) -> XMLSyntaxError:
    """Why neither an attribute nor the end of the start tag is at ``pos``."""
    name_start = _skip_space(text, pos)
    if name_start == pos:
        return _error(text, pos, "expected whitespace before attribute")
    fault = _name_fault(text, name_start)
    if fault is not None:
        return fault
    pos = _skip_space(text, _NAME_RE.match(text, name_start).end())
    if not text.startswith("=", pos):
        return _error(text, pos, "expected '='")
    pos = _skip_space(text, pos + 1) + 1        # just past the opening quote
    if text[pos - 1:pos] not in "'\"":
        return _error(text, pos, "attribute value must be quoted")
    return _error(text, pos, "unterminated attribute value")


def _end_tag_fault(text: str, pos: int, open_name: str) -> XMLSyntaxError:
    """Why the ``</`` at ``pos`` does not close ``<open_name>``."""
    name_end = _read_name(text, pos + 2)
    tag_end = _skip_space(text, name_end)
    if not text.startswith(">", tag_end):
        return _error(text, tag_end, "expected '>'")
    return _error(text, tag_end + 1, f"mismatched end tag "
                  f"</{text[pos + 2:name_end]}> for <{open_name}>")


# -- pieces ---------------------------------------------------------------------

def _decode_entities(raw: str, text: str, pos: int) -> str:
    """``raw`` with its references expanded; faults are reported at ``pos``."""
    out: list[str] = []
    start = 0
    while True:
        ampersand = raw.find("&", start)
        if ampersand < 0:
            out.append(raw[start:])
            return "".join(out)
        out.append(raw[start:ampersand])
        end = raw.find(";", ampersand + 1)
        if end < 0:
            raise _error(text, pos, "unterminated entity reference")
        body = raw[ampersand + 1:end]
        char = _PREDEFINED_ENTITIES.get(body)
        if char is None:
            if not body.startswith("#"):
                raise _error(text, pos, f"unknown entity &{body};")
            try:
                char = chr(int(body[2:], 16) if body[1:2] in ("x", "X")
                           else int(body[1:]))
            except (ValueError, OverflowError):
                raise _error(
                    text, pos, f"invalid character reference &{body};") from None
        out.append(char)
        start = end + 1


def _after_value(match: re.Match) -> int:
    """The offset after the closing quote of an ``_ATTRIBUTE`` match, where
    faults in the value are reported."""
    return max(match.end(2), match.end(3)) + 1


def _comment(text: str, pos: int) -> tuple[Comment, int]:
    """The ``<!--`` at ``pos`` as a node, and the offset after its ``-->``."""
    end = text.find("-->", pos + 4)
    if end < 0:
        raise _error(text, pos + 4, "unterminated comment")
    return Comment(text[pos + 4:end]), end + 3


def _processing_instruction(text: str,
                            pos: int) -> tuple[ProcessingInstruction, int]:
    """The ``<?`` at ``pos`` as a node, and the offset after its ``?>``."""
    target_end = _read_name(text, pos + 2)
    data_start = _skip_space(text, target_end)
    end = text.find("?>", data_start)
    if end < 0:
        raise _error(text, data_start, "unterminated processing instruction")
    return ProcessingInstruction(text[pos + 2:target_end],
                                 text[data_start:end]), end + 2


#: Bounds of the name memo below: scopes remembered (the table is emptied
#: when full), names remembered per scope and kind (further ones are
#: resolved each time they occur), and the longest name, prefix and URI
#: remembered.  A deployment uses a dozen scopes of a dozen names; input
#: that sets out to fill all of it reaches some 20 MB and stops there.
_MAX_SCOPES = 256
_MAX_NAMES = 128
_MAX_NAME_LENGTH = 64
_MAX_URI_LENGTH = 256


class _ScopeNames(dict):
    """Raw name → :class:`QName` under one namespace scope, filled on demand.

    A message repeats a handful of names (``log:tuple``, ``name``, …) many
    times, and every message of a protocol repeats the same ones under the
    same declarations; each is resolved against the scope once.  Element
    and attribute names are kept apart because only the former take the
    default namespace and only the latter may not live in the ``xmlns``
    namespace.  A name that does not resolve raises and is not stored.
    """

    __slots__ = ("scope", "attributes")

    def __init__(self, scope: dict[str, str], attributes: bool) -> None:
        self.scope = scope
        self.attributes = attributes

    def __missing__(self, raw: str) -> QName:
        if self.attributes:
            name = QName.parse(raw, self.scope, default=None)
            if name.uri == XMLNS_NS:
                raise NamespaceError("xmlns is not a usable prefix")
        else:
            name = QName.parse(raw, self.scope,
                               default=self.scope.get("") or None)
        if len(self) < _MAX_NAMES and len(raw) <= _MAX_NAME_LENGTH:
            self[raw] = name
        return name


#: The (element names, attribute names) tables of every scope met so far,
#: by the scope's declarations in the order they were made.  Shared by all
#: parses on all threads without a lock: a table is an append-only cache of
#: a pure function of its key and the raw name, so two threads that miss
#: together store equal values, and a parse that holds a pair keeps using it
#: after the table was emptied.
_SCOPES: dict[tuple, tuple[_ScopeNames, _ScopeNames]] = {}


def _scope_names(scope: dict[str, str]) -> tuple[_ScopeNames, _ScopeNames]:
    """The shared name tables of ``scope`` (which they keep: do not
    mutate it afterwards)."""
    key = tuple(scope.items())
    names = _SCOPES.get(key)
    if names is None:
        names = (_ScopeNames(scope, attributes=False),
                 _ScopeNames(scope, attributes=True))
        if all(len(prefix) <= _MAX_NAME_LENGTH and len(uri) <= _MAX_URI_LENGTH
               for prefix, uri in key):
            if len(_SCOPES) >= _MAX_SCOPES:
                _SCOPES.clear()
            _SCOPES[key] = names
    return names


def _parse_element(text: str, pos: int, scope: dict[str, str],
                   document: Document) -> int:
    """Parse the element at ``pos`` (in-scope prefixes ``scope``) as the next
    child of ``document``; return the offset after its end tag."""
    find, startswith = text.find, text.startswith
    open_tag, attribute, close_tag = _OPEN.match, _ATTRIBUTE.match, _CLOSE.match
    if open_tag(text, pos) is None:     # only a start tag may come first
        raise (_name_fault(text, pos + 1) if startswith("<", pos)
               else _error(text, pos, "expected '<'"))
    # Nodes are made without their constructors (which re-parse names, copy
    # the dicts and run ``append``'s re-parenting checks): a measured sixth
    # of the parse.  Every slot of nodes.py's classes is assigned here.
    new = object.__new__

    element_names, attribute_names = _scope_names(scope)
    # One entry per open element: the state of its *parent* to return to.
    stack: list[tuple] = []
    parent: Element | Document = document
    siblings = document.children
    open_name = None            # raw name of `parent`, for its end tag
    fault = None                # unresolvable name in `parent`'s start tag
    pending = None              # character data not yet made a Text node

    while True:
        markup = find("<", pos)
        if markup != pos:
            end = markup if markup >= 0 else len(text)
            chunk = text[pos:end]
            if "&" in chunk:
                chunk = _decode_entities(chunk, text, end)
            if markup < 0:
                raise _error(text, end, f"unclosed element <{open_name}>")
            pending = chunk if pending is None else pending + chunk
            pos = markup
        # Character data, references and CDATA sections run together into
        # one Text node, which ends at any other markup.
        if pending is not None and not startswith("<![CDATA[", pos):
            node = new(Text)
            node.parent = parent
            node.value = pending
            siblings.append(node)
            pending = None

        match = open_tag(text, pos)
        if match is not None:
            raw_name, closer = match.groups()
            if not raw_name.isascii():
                name_fault = _name_fault(text, pos + 1)
                if name_fault is not None:
                    raise name_fault
            if len(stack) >= _MAX_DEPTH:
                raise _error(text, pos,
                             f"element nesting deeper than {_MAX_DEPTH}")
            pos = match.end()
            nsdecls: dict[str, str] = {}
            raw_attributes: dict[str, str] = {}
            while closer is None:
                match = attribute(text, pos)
                if match is None:
                    raise _attribute_fault(text, pos)
                name, value, single_quoted, closer = match.groups()
                if value is None:
                    value = single_quoted
                if not name.isascii():
                    name_fault = _name_fault(text, match.start(1))
                    if name_fault is not None:
                        raise name_fault
                pos = match.end()
                if "&" in value:
                    value = _decode_entities(value, text, _after_value(match))
                if name.startswith("xmlns") and name[5:6] in ("", ":"):
                    if len(name) > 5 and not value:
                        raise _error(
                            text, _after_value(match),
                            f"cannot bind prefix {name[6:]!r} to empty URI")
                    nsdecls[name[6:]] = value
                elif name in raw_attributes:
                    raise _error(text, _after_value(match),
                                 f"duplicate attribute {name!r}")
                else:
                    raw_attributes[name] = value

            outer_names = element_names, attribute_names
            if nsdecls:
                element_names, attribute_names = _scope_names(
                    {**element_names.scope, **nsdecls})
            # A name that does not resolve is reported where the element
            # *ends*, after any fault in its content, as it always was.
            tag_fault = None
            attributes: dict[QName, str] = {}
            try:
                qname = element_names[raw_name]
                for raw, value in raw_attributes.items():
                    name = attribute_names[raw]
                    if attributes and name in attributes:
                        tag_fault = ("duplicate expanded attribute "
                                     f"{name.clark!r}")
                        break
                    attributes[name] = value
            except ValueError as exc:
                qname, tag_fault = None, str(exc)

            element = new(Element)
            element.parent = parent
            element.name = qname
            element.attributes = attributes
            element.nsdecls = nsdecls
            element.children = []
            siblings.append(element)

            if closer == "/>":
                if tag_fault is not None:
                    raise _error(text, pos, tag_fault)
                element_names, attribute_names = outer_names
                if not stack:
                    return pos
                continue
            stack.append((parent, siblings, open_name, fault, outer_names))
            parent, siblings = element, element.children
            open_name, fault = raw_name, tag_fault
            continue

        if startswith("</", pos):
            match = close_tag(text, pos)
            if match is None or match.group(1) != open_name:
                raise _end_tag_fault(text, pos, open_name)
            pos = match.end()
            if fault is not None:
                raise _error(text, pos, fault)
            (parent, siblings, open_name, fault,
             (element_names, attribute_names)) = stack.pop()
            if not stack:
                return pos
        elif startswith("<!--", pos):
            comment, pos = _comment(text, pos)
            parent.append(comment)
        elif startswith("<![CDATA[", pos):
            end = find("]]>", pos + 9)
            if end < 0:
                raise _error(text, pos + 9, "unterminated CDATA section")
            chunk = text[pos + 9:end]
            pending = chunk if pending is None else pending + chunk
            pos = end + 3
        elif startswith("<?", pos):
            instruction, pos = _processing_instruction(text, pos)
            parent.append(instruction)
        else:
            raise _name_fault(text, pos + 1)


# -- entry points ---------------------------------------------------------------

def parse_document(text: str) -> Document:
    """Parse a complete XML document (prolog + one root element)."""
    text = text.removeprefix("\ufeff")
    document = Document()
    pos = _skip_space(text, 0)
    if text.startswith("<?xml", pos):
        end = text.find("?>", pos + 5)
        if end < 0:
            raise _error(text, pos + 5, "unterminated XML declaration")
        pos = _skip_space(text, end + 2)
    while True:
        if text.startswith("<!--", pos):
            comment, pos = _comment(text, pos)
            document.append(comment)
        elif text.startswith("<!DOCTYPE", pos):
            pos += 9
            depth = 1
            while depth and pos < len(text):
                if text[pos] == "<":
                    depth += 1
                elif text[pos] == ">":
                    depth -= 1
                pos += 1
            if depth:
                raise _error(text, pos, "unterminated DOCTYPE")
        elif text.startswith("<?", pos):
            instruction, pos = _processing_instruction(text, pos)
            document.append(instruction)
        else:
            break
        pos = _skip_space(text, pos)
    pos = _skip_space(text, _parse_element(text, pos, {"xml": XML_NS},
                                           document))
    while pos < len(text):
        if text.startswith("<!--", pos):
            node, pos = _comment(text, pos)
        elif text.startswith("<?", pos):
            node, pos = _processing_instruction(text, pos)
        else:
            raise _error(text, pos, "content after document element")
        document.append(node)
        pos = _skip_space(text, pos)
    return document


def parse_fragment(text: str,
                   namespaces: dict[str, str] | None = None) -> Element:
    """Parse a single element, optionally inside pre-declared prefixes."""
    text = text.removeprefix("\ufeff")
    # The fragment gets a Document parent so absolute XPath expressions
    # ("/a/b") work on parsed trees.
    document = Document()
    pos = _parse_element(text, _skip_space(text, 0),
                         {"xml": XML_NS, **(namespaces or {})}, document)
    pos = _skip_space(text, pos)
    if pos < len(text):
        raise _error(text, pos, "trailing content after fragment")
    return document.children[0]


def parse(text: str, namespaces: dict[str, str] | None = None) -> Element:
    """Parse XML text and return its root element.

    Accepts either a full document or a bare element; this is the everyday
    entry point used throughout the repository.
    """
    stripped = text.lstrip()
    if stripped.startswith("<?xml") or stripped.startswith("<!DOCTYPE"):
        return parse_document(text).root_element
    return parse_fragment(text, namespaces)
