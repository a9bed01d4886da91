"""The character-at-a-time recursive-descent parser that shipped in
``repro.xmlmodel.parser`` until the tokenizer replaced it, kept unmodified
as the differential oracle of ``test_parser_differential.py``.

It defines the tree, the accept/reject verdict and the error position
the tokenizer must reproduce.  Its known faults are part of the record:
a malformed numeric character reference (or an empty local name)
escapes as a bare ``ValueError``/``OverflowError``, and nesting deeper
than the interpreter stack is a ``RecursionError``.
"""

from __future__ import annotations

from repro.xmlmodel import (Comment, Document, Element, ProcessingInstruction,
                            Text, XMLSyntaxError)
from repro.xmlmodel.names import NamespaceError, QName, XMLNS_NS, XML_NS

__all__ = ["parse", "parse_document", "parse_fragment"]

_PREDEFINED_ENTITIES = {
    "lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"',
}

_NAME_START = set("_:") | set(chr(c) for c in range(ord("a"), ord("z") + 1)) \
    | set(chr(c) for c in range(ord("A"), ord("Z") + 1))
_WHITESPACE = set(" \t\r\n")


class _Scanner:
    """Character-level scanner with position tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> XMLSyntaxError:
        line = self.text.count("\n", 0, self.pos) + 1
        last_nl = self.text.rfind("\n", 0, self.pos)
        column = self.pos - last_nl
        return XMLSyntaxError(message, line, column)

    @property
    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos:self.pos + n]

    def advance(self, n: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def match(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.match(literal):
            raise self.error(f"expected {literal!r}")

    def skip_whitespace(self) -> int:
        start = self.pos
        while not self.eof and self.text[self.pos] in _WHITESPACE:
            self.pos += 1
        return self.pos - start

    def read_until(self, terminator: str, what: str) -> str:
        end = self.text.find(terminator, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        chunk = self.text[self.pos:end]
        self.pos = end + len(terminator)
        return chunk

    def read_name(self) -> str:
        start = self.pos
        if self.eof:
            raise self.error("expected name, found end of input")
        first = self.text[self.pos]
        if first not in _NAME_START and not first.isalpha():
            raise self.error(f"invalid name start character {first!r}")
        self.pos += 1
        while not self.eof:
            ch = self.text[self.pos]
            if ch.isalnum() or ch in "_:.-" or ord(ch) > 127:
                self.pos += 1
            else:
                break
        return self.text[start:self.pos]


class _Parser:
    def __init__(self, text: str) -> None:
        if text.startswith("\ufeff"):
            text = text[1:]
        self.scanner = _Scanner(text)

    # -- entry points -------------------------------------------------------

    def parse_document(self) -> Document:
        document = Document()
        scanner = self.scanner
        self._skip_prolog(document)
        element = self._parse_element({"xml": XML_NS})
        document.append(element)
        scanner.skip_whitespace()
        while not scanner.eof:
            if scanner.peek(4) == "<!--":
                scanner.advance(4)
                document.append(Comment(scanner.read_until("-->", "comment")))
            elif scanner.peek(2) == "<?":
                document.append(self._parse_pi())
            else:
                raise scanner.error("content after document element")
            scanner.skip_whitespace()
        return document

    def parse_fragment(self, namespaces: dict[str, str] | None = None) -> Element:
        scanner = self.scanner
        scanner.skip_whitespace()
        scope = {"xml": XML_NS}
        scope.update(namespaces or {})
        element = self._parse_element(scope)
        scanner.skip_whitespace()
        if not scanner.eof:
            raise scanner.error("trailing content after fragment")
        # Give the fragment a Document parent so absolute XPath expressions
        # ("/a/b") work on parsed trees.
        Document([element])
        return element

    # -- pieces -------------------------------------------------------------

    def _skip_prolog(self, document: Document) -> None:
        scanner = self.scanner
        scanner.skip_whitespace()
        if scanner.peek(5) == "<?xml":
            scanner.advance(5)
            scanner.read_until("?>", "XML declaration")
            scanner.skip_whitespace()
        while True:
            if scanner.peek(4) == "<!--":
                scanner.advance(4)
                document.append(Comment(scanner.read_until("-->", "comment")))
            elif scanner.peek(9) == "<!DOCTYPE":
                scanner.advance(9)
                depth = 1
                while depth and not scanner.eof:
                    ch = scanner.advance()
                    if ch == "<":
                        depth += 1
                    elif ch == ">":
                        depth -= 1
                if depth:
                    raise scanner.error("unterminated DOCTYPE")
            elif scanner.peek(2) == "<?":
                document.append(self._parse_pi())
            else:
                return
            scanner.skip_whitespace()

    def _parse_pi(self) -> ProcessingInstruction:
        scanner = self.scanner
        scanner.expect("<?")
        target = scanner.read_name()
        scanner.skip_whitespace()
        data = scanner.read_until("?>", "processing instruction")
        return ProcessingInstruction(target, data)

    def _parse_element(self, scope: dict[str, str]) -> Element:
        scanner = self.scanner
        scanner.expect("<")
        raw_name = scanner.read_name()
        attributes_raw: list[tuple[str, str]] = []
        nsdecls: dict[str, str] = {}
        while True:
            had_space = scanner.skip_whitespace()
            if scanner.match("/>"):
                return self._build_element(raw_name, attributes_raw, nsdecls,
                                           scope, children=None)
            if scanner.match(">"):
                break
            if not had_space:
                raise scanner.error("expected whitespace before attribute")
            attr_name = scanner.read_name()
            scanner.skip_whitespace()
            scanner.expect("=")
            scanner.skip_whitespace()
            quote = scanner.advance()
            if quote not in "'\"":
                raise scanner.error("attribute value must be quoted")
            value = self._decode_entities(
                scanner.read_until(quote, "attribute value"))
            if attr_name == "xmlns":
                nsdecls[""] = value
            elif attr_name.startswith("xmlns:"):
                prefix = attr_name[6:]
                if not value:
                    raise scanner.error(
                        f"cannot bind prefix {prefix!r} to empty URI")
                nsdecls[prefix] = value
            else:
                if any(existing == attr_name for existing, _ in attributes_raw):
                    raise scanner.error(f"duplicate attribute {attr_name!r}")
                attributes_raw.append((attr_name, value))
        children = self._parse_content(raw_name,
                                       self._child_scope(scope, nsdecls))
        return self._build_element(raw_name, attributes_raw, nsdecls, scope,
                                   children)

    @staticmethod
    def _child_scope(scope: dict[str, str],
                     nsdecls: dict[str, str]) -> dict[str, str]:
        if not nsdecls:
            return scope
        merged = dict(scope)
        merged.update(nsdecls)
        return merged

    def _build_element(self, raw_name: str,
                       attributes_raw: list[tuple[str, str]],
                       nsdecls: dict[str, str],
                       outer_scope: dict[str, str],
                       children: list | None) -> Element:
        scope = self._child_scope(outer_scope, nsdecls)
        default = scope.get("")
        try:
            name = QName.parse(raw_name, scope, default=default or None)
        except NamespaceError as exc:
            raise self.scanner.error(str(exc)) from None
        attributes: dict[QName, str] = {}
        for attr_raw, value in attributes_raw:
            try:
                attr_name = QName.parse(attr_raw, scope, default=None)
            except NamespaceError as exc:
                raise self.scanner.error(str(exc)) from None
            if attr_name.uri == XMLNS_NS:
                raise self.scanner.error("xmlns is not a usable prefix")
            if attr_name in attributes:
                raise self.scanner.error(
                    f"duplicate expanded attribute {attr_name.clark!r}")
            attributes[attr_name] = value
        element = Element(name, attributes, nsdecls=nsdecls)
        for child in children or ():
            element.append(child)
        return element

    def _parse_content(self, open_name: str, scope: dict[str, str]) -> list:
        scanner = self.scanner
        children: list = []
        text_parts: list[str] = []

        def flush() -> None:
            if text_parts:
                children.append(Text("".join(text_parts)))
                text_parts.clear()

        while True:
            if scanner.eof:
                raise scanner.error(f"unclosed element <{open_name}>")
            if scanner.peek(2) == "</":
                scanner.advance(2)
                closing = scanner.read_name()
                scanner.skip_whitespace()
                scanner.expect(">")
                if closing != open_name:
                    raise scanner.error(
                        f"mismatched end tag </{closing}> for <{open_name}>")
                flush()
                return children
            if scanner.peek(4) == "<!--":
                scanner.advance(4)
                flush()
                children.append(Comment(scanner.read_until("-->", "comment")))
            elif scanner.peek(9) == "<![CDATA[":
                scanner.advance(9)
                text_parts.append(scanner.read_until("]]>", "CDATA section"))
            elif scanner.peek(2) == "<?":
                flush()
                children.append(self._parse_pi())
            elif scanner.peek() == "<":
                flush()
                children.append(self._parse_element(scope))
            else:
                raw = self._read_text()
                text_parts.append(raw)
        # unreachable

    def _read_text(self) -> str:
        scanner = self.scanner
        start = scanner.pos
        while not scanner.eof and scanner.peek() != "<":
            scanner.advance()
        return self._decode_entities(scanner.text[start:scanner.pos])

    def _decode_entities(self, raw: str) -> str:
        if "&" not in raw:
            return raw
        out: list[str] = []
        i = 0
        while i < len(raw):
            ch = raw[i]
            if ch != "&":
                out.append(ch)
                i += 1
                continue
            end = raw.find(";", i + 1)
            if end < 0:
                raise self.scanner.error("unterminated entity reference")
            body = raw[i + 1:end]
            if body.startswith("#x") or body.startswith("#X"):
                out.append(chr(int(body[2:], 16)))
            elif body.startswith("#"):
                out.append(chr(int(body[1:])))
            elif body in _PREDEFINED_ENTITIES:
                out.append(_PREDEFINED_ENTITIES[body])
            else:
                raise self.scanner.error(f"unknown entity &{body};")
            i = end + 1
        return "".join(out)


def parse_document(text: str) -> Document:
    """Parse a complete XML document (prolog + one root element)."""
    return _Parser(text).parse_document()


def parse_fragment(text: str,
                   namespaces: dict[str, str] | None = None) -> Element:
    """Parse a single element, optionally inside pre-declared prefixes."""
    return _Parser(text).parse_fragment(namespaces)


def parse(text: str, namespaces: dict[str, str] | None = None) -> Element:
    """Parse XML text and return its root element.

    Accepts either a full document or a bare element; this is the everyday
    entry point used throughout the repository.
    """
    stripped = text.lstrip()
    if stripped.startswith("<?xml") or stripped.startswith("<!DOCTYPE"):
        return parse_document(text).root_element
    return parse_fragment(text, namespaces)
