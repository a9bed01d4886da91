"""Parser for XQ-lite.

Extends the XPath expression parser with:

* a prolog (``declare namespace p = "uri";``, ``declare default element
  namespace "uri";``),
* FLWOR expressions (``for`` / ``let`` / ``where`` / ``order by`` /
  ``return``),
* conditionals (``if (...) then ... else ...``),
* parenthesized sequences (``(e1, e2, ...)``),
* direct element constructors with embedded ``{ expr }`` blocks.

Direct constructors are scanned at the character level (the token stream
hands control over at the ``<`` and resumes after the construct), exactly
like real XQuery grammars do.
"""

from __future__ import annotations

from functools import lru_cache

from ..xpath.lexer import Lexer, TokenError
from ..xpath.parser import XPathParser, XPathSyntaxError
from .ast import (AttributeTemplate, ElementTemplate, FLWOR, ForClause,
                  IfExpr, LetClause, Prolog, Query, SequenceExpr,
                  TextTemplate)

__all__ = ["XQSyntaxError", "parse_query"]

_FLWOR_STARTERS = ("for", "let")


class XQSyntaxError(XPathSyntaxError):
    """Raised when a query does not conform to the XQ-lite grammar."""


class XQParser(XPathParser):
    """XPath parser extended with FLWOR, if, sequences and constructors."""

    # -- entry ----------------------------------------------------------------

    def parse_query(self) -> Query:
        prolog = self._parse_prolog()
        body = self.parse_expr()
        trailing = self.lexer.next()
        if trailing.kind != "eof":
            raise self.error(
                f"unexpected trailing input {trailing.value!r}", trailing)
        return Query(prolog, body)

    def _parse_prolog(self) -> Prolog:
        namespaces: list[tuple[str, str]] = []
        default_ns: str | None = None
        while self.lexer.peek().is_name("declare"):
            self.lexer.next()
            token = self.lexer.next()
            if token.is_name("namespace"):
                prefix = self.lexer.next()
                if prefix.kind != "name":
                    raise self.error("expected namespace prefix", prefix)
                self.expect_op("=")
                uri = self.lexer.next()
                if uri.kind != "string":
                    raise self.error("expected namespace URI string", uri)
                namespaces.append((prefix.value, uri.value))
            elif token.is_name("default"):
                for keyword in ("element", "namespace"):
                    word = self.lexer.next()
                    if not word.is_name(keyword):
                        raise self.error(f"expected {keyword!r}", word)
                uri = self.lexer.next()
                if uri.kind != "string":
                    raise self.error("expected namespace URI string", uri)
                default_ns = uri.value
            else:
                raise self.error("unsupported declaration", token)
            self.expect_op(";")
        return Prolog(tuple(namespaces), default_ns)

    # -- expression extensions ---------------------------------------------------

    def parse_expr(self):
        token = self.lexer.peek()
        if token.kind == "name" and token.value in _FLWOR_STARTERS \
                and self._keyword_follows_variable(token.value):
            return self._parse_flwor()
        if token.is_name("if") and self._peek_ahead(2)[1].is_op("("):
            return self._parse_if()
        return super().parse_expr()

    def _keyword_follows_variable(self, keyword: str) -> bool:
        # distinguish the FLWOR keyword from a path step named 'for'/'let'
        ahead = self._peek_ahead(2)
        return ahead[1].is_op("$")

    def parse_primary(self):
        token = self.lexer.peek()
        if token.is_op("<"):
            return self._parse_constructor()
        if token.is_op("("):
            # sequence expression: (a, b, c) — also plain parenthesis
            self.lexer.next()
            if self.lexer.peek().is_op(")"):
                self.lexer.next()
                return SequenceExpr(())
            items = [self.parse_expr()]
            while self.lexer.peek().is_op(","):
                self.lexer.next()
                items.append(self.parse_expr())
            self.expect_op(")")
            if len(items) == 1:
                return items[0]
            return SequenceExpr(tuple(items))
        return super().parse_primary()

    def parse_union(self):
        # Direct constructors may appear where a path would: detect '<'
        # before the path grammar consumes it as a comparison operator.
        if self.lexer.peek().is_op("<"):
            return self._parse_constructor()
        return super().parse_union()

    # -- FLWOR ----------------------------------------------------------------------

    def _parse_flwor(self) -> FLWOR:
        clauses: list[ForClause | LetClause] = []
        while True:
            token = self.lexer.peek()
            if token.is_name("for"):
                self.lexer.next()
                clauses.extend(self._parse_for_bindings())
            elif token.is_name("let"):
                self.lexer.next()
                clauses.extend(self._parse_let_bindings())
            else:
                break
        where = None
        if self.lexer.peek().is_name("where"):
            self.lexer.next()
            where = self.parse_expr()
        order_by = None
        descending = False
        if self.lexer.peek().is_name("order"):
            self.lexer.next()
            by = self.lexer.next()
            if not by.is_name("by"):
                raise self.error("expected 'by' after 'order'", by)
            order_by = self.parse_expr()
            if self.lexer.peek().is_name("descending"):
                self.lexer.next()
                descending = True
            elif self.lexer.peek().is_name("ascending"):
                self.lexer.next()
        return_token = self.lexer.next()
        if not return_token.is_name("return"):
            raise self.error("expected 'return'", return_token)
        body = self.parse_expr()
        return FLWOR(tuple(clauses), where, order_by, descending, body)

    def _parse_variable_name(self) -> str:
        self.expect_op("$")
        name = self.lexer.next()
        if name.kind != "name":
            raise self.error("expected variable name", name)
        return name.value

    def _parse_for_bindings(self) -> list[ForClause]:
        bindings = []
        while True:
            variable = self._parse_variable_name()
            in_token = self.lexer.next()
            if not in_token.is_name("in"):
                raise self.error("expected 'in'", in_token)
            bindings.append(ForClause(variable, self.parse_expr()))
            if self.lexer.peek().is_op(","):
                self.lexer.next()
            else:
                return bindings

    def _parse_let_bindings(self) -> list[LetClause]:
        bindings = []
        while True:
            variable = self._parse_variable_name()
            self.expect_op(":=")
            bindings.append(LetClause(variable, self.parse_expr()))
            if self.lexer.peek().is_op(","):
                self.lexer.next()
            else:
                return bindings

    def _parse_if(self) -> IfExpr:
        self.lexer.next()  # 'if'
        self.expect_op("(")
        condition = self.parse_expr()
        self.expect_op(")")
        then_token = self.lexer.next()
        if not then_token.is_name("then"):
            raise self.error("expected 'then'", then_token)
        then = self.parse_expr()
        else_token = self.lexer.next()
        if not else_token.is_name("else"):
            raise self.error("expected 'else'", else_token)
        otherwise = self.parse_expr()
        return IfExpr(condition, then, otherwise)

    # -- direct constructors ----------------------------------------------------------

    def _parse_constructor(self) -> ElementTemplate:
        start = self.lexer.offset_of_next()
        text = self.lexer.text
        template, end = _ConstructorScanner(text, start).scan()
        self.lexer.seek(end)
        return template


class _ConstructorScanner:
    """Character-level scanner for direct element constructors."""

    def __init__(self, text: str, pos: int) -> None:
        self.text = text
        self.pos = pos

    def error(self, message: str) -> XQSyntaxError:
        return XQSyntaxError(f"{message} (at offset {self.pos})")

    def scan(self) -> tuple[ElementTemplate, int]:
        template = self._element()
        return template, self.pos

    # -- helpers -------------------------------------------------------------

    def _expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
                self.text[self.pos].isalnum()
                or self.text[self.pos] in "_:.-"):
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a name")
        return self.text[start:self.pos]

    def _embedded_expr(self):
        """Parse one ``{ expr }`` block, returning the expression AST."""
        self._expect("{")
        depth = 1
        start = self.pos
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "'\"":
                end = self.text.find(ch, self.pos + 1)
                if end < 0:
                    raise self.error("unterminated string in embedded expression")
                self.pos = end + 1
                continue
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    source = self.text[start:self.pos]
                    self.pos += 1
                    try:
                        return XQParser(Lexer(source)).parse_query().body
                    except TokenError as exc:
                        raise XQSyntaxError(str(exc)) from exc
            self.pos += 1
        raise self.error("unterminated embedded expression")

    # -- grammar -------------------------------------------------------------

    def _element(self) -> ElementTemplate:
        self._expect("<")
        name = self._name()
        nsdecls: list[tuple[str, str]] = []
        attributes: list[AttributeTemplate] = []
        while True:
            self._skip_space()
            if self.text.startswith("/>", self.pos):
                self.pos += 2
                return ElementTemplate(name, tuple(nsdecls),
                                       tuple(attributes), ())
            if self.text.startswith(">", self.pos):
                self.pos += 1
                break
            attr_name = self._name()
            self._skip_space()
            self._expect("=")
            self._skip_space()
            quote = self.text[self.pos:self.pos + 1]
            if quote not in "'\"":
                raise self.error("attribute value must be quoted")
            self.pos += 1
            parts = self._attribute_parts(quote)
            if attr_name == "xmlns":
                nsdecls.append(("", _only_literal(parts, self)))
            elif attr_name.startswith("xmlns:"):
                nsdecls.append((attr_name[6:], _only_literal(parts, self)))
            else:
                attributes.append(AttributeTemplate(attr_name, tuple(parts)))
        content = self._content(name)
        return ElementTemplate(name, tuple(nsdecls), tuple(attributes),
                               tuple(content))

    def _attribute_parts(self, quote: str) -> list:
        parts: list = []
        literal: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated attribute value")
            ch = self.text[self.pos]
            if ch == quote:
                self.pos += 1
                if literal:
                    parts.append("".join(literal))
                return parts
            if ch == "{":
                if self.text.startswith("{{", self.pos):
                    literal.append("{")
                    self.pos += 2
                    continue
                if literal:
                    parts.append("".join(literal))
                    literal = []
                parts.append(self._embedded_expr())
                continue
            if ch == "&":
                literal.append(self._entity())
                continue
            literal.append(ch)
            self.pos += 1

    def _entity(self) -> str:
        end = self.text.find(";", self.pos)
        if end < 0:
            raise self.error("unterminated entity reference")
        body = self.text[self.pos + 1:end]
        self.pos = end + 1
        table = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}
        if body in table:
            return table[body]
        if body.startswith("#x"):
            return chr(int(body[2:], 16))
        if body.startswith("#"):
            return chr(int(body[1:]))
        raise self.error(f"unknown entity &{body};")

    def _content(self, open_name: str) -> list:
        content: list = []
        literal: list[str] = []

        def flush() -> None:
            if literal:
                content.append(TextTemplate("".join(literal)))
                literal.clear()

        while True:
            if self.pos >= len(self.text):
                raise self.error(f"unclosed constructor <{open_name}>")
            if self.text.startswith("</", self.pos):
                self.pos += 2
                closing = self._name()
                self._skip_space()
                self._expect(">")
                if closing != open_name:
                    raise self.error(
                        f"mismatched constructor end tag </{closing}>")
                flush()
                return content
            ch = self.text[self.pos]
            if ch == "<":
                flush()
                content.append(self._element())
            elif ch == "{":
                if self.text.startswith("{{", self.pos):
                    literal.append("{")
                    self.pos += 2
                    continue
                flush()
                content.append(self._embedded_expr())
            elif ch == "}":
                if self.text.startswith("}}", self.pos):
                    literal.append("}")
                    self.pos += 2
                    continue
                raise self.error("unescaped '}' in constructor content")
            elif ch == "&":
                literal.append(self._entity())
            else:
                literal.append(ch)
                self.pos += 1


def _only_literal(parts: list, scanner: _ConstructorScanner) -> str:
    if len(parts) == 1 and isinstance(parts[0], str):
        return parts[0]
    if not parts:
        return ""
    raise scanner.error("namespace declarations must be literal")


#: how many parsed queries :func:`parse_query` keeps (by text)
PARSE_CACHE_SIZE = 512


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_query(text: str) -> Query:
    """Parse an XQ-lite query (prolog + expression).

    Cached by text (the AST is immutable); a syntax error is not cached
    and is raised anew, with the same message, each time.
    """
    try:
        return XQParser(Lexer(text)).parse_query()
    except XQSyntaxError:
        raise
    except (TokenError, XPathSyntaxError) as exc:
        raise XQSyntaxError(str(exc)) from exc
