"""Qualified names and namespace handling for the XML node model.

The whole framework of the paper is namespace-driven: the Generic Request
Handler dispatches rule components to language services *by the namespace
URI* of the component's root element.  This module provides the ``QName``
value type used for element and attribute names throughout the repository,
plus the handful of well-known namespaces of the ECA framework.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

__all__ = [
    "QName",
    "NamespaceError",
    "XML_NS",
    "XMLNS_NS",
    "ECA_NS",
    "LOG_NS",
    "OPAQUE_LANG",
]

#: Namespace bound to the reserved ``xml`` prefix.
XML_NS = "http://www.w3.org/XML/1998/namespace"

#: Namespace bound to the reserved ``xmlns`` prefix.
XMLNS_NS = "http://www.w3.org/2000/xmlns/"

#: Namespace of the ECA rule markup language (Sec. 4.1 of the paper).
ECA_NS = "http://www.semwebtech.org/languages/2006/eca-ml"

#: Namespace of the answer/variable-binding markup (``log:answers``).
LOG_NS = "http://www.semwebtech.org/languages/2006/log"

#: Pseudo language URI assigned to opaque components that name their
#: language with a plain ``language=`` attribute instead of a namespace.
OPAQUE_LANG = "http://www.semwebtech.org/languages/2006/opaque"


class NamespaceError(ValueError):
    """Raised for undeclared prefixes or invalid namespace declarations."""


class QName(tuple):
    """An expanded XML name: a namespace URI (or ``None``) plus local part.

    Equality and hashing ignore the prefix a name was written with, as
    required by XML Namespaces: ``a:booking`` and ``b:booking`` are the same
    name when ``a`` and ``b`` are bound to the same URI.

    The value *is* the pair ``(uri, local)``: every attribute lookup,
    ``find`` and name test hashes or compares a name, and a ``tuple``
    does both in C where a dataclass would run a Python frame each time.
    """

    __slots__ = ()

    def __new__(cls, uri: str | None, local: str) -> "QName":
        if not local:
            raise ValueError("QName local part must be non-empty")
        return tuple.__new__(cls, (uri, local))

    def __getnewargs__(self):
        # pickle/copy rebuild through __new__(cls, uri, local)
        return tuple(self)

    uri = property(itemgetter(0), doc="Namespace URI, or ``None``.")
    local = property(itemgetter(1), doc="Local part (never empty).")

    def __repr__(self) -> str:
        return f"QName(uri={self[0]!r}, local={self[1]!r})"

    @classmethod
    def parse(cls, text: str, namespaces: dict[str, str] | None = None,
              default: str | None = None) -> "QName":
        """Parse ``prefix:local`` or ``local`` or ``{uri}local`` notation.

        ``namespaces`` maps prefixes to URIs; ``default`` is the default
        namespace applied to unprefixed names (attributes pass ``None``).
        """
        if default is None and (namespaces is None or ":" not in text):
            return _parse_context_free(text)
        return _parse(text, namespaces, default)

    @property
    def clark(self) -> str:
        """Clark notation ``{uri}local`` (or just ``local``)."""
        return f"{{{self.uri}}}{self.local}" if self.uri else self.local

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.clark


def _parse(text: str, namespaces: dict[str, str] | None,
           default: str | None) -> QName:
    if text.startswith("{"):
        uri, _, local = text[1:].partition("}")
        return QName(uri or None, local)
    prefix, sep, local = text.partition(":")
    if not sep:
        return QName(default, text)
    if prefix == "xml":
        return QName(XML_NS, local)
    if prefix == "xmlns":
        return QName(XMLNS_NS, local)
    if namespaces is None or prefix not in namespaces:
        raise NamespaceError(f"undeclared namespace prefix: {prefix!r}")
    return QName(namespaces[prefix], local)


@lru_cache(maxsize=512)
def _parse_context_free(text: str) -> QName:
    """:meth:`QName.parse` of a name that means the same everywhere.

    ``element.get("kind")``, ``find("answer")`` and every unprefixed
    attribute the parser meets spell the same few dozen names over and
    over; remembering them saves building an equal ``QName`` each time.
    ``QName`` is immutable, so sharing one is safe; the bound keeps hostile
    input from growing the memo.
    """
    return _parse(text, None, None)
