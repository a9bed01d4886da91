"""The action runtime: the mutable world that atomic actions act upon.

The paper's action component "can include commands on the database level,
explicit message sending, or actions on the domain ontology level"
(Sec. 4.5).  The runtime therefore exposes:

* **mailboxes** — named message queues (explicit message sending; the
  running example's "inform the customer about suitable cars"),
* **documents** — named XML documents (database-level updates),
* **graphs** — named RDF graphs (domain-ontology-level facts),
* an optional **event stream** — raising new events from actions closes
  the reactivity loop (rules triggering rules).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rdf import Graph
from ..xmlmodel import Element
from ..xpath import as_nodeset, evaluate

__all__ = ["ActionRuntime", "Message", "ActionError"]


class ActionError(ValueError):
    """Raised when an action cannot be executed."""


@dataclass(frozen=True)
class Message:
    """One delivered message."""

    recipient: str
    content: Element

    def __repr__(self) -> str:
        return f"Message(to={self.recipient!r}, {self.content.name.clark})"


class ActionRuntime:
    """Holds the named resources actions operate on."""

    def __init__(self, event_stream=None) -> None:
        self.mailboxes: dict[str, list[Message]] = {}
        self.documents: dict[str, Element] = {}
        self.graphs: dict[str, Graph] = {}
        self.event_stream = event_stream
        self.trace: list[str] = []

    # -- resource registration --------------------------------------------------

    def register_document(self, name: str, root: Element) -> None:
        self.documents[name] = root

    def register_graph(self, name: str, graph: Graph) -> None:
        self.graphs[name] = graph

    # -- atomic operations ---------------------------------------------------------

    def send(self, recipient: str, content: Element) -> Message:
        """Deliver a message to a named mailbox."""
        message = Message(recipient, content)
        self.mailboxes.setdefault(recipient, []).append(message)
        self.trace.append(f"send to {recipient}")
        return message

    def insert(self, document: str, parent_path: str, content: Element) -> None:
        """Insert ``content`` under every node selected by ``parent_path``."""
        root = self._document(document)
        parents = as_nodeset(evaluate(parent_path, root))
        if not parents:
            raise ActionError(
                f"insert target {parent_path!r} selects nothing in "
                f"{document!r}")
        for index, parent in enumerate(parents):
            if not isinstance(parent, Element):
                raise ActionError("insert target must select elements")
            parent.append(content.copy() if index else content)
        self.trace.append(f"insert into {document} at {parent_path}")

    def delete(self, document: str, path: str) -> int:
        """Delete all elements selected by ``path``; returns the count."""
        root = self._document(document)
        victims = [node for node in as_nodeset(evaluate(path, root))
                   if isinstance(node, Element)]
        for victim in victims:
            if victim.parent is None:
                raise ActionError("cannot delete the document root")
            victim.detach()
        self.trace.append(f"delete {len(victims)} nodes from {document}")
        return len(victims)

    def assert_triple(self, graph: str, subject, predicate, obj) -> None:
        self._graph(graph).add(subject, predicate, obj)
        self.trace.append(f"assert in {graph}")

    def retract_triple(self, graph: str, subject, predicate, obj) -> bool:
        removed = self._graph(graph).remove(subject, predicate, obj)
        self.trace.append(f"retract from {graph}")
        return removed

    def raise_event(self, payload: Element) -> None:
        """Emit a new event (actions can trigger further rules)."""
        if self.event_stream is None:
            raise ActionError("no event stream attached to the runtime")
        self.event_stream.emit(payload)
        self.trace.append(f"raise {payload.name.local}")

    # -- helpers ------------------------------------------------------------------------

    def _document(self, name: str) -> Element:
        if name not in self.documents:
            raise ActionError(f"unknown document {name!r}")
        return self.documents[name]

    def _graph(self, name: str) -> Graph:
        if name not in self.graphs:
            raise ActionError(f"unknown graph {name!r}")
        return self.graphs[name]

    def messages(self, recipient: str) -> list[Message]:
        return list(self.mailboxes.get(recipient, []))
