"""The action language: atomic actions composed by a CCS-lite algebra.

The framework's language hierarchy (Fig. 2) names *process algebras* as
the application-independent action formalism, applied to domain atomic
actions.  Accordingly this module provides atomic actions (send, insert,
delete, assert, retract, raise) and the combinators ``Sequence``,
``Parallel`` and ``If`` (guarded choice).

Every action is executed *per tuple of variable bindings* (Sec. 4.5);
templates inside actions are instantiated with the tuple first.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bindings import PLACEHOLDER, Binding
from ..conditions import TestExpression
from ..rdf import Literal, URIRef
from ..xmlmodel import Element
from .runtime import ActionError, ActionRuntime
from .templates import instantiate, substitute_text, template_variables

__all__ = ["Action", "Send", "Insert", "Delete", "AssertTriple",
           "RetractTriple", "Raise", "Sequence", "Parallel", "If"]


class Action:
    """Base class: an executable action component."""

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        raise NotImplementedError

    def variables(self) -> set[str]:
        """Variables the action consumes (for static rule validation)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Send(Action):
    """Deliver an instantiated message to a named mailbox."""

    recipient: str
    template: Element

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        recipient = substitute_text(self.recipient, binding)
        runtime.send(recipient, instantiate(self.template, binding))

    def variables(self) -> set[str]:
        return (template_variables(self.template)
                | set(PLACEHOLDER.findall(self.recipient)))


@dataclass(frozen=True)
class Insert(Action):
    """Insert an instantiated fragment into a named XML document."""

    document: str
    parent_path: str
    template: Element

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        runtime.insert(self.document, self.parent_path,
                       instantiate(self.template, binding))

    def variables(self) -> set[str]:
        return template_variables(self.template)


@dataclass(frozen=True)
class Delete(Action):
    """Delete the nodes selected by an (instantiated) XPath."""

    document: str
    path: str

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        runtime.delete(self.document, substitute_text(self.path, binding))

    def variables(self) -> set[str]:
        return set(PLACEHOLDER.findall(self.path))


def _rdf_term(raw: str, binding: Binding):
    text = substitute_text(raw, binding)
    scheme, sep, _ = text.partition(":")
    if sep and scheme.isalnum() and not scheme.isdigit():
        return URIRef(text)
    return Literal(text)


@dataclass(frozen=True)
class AssertTriple(Action):
    """Add a triple to a named RDF graph (domain-ontology-level action)."""

    graph: str
    subject: str
    predicate: str
    obj: str

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        subject = _rdf_term(self.subject, binding)
        predicate = _rdf_term(self.predicate, binding)
        if not isinstance(subject, URIRef) or not isinstance(predicate,
                                                             URIRef):
            raise ActionError("triple subject/predicate must be URIs")
        runtime.assert_triple(self.graph, subject, predicate,
                              _rdf_term(self.obj, binding))

    def variables(self) -> set[str]:
        names: set[str] = set()
        for raw in (self.subject, self.predicate, self.obj):
            names.update(PLACEHOLDER.findall(raw))
        return names


@dataclass(frozen=True)
class RetractTriple(Action):
    """Remove a triple from a named RDF graph."""

    graph: str
    subject: str
    predicate: str
    obj: str

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        subject = _rdf_term(self.subject, binding)
        predicate = _rdf_term(self.predicate, binding)
        if not isinstance(subject, URIRef) or not isinstance(predicate,
                                                             URIRef):
            raise ActionError("triple subject/predicate must be URIs")
        runtime.retract_triple(self.graph, subject, predicate,
                               _rdf_term(self.obj, binding))

    variables = AssertTriple.variables


@dataclass(frozen=True)
class Raise(Action):
    """Emit a new (instantiated) event — rules may trigger rules."""

    template: Element

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        runtime.raise_event(instantiate(self.template, binding))

    def variables(self) -> set[str]:
        return template_variables(self.template)


@dataclass(frozen=True)
class Sequence(Action):
    """Sequential composition: a1 ; a2 ; ...."""

    actions: tuple[Action, ...]

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        for action in self.actions:
            action.perform(runtime, binding)

    def variables(self) -> set[str]:
        names: set[str] = set()
        for action in self.actions:
            names |= action.variables()
        return names


@dataclass(frozen=True)
class Parallel(Action):
    """Concurrent composition a1 ‖ a2: all branches are executed; their
    relative order carries no meaning (the engine runs them in arbitrary
    order and clients must not rely on it)."""

    actions: tuple[Action, ...]

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        for action in self.actions:
            action.perform(runtime, binding)

    def variables(self) -> set[str]:
        names: set[str] = set()
        for action in self.actions:
            names |= action.variables()
        return names


@dataclass(frozen=True)
class If(Action):
    """Guarded choice: run ``then`` when the test holds, else ``otherwise``."""

    test: TestExpression
    then: Action
    otherwise: Action | None = None

    def perform(self, runtime: ActionRuntime, binding: Binding) -> None:
        if self.test.holds(binding):
            self.then.perform(runtime, binding)
        elif self.otherwise is not None:
            self.otherwise.perform(runtime, binding)

    def variables(self) -> set[str]:
        names = set(self.test.variables()) | self.then.variables()
        if self.otherwise is not None:
            names |= self.otherwise.variables()
        return names
