"""The language registry: languages as resources (Fig. 1/2 of the paper).

Every component language is a resource identified by a URI; "with this
URI, further information is associated that allows to address a suitable
Web Service that implements the language" (Sec. 2).  A
:class:`LanguageDescriptor` is exactly that resource description:
family, URI, how to reach the processor, and whether the processor is
*framework-aware* (speaks ``log:`` markup natively) or must be adapted by
the GRH (Sec. 4.4).

The registry can also export itself as an RDF graph — rules and languages
are objects of the Semantic Web.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..rdf import Graph, Literal, Namespace, RDF, URIRef
from ..xmlmodel import Element
from .resilience import BreakerPolicy, HedgePolicy, RetryPolicy

__all__ = ["LanguageDescriptor", "LanguageRegistry", "RegistryError",
           "FAMILIES", "ECA_ONTOLOGY"]

FAMILIES = ("event", "query", "test", "action")

#: RDF vocabulary for the rule/language ontology of Fig. 1.
ECA_ONTOLOGY = Namespace("http://www.semwebtech.org/ontology/2006/eca#")


class RegistryError(ValueError):
    """Raised for unknown languages or invalid registrations."""


@dataclass(frozen=True)
class LanguageDescriptor:
    """Resource description of one component language.

    ``analyze`` optionally inspects a component's content and reports
    ``(produces, consumes)`` variable sets, enabling the engine's static
    binding-order check; ``None`` entries mean "unknown".

    ``retry``, ``breaker`` and ``timeout`` override the GRH's default
    resilience policies for this one language: autonomous services have
    individual failure characteristics, so the knobs live on the
    resource description (Sec. 2: "with this URI, further information is
    associated").  ``None`` means "use the GRH-wide default".
    """

    uri: str
    family: str
    name: str
    framework_aware: bool = True
    analyze: Callable[[Element | str],
                      tuple[set[str] | None, set[str] | None]] | None = None
    retry: RetryPolicy | None = None
    breaker: BreakerPolicy | None = None
    timeout: float | None = None
    #: ordered replica addresses implementing this language (one or
    #: more); a remote language without them names its one address at
    #: registration instead
    replicas: tuple[str, ...] = ()
    #: hedged-read policy override for this language (``None`` = the
    #: GRH-wide default); only consulted when several replicas are live
    hedge: HedgePolicy | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise RegistryError(f"unknown language family {self.family!r}; "
                                f"expected one of {FAMILIES}")
        if not isinstance(self.replicas, tuple):
            # accept any iterable, normalize to tuple (dataclass is frozen)
            object.__setattr__(self, "replicas", tuple(self.replicas))


class LanguageRegistry:
    """URI → descriptor/service mapping used by the GRH for dispatch."""

    def __init__(self) -> None:
        self._descriptors: dict[str, LanguageDescriptor] = {}
        self._by_name: dict[str, str] = {}

    def register(self, descriptor: LanguageDescriptor) -> None:
        if descriptor.uri in self._descriptors:
            raise RegistryError(
                f"language {descriptor.uri!r} already registered")
        self._descriptors[descriptor.uri] = descriptor
        self._by_name.setdefault(descriptor.name, descriptor.uri)

    def lookup(self, uri: str) -> LanguageDescriptor:
        if uri not in self._descriptors:
            raise RegistryError(f"no language registered for {uri!r}")
        return self._descriptors[uri]

    def lookup_by_name(self, name: str) -> LanguageDescriptor:
        """Resolve an opaque component's ``language="name"`` attribute."""
        if name in self._by_name:
            return self._descriptors[self._by_name[name]]
        if name in self._descriptors:  # a URI was given as the name
            return self._descriptors[name]
        raise RegistryError(f"no language registered under name {name!r}")

    def __contains__(self, uri: str) -> bool:
        return uri in self._descriptors

    def languages(self, family: str | None = None) -> list[LanguageDescriptor]:
        """All registered languages, optionally restricted to one family."""
        out = list(self._descriptors.values())
        if family is not None:
            out = [descriptor for descriptor in out
                   if descriptor.family == family]
        return out

    # -- ontology export (Fig. 1: languages are Semantic-Web resources) -------

    def to_rdf(self) -> Graph:
        """Describe all registered languages as an RDF graph."""
        graph = Graph()
        graph.bind("eca", str(ECA_ONTOLOGY))
        family_class = {
            "event": ECA_ONTOLOGY.EventLanguage,
            "query": ECA_ONTOLOGY.QueryLanguage,
            "test": ECA_ONTOLOGY.TestLanguage,
            "action": ECA_ONTOLOGY.ActionLanguage,
        }
        for descriptor in self._descriptors.values():
            subject = URIRef(descriptor.uri)
            graph.add(subject, RDF.type, family_class[descriptor.family])
            graph.add(subject, ECA_ONTOLOGY.name, Literal(descriptor.name))
            graph.add(subject, ECA_ONTOLOGY.frameworkAware,
                      Literal.from_python(descriptor.framework_aware))
            for replica in descriptor.replicas:
                graph.add(subject, ECA_ONTOLOGY.implementedBy,
                          URIRef(replica))
        return graph
