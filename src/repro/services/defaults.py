"""A standard deployment: every built-in service wired behind one GRH.

This is the "variety of such engines, including sample domain services"
the paper's conclusion mentions, assembled in one call: three event
languages, four query languages (two functional — one aware, one unaware
— and two LP-style: SPARQL, answering under both of its URIs, and
Datalog), the test language and the action language, all reachable only
through the Generic Request Handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..actions import ACTION_NS, ActionRuntime
from ..conditions import TEST_NS
from ..events import ATOMIC_NS, EventStream, SNOOP_NS, XCHANGE_NS
from ..grh import (GenericRequestHandler, LanguageDescriptor,
                   LanguageRegistry, ResilienceManager)
from ..rdf import Graph
from ..sparql import RDF_SPARQL_LANG, SparqlQueryService, TripleStore
from ..xmlmodel import Element
from .action_service import ActionExecutionService
from .event_service import (AtomicEventService, SnoopService, XChangeService)
from .query_services import (DATALOG_LANG, DatalogService, EXIST_LANG,
                             ExistLikeService, SPARQL_LANG, XQ_LANG,
                             XQService)
from .test_service import TestLanguageService
from .transports import InProcessTransport

__all__ = ["Deployment", "standard_deployment"]


@dataclass
class Deployment:
    """All moving parts of a wired framework instance."""

    registry: LanguageRegistry
    transport: InProcessTransport
    grh: GenericRequestHandler
    stream: EventStream
    runtime: ActionRuntime
    atomic_events: AtomicEventService
    snoop: SnoopService
    xchange: XChangeService
    xq: XQService
    exist: ExistLikeService
    sparql: SparqlQueryService
    datalog: DatalogService
    tests: TestLanguageService
    actions: ActionExecutionService

    def add_document(self, name: str, root: Element) -> None:
        """Publish an XML document to both XML query services and the
        action runtime (one shared mutable world)."""
        self.xq.add_document(name, root)
        self.exist.add_document(name, root)
        self.runtime.register_document(name, root)

    def tick(self, delta: float = 1.0) -> None:
        """Advance the stream clock and drive time-based event operators
        (``snoop:periodic``) without emitting a domain event."""
        self.stream.advance(delta)
        now = self.stream.now
        self.snoop.poll(now)
        self.xchange.poll(now)
        self.atomic_events.poll(now)


def standard_deployment(serialize_messages: bool = True,
                        graph: Graph | None = None,
                        datalog_program: str = "",
                        resilience: ResilienceManager | None = None
                        ) -> Deployment:
    """Wire the full service landscape over an in-process transport.

    ``serialize_messages=True`` (default) round-trips every message
    through markup, making the in-process broker byte-equivalent to the
    HTTP transport.  ``resilience`` configures retry policies, circuit
    breakers and the dead letter queue of the GRH.
    """
    registry = LanguageRegistry()
    transport = InProcessTransport(serialize_messages=serialize_messages)
    grh = GenericRequestHandler(registry, transport, resilience=resilience)
    stream = EventStream()
    runtime = ActionRuntime(event_stream=stream)

    atomic_events = AtomicEventService(grh.notify)
    snoop = SnoopService(grh.notify)
    xchange = XChangeService(grh.notify)
    for service in (atomic_events, snoop, xchange):
        service.attach(stream)

    xq = XQService()
    exist = ExistLikeService()
    # one shared RDF world: the SPARQL service and the action runtime
    # mutate/query the same object — a plain Graph is upgraded in place
    # (identity preserved, so caller-held references stay live); a
    # TripleStore passes through; an exotic Graph subclass is copied as
    # a last resort (its mutations would then not reach the service)
    if graph is None:
        store = TripleStore()
    elif isinstance(graph, TripleStore):
        store = graph
    elif type(graph) is Graph:
        store = TripleStore.adopt(graph)
    else:
        store = TripleStore.from_graph(graph)
    sparql = SparqlQueryService(store)
    datalog = DatalogService(datalog_program)
    tests = TestLanguageService()
    actions = ActionExecutionService(runtime)

    grh.add_service(LanguageDescriptor(ATOMIC_NS, "event",
                                       "atomic-events"), atomic_events)
    grh.add_service(LanguageDescriptor(SNOOP_NS, "event", "snoop"), snoop)
    grh.add_service(LanguageDescriptor(XCHANGE_NS, "event", "xchange"),
                    xchange)
    grh.add_service(LanguageDescriptor(XQ_LANG, "query", "xquery-lite"), xq)
    grh.add_service(LanguageDescriptor(EXIST_LANG, "query", "exist-like",
                                       framework_aware=False), exist)
    # one language, one service, two URIs: …/sparql-lite is the alias
    grh.add_service(LanguageDescriptor(SPARQL_LANG, "query", "sparql-lite"),
                    sparql)
    grh.add_service(LanguageDescriptor(RDF_SPARQL_LANG, "query",
                                       "rdf-sparql"), sparql)
    grh.add_service(LanguageDescriptor(DATALOG_LANG, "query", "datalog"),
                    datalog)
    grh.add_service(LanguageDescriptor(TEST_NS, "test", "test"), tests)
    grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                    actions)

    return Deployment(registry, transport, grh, stream, runtime,
                      atomic_events, snoop, xchange, xq, exist, sparql,
                      datalog, tests, actions)
