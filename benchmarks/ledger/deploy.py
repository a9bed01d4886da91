"""Turn a generated world into a running deployment of the program.

Each ``build_*`` function wires the program the way its workload needs
it — through public constructors only — loads the world's data,
registers the rules and returns a :class:`Rig`.  With a tracer, every
collaborator the constructors accept is handed over wrapped (see
``tracing.py``); without one the program runs bare.

The in-process rigs use the same wiring as ``standard_deployment()``
(one ``InProcessTransport(serialize_messages=True)`` behind the GRH);
they are built here instead because ``standard_deployment()`` creates
its own action runtime and transport, and the ledger must own both: the
sink that stamps effects, and the transport it may wrap.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.actions import ACTION_NS, ActionRuntime
from repro.conditions import TEST_NS
from repro.core import ECAEngine
from repro.durability import DurabilityManager, JOURNAL_NAME, Journal
from repro.events import ATOMIC_NS, EventStream, SNOOP_NS
from repro.grh import (GenericRequestHandler, LanguageDescriptor,
                       LanguageRegistry)
from repro.rdf import Literal, URIRef, XSD
from repro.runtime import Runtime
from repro.services import (ActionExecutionService, AtomicEventService,
                            DATALOG_LANG, DatalogService, EXIST_LANG,
                            ExistLikeService, HttpServiceServer,
                            HybridTransport, InProcessTransport,
                            SnoopService, TestLanguageService, XQ_LANG,
                            XQService)
from repro.sparql import RDF_SPARQL_LANG, SparqlQueryService, TripleStore
from repro.xmlmodel import E, ECA_NS, Element, QName

import generators
from tracing import GrhProxy, ServiceProxy, Tracer, TransportProxy

TRAVEL_NS = "http://www.semwebtech.org/domains/2006/travel"
FLEET_NS = generators.FLEET_NS
CITY_PREFIX = "urn:city:"
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

_HEAD = (f'xmlns:eca="{ECA_NS}" xmlns:travel="{TRAVEL_NS}" '
         f'xmlns:act="{ACTION_NS}"')


def payload_of(event: generators.Event) -> Element:
    """The domain markup of a generated event."""
    return Element(QName(TRAVEL_NS, event.tag),
                   {QName(None, name): value for name, value in event.attrs},
                   nsdecls={"travel": TRAVEL_NS})


class SinkRuntime(ActionRuntime):
    """The benchmark-owned end of every reaction: stamps the arrival of
    each message by the event id it carries (the last effect wins)."""

    def __init__(self, event_stream=None) -> None:
        super().__init__(event_stream)
        self.stamps: dict[str, float] = {}

    def send(self, recipient, content):
        message = super().send(recipient, content)
        self.stamps[content.get("id")] = time.perf_counter()
        return message


class TimingJournal(Journal):
    """A journal that records a span per append/commit and counts the
    bytes and fsyncs the durability layer costs."""

    def __init__(self, path: str, sync: str, tracer: Tracer) -> None:
        self._begin, self._end = tracer.begin, tracer.end
        self._counts = tracer.counts
        super().__init__(path, sync=sync)
        self.on_fsync = self._fsynced

    def _fsynced(self, _seconds: float) -> None:
        self._counts["durability.fsyncs"] += 1

    def append_encoded(self, payload_text: str) -> None:
        frame = self._begin("durability.append")
        try:
            super().append_encoded(payload_text)
        finally:
            self._end(frame)
        self._counts["durability.journal_bytes"] += len(payload_text) + 8

    def commit(self) -> None:
        frame = self._begin("durability.commit")
        try:
            super().commit()
        finally:
            self._end(frame)


@dataclass
class Rig:
    """One running deployment plus what the harness reads from it."""

    engine: ECAEngine
    grh: GenericRequestHandler
    stream: EventStream
    sink: SinkRuntime
    transport: object
    rules: int
    register_seconds: float
    event_services: list = field(default_factory=list)
    servers: list = field(default_factory=list)
    exist: ExistLikeService | None = None
    sparql: SparqlQueryService | None = None
    store: TripleStore | None = None
    durability: DurabilityManager | None = None
    runtime: Runtime | None = None
    observability: object = None
    directory: str | None = None
    checkpoint_seconds: list = field(default_factory=list)
    #: ``time.monotonic()`` just before the engine (and with it the
    #: worker runtime) started: the origin of ``runtime.utilization()``
    attached_at: float = 0.0
    #: stream time of the next event; composite detectors need events
    #: to be strictly ordered in time
    clock: float = 1.0

    def emit(self, payload: Element) -> None:
        self.stream.emit(payload, at=self.clock)
        self.clock += 1.0

    def clear_histories(self) -> None:
        """Empty the lists the program only ever appends to, so every
        block starts from the same heap."""
        self.stream.history.clear()
        self.sink.mailboxes.clear()
        self.sink.trace.clear()
        self.sink.stamps.clear()
        if self.exist is not None:
            self.exist.request_log.clear()

    def close(self) -> None:
        try:
            self.engine.shutdown(30)
        finally:
            for server in self.servers:
                server.stop()
            if self.observability is not None:
                self.observability.close()
            if self.durability is not None:
                self.durability.close()
            if self.directory is not None:
                shutil.rmtree(self.directory, ignore_errors=True)


class _Wiring:
    """The shared skeleton: registry, transport, GRH, stream, sink."""

    def __init__(self, transport, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.transport = transport
        self.grh = GenericRequestHandler(
            LanguageRegistry(),
            TransportProxy(transport, tracer) if tracer else transport)
        self.stream = EventStream()
        self.sink = SinkRuntime(event_stream=self.stream)
        self.servers: list[HttpServiceServer] = []
        self.event_services: list = []

    def _traced(self, service, span: str):
        return ServiceProxy(service, self.tracer, span) if self.tracer \
            else service

    def local(self, descriptor: LanguageDescriptor, service, span: str):
        self.grh.add_service(descriptor, self._traced(service, span))
        return service

    def remote(self, descriptor: LanguageDescriptor, service, span: str):
        server = HttpServiceServer(
            aware_handler=self._traced(service, span).handle)
        self.servers.append(server)
        self.grh.add_remote_language(descriptor, server.start())
        return service

    def events(self, service_class, descriptor: LanguageDescriptor):
        tracer = self.tracer
        notify = tracer.wrap("core.notify", self.grh.notify) if tracer \
            else self.grh.notify
        service = service_class(notify)
        self.stream.subscribe(tracer.wrap("events.feed", service.feed)
                              if tracer else service.feed)
        self.event_services.append(service)
        return self.local(descriptor, service, "events.register")

    def rig(self, rules: list[str], **options) -> Rig:
        """Create the engine, register *rules*, hand over the rig."""
        engine_options = {key: options.pop(key) for key in
                          ("durability", "runtime", "observability",
                           "evaluate_tests_locally") if key in options}
        attached_at = time.monotonic()
        engine = ECAEngine(
            GrhProxy(self.grh, self.tracer) if self.tracer else self.grh,
            keep_instances=False, **engine_options)
        started = time.perf_counter()
        for rule in rules:
            engine.register_rule(rule)
        return Rig(engine, self.grh, self.stream, self.sink, self.transport,
                   len(rules), time.perf_counter() - started,
                   event_services=self.event_services, servers=self.servers,
                   durability=engine_options.get("durability"),
                   runtime=engine_options.get("runtime"),
                   observability=engine_options.get("observability"),
                   attached_at=attached_at, **options)


def _in_process(tracer: Tracer | None) -> _Wiring:
    wiring = _Wiring(InProcessTransport(serialize_messages=True), tracer)
    wiring.events(AtomicEventService,
                  LanguageDescriptor(ATOMIC_NS, "event", "atomic-events"))
    wiring.local(LanguageDescriptor(ACTION_NS, "action", "actions"),
                 ActionExecutionService(wiring.sink), "svc.actions")
    return wiring


# -- fig4_inproc -------------------------------------------------------------

FIG4_RULE = f"""
<eca:rule {_HEAD} id="fig4">
  <eca:event>
    <travel:booking person="{{Person}}" to="{{To}}" id="{{Id}}"/>
  </eca:event>
  <eca:variable name="OwnCar">
    <eca:query>
      <xq:xquery xmlns:xq="{XQ_LANG}">
        for $c in doc('persons.xml')//person[@name = $Person]/car
        return $c/model/text()
      </xq:xquery>
    </eca:query>
  </eca:variable>
  <eca:variable name="Class">
    <eca:query>
      <eca:opaque language="exist-like">
        doc('classes.xml')//entry[@model = '{{OwnCar}}']/@class
      </eca:opaque>
    </eca:query>
  </eca:variable>
  <eca:variable name="Avail">
    <eca:query>
      <eca:opaque language="exist-like">
        doc('fleet.xml')//car[@location = '{{To}}'][@class = '{{Class}}']/@model
      </eca:opaque>
    </eca:query>
  </eca:variable>
  <eca:action>
    <act:send to="offers">
      <offer id="{{Id}}" person="{{Person}}" car="{{Avail}}"/>
    </act:send>
  </eca:action>
</eca:rule>
"""


def _fig4_documents(world: generators.Fig4World) -> dict[str, Element]:
    persons = E("persons")
    for name, home, models in world.persons:
        person = E("person", {"name": name, "home": home})
        for model in models:
            car = E("car")
            car.append(E("model", None, model))
            person.append(car)
        persons.append(person)
    classes = E("classes")
    for model, klass in world.classes:
        classes.append(E("entry", {"model": model, "class": klass}))
    fleet = E("fleet")
    for car_id, model, klass, city in world.fleet:
        fleet.append(E("car", {"id": car_id, "model": model, "class": klass,
                               "location": city}))
    return {"persons.xml": persons, "classes.xml": classes,
            "fleet.xml": fleet}


def build_fig4(world: generators.Fig4World, tracer: Tracer | None = None,
               observability=None) -> Rig:
    """The paper's running example (Fig. 4) over one in-process GRH."""
    wiring = _in_process(tracer)
    documents = _fig4_documents(world)
    wiring.local(LanguageDescriptor(XQ_LANG, "query", "xquery-lite"),
                 XQService(documents), "svc.xq")
    exist = wiring.local(
        LanguageDescriptor(EXIST_LANG, "query", "exist-like",
                           framework_aware=False),
        ExistLikeService(documents), "svc.exist")
    return wiring.rig([FIG4_RULE], exist=exist, observability=observability)


# -- fanout_inproc -----------------------------------------------------------

def _fanout_rule(rule_id: str, city: str) -> str:
    return f"""
    <eca:rule {_HEAD} id="{rule_id}">
      <eca:event>
        <travel:booking person="{{Person}}" to="{city}" id="{{Id}}"/>
      </eca:event>
      <eca:action>
        <act:send to="sink">
          <seen id="{{Id}}" rule="{rule_id}" person="{{Person}}"/>
        </act:send>
      </eca:action>
    </eca:rule>
    """


def build_fanout(world: generators.FanoutWorld,
                 tracer: Tracer | None = None) -> Rig:
    """Thousands of E→A rules, a handful of which match each event."""
    wiring = _in_process(tracer)
    return wiring.rig([_fanout_rule(rule_id, city)
                       for rule_id, city in world.rules])


# -- hetero_semweb -----------------------------------------------------------

HETERO_RULE = f"""
<eca:rule {_HEAD} id="hetero">
  <eca:event>
    <snoop:seq xmlns:snoop="{SNOOP_NS}" context="chronicle">
      <travel:booking person="{{Person}}" to="{{To}}" class="{{Class}}"/>
      <travel:payment person="{{Person}}" id="{{Id}}"/>
    </snoop:seq>
  </eca:event>
  <eca:query>
    <sp:select xmlns:sp="{RDF_SPARQL_LANG}">
      SELECT ?P ?Here ?Car ?Mileage WHERE {{
        ?P fleet:name ?Person .
        ?P fleet:at ?Here .
        ?Depot fleet:cityName ?To .
        ?Car fleet:depot ?Depot .
        ?Car fleet:carClass ?Class .
        ?Car fleet:mileage ?Mileage .
        FILTER(?Mileage &lt; {{BELOW}})
      }}
    </sp:select>
  </eca:query>
  <eca:test>$Mileage >= {{AT_LEAST}}</eca:test>
  <eca:action>
    <act:sequence>
      <act:retract graph="fleet" s="{{P}}" p="{FLEET_NS}at" o="{{Here}}"/>
      <act:assert graph="fleet" s="{{P}}" p="{FLEET_NS}at"
                  o="{CITY_PREFIX}{{To}}"/>
      <act:send to="moves">
        <moved id="{{Id}}" person="{{Person}}" car="{{Car}}" to="{{To}}"/>
      </act:send>
    </act:sequence>
  </eca:action>
</eca:rule>
"""


def _fleet(name: str) -> URIRef:
    return URIRef(FLEET_NS + name)


def hetero_store(world: generators.HeteroWorld) -> TripleStore:
    store = TripleStore()
    name, at, city_name = _fleet("name"), _fleet("at"), _fleet("cityName")
    depot, car_class = _fleet("depot"), _fleet("carClass")
    mileage, model, kind = _fleet("mileage"), _fleet("model"), _fleet("kind")
    rental = _fleet("RentalCar")
    depots = [_fleet(f"d{index}") for index in range(len(world.depots))]
    for node, city in zip(depots, world.depots):
        store.add(node, city_name, Literal(city))
    classes = {klass: Literal(klass) for klass in generators.CLASS_NAMES}
    models = [Literal(text) for text in generators.MODELS]
    for index, (depot_index, klass, miles) in enumerate(world.cars):
        node = _fleet(f"c{index}")
        store.add(node, kind, rental)
        store.add(node, depot, depots[depot_index])
        store.add(node, car_class, classes[klass])
        store.add(node, mileage, Literal(str(miles), datatype=XSD.integer))
        store.add(node, model, models[index % len(models)])
    for person, city in world.persons:
        node = _fleet(person)
        store.add(node, name, Literal(person))
        store.add(node, at, URIRef(CITY_PREFIX + city))
    return store


def build_hetero(world: generators.HeteroWorld,
                 tracer: Tracer | None = None) -> Rig:
    """One rule in five languages over a store it both reads and writes."""
    wiring = _in_process(tracer)
    wiring.events(SnoopService, LanguageDescriptor(SNOOP_NS, "event",
                                                   "snoop"))
    store = hetero_store(world)
    wiring.sink.register_graph("fleet", store)
    sparql = wiring.local(
        LanguageDescriptor(RDF_SPARQL_LANG, "query", "rdf-sparql"),
        SparqlQueryService(store, {"fleet": FLEET_NS}), "svc.sparql")
    wiring.local(LanguageDescriptor(TEST_NS, "test", "test"),
                 TestLanguageService(), "svc.test")
    rule = (HETERO_RULE
            .replace("{BELOW}", str(world.mileage_below))
            .replace("{AT_LEAST}", str(world.mileage_at_least)))
    return wiring.rig([rule], sparql=sparql, store=store)


# -- distributed_http --------------------------------------------------------

DISTRIBUTED_RULE = f"""
<eca:rule {_HEAD} id="distributed">
  <eca:event>
    <travel:booking person="{{Person}}" to="{{To}}" id="{{Id}}"/>
  </eca:event>
  <eca:query>
    <dl:query xmlns:dl="{DATALOG_LANG}">entitled("{{Person}}", Tier, Perk)</dl:query>
  </eca:query>
  <eca:test>$Tier != 'basic'</eca:test>
  <eca:action>
    <act:send to="perks">
      <grant id="{{Id}}" person="{{Person}}" perk="{{Perk}}"/>
    </act:send>
  </eca:action>
</eca:rule>
"""


def _datalog_program(world: generators.DistributedWorld) -> str:
    lines = [f'tier("{person}", "{tier}").' for person, tier in world.persons]
    lines += [f'perk("{tier}", "{perk}").'
              for tier, perks in generators.PERKS.items() for perk in perks]
    lines.append("entitled(P, T, K) :- tier(P, T), perk(T, K).")
    return "\n".join(lines)


def build_distributed(world: generators.DistributedWorld,
                      tracer: Tracer | None = None, workers: int = 2) -> Rig:
    """Every non-event service behind localhost HTTP, durable engine,
    worker runtime (``workers=0``: the synchronous engine, same job)."""
    wiring = _Wiring(HybridTransport(max_per_endpoint=2), tracer)
    wiring.events(AtomicEventService,
                  LanguageDescriptor(ATOMIC_NS, "event", "atomic-events"))
    wiring.remote(LanguageDescriptor(DATALOG_LANG, "query", "datalog"),
                  DatalogService(_datalog_program(world)), "svc.datalog")
    wiring.remote(LanguageDescriptor(TEST_NS, "test", "test"),
                  TestLanguageService(), "svc.test")
    wiring.remote(LanguageDescriptor(ACTION_NS, "action", "actions"),
                  ActionExecutionService(wiring.sink), "svc.actions")
    os.makedirs(OUT_DIR, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="durable-", dir=OUT_DIR)
    journal = TimingJournal(os.path.join(directory, JOURNAL_NAME), "commit",
                            tracer) if tracer else None
    # a block writes more journal records than the checkpoint interval,
    # so with the worker runtime (which compacts only when it drains)
    # every block ends in exactly one checkpoint; a short completed-id
    # memory keeps that checkpoint the same size from the first block
    # to the last
    durability = DurabilityManager(directory, sync="commit",
                                   checkpoint_interval=256,
                                   max_remembered_detections=256,
                                   journal=journal)
    checkpoint_seconds: list[float] = []
    durability.checkpoint_observer = checkpoint_seconds.append
    runtime = Runtime(workers=workers, inflight=1, queue_capacity=256,
                      backpressure="block") if workers else None
    try:
        return wiring.rig([DISTRIBUTED_RULE], durability=durability,
                          runtime=runtime, evaluate_tests_locally=False,
                          directory=directory,
                          checkpoint_seconds=checkpoint_seconds)
    except BaseException:
        for server in wiring.servers:
            server.stop()
        durability.close()
        shutil.rmtree(directory, ignore_errors=True)
        raise
