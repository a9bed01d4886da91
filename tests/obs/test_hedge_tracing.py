"""Where concurrent dispatch meets tracing: one trace, handed over once.

A hedged read runs its branches on executor threads with the GRH
request span bound onto them.  Here the primary replica sits behind a
``ChaosTransport`` latency spike, so the hedge wins, the rule instance
completes and its trace is handed to the exporters — and only then does
the losing branch's service finish.  Its record must arrive on its own,
as a rootless fragment: not lost, and not appended to the list the
exporters already hold.  Waits both branches added to the request span
while it was open must sum exactly.
"""

import time

from repro.actions import ACTION_NS, ActionRuntime
from repro.chaos import ChaosTransport, FaultPlan
from repro.core import ECAEngine
from repro.domain import TRAVEL_NS, booking_event
from repro.events import ATOMIC_NS, EventStream
from repro.grh import (GenericRequestHandler, HedgePolicy,
                       LanguageDescriptor, LanguageRegistry,
                       ResilienceManager)
from repro.obs import Observability, expand, record_wait
from repro.obs.ops import TailSampler
from repro.services import (ActionExecutionService, AtomicEventService,
                            DATALOG_LANG, DatalogService,
                            InProcessTransport)
from repro.xmlmodel import ECA_NS

RULE = f"""
<eca:rule xmlns:eca="{ECA_NS}" id="offers">
  <eca:event>
    <travel:booking xmlns:travel="{TRAVEL_NS}"
                    person="{{Person}}" to="{{To}}"/>
  </eca:event>
  <eca:query>
    <dl:query xmlns:dl="{DATALOG_LANG}">owned_class("{{Person}}", Class)</dl:query>
  </eca:query>
  <eca:action>
    <act:send xmlns:act="{ACTION_NS}" to="offers"><offer class="{{Class}}"/></act:send>
  </eca:action>
</eca:rule>
"""

PROGRAM = """
    owns("John Doe", "Golf"). class("Golf", "B").
    owned_class(P, K) :- owns(P, C), class(C, K).
"""

#: what every dispatch books as pool wait before it is sent
POOL_WAIT = 0.25
#: the primary replica's latency spike; the hedge fires after 50 ms
SPIKE = 0.4


class ReplicaTransport:
    """Sends to the two Datalog replicas through the chaos transport and
    to everything else directly, booking a fixed pool wait on the open
    request span per replica send."""

    def __init__(self, inner, chaos):
        self.inner = inner
        self.chaos = chaos

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def send(self, address, message, timeout=None):
        if not address.startswith("svc:dl-"):
            return self.inner.send(address, message, timeout=timeout)
        record_wait("pool_wait", POOL_WAIT)
        return self.chaos.send(address, message, timeout=timeout)


class Recorder:
    """Keeps every handed-over list and its length when handed over."""

    def __init__(self):
        self.handed = []

    def export(self, spans):
        self.handed.append((spans, len(spans)))


def spiked_plan():
    """A seeded plan and two replica names under it: the first request
    to ``slow`` meets the spike, the first to ``fast`` passes."""
    plan = FaultPlan(7, latency_rate=0.5, latency_range=(SPIKE, SPIKE))
    names = [f"r{index}" for index in range(16)]
    slow = next(name for name in names if plan.decision(name, 0))
    fast = next(name for name in names if plan.decision(name, 0) is None)
    return plan, slow, fast


def build():
    plan, slow, fast = spiked_plan()
    inner = InProcessTransport()
    chaos = ChaosTransport(inner, plan,
                           alias={"svc:dl-a": slow, "svc:dl-b": fast})
    grh = GenericRequestHandler(
        LanguageRegistry(), ReplicaTransport(inner, chaos),
        resilience=ResilienceManager(hedge=HedgePolicy(delay=0.05)))
    stream = EventStream()
    atomic = AtomicEventService(grh.notify)
    atomic.attach(stream)
    grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic-events"),
                    atomic)
    grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                    ActionExecutionService(ActionRuntime(event_stream=stream)))
    datalog = DatalogService(PROGRAM)
    grh.add_service(LanguageDescriptor(DATALOG_LANG, "query", "datalog"),
                    datalog)
    for address in ("svc:dl-a", "svc:dl-b"):
        inner.bind(address, datalog.handle)
    grh.set_replicas(DATALOG_LANG, ("svc:dl-a", "svc:dl-b"))
    tail = TailSampler(probability=1.0)
    obs = Observability(tail=tail, critical=True)
    recorder = Recorder()
    obs.tracer.add_exporter(recorder)
    engine = ECAEngine(grh, observability=obs)
    engine.register_rule(RULE)
    return engine, obs, stream, tail, recorder


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestHedgedTrace:
    def test_loser_record_arrives_alone_after_the_trace(self):
        engine, obs, stream, tail, recorder = build()
        resilience = engine.grh.resilience
        try:
            stream.emit(booking_event())
            instance = engine.instances[-1]
            assert instance.status == "completed"
            assert resilience.hedge_outcomes["hedge_won"] == 1
            assert wait_for(
                lambda: resilience.hedge_outcomes["discarded"] == 1)

            rule_trace = obs.trace_of_instance(instance.instance_id)
            trace_id = rule_trace[0].trace_id
            # the winner's trace: handed over once, to every exporter
            booking = [(spans, size) for spans, size in recorder.handed
                       if spans[-1].trace_id == trace_id
                       and spans[-1].parent_id is None]
            assert len(booking) == 1
            spans, size = booking[0]
            assert spans[-1].name == "rule"
            assert len(spans) == size, \
                "a late span was appended to a handed-over trace"
            assert tail.kept == 2          # registration + booking
            assert obs.critical.instances == 1
            assert [span.name for span in obs.ring.spans()].count(
                "rule") == 1

            (request,) = [span for span in spans
                          if span.name == "grh.request"
                          and span.attributes["kind"] == "query"]
            assert request.attributes["hedge_wait"] > 0.0
            # both branches booked their pool wait while it was open
            assert request.attributes["pool_wait"] == 2 * POOL_WAIT
            handed = expand(spans)
            winner = [span for span in handed
                      if span.parent_id == request.span_id]
            assert [span.name for span in winner] == ["service:query"]

            # the loser: one rootless fragment, to every exporter
            fragments = [spans for spans, _ in recorder.handed
                         if spans[-1].parent_id is not None]
            assert len(fragments) == 1
            (loser,) = fragments[0]
            assert loser.name == "service:query" and loser.remote
            assert loser.trace_id == trace_id
            assert loser.parent_id == request.span_id
            assert loser.duration >= 0.0
            assert tail.fragments == 1
            assert obs.critical.evicted == 1
            assert loser in obs.ring.spans()
            assert loser.span_id not in {span.span_id for span in handed}
            # the ring shows both: the trace, then the late fragment
            assert [span.name for span in rule_trace].count(
                "service:query") == 2
        finally:
            engine.shutdown()

