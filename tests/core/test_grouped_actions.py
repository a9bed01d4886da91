"""Seams of grouped action dispatch (PROTOCOL.md §7).

One ``ping`` completes three (or four) rules at once: the detections
reach the engine as one group, every instance runs its query on its
own, and the instances' actions leave as one ``log:batch`` per
language.  Each test below pins one rule of that contract where it
meets another subsystem: a slot's ``log:error``, the retry policy,
replica failover, the journal's kill-points and the tracer.
"""

import re

import pytest

from repro.bindings import Relation
from repro.core import ECAEngine
from repro.durability import DurabilityManager, SimulatedCrash
from repro.events import ATOMIC_NS, EventStream
from repro.grh import (GenericRequestHandler, LanguageDescriptor,
                       LanguageRegistry, RetryPolicy)
from repro.obs import Observability
from repro.services import (AtomicEventService, HttpServiceServer,
                            HybridTransport, InProcessTransport)
from repro.services.base import LanguageService, ServiceError
from repro.xmlmodel import E, ECA_NS

ECA = f'xmlns:eca="{ECA_NS}"'
THREE = "urn:test:three"
EFFECTS = "urn:test:effects"


class Three(LanguageService):
    """A query language whose every answer is the same three tuples."""

    service_name = "three"

    def query(self, request):
        return Relation([{"N": n} for n in ("1", "2", "3")])


class Effects(LanguageService):
    """An action language that records ``(component, N)`` per executed
    tuple and refuses the pairs in ``refuse``."""

    service_name = "effects"

    def __init__(self):
        self.done = []
        self.refuse = set()

    def action(self, request, binding):
        if (request.component_id, binding["N"]) in self.refuse:
            raise ServiceError("refused")
        self.done.append((request.component_id, binding["N"]))


def rule(rule_id):
    return f"""
    <eca:rule {ECA} id="{rule_id}">
      <eca:event><ping id="{{Id}}"/></eca:event>
      <eca:query><eca:opaque language="{THREE}">all</eca:opaque></eca:query>
      <eca:action>
        <eca:opaque language="{EFFECTS}">{rule_id}</eca:opaque>
      </eca:action>
    </eca:rule>
    """


class World:
    """An in-process engine over the two test languages; ``wrap``
    builds the handler bound at each action replica address."""

    def __init__(self, rules=("r1", "r2", "r3"), durability=None,
                 replicas=1, retry=None, wrap=None, observability=None):
        self.transport = InProcessTransport(serialize_messages=True)
        self.grh = GenericRequestHandler(LanguageRegistry(), self.transport)
        self.stream = EventStream()
        atomic = AtomicEventService(self.grh.notify, incarnation="")
        atomic.attach(self.stream)
        self.grh.add_service(
            LanguageDescriptor(ATOMIC_NS, "event", "atomic-events"), atomic)
        self.grh.add_service(LanguageDescriptor(THREE, "query", "three"),
                             Three())
        self.effects = Effects()
        addresses = tuple(f"svc:effects-{index}" for index in range(replicas))
        for index, address in enumerate(addresses):
            handler = self.effects.handle
            self.transport.bind(address, wrap(index, handler) if wrap
                                else handler)
        self.grh.add_remote_language(LanguageDescriptor(
            EFFECTS, "action", "effects", replicas=addresses, retry=retry))
        self.engine = ECAEngine(self.grh, durability=durability,
                                observability=observability)
        for rule_id in rules:
            self.engine.register_rule(rule(rule_id))

    def ping(self, event_id="e1"):
        self.stream.emit(E("ping", {"id": event_id}))

    def close(self):
        self.engine.shutdown()
        if self.engine.durability is not None:
            self.engine.durability.close()


@pytest.fixture
def build():
    """``World(...)``, closed when the test ends."""
    made = []

    def make(**options):
        made.append(World(**options))
        return made[-1]

    yield make
    for world in made:
        world.close()


def test_a_slots_error_fails_only_its_own_instance(build, tmp_path):
    world = build(durability=DurabilityManager(str(tmp_path), sync="none"))
    world.effects.refuse.add(("r2::action-0", "2"))
    requests = world.grh.request_count
    world.ping()
    # three queries, then the three actions in one envelope
    assert world.grh.request_count - requests == 4
    by_rule = {i.rule_id: i for i in world.engine.instances}
    assert [by_rule[r].status for r in ("r1", "r2", "r3")] \
        == ["completed", "failed", "completed"]
    assert [by_rule[r].actions_executed for r in ("r1", "r2", "r3")] \
        == [3, 1, 3]
    assert sorted(world.effects.done) == sorted(
        [("r1::action-0", n) for n in "123"] + [("r2::action-0", "1")]
        + [("r3::action-0", n) for n in "123"])
    (letter,) = list(world.grh.resilience.dead_letters)
    assert letter.component_id == "r2::action-0"
    assert [b["N"] for b in letter.bindings] == ["2", "3"]
    instance_id = by_rule["r2"].instance_id
    assert len(letter.dedups) == 2 and all(
        key.startswith(f"{instance_id}:0:") for key in letter.dedups)
    stats = world.engine.stats
    assert (stats["completed"], stats["failed"], stats["actions"]) == (2, 1, 7)

    world.effects.refuse.clear()
    world.effects.done.clear()
    summary = world.engine.replay_dead_letters()
    assert summary == {"replayed": 1, "succeeded": 1, "failed": 0,
                       "deferred": 0, "actions": 2}
    assert world.effects.done == [("r2::action-0", "2"),
                                  ("r2::action-0", "3")]


def test_unkeyed_envelope_is_retried_never_failed_over_and_parked(build):
    calls = []

    def wrap(index, handler):
        def crashed(message):
            calls.append(index)
            raise ConnectionResetError("connection reset by peer")
        return crashed

    world = build(replicas=2, wrap=wrap,
                  retry=RetryPolicy(max_attempts=3, base_delay=0.0))
    world.ping()
    resilience = world.grh.resilience
    # one envelope, three passes of the retry policy, never a failover
    assert len(calls) == 3 and resilience.failovers == 0
    assert resilience.retries == 2
    assert {i.status for i in world.engine.instances} == {"failed"}
    assert all(i.actions_executed == 0 for i in world.engine.instances)
    letters = list(resilience.dead_letters)
    assert sorted(letter.component_id for letter in letters) \
        == ["r1::action-0", "r2::action-0", "r3::action-0"]
    assert all(len(letter.bindings) == 3 and letter.dedups is None
               for letter in letters)
    assert world.engine.stats["actions"] == 0


def test_keyed_envelope_fails_over_and_effects_happen_once(build, tmp_path):
    lost = []

    def wrap(index, handler):
        # whichever replica takes the first envelope runs its first two
        # slots and dies before answering
        def lossy(message):
            response = handler(message)
            if not lost and message.get("id") == "r2::action-0":
                lost.append(index)
                raise ConnectionResetError("answer lost")
            return response
        return lossy

    world = build(durability=DurabilityManager(str(tmp_path), sync="none"),
                  replicas=2, wrap=wrap)
    world.ping()
    assert lost and world.grh.resilience.failovers == 1
    assert sorted(world.effects.done) == sorted(
        (f"{r}::action-0", n) for r in ("r1", "r2", "r3") for n in "123")
    assert {i.status for i in world.engine.instances} == {"completed"}
    assert world.engine.stats["actions"] == 9
    assert not list(world.grh.resilience.dead_letters)


def test_kill_between_intents_and_answer_recovers_each_effect_once(tmp_path):
    directory = str(tmp_path)
    world = World(durability=DurabilityManager(directory, sync="none"))
    real = world.effects.action
    calls = []

    def dies_on_the_fifth_tuple(request, binding):
        calls.append(binding)
        if len(calls) == 5:     # r2's second tuple, inside the envelope
            raise SimulatedCrash("killed while the envelope was out")
        real(request, binding)

    world.effects.action = dies_on_the_fifth_tuple
    with pytest.raises(SimulatedCrash):
        world.ping()
    world.engine.durability.journal.close()
    ran = sorted(world.effects.done)
    assert ran == sorted([("r1::action-0", n) for n in "123"]
                         + [("r2::action-0", "1")])
    # every slot's intent was journaled before the envelope left
    wal = (tmp_path / "wal.log").read_bytes()
    assert wal.count(b'"t":"exec"') == 3

    # a new engine process over the surviving services re-drives the
    # three in-flight detections under their journaled keys
    world.effects.action = real
    survivor = world.effects
    grh = GenericRequestHandler(LanguageRegistry(), world.transport)
    grh.add_service(LanguageDescriptor(THREE, "query", "three"), Three())
    grh.add_remote_language(LanguageDescriptor(
        EFFECTS, "action", "effects", replicas=("svc:effects-0",)))
    atomic = AtomicEventService(grh.notify, incarnation="")
    grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic-events"),
                    atomic)
    engine = ECAEngine.recover(grh, directory, sync="none")
    try:
        assert sorted(survivor.done) == sorted(
            (f"{r}::action-0", n) for r in ("r1", "r2", "r3") for n in "123")
        assert engine.stats["completed"] == 3
        assert not list(grh.resilience.dead_letters)
    finally:
        engine.durability.close()


def test_traced_group_hands_over_one_complete_trace_per_instance(build):
    obs = Observability()
    exported = []

    class Recorder:
        def export(self, spans):
            exported.append(list(spans))

    obs.tracer.add_exporter(Recorder())
    world = build(rules=("r1", "r2", "r3", "r4"), observability=obs)
    before = _request_count(obs, "action")
    exported.clear()
    world.ping()
    instances = {i.instance_id for i in world.engine.instances}
    assert len(instances) == 4
    # one list per instance, each handed over once, root last
    assert len(exported) == 4
    assert len({spans[-1].trace_id for spans in exported}) == 4
    for spans in exported:
        root = spans[-1]
        assert root.name == "rule" and root.parent_id is None
        assert root.attributes["status"] == "completed"
        names = [span.name for span in spans]
        assert names.count("phase:event") == 1
        assert names.count("phase:query") == 1
        assert names.count("phase:action") == 1
        assert all(span.trace_id == root.trace_id for span in spans)
    assert {spans[-1].attributes["instance"] for spans in exported} \
        == instances
    # the envelope is one request span, under the first slot's action
    # phase, holding every slot's service record
    envelopes = [span for spans in exported for span in spans
                 if span.name == "grh.request"
                 and span.attributes.get("kind") == "action"]
    (envelope,) = envelopes
    assert envelope.attributes["slots"] == 4
    parent = next(span for spans in exported for span in spans
                  if span.span_id == envelope.parent_id)
    assert parent.name == "phase:action"
    assert len(envelope.records) == 4
    assert _request_count(obs, "action") - before == 1


def test_envelope_over_http_scopes_errors_and_stitches_each_slot():
    obs = Observability()
    exported = []

    class Recorder:
        def export(self, spans):
            exported.append(list(spans))

    obs.tracer.add_exporter(Recorder())
    effects = Effects()
    effects.refuse.add(("r2::action-0", "2"))
    server = HttpServiceServer(aware_handler=effects.handle)
    grh = GenericRequestHandler(LanguageRegistry(), HybridTransport())
    stream = EventStream()
    atomic = AtomicEventService(grh.notify, incarnation="")
    atomic.attach(stream)
    grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic-events"),
                    atomic)
    grh.add_service(LanguageDescriptor(THREE, "query", "three"), Three())
    grh.add_remote_language(LanguageDescriptor(EFFECTS, "action", "effects"),
                            server.start())
    engine = ECAEngine(grh, observability=obs)
    try:
        for rule_id in ("r1", "r2", "r3"):
            engine.register_rule(rule(rule_id))
        exported.clear()
        stream.emit(E("ping", {"id": "e1"}))
        by_rule = {i.rule_id: i for i in engine.instances}
        assert [by_rule[r].status for r in ("r1", "r2", "r3")] \
            == ["completed", "failed", "completed"]
        assert by_rule["r2"].actions_executed == 1
        assert len(effects.done) == 7
        spans = [span for trace in exported for span in trace]
        (envelope,) = [span for span in spans if span.name == "grh.request"
                       and span.attributes.get("kind") == "action"]
        # each slot's log:result came back annotated with its own
        # server-side span, adopted under the one envelope span
        served = [span for span in spans if span.parent_id
                  == envelope.span_id]
        assert len(served) == 3 and all(span.remote for span in served)
        assert sorted(span.status for span in served) \
            == ["error", "ok", "ok"]
    finally:
        engine.shutdown()
        server.stop()


def _request_count(obs, kind):
    match = re.search(
        rf'^eca_grh_request_latency_seconds_count{{kind="{kind}"}} (\S+)$',
        obs.render_prometheus(), re.M)
    return float(match.group(1)) if match else 0.0
