"""The ``log:batch`` envelope (PROTOCOL.md §10): its codec, the service
side, the transports that carry it, the GRH's timeout scaling, and the
miscounted answer on the action group (§7), its only sender."""

import pytest

from repro.bindings import Relation, relation_to_answers
from repro.core import ECAEngine
from repro.events import ATOMIC_NS, EventStream
from repro.grh import (ActionExecutionError, ActionSlot, ComponentSpec,
                       GenericRequestHandler, GRHError, LanguageDescriptor,
                       LanguageRegistry, ResilienceManager, RetryPolicy,
                       error_message, ok_message)
from repro.grh.messages import (MessageError, Request, batch_results_to_xml,
                                batch_to_xml, is_batch, request_to_xml,
                                xml_to_batch, xml_to_batch_results)
from repro.services import (AtomicEventService, HttpServiceServer,
                            HybridTransport, InProcessTransport,
                            PooledHttpTransport, TransportError)
from repro.services.base import LanguageService
from repro.services.transports import serve
from repro.xmlmodel import E, ECA_NS, parse, serialize


def _request(n: int, kind: str = "query") -> "Request":
    return Request(kind, f"c{n}", None, Relation([{"N": str(n)}]))


def _payloads(count: int):
    return [request_to_xml(_request(n)) for n in range(count)]


class TestBatchCodec:
    def test_roundtrip_through_serialization(self):
        envelope = batch_to_xml(_payloads(3))
        assert is_batch(envelope)
        parsed = parse(serialize(envelope))
        children = xml_to_batch(parsed)
        assert len(children) == 3
        assert [child.get("id") for child in children] == ["c0", "c1", "c2"]

    def test_batch_count_mismatch_rejected(self):
        envelope = batch_to_xml(_payloads(2))
        envelope.attributes[next(iter(envelope.attributes))] = "5"
        with pytest.raises(MessageError):
            xml_to_batch(parse(serialize(envelope)))

    def test_batch_rejects_non_request_children(self):
        envelope = batch_to_xml([ok_message()])
        with pytest.raises(MessageError):
            xml_to_batch(envelope)

    def test_results_roundtrip_positional(self):
        results = [relation_to_answers(Relation([{"Q": "a"}])),
                   error_message("slot two failed"),
                   ok_message()]
        wire = parse(serialize(batch_results_to_xml(results)))
        back = xml_to_batch_results(wire, expected=3)
        assert len(back) == 3
        assert back[1].name.local == "error"

    def test_results_expected_count_enforced(self):
        wire = batch_results_to_xml([ok_message()])
        with pytest.raises(MessageError):
            xml_to_batch_results(wire, expected=2)


class TestHandleBatchShim:
    def test_per_request_failure_is_scoped(self):
        def handler(request):
            if request.get("id") == "c1":
                raise RuntimeError("slot exploded")
            return ok_message()

        response = serve(handler, batch_to_xml(_payloads(3)))
        results = xml_to_batch_results(response, expected=3)
        assert results[0].name.local == "ok"
        assert results[1].name.local == "error"
        assert "slot exploded" in results[1].text()
        assert results[2].name.local == "ok"

    def test_crash_aborts_the_whole_envelope(self):
        """A ConnectionError is a crash, not the service's verdict on one
        slot: it leaves ``serve`` as it would leave a single request."""
        def handler(request):
            if request.get("id") == "c1":
                raise ConnectionResetError("replica died")
            return ok_message()

        with pytest.raises(ConnectionResetError):
            serve(handler, batch_to_xml(_payloads(3)))


class TestTransportBatchSupport:
    """A batch is a message: plain ``send`` carries it both ways."""

    def test_in_process_send_batch(self):
        transport = InProcessTransport()
        transport.bind("svc:q", lambda request: ok_message())
        response = transport.send("svc:q", batch_to_xml(_payloads(2)))
        assert len(xml_to_batch_results(response, expected=2)) == 2
        with pytest.raises(TransportError):
            transport.send("svc:unknown", batch_to_xml(_payloads(2)))

    def test_http_server_unwraps_batch(self):
        calls = []

        def handler(request):
            calls.append(request.get("id"))
            return relation_to_answers(Relation([{"Q": request.get("id")}]))

        server = HttpServiceServer(aware_handler=handler)
        transport = PooledHttpTransport(timeout=5.0)
        url = server.start()
        try:
            response = transport.send(url, batch_to_xml(_payloads(3)))
        finally:
            transport.close()
            server.stop()
        results = xml_to_batch_results(response, expected=3)
        assert calls == ["c0", "c1", "c2"]       # one POST, three handles
        assert all(r.name.local == "answers" for r in results)

    def test_hybrid_routes_batches_both_ways(self):
        transport = HybridTransport(timeout=5.0)
        transport.bind("svc:local", lambda request: ok_message())
        server = HttpServiceServer(aware_handler=lambda request: ok_message())
        url = server.start()
        try:
            for address in ("svc:local", url):
                response = transport.send(address,
                                          batch_to_xml(_payloads(2)))
                assert len(xml_to_batch_results(response, expected=2)) == 2
        finally:
            transport.close()
            server.stop()


class _SpyBatchTransport(InProcessTransport):
    """Records each envelope's component ids and timeout; every address
    counts as remote."""

    def __init__(self):
        super().__init__()
        self.envelopes = []

    def dispatches_inline(self, address):
        return False

    def send(self, address, message, timeout=None):
        if is_batch(message):
            self.envelopes.append(
                ([child.get("id") for child in xml_to_batch(message)],
                 timeout))
        return super().send(address, message, timeout)


class TestEnvelopeTimeoutScaling:
    """PROTOCOL.md §10: a deep envelope gets one per-request budget per
    entry, capped at MAX_TIMEOUT_SCALE — not a single request's."""

    def _deliver(self, per_request_timeout, count):
        transport = _SpyBatchTransport()
        grh = GenericRequestHandler(
            LanguageRegistry(), transport,
            resilience=ResilienceManager(
                retry=RetryPolicy(timeout=per_request_timeout)))
        address = transport.bind("svc:scale", lambda m: relation_to_answers(
            Relation([{"Q": "ok"}])))
        grh.add_remote_language(
            LanguageDescriptor("urn:test:scale", "query", "scale"), address)
        outcomes = grh.deliver(grh.route("urn:test:scale"),
                               _payloads(count), None)
        assert [outcome.name.local for outcome in outcomes] \
            == ["answers"] * count
        return [timeout for _, timeout in transport.envelopes]

    def test_full_envelope_scales_to_the_cap(self):
        # 8 entries, cap 4: 0.5s/request -> 2.0s for the envelope
        assert self._deliver(0.5, 8) == [pytest.approx(2.0)]

    def test_small_envelope_scales_linearly(self):
        assert self._deliver(0.5, 2) == [pytest.approx(1.0)]

    def test_no_policy_timeout_means_no_deadline(self):
        assert self._deliver(None, 4) == [None]


class TestOneBatchPerLanguage:
    """PROTOCOL.md §10: two languages served at one address never share
    an envelope — each ships under its own name and timeout budget."""

    def test_languages_sharing_a_url_batch_apart(self):
        budgets = {"a": 1.0, "b": 2.0}
        transport = _SpyBatchTransport()
        grh = GenericRequestHandler(LanguageRegistry(), transport)
        effects = _Effects()
        transport.bind("svc:shared", effects.handle)
        for tag, budget in budgets.items():
            grh.add_remote_language(
                LanguageDescriptor(f"urn:test:{tag}", "action", tag,
                                   timeout=budget), "svc:shared")
        tuples = Relation([{"N": "1"}])
        slots = [ActionSlot(f"{tag}{n}", ComponentSpec(
                     "action", f"urn:test:{tag}", opaque="do"), tuples)
                 for n in range(2) for tag in budgets]
        assert grh.execute_actions(slots) == [1] * 4
        assert len(effects.done) == 4
        assert sorted(ids for ids, _ in transport.envelopes) \
            == [["a0", "a1"], ["b0", "b1"]]
        for ids, timeout in transport.envelopes:
            assert timeout == pytest.approx(budgets[ids[0][0]] * 2)


class _ShortAnswers(InProcessTransport):
    """Serves every ``log:batch`` but answers it one result short; every
    address counts as remote."""

    def dispatches_inline(self, address):
        return False

    def send(self, address, message, timeout=None):
        reply = super().send(address, message, timeout)
        if not is_batch(message):
            return reply
        return batch_results_to_xml(
            [result.copy() for result in xml_to_batch_results(reply)[:-1]])


class _Three(LanguageService):
    """A query language whose every answer is the same three tuples."""

    service_name = "three"

    def query(self, request):
        return Relation([{"N": n} for n in ("1", "2", "3")])


class _Effects(LanguageService):
    """An action language that records ``(component, N)`` per tuple."""

    service_name = "effects"

    def __init__(self):
        self.done = []

    def action(self, request, binding):
        self.done.append((request.component_id, binding["N"]))


class TestMiscountedEnvelope:
    """PROTOCOL.md §10: a miscounted ``log:batchresults`` fails every
    slot of an action group — none is credited, every slot's relation is
    parked whole, and nothing escapes to the runtime."""

    THREE = "urn:test:three"
    EFFECTS = "urn:test:effects"

    def _grh(self):
        transport = _ShortAnswers()
        grh = GenericRequestHandler(LanguageRegistry(), transport)
        self.effects = _Effects()
        grh.add_service(LanguageDescriptor(self.THREE, "query", "three"),
                        _Three())
        grh.add_service(LanguageDescriptor(self.EFFECTS, "action",
                                           "effects"), self.effects)
        return grh

    def test_every_slot_fails_with_its_own_error(self):
        grh = self._grh()
        tuples = Relation([{"N": n} for n in ("1", "2", "3")])
        spec = ComponentSpec("action", self.EFFECTS, opaque="do")
        outcomes = grh.execute_actions(
            [ActionSlot(f"r{n}::action-0", spec, tuples) for n in (1, 2)])
        assert all(isinstance(outcome, ActionExecutionError)
                   for outcome in outcomes)
        assert [outcome.executed for outcome in outcomes] == [0, 0]
        assert [list(outcome.remaining) for outcome in outcomes] \
            == [list(tuples)] * 2
        assert outcomes[0] is not outcomes[1]
        first, second = (outcome.__cause__ for outcome in outcomes)
        assert isinstance(first, GRHError) and first is not second
        assert first.__cause__ is second.__cause__ is not None
        assert "answers 1 requests, expected 2" in str(outcomes[0])
        letters = list(grh.resilience.dead_letters)
        assert sorted(letter.component_id for letter in letters) \
            == ["r1::action-0", "r2::action-0"]
        assert all(list(letter.bindings) == list(tuples)
                   for letter in letters)

    def test_instances_fail_and_actions_are_parked_whole(self):
        grh = self._grh()
        stream = EventStream()
        atomic = AtomicEventService(grh.notify, incarnation="")
        atomic.attach(stream)
        grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic"),
                        atomic)
        engine = ECAEngine(grh)
        rules = ("r1", "r2", "r3")
        for rule_id in rules:
            engine.register_rule(f"""
            <eca:rule xmlns:eca="{ECA_NS}" id="{rule_id}">
              <eca:event><ping id="{{Id}}"/></eca:event>
              <eca:query>
                <eca:opaque language="{self.THREE}">all</eca:opaque>
              </eca:query>
              <eca:action>
                <eca:opaque language="{self.EFFECTS}">{rule_id}</eca:opaque>
              </eca:action>
            </eca:rule>""")
        try:
            stream.emit(E("ping", {"id": "e1"}))
        finally:
            engine.shutdown()
        # the service ran every slot; only its answer was miscounted
        assert len(self.effects.done) == 9
        instances = engine.instances
        assert sorted(i.rule_id for i in instances) == list(rules)
        assert {i.status for i in instances} == {"failed"}
        assert all(i.actions_executed == 0 for i in instances)
        assert all("answers 2 requests, expected 3" in i.error
                   for i in instances)
        letters = list(grh.resilience.dead_letters)
        assert sorted(letter.component_id for letter in letters) \
            == [f"{rule_id}::action-0" for rule_id in rules]
        assert all(letter.kind == "action" and len(letter.bindings) == 3
                   for letter in letters)
        assert engine.stats["actions"] == 0
        assert engine.runtime.errors == 0
