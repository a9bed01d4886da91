"""GRH mediation: dispatch, aware/unaware adaptation, error handling."""

import pytest

from repro.bindings import Binding, Relation, relation_to_answers
from repro.grh import (ComponentSpec, GenericRequestHandler, GRHError,
                       LanguageDescriptor, LanguageRegistry, Request,
                       ResilienceManager, RetryPolicy, error_message,
                       ok_message, request_to_xml, xml_to_request)
from repro.services import InProcessTransport, LanguageService
from repro.xmlmodel import Element, LOG_NS, QName, parse, serialize
from repro.bindings import binding_to_answer


def make_grh():
    return GenericRequestHandler(LanguageRegistry(), InProcessTransport())


class _RecordingService:
    """Aware service that records requests and answers canned relations."""

    def __init__(self, respond_with=None):
        self.requests = []
        self.respond_with = respond_with if respond_with is not None \
            else Relation.unit()

    def handle(self, message):
        self.requests.append(message)
        request = xml_to_request(message)
        if request.kind in ("register-event", "unregister-event", "action"):
            return ok_message()
        return relation_to_answers(self.respond_with)


class TestDispatch:
    def test_namespace_dispatch(self):
        grh = make_grh()
        service = _RecordingService(Relation([{"X": 1}]))
        grh.add_service(LanguageDescriptor("urn:ql", "query", "ql"), service)
        spec = ComponentSpec("query", "urn:ql", content=parse(
            "<q xmlns='urn:ql'/>"))
        result = grh.evaluate_query("r::q0", spec, Relation.unit())
        assert result == Relation([{"X": 1}])
        assert len(service.requests) == 1

    def test_opaque_language_name_dispatch(self):
        grh = make_grh()
        service = _RecordingService(Relation([{"X": 1}]))
        grh.add_service(LanguageDescriptor("urn:ql", "query", "fancy-ql"),
                        service)
        spec = ComponentSpec("query", "fancy-ql", opaque="the query")
        result = grh.evaluate_query("r::q0", spec, Relation.unit())
        assert result == Relation([{"X": 1}])
        # the opaque text travelled inside an eca:opaque wrapper
        request = xml_to_request(service.requests[0])
        assert request.content.text() == "the query"

    def test_unknown_language_raises(self):
        grh = make_grh()
        spec = ComponentSpec("query", "urn:ghost", opaque="q")
        with pytest.raises(GRHError, match="no language registered"):
            grh.evaluate_query("r::q0", spec, Relation.unit())

    def test_service_error_becomes_grh_error(self):
        grh = make_grh()

        class Failing:
            def handle(self, message):
                return error_message("database on fire")

        grh.add_service(LanguageDescriptor("urn:ql", "query", "ql"),
                        Failing())
        spec = ComponentSpec("query", "urn:ql",
                             content=parse("<q xmlns='urn:ql'/>"))
        with pytest.raises(GRHError, match="database on fire"):
            grh.evaluate_query("r::q0", spec, Relation.unit())

    def test_adding_a_language_needs_no_engine_changes(self):
        # DESIGN.md §5: adding a language is just a registration
        grh = make_grh()
        for index in range(5):
            grh.add_service(LanguageDescriptor(f"urn:ql{index}", "query",
                                               f"ql{index}"),
                            _RecordingService())
        assert len(grh.registry.languages("query")) == 5


class TestFunctionalBinding:
    """eca:variable semantics over aware services (Fig. 8)."""

    def _answers_with_results(self):
        answers = Element(QName(LOG_NS, "answers"), nsdecls={"log": LOG_NS})
        answers.append(binding_to_answer(Binding({"Person": "John Doe"}),
                                         results=["Golf", "Passat"]))
        return answers

    def test_results_extend_input_tuples(self):
        grh = make_grh()
        answers = self._answers_with_results()

        class Functional:
            def handle(self, message):
                return answers

        grh.add_service(LanguageDescriptor("urn:xq", "query", "xq"),
                        Functional())
        spec = ComponentSpec("query", "urn:xq",
                             content=parse("<q xmlns='urn:xq'/>"),
                             bind_to="OwnCar")
        result = grh.evaluate_query("r::q0", spec,
                                    Relation([{"Person": "John Doe"}]))
        assert {binding["OwnCar"] for binding in result} == {"Golf", "Passat"}

    def test_conflicting_result_dropped_not_fatal(self):
        grh = make_grh()
        answers = Element(QName(LOG_NS, "answers"), nsdecls={"log": LOG_NS})
        answers.append(binding_to_answer(Binding({"OwnCar": "Clio"}),
                                         results=["Golf"]))

        class Functional:
            def handle(self, message):
                return answers

        grh.add_service(LanguageDescriptor("urn:xq", "query", "xq"),
                        Functional())
        spec = ComponentSpec("query", "urn:xq",
                             content=parse("<q xmlns='urn:xq'/>"),
                             bind_to="OwnCar")
        result = grh.evaluate_query("r::q0", spec, Relation.unit())
        assert result == Relation.empty()


    @pytest.mark.parametrize("kind, text, complaint", [
        ("boolean", "maybe", "invalid boolean value 'maybe'"),
        ("number", "12 apples", "invalid number value '12 apples'"),
        ("blob", "z", "unknown variable type 'blob'"),
    ])
    def test_malformed_result_is_a_classified_error(self, kind, text,
                                                    complaint):
        """``log:result`` is typed as ``log:variable`` is: what the one
        refuses the other does not read as ``False`` or as a string."""
        grh = make_grh()
        answers = parse(
            f'<log:answers xmlns:log="{LOG_NS}"><log:answer>'
            f'<log:variable name="Person">John Doe</log:variable>'
            f'<log:result type="{kind}">{text}</log:result>'
            f'</log:answer></log:answers>')

        class Functional:
            def handle(self, message):
                return answers

        grh.add_service(LanguageDescriptor("urn:xq", "query", "xq"),
                        Functional())
        spec = ComponentSpec("query", "urn:xq",
                             content=parse("<q xmlns='urn:xq'/>"),
                             bind_to="OwnCar")
        with pytest.raises(GRHError, match="malformed answer") as caught:
            grh.evaluate_query("r::q0", spec,
                               Relation([{"Person": "John Doe"}]))
        assert complaint in str(caught.value)
        # the same text as a variable is refused in the same words
        as_variable = parse(
            f'<log:answers xmlns:log="{LOG_NS}"><log:answer>'
            f'<log:variable name="X" type="{kind}">{text}</log:variable>'
            f'</log:answer></log:answers>')
        with pytest.raises(GRHError, match="malformed answers") as caught:
            grh._relation_from_answers(
                as_variable, ComponentSpec("query", "urn:xq", opaque="q"))
        assert complaint in str(caught.value)


class TestUnawareAdaptation:
    """Fig. 9: per-tuple substitution against framework-unaware services."""

    def setup_grh(self, responses):
        grh = make_grh()
        log = []

        class Unaware:
            def execute(self, query):
                log.append(query)
                return responses.get(query, "")

        grh.add_service(LanguageDescriptor("urn:exist", "query", "exist",
                                           framework_aware=False), Unaware())
        return grh, log

    def test_substitution_and_per_tuple_requests(self):
        grh, log = self.setup_grh({"class-of Golf": "B",
                                   "class-of Passat": "C"})
        spec = ComponentSpec("query", "urn:exist",
                             opaque="class-of {OwnCar}", bind_to="Class")
        result = grh.evaluate_query(
            "r::q1", spec, Relation([{"OwnCar": "Golf"},
                                     {"OwnCar": "Passat"}]))
        assert sorted(log) == ["class-of Golf", "class-of Passat"]
        assert {(b["OwnCar"], b["Class"]) for b in result} == {
            ("Golf", "B"), ("Passat", "C")}

    def test_empty_response_drops_tuple(self):
        grh, _ = self.setup_grh({"class-of Golf": "B"})
        spec = ComponentSpec("query", "urn:exist",
                             opaque="class-of {OwnCar}", bind_to="Class")
        result = grh.evaluate_query(
            "r::q1", spec, Relation([{"OwnCar": "Golf"},
                                     {"OwnCar": "Unknown"}]))
        assert len(result) == 1

    def test_xml_fragment_results(self):
        grh, _ = self.setup_grh({"q": "<car m='Polo'/><car m='Corsa'/>"})
        spec = ComponentSpec("query", "urn:exist", opaque="q", bind_to="Car")
        result = grh.evaluate_query("r::q1", spec, Relation.unit())
        models = {binding["Car"].get("m") for binding in result}
        assert models == {"Polo", "Corsa"}

    def test_unbound_placeholder_raises(self):
        grh, _ = self.setup_grh({})
        spec = ComponentSpec("query", "urn:exist", opaque="q {Ghost}",
                             bind_to="X")
        with pytest.raises(GRHError, match="Ghost"):
            grh.evaluate_query("r::q1", spec, Relation.unit())

    def test_results_without_variable_wrapper_rejected(self):
        grh, _ = self.setup_grh({"q": "plain text"})
        spec = ComponentSpec("query", "urn:exist", opaque="q")
        with pytest.raises(GRHError, match="eca:variable"):
            grh.evaluate_query("r::q1", spec, Relation.unit())

    def test_crlf_plain_text_lines_bind_stripped(self):
        # HTTP services answer with \r\n line endings; bound values must
        # not keep the \r (it would poison joins against clean values)
        grh, _ = self.setup_grh({"q": "Golf\r\nPassat\r\n"})
        spec = ComponentSpec("query", "urn:exist", opaque="q", bind_to="Car")
        result = grh.evaluate_query("r::q1", spec, Relation.unit())
        assert {binding["Car"] for binding in result} == {"Golf", "Passat"}
        joined = result.join(Relation([{"Car": "Golf"}]))
        assert len(joined) == 1

    def test_fake_aware_log_answers_response(self):
        # Fig. 10: the response IS a log:answers structure
        answers = relation_to_answers(Relation([{"Avail": "Polo",
                                                 "Class": "B"}]))
        grh, _ = self.setup_grh({"q": serialize(answers)})
        spec = ComponentSpec("query", "urn:exist", opaque="q")
        result = grh.evaluate_query("r::q1", spec,
                                    Relation([{"Class": "B"},
                                              {"Class": "C"}]))
        assert len(result) == 1
        (binding,) = result
        assert binding["Avail"] == "Polo"

    @pytest.mark.parametrize("response", [
        pytest.param("<car m='&#xZZ;'/>", id="reference-not-hex"),
        pytest.param("<car>&#;</car>", id="reference-empty"),
        pytest.param("<car>&#1114112;</car>", id="reference-out-of-range"),
        pytest.param("<car><unclosed></car>", id="unclosed"),
        pytest.param("<c>" * 2000 + "</c>" * 2000, id="nested-2000-deep"),
    ])
    def test_unparseable_response_is_a_classified_error(self, response):
        # A misbehaving framework-unaware service must surface as GRHError:
        # bad character references used to escape as a bare ValueError, and
        # deep nesting as RecursionError, from inside the parser.
        grh, _ = self.setup_grh({"q": response})
        spec = ComponentSpec("query", "urn:exist", opaque="q", bind_to="Car")
        with pytest.raises(GRHError, match="unparseable service response"):
            grh.evaluate_query("r::q1", spec, Relation.unit())

    def test_markup_component_for_unaware_language_rejected(self):
        grh, _ = self.setup_grh({})
        spec = ComponentSpec("query", "urn:exist",
                             content=parse("<q xmlns='urn:exist'/>"))
        with pytest.raises(GRHError, match="opaque"):
            grh.evaluate_query("r::q1", spec, Relation.unit())


class TestActionsAndEvents:
    def test_action_request_per_tuple(self):
        """The action travels once per relation and runs once per tuple."""
        grh = make_grh()

        class Effects(LanguageService):
            def __init__(self):
                self.requests, self.effects = [], []

            def handle(self, message):
                self.requests.append(message)
                return super().handle(message)

            def action(self, request, binding):
                self.effects.append(binding["X"])

        service = Effects()
        grh.add_service(LanguageDescriptor("urn:act", "action", "act"),
                        service)
        spec = ComponentSpec("action", "urn:act",
                             content=parse("<a xmlns='urn:act'/>"))
        count = grh.execute_action("r::a0", spec,
                                   Relation([{"X": 1}, {"X": 2}]))
        assert count == 2
        (request,) = service.requests
        (answers,) = request.findall(QName(LOG_NS, "answers"))
        assert len(answers.findall(QName(LOG_NS, "answer"))) == 2
        assert service.effects == [1, 2]        # relation order
        assert grh.request_count == 1

    def test_event_component_must_be_event_family(self):
        grh = make_grh()
        spec = ComponentSpec("query", "urn:ql", opaque="q")
        with pytest.raises(GRHError, match="not an event component"):
            grh.register_event_component("r::event", spec)

    def test_request_count_tracks_mediation_load(self):
        grh = make_grh()
        service = _RecordingService()
        grh.add_service(LanguageDescriptor("urn:q", "query", "q"), service)
        spec = ComponentSpec("query", "urn:q",
                             content=parse("<q xmlns='urn:q'/>"))
        grh.evaluate_query("r::q0", spec, Relation.unit())
        grh.evaluate_query("r::q0", spec, Relation.unit())
        assert grh.request_count == 2


class TestDecodersCopy:
    """``xml_to_request`` copies what it takes out of the envelope.

    Over an unserialized transport the handler is given the caller's own
    tree, and a retry (or a hedge) gives it the same tree again: a decoder
    that detached the component or a value instead of copying it would
    leave the second delivery an envelope with nothing in it.
    """

    @staticmethod
    def payload():
        car = parse('<car xmlns="urn:cars" class="B"><model>Golf</model></car>')
        return request_to_xml(Request(
            "query", "r::q0", parse("<q xmlns='urn:ql'><part>x</part></q>"),
            Relation([{"Person": "John Doe", "OwnCar": car, "N": 3}])))

    def test_one_payload_handled_twice_over_an_unserialized_transport(self):
        payload = self.payload()
        wire = serialize(payload)
        decoded = []
        transport = InProcessTransport(serialize_messages=False)

        def handler(message):
            assert message is payload       # the caller's tree, as it is
            decoded.append(xml_to_request(message))
            return ok_message()

        transport.bind("svc:q", handler)
        transport.send("svc:q", payload)
        transport.send("svc:q", payload)
        assert decoded[0] == decoded[1]
        assert decoded[0].content == parse(
            "<q xmlns='urn:ql'><part>x</part></q>")
        assert serialize(payload) == wire
        # what a handler does to its request stays its own business
        decoded[0].content.set("touched", "yes")
        (binding,) = decoded[0].bindings
        binding["OwnCar"].set("touched", "yes")
        assert serialize(payload) == wire
        assert xml_to_request(payload) == decoded[1]

    def test_one_payload_retried_after_a_lost_answer(self):
        class FlakyTransport(InProcessTransport):
            """Delivers, then loses the first answer on the way back."""

            def __init__(self):
                super().__init__(serialize_messages=False)
                self.sent = []

            def send(self, address, message, timeout=None):
                self.sent.append((message, serialize(message)))
                response = super().send(address, message, timeout=timeout)
                if len(self.sent) == 1:
                    raise ConnectionResetError("answer lost")
                return response

        transport = FlakyTransport()
        grh = GenericRequestHandler(
            LanguageRegistry(), transport,
            resilience=ResilienceManager(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)))
        service = _RecordingService(Relation([{"X": 1}]))
        grh.add_service(LanguageDescriptor("urn:ql", "query", "ql"), service)
        spec = ComponentSpec("query", "urn:ql", content=parse(
            "<q xmlns='urn:ql'><part>x</part></q>"))
        car = parse('<car xmlns="urn:cars" class="B"/>')
        result = grh.evaluate_query(
            "r::q0", spec, Relation([{"Person": "John Doe", "OwnCar": car}]))
        assert result == Relation([{"X": 1}])
        (first, first_wire), (second, second_wire) = transport.sent
        assert first is second              # the retry re-sends the payload
        assert first_wire == second_wire == serialize(first)
        handled = [xml_to_request(message) for message in service.requests]
        assert len(handled) == 2 and handled[0] == handled[1]
        assert handled[0].content == spec.content
