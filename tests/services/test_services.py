"""Unit tests of the component-language services."""

import pytest

from repro.bindings import Relation, Uri, answers_to_relation
from repro.domain import (classes_document, fleet_graph, persons_document)
from repro.grh import Request, error_text, is_error, request_to_xml
from repro.services import (ActionExecutionService, AtomicEventService,
                            DatalogService, ExistLikeService, SnoopService,
                            TestLanguageService, XQService)
from repro.sparql import SparqlQueryService
from repro.xmlmodel import E, parse, serialize


def query_request(content_markup, bindings=None, component_id="r::q"):
    return request_to_xml(Request(
        "query", component_id, parse(content_markup),
        Relation(bindings or [{}])))


class TestXQService:
    def test_per_tuple_functional_results(self):
        service = XQService({"persons.xml": persons_document()})
        response = service.handle(query_request(
            "<q>for $c in doc('persons.xml')//person[@name = $Person]/car "
            "return $c/model/text()</q>",
            bindings=[{"Person": "John Doe"}, {"Person": "Jane Roe"}]))
        assert not is_error(response)
        # two answers (one per input tuple); results inside
        answers = list(response.elements())
        assert len(answers) == 2

    def test_syntax_error_reported_as_message(self):
        service = XQService()
        response = service.handle(query_request("<q>for $x in</q>"))
        assert is_error(response)
        assert "xq-lite" in error_text(response)

    def test_numeric_corner_is_a_result_not_a_crash(self):
        # round(Infinity) used to raise OverflowError, which is neither
        # of the errors query() turns into a log:error
        response = XQService().handle(query_request(
            "<q>(round(1 div 0), substring('abc', number('x')))</q>"))
        assert not is_error(response)
        relation = answers_to_relation(response)
        assert len(relation) == 1

    def test_unsupported_kind(self):
        service = XQService()
        response = service.handle(request_to_xml(
            Request("action", "r::a", parse("<a/>"), Relation.unit())))
        assert is_error(response)


class TestExistLikeService:
    def test_plain_string_interface(self):
        service = ExistLikeService({"classes.xml": classes_document()})
        result = service.execute(
            "doc('classes.xml')//entry[@model = 'Golf']/@class")
        assert result == "B"

    def test_element_results_serialized(self):
        service = ExistLikeService({"classes.xml": classes_document()})
        result = service.execute("doc('classes.xml')//entry[@class = 'B']")
        assert result.count("<entry") == 2

    def test_request_log_records_queries(self):
        service = ExistLikeService({"classes.xml": classes_document()})
        service.execute("doc('classes.xml')//entry[1]")
        assert len(service.request_log) == 1

    def test_request_log_is_bounded(self):
        from repro.services.query_services import REQUEST_LOG_SIZE
        service = ExistLikeService({"classes.xml": classes_document()})
        for index in range(REQUEST_LOG_SIZE + 10):
            service.execute(f"{index}")
        assert len(service.request_log) == REQUEST_LOG_SIZE
        assert service.request_log[-1] == str(REQUEST_LOG_SIZE + 9)
        assert service.request_log[0] == "10"
        service.request_log.clear()
        assert len(service.request_log) == 0


class TestSparqlService:
    def test_lp_style_relation(self):
        service = SparqlQueryService(
            fleet_graph(), prefixes={"fleet": "http://example.org/fleet#"})
        response = service.handle(query_request(
            "<q>SELECT ?Avail ?Class WHERE { "
            "?c fleet:location 'Paris' ; fleet:model ?Avail ; "
            "fleet:carClass ?Class }</q>"))
        relation = answers_to_relation(response)
        assert {(b["Avail"], b["Class"]) for b in relation} == {
            ("Polo", "B"), ("Espace", "D")}

    def test_uri_terms_become_uri_values(self):
        service = SparqlQueryService(fleet_graph())
        response = service.handle(query_request(
            "<q>PREFIX fleet: &lt;http://example.org/fleet#&gt; "
            "SELECT ?Car WHERE { ?Car fleet:location 'Paris' }</q>"))
        relation = answers_to_relation(response)
        assert all(isinstance(b["Car"], Uri) for b in relation)

    def test_bad_query_reported(self):
        service = SparqlQueryService(fleet_graph())
        assert is_error(service.handle(query_request("<q>SELECT</q>")))


class TestDatalogService:
    PROGRAM = """
        owns("John Doe", golf). owns("John Doe", passat).
        class(golf, "B"). class(passat, "C").
        owned_class(P, K) :- owns(P, C), class(C, K).
    """

    def test_goal_evaluation(self):
        service = DatalogService(self.PROGRAM)
        response = service.handle(query_request(
            '<q>owned_class("John Doe", K)</q>'))
        relation = answers_to_relation(response)
        assert {b["K"] for b in relation} == {"B", "C"}

    def test_add_facts_invalidates_engine(self):
        service = DatalogService(self.PROGRAM)
        service.handle(query_request('<q>owns(P, C)</q>'))
        service.add_facts('owns("Jane Roe", clio).')
        response = service.handle(query_request('<q>owns("Jane Roe", C)</q>'))
        assert len(answers_to_relation(response)) == 1

    def test_bad_goal_reported(self):
        service = DatalogService(self.PROGRAM)
        assert is_error(service.handle(query_request("<q>BadGoal(</q>")))


class TestTestService:
    def test_filters_bindings(self):
        service = TestLanguageService()
        response = service.handle(request_to_xml(Request(
            "test", "r::t", parse("<t>$Class = 'B'</t>"),
            Relation([{"Class": "B"}, {"Class": "C"}]))))
        relation = answers_to_relation(response)
        assert len(relation) == 1

    def test_bad_expression_reported(self):
        service = TestLanguageService()
        response = service.handle(request_to_xml(Request(
            "test", "r::t", parse("<t>$X =</t>"), Relation.unit())))
        assert is_error(response)


class TestActionService:
    def test_executes_per_tuple_in_request(self):
        service = ActionExecutionService()
        response = service.handle(request_to_xml(Request(
            "action", "r::a", parse('<offer car="{Car}"/>'),
            Relation([{"Car": "Polo"}]))))
        assert not is_error(response)
        assert service.executed == 1
        assert len(service.runtime.messages("default")) == 1

    def test_template_error_reported(self):
        service = ActionExecutionService()
        response = service.handle(request_to_xml(Request(
            "action", "r::a", parse('<offer car="{Ghost}"/>'),
            Relation([{"Car": "Polo"}]))))
        assert is_error(response)


class TestEventServices:
    def test_register_detect_signal(self):
        signals = []
        service = AtomicEventService(signals.extend)
        service.handle(request_to_xml(Request(
            "register-event", "r::event",
            parse('<booking person="{P}"/>'), Relation.unit())))
        from repro.events import EventStream
        stream = EventStream()
        service.attach(stream)
        stream.emit(E("booking", {"person": "John Doe"}))
        assert len(signals) == 1
        detection = signals[0]
        assert detection.component_id == "r::event"
        (binding,) = detection.bindings
        assert binding["P"] == "John Doe"

    def test_one_feed_is_one_hand_over(self):
        """Every detection an event completes reaches the GRH in one
        ``notify`` call, in detection-id order (PROTOCOL.md §3)."""
        groups = []
        service = AtomicEventService(groups.append, incarnation="")
        for rule_id in ("r1", "r2", "r3"):
            service.handle(request_to_xml(Request(
                "register-event", f"{rule_id}::event",
                parse('<booking person="{P}"/>'), Relation.unit())))
        from repro.events import Event
        service.feed(Event(E("booking", {"person": "Jo"}), 1))
        service.feed(Event(E("other"), 2))
        (group,) = groups
        assert [d.component_id for d in group] \
            == ["r1::event", "r2::event", "r3::event"]
        assert [d.detection_id for d in group] \
            == ["atomic-event-matcher:1", "atomic-event-matcher:2",
                "atomic-event-matcher:3"]
        assert all(d.events[0].get("person") == "Jo" for d in group)

    def test_duplicate_registration_rejected(self):
        service = AtomicEventService(lambda x: None)
        message = request_to_xml(Request(
            "register-event", "r::event", parse("<e/>"), Relation.unit()))
        assert not is_error(service.handle(message))
        assert is_error(service.handle(message))

    def test_unregister_stops_detection(self):
        signals = []
        service = AtomicEventService(signals.extend)
        service.handle(request_to_xml(Request(
            "register-event", "r::event", parse("<e/>"), Relation.unit())))
        service.handle(request_to_xml(Request(
            "unregister-event", "r::event", None, Relation.unit())))
        from repro.events import Event
        service.feed(Event(E("e"), 0))
        assert signals == []

    def test_snoop_service_composite(self):
        signals = []
        service = SnoopService(signals.extend)
        from repro.events import SNOOP_NS
        service.handle(request_to_xml(Request(
            "register-event", "r::event",
            parse(f'<snoop:seq xmlns:snoop="{SNOOP_NS}"><a/><b/></snoop:seq>'),
            Relation.unit())))
        from repro.events import Event
        service.feed(Event(E("a"), 0))
        service.feed(Event(E("b"), 1))
        assert len(signals) == 1
        detection = signals[0]
        assert detection.start == 0 and detection.end == 1

    def test_poll_drives_periodic(self):
        signals = []
        service = SnoopService(signals.extend)
        from repro.events import SNOOP_NS, Event
        service.handle(request_to_xml(Request(
            "register-event", "r::event",
            parse(f'<snoop:periodic xmlns:snoop="{SNOOP_NS}" period="2">'
                  "<a/><c/></snoop:periodic>"), Relation.unit())))
        service.feed(Event(E("a"), 0.0))
        service.poll(5.0)
        assert len(signals) == 2
