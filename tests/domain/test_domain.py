"""Domain data, event constructors and synthetic workload generation."""

from repro.core import parse_rule
from repro.domain import (CAR_RENTAL_RULE, TRAVEL_NS, WorkloadConfig,
                          booking_event, booking_payloads, classes_document,
                          fleet_document, fleet_graph,
                          full_pipeline_rule_markup, persons_document,
                          simple_rule_markup, synthetic_classes,
                          synthetic_fleet, synthetic_persons)
from repro.rdf import Namespace
from repro.xmlmodel import QName
from repro.xpath import evaluate


class TestPaperWorld:
    def test_booking_event_matches_fig6(self):
        event = booking_event()
        assert event.name == QName(TRAVEL_NS, "booking")
        assert event.get("person") == "John Doe"
        assert event.get("from") == "Munich"
        assert event.get("to") == "Paris"

    def test_john_doe_owns_golf_and_passat(self):
        models = [n.text() for n in evaluate(
            "//person[@name='John Doe']/car/model", persons_document())]
        assert models == ["Golf", "Passat"]

    def test_classes_match_paper(self):
        doc = classes_document()
        assert evaluate("string(//entry[@model='Golf']/@class)", doc) == "B"
        assert evaluate("string(//entry[@model='Passat']/@class)", doc) == "C"

    def test_paris_fleet_has_classes_b_and_d(self):
        classes = {node.value for node in evaluate(
            "//car[@location='Paris']/@class", fleet_document())}
        assert classes == {"B", "D"}

    def test_fleet_graph_agrees_with_fleet_document(self):
        fleet = Namespace("http://example.org/fleet#")
        graph = fleet_graph()
        doc = fleet_document()
        for car in evaluate("//car", doc):
            subject = fleet[car.get("id")]
            assert str(graph.value(subject, fleet.model)) \
                .strip('"') in (car.get("model"),
                                graph.value(subject, fleet.model).lexical)
            assert graph.value(subject, fleet.carClass).lexical == \
                car.get("class")

    def test_rule_markup_is_valid(self):
        rule = parse_rule(CAR_RENTAL_RULE)
        from repro.core import validate_rule
        validate_rule(rule)


class TestWorkloadGenerators:
    def test_persons_scale(self):
        config = WorkloadConfig(persons=25, cars_per_person=3)
        doc = synthetic_persons(config)
        assert len(doc.findall("person")) == 25
        assert all(len(p.findall("car")) == 3 for p in doc.elements())

    def test_deterministic_under_seed(self):
        config = WorkloadConfig(persons=10, seed=42)
        from repro.xmlmodel import canonicalize
        assert canonicalize(synthetic_persons(config)) == \
            canonicalize(synthetic_persons(config))
        assert canonicalize(synthetic_fleet(config)) == \
            canonicalize(synthetic_fleet(config))

    def test_different_seeds_differ(self):
        from repro.xmlmodel import canonicalize
        first = synthetic_fleet(WorkloadConfig(seed=1, fleet_size=20))
        second = synthetic_fleet(WorkloadConfig(seed=2, fleet_size=20))
        assert canonicalize(first) != canonicalize(second)

    def test_classes_cover_all_models(self):
        doc = synthetic_classes()
        models = {entry.get("model") for entry in doc.elements()}
        fleet = synthetic_fleet(WorkloadConfig(fleet_size=30))
        assert {car.get("model") for car in fleet.elements()} <= models

    def test_booking_payloads(self):
        config = WorkloadConfig(persons=5, cities=2)
        payloads = booking_payloads(config, 10)
        assert len(payloads) == 10
        assert all(p.name == QName(TRAVEL_NS, "booking") for p in payloads)

    def test_generated_rules_parse_and_validate(self):
        from repro.core import validate_rule
        validate_rule(parse_rule(simple_rule_markup("s1")))
        validate_rule(parse_rule(full_pipeline_rule_markup("f1")))


class TestEndToEndSyntheticWorkload:
    def test_full_pipeline_rule_on_synthetic_world(self):
        from repro.core import ECAEngine
        from repro.services import standard_deployment
        config = WorkloadConfig(persons=10, fleet_size=20, cities=2)
        deployment = standard_deployment()
        deployment.add_document("persons.xml", synthetic_persons(config))
        deployment.add_document("classes.xml", synthetic_classes())
        deployment.add_document("fleet.xml", synthetic_fleet(config))
        engine = ECAEngine(deployment.grh)
        engine.register_rule(full_pipeline_rule_markup("bench"))
        for payload in booking_payloads(config, 20):
            deployment.stream.emit(payload)
        assert engine.stats["instances"] == 20
        assert engine.stats["completed"] + engine.stats["dead"] == 20
