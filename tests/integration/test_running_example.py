"""FIG4-FIG11: the paper's running example, end to end.

The car-rental rule of Fig. 4 is registered with the engine; a booking
event fires it; the three query components contact three differently-
integrated services (framework-aware XQ-lite, framework-unaware
eXist-like, log:answers-faking); the natural join of Fig. 11 leaves
exactly the class-B offer, and the action informs the customer.

Every intermediate binding table the paper prints is asserted here.
"""

import pytest

from repro.core import ECAEngine
from repro.domain import (CAR_RENTAL_RULE, booking_event, classes_document,
                          fleet_document, persons_document)
from repro.services import standard_deployment


@pytest.fixture()
def world():
    deployment = standard_deployment()
    deployment.add_document("persons.xml", persons_document())
    deployment.add_document("classes.xml", classes_document())
    deployment.add_document("fleet.xml", fleet_document())
    engine = ECAEngine(deployment.grh)
    rule_id = engine.register_rule(CAR_RENTAL_RULE)
    return deployment, engine, rule_id


def trace_of(engine, rule_id):
    (instance,) = engine.instances_of(rule_id)
    return instance, dict(instance.trace)


class TestRunningExample:
    def test_fig4_rule_parses_with_expected_structure(self):
        from repro.core import parse_rule
        rule = parse_rule(CAR_RENTAL_RULE)
        assert rule.rule_id == "car-rental-offer"
        assert len(rule.queries) == 3
        assert rule.queries[0].bind_to == "OwnCar"
        assert rule.queries[1].bind_to == "Class"
        assert rule.queries[2].bind_to is None
        assert rule.test is None
        assert len(rule.actions) == 1

    def test_fig5_event_component_registered(self, world):
        deployment, engine, rule_id = world
        assert f"{rule_id}::event" in deployment.atomic_events.registered_ids

    def test_fig6_booking_creates_instance_with_bindings(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event())
        instance, trace = trace_of(engine, rule_id)
        assert trace["event"] == _relation(
            {"Person": "John Doe", "From": "Munich", "To": "Paris"})

    def test_fig8_own_cars_yield_two_tuples(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event())
        instance, trace = trace_of(engine, rule_id)
        stage = trace["query 1 (→ $OwnCar)"]
        assert {binding["OwnCar"] for binding in stage} == {"Golf", "Passat"}
        assert all(binding["Person"] == "John Doe" for binding in stage)
        assert len(stage) == 2

    def test_fig9_unaware_service_called_once_per_tuple(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event())
        # the eXist-like node saw one substituted query per input tuple:
        # once for Golf, once for Passat (plus one availability query per
        # remaining tuple)
        substituted = [query for query in deployment.exist.request_log
                       if "entry[@model" in query]
        assert len(substituted) == 2
        assert any("'Golf'" in query for query in substituted)
        assert any("'Passat'" in query for query in substituted)

    def test_fig9_classes_bound_per_tuple(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event())
        instance, trace = trace_of(engine, rule_id)
        stage = trace["query 2 (→ $Class)"]
        pairs = {(binding["OwnCar"], binding["Class"]) for binding in stage}
        assert pairs == {("Golf", "B"), ("Passat", "C")}

    def test_fig10_fig11_join_keeps_only_class_b(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event())
        instance, trace = trace_of(engine, rule_id)
        stage = trace["query 3"]
        assert len(stage) == 1
        (survivor,) = stage
        assert survivor["OwnCar"] == "Golf"
        assert survivor["Class"] == "B"
        assert survivor["Avail"] == "Polo"

    def test_customer_is_informed_once(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event())
        messages = deployment.runtime.messages("customer-notifications")
        assert len(messages) == 1
        offer = messages[0].content
        assert offer.get("person") == "John Doe"
        assert offer.get("destination") == "Paris"
        assert offer.get("car") == "Polo"
        assert offer.get("class") == "B"

    def test_instance_completes(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event())
        (instance,) = engine.instances_of(rule_id)
        assert instance.status == "completed"
        assert instance.actions_executed == 1
        assert engine.stats["completed"] == 1

    def test_rome_booking_dies_at_join(self, world):
        # Rome offers classes B and C... the fleet has Golf (B) and
        # Laguna (C) there, so John Doe gets two offers instead
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event(destination="Rome"))
        (instance,) = engine.instances_of(rule_id)
        assert instance.status == "completed"
        cars = {message.content.get("car") for message in
                deployment.runtime.messages("customer-notifications")}
        assert cars == {"Golf", "Laguna"}

    def test_unknown_person_instance_dies(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event(person="Nobody"))
        (instance,) = engine.instances_of(rule_id)
        assert instance.status == "dead"
        assert deployment.runtime.messages("customer-notifications") == []

    def test_person_without_cars_dies_at_first_query(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event(person="Max Power"))
        (instance,) = engine.instances_of(rule_id)
        assert instance.status == "dead"
        assert instance.trace[-1][0] == "query 1 (→ $OwnCar)"

    def test_two_bookings_two_instances(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event())
        deployment.stream.advance(1)
        deployment.stream.emit(booking_event(person="Jane Roe"))
        assert len(engine.instances_of(rule_id)) == 2

    def test_trace_table_prints_paper_tables(self, world):
        deployment, engine, rule_id = world
        deployment.stream.emit(booking_event())
        (instance,) = engine.instances_of(rule_id)
        table = instance.trace_table()
        assert "OwnCar" in table and "Golf" in table and "Polo" in table


def _relation(*rows):
    from repro.bindings import Relation
    return Relation(list(rows))
