"""Engine-level resilience: state consistency under partial failure,
dead letter capture and replay (ECAEngine.replay_dead_letters)."""

import pytest

from repro.bindings import Relation, relation_to_answers
from repro.core import ECAEngine, EngineError
from repro.grh import (ActionExecutionError, ComponentSpec, GRHError,
                       LanguageDescriptor, error_message)
from repro.services import LanguageService, standard_deployment
from repro.xmlmodel import E, ECA_NS, LOG_NS, QName

ECA = f'xmlns:eca="{ECA_NS}"'
PAIRS_LANG = "urn:test:pairs"
FLAKY_ACT = "urn:test:flaky-act"
FLAKY_Q = "urn:test:flaky-q"


class PairsService:
    """Query service contributing two tuples per evaluation."""

    def handle(self, message):
        return relation_to_answers(Relation([{"X": "1"}, {"X": "2"}]))


class FlakyActionService(LanguageService):
    """Action service that fails on configurable *tuple* executions (the
    N-th tuple it is asked to run, across requests) and reports how many
    tuples of the request ran before it."""

    service_name = "flaky-act"

    def __init__(self, fail_on=()):
        self.fail_on = set(fail_on)
        self.calls = 0
        self.effects = []
        self.requests = 0

    def handle(self, message):
        self.requests += 1
        return super().handle(message)

    def action(self, request, binding):
        self.calls += 1
        if self.calls in self.fail_on:
            raise RuntimeError("action backend down")
        self.effects.append(binding["X"])


class FlakyQueryService:
    def __init__(self, failing=True):
        self.failing = failing
        self.calls = 0

    def handle(self, message):
        self.calls += 1
        if self.failing:
            raise RuntimeError("query backend down")
        return relation_to_answers(Relation([{"Q": "fine"}]))


def make_world(extra_services=()):
    deployment = standard_deployment()
    for descriptor, service in extra_services:
        deployment.grh.add_service(descriptor, service)
    engine = ECAEngine(deployment.grh, validate=False)
    return deployment, engine


class TestDeregisterConsistency:
    """Regression: a failed unregister must not desynchronize engine
    and event service (the engine forgot the rule, the service kept a
    live registration whose detections were silently dropped)."""

    RULE = f"""
    <eca:rule {ECA} id="r1">
      <eca:event><ping n="{{N}}"/></eca:event>
      <eca:action><out n="{{N}}"/></eca:action>
    </eca:rule>
    """

    def wrap_event_transport(self, deployment, fail_unregister):
        original = deployment.transport._aware["svc:atomic-events"]

        def wrapper(message):
            if fail_unregister() and \
                    message.get("kind") == "unregister-event":
                raise RuntimeError("event service unreachable")
            return original(message)

        deployment.transport.bind("svc:atomic-events", wrapper)

    def test_failed_unregister_keeps_rule_registered(self):
        deployment, engine = make_world()
        failing = [True]
        self.wrap_event_transport(deployment, lambda: failing[0])
        engine.register_rule(self.RULE)
        with pytest.raises(GRHError, match="unreachable"):
            engine.deregister_rule("r1")
        # local state is intact: the rule is still known and detections
        # from the (still live) service-side registration are processed
        assert "r1" in engine.rules
        deployment.stream.emit(E("ping", {"n": "1"}))
        assert engine.stats["instances"] == 1
        # once the service recovers, deregistration completes cleanly
        failing[0] = False
        engine.deregister_rule("r1")
        assert "r1" not in engine.rules
        with pytest.raises(EngineError):
            engine.deregister_rule("r1")
        deployment.stream.emit(E("ping", {"n": "2"}))
        assert engine.stats["instances"] == 1


class TestPartialActionReporting:
    """Regression: a failure part-way through an action's relation used
    to discard the count of tuples that really executed.  The relation
    travels in one request; the service reports the prefix that ran."""

    RULE = f"""
    <eca:rule {ECA} id="partial">
      <eca:event><ping/></eca:event>
      <eca:query><q xmlns="{PAIRS_LANG}">two tuples</q></eca:query>
      <eca:action>
        <eca:opaque language="flaky-act">do {{X}}</eca:opaque>
      </eca:action>
    </eca:rule>
    """

    def make(self, fail_on):
        actions = FlakyActionService(fail_on=fail_on)
        deployment, engine = make_world([
            (LanguageDescriptor(PAIRS_LANG, "query", "pairs"),
             PairsService()),
            (LanguageDescriptor(FLAKY_ACT, "action", "flaky-act"), actions),
        ])
        engine.register_rule(self.RULE)
        return deployment, engine, actions

    def test_partial_count_preserved_on_instance_and_stats(self):
        deployment, engine, actions = self.make(fail_on={2})
        deployment.stream.emit(E("ping"))
        (instance,) = engine.instances
        assert instance.status == "failed"
        assert instance.actions_executed == 1       # first tuple did run
        assert engine.stats["actions"] == 1
        assert instance.to_xml().get("actions") == "1"

    def test_failed_tuples_parked_and_replayed(self):
        deployment, engine, actions = self.make(fail_on={2})
        deployment.stream.emit(E("ping"))
        assert engine.grh.stats["dead_letters"] == 1
        (letter,) = engine.grh.resilience.dead_letters
        assert letter.kind == "action"
        assert len(letter.bindings) == 1            # only the failed tuple
        # the backend recovers; replay executes exactly the missing tuple
        summary = engine.replay_dead_letters()
        assert summary == {"replayed": 1, "succeeded": 1, "failed": 0,
                           "deferred": 0, "actions": 1}
        assert engine.stats["actions"] == 2
        assert actions.calls == 3
        assert engine.grh.stats["dead_letters"] == 0

    def test_still_failing_replay_reparks(self):
        deployment, engine, actions = self.make(fail_on={2, 3})
        deployment.stream.emit(E("ping"))
        summary = engine.replay_dead_letters()
        assert summary["failed"] == 1
        assert engine.grh.stats["dead_letters"] == 1


class LostAnswer:
    """Wraps a handler: the work runs, then the answer is lost."""

    def __init__(self, handler, lose=1):
        self.handler = handler
        self.lose = lose

    def __call__(self, message):
        response = self.handler(message)
        if self.lose:
            self.lose -= 1
            raise ConnectionResetError("answer lost (simulated)")
        return response


class CountingGuard:
    """Minimal durability guard: one key per tuple, ``None`` for a tuple
    it has seen before in the same relation."""

    def begin(self, tuples):
        seen = set()
        keys = []
        for binding in tuples:
            value = binding["X"]
            keys.append(None if value in seen else f"inst-7:0:{value}")
            seen.add(value)
        return keys


class TestWideActionRequests:
    """The cases a per-tuple loop could not have: the whole relation is
    one request, so partial progress is the service's report."""

    SPEC = ComponentSpec("action", "flaky-act", opaque="do {X}")
    THREE = Relation([{"X": "1"}, {"X": "2"}, {"X": "3"}])

    def make(self, fail_on=(), service=None, wrap=None):
        actions = service or FlakyActionService(fail_on=fail_on)
        deployment = standard_deployment()
        engine = ECAEngine(deployment.grh, validate=False)
        deployment.grh.add_service(
            LanguageDescriptor(FLAKY_ACT, "action", "flaky-act"), actions)
        if wrap is not None:
            deployment.grh.transport.bind("svc:flaky-act",
                                          wrap(actions.handle))
        return engine, actions

    def test_no_answer_leaves_every_tuple_uncertain(self):
        engine, actions = self.make(wrap=LostAnswer)
        with pytest.raises(ActionExecutionError) as raised:
            engine.grh.execute_action("r::a0", self.SPEC, self.THREE,
                                      guard=CountingGuard())
        # all three ran, but nobody heard: credit 0, park the relation
        assert raised.value.executed == 0
        assert len(raised.value.remaining) == 3
        assert actions.effects == ["1", "2", "3"]
        (letter,) = engine.grh.resilience.dead_letters
        assert letter.dedups == ("inst-7:0:1", "inst-7:0:2", "inst-7:0:3")
        # the keys ride on the replay: every tuple is suppressed, counted
        summary = engine.replay_dead_letters()
        assert summary == {"replayed": 1, "succeeded": 1, "failed": 0,
                           "deferred": 0, "actions": 3}
        assert actions.effects == ["1", "2", "3"]       # exactly once

    def test_no_answer_without_keys_is_at_least_once(self):
        engine, actions = self.make(wrap=LostAnswer)
        with pytest.raises(ActionExecutionError) as raised:
            engine.grh.execute_action("r::a0", self.SPEC, self.THREE)
        assert raised.value.executed == 0
        (letter,) = engine.grh.resilience.dead_letters
        assert letter.dedups is None and len(letter.bindings) == 3
        engine.replay_dead_letters()
        assert actions.effects == ["1", "2", "3"] * 2   # §7 Limitations

    def test_repeat_of_half_completed_keyed_request(self):
        engine, actions = self.make(fail_on={2})
        guard = CountingGuard()
        with pytest.raises(ActionExecutionError) as raised:
            engine.grh.execute_action("r::a0", self.SPEC, self.THREE,
                                      guard=guard)
        assert raised.value.executed == 1
        assert len(raised.value.remaining) == 2
        (letter,) = engine.grh.resilience.dead_letters
        engine.grh.resilience.dead_letters.settle(letter, 0)
        # the very same request again: suppressed prefix, executed
        # suffix, log:ok — every tuple counts as run
        assert engine.grh.execute_action("r::a0", self.SPEC, self.THREE,
                                         guard=guard) == 3
        assert actions.effects == ["1", "2", "3"]
        assert actions.requests == 2

    def test_duplicate_tuples_are_left_out_of_the_request(self):
        seen = []

        class Recording(FlakyActionService):
            def handle(self, message):
                seen.append(message)
                return super().handle(message)

        engine, actions = self.make(service=Recording())
        relation = Relation([{"X": "1", "Y": "a"}, {"X": "1", "Y": "b"},
                             {"X": "2", "Y": "c"}])
        # the guard keys on X alone, so the second tuple is a duplicate
        count = engine.grh.execute_action("r::a0", self.SPEC, relation,
                                          guard=CountingGuard())
        assert count == 2
        assert actions.effects == ["1", "2"]
        (request,) = seen
        answers = request.find(QName(LOG_NS, "answers"))
        assert [answer.get("dedup") for answer in answers.elements()] \
            == ["inst-7:0:1", "inst-7:0:2"]
        assert request.get("dedup") is None     # one encoding: per answer

    def test_failure_accounts_for_every_distinct_tuple(self):
        for fail_on in ({1}, {2}, {3}):
            engine, actions = self.make(fail_on=fail_on)
            with pytest.raises(ActionExecutionError) as raised:
                engine.grh.execute_action("r::a0", self.SPEC, self.THREE)
            error = raised.value
            assert error.executed == min(fail_on) - 1
            assert error.executed + len(error.remaining) == 3
            (letter,) = engine.grh.resilience.dead_letters
            assert letter.bindings == error.remaining

    def test_error_without_executed_counts_as_zero(self):
        class Vague:
            def handle(self, message):
                return error_message("something went wrong")

        engine, _ = self.make(service=Vague())
        with pytest.raises(ActionExecutionError) as raised:
            engine.grh.execute_action("r::a0", self.SPEC, self.THREE)
        assert raised.value.executed == 0
        assert len(raised.value.remaining) == 3

    @pytest.mark.parametrize("executed", ["two", "-1", "", "3", "99"])
    def test_malformed_executed_is_a_classified_error(self, executed):
        class Garbled:
            def handle(self, message):
                response = error_message("half done")
                response.set("executed", executed)
                return response

        engine, _ = self.make(service=Garbled())
        with pytest.raises(GRHError) as raised:
            engine.grh.execute_action("r::a0", self.SPEC, self.THREE)
        assert isinstance(raised.value, ActionExecutionError)
        # a count that cannot be trusted credits nothing, parks everything
        assert raised.value.executed == 0
        assert len(raised.value.remaining) == 3
        assert engine.grh.stats["dead_letters"] == 1

    def test_partial_report_is_not_retried_even_when_opted_in(self):
        from repro.grh import RetryPolicy
        engine, actions = self.make(fail_on={2})
        engine.grh.resilience.default_retry = RetryPolicy(
            max_attempts=3, base_delay=0.0, retry_on_service_errors=True)
        with pytest.raises(ActionExecutionError) as raised:
            engine.grh.execute_action("r::a0", self.SPEC, self.THREE)
        # re-sending the request would run the committed prefix again
        assert raised.value.executed == 1
        assert actions.requests == 1
        assert actions.effects == ["1"]


class TestDetectionReplay:
    RULE = f"""
    <eca:rule {ECA} id="flaky">
      <eca:event><ping n="{{N}}"/></eca:event>
      <eca:query><q xmlns="{FLAKY_Q}">whatever</q></eca:query>
      <eca:action><out q="{{Q}}"/></eca:action>
    </eca:rule>
    """

    def make(self):
        service = FlakyQueryService(failing=True)
        deployment, engine = make_world([
            (LanguageDescriptor(FLAKY_Q, "query", "flaky-q"), service)])
        engine.register_rule(self.RULE)
        return deployment, engine, service

    def test_failed_detection_is_parked(self):
        deployment, engine, service = self.make()
        deployment.stream.emit(E("ping", {"n": "1"}))
        (instance,) = engine.instances
        assert instance.status == "failed"
        (letter,) = engine.grh.resilience.dead_letters
        assert letter.kind == "detection"
        assert "query backend down" in letter.error

    def test_replay_after_recovery_completes_the_rule(self):
        deployment, engine, service = self.make()
        deployment.stream.emit(E("ping", {"n": "1"}))
        service.failing = False
        summary = engine.replay_dead_letters()
        assert summary["replayed"] == 1 and summary["succeeded"] == 1
        statuses = [instance.status for instance in engine.instances]
        assert statuses == ["failed", "completed"]  # audit trail kept
        assert engine.grh.stats["dead_letters"] == 0

    def test_replay_while_still_failing_reparks(self):
        deployment, engine, service = self.make()
        deployment.stream.emit(E("ping", {"n": "1"}))
        summary = engine.replay_dead_letters()
        assert summary["failed"] == 1
        assert engine.grh.stats["dead_letters"] == 1
        # recovery after the second park still converges
        service.failing = False
        summary = engine.replay_dead_letters()
        assert summary["succeeded"] == 1
        assert engine.grh.stats["dead_letters"] == 0

    def test_successful_instances_are_not_parked(self):
        deployment, engine, service = self.make()
        service.failing = False
        deployment.stream.emit(E("ping", {"n": "1"}))
        assert engine.stats["completed"] == 1
        assert engine.grh.stats["dead_letters"] == 0
