"""Engine robustness: batch edge cases, atomic store+register, replay
attribution, the synchronous scheduler's contracts (concurrent
producers, escaping exceptions, checkpoint points), and the
priority-bucketed detection queue."""

import sys
import threading
from collections import Counter

import pytest

from repro.actions import ACTION_NS
from repro.core import (ECAEngine, EngineError, RuleRepository,
                        RuleValidationError)
from repro.durability import DurabilityManager
from repro.grh import (ComponentSpec, Detection, LanguageDescriptor,
                       error_message)
from repro.grh.resilience import DeadLetter
from repro.runtime.pool import _DetectionQueue
from repro.bindings import Binding, Relation
from repro.services import standard_deployment
from repro.xmlmodel import E, ECA_NS

ECA = f'xmlns:eca="{ECA_NS}"'
ACT = f'xmlns:act="{ACTION_NS}"'


def send_rule(rule_id="r1", event="ping", recipient="out", priority=None):
    attr = f' priority="{priority}"' if priority is not None else ""
    return f"""
    <eca:rule {ECA} id="{rule_id}"{attr}>
      <eca:event><{event} n="{{N}}"/></eca:event>
      <eca:action>
        <act:send {ACT} to="{recipient}"><pong n="{{N}}"/></act:send>
      </eca:action>
    </eca:rule>
    """


def failing_rule(rule_id="bad", event="boom"):
    return f"""
    <eca:rule {ECA} id="{rule_id}">
      <eca:event><{event} n="{{N}}"/></eca:event>
      <eca:action>
        <act:insert {ACT} document="missing" at="/x"><y/></act:insert>
      </eca:action>
    </eca:rule>
    """


@pytest.fixture()
def world():
    deployment = standard_deployment()
    return deployment, ECAEngine(deployment.grh)


class TestBatchEdgeCases:
    def test_exception_escaping_batch_still_drains_exactly_once(self, world):
        deployment, engine = world
        engine.register_rule(send_rule())
        with pytest.raises(RuntimeError, match="boom"):
            with engine.batch():
                deployment.stream.emit(E("ping", {"n": "1"}))
                assert engine.stats["instances"] == 0  # deferred
                raise RuntimeError("boom")
        # the queued detection was evaluated despite the exception
        assert engine.stats["instances"] == 1
        assert len(deployment.runtime.messages("out")) == 1
        assert not engine.runtime.caller_busy

    def test_nested_batch_defers_to_the_outermost(self, world):
        deployment, engine = world
        engine.register_rule(send_rule())
        with engine.batch():
            with engine.batch():
                deployment.stream.emit(E("ping", {"n": "1"}))
            # the inner exit must not drain: the outer batch is open
            assert engine.stats["instances"] == 0
            deployment.stream.emit(E("ping", {"n": "2"}))
        assert engine.stats["instances"] == 2
        assert not engine.runtime.caller_busy

    def test_emission_after_failed_batch_still_works(self, world):
        deployment, engine = world
        engine.register_rule(send_rule())
        with pytest.raises(ValueError):
            with engine.batch():
                raise ValueError()
        deployment.stream.emit(E("ping", {"n": "3"}))
        assert engine.stats["instances"] == 1


class TestRegisterAndStore:
    def test_success_registers_and_persists(self, world):
        _, engine = world
        repository = RuleRepository()
        assert engine.register_and_store(send_rule(), repository) == "r1"
        assert "r1" in engine.rules
        assert repository.rule_ids() == ["r1"]

    def test_validation_failure_rolls_back_the_store(self, world):
        _, engine = world
        repository = RuleRepository()
        bad = f"""
        <eca:rule {ECA} id="bad">
          <eca:event><ping/></eca:event>
          <eca:action><pong n="{{Unbound}}"/></eca:action>
        </eca:rule>"""
        with pytest.raises(RuleValidationError):
            engine.register_and_store(bad, repository)
        assert repository.rule_ids() == []
        assert "bad" not in engine.rules

    def test_duplicate_registration_rolls_back_the_store(self, world):
        _, engine = world
        repository = RuleRepository()
        engine.register_rule(send_rule())
        with pytest.raises(EngineError, match="already registered"):
            engine.register_and_store(send_rule(), repository)
        assert repository.rule_ids() == []

    def test_service_failure_rolls_back_the_store(self, world):
        from repro.grh import GRHError
        _, engine = world
        repository = RuleRepository()

        def unreachable(component_id, spec, idempotent=False):
            raise GRHError("event service unreachable")

        engine.grh.register_event_component = unreachable
        with pytest.raises(GRHError, match="unreachable"):
            engine.register_and_store(send_rule(), repository)
        assert repository.rule_ids() == []
        assert "r1" not in engine.rules


class TestReplayAttribution:
    def test_chained_failure_is_not_charged_to_the_replayed_letter(
            self, world):
        """A detection letter whose own rule succeeds on replay counts
        as succeeded, even when an instance it *chains into* fails."""
        deployment, engine = world
        engine.register_rule(f"""
        <eca:rule {ECA} id="chainer">
          <eca:event><ping n="{{N}}"/></eca:event>
          <eca:action>
            <act:raise {ACT}><boom n="{{N}}"/></act:raise>
          </eca:action>
        </eca:rule>""")
        engine.register_rule(failing_rule())
        detection = Detection("chainer::event", 0.0, 0.0,
                              Relation([Binding({"N": "1"})]), ())
        deployment.grh.resilience.dead_letters.append(DeadLetter(
            kind="detection", error="injected", detection=detection))
        summary = engine.replay_dead_letters()
        # the chainer completed; only the chained 'bad' instance failed
        assert summary["replayed"] == 1
        assert summary["succeeded"] == 1
        assert summary["failed"] == 0
        assert engine.stats["failed"] == 1  # the chained instance, globally
        statuses = {i.rule_id: i.status for i in engine.instances}
        assert statuses == {"chainer": "completed", "bad": "failed"}

    def test_letter_whose_own_rule_fails_counts_failed(self, world):
        deployment, engine = world
        engine.register_rule(failing_rule())
        detection = Detection("bad::event", 0.0, 0.0,
                              Relation([Binding({"N": "1"})]), ())
        deployment.grh.resilience.dead_letters.append(DeadLetter(
            kind="detection", error="injected", detection=detection))
        summary = engine.replay_dead_letters()
        assert summary["failed"] == 1
        assert summary["succeeded"] == 0

    def test_letter_for_deregistered_rule_counts_succeeded(self, world):
        deployment, engine = world
        detection = Detection("gone::event", 0.0, 0.0,
                              Relation([Binding({"N": "1"})]), ())
        deployment.grh.resilience.dead_letters.append(DeadLetter(
            kind="detection", error="injected", detection=detection))
        summary = engine.replay_dead_letters()
        assert summary == {"replayed": 1, "succeeded": 1, "failed": 0,
                           "deferred": 0, "actions": 0}


DOWN_LANG = "urn:test:down-query"


def querying_rule(rule_id="asks", event="ask"):
    """A rule whose query goes to the DOWN_LANG service."""
    return f"""
    <eca:rule {ECA} id="{rule_id}">
      <eca:event><{event} n="{{N}}"/></eca:event>
      <eca:query><q xmlns="{DOWN_LANG}">anything</q></eca:query>
      <eca:action>
        <act:send {ACT} to="out"><pong n="{{N}}"/></act:send>
      </eca:action>
    </eca:rule>
    """


class DownQueryService:
    """Answers every query with ``log:error``: each instance of
    :func:`querying_rule` fails before its actions, as a detection
    letter."""

    def handle(self, message):
        return error_message("down for maintenance")


class TestReplayOutcomes:
    def parked_detection(self, world):
        deployment, engine = world
        deployment.grh.add_service(
            LanguageDescriptor(DOWN_LANG, "query", "down"),
            DownQueryService())
        engine.register_rule(querying_rule())
        deployment.stream.emit(E("ask", {"n": "1"}))
        (letter,) = deployment.grh.resilience.dead_letters
        assert letter.kind == "detection" and letter.attempts == 1
        return deployment.grh.resilience.dead_letters

    def test_replay_inside_a_batch_is_deferred_not_succeeded(self, world):
        """The replayed detection only queues behind the open batch: its
        instance runs at batch exit, fails there and parks again."""
        deployment, engine = world
        queue = self.parked_detection(world)
        with engine.batch():
            summary = engine.replay_dead_letters()
            assert len(queue) == 0      # settled; the instance is queued
        assert summary == {"replayed": 1, "succeeded": 0, "failed": 0,
                           "deferred": 1, "actions": 0}
        assert engine.stats["failed"] == 2
        assert len(queue) == 1

    def test_attempts_count_replays_of_a_detection(self, world):
        deployment, engine = world
        queue = self.parked_detection(world)
        for _ in range(2):
            assert engine.replay_dead_letters()["failed"] == 1
        (letter,) = queue
        assert letter.attempts == 3
        assert letter.to_xml().get("attempts") == "3"

    def test_attempts_count_replays_of_an_action_suffix(self, world):
        deployment, engine = world
        engine.register_rule(failing_rule())
        deployment.stream.emit(E("boom", {"n": "1"}))
        queue = deployment.grh.resilience.dead_letters
        (first,) = queue
        for _ in range(2):
            assert engine.replay_dead_letters()["failed"] == 1
        (letter,) = queue
        assert letter.attempts == 3
        assert letter.seq == first.seq + 2      # each replacement parks
        assert list(letter.bindings) == list(first.bindings)

    def test_replay_without_a_route_keeps_the_letter(self, world):
        """An action whose language has no route reaches no service:
        nothing ran and nothing re-parked, so the letter stays as it
        is."""
        deployment, engine = world
        queue = deployment.grh.resilience.dead_letters
        queue.append(DeadLetter(
            kind="action", error="injected", component_id="gone::action-0",
            spec=ComponentSpec("action", "urn:test:unrouted", opaque="do"),
            bindings=Relation([Binding({"N": "1"})])))
        summary = engine.replay_dead_letters()
        assert summary == {"replayed": 1, "succeeded": 0, "failed": 1,
                           "deferred": 0, "actions": 0}
        (letter,) = queue
        assert letter.seq == 1 and letter.attempts == 1


def raise_rule(rule_id, event, raised):
    """A rule whose actions raise one event per name in *raised*."""
    actions = "".join(
        f'<eca:action><act:raise {ACT}><{name} n="{{N}}"/></act:raise>'
        f"</eca:action>" for name in raised)
    return f"""
    <eca:rule {ECA} id="{rule_id}">
      <eca:event><{event} n="{{N}}"/></eca:event>
      {actions}
    </eca:rule>
    """


class TestSynchronousScheduler:
    def test_concurrent_producers_evaluate_each_detection_once(self, world):
        """Eight threads emit into a synchronous engine at once: every
        detection is evaluated exactly once, never two at a time, and
        none is stranded once every emit has returned."""
        deployment, engine = world
        engine.register_rule(send_rule())
        lock = threading.Lock()
        seen: list[str] = []
        state = {"running": 0, "overlaps": 0}
        original = engine._handle

        def spy(detection, *rest):
            with lock:
                state["running"] += 1
                if state["running"] > 1:
                    state["overlaps"] += 1
                seen.append(detection.detection_id)
            try:
                original(detection, *rest)
            finally:
                with lock:
                    state["running"] -= 1

        engine._handle = spy
        producers, per_producer = 8, 25

        def produce(base):
            for n in range(base, base + per_producer):
                deployment.stream.emit(E("ping", {"n": str(n)}))

        threads = [threading.Thread(target=produce, args=(i * per_producer,))
                   for i in range(producers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        total = producers * per_producer
        assert not any(thread.is_alive() for thread in threads)
        assert state["overlaps"] == 0
        assert len(seen) == total and len(set(seen)) == total
        assert engine.stats["instances"] == total
        assert sorted(int(m.content.get("n")) for m in
                      deployment.runtime.messages("out")) == list(range(total))

    def test_concurrent_producers_of_groups_evaluate_each_once(self, world):
        """The same, with three rules per event: every event's group is
        evaluated whole or queued detection by detection, never two
        evaluations at once, and every detection exactly once."""
        deployment, engine = world
        for rule_id in ("g1", "g2", "g3"):
            engine.register_rule(send_rule(rule_id))
        lock = threading.Lock()
        seen: list[str] = []
        state = {"running": 0, "overlaps": 0}

        original = engine._handle_group

        # a whole group and a detection queued behind a busy permit
        # (through _handle) both arrive here
        def spy(detections, *rest):
            with lock:
                state["running"] += 1
                if state["running"] > 1:
                    state["overlaps"] += 1
                seen.extend(d.detection_id for d in detections)
            try:
                original(detections, *rest)
            finally:
                with lock:
                    state["running"] -= 1

        engine._handle_group = spy
        producers, per_producer = 8, 25

        def produce(base):
            for n in range(base, base + per_producer):
                deployment.stream.emit(E("ping", {"n": str(n)}))

        threads = [threading.Thread(target=produce, args=(i * per_producer,))
                   for i in range(producers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        total = 3 * producers * per_producer
        assert not any(thread.is_alive() for thread in threads)
        assert state["overlaps"] == 0
        assert len(seen) == total and len(set(seen)) == total
        assert engine.stats["instances"] == total
        assert engine.stats["actions"] == total
        assert Counter(int(m.content.get("n")) for m in
                       deployment.runtime.messages("out")) \
            == Counter({n: 3 for n in range(producers * per_producer)})

    def test_escaping_exception_reaches_the_producer(self, world):
        """An exception raised inside an evaluation reaches the emit
        caller; the detections queued behind it run on the next emit."""
        deployment, engine = world
        engine.register_rule(raise_rule("chainer", "ping", ("a", "b")))
        engine.register_rule(send_rule("ra", event="a", recipient="out-a"))
        engine.register_rule(send_rule("rb", event="b", recipient="out-b"))
        original = engine._handle
        exploded = []

        def explode_once(detection, *rest):
            if detection.component_id == "ra::event" and not exploded:
                exploded.append(detection)
                raise RuntimeError("evaluation blew up")
            original(detection, *rest)

        engine._handle = explode_once
        with pytest.raises(RuntimeError, match="blew up"):
            deployment.stream.emit(E("ping", {"n": "1"}))
        # the chainer ran and queued a and b; a blew up, b still waits
        assert [i.rule_id for i in engine.instances] == ["chainer"]
        assert deployment.runtime.messages("out-b") == []
        deployment.stream.emit(E("b", {"n": "2"}))
        assert [m.content.get("n") for m in
                deployment.runtime.messages("out-b")] == ["1", "2"]
        assert deployment.runtime.messages("out-a") == []
        assert [i.rule_id for i in engine.instances] == \
            ["chainer", "rb", "rb"]

    def test_chained_detection_runs_after_the_current_instance(self, world):
        deployment, engine = world
        engine.register_rule(raise_rule("chainer", "ping", ("a",)))
        engine.register_rule(send_rule("ra", event="a", recipient="out-a"))
        running: list[str] = []
        nested = []
        original = engine._handle

        def spy(detection, *rest):
            if running:
                nested.append((running[-1], detection.component_id))
            running.append(detection.component_id)
            try:
                original(detection, *rest)
            finally:
                running.pop()

        engine._handle = spy
        deployment.stream.emit(E("ping", {"n": "1"}))
        assert nested == []
        assert [i.rule_id for i in engine.instances] == ["chainer", "ra"]

    def test_checkpoints_wait_for_an_emptied_queue(self, tmp_path):
        """register_rule/deregister_rule inside an evaluation skip the
        checkpoint; the emptied queue takes one (maybe_checkpoint, never
        the fsyncing commit barrier)."""
        deployment = standard_deployment()
        manager = DurabilityManager(str(tmp_path), sync="none",
                                    checkpoint_interval=1)
        engine = ECAEngine(deployment.grh, durability=manager)
        engine.register_rule(send_rule())
        calls: list[str] = []
        inside: list[int] = []
        maybe_checkpoint = manager.maybe_checkpoint

        def spy_checkpoint():
            calls.append("inside" if inside else "after")
            return maybe_checkpoint()

        manager.maybe_checkpoint = spy_checkpoint
        manager.commit_barrier = lambda: calls.append("barrier")
        original = engine._handle

        def spy(detection, *rest):
            inside.append(1)
            try:
                original(detection, *rest)
                engine.register_rule(send_rule("r2", event="other"))
                engine.deregister_rule("r2")
            finally:
                inside.pop()

        engine._handle = spy
        deployment.stream.emit(E("ping", {"n": "1"}))
        assert calls == ["after"]
        assert engine.drain(1) is True
        assert calls == ["after", "after"]
        manager.close()


class TestDetectionQueue:
    def test_priority_order_with_fifo_within_level(self):
        queue = _DetectionQueue()
        order = [(0, "a"), (5, "b"), (0, "c"), (9, "d"), (5, "e")]
        for priority, tag in order:
            queue.push(priority, tag)
        assert len(queue) == 5
        popped = [queue.pop() for _ in range(len(queue))]
        assert popped == ["d", "b", "e", "a", "c"]
        assert not queue

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            _DetectionQueue().pop()

    def test_interleaved_push_pop_keeps_heap_consistent(self):
        queue = _DetectionQueue()
        queue.push(1, "a")
        queue.push(2, "b")
        assert queue.pop() == "b"
        queue.push(2, "c")
        queue.push(0, "d")
        assert [queue.pop() for _ in range(3)] == ["c", "a", "d"]

    def test_negative_priorities_sort_below_default(self):
        queue = _DetectionQueue()
        queue.push(-3, "low")
        queue.push(0, "mid")
        queue.push(3, "high")
        assert [queue.pop() for _ in range(3)] == ["high", "mid", "low"]

    def test_batched_emission_processes_by_priority(self):
        deployment = standard_deployment()
        engine = ECAEngine(deployment.grh)
        for rule_id, priority in (("p1", 1), ("p5", 5), ("p3", 3)):
            engine.register_rule(send_rule(rule_id, event=f"ev{priority}",
                                           recipient=rule_id,
                                           priority=priority))
        with engine.batch():
            deployment.stream.emit(E("ev1", {"n": "1"}))
            deployment.stream.emit(E("ev3", {"n": "1"}))
            deployment.stream.emit(E("ev5", {"n": "1"}))
        assert [i.rule_id for i in engine.instances] == ["p5", "p3", "p1"]
