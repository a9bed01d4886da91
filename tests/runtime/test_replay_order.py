"""Dead-letter replay is deterministic under concurrent parking."""

import threading

from repro.grh import LanguageDescriptor, error_message
from repro.grh.resilience import DeadLetter, DeadLetterQueue
from repro.runtime import Runtime
from repro.bindings import Relation, relation_to_answers

from .harness import build_world
from repro.domain import WorkloadConfig, booking_payloads
from repro.domain.workload import TRAVEL_NS, simple_rule_markup
from repro.grh.messages import Detection
from repro.xmlmodel import ECA_NS


def _letter(n: int) -> DeadLetter:
    return DeadLetter(kind="detection", error=f"e{n}", attempts=1)


class TestDeadLetterQueueOrdering:
    def test_seq_stamped_in_append_order(self):
        queue = DeadLetterQueue()
        for n in range(5):
            queue.append(_letter(n))
        assert [letter.seq for letter in queue] == [1, 2, 3, 4, 5]

    def test_drain_returns_journal_sequence_order(self):
        queue = DeadLetterQueue()
        for n in range(8):
            queue.append(_letter(n))
        drained = queue.drain()
        assert [letter.seq for letter in drained] == list(range(1, 9))

    def test_concurrent_parking_yields_consistent_replay_order(self):
        """However the racing appends interleave, drain order always
        equals seq order, and journal hooks fired in the same order."""
        queue = DeadLetterQueue()
        journal_order = []
        queue.on_append = lambda letter: journal_order.append(letter.seq)
        threads = [threading.Thread(
            target=lambda base=base: [queue.append(_letter(base + n))
                                      for n in range(25)])
            for base in (0, 100, 200, 300)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5)
        assert len(queue) == 100
        # the journal saw seqs in stamping order (the queue's hook lock
        # spans stamp + hook, so the orders cannot diverge)
        assert journal_order == sorted(journal_order)
        drained = queue.drain()
        assert [letter.seq for letter in drained] == sorted(
            letter.seq for letter in drained)

    def test_restore_preserves_recovered_order(self):
        queue = DeadLetterQueue()
        fired = []
        queue.on_append = lambda letter: fired.append(letter)
        letters = [_letter(n) for n in range(4)]
        queue.restore(letters)
        assert not fired                       # hooks bypassed
        assert [letter.seq for letter in queue.drain()] == [1, 2, 3, 4]

    def test_overflow_still_drops_oldest(self):
        queue = DeadLetterQueue(max_size=3)
        for n in range(5):
            queue.append(_letter(n))
        assert queue.dropped == 2
        assert [letter.seq for letter in queue.drain()] == [3, 4, 5]


class TestReplayAttribution:
    def test_replay_captures_its_own_instance_not_a_concurrent_one(self):
        """Regression: the replay observer used to capture the first
        instance created by ANY thread; an instance a runtime worker
        created for an unrelated detection mid-replay was mis-attributed
        to the letter.  The observer now matches the exact detection
        object being replayed."""
        deployment, engine = build_world(None)
        engine.register_rule(simple_rule_markup("replayed"))
        engine.register_rule(simple_rule_markup("bystander"))
        bindings = Relation([{"Person": "alice", "To": "oslo"}])
        target = Detection("replayed::event", 0.0, 1.0, bindings,
                           detection_id="dT")
        other = Detection("bystander::event", 0.0, 1.0, bindings,
                          detection_id="dO")
        original = engine._handle

        def interleaving(detection, *rest):
            if detection is target:
                # simulate a concurrent worker creating an unrelated
                # instance while the replay's detection is being handled
                original(other)
            original(detection, *rest)

        engine._handle = interleaving
        instance = engine._replay_detection(target)
        assert instance is not None
        assert instance.rule_id == "replayed"


FLAKY_LANG = "urn:test:replay-flaky"


class _SwitchableService:
    """Fails every query until ``healthy`` flips to True."""

    def __init__(self):
        self.healthy = False

    def handle(self, message):
        if not self.healthy:
            return error_message("down for maintenance")
        return relation_to_answers(Relation([{"Q": "up"}]))


class TestReplayUnderRuntime:
    def test_concurrent_failures_replay_deterministically(self):
        deployment, engine = build_world(Runtime(workers=4))
        service = _SwitchableService()
        deployment.grh.add_service(
            LanguageDescriptor(FLAKY_LANG, "query", "replay-flaky"),
            service)
        engine.register_rule(f"""
        <eca:rule xmlns:eca="{ECA_NS}" id="flaky">
          <eca:event>
            <travel:booking xmlns:travel="{TRAVEL_NS}"
                            person="{{Person}}" to="{{To}}"/>
          </eca:event>
          <eca:query><q xmlns="{FLAKY_LANG}">whatever</q></eca:query>
          <eca:action><out q="{{Q}}"/></eca:action>
        </eca:rule>""")
        try:
            for payload in booking_payloads(WorkloadConfig(seed=3), 10):
                deployment.stream.emit(payload)
            assert engine.drain(30)
            assert engine.stats["failed"] == 10
            letters = list(deployment.grh.resilience.dead_letters)
            assert len(letters) == 10
            # parked from racing workers, yet seq is a total order and
            # iteration respects arrival
            assert sorted(letter.seq for letter in letters) == \
                [letter.seq for letter in letters]
            service.healthy = True
            summary = engine.replay_dead_letters()
        finally:
            engine.shutdown(5)
        assert summary["replayed"] == 10
        assert summary["succeeded"] == 10
        assert len(deployment.grh.resilience.dead_letters) == 0
