"""Recovery semantics: rule rebuild, dedupe, DLQ restore, exactly-once."""

import json
import os
from dataclasses import replace

import pytest

from repro.actions import ACTION_NS
from repro.core import ECAEngine, RuleRepository
from repro.durability import (CHECKPOINT_NAME, DurabilityManager,
                              JOURNAL_NAME, read_state)
from repro.grh import xml_to_detection
from repro.services import standard_deployment
from repro.xmlmodel import E, ECA_NS, parse, serialize

from .harness import BAD_RULE, OK_RULE, CrashWorld, CrashingJournal, RULES


@pytest.fixture()
def directory(tmp_path):
    return str(tmp_path / "durable")


def crash_at(directory, fuse, script, rules=RULES, tear=0):
    """Run ``script`` against a fresh world, crashing at journal write
    ``fuse``; returns the (detached) world."""
    from repro.durability import SimulatedCrash
    world = CrashWorld(directory)
    try:
        journal = CrashingJournal(os.path.join(directory, JOURNAL_NAME),
                                  fuse=fuse, tear=tear, sync="none")
        world.boot(journal=journal)
        world.setup_rules(rules)
        world.run_script(script)
    except SimulatedCrash:
        world.crash()
        return world
    raise AssertionError("scenario finished without crashing")


class TestReadState:
    def test_empty_directory_reads_as_fresh(self, directory):
        os.makedirs(directory)
        state = read_state(directory)
        assert state.rules == {}
        assert state.next_detection == 1
        assert not state.in_flight and not state.done
        assert state.epoch == 0

    def test_journal_off_is_the_default(self):
        deployment = standard_deployment()
        engine = ECAEngine(deployment.grh)
        assert engine.durability is None
        engine.register_rule(OK_RULE)
        deployment.stream.emit(E("ping", {"n": "1"}))
        assert engine.stats["completed"] == 1


def assert_read_back_equals(directory, state):
    """``read_state`` over the files equals the live state, field by
    field (in-flight data compared decoded: live entries keep the
    journaled JSON text, read-back ones the parsed object)."""
    back = read_state(directory)
    for name in ("rules", "next_detection", "max_instance", "done",
                 "executed", "stats", "epoch"):
        assert getattr(back, name) == getattr(state, name), name

    def in_flight(entries):
        return {det_id: (json.loads(entry.data)
                         if isinstance(entry.data, str) else entry.data,
                         entry.instance_id, entry.parked)
                for det_id, entry in entries.items()}
    assert in_flight(back.in_flight) == in_flight(state.in_flight)
    assert [serialize(letter.to_xml()) for letter in back.dead_letters] \
        == [serialize(letter.to_xml()) for letter in state.dead_letters]


class TestLiveStateIsItsReadBack:
    def test_every_transition_reads_back_equal(self, directory):
        world = CrashWorld(directory)
        world.boot(sync="always")
        manager = world.engine.durability
        state = manager.state
        world.setup_rules()                                 # rule-add
        assert_read_back_equals(directory, state)
        # det/exec/done for a ping, det/exec/park/done for a boom
        world.run_script((E("ping", {"n": "1"}), E("boom", {"n": "2"})))
        assert state.stats["actions"] == 1 and state.stats["failed"] == 1
        assert_read_back_equals(directory, state)
        # an anonymous detection admitted, its intent journaled, a
        # letter parked for it, and nothing finished yet
        (raw,) = world.captured[:1]
        pending = manager.admit(replace(xml_to_detection(parse(raw)),
                                        detection_id=None))
        assert pending.detection_id == "engine:1"
        manager.action_guard(9, 0, "engine:1").begin(pending.bindings)
        world.grh.dead_letter_detection(pending, "parked by hand")
        assert state.in_flight["engine:1"].instance_id == 9
        assert state.in_flight["engine:1"].parked
        assert len(state.dead_letters) == 2
        assert_read_back_equals(directory, state)
        # a checkpoint encodes all of it
        manager.checkpoint()
        assert state.epoch == 1
        assert_read_back_equals(directory, state)
        # drain one letter, forget a finished id, finish the pending one
        world.grh.resilience.dead_letters.drain(1)
        manager.forget("atomic-event-matcher:1")
        manager.detection_done("engine:1", "failed", 9, 1)
        assert not state.in_flight and not state.executed
        assert_read_back_equals(directory, state)
        world.run_script((E("ping", {"n": "3"}),))
        assert state.stats["completed"] == 2
        assert state.stats["failed"] == 2 and state.stats["actions"] == 3
        assert_read_back_equals(directory, state)


class TestRuleRebuild:
    def test_rules_reload_from_journaled_source(self, directory):
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules()
        world.crash()
        world.boot()
        assert sorted(world.engine.rules) == ["bad", "ok"]
        # the surviving event service was not double-registered
        assert sorted(world.atomic.registered_ids) == ["bad::event",
                                                       "ok::event"]

    def test_repository_is_authoritative_when_present(self, directory):
        deployment = standard_deployment()
        manager = DurabilityManager(directory, sync="none")
        engine = ECAEngine(deployment.grh, durability=manager)
        repository = RuleRepository()
        engine.register_and_store(OK_RULE, repository)
        manager.close()

        fresh = standard_deployment()
        recovered = ECAEngine.recover(fresh.grh, directory,
                                      repository=repository)
        assert sorted(recovered.rules) == ["ok"]
        fresh.stream.emit(E("ping", {"n": "9"}))
        assert recovered.stats["completed"] == 1

    def test_deregistered_rules_stay_gone(self, directory):
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules()
        world.engine.deregister_rule("bad")
        world.crash()
        world.boot()
        assert sorted(world.engine.rules) == ["ok"]


class TestDetectionDedupe:
    def test_duplicate_delivery_is_dropped(self, directory):
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules()
        world.run_script((E("ping", {"n": "1"}),))
        assert len(world.captured) == 1
        world.redeliver()
        world.redeliver()
        assert world.effects() == {"out": ['<pong n="1"/>']}
        assert world.engine.stats["instances"] == 1

    def test_dedupe_survives_recovery(self, directory):
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules()
        world.run_script((E("ping", {"n": "1"}),))
        world.crash()
        world.boot()
        world.setup_rules()
        world.redeliver()
        assert world.effects() == {"out": ['<pong n="1"/>']}

    def test_engine_assigns_ids_to_unstamped_detections(self, directory):
        from repro.grh.messages import xml_to_detection
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules()
        world.run_script((E("ping", {"n": "1"}),))
        raw = parse(world.captured[0])
        raw.attributes.pop(next(a for a in raw.attributes
                                if a.local == "detection-id"))
        anonymous = xml_to_detection(raw)
        assert anonymous.detection_id is None
        # same payload, no id: the engine stamps one
        world._notify([anonymous])
        assert world.engine.stats["instances"] == 2
        assert world.engine.durability.state.next_detection == 2


class TestInFlightReplay:
    def test_incomplete_detection_is_redriven(self, directory):
        # writes: epoch, rule-add, det — the crash hits the exec record,
        # so the detection is journaled but no effect was dispatched
        world = crash_at(directory, fuse=3, script=(E("ping", {"n": "1"}),),
                         rules=(OK_RULE,))
        assert world.effects() == {}
        world.boot()
        world.engine._replay_in_flight()
        assert world.effects() == {"out": ['<pong n="1"/>']}

    def test_journaled_exec_keys_are_not_reexecuted(self, directory):
        # a two-tuple detection, crash while the service runs the second
        # tuple of the request: the intent record covers both keys, the
        # first tuple really executed, the second never ran; recovery
        # re-dispatches both under their journaled wire keys and the
        # service-side
        # dedup memory suppresses the first — each effect lands exactly
        # once
        from repro.bindings import Binding, Relation
        from repro.durability import SimulatedCrash
        from repro.grh.messages import Detection, detection_to_xml
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules((OK_RULE,))
        real_action = world.actions.action
        calls = {"n": 0}

        def crashing_action(request, binding):
            calls["n"] += 1
            if calls["n"] == 2:
                raise SimulatedCrash("second tuple")
            real_action(request, binding)

        world.actions.action = crashing_action
        detection = Detection("ok::event", 0.0, 0.0,
                              Relation([Binding({"N": "1"}),
                                        Binding({"N": "2"})]), (),
                              detection_id="manual:1")
        world.captured.append(serialize(detection_to_xml(detection)))
        with pytest.raises(SimulatedCrash):
            world._notify([detection])
        world.crash()
        # the first tuple's effect landed before the crash
        assert world.effects() == {"out": ['<pong n="1"/>']}
        world.boot()
        world.engine._replay_in_flight()
        world.redeliver()
        assert world.effects() == {"out": ['<pong n="1"/>',
                                           '<pong n="2"/>']}

    def test_parked_in_flight_closes_as_failed_without_duplicate_letter(
            self, directory):
        # BAD_RULE parks an action letter, then the crash hits the done
        # record (writes: epoch, rule-add, det, exec, park): recovery
        # must keep the letter and NOT re-drive
        world = crash_at(directory, fuse=5,
                         script=(E("boom", {"n": "1"}),), rules=(BAD_RULE,))
        world.boot()
        world.engine._replay_in_flight()
        assert len(world.grh.resilience.dead_letters) == 1
        manager = world.engine.durability
        assert manager.state.done.get("atomic-event-matcher:1") == "failed"

    def test_parked_close_counts_what_the_uncrashed_run_counted(
            self, tmp_path):
        # first action runs, the second parks; the crash hits the done
        # record (writes: epoch, rule-add, det, exec, exec, park)
        script = (E("twice", {"n": "1"}),)
        oracle = CrashWorld(str(tmp_path / "oracle"))
        oracle.boot()
        oracle.setup_rules((TWO_ACTION_RULE,))
        oracle.run_script(script)
        world = crash_at(str(tmp_path / "crash"), fuse=6, script=script,
                         rules=(TWO_ACTION_RULE,))
        world.boot()
        world.engine._replay_in_flight()
        assert world.engine.stats["actions"] == 1
        assert world.engine.stats == oracle.engine.stats
        assert world.engine.durability.state.stats == \
            {"detections": 1, "instances": 1, "failed": 1, "actions": 1}


TWO_ACTION_RULE = f"""
<eca:rule xmlns:eca="{ECA_NS}" id="two">
  <eca:event><twice n="{{N}}"/></eca:event>
  <eca:action>
    <act:send xmlns:act="{ACTION_NS}" to="out"><pong n="{{N}}"/></act:send>
  </eca:action>
  <eca:action>
    <act:insert xmlns:act="{ACTION_NS}" document="missing" at="/x"><y/>
    </act:insert>
  </eca:action>
</eca:rule>
"""


class TestDeadLetterDurability:
    def test_queue_restores_across_recovery(self, directory):
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules()
        world.run_script((E("boom", {"n": "1"}), E("boom", {"n": "2"})))
        before = world.dead_letters()
        assert len(before) == 2
        stats = dict(world.engine.stats)
        world.crash()
        world.boot()
        assert world.dead_letters() == before
        # a failed tuple's exec key is no credited action
        assert world.engine.stats == stats

    def test_restored_action_letters_replay(self, directory):
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules()
        world.run_script((E("boom", {"n": "7"}),))
        world.crash()
        world.boot()
        # the missing document appears: replay can now succeed
        world.runtime.register_document("missing", parse("<x/>"))
        summary = world.engine.replay_dead_letters()
        assert summary == {"replayed": 1, "succeeded": 1, "failed": 0,
                           "actions": 1}
        assert len(world.grh.resilience.dead_letters) == 0
        assert serialize(world.runtime.documents["missing"]) == \
            '<x><y n="7"/></x>'

    def lose_first_action_answer(self, world):
        handle = world.actions.handle
        pending = [1]

        def lossy(message):
            response = handle(message)
            if pending:
                pending.pop()
                raise ConnectionResetError("answer lost (simulated)")
            return response
        world.grh.transport.bind("svc:actions", lossy)

    def test_replay_sends_the_keys_the_tuples_were_parked_with(
            self, directory):
        # the service executes, the transport loses the answer: the
        # tuple is parked as uncertain *under its key*, so the replay is
        # suppressed by the service instead of running the effect twice
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules((OK_RULE,))
        self.lose_first_action_answer(world)
        world.run_script((E("ping", {"n": "1"}),))
        assert world.effects() == {"out": ['<pong n="1"/>']}
        assert world.engine.stats["actions"] == 0       # nobody heard
        (letter,) = world.grh.resilience.dead_letters
        assert letter.dedups is not None and all(letter.dedups)
        summary = world.engine.replay_dead_letters()
        assert summary == {"replayed": 1, "succeeded": 1, "failed": 0,
                           "actions": 1}
        assert world.effects() == {"out": ['<pong n="1"/>']}    # once

    def test_parked_keys_survive_checkpoint_and_recovery(self, directory):
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules((OK_RULE,))
        self.lose_first_action_answer(world)
        world.run_script((E("ping", {"n": "1"}),))
        (letter,) = world.grh.resilience.dead_letters
        world.engine.durability.checkpoint()
        world.crash()
        world.boot()
        (restored,) = world.grh.resilience.dead_letters
        assert restored.dedups == letter.dedups
        assert world.engine.replay_dead_letters()["succeeded"] == 1
        assert world.effects() == {"out": ['<pong n="1"/>']}    # once

    def test_drained_letters_stay_drained(self, directory):
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules()
        world.run_script((E("boom", {"n": "1"}),))
        world.runtime.register_document("missing", parse("<x/>"))
        world.engine.replay_dead_letters()
        world.crash()
        world.boot()
        assert world.dead_letters() == []


class TestCheckpointing:
    def test_auto_checkpoint_compacts_the_journal(self, directory):
        world = CrashWorld(directory)
        world.boot(checkpoint_interval=5)
        world.setup_rules()
        script = tuple(E("ping", {"n": str(n)}) for n in range(1, 9))
        world.run_script(script)
        manager = world.engine.durability
        assert manager.checkpointer.taken >= 1
        assert manager.state.epoch >= 1
        # the journal was truncated: pre-checkpoint records (e.g. the
        # rule registrations) now live only in the checkpoint
        from repro.durability import JournalReader
        records = list(JournalReader(
            os.path.join(directory, JOURNAL_NAME)).records())
        assert not any(record["t"] == "rule-add" for record in records)
        world.crash()
        world.boot()
        assert sorted(world.engine.rules) == ["bad", "ok"]
        assert world.engine.stats["completed"] == 8

    def test_stale_journal_is_ignored(self, directory):
        # crash window between checkpoint rename and journal restart:
        # the journal's records are already folded into the checkpoint
        world = CrashWorld(directory)
        world.boot()
        world.setup_rules()
        world.run_script((E("ping", {"n": "1"}),))
        manager = world.engine.durability
        manager.state.epoch += 1
        manager.checkpointer.write(manager.state.snapshot())
        world.crash()   # journal restart never happened
        state = read_state(directory)
        assert state.stale_journal
        world.boot()
        world.setup_rules()
        world.redeliver()
        assert world.effects() == {"out": ['<pong n="1"/>']}
        assert world.engine.stats["completed"] == 1

    def test_recovery_takes_a_compacting_checkpoint(self, directory):
        deployment = standard_deployment()
        manager = DurabilityManager(directory, sync="none")
        engine = ECAEngine(deployment.grh, durability=manager)
        engine.register_rule(OK_RULE)
        deployment.stream.emit(E("ping", {"n": "1"}))
        manager.close()
        fresh = standard_deployment()
        ECAEngine.recover(fresh.grh, directory)
        assert os.path.exists(os.path.join(directory, CHECKPOINT_NAME))
