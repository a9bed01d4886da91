"""Crash-injection sweep: kill the engine at every journal write.

For every kill point the recovered world must equal an uncrashed
oracle: same rule table, same dead-letter queue, and the same per-tuple
action-effect multiset — zero effects duplicated, zero lost — even
though the delivery channel re-delivers every detection (at-least-once)
and the application re-runs its setup after recovery.
"""

import json
import os
import threading

import pytest

from repro.actions import ACTION_NS
from repro.core import ECAEngine
from repro.durability import DurabilityManager, JOURNAL_NAME, SimulatedCrash
from repro.durability.checkpoint import CHECKPOINT_NAME
from repro.runtime import Runtime
from repro.services import standard_deployment
from repro.xmlmodel import E, ECA_NS

from .harness import CrashWorld, CrashingJournal, run_crashing, run_oracle

SEED = int(os.environ.get("DURABILITY_SEED", "0"))


def total_journal_writes(tmp_path) -> int:
    """How many journal writes the uncrashed scenario performs."""
    directory = str(tmp_path / "probe")
    world = CrashWorld(directory)
    journal = CrashingJournal(os.path.join(directory, JOURNAL_NAME),
                              fuse=10 ** 9, sync="none")
    world.boot(journal=journal)
    world.setup_rules()
    world.run_script()
    return journal.writes


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    return run_oracle(str(tmp_path_factory.mktemp("oracle")))


class TestKillPointSweep:
    def test_every_kill_point_recovers_to_oracle(self, tmp_path, oracle):
        writes = total_journal_writes(tmp_path)
        assert writes > 20  # the scenario really exercises the journal
        for fuse in range(writes):
            for tear in (0, 3):
                directory = str(tmp_path / f"crash-{fuse}-{tear}")
                state, crashed = run_crashing(directory, fuse=fuse,
                                              tear=tear)
                assert crashed, f"fuse {fuse} never fired"
                assert state == oracle, \
                    f"divergence at kill point {fuse} (tear {tear})"

    def test_seeded_random_kill_points_with_checkpoints(self, tmp_path,
                                                        oracle):
        """Same sweep, randomized (fixed seed) and with aggressive
        checkpointing so kill points also land inside checkpoint
        truncation — the stale-journal window."""
        import random
        rng = random.Random(SEED)
        writes = total_journal_writes(tmp_path)
        for case in range(12):
            fuse = rng.randrange(writes + 4)  # a few land mid-checkpoint
            tear = rng.choice((0, 1, 3, 7))
            directory = str(tmp_path / f"ckpt-{case}")
            world = CrashWorld(directory)
            resume, crashed = 0, False
            try:
                journal = CrashingJournal(
                    os.path.join(directory, JOURNAL_NAME),
                    fuse=fuse, tear=tear, sync="none")
                world.boot(journal=journal, checkpoint_interval=5)
                world.setup_rules()
                resume = world.run_script()
            except SimulatedCrash as crash:
                crashed = True
                resume = getattr(crash, "resume", 0)
                world.crash()
            if crashed:
                world.boot(checkpoint_interval=5)
                world.engine._replay_in_flight()
                world.setup_rules()
                world.redeliver()
                world.run_script(start=resume)
            assert world.state() == oracle, \
                f"divergence at seeded kill point {fuse} (tear {tear})"


class TestRecoveryOntoWorkerRuntime:
    def test_every_kill_point_recovers_with_running_lanes(
            self, tmp_path, oracle, monkeypatch):
        """Crash at every kill point, then ``recover`` onto a two-worker
        runtime: the replay runs on the recovering thread, the
        checkpoint taken after it holds no in-flight record, and once
        the script finishes on the lanes every effect is the oracle's,
        each exactly once."""
        writes = total_journal_writes(tmp_path)
        handled_by: list[threading.Thread] = []
        handle = ECAEngine._handle

        def spy(engine, detection, *rest):
            handled_by.append(threading.current_thread())
            return handle(engine, detection, *rest)

        replayed = 0
        for fuse in range(writes):
            directory = str(tmp_path / f"lanes-{fuse}")
            world = CrashWorld(directory)
            resume = 0
            try:
                journal = CrashingJournal(
                    os.path.join(directory, JOURNAL_NAME), fuse=fuse,
                    sync="none")
                world.boot(journal=journal)
                world.setup_rules()
                world.run_script()
                pytest.fail(f"fuse {fuse} never fired")
            except SimulatedCrash as crash:
                resume = getattr(crash, "resume", 0)
                world.crash()
            handled_by.clear()
            monkeypatch.setattr(ECAEngine, "_handle", spy)
            try:
                engine = world.boot(replay=True, runtime=Runtime(workers=2))
            finally:
                monkeypatch.undo()
            try:
                assert all(thread is threading.current_thread()
                           for thread in handled_by), \
                    f"replay left the recovering thread at kill point {fuse}"
                replayed += len(handled_by)
                with open(os.path.join(directory, CHECKPOINT_NAME),
                          encoding="utf-8") as checkpoint:
                    assert json.load(checkpoint)["in_flight"] == [], \
                        f"in-flight record survived recovery at {fuse}"
                world.setup_rules()
                world.redeliver()
                world.run_script(start=resume)
                assert engine.drain(10)
                assert world.effects() == oracle["effects"], \
                    f"effects diverged at kill point {fuse}"
                assert sorted(engine.rules) == oracle["rules"]
                assert len(world.dead_letters()) == \
                    len(oracle["dead_letters"])
            finally:
                engine.shutdown(5)
                engine.durability.close()
        assert replayed > 0  # some kill points left work in flight

    def test_replay_wider_than_the_lane_queue(self, tmp_path):
        """More in-flight detections than the lanes' queue capacity,
        each raising an event when replayed: the replay waits on the
        recovering thread, outside the lanes' admission count, so every
        chained detection is admitted under the default ``block`` policy
        and recovery finishes with each effect once."""
        directory = str(tmp_path / "wide")
        in_flight = 8
        deployment = standard_deployment()
        manager = DurabilityManager(directory, sync="none")
        engine = ECAEngine(deployment.grh, durability=manager)
        engine.register_rule(_RELAY_RULES["chainer"])
        engine.register_rule(_RELAY_RULES["relay"])
        # the process dies before evaluating anything it admitted
        engine._handle = lambda detection, waited=None: None
        for n in range(in_flight):
            deployment.stream.emit(E("ping", {"n": str(n)}))
        assert len(manager.state.in_flight) == in_flight
        manager.close()

        survivor = standard_deployment()
        runtime = Runtime(workers=1, queue_capacity=2)
        recovered = []
        thread = threading.Thread(
            target=lambda: recovered.append(ECAEngine.recover(
                survivor.grh, directory, sync="none", runtime=runtime)),
            daemon=True)
        thread.start()
        thread.join(30)
        assert not thread.is_alive(), "recovery hung on the lanes' gate"
        engine = recovered[0]
        try:
            assert engine.drain(10)
            assert sorted(int(m.content.get("n")) for m in
                          survivor.runtime.messages("out")) == \
                list(range(in_flight))
            assert runtime.completed == in_flight
            assert runtime.rejected == runtime.dropped == 0
            with open(os.path.join(directory, CHECKPOINT_NAME),
                      encoding="utf-8") as checkpoint:
                assert json.load(checkpoint)["in_flight"] == []
        finally:
            engine.shutdown(5)
            engine.durability.close()


_RELAY_RULES = {
    "chainer": f"""
    <eca:rule xmlns:eca="{ECA_NS}" id="chainer">
      <eca:event><ping n="{{N}}"/></eca:event>
      <eca:action><act:raise xmlns:act="{ACTION_NS}"><pong n="{{N}}"/>
      </act:raise></eca:action>
    </eca:rule>""",
    "relay": f"""
    <eca:rule xmlns:eca="{ECA_NS}" id="relay">
      <eca:event><pong n="{{N}}"/></eca:event>
      <eca:action><act:send xmlns:act="{ACTION_NS}" to="out">
      <done n="{{N}}"/></act:send></eca:action>
    </eca:rule>""",
}


class TestDoubleCrash:
    def test_crash_during_recovery_replay(self, tmp_path, oracle):
        """A second kill while recovery is re-driving in-flight work
        must still converge after a third, clean recovery."""
        directory = str(tmp_path / "double")
        world = CrashWorld(directory)
        resume = 0
        try:
            journal = CrashingJournal(os.path.join(directory, JOURNAL_NAME),
                                      fuse=14, sync="none")
            world.boot(journal=journal)
            world.setup_rules()
            resume = world.run_script()
        except SimulatedCrash as crash:
            resume = getattr(crash, "resume", 0)
            world.crash()
        # recovery attempt #1 dies mid-replay
        second = CrashingJournal(os.path.join(directory, JOURNAL_NAME),
                                 fuse=4, sync="none")
        try:
            world.boot(journal=second)
            world.engine._replay_in_flight()
            world.setup_rules()
            world.redeliver()
            world.run_script(start=resume)
            pytest.skip("second fuse never fired")  # pragma: no cover
        except SimulatedCrash as crash:
            resume = getattr(crash, "resume", resume)
            world.crash()
        # recovery attempt #2 runs clean
        world.boot()
        world.engine._replay_in_flight()
        world.setup_rules()
        world.redeliver()
        world.run_script(start=resume)
        assert world.state() == oracle
