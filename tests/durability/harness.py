"""Shared harness for recovery and crash-injection tests.

Crash model: the engine process dies (``SimulatedCrash``, uncatchable
by ``except Exception``) while everything *outside* the process keeps
its state — the event-detection and action services of the paper are
autonomous, possibly remote (Sec. 4.4).  A :class:`CrashWorld` therefore
owns the long-lived halves (event stream, detection service, action
runtime with its mailboxes, the durability directory, and the captured
``log:detection`` messages that model an at-least-once delivery channel —
the wire form a broker between service and engine would carry), while
:meth:`CrashWorld.boot` builds the crashable halves fresh each time:
transport, registry, GRH, engine, durability manager.

After a crash the driver reboots, recovers, re-delivers every captured
detection (at-least-once), re-runs the idempotent setup, and finishes
the event script.  The resulting world must equal an uncrashed oracle.
"""

from __future__ import annotations

import os

from repro.actions import ACTION_NS, ActionRuntime
from repro.core import ECAEngine, parse_rule
from repro.durability import (DurabilityManager, JOURNAL_NAME, Journal,
                              SimulatedCrash)
from repro.events import ATOMIC_NS, EventStream
from repro.grh import (GenericRequestHandler, GRHError, LanguageDescriptor,
                       LanguageRegistry, detection_to_xml, xml_to_detection)
from repro.services.action_service import ActionExecutionService
from repro.services.event_service import AtomicEventService
from repro.services.transports import InProcessTransport
from repro.xmlmodel import E, ECA_NS, parse, serialize

ECA = f'xmlns:eca="{ECA_NS}"'
ACT = f'xmlns:act="{ACTION_NS}"'

#: a rule that succeeds: ping(N) → send pong(N) to the "out" mailbox
OK_RULE = f"""
<eca:rule {ECA} id="ok">
  <eca:event><ping n="{{N}}"/></eca:event>
  <eca:action>
    <act:send {ACT} to="out"><pong n="{{N}}"/></act:send>
  </eca:action>
</eca:rule>
"""

#: a rule whose action always fails (inserts into a missing document):
#: every boom(N) detection ends as one action dead letter
BAD_RULE = f"""
<eca:rule {ECA} id="bad">
  <eca:event><boom n="{{N}}"/></eca:event>
  <eca:action>
    <act:insert {ACT} document="missing" at="/x"><y n="{{N}}"/></act:insert>
  </eca:action>
</eca:rule>
"""

RULES = (OK_RULE, BAD_RULE)

#: the default event script: successes interleaved with failures
SCRIPT = (E("ping", {"n": "1"}), E("boom", {"n": "2"}),
          E("ping", {"n": "3"}), E("ping", {"n": "4"}),
          E("boom", {"n": "5"}), E("ping", {"n": "6"}))


class CrashingJournal(Journal):
    """A journal that dies on its ``fuse``-th low-level write.

    ``fuse`` counts every framed write since world start — including
    epoch records and journal restarts — so a sweep over fuse values
    visits every journaled state transition of a scenario.  ``tear``
    controls how many bytes of the fatal frame reach the file first
    (0 = nothing, models a crash just before the write; a positive
    value models a torn, partially flushed frame).
    """

    def __init__(self, path: str, fuse: int, tear: int = 0, **kwargs) -> None:
        self.fuse = fuse
        self.tear = tear
        self.writes = 0
        super().__init__(path, **kwargs)

    def _write(self, data: bytes) -> None:
        if self.writes >= self.fuse:
            if self.tear:
                super()._write(data[:self.tear])
                self._file.flush()
            raise SimulatedCrash(f"journal write #{self.writes}")
        self.writes += 1
        super()._write(data)


class CrashWorld:
    """The durable surroundings of one (crashable) engine process."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.stream = EventStream()
        self.runtime = ActionRuntime(event_stream=self.stream)
        # the harness controls the service lifetime (it survives every
        # crash), so deterministic un-namespaced detection ids are safe
        self.atomic = AtomicEventService(self._deliver, incarnation="")
        self.atomic.attach(self.stream)
        self.actions = ActionExecutionService(self.runtime)
        #: every detection the service ever handed over, in order, as a
        #: serialized log:detection — the at-least-once channel a real
        #: broker would re-deliver from
        self.captured: list[str] = []
        self._notify = None
        self.engine: ECAEngine | None = None
        self.grh: GenericRequestHandler | None = None

    def _deliver(self, detections) -> None:
        for detection in detections:
            self.captured.append(serialize(detection_to_xml(detection)))
        if self._notify is not None:
            self._notify(detections)

    # -- process lifecycle ---------------------------------------------------

    def boot(self, journal: Journal | None = None, sync: str = "none",
             checkpoint_interval: int = 10 ** 9,
             replay: bool = False, runtime=None) -> ECAEngine:
        """Start a fresh engine process over the surviving services.

        ``replay=False`` (the crash-test default) leaves in-flight
        replay to the driver; ``replay=True`` runs the full
        :meth:`ECAEngine.recover` sequence, after which the engine
        reports ready (``/readyz``).  *runtime* is handed to the
        engine as-is."""
        registry = LanguageRegistry()
        transport = InProcessTransport(serialize_messages=True)
        grh = GenericRequestHandler(registry, transport)
        grh.add_service(
            LanguageDescriptor(ATOMIC_NS, "event", "atomic-events"),
            self.atomic)
        grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                        self.actions)
        manager = DurabilityManager(self.directory, sync=sync,
                                    checkpoint_interval=checkpoint_interval,
                                    journal=journal)
        engine = ECAEngine.recover(grh, self.directory, manager=manager,
                                   replay=replay, runtime=runtime)
        self.grh = grh
        self.engine = engine
        self._notify = grh.notify
        return engine

    def crash(self) -> None:
        """The process is gone: close the journal, detach the services."""
        self._notify = None
        if self.engine is not None and self.engine.durability is not None:
            self.engine.durability.journal.close()
        self.engine = None
        self.grh = None

    # -- application code (re-runnable after recovery) -----------------------

    def setup_rules(self, rules=RULES) -> None:
        """Register the scenario's rules; idempotent across recoveries."""
        for markup in rules:
            rule = parse_rule(markup)
            if rule.rule_id not in self.engine.rules:
                self.engine.register_rule(rule, idempotent=True)

    def redeliver(self) -> None:
        """At-least-once redelivery of every captured detection."""
        for xml in list(self.captured):
            self._notify([xml_to_detection(parse(xml))])

    def run_script(self, script=SCRIPT, start: int = 0) -> int:
        """Emit ``script[start:]``; returns the index to resume from
        after a crash (the crashed emit counts as delivered iff its
        detection reached the at-least-once channel)."""
        for index in range(start, len(script)):
            seen = len(self.captured)
            try:
                self.stream.emit(script[index].copy())
            except SimulatedCrash:
                raise _ScriptCrash(
                    index + 1 if len(self.captured) > seen else index
                ) from None
        return len(script)

    # -- observable state ----------------------------------------------------

    def effects(self) -> dict[str, list[str]]:
        """Every externally visible action effect, per mailbox."""
        return {name: sorted(serialize(message.content)
                             for message in messages)
                for name, messages in self.runtime.mailboxes.items()}

    def dead_letters(self) -> list[str]:
        return sorted(serialize(letter.to_xml())
                      for letter in self.grh.resilience.dead_letters)

    def state(self) -> dict:
        return {"rules": sorted(self.engine.rules),
                "dead_letters": self.dead_letters(),
                "effects": self.effects(),
                "stats": dict(self.engine.stats)}


class _ScriptCrash(SimulatedCrash):
    """A SimulatedCrash annotated with where to resume the script."""

    def __init__(self, resume: int) -> None:
        super().__init__(f"resume at {resume}")
        self.resume = resume


def run_oracle(directory: str, script=SCRIPT, rules=RULES) -> dict:
    """The same scenario without any crash; returns its final state."""
    world = CrashWorld(directory)
    world.boot()
    world.setup_rules(rules)
    world.run_script(script)
    return world.state()


def run_crashing(directory: str, fuse: int, tear: int = 0, script=SCRIPT,
                 rules=RULES) -> "tuple[dict, bool]":
    """Run the scenario, crashing at journal write ``fuse``; recover
    once, finish the scenario, and return (final state, crashed)."""
    world = CrashWorld(directory)
    resume = 0
    crashed = False
    try:
        journal = CrashingJournal(os.path.join(directory, JOURNAL_NAME),
                                  fuse=fuse, tear=tear, sync="none")
        world.boot(journal=journal)
        world.setup_rules(rules)
        resume = world.run_script(script)
    except _ScriptCrash as crash:
        crashed = True
        resume = crash.resume
        world.crash()
    except SimulatedCrash:
        # died during boot/setup before any event was emitted
        crashed = True
        world.crash()
    if crashed:
        world.boot()                # plain journal: recover for real
        world.engine._replay_in_flight()
        world.setup_rules(rules)    # idempotent application setup
        world.redeliver()           # at-least-once channel re-delivers
        world.run_script(script, start=resume)
    return world.state(), crashed


__all__ = ["CrashWorld", "CrashingJournal", "run_oracle", "run_crashing",
           "OK_RULE", "BAD_RULE", "RULES", "SCRIPT", "GRHError"]
