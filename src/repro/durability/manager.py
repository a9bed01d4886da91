"""The durability manager: the engine's façade over journal + checkpoint.

One manager owns one durability directory (``wal.log`` +
``checkpoint.json``) and its durable state, a
:class:`~repro.durability.RecoveredState` read back from that directory
when the manager is built.  Each change is journaled first and then
applied through the transition :func:`read_state` applies to the same
record, so the live state always equals what recovery would compute:
rule sources, completed detection ids (bounded; they drop at-least-once
redelivery), in-flight detections, the ``exec`` keys of unfinished
instances, the dead-letter queue and the stats of ``done`` records.

The engine calls in at well-defined points (see ``core/engine.py``);
everything here is synchronous and ordered, so the journal is a total
order of state transitions.
"""

from __future__ import annotations

import os
import threading
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _esc
from time import perf_counter as _perf_counter

from ..grh.messages import Detection
from ..grh.resilience import DeadLetter
from ..obs.metrics import Histogram
from .checkpoint import CHECKPOINT_NAME, Checkpointer
from .codec import encode_detection, encode_letter, tuple_key
from .journal import JOURNAL_NAME, Journal
from .recovery import read_state

__all__ = ["DurabilityManager", "tuple_key"]


class _ActionGuard:
    """Per-(instance, action) exactly-once guard for the GRH's one
    action request.

    :meth:`begin` journals *one* ``exec`` intent record carrying every
    distinct tuple key of the relation, before the dispatch, and hands
    back the wire ``dedup`` key for each tuple (stamped on the tuple's
    ``log:answer``): journaled instance id + positional action index +
    canonical tuple digest, so a re-driven instance re-dispatches under
    the same keys and the service suppresses those that already landed.
    """

    __slots__ = ("_manager", "_instance_id", "_action_index",
                 "_detection_id")

    def __init__(self, manager: "DurabilityManager", instance_id: int,
                 action_index: int, detection_id: str | None) -> None:
        self._manager = manager
        self._instance_id = instance_id
        self._action_index = action_index
        self._detection_id = detection_id

    def begin(self, tuples) -> list:
        """Journal the intent record; returns one ``dedup`` key per
        tuple, ``None`` for a duplicate tuple (one effect per distinct
        tuple — the caller leaves it out of the request)."""
        instance_id = self._instance_id
        action_index = self._action_index
        prefix = f"{instance_id}:{action_index}:"
        ordered: list[str] = []
        seen = set()
        dedups: list = []
        for binding in tuples:
            key = tuple_key(binding)
            if key in seen:
                dedups.append(None)
                continue
            seen.add(key)
            ordered.append(key)
            dedups.append(prefix + key)
        if ordered:
            manager = self._manager
            det_id = self._detection_id
            # one lock span for the intent record and its transition: a
            # checkpoint racing between the two would snapshot an
            # instance whose journaled keys it does not know about
            with manager._lock:
                manager.journal.append_encoded(
                    f'{{"t":"exec","inst":{instance_id},"a":{action_index}'
                    ',"id":' + ("null" if det_id is None else _esc(det_id))
                    + ',"k":["' + '","'.join(ordered) + '"]}')
                manager.state.intended(instance_id, action_index, ordered,
                                       det_id)
        return dedups


class DurabilityManager:
    """Journals engine state transitions and answers replay questions."""

    def __init__(self, directory: str, *, sync: str = "always",
                 checkpoint_interval: int = 1000,
                 max_remembered_detections: int = 100_000,
                 journal: Journal | None = None) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.checkpoint_interval = checkpoint_interval
        self.max_remembered_detections = max_remembered_detections
        self.checkpointer = Checkpointer(
            os.path.join(directory, CHECKPOINT_NAME))
        #: the durable state (``recovery.py``), continued from disk
        self.state = read_state(directory)
        epoch = self.state.epoch
        if journal is None:
            journal = Journal(os.path.join(directory, JOURNAL_NAME),
                              sync=sync, epoch=epoch)
        self.journal = journal
        if journal.epoch != epoch:
            # stale pre-checkpoint journal (crash between checkpoint
            # rename and truncation): its records are already folded in
            journal.restart(epoch)
        self._appended_at_checkpoint = journal.appended
        self.engine = None
        #: serializes every journal append and state transition: with a
        #: concurrent runtime, detections are admitted on producer
        #: threads while worker shards journal intents and completions —
        #: the journal must stay a total order of state transitions.
        #: Reentrant because a checkpoint taken inside a journaling call
        #: path re-enters (e.g. ``commit_barrier`` → ``maybe_checkpoint``).
        self._lock = threading.RLock()
        #: duration (seconds) of every checkpoint
        self.checkpoint_seconds = Histogram()
        #: also called with each checkpoint's duration when set; the
        #: ledger harness (``benchmarks/ledger/deploy.py``) collects
        #: them through it
        self.checkpoint_observer = None

    # -- wiring --------------------------------------------------------------

    def attach(self, engine) -> None:
        """Bind to the engine and make its dead-letter queue durable."""
        self.engine = engine
        queue = engine.grh.resilience.dead_letters
        queue.on_park = self._on_park
        queue.on_settle = self._on_settle

    @property
    def records_since_checkpoint(self) -> int:
        return self.journal.appended - self._appended_at_checkpoint

    def _journal(self, record: dict) -> None:
        """Journal a cold-path record and apply it to the state."""
        with self._lock:
            self.journal.append(record)
            self.state.apply(record)

    # -- rule lifecycle ------------------------------------------------------

    def record_rule_registered(self, rule_id: str, source: str) -> None:
        self._journal({"t": "rule-add", "rule": rule_id, "src": source})

    def record_rule_deregistered(self, rule_id: str) -> None:
        self._journal({"t": "rule-del", "rule": rule_id})

    # -- detection lifecycle -------------------------------------------------

    def admit(self, detection: Detection,
              replayed: DeadLetter | None = None) -> Detection | None:
        """Journal an arriving detection; ``None`` for duplicates.

        Event services deliver at-least-once; a detection id already
        completed (or currently in flight) is redelivery and is dropped
        — this is the exactly-once half the journal cannot give alone.
        A detection re-driven from its dead letter *replayed* passes a
        completed id: its ``det`` record carries the letter's ``seq``
        (``r``), which settles the letter and clears the id from
        ``done``.
        """
        with self._lock:
            state = self.state
            if detection.detection_id is None:
                detection = replace(
                    detection,
                    detection_id=f"engine:{state.next_detection}")
            det_id = detection.detection_id
            if det_id in state.in_flight or (replayed is None
                                             and det_id in state.done):
                return None
            data = encode_detection(detection)
            seq = None if replayed is None else replayed.seq
            self.journal.append_encoded(
                '{"t":"det","id":' + _esc(det_id) + ',"d":' + data
                + ("}" if seq is None else ',"r":' + str(seq) + "}"))
            state.detected(det_id, data, seq)
            return detection

    def instance_for(self, detection: Detection, counter) -> int:
        """The instance id for this detection — the journaled one when
        re-driving recovered work (so idempotency keys stay stable),
        otherwise a fresh id from the engine's counter.

        Assignment itself is not journaled: an instance only matters to
        recovery once it has journaled effects, and the ``exec`` and
        ``done`` records carry the instance id themselves.  An instance
        that crashed before either record has no durable footprint — no
        idempotency key, no dispatched ``dedup`` key (dispatch happens
        only after the ``exec`` intent is journaled) — so its id can be
        re-minted safely."""
        entry = self.state.in_flight.get(detection.detection_id)
        if entry is not None and entry.instance_id is not None:
            return entry.instance_id
        return next(counter)

    def action_guard(self, instance_id: int, action_index: int,
                     detection_id: str | None) -> _ActionGuard:
        return _ActionGuard(self, instance_id, action_index, detection_id)

    def detection_done(self, detection_id: str, status: str,
                       instance_id: int | None = None,
                       actions: int = 0) -> None:
        """Journal a detection's outcome: its instance's status and the
        action executions the engine credited it (``dropped`` when it
        never became an instance)."""
        with self._lock:
            self.journal.append_encoded(
                '{"t":"done","id":' + _esc(detection_id) + ',"s":"' + status
                + '","inst":' + ("null" if instance_id is None
                                 else str(instance_id))
                + ',"n":' + str(actions) + "}")
            state = self.state
            state.finished(detection_id, status, instance_id, actions)
            while len(state.done) > self.max_remembered_detections:
                state.done.popitem(last=False)
            self.journal.commit()

    # -- dead letter durability ----------------------------------------------

    def _on_park(self, letter: DeadLetter,
                 replaces: DeadLetter | None) -> None:
        """Journal a parked letter, linked to the in-flight detection it
        settles (a detection letter names its detection, an action
        letter's keys name the instance that journaled them) and to the
        letter it replaces, which the record settles."""
        head = '{"t":"park","seq":' + str(letter.seq)
        replaced = None
        if replaces is not None:
            replaced = replaces.seq
            head += ',"replaces":' + str(replaced)
        det_id = instance_id = None
        with self._lock:
            if letter.kind == "detection":
                if letter.detection is not None and \
                        letter.detection.detection_id in self.state.in_flight:
                    det_id = letter.detection.detection_id
                    head += ',"det":' + _esc(det_id)
            elif letter.dedups and letter.dedups[0]:
                instance_id = int(letter.dedups[0].split(":", 1)[0])
                head += ',"inst":' + str(instance_id)
            self.journal.append_encoded(head + ',"l":' + encode_letter(letter)
                                        + "}")
            self.state.parked(letter, det_id, instance_id, replaced)

    def _on_settle(self, letter: DeadLetter, actions: int) -> None:
        """Journal a settled letter and the tuples its replay ran — unless
        the journal already settled it (a replayed detection's ``det``
        record does)."""
        with self._lock:
            if letter.seq in self.state.dead_letters:
                self._journal({"t": "settle", "seq": letter.seq,
                               "n": actions})

    # -- checkpointing -------------------------------------------------------

    def commit_barrier(self) -> None:
        """Flush the journal to disk and compact if due.

        The concurrent runtime calls this once per :meth:`drain` after
        the last worker goes idle: every record journaled by any shard
        is committed before drain returns, so a crash after a completed
        drain can never lose acknowledged work.
        """
        with self._lock:
            self.journal.commit()
            self.maybe_checkpoint()

    def maybe_checkpoint(self) -> bool:
        with self._lock:
            if self.records_since_checkpoint < self.checkpoint_interval:
                return False
            self.checkpoint()
            return True

    def checkpoint(self) -> None:
        """Snapshot the state, bump the epoch, truncate the journal."""
        started = _perf_counter()
        with self._lock:
            state = self.state
            state.epoch += 1
            if self.engine is not None:
                # the engine's counters also hold what no record carries
                # (evictions): rebase on them
                state.stats = dict(self.engine.stats)
            self.checkpointer.write(state.snapshot())
            self.journal.restart(state.epoch)
            self._appended_at_checkpoint = self.journal.appended
        elapsed = _perf_counter() - started
        self.checkpoint_seconds.observe(elapsed)
        if self.checkpoint_observer is not None:
            self.checkpoint_observer(elapsed)

    # -- introspection -------------------------------------------------------

    def journal_status(self) -> dict:
        """Operational snapshot of the journal, for ``/introspect/journal``
        and the ``/readyz`` writability check."""
        journal = self.journal
        return {
            "directory": self.directory,
            "sync": journal.sync,
            "epoch": self.state.epoch,
            "appended": journal.appended,
            "records_since_checkpoint": self.records_since_checkpoint,
            "checkpoint_interval": self.checkpoint_interval,
            "in_flight": len(self.state.in_flight),
            "completed": len(self.state.done),
            "writable": journal._file is not None
            and not journal._file.closed,
        }

    def close(self) -> None:
        self.journal.close()
