"""The durability manager: the engine's façade over journal + checkpoint.

One manager owns one durability directory (``wal.log`` +
``checkpoint.json``) and tracks, mirroring what recovery would compute
from those files:

* the sources of currently registered rules,
* completed detection ids (bounded; deduplicates at-least-once
  redelivery — "exactly-once detection replay"),
* in-flight detections (journaled on arrival, not yet completed) with
  their assigned instance ids,
* journaled idempotency keys ``(instance_id, action_index, tuple_key)``
  of in-flight instances — written *before* dispatch (one ``exec``
  intent record per action, carrying all tuple keys), carried into
  checkpoints so a re-driven instance re-dispatches under the same wire
  keys and the service-side dedup memory keeps effects exactly-once.

The engine calls in at well-defined points (see ``core/engine.py``);
everything here is synchronous and ordered, so the journal is a total
order of state transitions.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _esc
from time import perf_counter as _perf_counter

from ..grh.messages import Detection
from ..obs.metrics import Histogram
from ..xmlmodel import serialize
from .checkpoint import CHECKPOINT_NAME, Checkpointer
from .codec import encode_detection, tuple_key
from .journal import JOURNAL_NAME, Journal

__all__ = ["DurabilityManager", "tuple_key"]


class _InFlight:
    """One journaled-but-not-completed detection.

    ``data`` is the codec's detection encoding — the raw JSON text when
    the entry was journaled live (``admit`` keeps the string it framed),
    the parsed object when it was folded back from disk; the codec's
    ``decode_detection`` accepts either.
    """

    __slots__ = ("data", "instance_id", "parked")

    def __init__(self, data: dict | str, instance_id: int | None = None,
                 parked: bool = False) -> None:
        self.data = data
        self.instance_id = instance_id
        self.parked = parked


class _ActionGuard:
    """Per-(instance, action) exactly-once guard for the GRH's one
    action request.

    :meth:`begin` journals *one* ``exec`` intent record carrying every
    distinct tuple key of the relation, before the dispatch, and hands
    back the wire ``dedup`` key for each tuple (stamped on the tuple's
    ``log:answer``).  Recovery treats
    every journaled key of an instance without a ``done`` record as
    *uncertain*: the re-driven instance re-dispatches them under the
    same wire keys (journaled instance id + positional action index +
    canonical tuple digest) and the service-side dedup memory suppresses
    the ones whose original dispatch did land.  The ``done`` record is
    what retires an instance's keys — only then is redelivery dropped
    outright.
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
            # one lock span for the intent record and the in-memory key
            # set: a checkpoint racing between the two would snapshot an
            # instance whose journaled keys it does not know about
            with manager._lock:
                manager._journal_text(
                    f'{{"t":"exec","inst":{instance_id},"a":{action_index}'
                    ',"id":' + ("null" if det_id is None else _esc(det_id))
                    + ',"k":["' + '","'.join(ordered) + '"]}')
                manager.executed.setdefault(
                    instance_id, set()).update(
                        [(action_index, key) for key in ordered])
        return dedups


class DurabilityManager:
    """Journals engine state transitions and answers replay questions."""

    def __init__(self, directory: str, *, sync: str = "always",
                 checkpoint_interval: int = 1000,
                 max_remembered_detections: int = 100_000,
                 journal: Journal | None = None,
                 resume: "object | None" = None) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.checkpoint_interval = checkpoint_interval
        self.max_remembered_detections = max_remembered_detections
        self.checkpointer = Checkpointer(
            os.path.join(directory, CHECKPOINT_NAME))

        if resume is None:
            from .recovery import read_state
            resume = read_state(directory)
        self.rule_sources: dict[str, str] = dict(resume.rules)
        self.done: OrderedDict[str, str] = OrderedDict(resume.done)
        self.in_flight: dict[str, _InFlight] = {
            det_id: _InFlight(entry.data, entry.instance_id, entry.parked)
            for det_id, entry in resume.in_flight.items()}
        self.executed: dict[int, set[tuple[int, str]]] = {
            inst: set(keys) for inst, keys in resume.executed.items()}
        self.next_detection = resume.next_detection
        self.max_instance = resume.max_instance
        self.epoch = resume.epoch
        self.recovered_stats = dict(resume.stats)
        self.restored_letters = list(resume.dead_letters)

        if journal is None:
            journal = Journal(os.path.join(directory, JOURNAL_NAME),
                              sync=sync, epoch=self.epoch)
        self.journal = journal
        if self.journal.epoch != self.epoch:
            # stale pre-checkpoint journal (crash between checkpoint
            # rename and truncation): its records are already folded in
            self.journal.restart(self.epoch)
        self.records_since_checkpoint = 0
        self.engine = None
        #: serializes every journal append and all bookkeeping mutation:
        #: with a concurrent runtime, detections are admitted on producer
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
        queue.on_append = self._on_dead_letter_append
        queue.on_drain = self._on_dead_letter_drain

    def first_instance_id(self) -> int:
        return self.max_instance + 1

    def _journal(self, record: dict) -> None:
        with self._lock:
            self.journal.append(record)
            self.records_since_checkpoint += 1

    def _journal_text(self, payload: str) -> None:
        """Hot-path variant: the caller hand-assembled the JSON text."""
        with self._lock:
            self.journal.append_encoded(payload)
            self.records_since_checkpoint += 1

    # -- rule lifecycle ------------------------------------------------------

    def record_rule_registered(self, rule_id: str, source: str) -> None:
        with self._lock:
            self._journal({"t": "rule-add", "rule": rule_id, "src": source})
            self.rule_sources[rule_id] = source

    def record_rule_deregistered(self, rule_id: str) -> None:
        with self._lock:
            self._journal({"t": "rule-del", "rule": rule_id})
            self.rule_sources.pop(rule_id, None)

    # -- detection lifecycle -------------------------------------------------

    def admit(self, detection: Detection) -> Detection | None:
        """Journal an arriving detection; ``None`` for duplicates.

        Event services deliver at-least-once; a detection id already
        completed (or currently in flight) is redelivery and is dropped
        — this is the exactly-once half the journal cannot give alone.
        """
        with self._lock:
            if detection.detection_id is None:
                detection = replace(
                    detection, detection_id=f"engine:{self.next_detection}")
                self.next_detection += 1
            det_id = detection.detection_id
            if det_id in self.done or det_id in self.in_flight:
                return None
            data = encode_detection(detection)
            self._journal_text('{"t":"det","id":' + _esc(det_id)
                               + ',"d":' + data + "}")
            self.in_flight[det_id] = _InFlight(data)
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
        with self._lock:
            entry = self.in_flight.get(detection.detection_id)
            if entry is not None and entry.instance_id is not None:
                return entry.instance_id
            instance_id = next(counter)
            if entry is not None:
                entry.instance_id = instance_id
            self.max_instance = max(self.max_instance, instance_id)
            return instance_id

    def action_guard(self, instance_id: int, action_index: int,
                     detection_id: str | None) -> _ActionGuard:
        return _ActionGuard(self, instance_id, action_index, detection_id)

    def forget(self, detection_id: str) -> None:
        """Erase a completed detection id so it can be replayed on purpose.

        Used by ``replay_dead_letters``: a parked detection was marked
        done when its letter was journaled, so an intentional re-drive
        must first clear the duplicate filter.
        """
        with self._lock:
            if self.done.pop(detection_id, None) is not None:
                self._journal({"t": "forget", "id": detection_id})

    def detection_done(self, detection_id: str, status: str) -> None:
        with self._lock:
            entry = self.in_flight.pop(detection_id, None)
            inst = "null"
            if entry is not None and entry.instance_id is not None:
                inst = str(entry.instance_id)
                # keys are only consulted while a detection can still be
                # re-driven; dropping them keeps memory flat
                self.executed.pop(entry.instance_id, None)
            self._journal_text('{"t":"done","id":' + _esc(detection_id)
                               + ',"s":"' + status + '","inst":' + inst
                               + "}")
            self.done[detection_id] = status
            while len(self.done) > self.max_remembered_detections:
                self.done.popitem(last=False)
            self.journal.commit()

    # -- dead letter durability ----------------------------------------------

    def _on_dead_letter_append(self, letter) -> None:
        """Journal a parked letter, linked to the in-flight detection it
        settles: a detection letter names its detection, an action
        letter's keys name the instance that journaled them."""
        record = {"t": "park", "xml": serialize(letter.to_xml())}
        with self._lock:
            if letter.kind == "detection":
                detection = letter.detection
                det_id = detection.detection_id if detection is not None \
                    else None
                entry = self.in_flight.get(det_id)
                if entry is not None:
                    record["det"] = det_id
                    entry.parked = True
            elif letter.dedups and letter.dedups[0]:
                instance_id = int(letter.dedups[0].split(":", 1)[0])
                record["inst"] = instance_id
                for entry in self.in_flight.values():
                    if entry.instance_id == instance_id:
                        entry.parked = True
            self._journal(record)

    def _on_dead_letter_drain(self, count: int) -> None:
        self._journal({"t": "drain", "n": count})

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
        """Snapshot everything, bump the epoch, truncate the journal."""
        started = _perf_counter()
        with self._lock:
            self.epoch += 1
            self.checkpointer.write(self.snapshot())
            self.journal.restart(self.epoch)
            self.records_since_checkpoint = 0
        elapsed = _perf_counter() - started
        self.checkpoint_seconds.observe(elapsed)
        if self.checkpoint_observer is not None:
            self.checkpoint_observer(elapsed)

    def snapshot(self) -> dict:
        in_flight = [{"id": det_id, "d": entry.data,
                      "inst": entry.instance_id, "parked": entry.parked}
                     for det_id, entry in self.in_flight.items()]
        executed = [[inst, action, key]
                    for inst, keys in self.executed.items()
                    for action, key in sorted(keys)]
        letters = []
        stats: dict = dict(self.recovered_stats)
        if self.engine is not None:
            letters = [serialize(letter.to_xml()) for letter in
                       self.engine.grh.resilience.dead_letters]
            stats = dict(self.engine.stats)
        return {
            "epoch": self.epoch,
            "rules": dict(self.rule_sources),
            "next_detection": self.next_detection,
            "max_instance": self.max_instance,
            "done": list(self.done.items()),
            "in_flight": in_flight,
            "executed": executed,
            "dlq": letters,
            "stats": stats,
        }

    # -- introspection -------------------------------------------------------

    def journal_status(self) -> dict:
        """Operational snapshot of the journal, for ``/introspect/journal``
        and the ``/readyz`` writability check."""
        journal = self.journal
        return {
            "directory": self.directory,
            "sync": journal.sync,
            "epoch": self.epoch,
            "appended": journal.appended,
            "records_since_checkpoint": self.records_since_checkpoint,
            "checkpoint_interval": self.checkpoint_interval,
            "in_flight": len(self.in_flight),
            "completed": len(self.done),
            "writable": journal._file is not None
            and not journal._file.closed,
        }

    def close(self) -> None:
        self.journal.close()
