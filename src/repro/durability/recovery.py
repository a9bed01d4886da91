"""The durable state, its transitions, and reading it back from disk.

:class:`RecoveredState` is the fold of the engine's update log: each
journal record kind changes it through one transition method.  The
:class:`~repro.durability.DurabilityManager` holds one state and applies
each record right after journaling it; :func:`read_state` applies the
last checkpoint and every intact journal record of the current epoch
through the same methods, so the live state and its read-back cannot
drift.  :meth:`repro.core.ECAEngine.recover` starts from this state:
it re-registers the rules, restores the dead-letter queue and re-drives
in-flight detections.

Replay semantics (PROTOCOL.md §7):

* a detection with a ``done`` record is finished — redelivery of its id
  is dropped, it is never re-driven;
* a detection with a ``det`` record but no ``done`` record is
  *in flight* — it is re-driven on recovery under its journaled
  instance id; every idempotency key its ``exec`` intent records
  journaled is re-dispatched under the same wire ``dedup`` key, which
  the service-side memory suppresses when the original dispatch landed;
* an in-flight detection linked to a parked dead letter (the crash hit
  the narrow window between the park and the ``done`` record) is closed
  as failed instead of re-driven — its remediation already lives in the
  dead-letter queue, and re-driving it would park a duplicate letter;
* stats are counted from ``done`` records only.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field

from ..grh.resilience import DeadLetter
from ..xmlmodel import parse, serialize
from .checkpoint import CHECKPOINT_NAME, Checkpointer
from .journal import JOURNAL_NAME, JournalReader

__all__ = ["RecoveredState", "InFlightRecord", "read_state"]


@dataclass(slots=True)
class InFlightRecord:
    """One journaled-but-unfinished detection."""

    #: the codec's encoding of the detection (``codec.py``): the JSON
    #: text as journaled live or restored from a checkpoint, the parsed
    #: object when read back from a ``det`` record — the codec's
    #: ``decode_detection`` accepts either
    data: dict | str
    #: set by the detection's first ``exec`` intent record
    instance_id: int | None = None
    #: a dead letter for this detection/instance was parked; recovery
    #: must not re-drive it (duplicate letter otherwise)
    parked: bool = False


@dataclass
class RecoveredState:
    """The durable state: rules, counters, detections, keys, letters."""

    rules: dict[str, str] = field(default_factory=dict)
    next_detection: int = 1
    max_instance: int = 0
    done: "OrderedDict[str, str]" = field(default_factory=OrderedDict)
    in_flight: "OrderedDict[str, InFlightRecord]" = \
        field(default_factory=OrderedDict)
    #: journaled idempotency keys ``(action_index, tuple_key)`` of every
    #: instance without a ``done`` record, by instance id
    executed: dict[int, set[tuple[int, str]]] = field(default_factory=dict)
    dead_letters: list[DeadLetter] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    epoch: int = 0
    #: the journal's epoch predates the checkpoint (crash between
    #: checkpoint rename and journal truncation); it was ignored
    stale_journal: bool = False

    # -- transitions ---------------------------------------------------------

    def detected(self, det_id: str, data: dict | str) -> None:
        """``det``: a detection arrived and is in flight until ``done``."""
        self.in_flight[det_id] = InFlightRecord(data)
        if det_id.startswith("engine:"):
            try:
                self.next_detection = max(self.next_detection,
                                          int(det_id[len("engine:"):]) + 1)
            except ValueError:
                pass

    def intended(self, instance_id: int, action_index: int, keys,
                 det_id: str | None) -> None:
        """``exec``: one action's tuple keys, journaled before dispatch."""
        self.executed.setdefault(instance_id, set()).update(
            [(action_index, key) for key in keys])
        if instance_id > self.max_instance:
            self.max_instance = instance_id
        entry = self.in_flight.get(det_id)
        if entry is not None:
            entry.instance_id = instance_id

    def finished(self, det_id: str, status: str, instance_id: int | None,
                 actions: int) -> None:
        """``done``: the detection's instance ended with *status* after
        *actions* credited executions (``dropped``: it never became an
        instance).  This is the only place stats are counted."""
        entry = self.in_flight.pop(det_id, None)
        if instance_id is None and entry is not None:
            instance_id = entry.instance_id
        if instance_id is not None:
            # keys are only consulted while a detection can still be
            # re-driven; dropping them keeps memory flat
            self.executed.pop(instance_id, None)
            if instance_id > self.max_instance:
                self.max_instance = instance_id
        self.done[det_id] = status
        if status != "dropped":
            stats = self.stats
            for key in ("detections", "instances", status):
                stats[key] = stats.get(key, 0) + 1
            if actions:
                stats["actions"] = stats.get("actions", 0) + actions

    def parked(self, letter: DeadLetter, det_id: str | None,
               instance_id: int | None) -> None:
        """``park``: a letter joined the queue; the in-flight detection
        it settles (named by id, or by the instance its keys belong to)
        is marked parked."""
        self.dead_letters.append(letter)
        entry = self.in_flight.get(det_id)
        if entry is not None:
            entry.parked = True
        if instance_id is not None:
            for entry in self.in_flight.values():
                if entry.instance_id == instance_id:
                    entry.parked = True

    def apply(self, record: dict) -> None:
        """Fold one journal record into the state."""
        kind = record.get("t")
        if kind == "det":
            self.detected(record["id"], record["d"])
        elif kind == "exec":
            self.intended(int(record["inst"]), int(record["a"]),
                          record["k"], record.get("id"))
        elif kind == "done":
            instance_id = record.get("inst")
            self.finished(record["id"], record["s"],
                          None if instance_id is None else int(instance_id),
                          int(record.get("n", 0)))
        elif kind == "park":
            self.parked(DeadLetter.from_xml(parse(record["xml"])),
                        record.get("det"), record.get("inst"))
        elif kind == "rule-add":
            self.rules[record["rule"]] = record["src"]
        elif kind == "rule-del":
            self.rules.pop(record["rule"], None)
        elif kind == "forget":
            self.done.pop(record["id"], None)
        elif kind == "drain":
            del self.dead_letters[:int(record["n"])]
        # unknown kinds are skipped: newer writers stay readable by being
        # additive, and a reader never hard-fails on a single odd record

    def credited(self, instance_id: int | None) -> int:
        """Executions credited to a parked in-flight instance: its
        journaled keys minus the keys its letters hold."""
        if instance_id is None:
            return 0
        prefix = f"{instance_id}:"
        held = sum(1 for letter in self.dead_letters
                   for dedup in letter.dedups or ()
                   if dedup and dedup.startswith(prefix))
        return max(len(self.executed.get(instance_id, ())) - held, 0)

    # -- checkpoint encoding -------------------------------------------------

    def snapshot(self) -> dict:
        """The checkpoint document; :meth:`from_checkpoint` inverts it."""
        return {
            "epoch": self.epoch,
            "rules": dict(self.rules),
            "next_detection": self.next_detection,
            "max_instance": self.max_instance,
            "done": list(self.done.items()),
            "in_flight": [{"id": det_id, "d": entry.data,
                           "inst": entry.instance_id, "parked": entry.parked}
                          for det_id, entry in self.in_flight.items()],
            "executed": [[inst, action, key]
                         for inst, keys in self.executed.items()
                         for action, key in sorted(keys)],
            "dlq": [serialize(letter.to_xml())
                    for letter in self.dead_letters],
            "stats": dict(self.stats),
        }

    @classmethod
    def from_checkpoint(cls, checkpoint: dict) -> "RecoveredState":
        state = cls(
            rules=dict(checkpoint.get("rules", {})),
            next_detection=int(checkpoint.get("next_detection", 1)),
            max_instance=int(checkpoint.get("max_instance", 0)),
            done=OrderedDict((det_id, status) for det_id, status
                             in checkpoint.get("done", [])),
            dead_letters=[DeadLetter.from_xml(parse(letter_xml))
                          for letter_xml in checkpoint.get("dlq", [])],
            stats=dict(checkpoint.get("stats", {})),
            epoch=int(checkpoint.get("epoch", 0)))
        for entry in checkpoint.get("in_flight", []):
            state.in_flight[entry["id"]] = InFlightRecord(
                entry["d"], entry.get("inst"), bool(entry.get("parked")))
        for inst, action, key in checkpoint.get("executed", []):
            state.intended(int(inst), int(action), (key,), None)
        return state


def read_state(directory: str) -> RecoveredState:
    """Fold ``checkpoint.json`` + ``wal.log`` into a recovered state."""
    checkpoint = Checkpointer(os.path.join(directory, CHECKPOINT_NAME)).load()
    state = RecoveredState() if checkpoint is None \
        else RecoveredState.from_checkpoint(checkpoint)
    reader = JournalReader(os.path.join(directory, JOURNAL_NAME))
    records = list(reader.records())
    if reader.epoch is not None and reader.epoch < state.epoch:
        state.stale_journal = True
        return state
    for record in records:
        state.apply(record)
    return state
