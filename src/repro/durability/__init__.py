"""Crash-safe durability for the ECA engine (PROTOCOL.md §7).

The paper treats rules as persistent Semantic-Web resources (Sec. 2)
and makes the engine the keeper of "state information during the
evaluation" (Sec. 4); transactional update logics for reactive rules
(ECA-RuleML, the Reaction RuleML processing-space survey) argue that
such state must survive failures.  This package gives the reproduction
that property:

* :mod:`~repro.durability.journal` — an append-only, CRC-checked,
  optionally fsync'd write-ahead journal of every state transition:
  rule (de)registrations, detection arrivals, one intent record per
  action (every tuple key, before dispatch), instance outcomes with
  their credited action counts, and each dead letter's park and
  settlement;
* :mod:`~repro.durability.checkpoint` — a compacting checkpointer that
  atomically snapshots engine + dead-letter state and truncates the
  journal (epoch-numbered so a crash between snapshot and truncation is
  harmless);
* :mod:`~repro.durability.manager` — the engine-facing façade: assigns
  monotonic detection ids, deduplicates at-least-once redelivery, and
  enforces exactly-once action effects via
  ``(instance_id, action_index, tuple_key)`` idempotency keys journaled
  before dispatch;
* :mod:`~repro.durability.recovery` — the durable state itself and its
  transitions, which the manager applies as it journals and recovery
  applies as it reads checkpoint + journal back; surfaced as
  :meth:`repro.core.ECAEngine.recover`.

Durability is opt-in: the engine's default constructor journals
nothing, so existing callers are unaffected.
"""

from .checkpoint import CHECKPOINT_NAME, Checkpointer
from .journal import (JOURNAL_NAME, Journal, JournalCorruption, JournalReader,
                      SimulatedCrash)
from .manager import DurabilityManager, tuple_key
from .recovery import RecoveredState, read_state

__all__ = [
    "Journal", "JournalReader", "JournalCorruption", "SimulatedCrash",
    "JOURNAL_NAME", "CHECKPOINT_NAME", "Checkpointer",
    "DurabilityManager", "tuple_key",
    "RecoveredState", "read_state",
]
