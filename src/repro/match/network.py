"""The discrimination network: alpha indexing and beta routing.

A Rete-style (Forgy) two-stage structure shared by all event-detection
services (PROTOCOL.md §13):

* **Alpha stage** — every *unique* leaf pattern (by canonical identity,
  :func:`~repro.match.analyzer.pattern_identity`) owns one
  :class:`AlphaNode`, hash-bucketed under its home
  :class:`~repro.match.analyzer.LeafKey`.  An incoming event derives its
  probe keys, looks up only the matching buckets, and each candidate
  node runs its pattern test **once** — its result (the alpha memory
  for this event) is shared by every registered component that uses an
  equivalent leaf.
* **Beta stage** — a fired alpha node routes the event to the composite
  detectors subscribed to it; detectors none of whose leaves fired are
  never touched.  The per-event cost is therefore proportional to the
  *affected* components, not the registered population.
* **Fallback bucket** — trees the analyzer cannot prove event-driven
  (``snoop:periodic``, unknown detector types) are offered every event,
  preserving the linear path's semantics exactly.

Ordering guarantee: candidates are delivered in **registration order**
(the order a linear scan of the registration dict would visit them), so
detection sequences — and the service's monotonically assigned
detection ids — are byte-for-byte identical to the linear path.

The network itself is not synchronized; the owning service serializes
``insert``/``remove``/``route``/``pollable`` under its lock.
"""

from __future__ import annotations

import itertools
import threading

from ..events.base import Event, Occurrence
from ..events.snoop import Atomic, Detector
from ..events.xchange import PatternQuery
from ..obs.metrics import Histogram
from .analyzer import (Analysis, LeafKey, analyze, compile_pattern,
                       pattern_identity, probe_keys)

__all__ = ["AlphaNode", "DiscriminationNetwork", "Candidate",
           "CANDIDATE_BUCKETS"]

#: histogram buckets for candidates-per-event — the quantity the whole
#: subsystem exists to keep small (candidate counts, not seconds)
CANDIDATE_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                     250.0, 1000.0, 10000.0)

#: (component_id, detector, shared occurrences or None) — ``route``'s
#: per-candidate result; occurrences are pre-computed only when the
#: component's whole detector *is* the shared leaf (alpha-memory reuse)
Candidate = tuple  # (str, Detector, list[Occurrence] | None)


class AlphaNode:
    """One unique leaf pattern and the components subscribed to it."""

    __slots__ = ("key", "identity", "pattern", "subscribers",
                 "_memo_event", "_memo_occurrence")

    def __init__(self, key: LeafKey, identity: str, pattern) -> None:
        self.key = key
        self.identity = identity
        self.pattern = pattern
        #: entry seq → _Entry; insertion does not matter (routing sorts)
        self.subscribers: dict[int, "_Entry"] = {}
        self._memo_event: Event | None = None
        self._memo_occurrence: Occurrence | None = None

    def test(self, event: Event) -> Occurrence | None:
        """Match ``event`` once; memoized per event object (the shared
        alpha memory — N subscribers cost one match, not N)."""
        if self._memo_event is not event:
            self._memo_event = event
            self._memo_occurrence = self.pattern.match(event)
        return self._memo_occurrence


class _Entry:
    """One registered component inside the network."""

    __slots__ = ("component_id", "detector", "seq", "nodes", "fallback",
                 "reason", "leaf")

    def __init__(self, component_id: str, detector: Detector,
                 seq: int) -> None:
        self.component_id = component_id
        self.detector = detector
        self.seq = seq
        self.nodes: list[AlphaNode] = []   # unique nodes this entry uses
        self.fallback = False
        self.reason: str | None = None
        #: set when the whole detector is one bare leaf sharing
        #: ``nodes[0]``'s pattern — its feed result IS the alpha memory
        self.leaf: AlphaNode | None = None


class DiscriminationNetwork:
    """Incrementally maintained index over registered detectors."""

    def __init__(self, service_name: str = "event-detection") -> None:
        self.service_name = service_name
        self._buckets: dict[LeafKey, dict[str, AlphaNode]] = {}
        self._nodes: dict[str, AlphaNode] = {}        # identity → node
        self._entries: dict[str, _Entry] = {}         # registration order
        self._fallback: dict[str, _Entry] = {}        # registration order
        self._seq = itertools.count()
        # lifetime counters for instrumentation (§13 observability)
        self.events_routed = 0
        self.candidates_delivered = 0
        self.last_candidates = 0
        self.alpha_tests = 0
        #: candidate-set size per routed event
        self.candidates = Histogram(CANDIDATE_BUCKETS)
        self._lock = threading.Lock()  # guards counters read by scrapes

    # -- registration churn ------------------------------------------------

    def insert(self, component_id: str, detector: Detector) -> Analysis:
        """Index one component; O(leaves), no rebuild of existing state."""
        if component_id in self._entries:
            self.remove(component_id)
        entry = _Entry(component_id, detector, next(self._seq))
        analysis = analyze(detector)
        if analysis.fallback:
            entry.fallback = True
            entry.reason = analysis.reason
            self._fallback[component_id] = entry
        else:
            seen: set[str] = set()
            for pattern in analysis.patterns:
                identity = pattern_identity(pattern)
                if identity in seen:
                    continue
                seen.add(identity)
                node = self._nodes.get(identity)
                if node is None:
                    node = AlphaNode(compile_pattern(pattern), identity,
                                     pattern)
                    self._nodes[identity] = node
                    self._buckets.setdefault(node.key, {})[identity] = node
                node.subscribers[entry.seq] = entry
                entry.nodes.append(node)
            if (type(detector) in (Atomic, PatternQuery)
                    and len(entry.nodes) == 1):
                entry.leaf = entry.nodes[0]
        self._entries[component_id] = entry
        return analysis

    def remove(self, component_id: str) -> bool:
        """Drop one component; empty alpha nodes and buckets go with it."""
        entry = self._entries.pop(component_id, None)
        if entry is None:
            return False
        self._fallback.pop(component_id, None)
        for node in entry.nodes:
            node.subscribers.pop(entry.seq, None)
            if not node.subscribers:
                self._nodes.pop(node.identity, None)
                bucket = self._buckets.get(node.key)
                if bucket is not None:
                    bucket.pop(node.identity, None)
                    if not bucket:
                        del self._buckets[node.key]
        return True

    def clear(self) -> None:
        for component_id in list(self._entries):
            self.remove(component_id)

    def __contains__(self, component_id: str) -> bool:
        return component_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def component_ids(self) -> list[str]:
        return list(self._entries)

    # -- routing -----------------------------------------------------------

    def route(self, event: Event) -> list[Candidate]:
        """The components this event must be offered to, in registration
        order, with shared alpha-memory occurrences where reusable."""
        fired: dict[int, _Entry] = {}
        occurrences: dict[int, Occurrence] = {}
        tests = 0
        for key in probe_keys(event.payload):
            bucket = self._buckets.get(key)
            if not bucket:
                continue
            for node in bucket.values():
                tests += 1
                occurrence = node.test(event)
                if occurrence is None:
                    continue
                for seq, entry in node.subscribers.items():
                    fired[seq] = entry
                    if entry.leaf is node:
                        occurrences[seq] = occurrence
        ordered: list[tuple[int, Candidate]] = []
        for entry in self._fallback.values():
            ordered.append((entry.seq,
                            (entry.component_id, entry.detector, None)))
        for seq, entry in fired.items():
            shared = occurrences.get(seq)
            ordered.append((seq, (entry.component_id, entry.detector,
                                  [shared] if shared is not None else None)))
        ordered.sort(key=lambda item: item[0])
        candidates: list[Candidate] = [candidate for _, candidate in ordered]
        with self._lock:
            self.events_routed += 1
            self.alpha_tests += tests
            self.candidates_delivered += len(candidates)
            self.last_candidates = len(candidates)
            self.candidates.observe(len(candidates))
        return candidates

    def pollable(self) -> list[tuple[str, Detector]]:
        """Components whose ``poll`` may produce detections, in
        registration order (only time-driven/fallback trees — every
        other built-in operator's ``poll`` provably returns nothing)."""
        return [(entry.component_id, entry.detector)
                for entry in self._fallback.values()]

    # -- introspection -----------------------------------------------------

    @property
    def alpha_node_count(self) -> int:
        return len(self._nodes)

    @property
    def shared_memory_count(self) -> int:
        """Alpha nodes serving more than one subscription — each is a
        leaf test the linear path would have run once *per rule*."""
        return sum(1 for node in self._nodes.values()
                   if len(node.subscribers) > 1)

    @property
    def fallback_count(self) -> int:
        return len(self._fallback)

    def stats(self) -> dict:
        with self._lock:
            routed = self.events_routed
            delivered = self.candidates_delivered
            last = self.last_candidates
            tests = self.alpha_tests
        subscriptions = sum(len(node.subscribers)
                            for node in self._nodes.values())
        return {
            "service": self.service_name,
            "registered": len(self._entries),
            "indexed": len(self._entries) - len(self._fallback),
            "fallback": len(self._fallback),
            "alpha_nodes": len(self._nodes),
            "shared_memories": self.shared_memory_count,
            "subscriptions": subscriptions,
            "buckets": len(self._buckets),
            "events_routed": routed,
            "alpha_tests": tests,
            "candidates_delivered": delivered,
            "last_candidates": last,
            "mean_candidates": (delivered / routed) if routed else 0.0,
        }

    def snapshot(self) -> dict:
        """The `/introspect/match` view: stats plus key-family and
        fallback-reason breakdowns."""
        view = self.stats()
        families: dict[str, int] = {}
        for key, bucket in self._buckets.items():
            families[key.kind] = families.get(key.kind, 0) + len(bucket)
        reasons: dict[str, int] = {}
        for entry in self._fallback.values():
            reason = entry.reason or "unknown"
            reasons[reason] = reasons.get(reason, 0) + 1
        view["key_families"] = families
        view["fallback_reasons"] = reasons
        return view
