"""Event-detection services (Figs. 5/6).

One service per event language: the Atomic Event Matcher, a SNOOP
detection service ([Spa06]-style) and an XChange-style service.  All
three share the same machinery: they keep one detector per registered
component id, subscribe to an event stream, and hand the GRH every
detection one event completes as one sequence of
:class:`~repro.grh.messages.Detection` values — component id,
occurrence interval, variable bindings, constituents (PROTOCOL.md §3).

Since PROTOCOL.md §13 the shared machinery routes events through a
Rete-style :class:`~repro.match.DiscriminationNetwork`: each incoming
event is offered only to the detectors one of whose leaf patterns can
match it (plus the non-indexable fallback bucket), so per-event cost
tracks the *affected* components rather than the registered population.
The delivered detection sequence — ordering, intervals, bindings,
constituents and detection ids — is byte-for-byte what offering every
event to every detector produces (``tests/match/linear_oracle.py``).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable, Sequence

from ..events import (Detector, Event, EventStream, parse_atomic,
                      parse_snoop, parse_xchange)
from ..events.snoop import Atomic
from ..grh.messages import Detection, Request
from ..match import DiscriminationNetwork
from ..xmlmodel import Element
from .base import LanguageService, ServiceError

__all__ = ["EventDetectionService", "AtomicEventService", "SnoopService",
           "XChangeService"]


#: distinguishes service objects within one process; combined with the
#: process boot time below it makes detection-id namespaces unique
#: across both fresh deployments and process restarts
_incarnations = itertools.count(1)
_BOOT = f"{time.time_ns():x}"


class EventDetectionService(LanguageService):
    """Shared base of the three event-language services.

    Its discrimination network counts what routing does (PROTOCOL.md
    §13.4); ``repro.obs`` reads those tallies at scrape time.

    Registration churn and feeding the detectors are serialized under
    one re-entrant lock (detections are signalled outside it), so
    ``register_event``/``unregister_event`` racing a ``feed``/``poll``
    can neither miss nor double-deliver a component:
    a registration either happens-before an event (and is offered it)
    or after (and is not) — never half-indexed.
    """

    service_name = "event-detection"

    def __init__(self, notify: Callable[[Sequence[Detection]], None], *,
                 incarnation: str | None = None) -> None:
        self._notify = notify
        self._detectors: dict[str, Detector] = {}
        self._lock = threading.RLock()
        self._network = DiscriminationNetwork(self.service_name)
        #: per-service monotonic detection sequence; stamped on every
        #: detection as its ``detection-id`` so a durable engine can
        #: deduplicate at-least-once redelivery (PROTOCOL.md §7).
        #: Ids are namespaced by an *incarnation* nonce: a recovered
        #: engine remembers completed ids, so a restarted service that
        #: restarted its sequence would otherwise collide with them and
        #: have its fresh detections dropped as redelivery.  A service
        #: that really does survive an engine crash (the paper's
        #: autonomous-service model) keeps its object and therefore its
        #: namespace; pass ``incarnation=""`` for bare deterministic ids
        #: when a test controls the service lifetime itself.
        if incarnation is None:
            incarnation = f"{_BOOT}.{next(_incarnations)}"
        self._id_prefix = (f"{self.service_name}:{incarnation}:"
                           if incarnation else f"{self.service_name}:")
        self._detection_seq = itertools.count(1)

    def _next_detection_id(self) -> str:
        return self._id_prefix + str(next(self._detection_seq))

    # -- language-specific parsing -------------------------------------------

    def build_detector(self, content: Element) -> Detector:
        raise NotImplementedError

    # -- protocol hooks ----------------------------------------------------------

    def register_event(self, request: Request) -> None:
        if request.content is None:
            raise ServiceError("event registration carries no pattern")
        detector = self.build_detector(request.content)
        with self._lock:
            if request.component_id in self._detectors:
                raise ServiceError(
                    f"component {request.component_id!r} already registered")
            self._detectors[request.component_id] = detector
            self._network.insert(request.component_id, detector)

    def unregister_event(self, request: Request) -> None:
        with self._lock:
            self._detectors.pop(request.component_id, None)
            self._network.remove(request.component_id)

    # -- stream side ----------------------------------------------------------------

    def attach(self, stream: EventStream) -> None:
        stream.subscribe(self.feed)

    def feed(self, event: Event) -> None:
        """Process one event; hand its detections to the GRH at once.

        The event is offered only to the detectors the discrimination
        network routes it to; a component whose whole pattern is one
        indexed leaf reuses the network's shared alpha memory instead of
        re-matching.  Every detection the event completes goes to the
        GRH in one ``notify`` call — the group whose actions leave
        together (PROTOCOL.md §3, §7).

        Detectors are fed under the lock; the group is handed over
        outside it.  The hand-over can wait for queue space in a
        ``block`` runtime, and the worker that would free it may need
        this lock to feed an event its own action raised.
        """
        with self._lock:
            candidates = self._network.route(event)
        detections = []
        for component_id, detector, shared in candidates:
            with self._lock:
                if self._detectors.get(component_id) is not detector:
                    continue  # unregistered since routing
                occurrences = (shared if shared is not None
                               else detector.feed(event))
            for occurrence in occurrences:
                detections.append(self._detection(component_id,
                                                  occurrence))
        if detections:
            self._notify(detections)

    def poll(self, now: float) -> None:
        """Drive time-based operators (snoop:periodic).

        Only time-driven (and fallback) detectors are polled — every
        other built-in operator's ``poll`` provably yields nothing.
        The detections leave the lock as one group, as in :meth:`feed`.
        """
        with self._lock:
            pollable = self._network.pollable()
        detections = []
        for component_id, detector in pollable:
            with self._lock:
                if self._detectors.get(component_id) is not detector:
                    continue  # unregistered since the snapshot
                occurrences = detector.poll(now)
            for occurrence in occurrences:
                detections.append(self._detection(component_id,
                                                  occurrence))
        if detections:
            self._notify(detections)

    def _detection(self, component_id: str, occurrence) -> Detection:
        """One detection for the GRH: the bindings plus the event
        sequence that matched the pattern (Fig. 6 (1) of the paper),
        each payload copied here and nowhere else."""
        return Detection(
            component_id, float(occurrence.start), float(occurrence.end),
            occurrence.bindings,
            tuple(constituent.payload.copy()
                  for constituent in occurrence.constituents),
            detection_id=self._next_detection_id())

    @property
    def registered_ids(self) -> list[str]:
        with self._lock:
            return list(self._detectors)

    @property
    def network(self) -> DiscriminationNetwork:
        """The discrimination network every event is routed through."""
        return self._network


class AtomicEventService(EventDetectionService):
    """The Atomic Event Matcher of Fig. 5: bare domain patterns."""

    service_name = "atomic-event-matcher"

    def build_detector(self, content: Element) -> Detector:
        return Atomic(parse_atomic(content))


class SnoopService(EventDetectionService):
    """Composite event detection following SNOOP [CKAK94]/[Spa06]."""

    service_name = "snoop-detector"

    def build_detector(self, content: Element) -> Detector:
        return parse_snoop(content)


class XChangeService(EventDetectionService):
    """Composite event detection in the style of XChange [BP05]."""

    service_name = "xchange-detector"

    def build_detector(self, content: Element) -> Detector:
        return parse_xchange(content)
