"""The linear matcher that shipped in ``EventDetectionService`` (as
``use_network=False``) until the discrimination network became the only
path, kept as the differential oracle of ``test_differential.py``,
``test_poll_constituents.py`` and ``benchmarks/bench_match.py``.

Every event is offered to every registered detector and every detector
is polled, in registration order.  That is O(registered components) per
event and is the point: it defines the detection sequence — order,
intervals, bindings, constituents and detection ids — the network-routed
service must reproduce byte for byte.

Registration, locking, detection ids and the ``Detection`` values are
the service's own (they were not replaced), and so is the hand-over: one
``notify`` per feed or poll with every detection it produced.  Only the
choice of which detectors see an event is the code as it was.
"""

from repro.events import Event
from repro.services.event_service import EventDetectionService


def linear(service_cls: type[EventDetectionService]
           ) -> type[EventDetectionService]:
    """``service_cls`` with offer-to-all matching in place of routing."""

    class Linear(service_cls):
        def feed(self, event: Event) -> None:
            with self._lock:
                detections = [
                    self._detection(component_id, occurrence)
                    for component_id, detector in list(
                        self._detectors.items())
                    for occurrence in detector.feed(event)]
            if detections:
                self._notify(detections)

        def poll(self, now: float) -> None:
            with self._lock:
                detections = [
                    self._detection(component_id, occurrence)
                    for component_id, detector in list(
                        self._detectors.items())
                    for occurrence in detector.poll(now)]
            if detections:
                self._notify(detections)

    Linear.__name__ = f"Linear{service_cls.__name__}"
    return Linear
