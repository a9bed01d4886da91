"""Concurrent registration churn racing stream delivery.

The service serializes ``register_event``/``unregister_event`` against
``feed``/``poll`` under one lock, so a component is always either fully
registered (indexed, present in ``_detectors``) or fully absent — a
racing feed can neither miss a just-registered detector nor deliver to
a half-removed one.  The hammer drives all three operations from
multiple threads and then proves the index and the detector table ended
consistent.
"""

import random
import threading

import pytest

from repro.bindings import Relation
from repro.events.base import Event
from repro.grh.messages import Request
from repro.services.event_service import AtomicEventService, SnoopService
from repro.xmlmodel import parse

from .storm import DOMAIN_NS

D = f'xmlns:d="{DOMAIN_NS}"'
WORKERS = 4
ROUNDS = 120


def pattern_markup(kind):
    return parse(f'<d:booking {D} kind="k{kind}" person="{{P}}"/>')


@pytest.mark.parametrize("service_cls", [AtomicEventService, SnoopService])
def test_churn_hammer(service_cls):
    delivered = []
    delivered_lock = threading.Lock()

    def notify(detections):
        with delivered_lock:
            delivered.extend(detections)

    service = service_cls(notify, incarnation="")
    errors = []
    barrier = threading.Barrier(WORKERS + 1)

    def churner(worker):
        rng = random.Random(worker)
        barrier.wait()
        try:
            for round_index in range(ROUNDS):
                component = f"w{worker}-r{round_index}::event"
                service.register_event(Request(
                    "register-event", component,
                    pattern_markup(rng.randrange(4)), Relation.unit()))
                if rng.random() < 0.7:
                    service.unregister_event(Request(
                        "unregister-event", component, None,
                        Relation.unit()))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=churner, args=(worker,))
               for worker in range(WORKERS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    feed_errors = []
    for sequence in range(400):
        payload = parse(
            f'<d:booking {D} kind="k{sequence % 4}" person="p"/>')
        try:
            service.feed(Event(payload, float(sequence), sequence))
            service.poll(float(sequence))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            feed_errors.append(exc)
            break
    for thread in threads:
        thread.join()
    assert not errors and not feed_errors

    # table and index ended consistent: every surviving component still
    # receives matching events, removed ones receive nothing
    survivors = set(service.registered_ids)
    assert set(service.network.component_ids) == survivors
    with delivered_lock:
        delivered.clear()
    for kind in range(4):
        payload = parse(f'<d:booking {D} kind="k{kind}" person="z"/>')
        service.feed(Event(payload, 1000.0 + kind, 10_000 + kind))
    with delivered_lock:
        hit = {detection.component_id for detection in delivered}
    assert hit == survivors

    # no duplicate detection ids were ever assigned
    with delivered_lock:
        identifiers = [detection.detection_id for detection in delivered]
    assert len(identifiers) == len(set(identifiers))


def test_registration_is_atomic_wrt_feed():
    """A component never appears in the table without its index entry:
    a feed running between the two would silently drop its events."""
    service = AtomicEventService(lambda detections: None, incarnation="")
    stop = threading.Event()
    mismatches = []

    def auditor():
        while not stop.is_set():
            with service._lock:
                table = set(service._detectors)
                indexed = set(service.network.component_ids)
            if table != indexed:
                mismatches.append((table, indexed))

    thread = threading.Thread(target=auditor)
    thread.start()
    for index in range(300):
        component = f"c{index}::event"
        service.register_event(Request(
            "register-event", component, pattern_markup(index % 3),
            Relation.unit()))
        if index % 2:
            service.unregister_event(Request(
                "unregister-event", component, None, Relation.unit()))
    stop.set()
    thread.join()
    assert not mismatches
