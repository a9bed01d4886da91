"""Stress: 4 workers against a flaky HTTP service — no deadlock, no
lost detections.

The short smokes always run (a few seconds each).  The CI ``runtime``
job sets ``RUNTIME_STRESS=1`` to run the full 30-second soak instead:
multiple producer threads emitting continuously while the HTTP query
service randomly fails ~15% of requests; at the end, every admitted
detection must be accounted for — completed, failed, or dead-lettered
— and the pool must quiesce.
"""

import os
import random
import threading
import time

import pytest

from repro.actions import ACTION_NS, ActionRuntime
from repro.bindings import Relation, relation_to_answers
from repro.core import ECAEngine
from repro.domain import WorkloadConfig, booking_payloads
from repro.domain.workload import TRAVEL_NS
from repro.events import ATOMIC_NS, EventStream
from repro.grh import (GenericRequestHandler, LanguageDescriptor,
                       LanguageRegistry, ResilienceManager, RetryPolicy)
from repro.runtime import Runtime
from repro.services import (ActionExecutionService, AtomicEventService,
                            HttpServiceServer, HybridTransport)
from repro.xmlmodel import ECA_NS

FLAKY_LANG = "urn:test:stress-flaky"


class FlakyHttpService:
    """Randomly crashes (HTTP 500) with a seeded failure rate."""

    def __init__(self, failure_rate: float = 0.15, seed: int = 0) -> None:
        self.failure_rate = failure_rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.calls = 0

    def handle(self, message):
        with self._lock:
            self.calls += 1
            flaky = self._rng.random() < self.failure_rate
        if flaky:
            # connection abort → transient in the §11 taxonomy (an HTTP
            # 500 would be a non-retryable service report)
            raise ConnectionResetError("transient outage (simulated)")
        return relation_to_answers(Relation([{"Q": "ok"}]))


def _stress_world(workers: int):
    registry = LanguageRegistry()
    resilience = ResilienceManager(retry=RetryPolicy(max_attempts=2),
                                   sleep=lambda s: None)
    grh = GenericRequestHandler(registry, HybridTransport(timeout=5.0),
                                resilience=resilience)
    stream = EventStream()
    actions = ActionRuntime(event_stream=stream)
    atomic = AtomicEventService(grh.notify)
    atomic.attach(stream)
    grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic"),
                    atomic)
    grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                    ActionExecutionService(actions))
    service = FlakyHttpService()
    server = HttpServiceServer(aware_handler=service.handle)
    url = server.start()
    grh.add_remote_language(
        LanguageDescriptor(FLAKY_LANG, "query", "stress-flaky"), url)
    runtime = Runtime(workers=workers, queue_capacity=512,
                      backpressure="block")
    engine = ECAEngine(grh, runtime=runtime, keep_instances=False)
    engine.register_rule(f"""
    <eca:rule xmlns:eca="{ECA_NS}" id="stress">
      <eca:event>
        <travel:booking xmlns:travel="{TRAVEL_NS}"
                        person="{{Person}}" to="{{To}}"/>
      </eca:event>
      <eca:query><q xmlns="{FLAKY_LANG}">whatever</q></eca:query>
      <eca:action><out q="{{Q}}"/></eca:action>
    </eca:rule>""")
    return engine, stream, server, service


def _soak(duration: float, producers: int = 3, workers: int = 4) -> None:
    engine, stream, server, service = _stress_world(workers)
    emitted = [0] * producers
    stop = threading.Event()

    def producer(index: int) -> None:
        config = WorkloadConfig(persons=20, fleet_size=10, cities=3,
                                seed=index)
        payloads = booking_payloads(config, 50)
        n = 0
        while not stop.is_set():
            stream.emit(payloads[n % len(payloads)].copy())
            emitted[index] += 1
            n += 1

    threads = [threading.Thread(target=producer, args=(i,), daemon=True)
               for i in range(producers)]
    try:
        for thread in threads:
            thread.start()
        time.sleep(duration)
        stop.set()
        for thread in threads:
            thread.join(10)
        assert engine.drain(60), "pool failed to quiesce (deadlock?)"
    finally:
        stop.set()
        quiesced = engine.shutdown(30)
        server.stop()
    assert quiesced
    total = sum(emitted)
    stats = engine.stats
    runtime = engine.runtime
    assert total > 0 and service.calls > 0
    # no lost detections: every emitted event was admitted, and every
    # admitted detection ended in exactly one terminal state
    assert runtime.submitted == total
    assert stats["detections"] == total
    assert stats["completed"] + stats["failed"] == total
    assert runtime.completed + runtime.errors == total
    assert runtime.errors == 0              # failures are contained per
    assert stats["failed"] >= 0             # instance, never thrown at
    assert runtime.dropped == 0             # the pool or shed silently
    assert runtime.rejected == 0


def test_stress_smoke():
    """Always-on short soak: a few seconds, full accounting."""
    _soak(duration=2.0)


@pytest.mark.skipif(os.environ.get("RUNTIME_STRESS") != "1",
                    reason="30s soak only runs with RUNTIME_STRESS=1")
def test_stress_soak_30s():
    """Thirty seconds of continuous load."""
    _soak(duration=30.0)
