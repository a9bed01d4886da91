"""Admission control: bounded queue, the three policies, the gate."""

import threading
import time

import pytest

from repro.bindings import Relation
from repro.grh.messages import Detection
from repro.runtime import BackpressureError, Runtime

from .harness import build_world
from repro.domain import WorkloadConfig, booking_payloads
from repro.domain.workload import simple_rule_markup


def _detection(n: int) -> Detection:
    return Detection("c1", 0.0, 1.0, Relation([{"N": str(n)}]),
                     detection_id=f"d{n}")


def _gated_engine(runtime):
    """An engine whose _handle blocks until ``release`` is set, so the
    ingestion queue can be filled deterministically."""
    deployment, engine = build_world(runtime)
    release = threading.Event()
    original = engine._handle

    def gated(detection, *rest):
        release.wait(10)
        original(detection, *rest)

    engine._handle = gated
    engine.register_rule(simple_rule_markup("r1"))
    return deployment, engine, release


class TestRejectPolicy:
    def test_overflow_raises_to_producer(self):
        runtime = Runtime(workers=1, queue_capacity=2, backpressure="reject")
        deployment, engine, release = _gated_engine(runtime)
        payloads = booking_payloads(WorkloadConfig(), 8)
        try:
            errors = 0
            for payload in payloads:
                try:
                    deployment.stream.emit(payload)
                except BackpressureError:
                    errors += 1
            # 1 in execution (blocked), 2 queued, the rest rejected
            assert errors >= 1
            assert runtime.rejected == errors
            release.set()
            assert engine.drain(10)
        finally:
            release.set()
            engine.shutdown(5)
        # accepted work still completed; rejected work journalled away
        assert engine.stats["completed"] == 8 - errors

    def test_rejected_detection_closed_in_journal(self, tmp_path):
        from repro.durability import DurabilityManager
        manager = DurabilityManager(str(tmp_path), sync="always")
        runtime = Runtime(workers=1, queue_capacity=1, backpressure="reject")
        deployment, engine = build_world(runtime)
        engine.durability = manager  # late attach: simplest durable wiring
        release = threading.Event()
        original = engine._handle

        def gated(detection, *rest):
            release.wait(10)
            original(detection, *rest)

        engine._handle = gated
        engine.register_rule(simple_rule_markup("r1"))
        payloads = booking_payloads(WorkloadConfig(), 6)
        rejected = 0
        try:
            for payload in payloads:
                try:
                    deployment.stream.emit(payload)
                except BackpressureError:
                    rejected += 1
            assert rejected >= 1
            release.set()
            assert engine.drain(10)
        finally:
            release.set()
            engine.shutdown(5)
        # nothing is left in flight: every admitted detection finished,
        # every rejected one was journalled "dropped" at rejection time
        assert not manager.state.in_flight


    def test_refused_detection_closes_the_rest_of_its_group(self,
                                                            tmp_path):
        """One event completes three rules; when one of its detections
        is refused, the ones after it are never queued, and their
        journal records are closed as ``dropped`` too."""
        from repro.durability import DurabilityManager
        manager = DurabilityManager(str(tmp_path), sync="none")
        runtime = Runtime(workers=1, queue_capacity=1, backpressure="reject")
        deployment, engine = build_world(runtime)
        engine.durability = manager  # late attach: simplest durable wiring
        release = threading.Event()
        original = engine._handle

        def gated(detection, *rest):
            release.wait(10)
            original(detection, *rest)

        engine._handle = gated
        for rule_id in ("r1", "r2", "r3"):
            engine.register_rule(simple_rule_markup(rule_id))
        payloads = booking_payloads(WorkloadConfig(), 3)
        try:
            for payload in payloads:
                try:
                    deployment.stream.emit(payload)
                except BackpressureError:
                    pass
            release.set()
            assert engine.drain(10)
        finally:
            release.set()
            engine.shutdown(5)
        dropped = sum(1 for status in manager.state.done.values()
                      if status == "dropped")
        assert not manager.state.in_flight
        # one refusal per event at most, yet more detections closed
        assert runtime.rejected <= len(payloads) < dropped
        assert dropped + engine.stats["detections"] == 3 * len(payloads)
        manager.close()


class TestDropOldestPolicy:
    def test_oldest_is_shed_and_counted(self):
        runtime = Runtime(workers=1, queue_capacity=2,
                          backpressure="drop-oldest")
        deployment, engine, release = _gated_engine(runtime)
        payloads = booking_payloads(WorkloadConfig(), 8)
        try:
            for payload in payloads:
                deployment.stream.emit(payload)  # never raises
            release.set()
            assert engine.drain(10)
        finally:
            release.set()
            engine.shutdown(5)
        assert runtime.dropped >= 1
        assert engine.stats["completed"] == 8 - runtime.dropped


class TestBlockPolicy:
    def test_producer_blocks_until_space(self):
        runtime = Runtime(workers=1, queue_capacity=1,
                          backpressure="block")
        deployment, engine, release = _gated_engine(runtime)
        payloads = booking_payloads(WorkloadConfig(), 4)
        done = threading.Event()

        def producer():
            for payload in payloads:
                deployment.stream.emit(payload)
            done.set()

        thread = threading.Thread(target=producer, daemon=True)
        try:
            thread.start()
            time.sleep(0.2)
            assert not done.is_set()        # producer is being held back
            release.set()
            assert done.wait(10)            # and released once space frees
            assert engine.drain(10)
        finally:
            release.set()
            engine.shutdown(5)
        assert engine.stats["completed"] == 4
        assert runtime.dropped == 0 and runtime.rejected == 0

    def test_submit_timeout_turns_block_into_reject(self):
        runtime = Runtime(workers=1, queue_capacity=1,
                          backpressure="block", submit_timeout=0.05)
        deployment, engine, release = _gated_engine(runtime)
        payloads = booking_payloads(WorkloadConfig(), 4)
        try:
            with pytest.raises(BackpressureError):
                for payload in payloads:
                    deployment.stream.emit(payload)
            release.set()
            assert engine.drain(10)
        finally:
            release.set()
            engine.shutdown(5)
        assert runtime.rejected >= 1

    def test_chained_detections_bypass_the_gate(self):
        """An event raised from inside a worker must never block on
        capacity only workers can free (self-deadlock)."""
        runtime = Runtime(workers=1, queue_capacity=1,
                          backpressure="block")
        deployment, engine = build_world(runtime)
        # chain: booking → send to mailbox raising chained event → r2
        from repro.actions import ACTION_NS
        from repro.domain.workload import TRAVEL_NS
        from repro.xmlmodel import ECA_NS
        engine.register_rule(f"""
        <eca:rule xmlns:eca="{ECA_NS}" id="chainer">
          <eca:event>
            <travel:booking xmlns:travel="{TRAVEL_NS}"
                            person="{{Person}}" to="{{To}}"/>
          </eca:event>
          <eca:action>
            <act:raise xmlns:act="{ACTION_NS}">
              <travel:chained xmlns:travel="{TRAVEL_NS}"
                              person="{{Person}}" to="{{To}}"/>
            </act:raise>
          </eca:action>
        </eca:rule>""")
        engine.register_rule(
            simple_rule_markup("r2", event_name="chained"))
        try:
            for payload in booking_payloads(WorkloadConfig(), 3):
                deployment.stream.emit(payload)
            assert engine.drain(15)
        finally:
            engine.shutdown(5)
        # both the original and the chained rules completed every time
        assert engine.stats["completed"] == 6


class TestCapacityCountsQueuedOnly:
    def test_executing_detection_frees_queue_space(self):
        """Regression: the capacity gate used to count *executing*
        detections, so at small capacities every in-flight item could
        be on a worker, shed() found nothing to drop, and submit
        silently pushed past capacity.  Capacity now gates queued
        detections only: space frees at worker pickup, and drop-oldest
        always has a genuinely queued victim when the gate fires."""
        runtime = Runtime(workers=1, queue_capacity=1,
                          backpressure="drop-oldest")
        deployment, engine, release = _gated_engine(runtime)
        payloads = booking_payloads(WorkloadConfig(), 3)
        try:
            deployment.stream.emit(payloads[0])
            for _ in range(200):        # wait for worker pickup
                counters = runtime.counters()
                if counters["active"] == 1 and counters["queued"] == 0:
                    break
                time.sleep(0.01)
            counters = runtime.counters()
            assert counters["active"] == 1 and counters["queued"] == 0
            assert runtime.accepting    # executing work doesn't saturate
            deployment.stream.emit(payloads[1])
            assert runtime.counters()["queued"] == 1
            assert not runtime.accepting
            deployment.stream.emit(payloads[2])   # gate fires: must shed
            assert runtime.dropped == 1
            assert runtime.counters()["queued"] == 1
            release.set()
            assert engine.drain(10)
        finally:
            release.set()
            engine.shutdown(5)
        assert engine.stats["completed"] == 2


class TestAdmissionGate:
    def test_gate_reflects_saturation(self):
        runtime = Runtime(workers=1, queue_capacity=1, backpressure="reject")
        deployment, engine, release = _gated_engine(runtime)
        try:
            assert runtime.accepting and not runtime.saturated
            emitted = 0
            for payload in booking_payloads(WorkloadConfig(), 6):
                try:
                    deployment.stream.emit(payload)
                    emitted += 1
                except BackpressureError:
                    break
            assert runtime.saturated and not runtime.accepting
            release.set()
            assert engine.drain(10)
            assert runtime.accepting and not runtime.saturated
        finally:
            release.set()
            engine.shutdown(5)
        assert not runtime.accepting  # stopped runtime never accepts
