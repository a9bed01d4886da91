"""Breaker half-open concurrency: exactly one probe passes, concurrent
callers are shed with a sane retry_after, and transitions stay race-free
(PROTOCOL.md §12 satellite)."""

import threading
import time

import pytest

from repro.grh import (BreakerPolicy, CircuitOpenError, LanguageDescriptor,
                       ResilienceManager)
from repro.grh.resilience import (ServiceReportedError,
                                  TransientServiceFailure)

DESCRIPTOR = LanguageDescriptor("urn:test:halfopen", "query", "halfopen")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def tripped_manager(reset_timeout=10.0):
    """A manager whose breaker for 'svc:x' just opened, with the clock
    advanced past the reset timeout (next call is the half-open probe)."""
    clock = FakeClock()
    manager = ResilienceManager(
        breaker=BreakerPolicy(failure_threshold=1,
                              reset_timeout=reset_timeout),
        clock=clock, sleep=lambda s: None, hedge=None)

    def fail():
        raise TransientServiceFailure("down")

    with pytest.raises(TransientServiceFailure):
        manager.call_routed(("svc:x",), DESCRIPTOR, lambda _a: fail(),
                            failover_ok=False)
    assert manager._breakers["svc:x"].state == "open"
    clock.now = reset_timeout + 1.0
    return manager, clock


class TestSingleProbe:
    def test_only_one_probe_admitted_concurrently(self):
        manager, clock = tripped_manager()
        started = threading.Event()
        release = threading.Event()
        outcome = {}

        def slow_probe():
            started.set()
            assert release.wait(5.0)
            return "probed"

        def run_probe():
            outcome["result"] = manager.call_routed(
                ("svc:x",), DESCRIPTOR, lambda _a: slow_probe(),
                failover_ok=False)

        prober = threading.Thread(target=run_probe)
        prober.start()
        try:
            assert started.wait(5.0)
            # the probe is in flight: every concurrent caller is shed
            # without touching the service, with the conservative
            # retry_after of one full reset window
            for _ in range(3):
                with pytest.raises(CircuitOpenError) as excinfo:
                    manager.call_routed(("svc:x",), DESCRIPTOR,
                                        lambda _a: "nope", failover_ok=False)
                assert "retry after 10s" in str(excinfo.value)
        finally:
            release.set()
            prober.join(5.0)
        assert outcome["result"] == "probed"
        assert manager._breakers["svc:x"].state == "closed"

    def test_probe_failure_reopens_and_sheds(self):
        manager, clock = tripped_manager()

        def fail():
            raise TransientServiceFailure("still down")

        with pytest.raises(TransientServiceFailure):
            manager.call_routed(("svc:x",), DESCRIPTOR, lambda _a: fail(),
                                failover_ok=False)
        breaker = manager._breakers["svc:x"]
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            manager.call_routed(("svc:x",), DESCRIPTOR, lambda _a: "nope",
                                failover_ok=False)

    def test_service_reported_probe_releases_the_slot(self):
        manager, clock = tripped_manager()

        def report():
            raise ServiceReportedError("clean application error")

        # the probe ends without reaching the breaker: the half-open
        # slot must be released, not latched shut forever
        with pytest.raises(ServiceReportedError):
            manager.call_routed(("svc:x",), DESCRIPTOR, lambda _a: report(),
                                failover_ok=False)
        breaker = manager._breakers["svc:x"]
        assert breaker.state == "half_open"
        assert not breaker.probing
        # the next caller gets to probe — and closes the breaker
        assert manager.call_routed(("svc:x",), DESCRIPTOR, lambda _a: "ok",
                                   failover_ok=False) == "ok"
        assert breaker.state == "closed"

    def test_foreign_exception_releases_the_slot(self):
        manager, clock = tripped_manager()

        def explode():
            raise ValueError("not a service failure at all")

        with pytest.raises(ValueError):
            manager.call_routed(("svc:x",), DESCRIPTOR, lambda _a: explode(),
                                failover_ok=False)
        assert not manager._breakers["svc:x"].probing
        assert manager.call_routed(("svc:x",), DESCRIPTOR, lambda _a: "ok",
                                   failover_ok=False) == "ok"


class TestRaceFreedom:
    def test_hammered_halfopen_admits_exactly_one_probe_per_window(self):
        manager, clock = tripped_manager()
        admitted = []
        barrier = threading.Barrier(8)
        gate = threading.Event()

        def probe():
            admitted.append(threading.current_thread().name)
            assert gate.wait(5.0)
            return "ok"

        def caller():
            barrier.wait(timeout=5.0)
            try:
                manager.call_routed(("svc:x",), DESCRIPTOR, lambda _a: probe(),
                                    failover_ok=False)
            except CircuitOpenError:
                pass

        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        try:
            # all 8 race allow() together; exactly one reaches the probe
            time.sleep(0.3)
            assert len(admitted) == 1
        finally:
            gate.set()
            for thread in threads:
                thread.join(5.0)
        assert len(admitted) == 1
        assert manager._breakers["svc:x"].state == "closed"

    def test_transitions_stay_consistent_under_load(self):
        clock = FakeClock()
        manager = ResilienceManager(
            breaker=BreakerPolicy(failure_threshold=5, reset_timeout=1e9),
            clock=clock, sleep=lambda s: None, hedge=None)

        def fail():
            raise TransientServiceFailure("down")

        def caller():
            for _ in range(25):
                try:
                    manager.call_routed(("svc:x",), DESCRIPTOR,
                                        lambda _a: fail(), failover_ok=False)
                except (TransientServiceFailure, CircuitOpenError):
                    pass

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        breaker = manager._breakers["svc:x"]
        assert breaker.state == "open"
        assert breaker.opens >= 1
        # every call either reached the service or was shed — none lost
        assert manager.attempts + manager.breaker_rejections == 100
