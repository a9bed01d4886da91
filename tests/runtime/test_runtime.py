"""The sharded worker pool: lifecycle, sharding, ordering, quiesce."""

import threading
import time

import pytest

from repro.core import ECAEngine
from repro.durability import DurabilityManager
from repro.grh.messages import Detection
from repro.bindings import Relation
from repro.runtime import Runtime
from repro.runtime.pool import _DetectionQueue
from repro.services import standard_deployment

from .harness import build_world
from repro.domain import WorkloadConfig, booking_payloads
from repro.domain.workload import simple_rule_markup


def _emit_bookings(deployment, count, seed=0):
    for payload in booking_payloads(WorkloadConfig(seed=seed), count):
        deployment.stream.emit(payload)


def _detection(n: int, component: str = "c1") -> Detection:
    return Detection(component, 0.0, 1.0, Relation([{"N": str(n)}]),
                     detection_id=f"d{n}")


class TestRuntimeConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Runtime(workers=-1)
        with pytest.raises(ValueError):
            Runtime(queue_capacity=0)
        with pytest.raises(ValueError):
            Runtime(backpressure="drop-newest")

    def test_attach_is_exclusive(self):
        deployment, engine = build_world(Runtime(workers=1))
        try:
            other = standard_deployment()
            with pytest.raises(RuntimeError):
                ECAEngine(other.grh, runtime=engine.runtime)
        finally:
            engine.shutdown(5)

    def test_default_engine_has_no_runtime(self):
        deployment, engine = build_world()
        assert engine.runtime.workers == 0
        assert engine.drain(1) is True      # sync drain still works
        assert engine.shutdown(1) is True   # and shutdown is a no-op


class TestConcurrentExecution:
    def test_detections_execute_on_worker_threads(self):
        seen = []
        deployment, engine = build_world(Runtime(workers=2))
        try:
            engine.register_rule(simple_rule_markup("r1"))
            original = engine._handle

            def spy(detection, *rest):
                seen.append(threading.current_thread().name)
                original(detection, *rest)

            engine._handle = spy
            _emit_bookings(deployment, 8)
            assert engine.drain(10)
        finally:
            engine.shutdown(5)
        assert len(seen) == 8
        assert all(name.startswith("eca-runtime-") for name in seen)

    def test_instances_run_in_parallel(self):
        """Two slow instances on different shards overlap in time."""
        deployment, engine = build_world(Runtime(workers=4))
        barrier = threading.Barrier(2, timeout=5)
        import itertools
        entries = itertools.count(1)
        original = engine._handle

        def slow(detection, *rest):
            # only the first two arrivals synchronize: the first blocks
            # in the barrier, so the second can only come from another
            # worker — a genuine cross-shard overlap.  Later detections
            # pass straight through (shard assignment is hash-random;
            # making *every* call wait deadlocked on uneven splits,
            # e.g. three detections on one shard running serially)
            if next(entries) <= 2:
                barrier.wait()
            original(detection, *rest)

        engine._handle = slow
        try:
            engine.register_rule(simple_rule_markup("r1"))
            _emit_bookings(deployment, 8)
            assert engine.drain(10)
        finally:
            engine.shutdown(5)
        assert not barrier.broken        # the overlap actually happened
        assert engine.stats["completed"] == 8

    def test_same_detection_id_lands_on_same_shard(self):
        runtime = Runtime(workers=4)
        detection = _detection(7)
        shards = {runtime._shard_of(detection) for _ in range(20)}
        assert len(shards) == 1

    def test_worker_survives_handler_exception(self):
        deployment, engine = build_world(Runtime(workers=1))
        try:
            engine.register_rule(simple_rule_markup("r1"))
            original = engine._handle
            calls = []

            def explode_once(detection, *rest):
                calls.append(1)
                if len(calls) == 1:
                    raise RuntimeError("boom (simulated)")
                original(detection, *rest)

            engine._handle = explode_once
            _emit_bookings(deployment, 2)
            assert engine.drain(10)
        finally:
            engine.shutdown(5)
        assert engine.runtime.errors == 1
        assert isinstance(engine.runtime.last_error, RuntimeError)
        assert engine.stats["completed"] == 1  # the second one still ran

    def test_shutdown_falls_back_to_synchronous_path(self):
        deployment, engine = build_world(Runtime(workers=2))
        engine.register_rule(simple_rule_markup("r1"))
        _emit_bookings(deployment, 1)
        assert engine.shutdown(10)
        assert not engine.runtime.running
        _emit_bookings(deployment, 1, seed=1)
        assert engine.stats["completed"] == 2

    def test_drain_after_shutdown_still_commits(self, tmp_path):
        """A stopped runtime evaluates on the caller, and its drain still
        ends in the commit barrier, as with lanes running."""
        deployment = standard_deployment()
        manager = DurabilityManager(str(tmp_path), sync="none")
        engine = ECAEngine(deployment.grh, durability=manager,
                           runtime=Runtime(workers=2))
        engine.register_rule(simple_rule_markup("r1"))
        assert engine.shutdown(10)
        barriers = []
        manager.commit_barrier = lambda: barriers.append(engine.stats[
            "detections"])
        _emit_bookings(deployment, 1)
        assert barriers == []
        assert engine.drain(1) is True
        assert barriers == [1]
        manager.close()

    def test_batch_context_quiesces_runtime(self):
        deployment, engine = build_world(Runtime(workers=2))
        try:
            engine.register_rule(simple_rule_markup("r1"))
            with engine.batch():
                _emit_bookings(deployment, 6)
            # post-condition of batch(): all triggered rules have run
            assert engine.stats["completed"] == 6
        finally:
            engine.shutdown(5)


class TestMonitoringSurface:
    def test_counters_and_depths(self):
        deployment, engine = build_world(Runtime(workers=2))
        try:
            engine.register_rule(simple_rule_markup("r1"))
            _emit_bookings(deployment, 5)
            assert engine.drain(10)
            counters = engine.runtime.counters()
            assert counters["submitted"] == 5
            assert counters["completed"] == 5
            assert counters["queued"] == 0 and counters["active"] == 0
            assert engine.runtime.queue_depths() == [0, 0]
            assert len(engine.runtime.utilization()) == 2
        finally:
            engine.shutdown(5)

    def test_queue_wait_histogram_fills(self):
        runtime = Runtime(workers=1)
        deployment, engine = build_world(runtime)
        try:
            engine.register_rule(simple_rule_markup("r1"))
            _emit_bookings(deployment, 1)
            assert engine.drain(10)
        finally:
            engine.shutdown(5)
        assert runtime.queue_wait.count == 1
        assert runtime.queue_wait.sum >= 0.0


class TestDetectionQueueConcurrency:
    def test_concurrent_push_pop_loses_nothing(self):
        queue = _DetectionQueue()
        total = 400
        popped = []
        lock = threading.Lock()

        def producer(base):
            for n in range(base, base + 100):
                queue.push(n % 3, _detection(n))

        def consumer():
            while True:
                detection = queue.wait(timeout=0.5)
                if detection is None:
                    return
                with lock:
                    popped.append(detection.detection_id)

        producers = [threading.Thread(target=producer, args=(i * 100,))
                     for i in range(4)]
        consumers = [threading.Thread(target=consumer) for _ in range(3)]
        for thread in producers + consumers:
            thread.start()
        for thread in producers:
            thread.join(5)
        for thread in consumers:
            thread.join(5)
        assert sorted(popped) == sorted(f"d{n}" for n in range(total))

    def test_shed_removes_oldest_of_lowest_priority(self):
        queue = _DetectionQueue()
        queue.push(5, _detection(1))
        queue.push(0, _detection(2))
        queue.push(0, _detection(3))
        victim = queue.shed()
        assert victim.detection_id == "d2"
        assert len(queue) == 2
        # remaining pops still come out priority-first
        assert queue.pop().detection_id == "d1"
        assert queue.pop().detection_id == "d3"

    def test_shed_empty_returns_none(self):
        assert _DetectionQueue().shed() is None

    def test_wait_times_out(self):
        queue = _DetectionQueue()
        start = time.monotonic()
        assert queue.wait(timeout=0.05) is None
        assert time.monotonic() - start >= 0.04
