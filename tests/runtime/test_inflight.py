"""The per-shard in-flight window (Runtime(inflight=N), PROTOCOL §11).

Two families of guarantees:

* semantics — the differential oracle (sync vs windowed effects) and
  the §10 per-source ordering contract must survive ``inflight > 1``;
* mechanics — same-shard overlap actually happens, chained detections
  do not deadlock, lanes shield the pool, drain sees windowed work.
"""

import random
import sys
import threading
import time

import pytest

from repro.bindings import Relation
from repro.domain import WorkloadConfig
from repro.grh.messages import Detection
from repro.runtime import Runtime

from .harness import run_workload

EVENTS = 20


def _config(seed: int) -> WorkloadConfig:
    return WorkloadConfig(persons=10, fleet_size=8, cities=3, seed=seed)


def _detection(n: int, key: str) -> Detection:
    return Detection("c1", 0.0, 1.0, Relation([{"N": str(n)}]),
                     detection_id=key)


class _StubEngine:
    """Just enough engine for Runtime.attach: records handle order."""

    grh = None
    durability = None

    def __init__(self, tags, delay=0.0, jitter=0.0, seed=0):
        #: id(detection) -> (source key, sequence number)
        self.tags = tags
        self.delay = delay
        self.jitter = jitter
        self._rng = random.Random(seed)
        self.lock = threading.Lock()
        self.order: dict[str, list[int]] = {}
        self.concurrent = 0
        self.max_concurrent = 0

    def _handle(self, detection, waited=None):
        with self.lock:
            self.concurrent += 1
            self.max_concurrent = max(self.max_concurrent, self.concurrent)
            pause = self.delay + self._rng.random() * self.jitter
        if pause:
            time.sleep(pause)
        key, seq = self.tags[id(detection)]
        with self.lock:
            self.order.setdefault(key, []).append(seq)
            self.concurrent -= 1

    def _discard(self, detection):
        pass


def _windowed_runtime(engine, **kwargs):
    runtime = Runtime(**kwargs)
    runtime.attach(engine)
    return runtime


class TestConstruction:
    def test_rejects_bad_inflight(self):
        with pytest.raises(ValueError):
            Runtime(inflight=0)

    @pytest.mark.parametrize("inflight", [1, 2, 8])
    def test_lanes_are_the_only_threads(self, inflight):
        """w shards × n lanes and nothing else: the window of one is the
        classic thread per shard, and no shard runs a dispatcher."""
        def runtime_threads():
            return {thread for thread in threading.enumerate()
                    if thread.name.startswith("eca-runtime-")}

        before = runtime_threads()
        runtime = _windowed_runtime(_StubEngine({}), workers=3,
                                    inflight=inflight)
        try:
            assert len(runtime_threads() - before) == 3 * inflight
        finally:
            runtime.shutdown(5)
        assert not runtime_threads() - before

    def test_monitoring_shapes(self):
        tags = {}
        engine = _StubEngine(tags)
        runtime = _windowed_runtime(engine, workers=3, inflight=2)
        try:
            assert runtime.inflight_depths() == [0, 0, 0]
            assert runtime.counters()["inflight"] == 0
        finally:
            runtime.shutdown(5)


class TestDifferentialWithWindow:
    """ISSUE 6 acceptance: seeds 0-9, sync vs inflight-windowed."""

    @pytest.mark.parametrize("seed", range(10))
    def test_sync_vs_windowed_effects_identical(self, seed):
        config = _config(seed)
        baseline = run_workload(config, EVENTS)
        assert baseline, "oracle produced no effects — workload is broken"
        windowed = run_workload(
            config, EVENTS, runtime=Runtime(workers=2, inflight=4))
        assert windowed == baseline, (
            f"seed {seed}: effects diverged with the in-flight window")

class TestPerSourceOrdering:
    @pytest.mark.parametrize("inflight", [1, 2, 8])
    def test_same_source_detections_run_in_submit_order(self, inflight):
        """200 detections over 4 source keys, hammered with jittered
        handler latency: each key's sequence must come out exactly in
        submit order even though distinct keys overlap freely — for
        every window size, since one lane loop serves them all.  A
        short switch interval interleaves the lanes' pop, chain and
        drain steps as finely as the interpreter allows."""
        tags = {}
        engine = _StubEngine(tags, delay=0.001, jitter=0.004)
        keys = [f"k{i}" for i in range(4)]
        expected = {key: [] for key in keys}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runtime = _windowed_runtime(engine, workers=2,
                                        inflight=inflight,
                                        queue_capacity=512)
            try:
                for n in range(200):
                    key = keys[n % len(keys)]
                    detection = _detection(n, key)
                    tags[id(detection)] = (key, n)
                    expected[key].append(n)
                    runtime.submit(detection)
                assert runtime.drain(30)
                counters = runtime.counters()
            finally:
                runtime.shutdown(5)
        finally:
            sys.setswitchinterval(interval)
        assert engine.order == expected
        assert counters["completed"] == 200
        assert counters["inflight"] == counters["active"] == 0
        assert engine.max_concurrent <= 2 * inflight
        if inflight > 1:
            # the window was real: distinct sources overlapped
            assert engine.max_concurrent > 1

    @pytest.mark.parametrize("inflight", [2, 8])
    def test_pop_and_classify_are_one_step(self, inflight):
        """Zero-latency handlers free a source key almost as soon as it
        is taken, so same-source detections are popped back to back by
        different lanes: if a lane could be preempted between popping
        and registering its key, a later detection would overtake an
        earlier one.  2000 detections over 4 keys on one shard, with
        the interpreter switching threads every microsecond."""
        tags = {}
        engine = _StubEngine(tags)
        keys = [f"k{i}" for i in range(4)]
        expected = {key: [] for key in keys}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runtime = _windowed_runtime(engine, workers=1,
                                        inflight=inflight,
                                        queue_capacity=4096)
            try:
                for n in range(2000):
                    key = keys[n % len(keys)]
                    detection = _detection(n, key)
                    tags[id(detection)] = (key, n)
                    expected[key].append(n)
                    runtime.submit(detection)
                assert runtime.drain(30)
            finally:
                runtime.shutdown(5)
        finally:
            sys.setswitchinterval(interval)
        assert engine.order == expected

    def test_single_shard_overlaps_distinct_sources(self):
        """workers=1, inflight=2: two different sources overlap on ONE
        shard — the capability the classic one-thread path lacks."""
        tags = {}
        engine = _StubEngine(tags)
        barrier = threading.Barrier(2, timeout=5)
        inner = engine._handle

        def rendezvous(detection, *rest):
            barrier.wait()
            inner(detection, *rest)

        engine._handle = rendezvous
        runtime = _windowed_runtime(engine, workers=1, inflight=2)
        try:
            for n, key in enumerate(("a", "b")):
                detection = _detection(n, key)
                tags[id(detection)] = (key, n)
                runtime.submit(detection)
            assert runtime.drain(10)
        finally:
            runtime.shutdown(5)
        assert not barrier.broken       # both lanes arrived concurrently


class TestWindowMechanics:
    def test_chained_submit_from_lane_does_not_deadlock(self):
        """A handler that submits a follow-up detection runs on a lane
        thread; the chained-detection admission bypass must recognize
        lanes as workers even at queue_capacity=1."""
        tags = {}
        engine = _StubEngine(tags)
        inner = engine._handle
        runtime_holder = {}

        def chaining(detection, *rest):
            key, seq = tags[id(detection)]
            if key == "root":
                follow = _detection(seq + 1, "chained")
                tags[id(follow)] = ("chained", seq + 1)
                runtime_holder["rt"].submit(follow)
            inner(detection, *rest)

        engine._handle = chaining
        runtime = _windowed_runtime(engine, workers=1, inflight=2,
                                    queue_capacity=1)
        runtime_holder["rt"] = runtime
        try:
            root = _detection(0, "root")
            tags[id(root)] = ("root", 0)
            runtime.submit(root)
            assert runtime.drain(10)
        finally:
            runtime.shutdown(5)
        assert engine.order == {"root": [0], "chained": [1]}

    def test_lane_survives_handler_exception(self):
        tags = {}
        engine = _StubEngine(tags)
        inner = engine._handle
        calls = []

        def explode_once(detection, *rest):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom (simulated)")
            inner(detection, *rest)

        engine._handle = explode_once
        runtime = _windowed_runtime(engine, workers=1, inflight=2)
        try:
            for n in range(2):
                detection = _detection(n, f"k{n}")
                tags[id(detection)] = (f"k{n}", n)
                runtime.submit(detection)
            assert runtime.drain(10)
        finally:
            runtime.shutdown(5)
        assert runtime.errors == 1
        assert runtime.completed == 1
        assert isinstance(runtime.last_error, RuntimeError)

    def test_drain_waits_for_windowed_work(self):
        tags = {}
        engine = _StubEngine(tags, delay=0.05)
        runtime = _windowed_runtime(engine, workers=2, inflight=4)
        try:
            for n in range(16):
                detection = _detection(n, f"k{n}")
                tags[id(detection)] = (f"k{n}", n)
                runtime.submit(detection)
            assert runtime.drain(30)
            counters = runtime.counters()
            assert counters["completed"] == 16
            assert counters["inflight"] == 0
            assert runtime.inflight_depths() == [0, 0]
        finally:
            runtime.shutdown(5)

    def test_permits_bound_popped_work(self):
        """With every source blocked behind one executing key, the
        lanes must stop popping at the permit bound instead of chaining
        the whole queue into memory."""
        tags = {}
        engine = _StubEngine(tags)
        release = threading.Event()
        started = threading.Event()
        inner = engine._handle

        def gate(detection, *rest):
            started.set()
            release.wait(10)
            inner(detection, *rest)

        engine._handle = gate
        runtime = _windowed_runtime(engine, workers=1, inflight=2,
                                    queue_capacity=256)
        try:
            # one source key: everything chains behind the first
            for n in range(32):
                detection = _detection(n, "hot")
                tags[id(detection)] = ("hot", n)
                runtime.submit(detection)
            assert started.wait(5)
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                time.sleep(0.02)
            # a lane pops only while holding a permit: at most
            # `inflight` detections ever left the queue
            assert runtime.counters()["inflight"] <= 2
            assert runtime.queue_depths()[0] >= 29
            release.set()
            assert runtime.drain(30)
        finally:
            release.set()
            runtime.shutdown(5)
        assert engine.order["hot"] == list(range(32))
