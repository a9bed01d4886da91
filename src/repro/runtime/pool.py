"""Sharded worker pool executing rule instances concurrently.

The paper's engine "creates one or more instances of the rule" per
detection and steps each instance through its remaining components
independently (Section 4) — instances never share binding tables, so
they are natural units of parallelism.  :class:`Runtime` exploits that:
each admitted detection is hashed to a fixed shard, and the whole
instance evaluation (Query ≤ Test ≤ Action, including every GRH
round-trip) runs on one of that shard's lane threads.  Per-instance
component ordering is therefore preserved *trivially* — one thread
executes the instance start to finish — while distinct instances
proceed in parallel on other lanes and shards.

Admission control is a bounded global queue with three policies:

``block``
    the producer waits for space (chained detections raised *by* a
    worker are exempt — blocking a worker on space only workers can
    free would deadlock the pool);
``drop-oldest``
    the oldest, lowest-priority queued detection is shed (journalled
    ``dropped`` under a durable engine so a crash cannot resurrect it);
``reject``
    :class:`BackpressureError` is raised to the producer.

``Runtime.accepting`` is the admission gate the ``/readyz`` probe
reflects: a saturated runtime reports not-ready so load balancers stop
routing events at it before the queue policy has to fire.

In-flight window
----------------

One thread per shard means one component request in flight per shard —
and the HTTP-bound workload is round-trip bound, not CPU bound, so the
thread mostly sleeps in the socket.  Every shard therefore runs
``inflight`` *lane* threads (one by default — the window of one is the
classic thread per shard) and nothing else.  A lane takes a permit,
then pops the shard queue and classifies the detection in one step:
a detection whose source key (``component_id#detection_id``) is
already executing is chained behind the running one in a busy map,
otherwise the lane marks the key busy, runs the detection and then the
chain behind it in pop order.  Because no two lanes of a shard pop and
classify at once, the PROTOCOL.md §10 per-source ordering contract
holds while distinct sources proceed concurrently up to the window.
The permits — one per popped-but-incomplete detection — keep lanes
from draining a hot shard's queue into chains: at most ``inflight``
detections leave the queue, and the capacity gate stays honest.
"""

from __future__ import annotations

import itertools
import threading
import time
import zlib
from collections import deque
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import ECAEngine
    from ..grh.messages import Detection
    from .batcher import DispatchBatcher

#: admission-control policies accepted by :class:`Runtime`
BACKPRESSURE_POLICIES = ("block", "drop-oldest", "reject")


class BackpressureError(RuntimeError):
    """The runtime's ingestion queue is full and the policy is ``reject``.

    Raised to the event producer (the thread delivering the detection);
    the detection was journalled as ``dropped`` first under a durable
    engine, so recovery will not replay work the engine refused.
    """


class _Shard:
    """Per-shard lane state.

    ``pop`` is held by the one lane popping and classifying; ``busy``
    maps an executing source key to the deque of detections chained
    behind it (guarded by the runtime's lock); ``permits`` bounds
    popped-but-incomplete detections.
    """

    __slots__ = ("pop", "busy", "permits")

    def __init__(self, inflight: int) -> None:
        self.pop = threading.Lock()
        self.busy: dict[object, deque] = {}
        self.permits = threading.Semaphore(inflight)


class Runtime:
    """Concurrent execution runtime for :class:`~repro.core.ECAEngine`.

    Construct the engine with one to go concurrent — the default engine
    stays synchronous::

        runtime = Runtime(workers=4, queue_capacity=1024)
        engine = ECAEngine(grh, runtime=runtime)
        ...
        engine.shutdown()        # drain + stop the pool

    Parameters
    ----------
    workers:
        number of shards, each run by ``inflight`` lane threads.
        Detections hash to a fixed shard by
        ``crc32(component_id # detection_id)``, so redelivery of the
        same detection lands on the same shard.
    queue_capacity:
        bound on the total queued (not yet executing) detections across
        all shards; the *backpressure* policy applies beyond it.
    backpressure:
        one of :data:`BACKPRESSURE_POLICIES`.
    submit_timeout:
        with ``block``, how long a producer waits for space before
        :class:`BackpressureError` is raised anyway (``None`` = forever).
    batching:
        when true, a :class:`~repro.runtime.DispatchBatcher` is wired
        into the engine's GRH on attach: same-address component
        requests from concurrent instances coalesce into one
        ``log:batch`` envelope (PROTOCOL.md §10).
    batch_window / max_batch:
        batcher tuning — how long a request may wait for co-travellers
        and the envelope size that forces an immediate flush.
    inflight:
        per-shard in-flight window: the number of lane threads each
        shard runs, so up to ``inflight`` *distinct* sources execute
        concurrently while same-source detections stay serialized in
        pop order (PROTOCOL.md §11).  ``1`` (the default) is one thread
        per shard.

    Ordering guarantees: within one shard, detections run in priority
    order (FIFO per level) and detections sharing a source key
    (``component_id#detection_id``) run strictly in pop order even with
    ``inflight > 1``.  *Across* shards there is no global order — rules
    that must serialize against each other should share a shard key or
    run on the synchronous engine.
    """

    def __init__(self, workers: int = 4, queue_capacity: int = 1024,
                 backpressure: str = "block", *,
                 submit_timeout: float | None = None,
                 batching: bool = False, batch_window: float = 0.005,
                 max_batch: int = 16, inflight: int = 1,
                 poll_interval: float = 0.2) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if inflight < 1:
            raise ValueError("inflight must be >= 1")
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {backpressure!r}")
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.backpressure = backpressure
        self.submit_timeout = submit_timeout
        self.batching = batching
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.inflight = inflight
        self._poll_interval = poll_interval

        from ..core.engine import _DetectionQueue
        self._queues = [_DetectionQueue() for _ in range(workers)]
        self._shards = [_Shard(inflight) for _ in range(workers)]
        self._threads: list[threading.Thread] = []
        #: per-thread flag set inside worker threads; an ident set would
        #: outlive the thread and misclassify a producer whose OS-reused
        #: ident matched a dead worker's
        self._worker_local = threading.local()
        self._engine: ECAEngine | None = None
        self.batcher: DispatchBatcher | None = None

        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)   # capacity freed
        self._idle = threading.Condition(self._lock)    # pool quiesced
        self._size = 0          # queued, not yet picked up
        self._active = 0        # being executed right now
        self._inflight = 0      # popped, not yet completed (≥ _active)
        self._shard_inflight = [0] * workers
        self._running = False
        self._stop = False

        # lifetime counters (read under the lock or accepted as racy
        # monitoring snapshots)
        self.submitted = 0
        self.completed = 0
        self.dropped = 0
        self.rejected = 0
        self.errors = 0
        self.last_error: BaseException | None = None

        #: observability hook: called with the seconds a detection spent
        #: queued before a worker picked it up (obs wires a histogram)
        self.on_wait: Callable[[float], None] | None = None

        #: submit-time stamps keyed by ``id(detection)``; every exit
        #: path pops its entry (pickup, drop-oldest shed, shutdown
        #: sweep), so the map is bounded by the queued depth — see
        #: tests/runtime/test_enqueued_bookkeeping.py
        self._enqueued_at: dict[int, float] = {}
        self._busy_time = [0.0] * workers
        self._started_at: float | None = None
        self._fallback_key = itertools.count()

    # -- lifecycle -----------------------------------------------------------

    def attach(self, engine: "ECAEngine") -> None:
        """Bind to *engine* and start the worker threads.

        Called by ``ECAEngine.__init__`` when constructed with
        ``runtime=``; a runtime serves exactly one engine for its
        lifetime (re-attach raises).
        """
        with self._lock:
            if self._engine is not None:
                raise RuntimeError("runtime is already attached to an engine")
            self._engine = engine
            self._stop = False
            self._running = True
            self._started_at = time.monotonic()
        if self.batching:
            from .batcher import DispatchBatcher
            self.batcher = DispatchBatcher(
                engine.grh, window=self.batch_window,
                max_batch=self.max_batch)
            engine.grh.batcher = self.batcher
        for index in range(self.workers):
            for lane in range(self.inflight):
                thread = threading.Thread(
                    target=self._lane, args=(index,),
                    name=f"eca-runtime-{index}-lane{lane}", daemon=True)
                self._threads.append(thread)
                thread.start()

    @property
    def running(self) -> bool:
        """True while workers accept and execute detections."""
        return self._running

    @property
    def saturated(self) -> bool:
        """True when the ingestion queue is at capacity."""
        return self._size >= self.queue_capacity

    @property
    def accepting(self) -> bool:
        """Admission gate: running and below capacity (``/readyz``)."""
        return self._running and self._size < self.queue_capacity

    # -- ingestion -----------------------------------------------------------

    def _shard_of(self, detection: "Detection") -> int:
        key = detection.detection_id
        if key is None:
            # no stable identity: spread round-robin (next() is atomic)
            key = str(next(self._fallback_key))
        digest = zlib.crc32(f"{detection.component_id}#{key}".encode())
        return digest % self.workers

    def submit(self, detection: "Detection", priority: int = 0) -> None:
        """Admit a detection: apply the backpressure policy and enqueue.

        Raises :class:`BackpressureError` (``reject`` policy, or
        ``block`` past *submit_timeout*) — the caller owns closing the
        detection's durable record (``ECAEngine._on_detection`` does).
        """
        shard = self._shard_of(detection)
        queue = self._queues[shard]
        victim: Detection | None = None
        with self._lock:
            if not self._running:
                raise RuntimeError("runtime is not running")
            chained = getattr(self._worker_local, "is_worker", False)
            if not chained and self._size >= self.queue_capacity:
                if self.backpressure == "reject":
                    self.rejected += 1
                    raise BackpressureError(
                        f"ingestion queue full "
                        f"({self._size}/{self.queue_capacity})")
                if self.backpressure == "drop-oldest":
                    victim = queue.shed()
                    if victim is None:
                        deepest = max(self._queues, key=len)
                        victim = deepest.shed()
                    if victim is not None:
                        self._size -= 1
                        self.dropped += 1
                        self._enqueued_at.pop(id(victim), None)
                    # both sheds returning None means every counted
                    # detection is mid-pickup (popped from its shard
                    # queue, pool lock not yet taken): real queued depth
                    # is below capacity, so admitting is not over-
                    # admitting — _size corrects when workers get the
                    # lock
                else:  # block
                    deadline = (None if self.submit_timeout is None
                                else time.monotonic() + self.submit_timeout)
                    while (self._size >= self.queue_capacity
                           and self._running):
                        remaining = (None if deadline is None
                                     else deadline - time.monotonic())
                        if remaining is not None and remaining <= 0:
                            self.rejected += 1
                            raise BackpressureError(
                                f"no queue space within "
                                f"{self.submit_timeout}s")
                        self._space.wait(
                            self._poll_interval if remaining is None
                            else min(remaining, self._poll_interval))
                    if not self._running:
                        raise RuntimeError("runtime stopped during submit")
            self._size += 1
            self.submitted += 1
            self._enqueued_at[id(detection)] = time.monotonic()
            queue.push(priority, detection)
        if victim is not None and self._engine is not None:
            # journal the shed detection as dropped outside the lock
            self._engine._discard(victim)

    # -- execution -----------------------------------------------------------

    def _source_key(self, detection: "Detection") -> object:
        """Serialization key for the §10/§11 per-source ordering contract.

        Matches the shard hash input; a detection without a stable
        identity gets a unique key and never serializes with anything.
        """
        key = detection.detection_id
        if key is None:
            return object()
        return f"{detection.component_id}#{key}"

    def _lane(self, index: int) -> None:
        """One of shard *index*'s ``inflight`` execution lanes.

        Popping and classifying happen in one step under the shard's
        pop lock, which is what preserves per-source order: by the time
        a second same-source detection is popped, the first is already
        registered in the busy map, so the second chains behind it
        instead of racing to another lane.
        """
        queue = self._queues[index]
        shard = self._shards[index]
        self._worker_local.is_worker = True
        while True:
            # one permit per popped-but-incomplete detection (released
            # when it completes); bounds memory and keeps the capacity
            # gate honest — _size drops at pop, so popping without bound
            # would report a drained queue that is really a pile of
            # chained work
            if not shard.permits.acquire(timeout=self._poll_interval):
                if self._stop and not queue:
                    return
                continue
            chain = None
            with shard.pop:
                detection = queue.wait(
                    timeout=0 if self._stop else self._poll_interval)
                if detection is not None:
                    key = self._source_key(detection)
                    start = time.monotonic()
                    with self._lock:
                        # the detection leaves the queued count at
                        # pickup, not at completion: _size is what the
                        # capacity gate and /readyz reflect, and
                        # counting executing detections made small
                        # capacities permanently "full" (shed() then
                        # found nothing to drop and submit over-admitted)
                        self._size -= 1
                        self._inflight += 1
                        self._shard_inflight[index] += 1
                        waited = start - self._enqueued_at.pop(
                            id(detection), start)
                        self._space.notify()
                        chain = shard.busy.get(key)
                        if chain is None:
                            shard.busy[key] = deque()
                            self._active += 1
                        else:
                            # same source already executing: chain
                            # behind it, the running lane takes it next
                            chain.append((detection, waited, start))
            if detection is None:
                shard.permits.release()
                if self._stop and not queue:
                    return
                continue
            hook = self.on_wait
            if hook is not None:
                try:
                    hook(waited)
                except Exception:
                    pass
            if chain is None:
                self._execute(index, shard, key, detection, waited)

    def _execute(self, index: int, shard: _Shard, key: object,
                 detection: "Detection", waited: float) -> None:
        """Run *detection*, then everything chained behind its source
        key in pop order, each with the pool's accounting; frees the
        key when its chain is empty."""
        engine = self._engine
        while True:
            # hand the wait to the engine: _handle stamps it onto the
            # instance's root span for the critical-path analyzer
            self._worker_local.last_wait = waited
            start = time.monotonic()
            ok = False
            try:
                engine._handle(detection)
                ok = True
            except BaseException as exc:  # shield the pool: a lane must
                # survive anything one instance evaluation throws; the
                # durable record stays open so recovery re-drives it —
                # the same at-least-once contract the sync path has when
                # an exception escapes to the producer
                self.last_error = exc
            finally:
                elapsed = time.monotonic() - start
                with self._lock:
                    self._active -= 1
                    self._inflight -= 1
                    self._shard_inflight[index] -= 1
                    self._busy_time[index] += elapsed
                    if ok:
                        self.completed += 1
                    else:
                        self.errors += 1
                    chain = shard.busy[key]
                    if chain:
                        detection, waited, popped_at = chain.popleft()
                        self._active += 1
                    else:
                        del shard.busy[key]
                        detection = None
                    if self._size == 0 and self._inflight == 0:
                        self._idle.notify_all()
                shard.permits.release()
            if detection is None:
                return
            # the time a chained detection spent behind its predecessor
            # is still time it waited on the runtime
            waited += time.monotonic() - popped_at

    def take_queue_wait(self) -> float | None:
        """Consume this lane thread's pending queue-wait hand-off.

        The lane records how long the detection it is about to execute
        waited — shard queue plus any wait behind a same-source
        predecessor — just before calling ``engine._handle``; the engine
        reads it here exactly once and stamps it onto the instance's
        root span as the ``queue_wait`` attribute (PROTOCOL.md §14).
        Returns ``None`` off a lane thread or when already consumed.
        """
        waited = getattr(self._worker_local, "last_wait", None)
        if waited is not None:
            self._worker_local.last_wait = None
        return waited

    # -- quiesce -------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the pool is idle; leave durable state consistent.

        Waits for every shard queue to empty and every worker to finish
        its current instance, flushes the dispatch batcher, then runs
        the durability commit barrier (journal fsync + checkpoint
        opportunity).  Returns ``True`` once idle, ``False`` if
        *timeout* seconds elapsed first.  Must not be called from rule
        code (a worker waiting for itself never becomes idle).
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._lock:
            while self._size > 0 or self._active > 0 or self._inflight > 0:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(
                    self._poll_interval if remaining is None
                    else min(remaining, self._poll_interval))
        batcher = self.batcher
        if batcher is not None:
            batcher.flush()
        engine = self._engine
        if engine is not None and engine.durability is not None:
            engine.durability.commit_barrier()
        return True

    def shutdown(self, timeout: float | None = None) -> bool:
        """Drain, stop the workers, and detach the batcher.

        The engine remains usable afterwards: with the runtime stopped,
        ``ECAEngine`` falls back to the synchronous path.  Returns the
        drain verdict (``False`` means *timeout* hit before quiescence;
        workers still stop after finishing their current instance).
        """
        quiesced = self.drain(timeout)
        with self._lock:
            self._running = False
            self._stop = True
            self._space.notify_all()
        for queue in self._queues:
            queue.notify_all()
        for thread in self._threads:
            thread.join(timeout=self._poll_interval * 4)
        self._threads.clear()
        with self._lock:
            # bookkeeping sweep: a shutdown that timed out mid-drain can
            # leave queued detections whose submit stamps nobody will
            # pop (workers are gone); clearing here keeps _enqueued_at
            # bounded across stop/attach cycles of long-lived processes
            self._enqueued_at.clear()
        batcher = self.batcher
        if batcher is not None:
            batcher.stop()
            if self._engine is not None:
                self._engine.grh.batcher = None
            self.batcher = None
        return quiesced

    # -- monitoring ----------------------------------------------------------

    def queue_depths(self) -> list[int]:
        """Current per-shard queue depths (monitoring snapshot)."""
        return [len(queue) for queue in self._queues]

    def inflight_depths(self) -> list[int]:
        """Per-shard popped-but-incomplete detections (snapshot)."""
        return list(self._shard_inflight)

    def utilization(self) -> list[float]:
        """Per-worker busy fraction since attach (monitoring snapshot)."""
        if self._started_at is None:
            return [0.0] * self.workers
        elapsed = max(time.monotonic() - self._started_at, 1e-9)
        return [min(busy / elapsed, 1.0) for busy in self._busy_time]

    def counters(self) -> dict:
        """Lifetime ingestion/execution counters (monitoring snapshot)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "rejected": self.rejected,
            "errors": self.errors,
            "queued": self._size,
            "active": self._active,
            "inflight": self._inflight,
            # wait-stamp map size; tracks queued depth (regression
            # guard: a leak here would grow it past the queue bound)
            "wait_stamps": len(self._enqueued_at),
        }
