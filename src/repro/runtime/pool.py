"""The engine's scheduler: sharded lanes executing rule instances.

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

With no lanes running (``workers=0``, or after
:meth:`Runtime.shutdown`) a detection joins the *caller queue* instead,
and the submitting thread runs it until it is empty.  The caller queue
has one permit, which makes it the synchronous engine: one evaluation
at a time, in priority order, a detection chained by a rule queued
behind the running instance rather than nested in it, and an escaping
exception delivered to the producer.  The detections of one feed
arrive as a *group* (:meth:`Runtime.submit_group`): when nothing holds
the permit the group is evaluated at once, in arrival order, its
actions leaving together (PROTOCOL.md §7); otherwise its detections
join the queue one by one.  The lanes shard per detection, so there a
group is one detection.  With a single permit no two
detections of one source can ever overlap, so the caller queue needs
none of the lanes' per-source bookkeeping, and it is not part of the
lanes' admission count.

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

import heapq
import itertools
import threading
import time
import zlib
from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING

from ..obs.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from ..core.engine import ECAEngine
    from ..grh.messages import Detection

#: admission-control policies accepted by :class:`Runtime`
BACKPRESSURE_POLICIES = ("block", "drop-oldest", "reject")


class BackpressureError(RuntimeError):
    """The runtime's ingestion queue is full and the policy is ``reject``.

    Raised to the event producer (the thread delivering the detection);
    the detection was journalled as ``dropped`` first under a durable
    engine, so recovery will not replay work the engine refused.
    """


class _DetectionQueue:
    """Priority-bucketed FIFO of queued entries (thread-safe).

    One deque per priority level plus a max-heap of the non-empty
    levels: ``push``/``pop`` are O(log P) in the number of *distinct*
    priorities, instead of the O(n) scan per pop that made large
    batched detection floods quadratic.  FIFO order within a level is
    preserved (the paper's priorities only order *across* levels).

    All operations take the queue's lock: detections may be delivered
    from event-service threads (HTTP servers, lanes via rule chaining)
    while another thread pops, and the heap/bucket invariant must never
    be observed half-updated.  The lock doubles as the condition used
    by :meth:`wait` so a consumer can block for work without polling.
    """

    __slots__ = ("_buckets", "_heap", "_size", "_lock", "_cond")

    def __init__(self) -> None:
        self._buckets: dict[int, deque] = {}
        self._heap: list[int] = []
        self._size = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)

    def push(self, priority: int, entry) -> None:
        with self._lock:
            bucket = self._buckets.get(priority)
            if bucket is None:
                bucket = self._buckets[priority] = deque()
            if not bucket:
                # invariant: the heap holds each non-empty level once
                heapq.heappush(self._heap, -priority)
            bucket.append(entry)
            self._size += 1
            self._cond.notify()

    def _pop_locked(self):
        priority = -self._heap[0]
        bucket = self._buckets[priority]
        entry = bucket.popleft()
        if not bucket:
            heapq.heappop(self._heap)
        self._size -= 1
        return entry

    def pop(self):
        with self._lock:
            if not self._size:
                raise IndexError("pop from empty detection queue")
            return self._pop_locked()

    def pop_nowait(self):
        """Highest-priority entry, or ``None`` when empty."""
        with self._lock:
            if not self._size:
                return None
            return self._pop_locked()

    def wait(self, timeout: float | None = None):
        """Block until an entry is available (or *timeout* elapses)."""
        with self._lock:
            if not self._size:
                self._cond.wait(timeout)
            if not self._size:
                return None
            return self._pop_locked()

    def shed(self):
        """Remove and return the oldest entry of the *lowest* level.

        Backpressure victim selection for the runtime's ``drop-oldest``
        policy: the detection shed is the one that would have been
        handled last anyway, so the least-valuable work is lost.
        Returns ``None`` when the queue is empty.
        """
        with self._lock:
            if not self._size:
                return None
            level = max(self._heap)  # heap entries are negated priorities
            bucket = self._buckets[-level]
            entry = bucket.popleft()
            if not bucket:
                self._heap.remove(level)
                heapq.heapify(self._heap)
            self._size -= 1
            return entry

    def notify_all(self) -> None:
        """Wake every :meth:`wait`-blocked consumer (shutdown path)."""
        with self._lock:
            self._cond.notify_all()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0


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
    """The scheduler of :class:`~repro.core.ECAEngine`.

    The default engine builds ``Runtime(workers=0)`` and evaluates on
    the producing thread; construct the engine with lanes to go
    concurrent::

        runtime = Runtime(workers=4, queue_capacity=1024)
        engine = ECAEngine(grh, runtime=runtime)
        ...
        engine.shutdown()        # drain + stop the lanes

    Parameters
    ----------
    workers:
        number of shards, each run by ``inflight`` lane threads.
        Detections hash to a fixed shard by
        ``crc32(component_id # detection_id)``, so redelivery of the
        same detection lands on the same shard.  ``0`` runs no thread:
        every detection is evaluated on the thread that submits it, one
        at a time, in priority order — the synchronous engine.  The
        remaining parameters shape the lanes only and do nothing there.
    queue_capacity:
        bound on the total queued (not yet executing) detections across
        all shards; the *backpressure* policy applies beyond it.
    backpressure:
        one of :data:`BACKPRESSURE_POLICIES`.
    submit_timeout:
        with ``block``, how long a producer waits for space before
        :class:`BackpressureError` is raised anyway (``None`` = forever).
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
                 submit_timeout: float | None = None, inflight: int = 1,
                 poll_interval: float = 0.2) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
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
        self.inflight = inflight
        self._poll_interval = poll_interval

        self._queues = [_DetectionQueue() for _ in range(workers)]
        self._shards = [_Shard(inflight) for _ in range(workers)]
        #: detections evaluated on the thread that submits them; whoever
        #: holds the permit runs the queue
        self._caller = _DetectionQueue()
        self._caller_permit = threading.Lock()
        self._threads: list[threading.Thread] = []
        #: per-thread flag set inside lane threads; an ident set would
        #: outlive the thread and misclassify a producer whose OS-reused
        #: ident matched a dead lane's
        self._worker_local = threading.local()
        self._engine: ECAEngine | None = None

        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)   # capacity freed
        self._idle = threading.Condition(self._lock)    # pool quiesced
        self._size = 0          # queued on a lane shard, not yet picked up
        self._active = 0        # being executed right now
        #: per shard: popped, not yet completed (≥ its share of _active)
        self._shard_inflight = [0] * workers
        self._running = False
        self._stop = False

        # lifetime counters of the lanes (read under the lock or accepted
        # as racy monitoring snapshots)
        self.submitted = 0
        self.completed = 0
        self.dropped = 0
        self.rejected = 0
        self.errors = 0
        self.last_error: BaseException | None = None

        #: seconds each detection spent queued before a lane picked it up
        self.queue_wait = Histogram()

        self._busy_time = [0.0] * workers
        self._started_at: float | None = None
        self._fallback_key = itertools.count()

    # -- lifecycle -----------------------------------------------------------

    def attach(self, engine: "ECAEngine") -> None:
        """Bind to *engine* and start the lane threads.

        Called by ``ECAEngine.__init__``; a runtime serves exactly one
        engine for its lifetime (re-attach raises).
        """
        with self._lock:
            if self._engine is not None:
                raise RuntimeError("runtime is already attached to an engine")
            self._engine = engine
            self._stop = False
            self._running = self.workers > 0
            self._started_at = time.monotonic()
        for index in range(self.workers):
            for lane in range(self.inflight):
                thread = threading.Thread(
                    target=self._lane, args=(index,),
                    name=f"eca-runtime-{index}-lane{lane}", daemon=True)
                self._threads.append(thread)
                thread.start()

    @property
    def running(self) -> bool:
        """True while lanes accept and execute detections."""
        return self._running

    @property
    def saturated(self) -> bool:
        """True when the ingestion queue is at capacity."""
        return self._size >= self.queue_capacity

    @property
    def accepting(self) -> bool:
        """Admission gate: running and below capacity (``/readyz``)."""
        return self._running and self._size < self.queue_capacity

    @property
    def caller_busy(self) -> bool:
        """True while a thread runs the caller queue or holds a
        :meth:`batch` on it — i.e. inside a synchronous evaluation."""
        return self._caller_permit.locked()

    # -- ingestion -----------------------------------------------------------

    def _shard_of(self, detection: "Detection") -> int:
        key = detection.detection_id
        if key is None:
            # no stable identity: spread round-robin (next() is atomic)
            key = str(next(self._fallback_key))
        digest = zlib.crc32(f"{detection.component_id}#{key}".encode())
        return digest % self.workers

    def submit(self, detection: "Detection", priority: int = 0, *,
               here: bool = False) -> None:
        """Admit a detection.

        With running lanes it is hashed to a lane shard under the
        backpressure policy.  Otherwise (or with ``here=True``) it joins
        the caller queue, which this thread then runs until empty unless
        another evaluation or :meth:`batch` holds it.  A refused
        detection (:class:`BackpressureError`) has its durable record
        closed through ``engine._discard`` before the error propagates.
        """
        if self._running and not here and self._enqueue(detection, priority):
            return
        self._caller.push(priority, detection)
        self._run_here()

    def submit_group(self, detections: "list[Detection]",
                     priorities: list[int]) -> None:
        """Admit the detections of one feed, with their priorities.

        With running lanes each is hashed to its shard, as by
        :meth:`submit`; when one is refused (:class:`BackpressureError`)
        the durable records of the rest are closed as well before the
        error propagates.  Otherwise, when nothing holds the caller
        queue and nothing waits in it, this thread evaluates the group
        at once, in arrival order (``engine._handle_group``, or
        ``engine._handle`` for a group of one); else its detections join
        the caller queue and run by priority, one at a time.
        """
        if self._running:
            pending = []
            for position, detection in enumerate(detections):
                try:
                    queued = self._enqueue(detection, priorities[position])
                except BaseException:
                    for rest in detections[position + 1:]:
                        self._engine._discard(rest)
                    raise
                if not queued:
                    pending.append(position)
            if not pending:
                return
            # the lanes stopped under us: what they refused runs here
            detections = [detections[position] for position in pending]
            priorities = [priorities[position] for position in pending]
        queue = self._caller
        permit = self._caller_permit
        if not queue and permit.acquire(blocking=False):
            try:
                if len(detections) == 1:
                    self._engine._handle(detections[0])
                else:
                    self._engine._handle_group(detections)
            finally:
                permit.release()
        else:
            for detection, priority in zip(detections, priorities):
                queue.push(priority, detection)
        self._run_here()

    def _enqueue(self, detection: "Detection", priority: int) -> bool:
        """Queue *detection* on its lane shard, stamped with the submit
        time; ``False`` when the lanes stopped first."""
        shard = self._shard_of(detection)
        queue = self._queues[shard]
        victim = None
        try:
            with self._lock:
                if not self._running:
                    return False
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
                        # both sheds returning None means every counted
                        # detection is mid-pickup (popped from its shard
                        # queue, pool lock not yet taken): real queued
                        # depth is below capacity, so admitting is not
                        # over-admitting — _size corrects when lanes get
                        # the lock
                    else:  # block
                        deadline = (None if self.submit_timeout is None
                                    else time.monotonic()
                                    + self.submit_timeout)
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
                            return False
                self._size += 1
                self.submitted += 1
                queue.push(priority, (detection, time.monotonic()))
        except BaseException:
            if self._engine is not None:
                self._engine._discard(detection)
            raise
        if victim is not None and self._engine is not None:
            # journal the shed detection as dropped outside the lock
            self._engine._discard(victim[0])
        return True

    # -- execution -----------------------------------------------------------

    def _run_here(self) -> None:
        """Run the caller queue on this thread until it is empty.

        A thread that finds the permit held leaves its detection queued:
        the holder re-checks the queue after every release, so nothing
        strands.  An exception escaping an evaluation releases the
        permit and reaches this thread's caller; what it left queued
        runs on the next submit.  An emptied queue is a compaction point.
        """
        queue = self._caller
        permit = self._caller_permit
        engine = self._engine
        while queue:
            if not permit.acquire(blocking=False):
                return
            try:
                detection = queue.pop_nowait()
                while detection is not None:
                    engine._handle(detection)
                    detection = queue.pop_nowait()
            finally:
                permit.release()
        if engine.durability is not None:
            # the queue is empty, so the snapshot has no half-processed
            # detection to misrepresent
            engine.durability.maybe_checkpoint()

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
                entry = queue.wait(
                    timeout=0 if self._stop else self._poll_interval)
                if entry is not None:
                    detection, stamp = entry
                    key = self._source_key(detection)
                    start = time.monotonic()
                    waited = start - stamp
                    with self._lock:
                        # the detection leaves the queued count at
                        # pickup, not at completion: _size is what the
                        # capacity gate and /readyz reflect, and
                        # counting executing detections made small
                        # capacities permanently "full" (shed() then
                        # found nothing to drop and submit over-admitted)
                        self._size -= 1
                        self._shard_inflight[index] += 1
                        self._space.notify()
                        self.queue_wait.observe(waited)
                        chain = shard.busy.get(key)
                        if chain is None:
                            shard.busy[key] = deque()
                            self._active += 1
                        else:
                            # same source already executing: chain
                            # behind it, the running lane takes it next
                            chain.append((detection, waited, start))
            if entry is None:
                shard.permits.release()
                if self._stop and not queue:
                    return
                continue
            if chain is None:
                self._execute(index, shard, key, detection, waited)

    def _execute(self, index: int, shard: _Shard, key: object,
                 detection: "Detection", waited: float) -> None:
        """Run *detection*, then everything chained behind its source
        key in pop order, each with the pool's accounting; frees the
        key when its chain is empty.  The wait goes to ``_handle``,
        which stamps it onto the instance's root span."""
        engine = self._engine
        while True:
            start = time.monotonic()
            ok = False
            try:
                engine._handle(detection, waited)
                ok = True
            except BaseException as exc:  # shield the pool: a lane must
                # survive anything one instance evaluation throws; the
                # durable record stays open so recovery re-drives it —
                # the same at-least-once contract the caller queue has
                # when an exception escapes to the producer
                self.last_error = exc
            finally:
                elapsed = time.monotonic() - start
                with self._lock:
                    self._active -= 1
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
                    if self._size == 0 and not any(self._shard_inflight):
                        self._idle.notify_all()
                shard.permits.release()
            if detection is None:
                return
            # the time a chained detection spent behind its predecessor
            # is still time it waited on the runtime
            waited += time.monotonic() - popped_at

    # -- quiesce -------------------------------------------------------------

    @contextmanager
    def batch(self, here: bool = False):
        """Defer evaluation to the end of the block (``ECAEngine.batch``).

        Without running lanes (or with ``here=True``) the block holds
        the caller queue, which runs at exit even when the block raises;
        nested in an evaluation or a batch it is a no-op.  With running
        lanes exit blocks until :meth:`drain` returns.
        """
        if self._running and not here:
            try:
                yield
            finally:
                self.drain()
            return
        permit = self._caller_permit
        if not permit.acquire(blocking=False):
            yield
            return
        try:
            yield
        finally:
            permit.release()
            self._run_here()

    def drain(self, timeout: float | None = None) -> bool:
        """Block until the pool is idle; leave durable state consistent.

        Without running lanes the calling thread runs the caller queue,
        as :meth:`submit` does; a runtime whose lanes have stopped then
        also runs the durability commit barrier, ``workers=0`` does not
        (its emptied queue already took its checkpoint opportunity).
        With lanes it waits for every shard queue to empty and every
        lane to finish its current instance, then runs the commit
        barrier (journal fsync + checkpoint opportunity).  Returns
        ``True`` once idle, ``False`` if *timeout* seconds elapsed first.  With lanes it must not be
        called from rule code (a lane waiting for itself never becomes
        idle).
        """
        engine = self._engine
        if engine is None:
            return True     # never attached: nothing was ever queued
        if not self._running:
            self._run_here()
            if self.workers and engine.durability is not None:
                engine.durability.commit_barrier()
            return True
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._lock:
            while self._size or any(self._shard_inflight):
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(
                    self._poll_interval if remaining is None
                    else min(remaining, self._poll_interval))
        if engine.durability is not None:
            engine.durability.commit_barrier()
        return True

    def shutdown(self, timeout: float | None = None) -> bool:
        """Drain and stop the lanes.

        The engine remains usable afterwards: with no lanes running,
        detections are evaluated on the submitting thread.  Returns the
        drain verdict (``False`` means *timeout* hit before quiescence;
        lanes still stop after finishing their current instance).
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
        """Lifetime ingestion/execution counters of the lanes
        (monitoring snapshot)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "dropped": self.dropped,
            "rejected": self.rejected,
            "errors": self.errors,
            "queued": self._size,
            "active": self._active,
            "inflight": sum(self._shard_inflight),
        }
