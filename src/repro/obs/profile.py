"""``repro.obs.profile``: continuous profiling and latency attribution.

Two complementary answers to *where does a detection's millisecond go*:

:class:`SamplingProfiler`
    a statistical, whole-process view.  A daemon thread samples
    ``sys._current_frames()`` at ~99 Hz, folds each thread's stack into
    a semicolon-joined line (flamegraph input format) and tags it with
    the engine subsystem of its innermost ``repro.*`` frame
    (runtime / grh / match / durability / services / engine / obs).
    Samples aggregate into per-second buckets kept in a bounded ring,
    so ``GET /introspect/profile?seconds=N`` serves the last N seconds
    without the profiler ever growing without bound.  Pure stdlib, no
    interpreter hooks: overhead is the sampler thread's own work,
    self-measured and reported (gated <3% by ``bench_profile.py``);
    disabled means *no thread exists* — zero cost.

:class:`CriticalPathAnalyzer`
    an exact, per-instance decomposition.  A rule instance runs start
    to finish on one thread (the runtime's unit of parallelism), so its
    wall time splits into disjoint intervals: shard queue wait, engine
    bookkeeping, per-phase component evaluation, and — inside each GRH
    request — pool acquisition, retry backoff, hedge wait, remote
    service time, and the network/transport remainder.
    The analyzer sits in the tracer's exporter chain like
    :class:`~repro.obs.ops.sampling.TailSampler`: the tracer hands it
    each completed trace whole; for a ``rule`` root it walks the tree,
    reads the wait attributes the instrumented layers added to the GRH
    request spans (:func:`~repro.obs.trace.record_wait`) and the records
    co-located services left on them, and emits the per-phase budget into
    ``eca_latency_budget_seconds{phase=…}`` plus bounded per-rule
    reservoirs served by ``GET /introspect/latency``.  A self-check
    verifies the phases sum to the instance's wall time within
    tolerance — the decomposition is arithmetic, so a violation means
    an instrumentation bug, not noise (PROTOCOL.md §14).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter as _TallyCounter, OrderedDict, deque

from .trace import WAIT_KINDS

__all__ = ["SamplingProfiler", "CriticalPathAnalyzer", "subsystem_of",
           "PROFILE_SUBSYSTEMS", "BUDGET_PHASES"]

#: module-prefix → subsystem tag, most specific first
_SUBSYSTEM_PREFIXES = (
    ("repro.runtime", "runtime"),
    ("repro.grh", "grh"),
    ("repro.match", "match"),
    ("repro.durability", "durability"),
    ("repro.services", "services"),
    ("repro.obs", "obs"),
    ("repro.core", "engine"),
)

#: every subsystem tag the profiler can report (plus the catch-alls)
PROFILE_SUBSYSTEMS = tuple(tag for _, tag in _SUBSYSTEM_PREFIXES) + \
    ("repro", "external")

#: the phase taxonomy of the latency budget, in critical-path order
#: (PROTOCOL.md §14).  ``queue_wait`` precedes the root span; ``engine``
#: is the root's own bookkeeping; the component phases are their spans'
#: compute remainder; the wait kinds and ``service``/``network`` split
#: each GRH request span.
BUDGET_PHASES = ("queue_wait", "engine", "event", "query", "test",
                 "action") + WAIT_KINDS + ("service", "network")

#: component-phase span names → budget phase
_PHASE_OF_SPAN = {"phase:event": "event", "phase:query": "query",
                  "phase:test": "test", "phase:action": "action"}

#: span names of GRH dispatch spans (children of a phase span)
_REQUEST_SPANS = ("grh.request", "grh.fetch")


def subsystem_of(module: str | None) -> str:
    """The engine subsystem tag of one module name."""
    if not module or not module.startswith("repro"):
        return "external"
    for prefix, tag in _SUBSYSTEM_PREFIXES:
        if module.startswith(prefix):
            return tag
    return "repro"


class _Bucket:
    """One second's worth of samples."""

    __slots__ = ("second", "stacks", "subsystems", "samples")

    def __init__(self, second: int) -> None:
        self.second = second
        #: folded stack (tuple of frame labels, outermost first) → count
        self.stacks: _TallyCounter = _TallyCounter()
        #: subsystem tag → count
        self.subsystems: _TallyCounter = _TallyCounter()
        self.samples = 0


class SamplingProfiler:
    """Continuous ``sys._current_frames()`` sampling profiler.

    ``hz`` is the target sampling rate; ``window`` bounds the retained
    history in seconds (one ring bucket per second); ``max_depth``
    truncates pathological stacks.  ``start`` is idempotent; ``stop``
    joins the sampler thread.  All public readers take the bucket lock
    briefly and never block the sampler for long.
    """

    def __init__(self, hz: float = 99.0, window: float = 120.0,
                 max_depth: int = 48) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        if window < 1:
            raise ValueError("window must be >= 1 second")
        self.hz = hz
        self.interval = 1.0 / hz
        self.window = window
        self.max_depth = max_depth
        self._buckets: deque[_Bucket] = deque(maxlen=int(window))
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._own_ident: int | None = None
        #: code object → (frame label, subsystem tag or None); keyed by
        #: the object itself so a GC'd code object cannot alias a new
        #: one the way a bare ``id()`` key could
        self._code_cache: dict[object, tuple[str, str | None]] = {}
        # lifetime tallies (self-accounting)
        self.samples = 0            # thread stacks recorded
        self.ticks = 0              # sampling passes taken
        self.sample_cost = 0.0      # seconds spent inside _sample_once
        self._started_at: float | None = None
        self._active_time = 0.0     # summed run time across start/stop

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="eca-profiler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        if self._started_at is not None:
            self._active_time += time.monotonic() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the sampler thread --------------------------------------------------

    def _run(self) -> None:
        self._own_ident = threading.get_ident()
        while not self._stop.wait(self.interval):
            try:
                self._sample_once()
            except Exception:
                # a profiler must never take the process down; skip the
                # tick and keep sampling
                continue

    def _label(self, frame) -> tuple[str, str | None]:
        code = frame.f_code
        cached = self._code_cache.get(code)
        if cached is None:
            module = frame.f_globals.get("__name__", "?")
            tag = subsystem_of(module)
            cached = (sys.intern(f"{module}:{code.co_name}"),
                      tag if tag != "external" else None)
            self._code_cache[code] = cached
        return cached

    def _sample_once(self) -> None:
        t0 = time.perf_counter()
        frames = sys._current_frames()
        own = self._own_ident
        second = int(time.monotonic())
        recorded = 0
        collected: list[tuple[tuple[str, ...], str]] = []
        for ident, frame in frames.items():
            if ident == own:
                continue
            stack: list[str] = []
            subsystem: str | None = None
            depth = 0
            while frame is not None and depth < self.max_depth:
                label, tag = self._label(frame)
                stack.append(label)
                if subsystem is None and tag is not None:
                    # the innermost repro frame names the subsystem
                    subsystem = tag
                frame = frame.f_back
                depth += 1
            stack.reverse()
            collected.append((tuple(stack), subsystem or "external"))
            recorded += 1
        with self._lock:
            bucket = self._buckets[-1] if self._buckets else None
            if bucket is None or bucket.second != second:
                bucket = _Bucket(second)
                self._buckets.append(bucket)
            for stack, subsystem in collected:
                bucket.stacks[stack] += 1
                bucket.subsystems[subsystem] += 1
            bucket.samples += recorded
        self.samples += recorded
        self.ticks += 1
        self.sample_cost += time.perf_counter() - t0

    # -- self-accounting -----------------------------------------------------

    def active_seconds(self) -> float:
        active = self._active_time
        if self._started_at is not None:
            active += time.monotonic() - self._started_at
        return active

    def overhead(self) -> float:
        """The sampler thread's own CPU share of its active wall time.

        This is the profiler's *self-measured* cost; the end-to-end
        throughput impact on a workload is gated by
        ``benchmarks/bench_profile.py`` (<3% at 99 Hz).
        """
        active = self.active_seconds()
        if active <= 0.0:
            return 0.0
        return self.sample_cost / active

    # -- reading the window --------------------------------------------------

    def _merge(self, seconds: float | None) -> tuple[
            _TallyCounter, _TallyCounter, int, int]:
        """(stacks, subsystems, samples, buckets) over the last
        *seconds* of the window (all of it when ``None``)."""
        cutoff = None if seconds is None \
            else int(time.monotonic()) - int(seconds)
        stacks: _TallyCounter = _TallyCounter()
        subsystems: _TallyCounter = _TallyCounter()
        samples = 0
        buckets = 0
        with self._lock:
            retained = list(self._buckets)
        for bucket in retained:
            if cutoff is not None and bucket.second < cutoff:
                continue
            stacks.update(bucket.stacks)
            subsystems.update(bucket.subsystems)
            samples += bucket.samples
            buckets += 1
        return stacks, subsystems, samples, buckets

    def folded_lines(self, seconds: float | None = None,
                     top: int | None = None) -> list[str]:
        """Flamegraph input: ``frame;frame;… count`` lines, heaviest
        first (feed to any stackcollapse-compatible renderer)."""
        stacks, _, _, _ = self._merge(seconds)
        ranked = stacks.most_common(top)
        return [f"{';'.join(stack)} {count}" for stack, count in ranked]

    def snapshot(self, seconds: float | None = None, top: int = 25,
                 folded: bool = False) -> dict:
        """A JSON-ready view over the last *seconds* of the window."""
        stacks, subsystems, samples, buckets = self._merge(seconds)
        total = max(samples, 1)
        view = {
            "running": self.running,
            "hz": self.hz,
            "window_seconds": len(self._buckets),
            "covered_seconds": buckets,
            "samples": samples,
            "samples_total": self.samples,
            "overhead_fraction": round(self.overhead(), 6),
            "subsystems": {
                tag: {"samples": count,
                      "share": round(count / total, 4)}
                for tag, count in subsystems.most_common()},
            "top_stacks": [
                {"stack": ";".join(stack), "samples": count,
                 "share": round(count / total, 4)}
                for stack, count in stacks.most_common(top)],
        }
        if folded:
            view["folded"] = [f"{';'.join(stack)} {count}"
                              for stack, count in stacks.most_common()]
        return view

    def capture(self, seconds: float, top: int = 25,
                folded: bool = False) -> dict:
        """Block for *seconds*, then return the snapshot of exactly that
        interval.  Starts the sampler for the capture when it is not
        already running (and stops it again after)."""
        seconds = max(0.05, float(seconds))
        transient = not self.running
        if transient:
            self.start()
        try:
            started = time.monotonic()
            time.sleep(seconds)
            elapsed = time.monotonic() - started
            # +1: the interval may straddle one extra bucket boundary
            view = self.snapshot(seconds=elapsed + 1, top=top,
                                 folded=folded)
        finally:
            if transient:
                self.stop()
        view["captured_seconds"] = round(seconds, 3)
        return view


# -- critical-path analysis ----------------------------------------------------


class _Reservoir:
    """A bounded sample of per-instance phase totals (seconds)."""

    __slots__ = ("values",)

    def __init__(self, size: int) -> None:
        self.values: deque[float] = deque(maxlen=size)

    def add(self, value: float) -> None:
        self.values.append(value)

    def percentile(self, fraction: float) -> float:
        data = sorted(self.values)
        if not data:
            return 0.0
        index = min(len(data) - 1, int(fraction * len(data)))
        return data[index]


class _RuleStats:
    """Latency-budget reservoirs of one rule."""

    __slots__ = ("instances", "wall", "phases")

    def __init__(self, size: int) -> None:
        self.instances = 0
        self.wall = _Reservoir(size)
        self.phases: dict[str, _Reservoir] = {}


class CriticalPathAnalyzer:
    """Exporter-chain stage decomposing each trace into a latency budget.

    Receives each completed trace whole from the tracer (exactly like
    :class:`~repro.obs.ops.sampling.TailSampler`); for a ``rule`` root
    the span tree is walked and the instance's wall time — root duration
    plus the ``queue_wait`` attribute the runtime stamped — is split
    into the :data:`BUDGET_PHASES`:

    * ``queue_wait`` — shard queue + in-flight-lane wait before the
      instance began (root attribute);
    * ``engine`` — root time not inside any component phase span
      (instance bookkeeping, durability hooks, joins);
    * ``event``/``query``/``test``/``action`` — phase-span time not
      inside any GRH request span (local evaluation: joins, binding,
      markup);
    * ``pool_wait``/``retry_backoff``/``hedge_wait`` —
      request-span wait attributes (:func:`~repro.obs.trace.record_wait`),
      each clamped into the request's remaining budget;
    * ``service`` — summed durations of the request span's adopted
      server-side children and co-located services' records, clamped
      likewise;
    * ``network`` — the request remainder: transport, serialization,
      and the wire.

    Because one thread executes the instance sequentially, the buckets
    are disjoint by construction and sum to the wall time exactly up to
    clamping; ``selfcheck`` counts instances whose |sum − wall| exceeds
    ``tolerance × wall + epsilon`` — a non-zero count is an
    instrumentation bug, not noise.

    A rootless fragment (a span that finished after its trace was
    handed over) is skipped and counted in ``evicted``.

    Thread-safe: workers finish traces concurrently.  Only head-sampled
    traces reach any exporter, so the analyzer sees whatever fraction
    the head sampler admits — budgets are per-instance exact, coverage
    follows the sampling rate.
    """

    def __init__(self, tolerance: float = 0.05, epsilon: float = 0.001,
                 reservoir: int = 512, max_rules: int = 128) -> None:
        self.tolerance = tolerance
        self.epsilon = epsilon
        self.reservoir = reservoir
        self.max_rules = max_rules
        self._lock = threading.Lock()
        self._overall: dict[str, _Reservoir] = {}
        self._wall = _Reservoir(max(reservoir * 4, reservoir))
        self._rules: OrderedDict[str, _RuleStats] = OrderedDict()
        self._totals: dict[str, float] = dict.fromkeys(BUDGET_PHASES, 0.0)
        self.instances = 0
        self.evicted = 0
        self.selfcheck_ok = 0
        self.selfcheck_failed = 0
        self._budget_hist = None
        self._selfcheck_counters = None

    # -- metrics wiring ------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Register the budget histograms on *registry* and start
        feeding them (called by ``Observability``)."""
        family = registry.histogram(
            "eca_latency_budget_seconds",
            "Per-instance critical-path latency budget by phase",
            labels=("phase",))
        self._budget_hist = {phase: family.labels(phase)
                             for phase in BUDGET_PHASES}
        selfcheck = registry.counter(
            "eca_latency_selfcheck_total",
            "Critical-path self-check verdicts "
            "(phases-sum-to-wall within tolerance)",
            labels=("outcome",))
        self._selfcheck_counters = {
            "ok": selfcheck.labels("ok"),
            "out_of_tolerance": selfcheck.labels("out_of_tolerance")}

    # -- the exporter contract -----------------------------------------------

    def export(self, spans: list) -> None:
        root = spans[-1]
        if root.parent_id is not None:
            # a rootless fragment: the analyzer only ever needs complete
            # trees
            with self._lock:
                self.evicted += 1
            return
        if root.name != "rule":
            return
        try:
            self._analyze(spans, root)
        except Exception:
            # analysis must never fail the finishing worker
            pass

    # -- decomposition -------------------------------------------------------

    def _analyze(self, spans: list, root) -> None:
        children: dict[str | None, list] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        budget = dict.fromkeys(BUDGET_PHASES, 0.0)
        try:
            queue_wait = max(0.0, float(
                root.attributes.get("queue_wait") or 0.0))
        except (TypeError, ValueError):
            queue_wait = 0.0
        budget["queue_wait"] = queue_wait
        root_duration = root.duration
        phase_time = 0.0
        for phase_span in children.get(root.span_id, ()):
            phase = _PHASE_OF_SPAN.get(phase_span.name)
            if phase is None:
                continue
            phase_duration = phase_span.duration
            phase_time += phase_duration
            request_time = 0.0
            for request in children.get(phase_span.span_id, ()):
                if request.name not in _REQUEST_SPANS:
                    continue
                request_time += self._split_request(
                    request, children.get(request.span_id, ()), budget)
            # local evaluation: phase time not spent inside a dispatch
            budget[phase] += max(0.0, phase_duration - request_time)
        budget["engine"] = max(0.0, root_duration - phase_time)
        wall = root_duration + queue_wait
        attributed = sum(budget.values())
        ok = abs(attributed - wall) <= self.tolerance * wall + self.epsilon
        self._record(root, budget, wall, ok)

    def _split_request(self, request, request_children: list,
                       budget: dict) -> float:
        """Split one GRH request span into wait/service/network buckets;
        returns the request's duration (the phase's dispatch time)."""
        duration = request.duration
        remaining = duration
        attrs = request.attributes
        for kind in WAIT_KINDS:
            value = attrs.get(kind)
            if not value:
                continue
            try:
                wait = float(value)
            except (TypeError, ValueError):
                continue
            # clamp into the request's remaining budget: concurrent
            # hedge branches may jointly over-report relative to the
            # caller's wall interval
            wait = min(max(0.0, wait), remaining)
            budget[kind] += wait
            remaining -= wait
        service = 0.0
        for child in request_children:
            service += child.duration
        for record in request.records or ():
            service += record[3]
        service = min(max(0.0, service), remaining)
        budget["service"] += service
        remaining -= service
        budget["network"] += max(0.0, remaining)
        return duration

    def _record(self, root, budget: dict, wall: float, ok: bool) -> None:
        hist = self._budget_hist
        if hist is not None:
            for phase, seconds in budget.items():
                if seconds > 0.0:
                    hist[phase].observe(seconds)
        counters = self._selfcheck_counters
        if counters is not None:
            counters["ok" if ok else "out_of_tolerance"].inc()
        rule_id = str(root.attributes.get("rule", "?"))
        with self._lock:
            self.instances += 1
            if ok:
                self.selfcheck_ok += 1
            else:
                self.selfcheck_failed += 1
            self._wall.add(wall)
            for phase, seconds in budget.items():
                self._totals[phase] += seconds
                if seconds > 0.0:
                    reservoir = self._overall.get(phase)
                    if reservoir is None:
                        reservoir = self._overall[phase] = \
                            _Reservoir(self.reservoir)
                    reservoir.add(seconds)
            stats = self._rules.get(rule_id)
            if stats is None:
                stats = self._rules[rule_id] = _RuleStats(self.reservoir)
                while len(self._rules) > self.max_rules:
                    self._rules.popitem(last=False)
            else:
                self._rules.move_to_end(rule_id)
            stats.instances += 1
            stats.wall.add(wall)
            for phase, seconds in budget.items():
                if seconds > 0.0:
                    reservoir = stats.phases.get(phase)
                    if reservoir is None:
                        reservoir = stats.phases[phase] = \
                            _Reservoir(self.reservoir)
                    reservoir.add(seconds)

    # -- introspection -------------------------------------------------------

    @staticmethod
    def _phase_view(reservoirs: dict[str, _Reservoir]) -> dict:
        return {
            phase: {"p50_ms": round(res.percentile(0.50) * 1e3, 3),
                    "p99_ms": round(res.percentile(0.99) * 1e3, 3),
                    "samples": len(res.values)}
            for phase, res in reservoirs.items()}

    def snapshot(self) -> dict:
        """The ``GET /introspect/latency`` view: overall and per-rule
        p50/p99 per phase, total attribution shares, self-check."""
        with self._lock:
            total_attributed = sum(self._totals.values())
            shares = {
                phase: round(seconds / total_attributed, 4)
                for phase, seconds in self._totals.items()
                if seconds > 0.0} if total_attributed > 0.0 else {}
            dominant = max(shares, key=shares.get) if shares else None
            view = {
                "instances": self.instances,
                "evicted_traces": self.evicted,
                "selfcheck": {
                    "ok": self.selfcheck_ok,
                    "out_of_tolerance": self.selfcheck_failed,
                    "tolerance": self.tolerance,
                },
                "wall": {
                    "p50_ms": round(self._wall.percentile(0.50) * 1e3, 3),
                    "p99_ms": round(self._wall.percentile(0.99) * 1e3, 3),
                },
                "shares": shares,
                "dominant_phase": dominant,
                "phases": self._phase_view(self._overall),
                "rules": {
                    rule_id: {
                        "instances": stats.instances,
                        "wall_p50_ms": round(
                            stats.wall.percentile(0.50) * 1e3, 3),
                        "wall_p99_ms": round(
                            stats.wall.percentile(0.99) * 1e3, 3),
                        "phases": self._phase_view(stats.phases),
                    }
                    for rule_id, stats in self._rules.items()},
            }
        return view
