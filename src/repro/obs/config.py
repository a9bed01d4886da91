"""The one observability switch: config, wiring, and trace lookup.

An :class:`Observability` object owns a tracer (ring buffer and optional
JSONL file exporters) and a metrics registry, and knows how to wire them
into a running engine: ``ECAEngine(..., observability=obs)`` calls
:meth:`Observability.install`, which hooks the GRH, the resilience
manager, and the durability layer of *that* engine.

Everything is off by default — an engine constructed without an
``observability`` argument carries no instrumentation beyond a handful
of ``is not None`` checks, and ``Observability(enabled=False)`` exposes
no-op instruments so user code holding the handle keeps working.

Every ``eca_*`` family, its kind and its labels are catalogued once, in
PROTOCOL.md §8; ``tests/obs/test_catalogue.py`` keeps that table and
this module in step.  Components keep their own tallies (counters,
gauges and :class:`~repro.obs.metrics.Histogram` distributions);
:meth:`Observability.install` and :func:`declare_service_metrics` only
declare the families, as scrape-time reads of those tallies.
"""

from __future__ import annotations

from .metrics import MetricsRegistry
from .ops.logs import StructuredLogger
from .profile import CriticalPathAnalyzer, SamplingProfiler
from .trace import (JsonlExporter, NOOP_TRACER, RingBufferExporter, Span,
                    Tracer, current_span, render_trace)

__all__ = ["Observability", "declare_service_metrics", "hosted_services"]

#: the component phases of one rule instance, in evaluation order
PHASES = ("event", "query", "test", "action")
#: span names per phase, prebuilt off the hot path
_PHASE_SPAN_NAMES = {phase: "phase:" + phase for phase in PHASES}

#: request kinds the GRH dispatches (plus the opaque per-tuple fetch)
REQUEST_KINDS = ("register-event", "unregister-event", "query", "test",
                 "action", "fetch")

_BREAKER_STATE_VALUE = {"closed": 0.0, "half_open": 0.5, "open": 1.0}


class Observability:
    """Configuration and wiring for tracing + metrics of one engine.

    ``trace_buffer`` bounds the in-memory span ring; ``trace_jsonl``
    additionally streams every finished span to a JSONL file
    (size-capped and rotated when ``trace_jsonl_max_bytes`` is set).
    Pass ``metrics=`` to share one registry between several engines:
    only the two latency families recorded on the hot path
    (``eca_phase_latency_seconds``, ``eca_grh_request_latency_seconds``)
    accumulate across them; every other family — engine, GRH, runtime,
    durability, match and SPARQL — is a scrape-time read that re-binds
    to the engine installed last.

    Production operations (``repro.obs.ops``) hang off the same switch:

    * ``sampler=`` — a head sampler (``ProbabilisticSampler``,
      ``RateLimitedSampler``): unsampled traces build no spans but are
      still timed for the latency histograms, and the verdict rides the
      ``traceparent`` flags byte so services skip capture too;
    * ``tail=`` — a ``TailSampler`` spliced between the tracer and the
      ring/JSONL exporters: complete traces are kept when they erred,
      hit a resilience event, or ran long — plus a probability of the
      healthy rest;
    * ``log_path=``/``log_stream=`` — a :class:`StructuredLogger`
      (exposed as ``self.log``) that the engine, GRH and resilience
      layer emit trace-correlated JSON records through;
    * ``profiler=`` — ``True`` (or a :class:`SamplingProfiler`) starts
      a continuous wall-clock sampling profiler at engine install;
      snapshots via ``self.profiler`` or ``/introspect/profile``;
    * ``critical=`` — ``True`` (or a :class:`CriticalPathAnalyzer`)
      splices a latency-budget analyzer onto the exporter chain: every
      completed rule-instance trace is decomposed into queue / engine
      / wait / service / network phases (``self.critical``,
      ``/introspect/latency``, ``eca_latency_budget_seconds``).
    """

    def __init__(self, enabled: bool = True, trace_buffer: int = 4096,
                 trace_jsonl: str | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 sampler=None, tail=None,
                 trace_jsonl_max_bytes: int | None = None,
                 trace_jsonl_backups: int = 3,
                 log_path: str | None = None, log_stream=None,
                 log_level="INFO", log_max_bytes: int | None = None,
                 log_backups: int = 3,
                 profiler: bool | SamplingProfiler | None = None,
                 critical: bool | CriticalPathAnalyzer | None = None) -> None:
        self.enabled = enabled
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ring: RingBufferExporter | None = None
        self.jsonl: JsonlExporter | None = None
        self.sampler = None
        self.tail = None
        self.log: StructuredLogger | None = None
        self.profiler: SamplingProfiler | None = None
        self.critical: CriticalPathAnalyzer | None = None
        if not enabled:
            self.tracer = NOOP_TRACER
            self._phase_hist = {}
            self._grh_hist = {}
            return
        if profiler:
            self.profiler = profiler if isinstance(
                profiler, SamplingProfiler) else SamplingProfiler()
        if critical:
            self.critical = critical if isinstance(
                critical, CriticalPathAnalyzer) else CriticalPathAnalyzer()
            self.critical.bind_metrics(self.metrics)
        if tracer is None:
            self.ring = RingBufferExporter(trace_buffer)
            exporters = [self.ring]
            if trace_jsonl is not None:
                self.jsonl = JsonlExporter(
                    trace_jsonl, max_bytes=trace_jsonl_max_bytes,
                    backups=trace_jsonl_backups)
                exporters.append(self.jsonl)
            if tail is not None:
                # the tail sampler fronts the chain: it judges each
                # whole trace and passes the keepers to the real
                # exporters
                if not tail.downstream:
                    tail.downstream.extend(exporters)
                exporters = [tail]
                self.tail = tail
            if self.critical is not None:
                # the analyzer sits beside the chain head, not behind
                # the tail sampler: it must see EVERY completed trace,
                # including the healthy ones the tail discards
                exporters.append(self.critical)
            tracer = Tracer(exporters, sampler=sampler)
        else:
            if sampler is not None and tracer.sampler is None:
                tracer.sampler = sampler
            if self.critical is not None:
                tracer.add_exporter(self.critical)
        self.sampler = tracer.sampler
        self.tracer = tracer
        if log_path is not None or log_stream is not None:
            self.log = StructuredLogger(
                path=log_path, stream=log_stream, level=log_level,
                max_bytes=log_max_bytes, backups=log_backups,
                tracer=self.tracer)
        phase_family = self.metrics.histogram(
            "eca_phase_latency_seconds",
            "Rule-instance component phase latency", labels=("phase",))
        self._phase_hist = {phase: phase_family.labels(phase)
                            for phase in PHASES}
        grh_family = self.metrics.histogram(
            "eca_grh_request_latency_seconds",
            "GRH request round-trip latency", labels=("kind",))
        self._grh_hist = {kind: grh_family.labels(kind)
                          for kind in REQUEST_KINDS}

    # -- hot-path helpers --------------------------------------------------

    def begin_phase(self, phase: str, component_id: str) -> Span:
        """Start the child span for one component phase."""
        return self.tracer.begin(_PHASE_SPAN_NAMES.get(phase) or
                                 "phase:" + phase,
                                 {"component": component_id})

    def end_phase(self, phase: str, span: Span) -> None:
        """Finish a phase span and feed its latency histogram."""
        seconds = self.tracer.finish(span)
        histogram = self._phase_hist.get(phase)
        if histogram is not None:
            histogram.observe(seconds)
        log = self.log
        if log is not None:
            # per-phase records are debug-level: one isEnabledFor check
            # on the hot path unless an operator turns them on
            log.debug("engine.phase", phase=phase,
                      component=span.attributes.get("component"),
                      duration=seconds)

    def observe_request(self, kind: str, seconds: float) -> None:
        """Feed one GRH request's latency into the latency family."""
        histogram = self._grh_hist.get(kind)
        if histogram is None:
            histogram = self._grh_hist[kind] = self.metrics.histogram(
                "eca_grh_request_latency_seconds",
                labels=("kind",)).labels(kind)
        histogram.observe(seconds)

    # -- wiring ------------------------------------------------------------

    def install(self, engine) -> None:
        """Hook this observability into one engine and its GRH stack.

        Called by ``ECAEngine.__init__``; idempotent per engine, and
        re-installation (e.g. after crash recovery builds a fresh
        engine over the same GRH) re-binds the scrape-time callbacks to
        the new objects.
        """
        if not self.enabled:
            return
        metrics = self.metrics
        profiler = self.profiler
        if profiler is not None:
            profiler.start()
            metrics.counter("eca_profile_samples_total",
                            "Stack samples taken by the profiler",
                            callback=lambda: profiler.samples)
            metrics.gauge(
                "eca_profile_overhead_fraction",
                "Fraction of wall time spent taking stack samples",
                callback=profiler.overhead)
        stats = engine.stats
        metrics.counter("eca_detections_total",
                        "Detections accepted by the engine",
                        callback=lambda: stats["detections"])
        metrics.counter("eca_rule_instances_total",
                        "Rule instances created",
                        callback=lambda: stats["instances"])
        metrics.counter(
            "eca_instances_total", "Finished rule instances by status",
            labels=("status",),
            callback=lambda: {"completed": stats["completed"],
                              "dead": stats["dead"],
                              "failed": stats["failed"]})
        metrics.counter("eca_actions_total", "Action executions",
                        callback=lambda: stats["actions"])
        metrics.counter("eca_instances_evicted_total",
                        "Instances dropped by the retention caps",
                        callback=lambda: stats.get("evicted", 0))
        metrics.gauge("eca_kept_instances",
                      "Instances currently retained for introspection",
                      callback=lambda: len(engine.instances))
        metrics.gauge("eca_registered_rules", "Registered rules",
                      callback=lambda: len(engine.rules))

        grh = engine.grh
        grh.observability = self
        metrics.counter("eca_grh_requests_total",
                        "Requests mediated by the GRH",
                        callback=lambda: grh.request_count)
        metrics.counter("eca_grh_cache_hits_total",
                        "Opaque-request cache hits",
                        callback=lambda: grh.cache_hits)
        declare_service_metrics(metrics, lambda: hosted_services(grh))

        resilience = grh.resilience
        resilience.observer = self._on_resilience_event
        metrics.counter("eca_retries_total", "Service request retries",
                        callback=lambda: resilience.retries)
        metrics.counter("eca_attempts_total", "Service request attempts",
                        callback=lambda: resilience.attempts)
        metrics.counter("eca_breaker_opens_total", "Circuit breaker opens",
                        callback=lambda: resilience.breaker_opens)
        metrics.counter("eca_breaker_rejections_total",
                        "Requests shed by open breakers",
                        callback=lambda: resilience.breaker_rejections)
        metrics.gauge(
            "eca_breaker_state",
            "Breaker state per endpoint (0 closed, 0.5 half-open, 1 open)",
            labels=("endpoint",),
            callback=lambda: {
                address: _BREAKER_STATE_VALUE.get(state, 1.0)
                for address, state
                in resilience.snapshot()["breakers"].items()})
        metrics.counter(
            "eca_service_requests_total",
            "Per-endpoint request outcomes", labels=("endpoint", "outcome"),
            callback=lambda: {
                (address, outcome): counts[outcome]
                for address, counts
                in resilience.snapshot()["services"].items()
                for outcome in ("successes", "failures")})
        metrics.counter("eca_failover_total",
                        "Mid-call retargets onto an alternative replica",
                        callback=lambda: resilience.failovers)
        metrics.counter(
            "eca_hedge_total",
            "Hedged read requests by outcome (plus launches)",
            labels=("outcome",),
            callback=lambda: dict(resilience.hedge_outcomes,
                                  launched=resilience.hedges_launched))
        metrics.gauge(
            "eca_replica_health",
            "Replica health board (1 on the current state's row)",
            labels=("replica", "state"),
            callback=lambda: {
                (address, info["state"]): 1.0
                for address, info in resilience.health.snapshot().items()})
        queue = resilience.dead_letters
        metrics.gauge("eca_dead_letters", "Dead letters awaiting replay",
                      callback=lambda: len(queue))
        metrics.counter("eca_dead_letters_dropped_total",
                        "Dead letters dropped on queue overflow",
                        callback=lambda: queue.dropped)

        pool_stats = transport_pool_stats(grh)
        if pool_stats is not None:
            metrics.gauge(
                "eca_http_pool_connections",
                "Pooled HTTP connections per origin by state",
                labels=("origin", "state"),
                callback=lambda: {
                    (origin, state): float(stats[state])
                    for origin, stats in pool_stats().items()
                    for state in ("idle", "in_use")})
            metrics.counter(
                "eca_http_pool_events_total",
                "Pooled HTTP connection lifecycle events per origin",
                labels=("origin", "event"),
                callback=lambda: {
                    (origin, event): stats[event]
                    for origin, stats in pool_stats().items()
                    for event in ("created", "reused", "retired", "reaped")})

        runtime = engine.runtime
        if runtime.workers:
            metrics.gauge(
                "eca_runtime_queue_depth",
                "Queued detections per worker shard", labels=("shard",),
                callback=lambda: {str(shard): depth for shard, depth
                                  in enumerate(runtime.queue_depths())})
            metrics.gauge(
                "eca_runtime_inflight_depth",
                "Popped-but-incomplete detections per worker shard",
                labels=("shard",),
                callback=lambda: {str(shard): depth for shard, depth
                                  in enumerate(runtime.inflight_depths())})
            metrics.gauge(
                "eca_runtime_worker_utilization",
                "Busy fraction per worker since attach", labels=("shard",),
                callback=lambda: {str(shard): busy for shard, busy
                                  in enumerate(runtime.utilization())})
            metrics.gauge("eca_runtime_accepting",
                          "Admission gate (1 accepting, 0 saturated/stopped)",
                          callback=lambda: 1.0 if runtime.accepting else 0.0)
            metrics.counter(
                "eca_runtime_detections_total",
                "Detections by runtime admission outcome",
                labels=("outcome",),
                callback=lambda: {"submitted": runtime.submitted,
                                  "completed": runtime.completed,
                                  "dropped": runtime.dropped,
                                  "rejected": runtime.rejected,
                                  "errors": runtime.errors})
            metrics.histogram(
                "eca_runtime_queue_wait_seconds",
                "Time a detection waited queued before a worker ran it",
                callback=lambda: runtime.queue_wait)

        durability = engine.durability
        if durability is not None:
            journal = durability.journal
            metrics.counter("eca_journal_records_total",
                            "Records appended to the write-ahead journal",
                            callback=lambda: journal.appended)
            metrics.gauge("eca_in_flight_detections",
                          "Journaled detections not yet completed",
                          callback=lambda: len(durability.state.in_flight))
            metrics.histogram("eca_journal_fsync_seconds",
                              "Journal fsync latency",
                              callback=lambda: journal.fsync_seconds)
            metrics.histogram("eca_checkpoint_seconds",
                              "Checkpoint write duration",
                              callback=lambda: durability.checkpoint_seconds)

    def _on_resilience_event(self, event: str, address: str) -> None:
        """ResilienceManager observer: mark the active span and log.

        The marker attributes (``retries``, ``breaker_open``,
        ``breaker_reject``, ``dead_letter``) count the events on the
        open span and are what the tail sampler's default marker set
        looks for — a retried or shed request makes its whole trace
        worth keeping even when every span ends "ok".  A hedge branch
        reports from an executor thread with the request span bound, so
        the count goes through :meth:`Span.add`.  Called outside the
        resilience lock (see ResilienceManager), so taking the tracer's
        lock here is safe.
        """
        span = current_span()
        if span is not None and event != "breaker_close":
            span.add("retries" if event == "retry" else event, 1)
        log = self.log
        if log is not None:
            emit = log.warning if event in ("breaker_open", "dead_letter") \
                else log.info
            emit("resilience." + event, endpoint=address)

    # -- trace lookup ------------------------------------------------------

    def trace_ids(self) -> list[str]:
        """Distinct trace ids retained in the ring buffer, oldest first."""
        return self.ring.trace_ids() if self.ring is not None else []

    def trace(self, trace_id: str) -> list[Span]:
        return self.ring.trace(trace_id) if self.ring is not None else []

    def trace_of_instance(self, instance_id: int) -> list[Span]:
        """The spans of the trace whose root is the given rule instance."""
        if self.ring is None:
            return []
        for span in self.ring.spans():
            if span.name == "rule" and \
                    span.attributes.get("instance") == instance_id:
                return self.ring.trace(span.trace_id)
        return []

    def render(self, trace_id: str | None = None) -> str:
        """Render one trace as an indented tree (latest when no id)."""
        if self.ring is None:
            return ""
        if trace_id is None:
            ids = self.ring.trace_ids()
            if not ids:
                return ""
            trace_id = ids[-1]
        return render_trace(self.ring.trace(trace_id))

    def render_prometheus(self) -> str:
        return self.metrics.render_prometheus()

    def close(self) -> None:
        if self.profiler is not None:
            self.profiler.stop()
        if self.jsonl is not None:
            self.jsonl.close()
        if self.log is not None:
            self.log.close()


def transport_pool_stats(grh):
    """The GRH transport's ``pool_stats`` reader, or ``None`` for a
    transport without connection pools (probed once, at install)."""
    return getattr(grh.transport, "pool_stats", None)


def hosted_services(grh) -> list:
    """The in-process services ``grh`` routes to, each once — one
    service may answer under several language URIs."""
    unique = {id(route.service): route.service
              for route in grh.routes().values()
              if route.service is not None}
    return list(unique.values())


def partition_services(services) -> tuple[list, list]:
    """``(event-detection services, SPARQL services)`` among
    ``services``; any other service keeps no tallies ``repro.obs``
    reads."""
    from ..services.event_service import EventDetectionService
    from ..sparql.service import SparqlQueryService
    services = list(services)
    return ([service for service in services
             if isinstance(service, EventDetectionService)],
            [service for service in services
             if isinstance(service, SparqlQueryService)])


def declare_service_metrics(registry: MetricsRegistry, services) -> None:
    """Declare the ``eca_match_*`` (PROTOCOL.md §13.4) and
    ``eca_sparql_*`` (§15.5) families on ``registry``.

    ``services`` is a zero-argument callable returning the hosted
    services; it is called at every scrape, so a service registered
    later shows up and a dropped one leaves.  Each family sums what the
    services of one name count — discrimination networks and SPARQL
    services keep every tally themselves, so declaring costs nothing per
    event or query.  :meth:`Observability.install` calls this with the
    engine's hosted services; a standalone host or a test calls it with
    its own.  Declaring again re-binds the families.
    """
    def events():
        return partition_services(services())[0]

    def sparql():
        return partition_services(services())[1]

    def per_service(hosted, read, combine=sum):
        """Scrape-time ``{(service name,): combine(values)}``; a ``read``
        that returns a mapping adds its keys as a second label."""
        def collect():
            grouped: dict[tuple[str, ...], list] = {}
            for service in hosted():
                value = read(service)
                for key, item in (value.items() if isinstance(value, dict)
                                  else ((None, value),)):
                    label = (service.service_name,) if key is None \
                        else (service.service_name, key)
                    grouped.setdefault(label, []).append(item)
            return {label: combine(items)
                    for label, items in grouped.items()}
        return collect

    registry.gauge(
        "eca_match_alpha_nodes",
        "Unique alpha nodes in the event discrimination network",
        labels=("service",),
        callback=per_service(events, lambda s: s.network.alpha_node_count))
    registry.gauge(
        "eca_match_shared_memories",
        "Alpha nodes shared by more than one registered component",
        labels=("service",),
        callback=per_service(events, lambda s: s.network.shared_memory_count))
    registry.gauge(
        "eca_match_fallback_patterns",
        "Registered components in the linear fallback bucket",
        labels=("service",),
        callback=per_service(events, lambda s: s.network.fallback_count))
    registry.histogram(
        "eca_match_candidates",
        "Candidate components offered one event after discrimination",
        labels=("service",),
        callback=per_service(events, lambda s: s.network.candidates, list))
    registry.counter(
        "eca_match_events_total",
        "Events routed through the discrimination network",
        labels=("service",),
        callback=per_service(events, lambda s: s.network.events_routed))

    registry.gauge(
        "eca_sparql_store_triples",
        "Triples held by live SPARQL stores",
        labels=("service",),
        callback=per_service(sparql, lambda s: s.store.snapshot()["triples"]))
    registry.gauge(
        "eca_sparql_store_predicates",
        "Distinct predicates held by live SPARQL stores",
        labels=("service",),
        callback=per_service(
            sparql, lambda s: s.store.snapshot()["predicates"]))
    registry.histogram(
        "eca_sparql_query_seconds",
        "SPARQL query latency through the planned executor",
        labels=("service",),
        callback=per_service(sparql, lambda s: s.query_seconds, list))
    registry.counter(
        "eca_sparql_queries_total",
        "SPARQL queries answered, by query form",
        labels=("service", "form"),
        callback=per_service(sparql, lambda s: dict(s.forms)))
    registry.counter(
        "eca_sparql_plan_cache_hits_total",
        "Queries answered with a cached plan (same text, statistics "
        "still within the plan's drift ratio)",
        labels=("service",),
        callback=per_service(sparql, lambda s: s.stats["cache_hits"]))
    registry.counter(
        "eca_sparql_index_probes_total",
        "Index probes issued by scans, by index",
        labels=("service", "index"),
        callback=per_service(sparql, lambda s: s.store.snapshot()["probes"]))
    registry.histogram(
        "eca_sparql_estimated_rows",
        "Planner-estimated result rows per query",
        labels=("service",),
        callback=per_service(sparql, lambda s: s.estimated_rows, list))
    registry.histogram(
        "eca_sparql_actual_rows",
        "Actual result rows per query",
        labels=("service",),
        callback=per_service(sparql, lambda s: s.actual_rows, list))
    registry.histogram(
        "eca_sparql_pushdown_seed_rows",
        "Input binding-set sizes pushed down into the join",
        labels=("service",),
        callback=per_service(sparql, lambda s: s.pushdown_seed_rows, list))
