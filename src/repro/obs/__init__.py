"""Observability for the ECA engine: tracing, metrics, propagation.

The paper's engine evaluates each rule instance as a pipeline of
heterogeneous component calls mediated by the Generic Request Handler;
this package makes that pipeline visible:

* :mod:`repro.obs.trace` — spans and tracers: every rule instance is a
  root span with child spans per component phase and per GRH request,
  including server-side spans stitched back from remote services via
  the envelope-carried ``traceparent`` (PROTOCOL.md §8).  The tracer
  owns all trace state: a finished trace is handed to the exporters
  once, and the open GRH request span is where the layers below record
  their waits (pool acquisition, retry backoff, hedge waits) and
  co-located services their work;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket latency
  histograms with Prometheus text exposition;
* :mod:`repro.obs.config` — the :class:`Observability` object that owns
  both and wires them into an engine
  (``ECAEngine(..., observability=Observability())``), declaring every
  ``eca_*`` family as a scrape-time read of the tallies the engine's
  components keep themselves (:func:`declare_service_metrics` does the
  same for the event and SPARQL services a standalone host runs);
* :mod:`repro.obs.profile` — the latency observatory: a continuous
  wall-clock sampling profiler (folded-stack flamegraph export,
  per-subsystem attribution) and the critical-path analyzer that
  decomposes each completed rule-instance trace into a latency budget
  (queue / engine / phase compute / waits / service / network —
  PROTOCOL.md §14);
* :mod:`repro.obs.ops` — production operations on top: head/tail trace
  sampling, structured JSON-lines logging, and the live
  introspection/health surface (``/healthz``, ``/readyz``,
  ``/introspect/*``).

Everything is off by default and costs nothing when off.
"""

from .config import Observability, declare_service_metrics, hosted_services
from .metrics import (Counter, DEFAULT_BUCKETS, Gauge, Histogram,
                      MetricsRegistry)
from .profile import (BUDGET_PHASES, CriticalPathAnalyzer,
                      PROFILE_SUBSYSTEMS, SamplingProfiler, subsystem_of)
from .sink import RotatingSink
from .trace import (JsonlExporter, NOOP_TRACER, NoopSpan, NoopTracer,
                    RingBufferExporter, Span, Tracer, WAIT_KINDS, expand,
                    format_traceparent, parse_traceparent, record_wait,
                    render_trace, span_to_dict, spans_to_xml,
                    traceparent_sampled, xml_to_span_dicts)

__all__ = ["Observability", "declare_service_metrics", "hosted_services",
           "Counter", "Gauge", "Histogram",
           "MetricsRegistry", "DEFAULT_BUCKETS", "RotatingSink", "Span",
           "Tracer", "NoopSpan", "NoopTracer", "NOOP_TRACER",
           "RingBufferExporter", "JsonlExporter", "format_traceparent",
           "parse_traceparent", "render_trace", "span_to_dict", "expand",
           "spans_to_xml", "traceparent_sampled", "xml_to_span_dicts",
           "SamplingProfiler", "CriticalPathAnalyzer", "subsystem_of",
           "BUDGET_PHASES", "PROFILE_SUBSYSTEMS", "WAIT_KINDS",
           "record_wait"]
