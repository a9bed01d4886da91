"""Exposition parity of the engine-side metric families.

A fully wired engine — durable (``sync="commit"``), two runtime lanes,
the profiler and the latency analyzer on, one language behind
localhost HTTP and one replicated language — is scraped once,
and every family ``Observability`` declares for an engine is pinned
here: its kind, its help text, the label names its samples carry and,
for histograms, the bucket bounds.  Where the families are declared
may change; what a scraper sees of them may not.
"""

import re

import pytest

from repro.core import ECAEngine
from repro.domain import TRAVEL_NS, booking_event, fleet_graph
from repro.durability import DurabilityManager
from repro.grh import LanguageDescriptor
from repro.obs import Observability
from repro.runtime import Runtime
from repro.services import DATALOG_LANG, standard_deployment
from repro.services.transports import HttpServiceServer, HybridTransport

ECA = 'xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml"'
ACT = 'xmlns:act="http://www.semwebtech.org/languages/2006/actions"'

PROGRAM = """
    owns("John Doe", "Golf"). owns("John Doe", "Passat").
    class("Golf", "B"). class("Passat", "C").
    owned_class(P, K) :- owns(P, C), class(C, K).
"""

RULE = f"""
<eca:rule {ECA} id="offers">
  <eca:event>
    <travel:booking xmlns:travel="{TRAVEL_NS}"
                    person="{{Person}}" to="{{To}}"/>
  </eca:event>
  <eca:query>
    <dl:query xmlns:dl="{DATALOG_LANG}">owned_class("{{Person}}", Class)</dl:query>
  </eca:query>
  <eca:action>
    <act:send {ACT} to="offers"><offer class="{{Class}}"/></act:send>
  </eca:action>
</eca:rule>
"""

LATENCY = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
           0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: name → (kind, help, label names seen on samples, bucket bounds)
ENGINE_FAMILIES = {
    "eca_actions_total": ("counter", "Action executions", (), None),
    "eca_attempts_total": ("counter", "Service request attempts", (), None),
    "eca_breaker_opens_total": ("counter", "Circuit breaker opens", (),
                                None),
    "eca_breaker_rejections_total": (
        "counter", "Requests shed by open breakers", (), None),
    "eca_breaker_state": (
        "gauge",
        "Breaker state per endpoint (0 closed, 0.5 half-open, 1 open)",
        ("endpoint",), None),
    "eca_checkpoint_seconds": ("histogram", "Checkpoint write duration",
                               (), LATENCY),
    "eca_dead_letters": ("gauge", "Dead letters awaiting replay", (), None),
    "eca_dead_letters_dropped_total": (
        "counter", "Dead letters dropped on queue overflow", (), None),
    "eca_detections_total": ("counter", "Detections accepted by the engine",
                             (), None),
    "eca_failover_total": (
        "counter", "Mid-call retargets onto an alternative replica", (),
        None),
    "eca_grh_cache_hits_total": ("counter", "Opaque-request cache hits", (),
                                 None),
    "eca_grh_request_latency_seconds": (
        "histogram", "GRH request round-trip latency", ("kind",), LATENCY),
    "eca_grh_requests_total": ("counter", "Requests mediated by the GRH",
                               (), None),
    "eca_hedge_total": (
        "counter", "Hedged read requests by outcome (plus launches)",
        ("outcome",), None),
    "eca_http_pool_connections": (
        "gauge", "Pooled HTTP connections per origin by state",
        ("origin", "state"), None),
    "eca_http_pool_events_total": (
        "counter", "Pooled HTTP connection lifecycle events per origin",
        ("event", "origin"), None),
    "eca_in_flight_detections": (
        "gauge", "Journaled detections not yet completed", (), None),
    "eca_instances_evicted_total": (
        "counter", "Instances dropped by the retention caps", (), None),
    "eca_instances_total": ("counter", "Finished rule instances by status",
                            ("status",), None),
    "eca_journal_fsync_seconds": ("histogram", "Journal fsync latency", (),
                                  LATENCY),
    "eca_journal_records_total": (
        "counter", "Records appended to the write-ahead journal", (), None),
    "eca_kept_instances": (
        "gauge", "Instances currently retained for introspection", (),
        None),
    "eca_latency_budget_seconds": (
        "histogram", "Per-instance critical-path latency budget by phase",
        ("phase",), LATENCY),
    "eca_latency_selfcheck_total": (
        "counter", "Critical-path self-check verdicts (phases-sum-to-wall "
        "within tolerance)", ("outcome",), None),
    "eca_metrics_dropped_labels_total": (
        "counter", "Label lookups rejected by the cardinality cap", (),
        None),
    "eca_phase_latency_seconds": (
        "histogram", "Rule-instance component phase latency", ("phase",),
        LATENCY),
    "eca_profile_overhead_fraction": (
        "gauge", "Fraction of wall time spent taking stack samples", (),
        None),
    "eca_profile_samples_total": (
        "counter", "Stack samples taken by the profiler", (), None),
    "eca_registered_rules": ("gauge", "Registered rules", (), None),
    "eca_replica_health": (
        "gauge", "Replica health board (1 on the current state's row)",
        ("replica", "state"), None),
    "eca_retries_total": ("counter", "Service request retries", (), None),
    "eca_rule_instances_total": ("counter", "Rule instances created", (),
                                 None),
    "eca_runtime_accepting": (
        "gauge", "Admission gate (1 accepting, 0 saturated/stopped)", (),
        None),
    "eca_runtime_detections_total": (
        "counter", "Detections by runtime admission outcome", ("outcome",),
        None),
    "eca_runtime_inflight_depth": (
        "gauge", "Popped-but-incomplete detections per worker shard",
        ("shard",), None),
    "eca_runtime_queue_depth": ("gauge",
                                "Queued detections per worker shard",
                                ("shard",), None),
    "eca_runtime_queue_wait_seconds": (
        "histogram", "Time a detection waited queued before a worker ran it",
        (), LATENCY),
    "eca_runtime_worker_utilization": (
        "gauge", "Busy fraction per worker since attach", ("shard",), None),
    "eca_service_requests_total": (
        "counter", "Per-endpoint request outcomes", ("endpoint", "outcome"),
        None),
}

_SAMPLE = re.compile(r"^(\w+)(\{.*\})? \S+$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def families(text):
    """name → (kind, help, sample label names, first child's buckets)."""
    helps, kinds, labels, buckets = {}, {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[7:].partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            name, kind = line[7:].split()
            kinds[name] = kind
            continue
        series, label_text = _SAMPLE.match(line).groups()
        pairs = _LABEL.findall(label_text or "")
        name = series
        for suffix in ("_bucket", "_sum", "_count"):
            if series not in kinds and series.endswith(suffix):
                name = series[:-len(suffix)]
        labels.setdefault(name, set()).update(
            label for label, _ in pairs if label != "le")
        bound = dict(pairs).get("le")
        if series == name + "_bucket" and bound != "+Inf":
            child = tuple(pair for pair in pairs if pair[0] != "le")
            buckets.setdefault(name, {}).setdefault(child, []).append(
                float(bound))
    found = {}
    for name, kind in kinds.items():
        children = buckets.get(name)
        first = tuple(next(iter(children.values()))) if children else None
        found[name] = (kind, helps.get(name, ""),
                       tuple(sorted(labels.get(name, ()))), first)
    return found


@pytest.fixture
def scraped(tmp_path):
    deployment = standard_deployment(graph=fleet_graph(),
                                     datalog_program=PROGRAM)
    server = HttpServiceServer(aware_handler=deployment.datalog.handle)
    url = server.start()
    transport = HybridTransport()
    transport.local = deployment.transport   # the deployment's services
    grh = deployment.grh
    grh.transport = transport
    grh.set_replicas(DATALOG_LANG, [url])
    grh.add_remote_language(LanguageDescriptor(
        "urn:example:replicated", "query", "replicated",
        replicas=("svc:xquery-lite", "svc:datalog")))
    durability = DurabilityManager(str(tmp_path), sync="commit")
    obs = Observability(profiler=True, critical=True)
    engine = ECAEngine(grh, durability=durability,
                       runtime=Runtime(workers=2),
                       observability=obs)
    try:
        engine.register_rule(RULE)
        deployment.stream.emit(booking_event())
        assert engine.drain(10)
        durability.checkpoint()
        yield obs.render_prometheus()
    finally:
        engine.shutdown(5)
        obs.close()
        durability.close()
        server.stop()


def test_engine_side_families_are_unchanged(scraped):
    exposed = families(scraped)
    for name, expected in ENGINE_FAMILIES.items():
        assert exposed.get(name) == expected, name
