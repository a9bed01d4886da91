"""The ledger's definition: workloads, metric names, units and bounds.

``/BENCHMARK.json`` is this module written out (``run.py
--print-definition``); ``test_ledger.py`` fails when the two drift.
"""

from __future__ import annotations

#: how long one driver run measures, after set-up
RUN_SECONDS = 20

WORKLOADS = [
    ("fig4_inproc",
     "the paper's Fig. 4 rule in process: xq/xpath evaluation does most of "
     "the work and the per-tuple Fig. 9 adaptation runs; mediation is the "
     "minority"),
    ("fanout_inproc",
     "2000 constant-pattern E-A rules, 4 match per event: no language "
     "evaluation, so xmlmodel/bindings/grh/core carry the run and match "
     "must keep 1996 rules free"),
    ("hetero_semweb",
     "one rule in five languages (snoop, rdf-sparql, test, act) over a "
     "150k-triple store it reads and writes on every reaction: plan cache "
     "defeated, composite-event state live"),
    ("distributed_http",
     "all services behind localhost HTTP, commit-synced journal, 2 worker "
     "runtime: transports, runtime and durability do the work; saturation "
     "then a paced open loop at 100 ev/s"),
]

#: (name, unit, better, bound): the share of the parent's median a
#: metric may worsen by before a change is rejected
END_TO_END = [
    ("throughput_eps", "1/s", "higher", 0.25),
    ("reaction_p50_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_event", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better); no bound — these say where the time went
PER_LAYER = [
    ("xmlmodel.parse_ms_per_event", "ms", "lower"),
    ("xmlmodel.serialize_ms_per_event", "ms", "lower"),
    ("xmlmodel.codec_passes_per_event", "count", "lower"),
    ("xmlmodel.wire_bytes_per_event", "bytes", "lower"),
    ("bindings.join_ms_per_event", "ms", "lower"),
    ("bindings.join_calls_per_event", "count", "lower"),
    ("bindings.join_rows_out_per_event", "count", "lower"),
    ("grh.self_ms_per_event", "ms", "lower"),
    ("grh.requests_per_event", "count", "lower"),
    ("grh.opaque_cache_hit_share", "share", "higher"),
    ("grh.retries_per_kevent", "count", "lower"),
    ("grh.dead_letters", "count", "lower"),
    ("core.self_ms_per_event", "ms", "lower"),
    ("core.instances_per_event", "count", "lower"),
    ("core.actions_per_event", "count", "lower"),
    ("core.dead_share", "share", "lower"),
    ("events.detect_ms_per_event", "ms", "lower"),
    ("match.candidates_per_event", "count", "lower"),
    ("match.alpha_tests_per_event", "count", "lower"),
    ("match.register_ms_per_rule", "ms", "lower"),
    ("xq.eval_ms_per_event", "ms", "lower"),
    ("xq.requests_per_event", "count", "lower"),
    ("exist.eval_ms_per_event", "ms", "lower"),
    ("exist.requests_per_event", "count", "lower"),
    ("sparql.eval_ms_per_event", "ms", "lower"),
    ("sparql.plan_cache_hit_share", "share", "higher"),
    ("sparql.index_probes_per_query", "count", "lower"),
    ("sparql.store_triples", "count", "lower"),
    ("datalog.eval_ms_per_event", "ms", "lower"),
    ("conditions.eval_ms_per_event", "ms", "lower"),
    ("actions.exec_ms_per_event", "ms", "lower"),
    ("actions.effects_per_event", "count", "lower"),
    ("transports.self_ms_per_event", "ms", "lower"),
    ("transports.sends_per_event", "count", "lower"),
    ("transports.http_conn_reuse_share", "share", "higher"),
    ("runtime.worker_utilization_mean", "share", "higher"),
    ("runtime.utilization_skew", "share", "lower"),
    ("runtime.queue_depth_p95", "count", "lower"),
    ("runtime.backlog_growth_eps", "1/s", "lower"),
    ("runtime.speedup_vs_sync", "ratio", "higher"),
    ("durability.journal_ms_per_event", "ms", "lower"),
    ("durability.journal_bytes_per_event", "bytes", "lower"),
    ("durability.fsyncs_per_kevent", "count", "lower"),
    ("durability.checkpoint_ms", "ms", "lower"),
    ("obs.enabled_overhead_share", "share", "lower"),
    ("ledger.trace_overhead_share", "share", "lower"),
    ("ledger.unattributed_share", "share", "lower"),
    ("ledger.reconcile_error_share", "share", "lower"),
    ("ledger.generator_lag_p95_ms", "ms", "lower"),
    ("ledger.calibration_ms", "ms", "lower"),
    # demoted from the end-to-end list: same-code spread above a tenth
    ("ledger.reaction_p95_ms", "ms", "lower"),
    ("ledger.reaction_p99_ms", "ms", "lower"),
    ("ledger.latency_samples", "count", "higher"),
    ("ledger.excluded_events", "count", "lower"),
]


def definition() -> dict:
    """The content of ``/BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }
