"""BENCH-T1: engine throughput — rules fired per second.

Series reported (no quantitative evaluation exists in the paper; this
characterizes the prototype):

* events/sec through the full stack with 1 simple E→A rule,
* scaling with the number of registered rules (1, 10, 50) where each
  event matches every rule,
* scaling with selectivity: 50 rules of which only one matches,
* the full Fig. 4 pipeline (3 query components) per event.

Expected shape: throughput degrades roughly linearly in the number of
*matching* rules (each match is an instance evaluation); non-matching
rules cost only a pattern test at the event service.

Script mode benchmarks the concurrent runtime (ISSUE 5/6) over an
HTTP-bound workload — each rule instance blocks ~8 ms on a remote
query, so overlapping round-trips is the only throughput lever.  A
configuration is ``workers`` or ``workersxinflight`` (the per-shard
in-flight window, PROTOCOL.md §11); ``0`` is the synchronous engine::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --workers 4 --inflight 8    # one configuration
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --compare 1,4               # speedup gate: 4 workers >= 2.5x
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --compare 0,4,4x8,4x16 --min-speedup 10
                                    # in-flight sweep vs the sync engine

Both modes write ``BENCH_engine_throughput_http.json``.
"""

import argparse
import sys
import time

import pytest

from repro.actions import ACTION_NS, ActionRuntime
from repro.bindings import Relation, relation_to_answers
from repro.core import ECAEngine
from repro.domain import (WorkloadConfig, booking_payloads,
                          full_pipeline_rule_markup, simple_rule_markup)
from repro.domain.workload import TRAVEL_NS
from repro.events import ATOMIC_NS, EventStream
from repro.grh import (GenericRequestHandler, LanguageDescriptor,
                       LanguageRegistry)
from repro.runtime import Runtime
from repro.services import (ActionExecutionService, AtomicEventService,
                            HttpServiceServer, HybridTransport)
from repro.xmlmodel import ECA_NS

from conftest import build_world
from reporting import summarize, write_bench_json


def _emit_all(deployment, payloads):
    for payload in payloads:
        deployment.stream.emit(payload.copy())


class TestSimpleRuleThroughput:
    def test_single_rule(self, benchmark, small_config):
        deployment, engine = build_world(small_config)
        engine.register_rule(simple_rule_markup("r0"))
        payloads = booking_payloads(small_config, 50)
        benchmark(_emit_all, deployment, payloads)
        assert engine.stats["completed"] > 0

    @pytest.mark.parametrize("rule_count", [1, 10, 50])
    def test_all_rules_match(self, benchmark, small_config, rule_count):
        deployment, engine = build_world(small_config)
        for index in range(rule_count):
            engine.register_rule(simple_rule_markup(f"r{index}"))
        payloads = booking_payloads(small_config, 20)
        benchmark(_emit_all, deployment, payloads)
        assert engine.stats["instances"] >= rule_count * 20

    def test_one_of_fifty_matches(self, benchmark, small_config):
        deployment, engine = build_world(small_config)
        engine.register_rule(simple_rule_markup("hit"))
        for index in range(49):
            engine.register_rule(
                simple_rule_markup(f"miss{index}", event_name="never"))
        payloads = booking_payloads(small_config, 20)
        benchmark(_emit_all, deployment, payloads)


class TestFullPipelineThroughput:
    def test_fig4_pipeline_per_event(self, benchmark, small_config):
        deployment, engine = build_world(small_config)
        engine.register_rule(full_pipeline_rule_markup("pipeline"))
        payloads = booking_payloads(small_config, 10)
        benchmark(_emit_all, deployment, payloads)
        assert engine.stats["instances"] >= 10


# -- script mode: HTTP-bound scaling across worker counts --------------------

SLOW_LANG = "urn:bench:slow-http-query"


class _SlowHttpService:
    """An aware query service that sleeps *delay* seconds per request —
    the IO-bound remote component the worker pool exists to overlap."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def handle(self, message):
        time.sleep(self.delay)
        return relation_to_answers(Relation([{"Q": "ok"}]))


def _http_world(workers: int, delay: float, inflight: int = 1):
    """Engine + HTTP-backed slow query; *workers* = 0 means synchronous."""
    registry = LanguageRegistry()
    # pool bound >= workers * inflight so the window, not the pool,
    # is the concurrency limit being measured
    grh = GenericRequestHandler(
        registry, HybridTransport(
            timeout=30.0,
            max_per_endpoint=max(32, workers * inflight)))
    stream = EventStream()
    actions = ActionRuntime(event_stream=stream)
    atomic = AtomicEventService(grh.notify)
    atomic.attach(stream)
    grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic"),
                    atomic)
    grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                    ActionExecutionService(actions))
    server = HttpServiceServer(
        aware_handler=_SlowHttpService(delay).handle)
    grh.add_remote_language(
        LanguageDescriptor(SLOW_LANG, "query", "slow-http"), server.start())
    runtime = Runtime(workers=workers, queue_capacity=4096,
                      inflight=inflight)
    engine = ECAEngine(grh, runtime=runtime, keep_instances=False)
    engine.register_rule(f"""
    <eca:rule xmlns:eca="{ECA_NS}" id="http-bound">
      <eca:event>
        <travel:booking xmlns:travel="{TRAVEL_NS}"
                        person="{{Person}}" to="{{To}}"/>
      </eca:event>
      <eca:query><q xmlns="{SLOW_LANG}">whatever</q></eca:query>
      <eca:action><out q="{{Q}}"/></eca:action>
    </eca:rule>""")
    return engine, stream, server


def measure_http_throughput(workers: int, events: int, blocks: int,
                            delay: float, inflight: int = 1) -> dict:
    """Per-event durations over *blocks* repeated drained blocks."""
    engine, stream, server = _http_world(workers, delay, inflight)
    config = WorkloadConfig(persons=20, fleet_size=10, cities=3, seed=1)
    payloads = booking_payloads(config, events)
    try:
        # warmup: one small block primes HTTP connections and caches
        for payload in payloads[:min(4, events)]:
            stream.emit(payload.copy())
        assert engine.drain(60)
        per_event = []
        for _ in range(blocks):
            started = time.perf_counter()
            for payload in payloads:
                stream.emit(payload.copy())
            assert engine.drain(120), "engine failed to quiesce"
            elapsed = time.perf_counter() - started
            per_event.extend([elapsed / events] * events)
    finally:
        engine.shutdown(10)
        server.stop()
    result = summarize(per_event)
    result["workers"] = workers
    result["inflight"] = inflight
    return result


def _parse_spec(spec: str) -> tuple[int, int]:
    """``"4"`` -> (4 workers, window 1); ``"4x8"`` -> (4, window 8)."""
    workers, sep, inflight = spec.strip().partition("x")
    return (int(workers), int(inflight)) if sep else (int(workers), 1)


def _spec_label(workers: int, inflight: int) -> str:
    return f"workers={workers}" if inflight == 1 \
        else f"workers={workers}x{inflight}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="HTTP-bound engine throughput across worker counts "
                    "and in-flight window depths")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size; 0 = synchronous engine")
    parser.add_argument("--inflight", type=int, default=1,
                        help="per-shard in-flight window (single mode)")
    parser.add_argument("--compare", type=str, default=None,
                        help="comma-separated configurations (WORKERS or "
                             "WORKERSxINFLIGHT); gates the last against "
                             "the first at --min-speedup")
    parser.add_argument("--events", type=int, default=60,
                        help="events per timed block")
    parser.add_argument("--blocks", type=int, default=3)
    parser.add_argument("--delay", type=float, default=0.008,
                        help="simulated remote query latency (seconds)")
    parser.add_argument("--min-speedup", type=float, default=2.5)
    options = parser.parse_args(argv)

    specs = [_parse_spec(part) for part in options.compare.split(",")] \
        if options.compare else [(options.workers, options.inflight)]
    series = {}
    for workers, inflight in specs:
        result = measure_http_throughput(
            workers, options.events, options.blocks, options.delay,
            inflight)
        label = _spec_label(workers, inflight)
        series[label] = result
        print(f"{label:<16s} {result['ops_per_s']:8.1f} ev/s   "
              f"p50 {result['p50_s'] * 1e3:6.2f} ms   "
              f"p99 {result['p99_s'] * 1e3:6.2f} ms")

    extra = {"events_per_block": options.events, "blocks": options.blocks,
             "remote_delay_s": options.delay}
    failed = False
    if len(specs) > 1:
        first, last = specs[0], specs[-1]
        baseline = series[_spec_label(*first)]["ops_per_s"]
        candidate = series[_spec_label(*last)]["ops_per_s"]
        speedup = candidate / baseline
        extra["speedup"] = speedup
        verdict = "ok" if speedup >= options.min_speedup else "FAIL"
        print(f"speedup {_spec_label(*last)} / {_spec_label(*first)}: "
              f"{speedup:.2f}x  (gate {options.min_speedup:.1f}x)  "
              f"{verdict}")
        failed = speedup < options.min_speedup
    path = write_bench_json("engine_throughput_http", series, **extra)
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
