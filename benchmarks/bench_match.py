"""BENCH-M1: discrimination-network matching vs the linear scan.

Registers a zipf-skewed pattern population (event types follow a
power-law, like real subscription workloads) on the event service and
on its offer-to-all oracle (``tests/match/linear_oracle.py``) and
drives the same seeded event storm through each:

* sweep mode (default) registers 1k → 1M patterns, reports network
  matching throughput at each size, linear-baseline throughput up to
  100k (beyond that the linear path is too slow to sweep honestly),
  candidates-per-event, and 1M-pattern registration time;
* ``--gate`` is the CI acceptance bound: at 100k registered patterns
  the network path must out-match the linear path by
  ``--min-speedup`` (default 30×), the mean candidate set must stay
  under ``--max-candidate-rate`` of the population (default 2%), and a
  1M-pattern registration must complete.

Patterns get **unique variable names** so no two are canonically equal:
every result below is pure discrimination (hash-bucketed alpha
routing), with zero help from shared alpha memories — sharing only adds
to this.  ``BENCH_match.json`` lands next to this file.

Usage::

    PYTHONPATH=src python benchmarks/bench_match.py            # sweep
    PYTHONPATH=src python benchmarks/bench_match.py --gate
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.bindings import Relation
from repro.grh.messages import Request
from repro.services.event_service import AtomicEventService
from repro.xmlmodel import Element, QName
from tests.match.linear_oracle import linear

try:
    from reporting import summarize, write_bench_json
except ImportError:  # running as benchmarks.bench_match
    from .reporting import summarize, write_bench_json

DOMAIN_NS = "urn:bench:match"
TYPES = 512          #: distinct event types
ZIPF_S = 1.05        #: skew exponent
KINDS = 256          #: constant discriminant values per type
VARIABLE_ONLY = 0.02  #: fraction of patterns with no constant attribute


def zipf_cum_weights(n: int, s: float) -> list[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    return cumulative


_CUM_WEIGHTS = zipf_cum_weights(TYPES, ZIPF_S)
_TYPE_RANGE = range(TYPES)
STATUSES = 8         #: second discriminant: cuts match rate, not routing


def make_pattern(rng: random.Random, index: int) -> Element:
    """One registration: zipf-typed, mostly attribute-discriminated."""
    event_type = rng.choices(_TYPE_RANGE, cum_weights=_CUM_WEIGHTS)[0]
    element = Element(QName(DOMAIN_NS, f"t{event_type}"),
                      nsdecls={"b": DOMAIN_NS})
    if rng.random() >= VARIABLE_ONLY:
        element.set(QName(None, "kind"), f"k{rng.randrange(KINDS)}")
    # a second constraint most patterns carry: candidates that survive
    # alpha routing still usually fail it, so detections stay sparse
    if rng.random() < 0.9:
        element.set(QName(None, "status"), f"s{rng.randrange(STATUSES)}")
    # unique variable name: defeats alpha-memory sharing on purpose
    element.set(QName(None, "person"), "{V%d}" % index)
    return element


def make_event(rng: random.Random) -> Element:
    event_type = rng.choices(_TYPE_RANGE, cum_weights=_CUM_WEIGHTS)[0]
    element = Element(QName(DOMAIN_NS, f"t{event_type}"),
                      nsdecls={"b": DOMAIN_NS})
    element.set(QName(None, "kind"), f"k{rng.randrange(KINDS)}")
    element.set(QName(None, "status"), f"s{rng.randrange(STATUSES)}")
    element.set(QName(None, "person"), f"p{rng.randrange(10_000)}")
    return element


def build_service(patterns: int, seed: int, service_cls=AtomicEventService
                  ) -> tuple[AtomicEventService, int]:
    """Register ``patterns`` components; returns (service, seconds)."""
    sink = _CountingSink()
    service = service_cls(sink, incarnation="")
    service._bench_sink = sink  # keep the counter reachable
    rng = random.Random(seed)
    started = time.perf_counter()
    for index in range(patterns):
        service.register_event(Request(
            "register-event", f"c{index}::event",
            make_pattern(rng, index), Relation.unit()))
    return service, time.perf_counter() - started


class _CountingSink:
    def __init__(self) -> None:
        self.detections = 0

    def __call__(self, element) -> None:
        self.detections += 1


def drive(service: AtomicEventService, events: int,
          seed: int) -> tuple[dict, int]:
    """Feed a seeded storm; per-event timings summary + detections."""
    from repro.events.base import Event

    rng = random.Random(seed)
    payloads = [make_event(rng) for _ in range(events)]
    sink = service._bench_sink
    before = sink.detections
    timings = []
    clock = 0.0
    for sequence, payload in enumerate(payloads):
        clock += 1.0
        started = time.perf_counter()
        service.feed(Event(payload, clock, sequence))
        timings.append(time.perf_counter() - started)
    return summarize(timings), sink.detections - before


def run(patterns: int, *, seed: int, network_events: int,
        linear_events: int, with_linear: bool) -> dict:
    """One population size: network series, optional linear baseline."""
    results: dict = {"patterns": patterns}
    service, register_s = build_service(patterns, seed)
    results["register_s"] = round(register_s, 3)
    summary, detections = drive(service, network_events, seed + 1)
    stats = service.network.stats()
    summary["detections"] = detections
    summary["mean_candidates"] = round(stats["mean_candidates"], 2)
    summary["alpha_nodes"] = stats["alpha_nodes"]
    summary["alpha_tests_per_event"] = round(
        stats["alpha_tests"] / max(1, stats["events_routed"]), 2)
    results["network"] = summary
    if with_linear:
        oracle, _ = build_service(patterns, seed,
                                  linear(AtomicEventService))
        summary, detections = drive(oracle, linear_events, seed + 1)
        summary["detections"] = detections
        results["linear"] = summary
        results["speedup"] = round(results["network"]["ops_per_s"]
                                   / summary["ops_per_s"], 1)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--gate", action="store_true",
                        help="CI acceptance mode: 100k-pattern speedup "
                             "gate + candidate bound + 1M registration")
    parser.add_argument("--min-speedup", type=float, default=30.0)
    parser.add_argument("--max-candidate-rate", type=float, default=0.02,
                        help="mean candidates per event, as a fraction "
                             "of the registered population")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--events", type=int, default=400,
                        help="storm length on the network path")
    parser.add_argument("--linear-events", type=int, default=15,
                        help="storm length on the linear baseline")
    parser.add_argument("--registration-scale", type=int,
                        default=1_000_000,
                        help="population for the registration-only leg")
    options = parser.parse_args(argv)

    series: dict = {}
    speedup = candidate_rate = None
    sizes = [100_000] if options.gate else [1_000, 10_000, 100_000]
    for patterns in sizes:
        result = run(patterns, seed=options.seed,
                     network_events=options.events,
                     linear_events=options.linear_events,
                     with_linear=True)
        series[f"network_{patterns}"] = result["network"]
        series[f"linear_{patterns}"] = result["linear"]
        if patterns == 100_000:
            speedup = (result["network"]["ops_per_s"]
                       / result["linear"]["ops_per_s"])
            candidate_rate = (result["network"]["mean_candidates"]
                              / patterns)
        print(f"{patterns:>9} patterns: "
              f"network {result['network']['ops_per_s']:>10.0f} ev/s "
              f"(candidates/event "
              f"{result['network']['mean_candidates']}), "
              f"linear {result['linear']['ops_per_s']:>8.1f} ev/s, "
              f"speedup {result['speedup']}x")

    # registration-at-scale leg: the million-rule story must *load*
    big = options.registration_scale
    big_service, register_s = build_service(big, options.seed)
    stats = big_service.network.stats()
    big_summary, _ = drive(big_service, min(options.events, 200),
                           options.seed + 1)
    big_summary["mean_candidates"] = round(
        big_service.network.stats()["mean_candidates"], 2)
    big_summary["alpha_nodes"] = stats["alpha_nodes"]
    series[f"register_{big}"] = {
        "rounds": big,
        "mean_s": register_s / big,
        "p50_s": register_s / big,
        "p99_s": register_s / big,
        "ops_per_s": big / register_s,
    }
    series[f"network_at_scale_{big}"] = big_summary
    print(f"{big:>9} patterns: registered in {register_s:.1f}s "
          f"({big / register_s:.0f}/s), storm at "
          f"{big_summary['ops_per_s']:.0f} ev/s, candidates/event "
          f"{big_summary['mean_candidates']}")

    path = write_bench_json(
        "match", series,
        seed=options.seed, types=TYPES, zipf_s=ZIPF_S, kinds=KINDS,
        speedup_100k=round(speedup, 1),
        candidate_rate_100k=round(candidate_rate, 6),
        registration_scale=big, registration_s=round(register_s, 1))
    print(f"wrote {path}")

    if options.gate:
        failures = []
        if speedup < options.min_speedup:
            failures.append(
                f"speedup {speedup:.1f}x at 100k patterns is under the "
                f"{options.min_speedup}x gate")
        if candidate_rate > options.max_candidate_rate:
            failures.append(
                f"candidate rate {candidate_rate:.4f} exceeds "
                f"{options.max_candidate_rate} of the population")
        if failures:
            for failure in failures:
                print(f"GATE FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"GATE OK: {speedup:.1f}x >= {options.min_speedup}x, "
              f"candidate rate {candidate_rate:.4f} <= "
              f"{options.max_candidate_rate}, {big} patterns "
              f"registered in {register_s:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
