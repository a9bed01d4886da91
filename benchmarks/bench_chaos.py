"""BENCH-C1: availability under chaos — replica failover + hedged reads.

Two scenarios, both driven by a seeded deterministic
:class:`~repro.chaos.FaultPlan` (PROTOCOL.md §12):

* **storm** — 3 real HTTP replicas of one query service behind a
  :class:`~repro.chaos.ChaosTransport` injecting resets, gateway errors
  and latency.  Replica 0 is killed one third of the way through the
  run and restarted at two thirds; the series reports availability
  (completed / issued), p50/p99 latency, and the time from restart
  until the health prober marks the replica healthy again
  (``time_to_recover_s``).  The run **fails** (exit 1) below the
  availability gate — the §12 claim is that failover keeps read
  availability ≥ 99% while losing 1 of 3 replicas mid-storm.
* **spikes** — the same cluster under a rare-but-severe latency-spike
  plan, measured twice: hedged reads on (the default) and off.  The
  hedge fires after the adaptive p95 delay, so a spiked primary is
  raced by a second replica and p99 collapses to roughly the hedge
  delay; ``hedge_p99_speedup`` reports unhedged p99 / hedged p99.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py --seed 0
    PYTHONPATH=src python benchmarks/bench_chaos.py \
        --seed 2 --requests 400 --gate 0.99

Writes ``BENCH_chaos.json``.
"""

import argparse
import sys
import time

from repro.bindings import Relation
from repro.chaos import ChaosTransport, FaultPlan, ReplicaCluster
from repro.grh import (ComponentSpec, GenericRequestHandler, GRHError,
                       LanguageDescriptor, LanguageRegistry, RetryPolicy)
from repro.services import HybridTransport
from repro.services.base import LanguageService
from repro.xmlmodel import E

from reporting import summarize, write_bench_json

QUERY_URI = "urn:bench:chaos-query"


class EchoQueryService(LanguageService):
    service_name = "chaos-bench"

    def query(self, request):
        return Relation([{"Q": "ok"}])


def _spec():
    return ComponentSpec("query", QUERY_URI, content=E("{%s}q" % QUERY_URI))


def _world(plan, *, hedged=True, probe_interval=0.05):
    """A 3-replica HTTP cluster behind a chaos-wrapped transport."""
    cluster = ReplicaCluster(aware_handler=EchoQueryService().handle,
                             count=3)
    addresses = cluster.start()
    alias = {address: f"r{index}"
             for index, address in enumerate(addresses)}
    chaos = ChaosTransport(HybridTransport(timeout=2.0), plan, alias=alias)
    grh = GenericRequestHandler(LanguageRegistry(), chaos)
    grh.health_probe_interval = probe_interval
    if not hedged:
        grh.resilience.default_hedge = None
    grh.add_remote_language(
        LanguageDescriptor(QUERY_URI, "query", "chaos-bench",
                           replicas=addresses,
                           retry=RetryPolicy(max_attempts=2,
                                             base_delay=0.01)))
    chaos.start()
    return grh, cluster, addresses


def run_storm(seed: int, requests: int) -> dict:
    """Kill replica 0 mid-storm, restart it, report availability and
    the prober's time-to-recover."""
    plan = FaultPlan(seed,
                     latency_rate=0.06, latency_range=(0.002, 0.02),
                     reset_rate=0.05,
                     error_rate=0.04, error_statuses=(503,))
    grh, cluster, addresses = _world(plan)
    board = grh.resilience.health
    kill_at, restart_at = requests // 3, (2 * requests) // 3
    completed, timings = 0, []
    restarted_at = recover_s = None
    try:
        for index in range(requests):
            if index == kill_at:
                cluster.kill(0)
            elif index == restart_at:
                cluster.restart(0)
                restarted_at = time.perf_counter()
            began = time.perf_counter()
            try:
                rows = grh.evaluate_query("bench", _spec(), Relation.unit())
                completed += len(rows) == 1
            except GRHError:
                pass
            timings.append(time.perf_counter() - began)
            if restarted_at is not None and recover_s is None \
                    and board.state_of(addresses[0]) == "healthy":
                recover_s = time.perf_counter() - restarted_at
        # the prober may still be mid-cycle when the loop drains
        deadline = time.perf_counter() + 5.0
        while recover_s is None and time.perf_counter() < deadline:
            if board.state_of(addresses[0]) == "healthy":
                recover_s = time.perf_counter() - restarted_at
                break
            time.sleep(0.005)
        failovers = grh.resilience.failovers
    finally:
        grh.close()
        cluster.stop()
    result = summarize(timings)
    result.update(issued=requests, completed=completed,
                  availability=completed / requests,
                  failovers=failovers,
                  time_to_recover_s=recover_s)
    return result


def run_spikes(seed: int, requests: int, *, hedged: bool) -> dict:
    """Rare severe latency spikes; measure read p99 with/without the
    hedged second request."""
    plan = FaultPlan(seed, latency_rate=0.04,
                     latency_range=(0.08, 0.12))
    grh, cluster, _ = _world(plan, hedged=hedged)
    timings = []
    try:
        for _ in range(requests):
            began = time.perf_counter()
            rows = grh.evaluate_query("bench", _spec(), Relation.unit())
            assert len(rows) == 1
            timings.append(time.perf_counter() - began)
        hedges = grh.resilience.hedges_launched
    finally:
        grh.close()
        cluster.stop()
    result = summarize(timings)
    result["hedges_launched"] = hedges
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="availability + hedged-read latency under a seeded "
                    "deterministic fault plan")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-plan seed (same seed = same faults)")
    parser.add_argument("--requests", type=int, default=300,
                        help="queries per scenario")
    parser.add_argument("--gate", type=float, default=0.99,
                        help="minimum storm availability (fraction)")
    options = parser.parse_args(argv)

    storm = run_storm(options.seed, options.requests)
    recover = storm["time_to_recover_s"]
    recover_label = f"{recover * 1e3:.0f} ms" if recover is not None \
        else "never (!)"
    print(f"storm      availability {storm['availability'] * 100:6.2f}%  "
          f"({storm['completed']}/{storm['issued']})   "
          f"p99 {storm['p99_s'] * 1e3:6.2f} ms   "
          f"failovers {storm['failovers']}   recover {recover_label}")

    unhedged = run_spikes(options.seed, options.requests, hedged=False)
    hedged = run_spikes(options.seed, options.requests, hedged=True)
    speedup = unhedged["p99_s"] / hedged["p99_s"] \
        if hedged["p99_s"] > 0 else float("inf")
    for label, result in (("unhedged", unhedged), ("hedged", hedged)):
        print(f"{label:<10s} p50 {result['p50_s'] * 1e3:6.2f} ms   "
              f"p99 {result['p99_s'] * 1e3:6.2f} ms   "
              f"hedges {result['hedges_launched']}")
    print(f"hedge p99 speedup: {speedup:.1f}x")

    failed = storm["availability"] < options.gate
    verdict = "FAIL" if failed else "ok"
    print(f"availability gate {options.gate * 100:.0f}%: {verdict}")
    path = write_bench_json(
        "chaos",
        {"storm": storm, "spikes_unhedged": unhedged,
         "spikes_hedged": hedged},
        seed=options.seed, requests=options.requests,
        availability_gate=options.gate,
        hedge_p99_speedup=speedup)
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
