"""Run one workload: set up, drive equal-work blocks, check every effect.

A *session* is one deployment of the program with its event source and
oracle.  Set-up (build, load, register, start servers, warm-up events,
``gc.collect(); gc.freeze()``) is timed as a whole.  Work is driven in
blocks of a fixed event count; between blocks, outside the timed
region, the sink is compared with the oracle and the lists the program
only ever appends to are emptied, so every block does the same work on
the same heap.  A run keeps starting blocks until its time budget is
spent, and reports the **best block**: the highest block throughput, the
lowest block median latency and CPU cost.  Interference from
neighbours on a shared host only ever slows a block down, so the best
block repeats from run to run where the median block does not (see
README.md for the numbers behind that choice).
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

import deploy
import generators
import oracle
from catalogue import END_TO_END, PER_LAYER
from tracing import Tracer, patched

WARMUP_EVENTS = 50
#: set-ups per timed run; ``setup_s`` is their median
SETUPS = 3
MIN_BLOCKS = 4
#: fixed arrival rate of the paced open-loop phase, events per second
PACED_RATE = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    world: Callable          # (seed, quick) -> world
    build: Callable          # (world, tracer, **options) -> Rig
    events: Callable         # (seed, world) -> event source
    oracle: Callable         # (world) -> oracle
    block: int
    quick_block: int
    #: a worker-runtime workload: a saturation phase, then a paced one
    paced: bool = False
    #: the extra untraced run of the traced mode: "obs" | "sync" | None
    extra: str | None = None


def _hetero_world(seed: int, quick: bool):
    if quick:
        return generators.hetero_world(seed, cars=1200, depots=20, cities=10,
                                       persons=60)
    return generators.hetero_world(seed)


WORKLOADS = {workload.name: workload for workload in (
    Workload("fig4_inproc",
             lambda seed, quick: generators.fig4_world(seed),
             deploy.build_fig4, generators.Fig4Events, oracle.Fig4Oracle,
             block=100, quick_block=20, extra="obs"),
    Workload("fanout_inproc",
             lambda seed, quick: generators.fanout_world(
                 seed, rules=80, cities=20) if quick
             else generators.fanout_world(seed),
             deploy.build_fanout, generators.FanoutEvents,
             oracle.FanoutOracle, block=300, quick_block=40),
    Workload("hetero_semweb", _hetero_world, deploy.build_hetero,
             generators.HeteroEvents, oracle.HeteroOracle,
             block=250, quick_block=40),
    Workload("distributed_http",
             lambda seed, quick: generators.distributed_world(seed),
             deploy.build_distributed, generators.DistributedEvents,
             oracle.DistributedOracle, block=150, quick_block=30,
             paced=True, extra="sync"),
)}


# -- small statistics ---------------------------------------------------------

def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def calibration_ms() -> float:
    """A fixed pure-Python loop, independent of the program: the same
    number on the same host at the same speed, so a slow or busy machine
    shows here before it shows in a metric."""
    started = time.perf_counter()
    total = 0
    for index in range(200_000):
        total += index * index % 7
    return (time.perf_counter() - started) * 1e3


# -- one deployment under load ------------------------------------------------

@dataclass
class Block:
    events: int
    wall: float
    cpu: float
    #: seconds from creation (or due time) to last effect, per event
    #: with a non-empty reaction
    latencies: list[float]
    excluded: int
    #: operations the action runtime carried out (sends, graph updates)
    effects: int
    lags: list[float] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)

    @property
    def eps(self) -> float:
        return self.events / self.wall

    @property
    def cpu_ms(self) -> float:
        return self.cpu * 1e3 / self.events

    def latency(self, share: float) -> float:
        return percentile(sorted(self.latencies), share) * 1e3


def _counters(rig) -> Counter:
    """Every public counter the checks and the per-layer table read,
    flattened."""
    counters = Counter({f"engine.{key}": value
                        for key, value in rig.engine.stats.items()})
    grh = rig.grh.stats
    for key in ("requests", "cache_hits", "retries", "dead_letters",
                "dead_letters_dropped"):
        counters[f"grh.{key}"] = grh[key]
    if rig.runtime is not None:
        runtime = rig.runtime.counters()
        counters["runtime.shed"] = runtime["dropped"] + runtime["rejected"] \
            + runtime["errors"]
    for service in rig.event_services:
        stats = service.network.stats()
        for key in ("events_routed", "alpha_tests", "candidates_delivered"):
            counters[f"match.{key}"] += stats[key]
    if rig.sparql is not None:
        counters["sparql.queries"] = rig.sparql.stats["queries"]
        counters["sparql.cache_hits"] = rig.sparql.stats["cache_hits"]
        counters["sparql.probes"] = sum(
            rig.store.snapshot()["probes"].values())
    pool_stats = getattr(rig.transport, "pool_stats", None)
    if pool_stats is not None:
        for pool in pool_stats().values():
            counters["http.created"] += pool["created"]
            counters["http.reused"] += pool["reused"]
    return counters


class Session:
    """One rig, its event source and its oracle."""

    def __init__(self, workload: Workload, seed: int, quick: bool,
                 tracer: Tracer | None = None, **options) -> None:
        world = workload.world(seed, quick)
        self.workload = workload
        self.quick = quick
        self.oracle = workload.oracle(world)
        self.source = workload.events(seed, world)
        self.attempted = 0
        self.failed = 0
        started = time.perf_counter()
        self.rig = workload.build(world, tracer, **options)
        self.emit = tracer.wrap("emit", self.rig.emit) if tracer \
            else self.rig.emit
        try:
            self.run_block(20 if quick else WARMUP_EVENTS)
            gc.collect()
            gc.freeze()
        except BaseException:
            self.rig.close()
            raise
        self.setup_seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.clear()

    @property
    def block_events(self) -> int:
        return self.workload.quick_block if self.quick \
            else self.workload.block

    # -- driving -------------------------------------------------------------

    def run_block(self, count: int, rate: float | None = None) -> Block:
        """Emit *count* events and wait for their reactions.

        Closed loop (``rate=None``): events go out back to back — on the
        synchronous engine each returns when its reaction is complete —
        and the clock of an event starts at its ``emit`` call.  Open
        loop: events go out on a fixed schedule whether or not the
        system keeps up, and the clock starts when the event was *due*.
        """
        rig = self.rig
        events = self.source.take(count)
        expected = [self.oracle.expect(event) for event in events]
        payloads = [deploy.payload_of(event) for event in events]
        before = _counters(rig)
        emit, runtime = self.emit, rig.runtime
        starts: list[float] = []
        lags: list[float] = []
        depths: list[int] = []
        clock, sleep = time.perf_counter, time.sleep
        cpu_started = time.process_time()
        started = clock()
        if rate is None:
            for payload in payloads:
                starts.append(clock())
                emit(payload)
        else:
            interval = 1.0 / rate
            for index, payload in enumerate(payloads):
                due = started + index * interval
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                lags.append(max(0.0, clock() - due))
                starts.append(due)
                emit(payload)
                depths.append(sum(runtime.queue_depths()))
        rig.engine.drain(120)
        wall = clock() - started
        cpu = time.process_time() - cpu_started
        stamps = rig.sink.stamps
        latencies = [stamps[event.id] - start
                     for event, start, expectation
                     in zip(events, starts, expected)
                     if expectation.messages and event.id in stamps]
        self.attempted += count
        self.failed += self._verify(events, expected, before)
        effects = len(rig.sink.trace)
        rig.clear_histories()
        return Block(count, wall, cpu, latencies,
                     sum(1 for expectation in expected
                         if not expectation.messages), effects, lags, depths)

    def run_for(self, seconds: float, rate: float | None = None,
                minimum: int = MIN_BLOCKS) -> list[Block]:
        """Equal blocks until *seconds* have passed (at least *minimum*)."""
        deadline = time.perf_counter() + seconds
        blocks: list[Block] = []
        while len(blocks) < minimum or time.perf_counter() < deadline:
            blocks.append(self.run_block(self.block_events, rate))
        return blocks

    # -- checking ------------------------------------------------------------

    def _verify(self, events, expected, before: Counter) -> int:
        """How many things went wrong in the block just driven."""
        seen: dict[str, Counter] = defaultdict(Counter)
        for mailbox, messages in self.rig.sink.mailboxes.items():
            for message in messages:
                content = message.content
                attributes = tuple(sorted(
                    (name.local, value)
                    for name, value in content.attributes.items()))
                seen[content.get("id")][
                    (mailbox, content.name.local, attributes)] += 1
        wrong = 0
        for event, expectation in zip(events, expected):
            if seen.pop(event.id, None) != (Counter(expectation.messages)
                                            or None):
                wrong += 1
        wrong += len(seen)  # effects nobody should have caused
        delta = _counters(self.rig)
        delta.subtract(before)
        wrong += delta["engine.failed"] + delta["grh.dead_letters"] \
            + delta["grh.dead_letters_dropped"] + delta["runtime.shed"]
        wrong += abs(delta["engine.instances"]
                     - sum(expectation.instances for expectation in expected))
        wrong += abs(delta["engine.dead"]
                     - sum(expectation.dead for expectation in expected))
        return wrong

    def finish(self) -> Counter:
        """Check the end state, tear the rig down; what was attempted and
        what failed over the session's life."""
        try:
            store = self.rig.store
            if store is not None:
                at = deploy.URIRef(deploy.FLEET_NS + "at")
                for person, city in self.oracle.location.items():
                    node = deploy.URIRef(deploy.FLEET_NS + person)
                    if list(store.objects(node, at)) != [
                            deploy.URIRef(deploy.CITY_PREFIX + city)]:
                        self.failed += 1
        finally:
            self.rig.close()
            gc.unfreeze()
            gc.collect()
        return Counter(attempted=self.attempted, failed=self.failed)


def _result(totals: Counter, values: dict, catalogue_rows) -> dict:
    """The object a run prints as its last line."""
    return {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"], "failed": totals["failed"],
        "metrics": {row[0]: {"value": values[row[0]], "unit": row[1]}
                    for row in catalogue_rows},
    }


# -- the timed run: end-to-end metrics ------------------------------------------

def run_timed(workload: Workload, seed: int, seconds: float,
              quick: bool = False) -> dict:
    """Every end-to-end metric of *workload*, tracing off."""
    totals: Counter = Counter()
    setups = []
    for _ in range(SETUPS - 1):
        session = Session(workload, seed, quick)
        setups.append(session.setup_seconds)
        totals += session.finish()
    session = Session(workload, seed, quick)
    setups.append(session.setup_seconds)
    try:
        if workload.paced:
            saturated = session.run_for(seconds * 0.4)
            paced = session.run_for(seconds * 0.6, PACED_RATE)
        else:
            saturated = paced = session.run_for(seconds)
    finally:
        totals += session.finish()
    return _result(totals, {
        "throughput_eps": max(block.eps for block in saturated),
        "reaction_p50_ms": min(block.latency(0.50) for block in paced),
        "cpu_ms_per_event": min(block.cpu_ms for block in saturated),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }, END_TO_END)


# -- the traced run: per-layer metrics --------------------------------------------

def _busy_seconds(rig) -> list[float]:
    """Per-worker busy time since the runtime started."""
    elapsed = time.monotonic() - rig.attached_at
    return [share * elapsed for share in rig.runtime.utilization()]


def _reference_phase(session: Session, seconds: float, values: dict) -> float:
    """Drive the untraced reference; fills in what tracing would disturb
    and answers with the reference throughput."""
    rig = session.rig
    values["match.register_ms_per_rule"] = \
        rig.register_seconds * 1e3 / rig.rules
    if session.workload.paced:
        busy_before = _busy_seconds(rig)
        phase_started = time.perf_counter()
        saturated = session.run_for(seconds * 0.45)
        phase = time.perf_counter() - phase_started
        busy = [after - before for after, before
                in zip(_busy_seconds(rig), busy_before)]
        values["runtime.worker_utilization_mean"] = \
            statistics.mean(busy) / phase
        values["runtime.utilization_skew"] = \
            (max(busy) - min(busy)) / max(max(busy), 1e-9)
        paced = session.run_for(seconds * 0.55, PACED_RATE, minimum=2)
        values["runtime.queue_depth_p95"] = percentile(
            sorted(depth for block in paced for depth in block.depths), 0.95)
        # backlog growth: queue depth late in a block against early in
        # it, per second between the two; ~0 at a sustainable rate
        growth = []
        for block in paced:
            quarter = max(1, len(block.depths) // 4)
            growth.append((statistics.mean(block.depths[-quarter:])
                           - statistics.mean(block.depths[:quarter]))
                          / (len(block.depths) - quarter) * PACED_RATE)
        values["runtime.backlog_growth_eps"] = statistics.mean(growth)
        values["ledger.generator_lag_p95_ms"] = percentile(
            sorted(lag for block in paced for lag in block.lags), 0.95) * 1e3
    else:
        saturated = paced = session.run_for(seconds)
    latencies = sorted(latency for block in paced
                       for latency in block.latencies)
    values["ledger.reaction_p95_ms"] = percentile(latencies, 0.95) * 1e3
    values["ledger.reaction_p99_ms"] = percentile(latencies, 0.99) * 1e3
    values["ledger.latency_samples"] = len(latencies)
    values["ledger.excluded_events"] = sum(block.excluded for block in paced)
    if rig.checkpoint_seconds:
        values["durability.checkpoint_ms"] = \
            statistics.median(rig.checkpoint_seconds) * 1e3
    return max(block.eps for block in saturated)


def _traced_phase(session: Session, tracer: Tracer, seconds: float,
                  values: dict) -> float:
    """Drive the traced deployment; fills in the per-layer self times
    and counters and answers with the traced throughput."""
    rig = session.rig
    before = _counters(rig)
    blocks = session.run_for(seconds)
    delta = _counters(rig)
    delta.subtract(before)
    summary = tracer.summary()
    counts, calls = tracer.counts, summary["calls"]
    events = sum(block.events for block in blocks)
    for layer, spent in summary["layers"].items():
        values[f"{layer}_ms_per_event"] = spent * 1e3 / events
    per_event = {
        "xmlmodel.codec_passes_per_event":
            calls.get("xmlmodel.parse", 0) + calls.get("xmlmodel.serialize", 0),
        "xmlmodel.wire_bytes_per_event": counts["xmlmodel.wire_bytes"],
        "bindings.join_calls_per_event": calls.get("bindings.join", 0),
        "bindings.join_rows_out_per_event": counts["bindings.join_rows_out"],
        "grh.requests_per_event": delta["grh.requests"],
        "core.instances_per_event": delta["engine.instances"],
        "core.actions_per_event": delta["engine.actions"],
        "match.candidates_per_event": delta["match.candidates_delivered"],
        "match.alpha_tests_per_event": delta["match.alpha_tests"],
        "xq.requests_per_event": calls.get("svc.xq", 0),
        "exist.requests_per_event": calls.get("svc.exist", 0),
        "actions.effects_per_event": sum(block.effects for block in blocks),
        "transports.sends_per_event": counts["transports.sends"],
        "durability.journal_bytes_per_event":
            counts["durability.journal_bytes"],
    }
    for name, total in per_event.items():
        values[name] = total / events
    values["grh.retries_per_kevent"] = delta["grh.retries"] * 1e3 / events
    values["durability.fsyncs_per_kevent"] = \
        counts["durability.fsyncs"] * 1e3 / events
    values["grh.dead_letters"] = delta["grh.dead_letters"]
    values["grh.opaque_cache_hit_share"] = _share(
        delta["grh.cache_hits"],
        delta["grh.cache_hits"] + calls.get("svc.exist", 0))
    values["core.dead_share"] = _share(delta["engine.dead"],
                                       delta["engine.instances"])
    values["sparql.plan_cache_hit_share"] = _share(
        delta["sparql.cache_hits"], delta["sparql.queries"])
    values["sparql.index_probes_per_query"] = _share(
        delta["sparql.probes"], delta["sparql.queries"])
    values["transports.http_conn_reuse_share"] = _share(
        delta["http.reused"], delta["http.reused"] + delta["http.created"])
    if rig.store is not None:
        values["sparql.store_triples"] = len(rig.store)
    accounted = summary["roots"] + summary["gaps"]
    values["ledger.reconcile_error_share"] = summary["overflow"] / accounted
    if rig.runtime is None:
        # one thread: the layers must add up to the wall clock of the
        # blocks; what is missing is the generator loop and the tracer
        wall = sum(block.wall for block in blocks)
        values["ledger.unattributed_share"] = \
            abs(wall - sum(summary["layers"].values())) / wall
    else:
        values["ledger.unattributed_share"] = summary["gaps"] / accounted
    return max(block.eps for block in blocks)


def run_traced(workload: Workload, seed: int, seconds: float,
               quick: bool = False, dump: bool = True) -> dict:
    """Every per-layer metric of *workload*.

    Three deployments, one after the other: an untraced reference (the
    tracing overhead is measured against it, and it supplies the numbers
    that tracing would disturb), the traced one, and — where the
    workload asks for it — an untraced extra with observability enabled
    or on the synchronous engine.
    """
    values = dict.fromkeys((name for name, _unit, _better in PER_LAYER), 0.0)
    values["ledger.calibration_ms"] = calibration_ms()
    shares = (0.45, 0.55, 0.0) if workload.extra is None \
        else (0.3, 0.4, 0.3)
    totals: Counter = Counter()

    session = Session(workload, seed, quick)
    try:
        reference_eps = _reference_phase(session, seconds * shares[0], values)
    finally:
        totals += session.finish()

    tracer = Tracer()
    with patched(tracer):
        session = Session(workload, seed, quick, tracer)
        try:
            traced_eps = _traced_phase(session, tracer, seconds * shares[1],
                                       values)
            if dump:
                _dump_spans(workload.name, tracer)
        finally:
            totals += session.finish()
    values["ledger.trace_overhead_share"] = 1.0 - traced_eps / reference_eps

    if workload.extra is not None:
        if workload.extra == "obs":
            from repro.obs import Observability
            options = {"observability": Observability()}
        else:
            options = {"workers": 0}
        session = Session(workload, seed, quick, **options)
        try:
            extra_eps = max(block.eps for block
                            in session.run_for(seconds * shares[2]))
        finally:
            totals += session.finish()
        if workload.extra == "obs":
            values["obs.enabled_overhead_share"] = \
                1.0 - extra_eps / reference_eps
        else:
            values["runtime.speedup_vs_sync"] = reference_eps / extra_eps
    return _result(totals, values, PER_LAYER)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _dump_spans(workload: str, tracer: Tracer) -> None:
    os.makedirs(deploy.OUT_DIR, exist_ok=True)
    path = os.path.join(deploy.OUT_DIR, f"spans-{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["id", "parent", "name", "start", "end",
                               "thread"],
                   "spans": tracer.spans}, handle)
