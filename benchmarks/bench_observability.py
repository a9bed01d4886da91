"""BENCH-O1: what does observability cost on the happy path?

The observability subsystem must be deployable two ways without
distorting the engine it watches:

* **off (the default)** — ``ECAEngine(grh)`` carries no instrumentation
  beyond a handful of ``is not None`` checks.  The acceptance bound pins
  **< 1%** end-to-end against a pre-observability engine, measured over
  the paper's running example (booking → Datalog ownership query →
  SPARQL fleet query → offer action);
* **on** — full tracing (a root span per rule instance, child spans per
  phase, per GRH request and per co-located service record) plus the
  phase/request latency histograms.  The bound pins **< 5%** on the same
  workload;
* **head-sampled at 1%** — the 99% of traces the sampler drops build
  no spans and are only timed for the histograms.  The bound pins
  **< 2%**.

``Observability(enabled=False)`` (a handle that records nothing) is
reported alongside the ``observability=None`` default; both must meet
the disabled bound.

Measurement: the baseline and candidate are interleaved one emit at a
time and the *medians* of the per-emit samples are compared, which
cancels thermal drift and ignores scheduler spikes (same protocol as
BENCH-D1).  The disabled flavor compares two separately built worlds —
their hot paths are identical, so the measurement doubles as a noise
floor.  The enabled and sampled flavors instead *toggle*
instrumentation on ONE world (``engine._obs`` / ``grh.observability``
swapped between emits): separately built worlds differ in intrinsic
speed by more than the 5% bound itself (allocator and hash layout),
which would drown the signal.  Overhead this small still jitters
between runs, so each gate takes the best of three measurement blocks:
noise only ever inflates the estimate, never deflates it.

Run directly for the CI gate: ``python bench_observability.py --quick``
(exits non-zero when a bound is violated).
"""

import argparse
import statistics
import sys
import time

from bench_durability import DATALOG_PROGRAM, FLEET_PREFIX, PAPER_RULE

from repro.core import ECAEngine
from repro.domain import booking_event, fleet_graph
from repro.obs import Observability
from repro.obs.ops import ProbabilisticSampler
from repro.services import standard_deployment

#: acceptance bounds, as fractions of the baseline per-booking time
DISABLED_BOUND = 0.01
ENABLED_BOUND = 0.05
#: tracing head-sampled at 1% must price like tracing off: the
#: unsampled fast path (one hash, no spans, no exports) is the whole
#: point of sampling — bound 2% over the uninstrumented engine
SAMPLED_BOUND = 0.02
SAMPLED_PROBABILITY = 0.01


def build_paper(observability=None):
    """The running example's world, optionally instrumented."""
    deployment = standard_deployment(graph=fleet_graph(),
                                     datalog_program=DATALOG_PROGRAM)
    deployment.sparql.prefixes["fleet"] = FLEET_PREFIX
    engine = ECAEngine(deployment.grh, keep_instances=False,
                       observability=observability)
    engine.register_rule(PAPER_RULE)

    def emit():
        deployment.stream.emit(booking_event())

    return emit


def build_toggled_paper(observability=None):
    """One instrumented world plus on/off switches for its hot handles.

    Toggling ``engine._obs`` and ``grh.observability`` reproduces
    exactly the ``observability=None`` hot path (both gate every
    instrumented block on ``is not None``), so the off-state IS the
    uninstrumented engine — in the same world, with the same memory
    layout.
    """
    deployment = standard_deployment(graph=fleet_graph(),
                                     datalog_program=DATALOG_PROGRAM)
    deployment.sparql.prefixes["fleet"] = FLEET_PREFIX
    if observability is None:
        observability = Observability()
    engine = ECAEngine(deployment.grh, keep_instances=False,
                       observability=observability)
    engine.register_rule(PAPER_RULE)
    grh = deployment.grh

    def emit():
        deployment.stream.emit(booking_event())

    def on():
        engine._obs = observability
        grh.observability = observability

    def off():
        engine._obs = None
        grh.observability = None

    return emit, on, off


def interleaved_overhead(baseline, candidate, *, warmup, pairs):
    """Median-of-interleaved-samples overhead (see module docstring)."""
    for _ in range(warmup):
        baseline()
        candidate()
    clock = time.perf_counter_ns
    base_ns, candidate_ns = [], []
    for _ in range(pairs):
        t0 = clock()
        baseline()
        t1 = clock()
        candidate()
        t2 = clock()
        base_ns.append(t1 - t0)
        candidate_ns.append(t2 - t1)
    base = statistics.median(base_ns)
    return statistics.median(candidate_ns) / base - 1.0, base


def toggled_overhead(*, warmup, pairs, observability=None):
    """Observability overhead measured by toggling one world."""
    emit, on, off = build_toggled_paper(observability)
    for _ in range(warmup):
        off()
        emit()
        on()
        emit()
    clock = time.perf_counter_ns
    base_ns, candidate_ns = [], []
    for _ in range(pairs):
        off()
        t0 = clock()
        emit()
        t1 = clock()
        on()
        t2 = clock()
        emit()
        t3 = clock()
        base_ns.append(t1 - t0)
        candidate_ns.append(t3 - t2)
    base = statistics.median(base_ns)
    return statistics.median(candidate_ns) / base - 1.0, base


def best_of(trials, measure):
    """The lowest overhead estimate across ``trials`` fresh worlds.

    Noise (scheduler, allocator, cache state) only ever *adds* apparent
    overhead to a trial, so the minimum is the soundest estimate of the
    true cost.
    """
    best, best_base = None, None
    for _ in range(trials):
        overhead, base_ns = measure()
        if best is None or overhead < best:
            best, best_base = overhead, base_ns
    return best, best_base


class TestObservabilityOverhead:
    """Reported timings (pytest-benchmark), one engine flavor each."""

    def test_1_no_observability(self, benchmark):
        benchmark(build_paper())

    def test_2_disabled_handle(self, benchmark):
        benchmark(build_paper(Observability(enabled=False)))

    def test_3_enabled(self, benchmark):
        benchmark(build_paper(Observability()))

    def test_4_sampled_one_percent(self, benchmark):
        benchmark(build_paper(Observability(
            sampler=ProbabilisticSampler(SAMPLED_PROBABILITY))))


class TestAcceptanceBound:
    def test_disabled_overhead_under_one_percent(self):
        """``Observability(enabled=False)`` must cost < 1% against the
        bare engine on the paper's running example."""
        overhead, base_ns = best_of(3, lambda: interleaved_overhead(
            build_paper(), build_paper(Observability(enabled=False)),
            warmup=150, pairs=600))
        assert overhead < DISABLED_BOUND, (
            f"disabled observability costs {overhead:.2%} "
            f"(baseline {base_ns / 1e3:.0f}us per booking)")

    def test_enabled_overhead_under_five_percent(self):
        """Full tracing + metrics must cost < 5% on the same workload."""
        overhead, base_ns = best_of(
            3, lambda: toggled_overhead(warmup=150, pairs=600))
        assert overhead < ENABLED_BOUND, (
            f"enabled observability costs {overhead:.2%} "
            f"(baseline {base_ns / 1e3:.0f}us per booking)")

    def test_sampled_overhead_under_two_percent(self):
        """Tracing head-sampled at 1% must stay within 2% of the
        tracing-disabled baseline (the CI sampled-overhead gate)."""
        overhead, base_ns = best_of(3, lambda: toggled_overhead(
            warmup=150, pairs=600,
            observability=Observability(
                sampler=ProbabilisticSampler(SAMPLED_PROBABILITY))))
        assert overhead < SAMPLED_BOUND, (
            f"1%-sampled tracing costs {overhead:.2%} "
            f"(baseline {base_ns / 1e3:.0f}us per booking)")

    def test_default_engine_has_no_hot_path_handle(self):
        """``observability=None`` leaves the hot-path handle unset."""
        deployment = standard_deployment(graph=fleet_graph(),
                                         datalog_program=DATALOG_PROGRAM)
        engine = ECAEngine(deployment.grh)
        assert engine._obs is None
        assert engine.grh.observability is None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="observability overhead gate (BENCH-O1)")
    parser.add_argument("--quick", action="store_true",
                        help="fewer samples (CI smoke pass)")
    parser.add_argument("--trials", type=int, default=3)
    options = parser.parse_args(argv)
    warmup = 50 if options.quick else 150
    pairs = 200 if options.quick else 600

    gates = [
        ("Observability(enabled=False)",
         lambda: interleaved_overhead(
             build_paper(), build_paper(Observability(enabled=False)),
             warmup=warmup, pairs=pairs),
         DISABLED_BOUND),
        ("Observability() fully enabled",
         lambda: toggled_overhead(warmup=warmup, pairs=pairs),
         ENABLED_BOUND),
        (f"sampled at {SAMPLED_PROBABILITY:.0%} (head)",
         lambda: toggled_overhead(
             warmup=warmup, pairs=pairs,
             observability=Observability(
                 sampler=ProbabilisticSampler(SAMPLED_PROBABILITY))),
         SAMPLED_BOUND)]

    failures = 0
    series = {}
    for label, measure, bound in gates:
        overhead, base_ns = best_of(options.trials, measure)
        verdict = "ok" if overhead < bound else "FAIL"
        if overhead >= bound:
            failures += 1
        series[label] = {
            "overhead": overhead,
            "bound": bound,
            "baseline_ns_per_booking": base_ns,
            "baseline_ops_per_s": 1e9 / base_ns if base_ns else None,
            "ok": overhead < bound,
        }
        print(f"{label:38s} {overhead:+7.2%}  (bound {bound:.0%}, "
              f"baseline {base_ns / 1e3:.0f}us/booking)  {verdict}")
    from reporting import write_bench_json
    path = write_bench_json("observability_gate", series,
                            quick=options.quick, trials=options.trials)
    print(f"wrote {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
