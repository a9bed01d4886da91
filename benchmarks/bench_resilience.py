"""BENCH-R1: what does the resilience layer cost on the happy path?

The retry/breaker wrapper sits on every GRH request, so its no-failure
overhead must be ≈0: a closure call, a breaker dict lookup and two
counter increments per request — no sleeping, no clock reads beyond the
breaker check.  Four configurations over the same aware query service:

1. **no breaker, no retries** — the wrapper at its thinnest,
2. **default manager** — breaker enabled, no retries (the GRH default),
3. **retry policy armed** (max_attempts=3) but never exercised,
4. **failures injected** — every other request crashes once and is
   retried (sleep stubbed out), to see the cost of the retry loop when
   it actually runs.

``test_happy_path_overhead_is_negligible`` pins the acceptance bound:
configuration 3 vs 1 on min-of-repeats timings, < 2% overhead.
"""

import timeit

from repro.bindings import Relation, relation_to_answers
from repro.grh import (ComponentSpec, GenericRequestHandler,
                       LanguageDescriptor, LanguageRegistry,
                       ResilienceManager, RetryPolicy)
from repro.services import InProcessTransport
from repro.xmlmodel import parse

LANG = "urn:bench:q"


class EchoService:
    def handle(self, message):
        return relation_to_answers(Relation([{"Q": "ok"}]))


class FailEveryOther:
    def __init__(self):
        self.calls = 0

    def handle(self, message):
        self.calls += 1
        if self.calls % 2 == 1:
            raise RuntimeError("transient (simulated)")
        return relation_to_answers(Relation([{"Q": "ok"}]))


def build(resilience, service=None):
    grh = GenericRequestHandler(LanguageRegistry(), InProcessTransport(),
                                resilience=resilience)
    grh.add_service(LanguageDescriptor(LANG, "query", "q"),
                    service or EchoService())
    spec = ComponentSpec("query", LANG,
                         content=parse(f"<q xmlns='{LANG}'/>"))
    relation = Relation.unit()
    return lambda: grh.evaluate_query("b::q", spec, relation)


def no_resilience():
    return build(ResilienceManager(breaker=None))


def default_manager():
    return build(None)


def retry_armed():
    return build(ResilienceManager(retry=RetryPolicy(max_attempts=3)))


def retries_exercised():
    manager = ResilienceManager(retry=RetryPolicy(max_attempts=3),
                                sleep=lambda s: None)
    return build(manager, FailEveryOther())


class TestResilienceOverhead:
    def test_1_no_breaker_no_retries(self, benchmark):
        benchmark(no_resilience())

    def test_2_default_manager(self, benchmark):
        benchmark(default_manager())

    def test_3_retry_policy_armed_unused(self, benchmark):
        benchmark(retry_armed())

    def test_4_retries_exercised(self, benchmark):
        benchmark(retries_exercised())


class TestAcceptanceBound:
    def test_happy_path_overhead_is_negligible(self):
        """The armed-but-unused wrapper must cost <2% of a real request.

        End-to-end A/B timing of two full GRH stacks drifts by ±2-3%
        run-to-run (CPU frequency wander), which would swamp the
        sub-microsecond quantity under test.  Instead: time the
        resilience wrapper around a no-op directly (its *absolute*
        per-call cost, which is stable under min-of-repeats) and relate
        it to the measured cost of one real mediated request.
        """
        manager = ResilienceManager(retry=RetryPolicy(max_attempts=3))
        descriptor = LanguageDescriptor(LANG, "query", "q")
        noop = lambda: "ok"  # noqa: E731

        def wrapped():
            return manager.call_routed(("svc:q",), descriptor,
                                       lambda _a: noop(), failover_ok=False)

        wrapped()  # warm: breaker + per-service slots created
        number = 20_000
        t_wrapped = min(timeit.repeat(wrapped, number=number, repeat=7))
        t_noop = min(timeit.repeat(noop, number=number, repeat=7))
        wrapper_cost = (t_wrapped - t_noop) / number

        request = no_resilience()
        for _ in range(50):
            request()  # warm parser caches
        t_request = min(timeit.repeat(request, number=200, repeat=5)) / 200

        overhead = wrapper_cost / t_request
        assert overhead < 0.02, (
            f"wrapper costs {wrapper_cost * 1e6:.2f}us per call = "
            f"{overhead:.2%} of a {t_request * 1e6:.0f}us request")
