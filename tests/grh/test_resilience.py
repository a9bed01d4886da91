"""The GRH resilience subsystem: retries, breakers, dead letters."""

import pytest

from repro.bindings import Relation, relation_to_answers
from repro.grh import (BreakerPolicy, CircuitBreaker, ComponentSpec,
                       DeadLetter, DeadLetterQueue, GRHError,
                       GenericRequestHandler, LanguageDescriptor,
                       LanguageRegistry, ResilienceManager, RetryPolicy,
                       error_message)
from repro.services import InProcessTransport


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, delta):
        self.now += delta


class RecordingSleep:
    def __init__(self):
        self.slept = []

    def __call__(self, seconds):
        self.slept.append(seconds)


class FailNTimesService:
    """Aware service that crashes for the first ``fail`` calls."""

    def __init__(self, fail=2, mode="crash"):
        self.fail = fail
        self.mode = mode
        self.calls = 0

    def handle(self, message):
        self.calls += 1
        if self.calls <= self.fail:
            if self.mode == "error":
                return error_message("scripted failure")
            raise RuntimeError("scripted outage")
        return relation_to_answers(Relation([{"Q": "fine"}]))


def make_grh(resilience=None, service=None, descriptor=None):
    grh = GenericRequestHandler(LanguageRegistry(), InProcessTransport(),
                                resilience=resilience)
    if service is not None:
        grh.add_service(descriptor or LanguageDescriptor("urn:flaky",
                                                         "query", "flaky"),
                        service)
    return grh


def query_spec():
    from repro.xmlmodel import parse
    return ComponentSpec("query", "urn:flaky",
                         content=parse("<q xmlns='urn:flaky'/>"))


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1,
                             backoff_factor=2.0, max_delay=0.3, jitter=0.0)
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert policy.delay_for(2) == pytest.approx(0.2)
        assert policy.delay_for(3) == pytest.approx(0.3)  # capped
        assert policy.delay_for(9) == pytest.approx(0.3)

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.2)
        first = policy.delay_for(1, "http://svc/")
        assert first == policy.delay_for(1, "http://svc/")
        assert 0.1 <= first <= 0.1 * 1.2
        # jitter varies by attempt beyond the pure backoff factor
        assert policy.delay_for(2, "http://svc/") != pytest.approx(2 * first)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)


class TestCircuitBreaker:
    def test_closed_open_half_open_cycle(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2,
                                               reset_timeout=10.0))
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.state == "closed"
        breaker.record_failure(1.0)
        assert breaker.state == "open"
        assert not breaker.allow(2.0)          # still open
        assert breaker.allow(11.0)             # half-open probe allowed
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1,
                                               reset_timeout=5.0))
        breaker.record_failure(0.0)
        assert breaker.state == "open"
        assert breaker.allow(6.0)
        breaker.record_failure(6.0)            # probe failed
        assert breaker.state == "open"
        assert not breaker.allow(7.0)
        assert breaker.opens == 2

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(1.0)
        assert breaker.state == "closed"


class TestDeadLetterQueue:
    def test_bounded_fifo_drops_oldest(self):
        queue = DeadLetterQueue(max_size=2)
        for n in range(3):
            queue.append(DeadLetter(kind="detection", error=f"e{n}"))
        assert len(queue) == 2
        assert queue.dropped == 1
        assert [letter.error for letter in queue] == ["e1", "e2"]

    def test_pending_with_limit(self):
        queue = DeadLetterQueue()
        for n in range(3):
            queue.append(DeadLetter(kind="detection", error=f"e{n}"))
        first = queue.pending(2)
        assert [letter.error for letter in first] == ["e0", "e1"]
        assert len(queue) == 3                  # pending removes nothing
        for letter in first:
            queue.settle(letter, 0)
        assert len(queue) == 1
        assert [letter.error for letter in queue.pending()] == ["e2"]
        queue.settle(first[0], 0)               # settled twice: no-op
        assert len(queue) == 1

    def test_dead_letter_markup(self):
        letter = DeadLetter(kind="detection", error="boom", attempts=2)
        element = letter.to_xml()
        assert element.name.local == "deadletter"
        assert element.get("kind") == "detection"
        assert element.get("attempts") == "2"
        assert "boom" in element.text()


class TestRetryMediation:
    def test_fails_twice_then_recovers_under_retry(self):
        sleep = RecordingSleep()
        manager = ResilienceManager(retry=RetryPolicy(max_attempts=3),
                                    sleep=sleep)
        service = FailNTimesService(fail=2)
        grh = make_grh(manager, service)
        result = grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert result == Relation([{"Q": "fine"}])
        assert service.calls == 3
        assert grh.stats["retries"] == 2
        assert len(sleep.slept) == 2
        assert sleep.slept[1] > sleep.slept[0]  # backoff grows

    def test_without_retries_the_same_service_fails(self):
        service = FailNTimesService(fail=2)
        grh = make_grh(ResilienceManager(), service)
        with pytest.raises(GRHError, match="scripted outage"):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert service.calls == 1

    def test_retry_exhaustion_raises_last_error(self):
        manager = ResilienceManager(retry=RetryPolicy(max_attempts=2),
                                    sleep=lambda s: None)
        service = FailNTimesService(fail=5)
        grh = make_grh(manager, service)
        with pytest.raises(GRHError, match="unreachable or crashed"):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert service.calls == 2

    def test_service_errors_not_retried_by_default(self):
        manager = ResilienceManager(retry=RetryPolicy(max_attempts=3),
                                    sleep=lambda s: None)
        service = FailNTimesService(fail=2, mode="error")
        grh = make_grh(manager, service)
        with pytest.raises(GRHError, match="scripted failure"):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert service.calls == 1

    def test_service_errors_retried_on_opt_in(self):
        policy = RetryPolicy(max_attempts=3, retry_on_service_errors=True)
        manager = ResilienceManager(retry=policy, sleep=lambda s: None)
        service = FailNTimesService(fail=2, mode="error")
        grh = make_grh(manager, service)
        result = grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert result == Relation([{"Q": "fine"}])
        assert service.calls == 3

    def test_per_language_policy_overrides_default(self):
        manager = ResilienceManager(sleep=lambda s: None)  # no retries
        descriptor = LanguageDescriptor("urn:flaky", "query", "flaky",
                                        retry=RetryPolicy(max_attempts=3))
        service = FailNTimesService(fail=2)
        grh = make_grh(manager, service, descriptor)
        result = grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert result == Relation([{"Q": "fine"}])
        assert service.calls == 3

    def test_unaware_fetch_path_is_retried_too(self):
        manager = ResilienceManager(retry=RetryPolicy(max_attempts=3),
                                    sleep=lambda s: None)
        calls = []

        class FlakyOpaque:
            def execute(self, query):
                calls.append(query)
                if len(calls) <= 2:
                    # a crash, not a verdict on the query: any other
                    # exception is the service's own report (§11) and
                    # is not retried, in process as over HTTP
                    raise ConnectionError("opaque outage")
                return "value"

        grh = GenericRequestHandler(LanguageRegistry(), InProcessTransport(),
                                    resilience=manager)
        grh.add_service(LanguageDescriptor("urn:u", "query", "u",
                                           framework_aware=False),
                        FlakyOpaque())
        spec = ComponentSpec("query", "urn:u", opaque="q", bind_to="X")
        result = grh.evaluate_query("r::q0", spec, Relation.unit())
        assert [b["X"] for b in result] == ["value"]
        assert len(calls) == 3


class TestOpaqueServiceReportsItsOwnErrors:
    """A framework-unaware service that ran and refused the query gave a
    deterministic verdict: executed once and "reported", whichever
    transport carried it (PROTOCOL.md §11)."""

    BAD_QUERY = "doc('d.xml')//["

    def run_bad_query(self, transport, register):
        from repro.services import ExistLikeService
        manager = ResilienceManager(retry=RetryPolicy(max_attempts=3),
                                    sleep=lambda s: None)
        grh = GenericRequestHandler(LanguageRegistry(), transport,
                                    resilience=manager)
        service = ExistLikeService()
        descriptor = LanguageDescriptor("urn:exist", "query", "exist",
                                        framework_aware=False)
        register(grh, descriptor, service)
        spec = ComponentSpec("query", "urn:exist", opaque=self.BAD_QUERY,
                             bind_to="X")
        with pytest.raises(GRHError, match="reported") as raised:
            grh.evaluate_query("r::q0", spec, Relation.unit())
        assert "unreachable or crashed" not in str(raised.value)
        assert list(service.request_log) == [self.BAD_QUERY]
        assert grh.stats["retries"] == 0

    def test_in_process(self):
        self.run_bad_query(
            InProcessTransport(),
            lambda grh, descriptor, service:
                grh.add_service(descriptor, service))

    def test_over_http(self):
        from repro.services import HttpServiceServer, HybridTransport
        servers = []

        def register(grh, descriptor, service):
            server = HttpServiceServer(opaque_handler=service.execute)
            servers.append(server)
            grh.add_remote_language(descriptor, server.start())

        try:
            self.run_bad_query(HybridTransport(), register)
        finally:
            for server in servers:
                server.stop()

    def test_a_crash_in_process_is_still_transient(self):
        transport = InProcessTransport()

        def crashing(query):
            raise ConnectionResetError("gone")
        transport.bind_opaque("svc:o", crashing)
        with pytest.raises(ConnectionResetError):
            transport.fetch("svc:o", "q")


class TestBreakerMediation:
    def make_world(self, fail, threshold=1, reset=10.0):
        clock = FakeClock()
        manager = ResilienceManager(
            breaker=BreakerPolicy(failure_threshold=threshold,
                                  reset_timeout=reset),
            clock=clock, sleep=lambda s: None)
        service = FailNTimesService(fail=fail)
        grh = make_grh(manager, service)
        return grh, service, clock

    def test_open_breaker_sheds_without_calling_service(self):
        grh, service, clock = self.make_world(fail=10)
        with pytest.raises(GRHError):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert grh.stats["breaker_opens"] == 1
        assert grh.stats["breakers"]["svc:flaky"] == "open"
        with pytest.raises(GRHError, match="circuit open"):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert service.calls == 1               # second request never sent
        assert grh.stats["breaker_rejections"] == 1

    def test_half_open_probe_recovers(self):
        grh, service, clock = self.make_world(fail=1)
        with pytest.raises(GRHError):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        clock.advance(11.0)                     # past reset_timeout
        result = grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert result == Relation([{"Q": "fine"}])
        assert grh.stats["breakers"]["svc:flaky"] == "closed"

    def test_half_open_probe_failure_reopens(self):
        grh, service, clock = self.make_world(fail=5)
        with pytest.raises(GRHError):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        clock.advance(11.0)
        with pytest.raises(GRHError):           # probe fails
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert service.calls == 2
        with pytest.raises(GRHError, match="circuit open"):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert service.calls == 2

    def test_retry_stops_once_breaker_opens(self):
        # 3 attempts allowed, but the breaker opens after 2 failures:
        # the third attempt is shed instead of hammering the service
        clock = FakeClock()
        manager = ResilienceManager(
            retry=RetryPolicy(max_attempts=5),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=10),
            clock=clock, sleep=lambda s: None)
        service = FailNTimesService(fail=10)
        grh = make_grh(manager, service)
        with pytest.raises(GRHError):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert service.calls == 2

    def test_breakers_disabled_with_none(self):
        manager = ResilienceManager(breaker=None, sleep=lambda s: None)
        service = FailNTimesService(fail=1)
        grh = make_grh(manager, service)
        with pytest.raises(GRHError):
            grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        assert grh.stats["breakers"] == {}


class TestTimeoutPropagation:
    class RecordingTransport:
        def __init__(self):
            self.timeouts = []

        def bind(self, address, handler):
            return address

        def bind_opaque(self, address, handler):
            return address

        def send(self, address, message, timeout=None):
            self.timeouts.append(timeout)
            return relation_to_answers(Relation.unit())

        def fetch(self, address, query, timeout=None):
            self.timeouts.append(timeout)
            return "v"

    def test_descriptor_timeout_reaches_transport(self):
        transport = self.RecordingTransport()
        grh = GenericRequestHandler(LanguageRegistry(), transport)
        grh.add_service(LanguageDescriptor("urn:q", "query", "q",
                                           timeout=1.5),
                        type("S", (), {"handle": staticmethod(lambda m: m)}))
        grh.evaluate_query("r::q0", ComponentSpec(
            "query", "urn:q", opaque="x", bind_to=None), Relation.unit())
        assert transport.timeouts == [1.5]

    def test_policy_timeout_reaches_fetch(self):
        transport = self.RecordingTransport()
        manager = ResilienceManager(retry=RetryPolicy(timeout=0.25))
        grh = GenericRequestHandler(LanguageRegistry(), transport,
                                    resilience=manager)
        grh.add_service(LanguageDescriptor("urn:u", "query", "u",
                                           framework_aware=False),
                        type("S", (), {"execute":
                                       staticmethod(lambda q: "v")}))
        grh.evaluate_query("r::q0", ComponentSpec(
            "query", "urn:u", opaque="x", bind_to="X"), Relation.unit())
        assert transport.timeouts == [0.25]

    def test_no_timeout_configured_omits_the_argument(self):
        calls = []

        class StrictTransport:
            def bind(self, address, handler):
                return address

            def send(self, address, message):  # no timeout parameter
                calls.append(address)
                return relation_to_answers(Relation.unit())

        grh = GenericRequestHandler(LanguageRegistry(), StrictTransport())
        grh.add_service(LanguageDescriptor("urn:q", "query", "q"),
                        type("S", (), {"handle": staticmethod(lambda m: m)}))
        grh.evaluate_query("r::q0", ComponentSpec(
            "query", "urn:q", opaque="x"), Relation.unit())
        assert calls  # legacy transports keep working untouched


class TestStatsSurface:
    def test_stats_shape(self):
        manager = ResilienceManager(retry=RetryPolicy(max_attempts=2),
                                    sleep=lambda s: None)
        service = FailNTimesService(fail=1)
        grh = make_grh(manager, service)
        grh.evaluate_query("r::q0", query_spec(), Relation.unit())
        stats = grh.stats
        assert stats["requests"] == 1
        assert stats["retries"] == 1
        assert stats["attempts"] == 2
        rates = stats["services"]["svc:flaky"]
        assert rates["failures"] == 1 and rates["successes"] == 1
        assert rates["failure_rate"] == pytest.approx(0.5)
