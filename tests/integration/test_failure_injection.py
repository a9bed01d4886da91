"""Failure injection: misbehaving services must not corrupt the engine.

The paper's services are autonomous — they can fail, lie about message
shapes, or disappear.  The engine must record the failure on the affected
instance and keep serving other rules and later events.
"""

import pytest

from repro.bindings import Relation
from repro.core import ECAEngine
from repro.grh import LanguageDescriptor, error_message
from repro.services import standard_deployment
from repro.xmlmodel import E, ECA_NS, parse

ECA = f'xmlns:eca="{ECA_NS}"'
FLAKY_LANG = "urn:test:flaky"


class FlakyService:
    """A query service scripted to fail in configurable ways."""

    def __init__(self):
        self.mode = "ok"
        self.calls = 0

    def handle(self, message):
        self.calls += 1
        if self.mode == "error":
            return error_message("storage exploded")
        if self.mode == "crash":
            raise RuntimeError("segfault (simulated)")
        if self.mode == "wrong-shape":
            return parse("<unexpected/>")
        if self.mode == "garbage-answers":
            return parse('<log:answers xmlns:log='
                         '"http://www.semwebtech.org/languages/2006/log">'
                         "<log:answer><log:variable>nameless"
                         "</log:variable></log:answer></log:answers>")
        from repro.bindings import relation_to_answers
        return relation_to_answers(Relation([{"Q": "fine"}]))


def flaky_rule():
    return f"""
    <eca:rule {ECA} id="flaky-rule">
      <eca:event><ping n="{{N}}"/></eca:event>
      <eca:query><q xmlns="{FLAKY_LANG}">whatever</q></eca:query>
      <eca:action><out q="{{Q}}"/></eca:action>
    </eca:rule>
    """


def unaware_flaky_rule():
    """Same shape, but the flaky language is framework-unaware (opaque
    component, result bound to $Q)."""
    return f"""
    <eca:rule {ECA} id="flaky-rule">
      <eca:event><ping n="{{N}}"/></eca:event>
      <eca:variable name="Q">
        <eca:query><eca:opaque language="flaky">whatever</eca:opaque></eca:query>
      </eca:variable>
      <eca:action><out q="{{Q}}"/></eca:action>
    </eca:rule>
    """


@pytest.fixture()
def world():
    deployment = standard_deployment()
    service = FlakyService()
    deployment.grh.add_service(
        LanguageDescriptor(FLAKY_LANG, "query", "flaky"), service)
    engine = ECAEngine(deployment.grh)
    engine.register_rule(flaky_rule())
    return deployment, engine, service


class TestServiceFailures:
    def test_clean_error_marks_instance_failed(self, world):
        deployment, engine, service = world
        service.mode = "error"
        deployment.stream.emit(E("ping", {"n": "1"}))
        (instance,) = engine.instances
        assert instance.status == "failed"
        assert "storage exploded" in instance.error
        assert engine.stats["failed"] == 1

    def test_service_crash_becomes_error_message(self, world):
        deployment, engine, service = world
        service.mode = "crash"
        deployment.stream.emit(E("ping", {"n": "1"}))
        (instance,) = engine.instances
        assert instance.status == "failed"
        assert "segfault" in instance.error

    def test_wrong_message_shape_fails_cleanly(self, world):
        deployment, engine, service = world
        service.mode = "wrong-shape"
        deployment.stream.emit(E("ping", {"n": "1"}))
        (instance,) = engine.instances
        assert instance.status == "failed"
        assert "log:answers" in instance.error

    def test_garbage_answers_fail_cleanly(self, world):
        deployment, engine, service = world
        service.mode = "garbage-answers"
        deployment.stream.emit(E("ping", {"n": "1"}))
        (instance,) = engine.instances
        assert instance.status == "failed"

    def test_engine_recovers_after_failure(self, world):
        deployment, engine, service = world
        service.mode = "error"
        deployment.stream.emit(E("ping", {"n": "1"}))
        service.mode = "ok"
        deployment.stream.emit(E("ping", {"n": "2"}))
        statuses = [instance.status for instance in engine.instances]
        assert statuses == ["failed", "completed"]
        assert deployment.runtime.messages("default")

    def test_other_rules_unaffected_by_failing_rule(self, world):
        deployment, engine, service = world
        from repro.actions import ACTION_NS
        engine.register_rule(f"""
        <eca:rule {ECA} id="healthy">
          <eca:event><ping n="{{N}}"/></eca:event>
          <eca:action>
            <act:send xmlns:act="{ACTION_NS}" to="healthy-out">
              <pong n="{{N}}"/>
            </act:send>
          </eca:action>
        </eca:rule>""")
        service.mode = "crash"
        deployment.stream.emit(E("ping", {"n": "1"}))
        assert len(deployment.runtime.messages("healthy-out")) == 1
        assert engine.stats["failed"] == 1
        assert engine.stats["completed"] == 1


class TestActionFailures:
    def test_failing_action_marks_instance(self):
        deployment = standard_deployment()
        engine = ECAEngine(deployment.grh, validate=False)
        from repro.actions import ACTION_NS
        engine.register_rule(f"""
        <eca:rule {ECA} id="bad-action">
          <eca:event><ping/></eca:event>
          <eca:action>
            <act:insert xmlns:act="{ACTION_NS}" document="ghost.xml"
                        at="/nope"><x/></act:insert>
          </eca:action>
        </eca:rule>""")
        deployment.stream.emit(E("ping"))
        (instance,) = engine.instances
        assert instance.status == "failed"
        assert "ghost.xml" in instance.error

    def test_partial_action_execution_reported(self):
        """When the action fails for the second tuple, the count of
        successfully executed actions is preserved on the instance."""
        deployment = standard_deployment()
        engine = ECAEngine(deployment.grh, validate=False)
        from repro.actions import ACTION_NS
        # send works for tuples that bind Q; template error otherwise —
        # engineered via a query binding Q for only one of two tuples
        engine.register_rule(f"""
        <eca:rule {ECA} id="partial">
          <eca:event><pair a="{{A}}" b="{{B}}"/></eca:event>
          <eca:action>
            <act:send xmlns:act="{ACTION_NS}" to="out"><x a="{{A}}"/></act:send>
          </eca:action>
          <eca:action>
            <act:send xmlns:act="{ACTION_NS}" to="out"><x c="{{C}}"/></act:send>
          </eca:action>
        </eca:rule>""")
        deployment.stream.emit(E("pair", {"a": "1", "b": "2"}))
        (instance,) = engine.instances
        assert instance.status == "failed"  # second action: unbound {C}
        assert instance.actions_executed == 1  # first action did run


def http_world(flaky_service, resilience=None, aware=True):
    """A hybrid deployment with the flaky query service behind real HTTP."""
    from repro.grh import GenericRequestHandler, LanguageRegistry
    from repro.services import (ActionExecutionService, AtomicEventService,
                                HttpServiceServer, HybridTransport)
    from repro.actions import ACTION_NS, ActionRuntime
    from repro.events import ATOMIC_NS, EventStream

    registry = LanguageRegistry()
    grh = GenericRequestHandler(registry, HybridTransport(timeout=2.0),
                                resilience=resilience)
    stream = EventStream()
    runtime = ActionRuntime()
    atomic = AtomicEventService(grh.notify)
    atomic.attach(stream)
    grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic"),
                    atomic)
    grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                    ActionExecutionService(runtime))
    if aware:
        server = HttpServiceServer(aware_handler=flaky_service.handle)
    else:
        server = HttpServiceServer(opaque_handler=flaky_service.execute)
    grh.add_remote_language(
        LanguageDescriptor(FLAKY_LANG, "query", "flaky",
                           framework_aware=aware), server.start())
    engine = ECAEngine(grh)
    engine.register_rule(flaky_rule() if aware else unaware_flaky_rule())
    return server, stream, grh, engine


class FailNTimesService:
    """Drops the connection (socket reset over the wire) for the first
    ``fail`` calls — a *transient* failure in the §11 taxonomy, so
    retry policies and breakers engage.  (A service that answers HTTP
    500 is a deterministic service report and is NOT retried; see
    TestHttpStatusTaxonomy in tests/services/test_pooled_transport.py.)
    """

    def __init__(self, fail):
        self.fail = fail
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.calls <= self.fail:
            # ConnectionError propagates through the HTTP handler as a
            # connection abort (no response bytes), so the client sees
            # a socket-level failure, not an HTTP status
            raise ConnectionResetError("transient outage (simulated)")

    def handle(self, message):
        self._maybe_fail()
        from repro.bindings import relation_to_answers
        return relation_to_answers(Relation([{"Q": "fine"}]))

    def execute(self, query):
        self._maybe_fail()
        return "fine\r\n"  # CRLF on purpose: must bind stripped


class TestTransportFailures:
    def test_unreachable_http_service_fails_instance(self):
        from repro.grh import GenericRequestHandler, LanguageRegistry
        from repro.services import (ActionExecutionService,
                                    AtomicEventService, HybridTransport)
        from repro.actions import ACTION_NS, ActionRuntime
        from repro.events import ATOMIC_NS, EventStream

        registry = LanguageRegistry()
        grh = GenericRequestHandler(registry,
                                    HybridTransport(timeout=0.3))
        stream = EventStream()
        runtime = ActionRuntime()
        atomic = AtomicEventService(grh.notify)
        atomic.attach(stream)
        grh.add_service(LanguageDescriptor(ATOMIC_NS, "event", "atomic"),
                        atomic)
        grh.add_service(LanguageDescriptor(ACTION_NS, "action", "actions"),
                        ActionExecutionService(runtime))
        grh.add_remote_language(
            LanguageDescriptor(FLAKY_LANG, "query", "flaky"),
            "http://127.0.0.1:1/")  # nothing listens here
        engine = ECAEngine(grh)
        engine.register_rule(flaky_rule())
        # the dead endpoint is contained: the instance fails, emit returns
        stream.emit(E("ping", {"n": "1"}))
        (instance,) = engine.instances
        assert instance.status == "failed"
        assert "unreachable" in instance.error


class TestHttpFlakyServices:
    """The flaky scenarios over real localhost HTTP (HybridTransport):
    retry policies and circuit breakers against a remote service that
    fails N times and then recovers."""

    def test_fails_twice_then_recovers_under_retry(self):
        from repro.grh import ResilienceManager, RetryPolicy
        manager = ResilienceManager(retry=RetryPolicy(max_attempts=3),
                                    sleep=lambda s: None)
        service = FailNTimesService(fail=2)
        server, stream, grh, engine = http_world(service, manager)
        try:
            stream.emit(E("ping", {"n": "1"}))
        finally:
            server.stop()
        (instance,) = engine.instances
        assert instance.status == "completed"   # no failed instance
        assert service.calls == 3
        assert grh.stats["retries"] == 2

    def test_same_service_fails_without_retries(self):
        service = FailNTimesService(fail=2)
        server, stream, grh, engine = http_world(service)
        try:
            stream.emit(E("ping", {"n": "1"}))
        finally:
            server.stop()
        (instance,) = engine.instances
        assert instance.status == "failed"
        assert service.calls == 1

    def test_unaware_http_service_retried_and_crlf_stripped(self):
        from repro.grh import ResilienceManager, RetryPolicy
        manager = ResilienceManager(retry=RetryPolicy(max_attempts=3),
                                    sleep=lambda s: None)
        service = FailNTimesService(fail=2)
        server, stream, grh, engine = http_world(service, manager,
                                                 aware=False)
        try:
            stream.emit(E("ping", {"n": "1"}))
        finally:
            server.stop()
        (instance,) = engine.instances
        assert instance.status == "completed"
        assert service.calls == 3
        # the CRLF response line bound clean, so the {Q} action template
        # rendered without a trailing \r
        (_, final) = instance.trace[-1]
        assert all(binding["Q"] == "fine" for binding in final)

    def test_breaker_opens_then_half_open_recovery_over_http(self):
        from repro.grh import BreakerPolicy, ResilienceManager

        class Clock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = Clock()
        manager = ResilienceManager(
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=30.0),
            clock=clock, sleep=lambda s: None)
        service = FailNTimesService(fail=1)
        server, stream, grh, engine = http_world(service, manager)
        try:
            stream.emit(E("ping", {"n": "1"}))      # fails, breaker opens
            stream.emit(E("ping", {"n": "2"}))      # shed: service not hit
            assert service.calls == 1
            assert engine.instances[1].status == "failed"
            assert "circuit open" in engine.instances[1].error
            clock.now = 31.0                        # past reset_timeout
            stream.emit(E("ping", {"n": "3"}))      # half-open probe: ok
        finally:
            server.stop()
        statuses = [instance.status for instance in engine.instances]
        assert statuses == ["failed", "failed", "completed"]
        assert grh.stats["breaker_opens"] == 1
        assert grh.stats["breaker_rejections"] == 1

    def test_failed_http_detections_replayable(self):
        from repro.grh import ResilienceManager
        service = FailNTimesService(fail=1)
        server, stream, grh, engine = http_world(
            service, ResilienceManager(sleep=lambda s: None))
        try:
            stream.emit(E("ping", {"n": "1"}))
            assert engine.instances[0].status == "failed"
            assert grh.stats["dead_letters"] == 1
            summary = engine.replay_dead_letters()
        finally:
            server.stop()
        assert summary["succeeded"] == 1
        assert engine.instances[-1].status == "completed"
