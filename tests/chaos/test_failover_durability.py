"""Failover × durability: an action that fails over after its effect
ran must not double-execute (PROTOCOL.md §12 satellite).

The nasty case: the service executes the action, then the connection
dies before the ack — the client cannot distinguish this from a
pre-dispatch failure, so it fails over and re-dispatches.  Safety comes
from the wire ``dedup`` key and *shared* service-side dedup memory: the
replica receiving the retry answers ``log:ok`` without re-running the
effect.  That is why the GRH only allows action failover when the
request carries a dedup key, and why §12 requires replicas to share
dedup memory (or idempotent effects)."""

import pytest

from repro.bindings import Relation
from repro.grh import (ComponentSpec, GenericRequestHandler, GRHError,
                       LanguageDescriptor, LanguageRegistry)
from repro.services import HttpServiceServer, HybridTransport
from repro.services.base import LanguageService
from repro.xmlmodel import E

ACTION_URI = "urn:test:chaos-action"


class EffectfulActionService(LanguageService):
    """Counts real effect executions (dedup hits answer ok without one)."""

    service_name = "effects"

    def __init__(self):
        self.effects = 0

    def action(self, request, binding):
        self.effects += 1


class ResetAckOnce:
    """Wraps a handler: the first action's *ack* dies after the work ran
    (ConnectionResetError aborts the HTTP socket without a response)."""

    def __init__(self, handler):
        self.handler = handler
        self.tripped = False

    def __call__(self, message):
        response = self.handler(message)
        if not self.tripped and message.get("kind") == "action":
            self.tripped = True
            raise ConnectionResetError("ack lost (simulated)")
        return response


class SequenceGuard:
    """Minimal durability guard: journals intent, hands out dedup keys."""

    def __init__(self):
        self.journaled = []

    def begin(self, tuples):
        keys = [f"intent-{len(self.journaled)}-{index}"
                for index in range(len(tuples))]
        self.journaled.append(keys)
        return keys


def replicated_action_world():
    """Two real HTTP replicas sharing ONE service instance (shared dedup
    memory — the §12 requirement); replica 0 loses the first action ack."""
    service = EffectfulActionService()
    lossy = ResetAckOnce(service.handle)
    replica0 = HttpServiceServer(aware_handler=lossy)
    replica1 = HttpServiceServer(aware_handler=service.handle)
    addresses = (replica0.start(), replica1.start())
    registry = LanguageRegistry()
    grh = GenericRequestHandler(registry, HybridTransport(timeout=2.0))
    grh.add_remote_language(
        LanguageDescriptor(ACTION_URI, "action", "chaos-action",
                           replicas=addresses))
    return grh, service, (replica0, replica1)


def action_spec():
    return ComponentSpec("action", ACTION_URI,
                         content=E("{%s}do" % ACTION_URI))


class TestActionFailoverDedup:
    def test_lost_ack_fails_over_without_double_execution(self):
        grh, service, servers = replicated_action_world()
        try:
            count = grh.execute_action("c1", action_spec(),
                                       Relation.unit(),
                                       guard=SequenceGuard())
        finally:
            for server in servers:
                server.stop()
            grh.close()
        # replica 0 ran the effect and dropped the ack; the retry landed
        # on replica 1, whose shared dedup memory answered ok without
        # re-running it — exactly once, end to end
        assert count == 1
        assert service.effects == 1
        assert grh.resilience.failovers == 1

    def test_without_dedup_the_action_does_not_fail_over(self):
        grh, service, servers = replicated_action_world()
        try:
            with pytest.raises(GRHError):
                # no guard → no dedup key → failover is unsafe and the
                # lost ack surfaces as a failure instead of a retry
                grh.execute_action("c1", action_spec(), Relation.unit())
        finally:
            for server in servers:
                server.stop()
            grh.close()
        assert service.effects == 1  # the effect ran once, no replay
        assert grh.resilience.failovers == 0


class TestWideActionOverHttp:
    """The same guarantees when the one request carries several tuples."""

    THREE = Relation([{"N": "1"}, {"N": "2"}, {"N": "3"}])

    def test_lost_ack_of_a_three_tuple_request_runs_each_tuple_once(self):
        grh, service, servers = replicated_action_world()
        try:
            count = grh.execute_action("c1", action_spec(), self.THREE,
                                       guard=SequenceGuard())
        finally:
            for server in servers:
                server.stop()
            grh.close()
        # replica 0 ran all three and dropped the ack; every tuple of the
        # re-dispatch was suppressed by its own key on replica 1
        assert count == 3
        assert service.effects == 3
        assert grh.resilience.failovers == 1
        assert grh.request_count == 1       # one logical request

    def test_executed_count_survives_the_wire(self):
        class FailsOnSecond(EffectfulActionService):
            def action(self, request, binding):
                if binding["N"] == "2":
                    raise RuntimeError("tuple 2 refused")
                super().action(request, binding)

        service = FailsOnSecond()
        server = HttpServiceServer(aware_handler=service.handle)
        grh = GenericRequestHandler(LanguageRegistry(),
                                    HybridTransport(timeout=2.0))
        grh.add_remote_language(
            LanguageDescriptor(ACTION_URI, "action", "chaos-action"),
            server.start())
        try:
            with pytest.raises(GRHError) as raised:
                grh.execute_action("c1", action_spec(), self.THREE)
        finally:
            server.stop()
            grh.close()
        assert raised.value.executed == 1
        assert list(raised.value.remaining) == list(self.THREE)[1:]
        assert service.effects == 1
        (letter,) = grh.resilience.dead_letters
        assert letter.bindings == raised.value.remaining
