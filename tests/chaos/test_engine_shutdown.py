"""Engine shutdown tears down every availability thread: the health
prober, the hedge executor and the transport's connection pools — no
daemon-thread leaks (PROTOCOL.md §12 satellite).  The suite's autouse
``no_thread_leaks`` fixture enforces the same property for every test."""

import threading

from repro.bindings import Relation
from repro.core import ECAEngine
from repro.grh import (ComponentSpec, GenericRequestHandler,
                       LanguageDescriptor, LanguageRegistry)
from repro.services import HttpServiceServer, HybridTransport
from repro.services.base import LanguageService
from repro.xmlmodel import E

QUERY_URI = "urn:test:chaos-query"


class OneRowQueryService(LanguageService):
    service_name = "one-row"

    def query(self, request):
        return Relation([{"Q": "1"}])


def replicated_world():
    service = OneRowQueryService()
    servers = (HttpServiceServer(aware_handler=service.handle),
               HttpServiceServer(aware_handler=service.handle))
    addresses = tuple(server.start() for server in servers)
    registry = LanguageRegistry()
    grh = GenericRequestHandler(registry, HybridTransport(timeout=2.0))
    grh.health_probe_interval = 0.05
    grh.add_remote_language(
        LanguageDescriptor(QUERY_URI, "query", "chaos-query",
                           replicas=addresses))
    return ECAEngine(grh), grh, servers, addresses


def spec():
    return ComponentSpec("query", QUERY_URI, content=E("{%s}q" % QUERY_URI))


class TestShutdown:
    def test_shutdown_stops_prober_and_hedge_pool(self):
        engine, grh, servers, _ = replicated_world()
        try:
            # registering the replica set started the background prober
            assert grh.health_prober is not None
            assert grh.health_prober.running
            # a hedged query spins up the "eca-hedge" executor
            result = grh.evaluate_query("c1", spec(), Relation.unit())
            assert len(result) == 1
        finally:
            for server in servers:
                server.stop()
        assert engine.shutdown() is True
        assert not grh.health_prober.running
        names = {thread.name for thread in threading.enumerate()}
        assert "eca-health-prober" not in names
        assert not any(name.startswith("eca-hedge") for name in names)

    def test_dispatch_still_works_after_shutdown(self):
        engine, grh, servers, _ = replicated_world()
        try:
            engine.shutdown()
            # synchronous dispatch survives: hedging and probing are
            # simply off, pools rebuild on demand
            result = grh.evaluate_query("c1", spec(), Relation.unit())
            assert len(result) == 1
            assert grh.resilience.hedges_launched == 0
        finally:
            for server in servers:
                server.stop()
            grh.close()

    def test_late_registration_keeps_probing_off_after_shutdown(self):
        engine, grh, servers, addresses = replicated_world()
        try:
            engine.shutdown()
            assert not grh.health_prober.running
            # registering another replicated HTTP language after
            # shutdown must not restart the prober thread the teardown
            # just reaped
            grh.add_remote_language(
                LanguageDescriptor("urn:test:late", "query", "late",
                                   replicas=addresses))
            assert not grh.health_prober.running
            names = {thread.name for thread in threading.enumerate()}
            assert "eca-health-prober" not in names
        finally:
            for server in servers:
                server.stop()

    def test_probe_marks_killed_replica_down(self):
        engine, grh, servers, addresses = replicated_world()
        board = grh.resilience.health
        try:
            prober = grh.health_prober
            prober.probe_once()
            assert all(board.state_of(address) == "healthy"
                       for address in addresses)
            servers[0].stop()
            prober.probe_once()
            assert board.state_of(addresses[0]) == "down"
            assert board.state_of(addresses[1]) == "healthy"
        finally:
            for server in servers:
                server.stop()
            engine.shutdown()
