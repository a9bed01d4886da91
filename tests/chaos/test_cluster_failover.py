"""End-to-end replica failover: a real HTTP cluster losing and
regaining a replica while queries keep completing, a ``log:batch``
failing over off a crashing replica, and the ``/introspect/replicas``
operator view over the same state."""

from repro.bindings import Relation
from repro.chaos import ChaosService, FaultPlan, ReplicaCluster
from repro.core import ECAEngine
from repro.grh import (ComponentSpec, GenericRequestHandler,
                       LanguageDescriptor, LanguageRegistry)
from repro.obs.ops import IntrospectionSurface
from repro.services import HybridTransport
from repro.services.base import LanguageService

QUERY_URI = "urn:test:cluster-query"


class CountingQueryService(LanguageService):
    service_name = "cluster-query"

    def __init__(self):
        self.calls = 0

    def query(self, request):
        self.calls += 1
        return Relation([{"Q": str(self.calls)}])


def spec():
    from repro.xmlmodel import E
    return ComponentSpec("query", QUERY_URI, content=E("{%s}q" % QUERY_URI))


def cluster_world(count=3):
    service = CountingQueryService()
    cluster = ReplicaCluster(aware_handler=service.handle, count=count)
    addresses = cluster.start()
    registry = LanguageRegistry()
    grh = GenericRequestHandler(registry, HybridTransport(timeout=2.0))
    grh.health_probe_interval = 0.05
    grh.add_remote_language(
        LanguageDescriptor(QUERY_URI, "query", "cluster-query",
                           replicas=addresses))
    return grh, cluster, service, addresses


class TestClusterLifecycle:
    def test_restart_reclaims_the_registered_address(self):
        cluster = ReplicaCluster(
            aware_handler=CountingQueryService().handle, count=2)
        addresses = cluster.start()
        try:
            cluster.kill(0)
            assert not cluster.alive(0)
            assert cluster.restart(0) == addresses[0]
            assert cluster.alive(0)
        finally:
            cluster.stop()

    def test_queries_survive_a_replica_kill(self):
        grh, cluster, service, addresses = cluster_world()
        board = grh.resilience.health
        try:
            for _ in range(6):
                assert len(grh.evaluate_query("c", spec(),
                                              Relation.unit())) == 1
            cluster.kill(0)
            # every query still completes: dead-replica picks fail over
            for _ in range(20):
                assert len(grh.evaluate_query("c", spec(),
                                              Relation.unit())) == 1
            cluster.restart(0)
            grh.health_prober.probe_once()
            assert board.state_of(addresses[0]) == "healthy"
        finally:
            cluster.stop()
            grh.close()

    def test_introspect_replicas_view(self):
        grh, cluster, service, addresses = cluster_world(count=2)
        engine = ECAEngine(grh)
        try:
            grh.evaluate_query("c", spec(), Relation.unit())
            surface = IntrospectionSurface(engine)
            status, payload = surface.handle("/introspect/replicas", {})
        finally:
            cluster.stop()
            engine.shutdown()
        assert status == 200
        assert set(payload["services"][QUERY_URI]) == set(addresses)
        for address in addresses:
            assert payload["replicas"][address]["state"] in (
                "healthy", "suspect", "down")
        assert payload["prober"]["running"] is True
        assert "hedges" in payload and "failovers" in payload


class TestBatchedFailover:
    def test_crash_inside_an_envelope_fails_over(self, chaos_seed):
        """A replica that resets every connection must cost a
        ``log:batch`` a failover, not its answers: the crash aborts the
        whole envelope (transient), where it used to come back as one
        ``log:error`` per slot — the service's verdict, never failed
        over."""
        from repro.grh.messages import Request, request_to_xml
        crashing = {}

        def wrap(index, handler):
            if index:
                return handler
            crashing["r0"] = ChaosService(
                handler, FaultPlan(chaos_seed, reset_rate=1.0), "r0")
            return crashing["r0"]

        service = CountingQueryService()
        cluster = ReplicaCluster(aware_handler=service.handle, count=2,
                                 wrap=wrap)
        addresses = cluster.start()
        grh = GenericRequestHandler(LanguageRegistry(),
                                    HybridTransport(timeout=2.0))
        grh.add_remote_language(
            LanguageDescriptor(QUERY_URI, "query", "cluster-query",
                               replicas=addresses))
        payloads = [request_to_xml(Request("query", f"c{n}", spec().content,
                                           Relation.unit()))
                    for n in range(8)]
        try:
            # the first routing turn of a fresh board picks r0
            outcomes = grh.deliver(grh.route(QUERY_URI), payloads, None)
        finally:
            grh.close()
            cluster.stop()
        assert [outcome.name.local for outcome in outcomes] \
            == ["answers"] * 8
        assert crashing["r0"].injected          # r0 was reached and crashed
        assert grh.resilience.failovers == 1
