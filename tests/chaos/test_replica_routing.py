"""Replica routing: health-scored selection, failover, eviction."""

import socket
import threading
import time

import pytest

from repro.grh import (DOWN, GenericRequestHandler, GRHError, HEALTHY,
                       HealthProber, LanguageDescriptor, LanguageRegistry,
                       ReplicaHealthBoard, ResilienceManager, SUSPECT)
from repro.grh.resilience import TransientServiceFailure
from repro.services import InProcessTransport

DESCRIPTOR = LanguageDescriptor("urn:test:routed", "query", "routed")


def manager_with_board():
    return ResilienceManager(sleep=lambda s: None, hedge=None)


class TestHealthBoard:
    def test_failures_walk_healthy_suspect_down(self):
        board = ReplicaHealthBoard(suspect_after=1, down_after=3)
        board.track("a")
        assert board.state_of("a") == HEALTHY
        board.record_failure("a")
        assert board.state_of("a") == SUSPECT
        board.record_failure("a")
        board.record_failure("a")
        assert board.state_of("a") == DOWN

    def test_success_restores_health(self):
        board = ReplicaHealthBoard()
        board.record_failure("a")
        board.record_success("a", 0.01)
        assert board.state_of("a") == HEALTHY

    def test_service_error_only_suspects(self):
        board = ReplicaHealthBoard()
        for _ in range(10):
            board.record_error("a")
        assert board.state_of("a") == SUSPECT  # alive, just unwell

    def test_probe_revives_a_down_replica(self):
        board = ReplicaHealthBoard()
        board.mark_down("a")
        board.record_probe("a", alive=True)
        assert board.state_of("a") == HEALTHY

    def test_probe_does_not_clear_suspect(self):
        board = ReplicaHealthBoard()
        board.record_error("a")
        assert board.state_of("a") == SUSPECT
        # liveness is all a probe proves: a replica serving /healthz
        # while erroring on real traffic keeps its routing penalty
        board.record_probe("a", alive=True)
        assert board.state_of("a") == SUSPECT
        board.record_success("a", 0.01)
        assert board.state_of("a") == HEALTHY

    def test_live_falls_back_to_all_when_everything_is_down(self):
        board = ReplicaHealthBoard()
        board.mark_down("a")
        board.mark_down("b")
        # a fully-dark set still takes traffic: the request is the probe
        assert board.live(["a", "b"]) == ["a", "b"]

    def test_suspect_replica_scores_worse(self):
        board = ReplicaHealthBoard()
        board.record_success("a", 0.01)
        board.record_success("b", 0.01)
        board.record_failure("b")
        assert board.score("b") > board.score("a")


class TestFailover:
    def test_connection_failure_fails_over_to_live_replica(self):
        manager = manager_with_board()
        calls = []

        def attempt(address):
            calls.append(address)
            if address == "a":
                raise TransientServiceFailure("connection reset")
            return "ok:" + address

        result = manager.call_routed(("a", "b"), DESCRIPTOR, attempt)
        assert result == "ok:b"
        assert calls == ["a", "b"]
        assert manager.failovers == 1
        assert manager.retries == 0  # failover consumed no retry pass

    def test_down_replica_is_skipped_without_failover(self):
        manager = manager_with_board()
        manager.health.mark_down("a")
        calls = []
        manager.call_routed(("a", "b"), DESCRIPTOR,
                            lambda address: calls.append(address) or "ok")
        assert calls == ["b"]
        assert manager.failovers == 0

    def test_all_replicas_failing_raises_transient(self):
        manager = manager_with_board()

        def attempt(address):
            raise TransientServiceFailure("dead")

        with pytest.raises(TransientServiceFailure):
            manager.call_routed(("a", "b"), DESCRIPTOR, attempt)
        assert manager.failovers == 1  # a → b, then nothing left

    def test_failover_reports_to_observer(self):
        manager = manager_with_board()
        events = []
        manager.observer = lambda event, address: events.append(
            (event, address))

        def attempt(address):
            if address == "a":
                raise TransientServiceFailure("reset")
            return "ok"

        manager.call_routed(("a", "b"), DESCRIPTOR, attempt)
        assert ("failover", "a") in events

    def test_router_prefers_the_less_loaded_replica(self):
        manager = manager_with_board()
        board = manager.health
        board.record_success("a", 0.5)   # slow replica
        board.record_success("b", 0.001)
        picks = {manager.call_routed(("a", "b"), DESCRIPTOR, lambda a: a)
                 for _ in range(8)}
        assert picks == {"b"}

    def test_single_address_keeps_legacy_semantics(self):
        manager = manager_with_board()

        def attempt():
            raise TransientServiceFailure("dead")

        with pytest.raises(TransientServiceFailure):
            manager.call_routed(("a",), DESCRIPTOR, lambda _a: attempt(),
                                failover_ok=False)
        assert manager.failovers == 0


class TestEviction:
    """Satellite: breakers/stats for unregistered addresses are evicted
    — replica churn must not grow the maps without bound."""

    def make_grh(self):
        registry = LanguageRegistry()
        grh = GenericRequestHandler(registry, InProcessTransport())
        grh.add_remote_language(
            LanguageDescriptor("urn:test:churn", "query", "churn",
                               replicas=("svc:a0", "svc:a1")))
        return grh

    def test_churn_stays_bounded(self):
        grh = self.make_grh()
        resilience = grh.resilience
        for generation in range(50):
            replicas = (f"svc:g{generation}a", f"svc:g{generation}b")
            grh.set_replicas("urn:test:churn", replicas)
            for address in replicas:
                resilience.breaker_for(address,
                                       grh.registry.lookup("urn:test:churn"))
        assert set(resilience._breakers) <= grh.active_addresses()
        assert set(resilience.health.addresses()) <= grh.active_addresses()

    def test_prune_reports_eviction_count(self):
        grh = self.make_grh()
        descriptor = grh.registry.lookup("urn:test:churn")
        grh.resilience.breaker_for("svc:stale", descriptor)
        grh.resilience.health.track("svc:stale")
        evicted = grh.resilience.prune(grh.active_addresses())
        assert evicted == 1
        assert "svc:stale" not in grh.resilience._breakers

    def test_set_replicas_rejects_empty_and_unknown(self):
        grh = self.make_grh()
        with pytest.raises(GRHError):
            grh.set_replicas("urn:test:churn", ())
        with pytest.raises(Exception):
            grh.set_replicas("urn:test:unknown", ("svc:x",))

    def test_descriptor_replicas_normalize_to_a_tuple(self):
        replicated = LanguageDescriptor(
            "urn:test:many", "query", "many",
            replicas=["svc:r0", "svc:r1"])  # any iterable normalizes
        assert replicated.replicas == ("svc:r0", "svc:r1")


class TestRepointStartsProber:
    """Re-pointing a language at a replicated HTTP set starts the prober,
    exactly as registering one does (PROTOCOL.md §12.2)."""

    def make_grh(self):
        grh = GenericRequestHandler(LanguageRegistry(), InProcessTransport())
        grh.add_remote_language(
            LanguageDescriptor("urn:test:repoint", "query", "repoint"),
            "http://127.0.0.1:1/")
        assert grh.health_prober is None  # one address: nothing to probe
        return grh

    def test_set_replicas_starts_the_prober(self):
        grh = self.make_grh()
        try:
            grh.set_replicas("urn:test:repoint", ("http://127.0.0.1:1/a",
                                                  "http://127.0.0.1:1/b"))
            assert grh.health_prober is not None
            assert grh.health_prober.running
        finally:
            grh.close()
        assert not grh.health_prober.running

    def test_set_replicas_after_close_keeps_probing_off(self):
        grh = self.make_grh()
        grh.close()
        grh.set_replicas("urn:test:repoint", ("http://127.0.0.1:1/a",
                                              "http://127.0.0.1:1/b"))
        assert grh.health_prober is None or not grh.health_prober.running


class TestProberRobustness:
    """The prober thread must survive bad probes: a dead prober leaves
    DOWN replicas out of rotation forever."""

    def test_probe_loop_survives_a_raising_probe(self):
        board = ReplicaHealthBoard()
        calls = []

        def flaky_probe(address):
            calls.append(address)
            if len(calls) == 1:
                raise ValueError("garbage response")
            return True

        prober = HealthProber(board, lambda: ["http://replica:1/"],
                              interval=0.01, probe=flaky_probe)
        prober.start()
        try:
            deadline = time.monotonic() + 2.0
            while len(calls) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(calls) >= 3  # kept sweeping past the bad one
            assert prober.running
        finally:
            prober.stop()

    def test_garbage_http_response_is_not_alive(self):
        # a replica speaking something other than HTTP raises
        # BadStatusLine (an HTTPException, not an OSError) — the probe
        # must report it dead, not blow up the sweep
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve_garbage():
            connection, _ = server.accept()
            connection.recv(1024)
            connection.sendall(b"this is not http\r\n\r\n")
            connection.close()

        thread = threading.Thread(target=serve_garbage, daemon=True)
        thread.start()
        board = ReplicaHealthBoard()
        prober = HealthProber(board, lambda: [], timeout=2.0)
        try:
            assert prober._http_probe(f"http://127.0.0.1:{port}") is False
        finally:
            server.close()
            thread.join(2.0)
