"""Hedged reads: race a second replica after the hedge delay; first
response wins, the loser is discarded and counted."""

import time

import pytest

from repro.grh import HedgePolicy, LanguageDescriptor, ResilienceManager

DESCRIPTOR = LanguageDescriptor("urn:test:hedged", "query", "hedged")


def make_manager(delay=0.05):
    return ResilienceManager(hedge=HedgePolicy(delay=delay))


def wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestHedgedReads:
    def test_hedge_wins_when_primary_stalls(self):
        manager = make_manager(delay=0.05)
        try:
            def attempt(address):
                if address == "slow":
                    time.sleep(0.6)
                    return "slow"
                return "fast"

            # turn 0 routes to "slow" first (equal scores, stable order)
            result = manager.call_routed(("slow", "fast"), DESCRIPTOR,
                                         attempt, hedge_ok=True)
            assert result == "fast"
            assert manager.hedges_launched == 1
            assert manager.hedge_outcomes["hedge_won"] == 1
            # the stalled primary finishes later and is discarded
            assert wait_for(
                lambda: manager.hedge_outcomes["discarded"] == 1)
        finally:
            manager.close()

    def test_primary_wins_the_race_it_started_first(self):
        manager = make_manager(delay=0.05)
        try:
            def attempt(address):
                time.sleep(0.3)
                return address

            result = manager.call_routed(("a", "b"), DESCRIPTOR, attempt,
                                         hedge_ok=True)
            assert result == "a"  # head start beats the hedge
            assert manager.hedge_outcomes["primary_won"] == 1
            assert wait_for(
                lambda: manager.hedge_outcomes["discarded"] == 1)
        finally:
            manager.close()

    def test_fast_primary_never_hedges(self):
        manager = make_manager(delay=0.2)
        try:
            result = manager.call_routed(("a", "b"), DESCRIPTOR,
                                         lambda address: "ok",
                                         hedge_ok=True)
            assert result == "ok"
            assert manager.hedges_launched == 0
        finally:
            manager.close()

    def test_single_replica_never_hedges(self):
        manager = make_manager(delay=0.0)
        try:
            manager.call_routed(("only",), DESCRIPTOR, lambda address: "ok",
                                hedge_ok=True)
            assert manager.hedges_launched == 0
        finally:
            manager.close()

    def test_hedge_survives_primary_failure(self):
        from repro.grh.resilience import TransientServiceFailure
        manager = make_manager(delay=0.05)
        try:
            def attempt(address):
                if address == "a":
                    time.sleep(0.2)
                    raise TransientServiceFailure("late death")
                return "ok:b"

            # primary (a) stalls past the hedge delay, then dies; with
            # failover disabled the race is decided by the hedge branch
            result = manager.call_routed(("a", "b"), DESCRIPTOR, attempt,
                                         failover_ok=False, hedge_ok=True)
            assert result == "ok:b"
        finally:
            manager.close()

    def test_saturated_pool_skips_the_hedge(self):
        import threading

        policy = HedgePolicy(delay=0.05, max_threads=2)
        manager = ResilienceManager(hedge=policy)
        try:
            release = threading.Event()
            pool = manager._executor(policy)
            blockers = [pool.submit(release.wait, 5.0) for _ in range(2)]
            calls = []

            def attempt(address):
                calls.append(address)
                return "ok:" + address

            results = []
            caller = threading.Thread(
                target=lambda: results.append(manager.call_routed(
                    ("a", "b"), DESCRIPTOR, attempt, hedge_ok=True)))
            caller.start()
            # the hedge delay expires while the primary is still queued
            # behind the blocker — it has not routed yet, so a hedge
            # could land on the primary's own replica; it must be skipped
            time.sleep(0.2)
            release.set()
            caller.join(2.0)
            for blocker in blockers:
                blocker.result(2.0)
            assert results and results[0].startswith("ok:")
            assert len(calls) == 1  # no second dispatch raced the first
            assert manager.hedges_launched == 0
        finally:
            manager.close()

    def test_closed_manager_stops_hedging_but_keeps_dispatching(self):
        manager = make_manager(delay=0.0)
        manager.close()
        result = manager.call_routed(("a", "b"), DESCRIPTOR,
                                     lambda address: "ok",
                                     hedge_ok=True)
        assert result == "ok"
        assert manager.hedges_launched == 0


class TestHedgeDelay:
    def test_pinned_delay_wins(self):
        manager = make_manager(delay=0.123)
        try:
            assert manager.hedge_delay(("a", "b"),
                                       HedgePolicy(delay=0.123)) == 0.123
        finally:
            manager.close()

    def test_without_samples_falls_back_to_initial_delay(self):
        manager = make_manager()
        try:
            policy = HedgePolicy(initial_delay=0.07)
            assert manager.hedge_delay(("a", "b"), policy) == 0.07
        finally:
            manager.close()

    def test_adapts_to_p95_with_enough_samples(self):
        manager = make_manager()
        try:
            for _ in range(10):
                manager.health.record_success("a", 0.2)
            policy = HedgePolicy()
            assert manager.hedge_delay(("a", "b"), policy) \
                == pytest.approx(0.2)
        finally:
            manager.close()

    def test_p95_clamps_to_max_delay(self):
        manager = make_manager()
        try:
            for _ in range(10):
                manager.health.record_success("a", 9.0)
            policy = HedgePolicy(max_delay=1.5)
            assert manager.hedge_delay(("a", "b"), policy) == 1.5
        finally:
            manager.close()
