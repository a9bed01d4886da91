"""The live introspection/health surface: probes and JSON views."""

import json
import os
import threading
import urllib.error
import urllib.request

from repro.core import ECAEngine
from repro.domain import TRAVEL_NS, booking_event, fleet_graph
from repro.durability import JOURNAL_NAME, SimulatedCrash
from repro.obs import Observability
from repro.obs.ops import (INTROSPECTION_ROUTES, IntrospectionSurface,
                           ObsAdminServer)
from repro.services import DATALOG_LANG, standard_deployment

from ..durability.harness import CrashWorld, CrashingJournal, RULES, SCRIPT

ECA = 'xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml"'
ACT = 'xmlns:act="http://www.semwebtech.org/languages/2006/actions"'

PROGRAM = 'ok("yes").'

RULE = f"""
<eca:rule {ECA} id="offers">
  <eca:event>
    <travel:booking xmlns:travel="{TRAVEL_NS}"
                    person="{{Person}}" to="{{To}}"/>
  </eca:event>
  <eca:query>
    <dl:query xmlns:dl="{DATALOG_LANG}">ok(X)</dl:query>
  </eca:query>
  <eca:action>
    <act:send {ACT} to="offers"><offer x="{{X}}"/></act:send>
  </eca:action>
</eca:rule>
"""


def http_get(url):
    """GET returning (status, parsed JSON) — 4xx/5xx included."""
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def build_engine(observability=None, events=1):
    deployment = standard_deployment(graph=fleet_graph(),
                                     datalog_program=PROGRAM)
    engine = ECAEngine(deployment.grh, observability=observability)
    engine.register_rule(RULE)
    for _ in range(events):
        deployment.stream.emit(booking_event())
    return deployment, engine


class TestSurfaceViews:
    def test_healthz_is_unconditionally_ok(self):
        _, engine = build_engine(events=0)
        assert IntrospectionSurface(engine).healthz() == \
            (200, {"status": "ok"})

    def test_readyz_is_ready_without_durability(self):
        _, engine = build_engine(events=0)
        status, payload = IntrospectionSurface(engine).readyz()
        assert status == 200
        assert payload["status"] == "ready"
        assert payload["checks"] == {"recovery_complete": True}
        assert payload["breakers"]["open"] == 0

    def test_rules_view_reflects_the_rule_table(self):
        _, engine = build_engine(events=2)
        payload = IntrospectionSurface(engine).rules()
        (entry,) = payload["rules"]
        assert entry["rule"] == "offers"
        assert entry["queries"] == 1 and entry["actions"] == 1
        assert entry["has_test"] is False
        assert entry["retained_instances"] == 2
        assert payload["stats"]["completed"] == 2

    def test_instances_view_pages_and_filters(self):
        _, engine = build_engine(events=5)
        surface = IntrospectionSurface(engine)
        payload = surface.instances()
        assert payload["total_retained"] == 5
        assert payload["returned"] == 5
        entry = payload["instances"][-1]
        assert entry["rule"] == "offers"
        assert entry["status"] == "completed"
        assert entry["stages"] == ["event", "query 1", "action"]
        # limit returns the most recent N
        limited = surface.instances(limit=2)
        assert limited["returned"] == 2
        assert limited["instances"][-1]["id"] == entry["id"]
        # filtering by an unknown rule is empty, not an error
        assert surface.instances(rule="nope")["total_retained"] == 0

    def test_breakers_and_dead_letters_views(self):
        _, engine = build_engine(events=1)
        surface = IntrospectionSurface(engine)
        breakers = surface.breakers()
        assert breakers["dead_letters"] == 0
        assert breakers["attempts"] > 0
        letters = surface.dead_letters()
        assert letters == {"parked": 0, "dropped": 0, "letters": []}

    def test_journal_view_without_durability(self):
        _, engine = build_engine(events=0)
        assert IntrospectionSurface(engine).journal() == {"durable": False}

    def test_unknown_route_is_a_404(self):
        _, engine = build_engine(events=0)
        surface = IntrospectionSurface(engine)
        # the surface claims the whole /introspect/ namespace so the
        # HTTP layer routes unknown sub-paths here for a JSON 404
        # instead of falling through to a co-hosted service handler
        assert surface.handles("/introspect/nope")
        assert not surface.handles("/other")
        status, _ = surface.handle("/introspect/nope")
        assert status == 404


class TestReadiness:
    """/readyz across crash recovery — the ISSUE's acceptance flip."""

    def crash_mid_script(self, directory):
        world = CrashWorld(directory)
        try:
            # fuse 7 dies on a completion write: one detection is
            # journaled as started but never finished, so the rebooted
            # engine has in-flight work to replay
            journal = CrashingJournal(
                os.path.join(directory, JOURNAL_NAME), fuse=7, sync="none")
            world.boot(journal=journal)
            world.setup_rules(RULES)
            world.run_script(SCRIPT)
        except SimulatedCrash:
            world.crash()
            return world
        raise AssertionError("scenario finished without crashing")

    def test_readyz_flips_from_503_to_200_across_recover(self, tmp_path):
        world = self.crash_mid_script(str(tmp_path / "durable"))
        # reboot WITHOUT replay: in-flight work is still unaccounted for,
        # so the engine must refuse traffic
        world.boot(replay=False)
        status, payload = IntrospectionSurface(world.engine).readyz()
        assert status == 503
        assert payload["status"] == "unready"
        assert payload["checks"]["recovery_complete"] is False
        assert payload["checks"]["journal_writable"] is True
        world.crash()
        # reboot WITH the full ECAEngine.recover sequence: replay done,
        # checkpoint written, the engine may take traffic again
        world.boot(replay=True)
        status, payload = IntrospectionSurface(world.engine).readyz()
        assert status == 200
        assert payload["checks"] == {"recovery_complete": True,
                                     "journal_writable": True}

    def test_closed_journal_turns_a_ready_engine_unready(self, tmp_path):
        world = CrashWorld(str(tmp_path / "durable"))
        world.boot(replay=True)
        surface = IntrospectionSurface(world.engine)
        assert surface.readyz()[0] == 200
        journal_view = surface.journal()
        assert journal_view["durable"] is True
        assert journal_view["writable"] is True
        world.engine.durability.journal.close()
        status, payload = surface.readyz()
        assert status == 503
        assert payload["checks"]["journal_writable"] is False


class TestAdminServer:
    def test_all_routes_serve_json_over_http(self):
        obs = Observability()
        _, engine = build_engine(observability=obs, events=3)
        with ObsAdminServer(engine) as base:
            for route in INTROSPECTION_ROUTES:
                status, payload = http_get(base.rstrip("/") + route)
                assert status == 200, route
                assert isinstance(payload, dict), route
            status, payload = http_get(
                base + "introspect/instances?rule=offers&limit=2")
            assert payload["returned"] == 2
            # the admin port co-serves the Prometheus exposition
            with urllib.request.urlopen(base + "metrics") as response:
                assert b"eca_rule_instances_total 3" in response.read()

    def test_bad_query_values_answer_400_json(self):
        obs = Observability(profiler=True)
        _, engine = build_engine(observability=obs, events=1)
        try:
            with ObsAdminServer(engine) as base:
                status, payload = http_get(
                    base + "introspect/instances?limit=abc")
                assert status == 400
                assert payload == {"error": "bad limit value 'abc'"}
                status, payload = http_get(
                    base + "introspect/profile?seconds=abc")
                assert status == 400 and "error" in payload
                # the server keeps answering
                status, _ = http_get(base + "introspect/instances?limit=1")
                assert status == 200
        finally:
            obs.close()

    def test_admin_server_works_without_observability(self):
        _, engine = build_engine(events=1)
        with ObsAdminServer(engine) as base:
            assert http_get(base + "healthz") == (200, {"status": "ok"})
            status, _ = http_get(base + "introspect/rules")
            assert status == 200

    def test_concurrent_scrapes_during_evaluation(self):
        obs = Observability()
        deployment, engine = build_engine(observability=obs, events=1)
        failures = []

        def scrape(base, count=25):
            for index in range(count):
                route = INTROSPECTION_ROUTES[index %
                                             len(INTROSPECTION_ROUTES)]
                try:
                    status, payload = http_get(base.rstrip("/") + route)
                    if status >= 500 or not isinstance(payload, dict):
                        failures.append((route, status))
                except Exception as exc:  # pragma: no cover
                    failures.append((route, repr(exc)))

        with ObsAdminServer(engine) as base:
            scrapers = [threading.Thread(target=scrape, args=(base,))
                        for _ in range(4)]
            for thread in scrapers:
                thread.start()
            for _ in range(40):  # keep the engine mutating state
                deployment.stream.emit(booking_event())
            for thread in scrapers:
                thread.join()
        assert failures == []
        assert engine.stats["completed"] == 41
