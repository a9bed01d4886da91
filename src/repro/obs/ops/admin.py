"""The live introspection and health surface of a running engine.

Kubernetes-style probes plus read-only JSON views over engine state,
served by any :class:`repro.services.HttpServiceServer` built with
``introspection=`` (co-hosted with a service and ``/metrics``) or by the
standalone :class:`ObsAdminServer`:

* ``GET /healthz`` — liveness: the process answers, nothing more;
* ``GET /readyz`` — readiness: 200 once crash recovery has completed
  and the journal is writable, 503 before (load balancers hold traffic
  until the engine can honour exactly-once replay); the payload also
  carries a breaker summary so an operator sees *why* a ready engine is
  degraded;
* ``GET /introspect/rules | /instances | /breakers | /dead-letters |
  /journal | /runtime | /replicas | /match | /sparql`` — JSON snapshots of the
  rule table, retained rule instances (``?rule=…&limit=…``),
  per-endpoint breaker/retry state, parked dead letters, the durability
  journal, the concurrent runtime (per-shard queue depths, utilization,
  admission counters), the replica health board
  (per-replica state, failover/hedge counters, prober status —
  PROTOCOL.md §12), the event discrimination networks of the services
  the engine hosts (alpha nodes, shared memories, fallback buckets,
  candidates-per-event — PROTOCOL.md §13) and the planned SPARQL
  services it hosts (store sizes, predicate statistics, recent plans
  with estimates vs actuals — PROTOCOL.md §15);
* ``GET /introspect/profile`` — the sampling profiler's recent window
  (per-subsystem shares, hottest stacks); ``?seconds=N`` takes a fresh
  blocking capture, ``?format=folded`` adds flamegraph-ready folded
  stacks (PROTOCOL.md §14);
* ``GET /introspect/latency`` — the critical-path analyzer's latency
  budget: per-phase shares and per-rule p50/p99 (PROTOCOL.md §14).

Snapshot discipline: every view first *copies* the shared state it
reads (under the owning component's lock where one exists, e.g.
``ResilienceManager.snapshot``), then builds plain dicts; JSON
serialization happens in the HTTP layer with no engine lock held.  The
engine side mutates its collections without locks (single evaluation
thread), so copies retry the handful of times a scrape can race a
mutation (``RuntimeError: … changed size during iteration``) instead of
locking the hot path.
"""

from __future__ import annotations

__all__ = ["IntrospectionSurface", "ObsAdminServer", "INTROSPECTION_ROUTES"]

#: how many times a copy retries when a scrape races an engine mutation
_SNAPSHOT_RETRIES = 5

#: default and hard cap for the instances view
_DEFAULT_INSTANCE_LIMIT = 100
_MAX_INSTANCE_LIMIT = 1000

#: longest blocking capture ``/introspect/profile?seconds=`` will honour
_MAX_CAPTURE_SECONDS = 30.0


def _copy(make):
    """Run a copying callable, retrying the benign iteration races."""
    for _ in range(_SNAPSHOT_RETRIES):
        try:
            return make()
        except RuntimeError:
            continue
    return make()


class IntrospectionSurface:
    """Read-only JSON views over one engine, for the admin routes.

    ``handle(path, params)`` returns ``(http_status, payload_dict)``;
    the HTTP layer owns serialization and transport concerns.
    """

    def __init__(self, engine, observability=None) -> None:
        self.engine = engine
        self.observability = observability if observability is not None \
            else engine.observability
        # imported here: repro.obs.config imports this package
        from ..config import transport_pool_stats
        self._pool_stats = transport_pool_stats(engine.grh)

    def handles(self, path: str) -> bool:
        # the surface owns the whole /introspect/ namespace: an unknown
        # sub-route answers its JSON 404 rather than falling through to
        # whatever service shares the port
        return path in _ROUTES or path.startswith("/introspect/")

    def handle(self, path: str, params: dict | None = None):
        route = _ROUTES.get(path)
        if route is None:
            return 404, {"error": f"unknown introspection route {path!r}"}
        return route(self, params or {})

    # -- probes --------------------------------------------------------------

    def healthz(self):
        """Liveness: answering at all is the signal — keep it that cheap."""
        return 200, {"status": "ok"}

    def readyz(self):
        """Readiness: recovery complete and the journal accepts writes."""
        engine = self.engine
        checks = {"recovery_complete": bool(engine.ready)}
        durability = engine.durability
        if durability is not None:
            checks["journal_writable"] = bool(
                durability.journal_status().get("writable"))
        runtime = engine.runtime
        if runtime.workers:
            # the admission gate IS the readiness signal for a pooled
            # engine: a stopped or saturated pool must shed traffic at
            # the balancer, not at the ingestion queue
            checks["runtime_accepting"] = bool(runtime.accepting)
        breakers = engine.grh.resilience.snapshot()["breakers"]
        ready = all(checks.values())
        return (200 if ready else 503), {
            "status": "ready" if ready else "unready",
            "checks": checks,
            "breakers": {
                "open": sum(1 for state in breakers.values()
                            if state != "closed"),
                "states": breakers,
            },
        }

    # -- views ---------------------------------------------------------------

    def rules(self):
        engine = self.engine
        registered = _copy(lambda: list(engine.rules.items()))
        rules = []
        for rule_id, entry in registered:
            rule = entry.rule
            bucket = engine._instances_by_rule.get(rule_id)
            rules.append({
                "rule": rule_id,
                "priority": rule.priority,
                "queries": len(rule.queries),
                "has_test": rule.test is not None,
                "actions": len(rule.actions),
                "event_component": entry.event_component_id,
                "retained_instances": len(bucket) if bucket is not None
                else 0,
            })
        return {"rules": rules, "stats": dict(engine.stats)}

    def _instances_route(self, params: dict):
        limit = params.get("limit")
        if limit is not None:
            try:
                limit = int(limit)
            except ValueError:
                return 400, {"error": f"bad limit value {limit!r}"}
        return 200, self.instances(rule=params.get("rule"), limit=limit)

    def instances(self, rule: str | None = None, limit: int | None = None):
        engine = self.engine
        if limit is None:
            limit = _DEFAULT_INSTANCE_LIMIT
        limit = max(0, min(limit, _MAX_INSTANCE_LIMIT))
        if rule is not None:
            retained = _copy(lambda: list(engine.instances_of(rule)))
        else:
            retained = _copy(lambda: list(engine.instances))
        recent = retained[-limit:] if limit else []
        entries = []
        for instance in recent:
            entry = {
                "id": instance.instance_id,
                "rule": instance.rule_id,
                "status": instance.status,
                "actions": instance.actions_executed,
                "tuples": len(instance.relation),
                "stages": [stage for stage, _ in instance.trace],
            }
            if instance.error:
                entry["error"] = instance.error
            entries.append(entry)
        return {"total_retained": len(retained),
                "returned": len(entries),
                "instances": entries}

    def breakers(self):
        # ResilienceManager.snapshot copies under its own lock
        return self.engine.grh.resilience.snapshot()

    def dead_letters(self):
        queue = self.engine.grh.resilience.dead_letters
        letters = _copy(lambda: [
            {
                "kind": letter.kind,
                "error": letter.error,
                "attempts": letter.attempts,
                "component": letter.component_id
                if letter.kind == "action"
                else (letter.detection.component_id
                      if letter.detection is not None else None),
                "tuples": len(letter.bindings)
                if letter.bindings is not None else None,
            }
            for letter in queue])
        return {"parked": len(letters), "dropped": queue.dropped,
                "letters": letters}

    def journal(self):
        durability = self.engine.durability
        if durability is None:
            return {"durable": False}
        status = durability.journal_status()
        status["durable"] = True
        return status

    def replicas(self):
        """Replica routing view (PROTOCOL.md §12): the health board,
        per-service replica sets, failover/hedge counters and prober
        status."""
        grh = self.engine.grh
        snapshot = grh.resilience.snapshot()
        view = {
            "replicas": snapshot["replicas"],
            "services": _copy(lambda: {
                uri: list(route.addresses)
                for uri, route in grh.routes().items()}),
            "failovers": snapshot["failovers"],
            "hedges": snapshot["hedges"],
        }
        prober = grh.health_prober
        view["prober"] = {
            "running": prober.running, "cycles": prober.cycles,
        } if prober is not None else None
        return view

    def _hosted(self) -> tuple[list, list]:
        """(event-detection, SPARQL) services the engine's GRH hosts
        in process; remote ones answer on their own hosts."""
        from ..config import hosted_services, partition_services
        return partition_services(_copy(
            lambda: hosted_services(self.engine.grh)))

    def match(self):
        """Discrimination-network view (PROTOCOL.md §13): one snapshot
        per event service the engine hosts."""
        networks = [service.network.snapshot()
                    for service in self._hosted()[0]]
        networks.sort(key=lambda view: (view["service"],
                                        -view["registered"]))
        return {"networks": networks,
                "total_registered": sum(view["registered"]
                                        for view in networks)}

    def sparql(self):
        """SPARQL-backend view (PROTOCOL.md §15): store sizes,
        per-predicate statistics and recent plans (estimates vs
        actuals) for every SPARQL service the engine hosts."""
        services = [service.introspection()
                    for service in self._hosted()[1]]
        services.sort(key=lambda view: (view["service"],
                                        -view["store"]["triples"]))
        return {"services": services,
                "total_triples": sum(view["store"]["triples"]
                                     for view in services)}

    def profile(self, params: dict | None = None):
        """Sampling-profiler view (PROTOCOL.md §14).

        Without parameters, a snapshot of the running profiler's recent
        window; ``?seconds=N`` blocks this HTTP worker up to
        ``_MAX_CAPTURE_SECONDS`` while a fresh capture accumulates
        (starting the profiler transiently when it is not running);
        ``?format=folded`` adds flamegraph-ready folded stack lines.
        """
        obs = self.observability
        profiler = obs.profiler if obs is not None else None
        if profiler is None:
            return 200, {"enabled": False}
        params = params or {}
        folded = params.get("format") == "folded"
        raw = params.get("seconds")
        if raw is not None:
            try:
                seconds = float(raw)
            except ValueError:
                return 400, {"error": f"bad seconds value {raw!r}"}
            seconds = max(0.0, min(seconds, _MAX_CAPTURE_SECONDS))
            view = profiler.capture(seconds, folded=folded)
        else:
            view = profiler.snapshot(folded=folded)
        view["enabled"] = True
        return 200, view

    def latency(self):
        """Critical-path latency budget view (PROTOCOL.md §14)."""
        obs = self.observability
        analyzer = obs.critical if obs is not None else None
        if analyzer is None:
            return {"enabled": False}
        view = analyzer.snapshot()
        view["enabled"] = True
        return view

    def runtime(self):
        runtime = self.engine.runtime
        if not runtime.workers:
            return {"concurrent": False}
        view = {
            "concurrent": True,
            "workers": runtime.workers,
            "running": runtime.running,
            "accepting": runtime.accepting,
            "saturated": runtime.saturated,
            "backpressure": runtime.backpressure,
            "queue_capacity": runtime.queue_capacity,
            "inflight_window": runtime.inflight,
            "queue_depths": list(runtime.queue_depths()),
            "inflight_depths": list(runtime.inflight_depths()),
            "utilization": [round(u, 4) for u in runtime.utilization()],
            "counters": runtime.counters(),
        }
        if self._pool_stats is not None:
            view["http_pools"] = self._pool_stats()
        return view


def _ok(view):
    """A route answering 200 with a view that reads no parameters."""
    return lambda surface, params: (200, view(surface))


def _probe(check):
    """A route whose view answers its own status."""
    return lambda surface, params: check(surface)


#: the one route table: path → ``route(surface, params) -> (status,
#: payload)``
_ROUTES = {
    "/healthz": _probe(IntrospectionSurface.healthz),
    "/readyz": _probe(IntrospectionSurface.readyz),
    "/introspect/rules": _ok(IntrospectionSurface.rules),
    "/introspect/instances": IntrospectionSurface._instances_route,
    "/introspect/breakers": _ok(IntrospectionSurface.breakers),
    "/introspect/dead-letters": _ok(IntrospectionSurface.dead_letters),
    "/introspect/journal": _ok(IntrospectionSurface.journal),
    "/introspect/runtime": _ok(IntrospectionSurface.runtime),
    "/introspect/replicas": _ok(IntrospectionSurface.replicas),
    "/introspect/match": _ok(IntrospectionSurface.match),
    "/introspect/sparql": _ok(IntrospectionSurface.sparql),
    "/introspect/profile": IntrospectionSurface.profile,
    "/introspect/latency": _ok(IntrospectionSurface.latency),
}

#: every route the surface answers; HttpServiceServer dispatches on these
INTROSPECTION_ROUTES = tuple(_ROUTES)


class ObsAdminServer:
    """A standalone localhost admin endpoint for one engine.

    Serves every introspection route plus ``GET /metrics`` (when the
    engine has observability installed) on its own port — production
    deployments keep the admin surface off the service ports.
    """

    def __init__(self, engine, observability=None) -> None:
        # imported here so ``repro.obs.ops`` stays importable without
        # dragging in the whole services/transport stack
        from ...services.transports import HttpServiceServer
        self.surface = IntrospectionSurface(engine, observability)
        obs = self.surface.observability
        self._server = HttpServiceServer(
            metrics=obs.metrics if obs is not None else None,
            introspection=self.surface)

    def start(self) -> str:
        return self._server.start()

    def stop(self) -> None:
        self._server.stop()

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
