"""The Generic Request Handler (Sec. 4.4 of the paper).

The GRH "acts as a mediator for dealing with remote services.  It
inspects the namespace declaration of the components (or the language
attribute in case of opaque fragments) for determining an appropriate
language processor and forwards the request to it in an appropriate
form."  Concretely:

* **framework-aware** services receive the component together with the
  input variable bindings as one ``log:request`` and answer with
  ``log:answers`` (Fig. 8);
* **framework-unaware** services receive one plain query string *per
  input tuple*, with ``{Var}`` placeholders substituted by the tuple's
  values; the GRH binds each raw result to the surrounding
  ``eca:variable`` (Fig. 9);
* a framework-unaware service whose query happens to *generate*
  ``log:answers`` markup ("faking" a framework-aware service, Fig. 10)
  is recognized by the shape of its response and treated accordingly.

The GRH also relays event detections from event services back to the ECA
engine (Fig. 6 (1)), one feed's detections at a time, and ships the
actions of one such group as one message per language (PROTOCOL.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..bindings import (Binding, BindingError, Relation, answer_to_binding,
                        answers_to_relation, results_from_answer, substitute)
from ..obs.metrics import Counter
from ..obs.trace import SPANS_QNAME, bind_span, xml_to_span_dicts
from ..xmlmodel import Element, LOG_NS, QName, XMLSyntaxError, parse
from .component import ComponentSpec
from .messages import (Detection, MessageError, Request, batch_to_xml,
                       error_executed, error_text, is_error, request_to_xml,
                       xml_to_batch_results)
from .health import HealthProber
from .registry import LanguageDescriptor, LanguageRegistry
from .resilience import (ActionExecutionError, DeadLetter, GRHError,
                         ResilienceManager, ServiceReportedError,
                         TransientServiceFailure)

__all__ = ["GenericRequestHandler", "GRHError", "ActionSlot",
           "MAX_TIMEOUT_SCALE"]

_ANSWERS = QName(LOG_NS, "answers")
_ANSWER = QName(LOG_NS, "answer")
_TRACEPARENT_ATTR = QName(None, "traceparent")
_KIND_ATTR = QName(None, "kind")

#: an envelope of n requests gets ``min(n, MAX_TIMEOUT_SCALE)`` times
#: one request's timeout budget (PROTOCOL.md §10)
MAX_TIMEOUT_SCALE = 4


@dataclass(slots=True)
class ActionSlot:
    """One action component of one rule instance, due for dispatch.

    ``guard`` is the exactly-once hook of :meth:`GenericRequestHandler.
    execute_actions`; ``span`` is the open span a traced engine issues
    the slot's request under (its ``phase:action``), ``None`` for the
    thread's current one.
    """

    component_id: str
    spec: ComponentSpec
    bindings: Relation
    guard: object = None
    span: object = None


@dataclass(frozen=True, eq=False, slots=True)
class Route:
    """Where one registered language lives and how it is reached — the
    information "that allows to address a suitable Web Service" (Sec. 2),
    resolved once, when the language is registered or re-pointed.

    ``addresses`` is the replica set in declared order.  ``inline``: the
    transport runs the one address on the caller's thread, so trace
    context need not ride the envelope (PROTOCOL.md §8).  ``service`` is
    the in-process object :meth:`GenericRequestHandler.add_service`
    bound, ``None`` for a remote language.  Routes hash by identity;
    re-pointing a language makes a new one.
    """

    descriptor: LanguageDescriptor
    addresses: tuple[str, ...]
    inline: bool
    service: object = None


class GenericRequestHandler:
    """Mediator between the ECA engine and component-language services."""

    def __init__(self, registry: LanguageRegistry, transport,
                 cache_opaque_requests: bool = False,
                 resilience: ResilienceManager | None = None) -> None:
        self.registry = registry
        self.transport = transport
        #: retry policies, per-endpoint circuit breakers and the dead
        #: letter queue; the default manager performs no retries and
        #: opens a breaker after 5 consecutive transport failures
        self.resilience = resilience if resilience is not None \
            else ResilienceManager()
        self._detection_callbacks: list[Callable[[Detection], None]] = []
        #: one :class:`Route` per registered language, keyed by its URI
        #: and by its name (a URI wins over a name; the first-registered
        #: language keeps a shared name)
        self._routes: dict[str, Route] = {}
        #: background ``/healthz`` prober, started lazily when the first
        #: multi-replica HTTP language is routed; stopped by
        #: :meth:`close` (engine shutdown)
        self.health_prober: HealthProber | None = None
        self.health_probe_interval = 1.0
        #: set by :meth:`close`; keeps late replica registrations from
        #: restarting the prober thread after engine shutdown
        self._closed = False
        #: lock-protected counters (repro.obs.metrics.Counter): dispatch
        #: may be driven from several threads at once, and a plain
        #: ``int += 1`` loses increments under contention
        self._requests = Counter()
        self._cache_hits = Counter()
        #: a :class:`repro.obs.Observability`, installed by the engine;
        #: ``None`` (the default) means no tracing and no traceparent
        #: stamping — the seed behavior
        self.observability = None
        #: Memoize identical substituted queries to unaware services.
        #: Off by default: it assumes the remote data does not change
        #: within a rule evaluation (safe for the per-instance lifetime,
        #: but the cache lives for the GRH's lifetime — enable only for
        #: effectively read-only sources).
        self.cache_opaque_requests = cache_opaque_requests
        self._opaque_cache: dict[tuple[str, str], str] = {}

    @property
    def request_count(self) -> int:
        """Requests mediated so far (thread-safe counter)."""
        return self._requests.value

    @property
    def cache_hits(self) -> int:
        """Opaque-cache hits so far (thread-safe counter)."""
        return self._cache_hits.value

    def clear_opaque_cache(self) -> None:
        self._opaque_cache.clear()

    # -- service-side wiring -------------------------------------------------

    def add_service(self, descriptor: LanguageDescriptor, service) -> None:
        """Register a language and bind its service to the transport.

        ``service`` exposes ``handle(request_element) -> response_element``
        for framework-aware languages, or ``execute(query_text) -> str``
        for framework-unaware ones.
        """
        self.registry.register(descriptor)
        address = f"svc:{descriptor.name}"
        if descriptor.framework_aware:
            self.transport.bind(address, service.handle)
        else:
            self.transport.bind_opaque(address, service.execute)
        self._route(descriptor, (address,), service)

    def add_remote_language(self, descriptor: LanguageDescriptor,
                            address: str | None = None) -> None:
        """Register a language whose service is already reachable at an
        address (e.g. an HTTP URL) without binding anything locally.

        A descriptor carrying a ``replicas`` tuple registers the whole
        replica set; otherwise ``address`` is its one replica
        (PROTOCOL.md §12).
        """
        addresses = descriptor.replicas or ((address,) if address else ())
        if not addresses:
            raise GRHError(f"no endpoint known for {descriptor.name!r}")
        self.registry.register(descriptor)
        self._route(descriptor, addresses)

    def set_replicas(self, uri: str, addresses) -> None:
        """Re-point a registered language at a new replica set.

        Replica churn (restarts on new ports) flows through here: the
        language's route is rebuilt exactly as at registration, so stale
        addresses leave the breaker/stats maps and the health board,
        and a newly replicated HTTP set gets the prober.
        """
        addresses = tuple(addresses)
        if not addresses:
            raise GRHError("a language needs at least one replica")
        # raises RegistryError when unknown
        self._route(self.registry.lookup(uri), addresses)

    def _route(self, descriptor: LanguageDescriptor,
               addresses: tuple[str, ...], service=None) -> None:
        """Build and install the one route of a language.

        The only place the transport is asked whether an address is
        dispatched inline; a transport without ``dispatches_inline`` is
        treated as remote.
        """
        probe = getattr(self.transport, "dispatches_inline", None)
        inline = len(addresses) == 1 and probe is not None \
            and bool(probe(addresses[0]))
        route = Route(descriptor, addresses, inline, service)
        self._routes[descriptor.uri] = route
        named = self._routes.get(descriptor.name)
        if named is None or named.descriptor.uri == descriptor.uri:
            self._routes[descriptor.name] = route
        if len(addresses) > 1:
            for replica in addresses:
                self.resilience.health.track(replica)
            if any(replica.startswith(("http://", "https://"))
                   for replica in addresses):
                self.ensure_health_prober()
        self.resilience.prune(self.active_addresses())

    def route(self, language: str) -> Route:
        """The route of a component's language: the namespace URI of a
        markup component, or an opaque component's ``language`` — a URI
        or a registered name (Sec. 4.4)."""
        try:
            return self._routes[language]
        except KeyError:
            raise GRHError(
                f"no language registered for {language!r}") from None

    def routes(self) -> dict[str, Route]:
        """Every registered language's route, keyed by its URI."""
        return {route.descriptor.uri: route
                for route in self._routes.values()}

    def active_addresses(self) -> set[str]:
        """Every address currently registered across all languages."""
        return {address for route in self._routes.values()
                for address in route.addresses}

    # -- availability plumbing (PROTOCOL.md §12) -----------------------------

    def ensure_health_prober(self) -> HealthProber:
        """Create and start the background ``/healthz`` prober
        (idempotent; after :meth:`close` the prober is returned but not
        started — probing stays off once the engine has shut down)."""
        if self.health_prober is None:
            self.health_prober = HealthProber(
                self.resilience.health, self._probed_addresses,
                interval=self.health_probe_interval)
        if not self._closed:
            self.health_prober.start()
        return self.health_prober

    def _probed_addresses(self) -> list[str]:
        """Only replicated languages are probed — a single-address
        language has no routing choice for the probe to inform."""
        return [address for route in self.routes().values()
                if len(route.addresses) > 1 for address in route.addresses]

    def close(self) -> None:
        """Release background resources: the health prober, the hedge
        executor, and the transport's connection pools.  Synchronous
        dispatch keeps working afterwards (pools rebuild on demand;
        hedging and probing stay off)."""
        self._closed = True
        if self.health_prober is not None:
            self.health_prober.stop()
        self.resilience.close()
        closer = getattr(self.transport, "close", None)
        if closer is not None:
            closer()

    def notify(self, detections: Sequence[Detection]) -> None:
        """Entry point for event services: the detections one feed
        delivered, in detection order (PROTOCOL.md §3)."""
        for callback in self._detection_callbacks:
            callback(detections)

    def on_detection(self,
                     callback: Callable[[Sequence[Detection]], None]) -> None:
        """The ECA engine subscribes to detection groups here."""
        self._detection_callbacks.append(callback)

    # -- dispatch ------------------------------------------------------------------

    def _send(self, route: Route, request: Request) -> Element:
        """One query, test or event (un)registration request; its reply,
        or its :class:`GRHError` raised."""
        span, payloads = self._begin(route, [request])
        outcome = self.deliver(route, payloads, span)[0]
        if isinstance(outcome, GRHError):
            raise outcome
        return outcome

    def _begin(self, route: Route,
               requests: Sequence[Request]) -> tuple[object, list[Element]]:
        """Count one mediated message and open its ``grh.request`` span;
        the requests' payloads, each stamped with the span's identity
        when the message leaves the process.

        An observability-aware service across a process boundary
        answers with a ``log:spans`` annotation that :func:`_strip_spans`
        adopts into this trace, while a co-located one appends its
        record to the open span.  The payload element is stamped
        directly — the Request object itself needs no copy.
        """
        self._requests.inc()
        payloads = [request_to_xml(request) for request in requests]
        obs = self.observability
        if obs is None:
            return None, payloads
        first = requests[0]
        attributes = {"kind": first.kind, "component": first.component_id,
                      "language": route.descriptor.name}
        if len(requests) > 1:
            attributes["slots"] = len(requests)
        attributes["tuples"] = sum(len(request.bindings)
                                   for request in requests)
        span = obs.tracer.begin("grh.request", attributes)
        if not route.inline and span.traceparent is not None:
            for payload in payloads:
                payload.attributes[_TRACEPARENT_ATTR] = span.traceparent
        return span, payloads

    def deliver(self, route: Route, payloads: Sequence[Element], span,
                failover_ok: bool = True) -> list:
        """Send requests of one language as one message; one outcome per
        request, in order: its reply element, or its :class:`GRHError`.

        The one place a message to a framework-aware service is built,
        timed, retried or failed over, and judged (PROTOCOL.md §7,
        §10).  One request travels as the plain ``log:request``, and its
        ``log:error`` follows the language's retry policy.  Several
        travel as one ``log:batch`` — one request to the resilience
        layer, never hedged, with ``min(n, MAX_TIMEOUT_SCALE)`` times
        one request's timeout; a slot's ``log:error`` fails that slot
        alone.  A failed, malformed or miscounted answer fails every
        slot, each with its own :class:`GRHError` chained to that
        failure.

        ``span`` is the message's open request span (from
        :meth:`_begin`; ``None`` when untraced), finished here.
        ``failover_ok``: whether the message may retarget another
        replica — always for reads, for actions only when every tuple
        carries its key (PROTOCOL.md §12).
        """
        descriptor = route.descriptor
        count = len(payloads)
        lone = count == 1
        kind = payloads[0].get(_KIND_ATTR)
        message = payloads[0] if lone else batch_to_xml(payloads)
        timeout = self.resilience.timeout_for(descriptor)
        if timeout is not None:
            # the policy's timeout budgets ONE request; an envelope of n
            # requests gets n budgets, capped
            timeout *= min(count, MAX_TIMEOUT_SCALE)
        # an inline service records onto the open span and never
        # annotates its reply
        annotated = None if route.inline else span

        def attempt_once(address: str) -> list[Element]:
            reply = self.exchange(self.transport.send, address, message,
                                  timeout, descriptor,
                                  annotated if lone else None)
            if lone:
                return [reply]
            try:
                return xml_to_batch_results(reply, expected=count)
            except MessageError as exc:
                raise GRHError(f"service {descriptor.name!r} answered "
                               f"a malformed envelope: {exc}") from exc

        def dispatch() -> list[Element]:
            return self.resilience.call_routed(
                route.addresses, descriptor, attempt_once,
                failover_ok=failover_ok,
                hedge_ok=lone and kind in ("query", "test"))
        try:
            results = self._mediate(kind, descriptor, span, dispatch)
        except GRHError as exc:
            if lone:
                return [exc]
            # whatever the envelope's answer claimed, no slot's outcome
            # is known; each slot raises its own error on its own thread
            return [_chained(exc) for _ in payloads]
        if lone:
            return results
        outcomes: list = []
        for result in results:
            if annotated is not None:
                _strip_spans(result, self.observability.tracer, annotated)
            if is_error(result):
                failure = _reported(result, descriptor)
                result = failure if isinstance(failure, GRHError) \
                    else _verdict(descriptor, failure)
            outcomes.append(result)
        return outcomes

    def exchange(self, call, address: str, argument, timeout: float | None,
                 descriptor: LanguageDescriptor, span=None):
        """One transport round-trip with its outcome classified — the
        one place the §6/§11 failure taxonomy is applied.

        ``call`` is the transport's ``send`` or ``fetch``; ``timeout`` is
        passed only when set, so transports without the parameter keep
        working.  An exception marked ``service_reported`` (an HTTP error
        status from a *live* service) becomes
        :class:`ServiceReportedError` — deterministic, not retried by
        default, never breaker-counted; any other exception is a crash on
        the far side, :class:`TransientServiceFailure`.  A ``log:error``
        reply is the service's own report, carrying its ``executed``
        count.  With a request ``span``, a remote service's ``log:spans``
        annotation is adopted before the reply is judged (co-located
        services have already appended their records to the span).
        """
        try:
            if timeout is None:
                reply = call(address, argument)
            else:
                reply = call(address, argument, timeout=timeout)
        except GRHError:
            raise
        except Exception as exc:
            if getattr(exc, "service_reported", False):
                raise ServiceReportedError(str(exc)) from exc
            raise TransientServiceFailure(str(exc)) from exc
        if not isinstance(reply, Element):
            return reply
        if span is not None:
            _strip_spans(reply, self.observability.tracer, span)
        if is_error(reply):
            raise _reported(reply, descriptor)
        return reply

    def _mediate(self, kind: str, descriptor: LanguageDescriptor, span,
                 dispatch: Callable[[], object]):
        """Run one dispatch under its request span and turn its failure
        into the caller's :class:`GRHError`.

        While the span is open, the layers below add where the dispatch
        blocked (pool acquisition, backoff, hedge race) to it for the
        critical-path analyzer; finishing it feeds the request latency
        histogram.
        """
        obs = self.observability
        try:
            result = dispatch()
        except (TransientServiceFailure, ServiceReportedError,
                GRHError) as exc:
            if span is not None:
                _log_dispatch_failure(obs, kind, descriptor.name, exc)
                obs.observe_request(kind, obs.tracer.finish(span, "error"))
            if isinstance(exc, GRHError):
                raise
            raise _verdict(descriptor, exc)
        if span is not None:
            obs.observe_request(kind, obs.tracer.finish(span))
        return result

    # -- event components (Figs. 5/6) ---------------------------------------------------

    def register_event_component(self, component_id: str,
                                 spec: ComponentSpec,
                                 idempotent: bool = False) -> None:
        """Route an event component to its detection service.

        With ``idempotent=True`` a service answering that the component
        id is *already registered* counts as success — recovery re-wires
        rules into services that survived the engine crash and still
        hold the registration (PROTOCOL.md §7).
        """
        if spec.family != "event":
            raise GRHError("not an event component")
        if spec.content is None:
            raise GRHError("event components cannot be opaque")
        route = self.route(spec.language)
        try:
            self._send(route, Request("register-event", component_id,
                                      spec.content, Relation.unit()))
        except GRHError as exc:
            if idempotent and "already registered" in str(exc):
                return
            raise

    def unregister_event_component(self, component_id: str,
                                   spec: ComponentSpec) -> None:
        self._send(self.route(spec.language),
                   Request("unregister-event", component_id, spec.content,
                           Relation.unit()))

    # -- query components (Figs. 7-10) ----------------------------------------------------

    def evaluate_query(self, component_id: str, spec: ComponentSpec,
                       bindings: Relation) -> Relation:
        """Evaluate one query component against its language service.

        Returns the *contribution* relation; the engine joins it with the
        rule instance's current bindings.
        """
        route = self.route(spec.language)
        if not route.descriptor.framework_aware:
            return self._evaluate_unaware(route, spec, bindings)
        response = self._send(route, Request("query", component_id,
                                             spec.payload(), bindings))
        return self._relation_from_answers(response, spec)

    def _relation_from_answers(self, response: Element,
                               spec: ComponentSpec) -> Relation:
        if response.name != _ANSWERS:
            raise GRHError(
                f"query service answered {response.name.clark}, expected "
                "log:answers")
        if spec.bind_to is None:
            try:
                return answers_to_relation(response)
            except Exception as exc:
                raise GRHError(f"malformed answers: {exc}") from exc
        tuples: list[Binding] = []
        for answer in response.findall(_ANSWER):
            try:
                base = answer_to_binding(answer)
                results = results_from_answer(answer)
            except Exception as exc:
                raise GRHError(f"malformed answer: {exc}") from exc
            for result in results:
                try:
                    tuples.append(base.extended(spec.bind_to, result))
                except BindingError:
                    continue  # inconsistent with an existing binding: drop
        return Relation(tuples)

    def _evaluate_unaware(self, route: Route, spec: ComponentSpec,
                          bindings: Relation) -> Relation:
        """Fig. 9: one plain request per input tuple, values substituted."""
        if spec.opaque is None:
            raise GRHError(
                f"language {route.descriptor.name!r} is framework-unaware; "
                "its components must be opaque")
        out: list[Binding] = []
        primary = route.addresses[0]
        for binding in bindings:
            query = substitute(spec.opaque, binding, _unbound_variable)
            if self.cache_opaque_requests:
                # cache key stays on the primary address: replicas serve
                # the same data, so one entry covers the set
                key = (primary, query)
                if key in self._opaque_cache:
                    self._cache_hits.inc()
                    raw = self._opaque_cache[key]
                else:
                    self._requests.inc()
                    raw = self._fetch(route, query)
                    self._opaque_cache[key] = raw
            else:
                self._requests.inc()
                raw = self._fetch(route, query)
            out.extend(self._bind_raw_results(raw, binding, spec))
        return Relation(out)

    def _fetch(self, route: Route, query: str) -> str:
        descriptor = route.descriptor
        timeout = self.resilience.timeout_for(descriptor)
        obs = self.observability
        # framework-unaware services speak their own query language, not
        # the log: protocol — no envelope, so no traceparent to carry;
        # the round-trip is still measured client-side
        span = None
        if obs is not None:
            span = obs.tracer.begin("grh.fetch",
                                    {"language": descriptor.name})

        def attempt_once(address: str) -> str:
            return self.exchange(self.transport.fetch, address, query,
                                 timeout, descriptor)

        def dispatch() -> str:
            return self.resilience.call_routed(
                route.addresses, descriptor, attempt_once,
                failover_ok=True, hedge_ok=True)
        return self._mediate("fetch", descriptor, span, dispatch)

    def _bind_raw_results(self, raw: str, binding: Binding,
                          spec: ComponentSpec) -> list[Binding]:
        raw = raw.strip()
        parsed: Element | None = None
        if raw.startswith("<"):
            try:
                parsed = parse(f"<log:results xmlns:log='{LOG_NS}'>"
                               f"{raw}</log:results>")
            except XMLSyntaxError as exc:
                raise GRHError(f"unparseable service response: {exc}") from exc
        if parsed is not None:
            children = list(parsed.elements())
            # Fig. 10: the query generated a log:answers structure itself
            if len(children) == 1 and children[0].name == _ANSWERS:
                faked = self._relation_from_answers(children[0], spec)
                return [binding.merged(other) for other in faked
                        if binding.compatible(other)]
            if spec.bind_to is None:
                raise GRHError(
                    "framework-unaware results need an eca:variable wrapper "
                    "(or a log:answers-shaped response)")
            values = [child.copy() for child in children]
            if not children and parsed.text().strip():
                values = [parsed.text().strip()]
        else:
            if spec.bind_to is None:
                raise GRHError(
                    "framework-unaware results need an eca:variable wrapper")
            # strip each line: CRLF responses (HTTP services) would
            # otherwise bind values with a trailing \r that fail joins
            values = [stripped for line in raw.splitlines()
                      if (stripped := line.strip())]
        out = []
        for value in values:
            try:
                out.append(binding.extended(spec.bind_to, value))
            except BindingError:
                continue
        return out

    # -- test components ---------------------------------------------------------------------

    def evaluate_test(self, component_id: str, spec: ComponentSpec,
                      bindings: Relation) -> Relation:
        """Delegate a test component to its service; returns survivors."""
        response = self._send(self.route(spec.language),
                              Request("test", component_id, spec.payload(),
                                      bindings))
        if response.name != _ANSWERS:
            raise GRHError("test service must answer log:answers")
        return answers_to_relation(response)

    # -- action components (Sec. 4.5) ------------------------------------------------------------

    def execute_action(self, component_id: str, spec: ComponentSpec,
                       bindings: Relation, guard=None) -> int:
        """Execute the action once per tuple; returns the execution count.

        The one-slot case of :meth:`execute_actions`: a failure raises
        its :class:`ActionExecutionError` (or, when the language is not
        registered, its :class:`GRHError`).
        """
        outcome = self.execute_actions(
            [ActionSlot(component_id, spec, bindings, guard)])[0]
        if isinstance(outcome, GRHError):
            raise outcome
        return outcome

    def execute_actions(self, slots: Sequence[ActionSlot]) -> list:
        """Execute several action components at once; one outcome per
        slot: the count of tuples it executed, or its :class:`GRHError`.

        Each component executes once per tuple of its relation.  Slots
        of one language travel together: one slot is one ``log:request``
        carrying every tuple; several are one ``log:batch`` of those
        requests (PROTOCOL.md §7).  The service runs a request's tuples
        in relation order and stops at the first that fails (*ordered
        prefix commits, suffix is parked*).  A failed slot's outcome is
        an :class:`ActionExecutionError` carrying the count of tuples
        the service reported as run (so the engine's audit trail stays
        truthful), and the failed tuple plus every tuple after it are
        parked in the dead letter queue for replay.  When no answer came
        back at all, every tuple of every slot that travelled is
        uncertain: none is credited and all are parked.

        A slot's ``guard`` is the durability layer's exactly-once hook:
        before anything is dispatched, ``guard.begin(tuples)`` journals
        every tuple's idempotency key in one intent record and returns
        the wire ``dedup`` key per tuple (``None`` marks a duplicate
        tuple, which is left out of the request — one effect per
        distinct tuple; it neither executes nor counts in the outcome).
        """
        outcomes: list = [0] * len(slots)
        by_route: dict[Route, list] = {}
        for position, slot in enumerate(slots):
            spec = slot.spec
            try:
                route = self.route(spec.language)
            except GRHError as exc:
                outcomes[position] = exc
                continue
            content = spec.payload()
            tuples = list(slot.bindings)
            guard = slot.guard
            dedups = guard.begin(tuples) if guard is not None else None
            if dedups is not None:
                tuples = [binding for binding, dedup in zip(tuples, dedups)
                          if dedup is not None]
                dedups = tuple(dedup for dedup in dedups if dedup is not None)
            if not tuples:
                continue
            request = Request("action", slot.component_id, content,
                              Relation(tuples), dedups=dedups)
            members = by_route.get(route)
            if members is None:
                by_route[route] = [(position, request)]
            else:
                members.append((position, request))
        for route, members in by_route.items():
            requests = [request for _, request in members]
            first = slots[members[0][0]].span
            previous = bind_span(first) if first is not None else None
            try:
                span, payloads = self._begin(route, requests)
                replies = self.deliver(
                    route, payloads, span,
                    failover_ok=all(request.dedups is not None
                                    and None not in request.dedups
                                    for request in requests))
            finally:
                if first is not None:
                    bind_span(previous)
            for (position, request), reply in zip(members, replies):
                if isinstance(reply, GRHError):
                    outcomes[position] = self._park_action(
                        slots[position], request, reply)
                else:
                    outcomes[position] = len(request.bindings)
        return outcomes

    def _park_action(self, slot: ActionSlot, request: Request,
                     exc: GRHError) -> ActionExecutionError:
        """Park the unexecuted suffix of a failed action request; the
        error the caller gets for it.  When the slot replays a dead
        letter (the letter is its guard), the suffix replaces it."""
        tuples = list(request.bindings)
        executed = _reported_prefix(exc, len(tuples))
        remaining = Relation(tuples[executed:])
        dedups = request.dedups
        replayed = slot.guard if isinstance(slot.guard, DeadLetter) else None
        letter = DeadLetter(
            kind="action", error=str(exc),
            enqueued_at=self.resilience.clock(),
            attempts=1 if replayed is None else replayed.attempts + 1,
            component_id=request.component_id, spec=slot.spec,
            bindings=remaining,
            dedups=dedups[executed:] if dedups is not None else None)
        queue = self.resilience.dead_letters
        if replayed is None:
            queue.append(letter)
        else:
            queue.settle(replayed, executed, letter)
        observer = self.resilience.observer
        if observer is not None:
            observer("dead_letter", request.component_id)
        error = ActionExecutionError(str(exc), executed=executed,
                                     remaining=remaining)
        error.__cause__ = exc
        return error

    # -- resilience surface --------------------------------------------------

    def dead_letter_detection(self, detection: Detection, error,
                              attempts: int = 1) -> None:
        """Park a detection whose rule instance failed, for replay via
        :meth:`repro.core.ECAEngine.replay_dead_letters`."""
        self.resilience.dead_letters.append(DeadLetter(
            kind="detection", error=str(error),
            enqueued_at=self.resilience.clock(), attempts=attempts,
            detection=detection))
        observer = self.resilience.observer
        if observer is not None:
            observer("dead_letter", detection.component_id)

    @property
    def stats(self) -> dict:
        """Mediation counters: requests, cache hits, plus the resilience
        layer's retries, breaker activity and dead letters."""
        return {"requests": self.request_count,
                "cache_hits": self.cache_hits,
                **self.resilience.snapshot()}


def _strip_spans(response: Element, tracer, span) -> None:
    """Pop a ``log:spans`` annotation off a response and adopt its
    server-side spans under the request *span*.

    Services append the annotation last, so only the final child is
    inspected — no scan over (possibly large) answer lists.
    """
    children = response.children
    if not children:
        return
    last = children[-1]
    if not isinstance(last, Element) or last.name != SPANS_QNAME:
        return
    response.remove(last)
    for record in xml_to_span_dicts(last):
        tracer.adopt(record, span)


def _reported(reply: Element, descriptor: LanguageDescriptor) -> Exception:
    """What a ``log:error`` reply stands for: the service's report with
    its ``executed`` count, or — when that count is malformed — the
    caller's :class:`GRHError`."""
    try:
        executed = error_executed(reply)
    except MessageError as exc:
        error = GRHError(f"service {descriptor.name!r} answered a "
                         f"malformed log:error: {exc}")
        error.__cause__ = exc
        return error
    return ServiceReportedError(error_text(reply), executed)


def _chained(failure: GRHError) -> GRHError:
    """One slot's own copy of a whole-message failure, chained to it:
    each slot's caller raises on its own thread, and one shared object
    would collect tracebacks from all of them."""
    error = GRHError(str(failure))
    error.__cause__ = failure
    return error


def _verdict(descriptor: LanguageDescriptor, exc: Exception) -> GRHError:
    """The caller's error for a service's report or a transient failure."""
    verdict = "reported" if isinstance(exc, ServiceReportedError) \
        else "unreachable or crashed"
    error = GRHError(f"service {descriptor.name!r} {verdict}: {exc}")
    error.__cause__ = exc
    return error


def _log_dispatch_failure(obs, kind: str, language: str, exc) -> None:
    """One structured record per failed GRH dispatch — emitted while the
    request span is still open, so the record carries its trace ids."""
    log = obs.log
    if log is not None:
        log.warning("grh.request.failed", kind=kind, language=language,
                    error=str(exc))


def _reported_prefix(exc: GRHError, sent: int) -> int:
    """How many of the ``sent`` action tuples the service reported as run
    before the failing one.  No answer, a ``log:error`` without the count
    or one that does not fit the request leave every tuple uncertain: 0."""
    cause = exc.__cause__
    executed = cause.executed if isinstance(cause, ServiceReportedError) \
        else None
    return executed if executed is not None and executed < sent else 0


def _unbound_variable(name: str) -> GRHError:
    return GRHError(f"opaque component uses unbound variable {name!r}")
