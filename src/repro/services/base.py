"""Base class for framework-aware component-language services.

A framework-aware service speaks the ``log:`` protocol natively
(Sec. 4.4: "for framework-aware services, the incoming requests can just
be forwarded").  Subclasses override the hooks for the request kinds
their language family supports; anything else is answered with
``log:error`` — errors travel as messages, never as exceptions across
the service boundary.
"""

from __future__ import annotations

import time

from ..bindings import Binding, Relation, relation_to_answers
from ..grh.messages import (MessageError, Request, error_message, is_error,
                            ok_message, xml_to_request)
from ..obs.trace import (current_span, next_annotation_id,
                         parse_traceparent, spans_to_xml,
                         traceparent_sampled)
from ..xmlmodel import Element

__all__ = ["LanguageService", "ServiceError"]


class ServiceError(RuntimeError):
    """Raised by service hooks to report a clean protocol error."""


class LanguageService:
    """Dispatches ``log:request`` messages to per-kind hooks.

    An action request carries every surviving tuple of its component
    (PROTOCOL.md §2).  The tuples run **in relation order** through the
    :meth:`action` hook, one call per tuple; the first failing tuple
    stops the request and the ``log:error`` says how many ran before it
    (``executed``) — *ordered prefix commits, suffix is left to the
    caller* (PROTOCOL.md §7).  A tuple carrying a ``dedup`` idempotency
    key is executed at most once per key: a key already completed counts
    as run without calling the hook again.  A durable engine stamps
    these keys so that crash-replay cannot double-execute an effect even
    when the journal cannot tell whether the original dispatch completed.
    The memory is a bounded FIFO of recent keys.
    """

    #: human-readable name used in error messages
    service_name = "service"
    #: how many completed action idempotency keys to remember
    dedup_memory = 10_000

    def _action_key_seen(self, key: str) -> bool:
        seen = getattr(self, "_completed_actions", None)
        return seen is not None and key in seen

    def _action_key_done(self, key: str) -> None:
        seen = getattr(self, "_completed_actions", None)
        if seen is None:
            # lazily created: subclasses are not required to call
            # super().__init__()
            from collections import OrderedDict
            seen = self._completed_actions = OrderedDict()
        seen[key] = True
        while len(seen) > self.dedup_memory:
            seen.popitem(last=False)

    def handle(self, message: Element) -> Element:
        try:
            request = xml_to_request(message)
        except MessageError as exc:
            return error_message(f"{self.service_name}: {exc}")
        span = current_span()
        if span is not None:
            # co-located traced caller (same thread): time the dispatch
            # and append a compact record to the dispatching GRH's open
            # request span — no envelope work, no ids, no markup
            started = time.perf_counter()
            response = self._dispatch(request)
            span.add_records([("service:" + request.kind, self.service_name,
                               "error" if is_error(response) else "ok",
                               time.perf_counter() - started)])
            return response
        # an unsampled caller (traceparent flags ``-00``, PROTOCOL.md §9)
        # is treated like an untraced one: nobody will keep the trace, so
        # capturing and shipping a server-side span would be pure waste
        context = parse_traceparent(request.traceparent) \
            if request.traceparent is not None \
            and traceparent_sampled(request.traceparent) else None
        if context is None:
            return self._dispatch(request)
        # a remote tracing caller: time the dispatch and annotate the
        # response with this service's server-side span, parented under
        # the GRH request span named by the traceparent — the caller's
        # tracer adopts it, stitching the round-trip into one trace
        # (PROTOCOL.md §8)
        started = time.perf_counter()
        response = self._dispatch(request)
        response.append(spans_to_xml([{
            "trace": context[0], "id": next_annotation_id(),
            "parent": context[1], "name": "service:" + request.kind,
            "status": "error" if is_error(response) else "ok",
            "duration": time.perf_counter() - started,
            "attributes": {"service": self.service_name}}]))
        return response

    def _dispatch(self, request: Request) -> Element:
        try:
            if request.kind == "register-event":
                self.register_event(request)
                return ok_message()
            if request.kind == "unregister-event":
                self.unregister_event(request)
                return ok_message()
            if request.kind == "query":
                result = self.query(request)
                # functional services build the log:answers element
                # themselves (log:result per answer, Fig. 8); LP-style
                # services return a plain relation
                if isinstance(result, Element):
                    return result
                return relation_to_answers(result)
            if request.kind == "test":
                return relation_to_answers(self.test(request))
            if request.kind == "action":
                return self._run_action(request)
            return error_message(
                f"{self.service_name}: unsupported request kind "
                f"{request.kind!r}")
        except Exception as exc:
            return error_message(f"{self.service_name}: {exc}")

    def _run_action(self, request: Request) -> Element:
        keys = request.dedups or (None,) * len(request.bindings)
        for executed, (binding, key) in enumerate(zip(request.bindings,
                                                      keys)):
            if key is None or not self._action_key_seen(key):
                try:
                    self.action(request, binding)
                except Exception as exc:
                    return error_message(f"{self.service_name}: {exc}",
                                         executed=executed)
                if key is not None:
                    self._action_key_done(key)
        return ok_message()

    # -- hooks (override per language family) --------------------------------

    def register_event(self, request: Request) -> None:
        raise ServiceError("this service does not detect events")

    def unregister_event(self, request: Request) -> None:
        raise ServiceError("this service does not detect events")

    def query(self, request: Request) -> "Relation | Element":
        raise ServiceError("this service does not answer queries")

    def test(self, request: Request) -> Relation:
        raise ServiceError("this service does not evaluate tests")

    def action(self, request: Request, binding: Binding) -> None:
        """Execute the request's action component for one of its tuples."""
        raise ServiceError("this service does not execute actions")

    @staticmethod
    def component_text(request: Request) -> str:
        """The textual body of the component (markup text or opaque)."""
        if request.content is None:
            raise ServiceError("request carries no component")
        return request.content.text()
