"""Span recording from outside the program.

The ledger records a span at every layer boundary it can reach through
the program's public constructors: delegating proxies around the
transport, the GRH, each service handler, the event services' ``notify``
callback and stream subscribers, and a timing journal.  Four names the
constructors cannot reach are substituted at run time, in the traced run
only (:func:`patched`): the ``serialize``/``parse`` pair used by
``repro.services.transports``, ``Relation.join`` and
``TestExpression.filter``.

Spans are kept in memory and aggregated when the run ends.  A span's
*self time* is its duration minus the part its children cover; children
are spans opened on the same thread while it was open, plus — across the
HTTP hop — the server-side handler span whose request carried this
span's id (the transport proxy stamps it on the outgoing envelope as a
``ledger-span`` attribute, which the program ignores).
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LINK_ATTRIBUTE = "ledger-span"

#: span name -> the per-layer metric its self time is reported under
LAYER_OF = {
    "emit": "events.detect",
    "events.feed": "events.detect",
    "events.register": "events.detect",
    "core.notify": "core.self",
    "grh": "grh.self",
    "transports": "transports.self",
    "xmlmodel.parse": "xmlmodel.parse",
    "xmlmodel.serialize": "xmlmodel.serialize",
    "bindings.join": "bindings.join",
    "svc.xq": "xq.eval",
    "svc.exist": "exist.eval",
    "svc.sparql": "sparql.eval",
    "svc.datalog": "datalog.eval",
    "svc.test": "conditions.eval",
    "conditions.filter": "conditions.eval",
    "svc.actions": "actions.exec",
    "durability.append": "durability.journal",
    "durability.commit": "durability.journal",
}

#: the span that closes a rule instance on a worker thread
_INSTANCE_END = "durability.commit"
_WORKER_PREFIX = "eca-runtime"


class Tracer:
    """In-memory span store with per-thread nesting."""

    def __init__(self) -> None:
        #: (id, parent id, name, start, end, thread name); list.append is
        #: atomic under the interpreter lock, so threads share one list
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def begin(self, name: str, link: int | None = None) -> tuple:
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
            local.thread = threading.current_thread().name
        span_id = next(self._ids)
        parent = stack[-1] if stack else link
        stack.append(span_id)
        return (span_id, parent, name, perf_counter())

    def end(self, frame: tuple) -> None:
        ended = perf_counter()
        local = self._local
        local.stack.pop()
        self.spans.append((*frame, ended, local.thread))

    def wrap(self, name: str, function):
        """*function* with a span around every call."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            frame = begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end(frame)

        return traced

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- aggregation ---------------------------------------------------------

    def _adopt_server_codec_spans(self) -> list[tuple]:
        """The spans, with an HTTP server's codec passes put under the
        request that caused them.

        A server thread parses the request *before* it calls the handler
        (whose span carries the link to the client's transport span) and
        serializes the response *after* it, so those two spans start
        with no parent although the client is waiting for them.  On a
        thread that runs linked handler spans, a parentless parse takes
        the link of the handler span after it, any other parentless span
        the link of the handler span before it.
        """
        by_thread: dict[str, list[tuple]] = defaultdict(list)
        for span in self.spans:
            by_thread[span[5]].append(span)
        adopted: dict[int, int] = {}
        for spans in by_thread.values():
            own_ids = {span[0] for span in spans}
            # spans at the top of this thread's stack, in time order:
            # parentless ones and those linked to another thread's span
            outer = sorted((span for span in spans
                            if span[1] is None or span[1] not in own_ids),
                           key=lambda span: span[3])
            if all(span[1] is None for span in outer):
                continue
            link = None
            for span in outer:              # a serialize follows its handler
                if span[1] is not None:
                    link = span[1]
                elif link is not None and span[2] != "xmlmodel.parse":
                    adopted[span[0]] = link
            link = None
            for span in reversed(outer):    # a parse precedes its handler
                if span[1] is not None:
                    link = span[1]
                elif link is not None and span[2] == "xmlmodel.parse":
                    adopted[span[0]] = link
        return [(span[0], adopted.get(span[0], span[1]), *span[2:])
                for span in self.spans]

    def summary(self) -> dict:
        """Self time per layer, the root total they must sum to, and the
        time no span at a layer boundary covers.

        ``roots`` is the summed duration of spans without a parent;
        ``gaps`` is worker-thread time between two top-level spans of
        one rule instance (engine bookkeeping on a runtime worker, which
        no constructor-level proxy can bracket) — it is added to
        ``core.self``.  ``overflow`` is child time sticking out of its
        parent: zero for properly nested spans, so it is the measure of
        how well the cross-thread links reconcile.
        """
        spans = self._adopt_server_codec_spans()
        covered: dict[int, float] = defaultdict(float)
        duration: dict[int, float] = {}
        for span_id, parent, _name, start, end, _thread in spans:
            duration[span_id] = end - start
            if parent is not None:
                covered[parent] += end - start
        layers: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        roots = overflow = 0.0
        top_level: dict[str, list[tuple]] = defaultdict(list)
        for span_id, parent, name, start, end, thread in spans:
            own = duration[span_id] - covered.get(span_id, 0.0)
            if own < 0.0:
                overflow -= own
                own = 0.0
            layers[LAYER_OF[name]] += own
            calls[name] += 1
            if parent is None or parent not in duration:
                roots += duration[span_id]
                if thread.startswith(_WORKER_PREFIX):
                    top_level[thread].append((start, end, name))
        gaps = 0.0
        for spans in top_level.values():
            spans.sort()
            for (_s, ended, name), (started, _e, _n) in zip(spans, spans[1:]):
                if name != _INSTANCE_END and started > ended:
                    gaps += started - ended
        layers["core.self"] += gaps
        return {"layers": dict(layers), "calls": dict(calls), "roots": roots,
                "gaps": gaps, "overflow": overflow}


# -- proxies ------------------------------------------------------------------

class _Delegate:
    """Forwards everything it does not define to the wrapped object."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TransportProxy(_Delegate):
    """Spans around ``send``/``fetch``; links the request to the span."""

    def __init__(self, inner, tracer: Tracer) -> None:
        super().__init__(inner)
        self._tracer = tracer

    def send(self, address, message, timeout=None):
        from repro.xmlmodel import QName
        tracer = self._tracer
        frame = tracer.begin("transports")
        message.attributes[QName(None, LINK_ATTRIBUTE)] = str(frame[0])
        tracer.counts["transports.sends"] += 1
        try:
            return self._inner.send(address, message, timeout=timeout)
        finally:
            tracer.end(frame)

    def fetch(self, address, query, timeout=None):
        tracer = self._tracer
        frame = tracer.begin("transports")
        tracer.counts["transports.sends"] += 1
        try:
            result = self._inner.fetch(address, query, timeout=timeout)
            tracer.counts["xmlmodel.wire_bytes"] += len(query) + len(result)
            return result
        finally:
            tracer.end(frame)


class GrhProxy(_Delegate):
    """Spans around the four calls the engine makes into the GRH."""

    def __init__(self, inner, tracer: Tracer) -> None:
        super().__init__(inner)
        for name in ("evaluate_query", "evaluate_test", "execute_action",
                     "register_event_component",
                     "unregister_event_component"):
            setattr(self, name, tracer.wrap("grh", getattr(inner, name)))


class ServiceProxy(_Delegate):
    """Spans around a service's handler (``handle`` or ``execute``).

    A handler reached over HTTP runs on a server thread with an empty
    span stack; the ``ledger-span`` attribute of the request names the
    client-side transport span that caused it.
    """

    def __init__(self, inner, tracer: Tracer, name: str) -> None:
        super().__init__(inner)
        self._tracer = tracer
        self._name = name
        if hasattr(inner, "execute"):
            self.execute = tracer.wrap(name, inner.execute)

    def handle(self, message):
        tracer = self._tracer
        link = message.get(LINK_ATTRIBUTE)
        frame = tracer.begin(self._name, int(link) if link else None)
        try:
            return self._inner.handle(message)
        finally:
            tracer.end(frame)


@contextmanager
def patched(tracer: Tracer):
    """Substitute the four names no constructor reaches, for the
    duration of a traced run."""
    from repro.bindings import Relation
    from repro.conditions import TestExpression
    from repro.services import transports

    serialize, parse = transports.serialize, transports.parse
    join, test_filter = Relation.join, TestExpression.filter
    counts = tracer.counts
    begin, end = tracer.begin, tracer.end

    def traced_serialize(node, *args, **kwargs):
        frame = begin("xmlmodel.serialize")
        try:
            text = serialize(node, *args, **kwargs)
        finally:
            end(frame)
        counts["xmlmodel.wire_bytes"] += len(text)
        return text

    def traced_join(self, other):
        frame = begin("bindings.join")
        try:
            result = join(self, other)
        finally:
            end(frame)
        counts["bindings.join_rows_out"] += len(result)
        return result

    transports.serialize = traced_serialize
    transports.parse = tracer.wrap("xmlmodel.parse", parse)
    Relation.join = traced_join
    TestExpression.filter = tracer.wrap("conditions.filter", test_filter)
    try:
        yield
    finally:
        transports.serialize, transports.parse = serialize, parse
        Relation.join, TestExpression.filter = join, test_filter
