"""The tracing core: spans, tracers, exporters, ``traceparent``.

A *span* is one timed unit of work — a rule instance, one component
phase, one GRH request, one service invocation.  Spans form a tree: the
rule instance is the root, component phases are its children, each GRH
request is a child of the phase that issued it, and a service's span is
a child of the GRH request that reached it.  The tree is keyed by a
*trace id* shared by every span of one rule evaluation.

The tracer is the one owner of trace state:

* **A trace leaves the tracer once.**  Finished spans collect on their
  trace; when the root finishes, every exporter's ``export`` receives
  the whole trace, one list in finish order with the root last.  A span
  that finishes after its trace was handed over (a hedged read's losing
  branch) is handed over alone, as a rootless fragment.
* **The open span is the only per-thread context.**  The innermost open
  span of a thread (:func:`current_span`) is shared by every tracer.
  The layers under a GRH dispatch add their blocking time to it
  (:func:`record_wait`); a service co-located with the engine, running
  on the dispatching thread, appends a compact ``(name, service,
  status, duration)`` record to it (:meth:`Span.add_records`).  Records
  cost no id and no export: they become child spans only where a reader
  needs them (:func:`expand`).
* **A head-sampled-out trace builds no spans.**  Its root gets one
  handle that stands in for every span of the trace and only keeps
  start times, so the latency histograms still see all traffic.

Propagation uses a W3C-style ``traceparent`` string
(``00-<32 hex trace id>-<16 hex span id>-01``) carried in the
``log:request`` envelope (PROTOCOL.md §8); a remote service that
receives one answers with a ``log:spans`` annotation holding its own
server-side spans, which the GRH *adopts* into the request's trace —
that is what stitches an HTTP round-trip into one trace.

Timing is monotonic (``time.perf_counter``); cross-process spans carry
their own duration, measured on the remote clock, and are anchored at
adoption time on the local one.  Ids come from one ``os.urandom`` seed
plus a counter (no per-span entropy), and the disabled path is a
:class:`NoopTracer` whose spans are a shared singleton.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from collections import deque
from typing import Callable, Iterable

from ..xmlmodel import Element, LOG_NS, QName
from .sink import RotatingSink

__all__ = ["Span", "Tracer", "NoopSpan", "NoopTracer", "NOOP_TRACER",
           "RingBufferExporter", "JsonlExporter", "format_traceparent",
           "parse_traceparent", "traceparent_sampled", "span_to_dict",
           "spans_to_xml", "xml_to_span_dicts", "render_trace", "expand",
           "SPANS_QNAME", "WAIT_KINDS", "current_span", "bind_span",
           "record_wait", "next_annotation_id"]

SPANS_QNAME = QName(LOG_NS, "spans")
_SPAN = QName(LOG_NS, "span")

#: the wait kinds the layers under a GRH dispatch record, and the
#: span-attribute keys the critical-path analyzer reads back
#: (PROTOCOL.md §14)
WAIT_KINDS = ("pool_wait", "retry_backoff", "hedge_wait")

#: span ids formatted per refill of a tracer's id pool
_ID_BLOCK = 256


class _Open:
    """One thread's innermost open span (or unsampled handle), whichever
    tracer began it.  A plain object: a span keeps a reference to its
    thread's, so ``finish`` restores the predecessor without another
    thread-local lookup."""

    __slots__ = ("span",)

    def __init__(self) -> None:
        self.span = None


class _Local(threading.local):
    def __init__(self) -> None:
        self.open = _Open()


_LOCAL = _Local()
#: guards what more than one thread may touch in one trace: its
#: hand-over, a span's records and its added-to attributes
_LOCK = threading.Lock()


# -- traceparent ---------------------------------------------------------------

def format_traceparent(trace_id: str, span_id: str,
                       sampled: bool = True) -> str:
    """The wire form of a span's identity (W3C trace-context style).

    The trailing flags byte carries the sampling decision: ``01`` for a
    sampled trace, ``00`` for one the head sampler dropped — a remote
    service seeing ``00`` skips server-side span capture entirely
    (PROTOCOL.md §9).
    """
    return f"00-{trace_id}-{span_id}-{'01' if sampled else '00'}"


def parse_traceparent(value: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a ``traceparent`` string, or
    ``None`` for anything malformed (propagation is best-effort: a bad
    header never fails the request it rode in on)."""
    if not value:
        return None
    parts = value.split("-")
    if len(parts) != 4:
        return None
    _, trace_id, span_id, _ = parts
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16), int(span_id, 16)
    except ValueError:
        return None
    return trace_id, span_id


def traceparent_sampled(value: str | None) -> bool:
    """The sampling flag of a ``traceparent`` string.

    Only an explicit ``00`` flags byte opts *out* of span capture;
    anything else — including malformed input — reads as sampled, so a
    caller that predates the flag keeps the pre-sampling behavior.
    """
    return not (value is not None and value.endswith("-00"))


# -- the open span ---------------------------------------------------------------

def current_span():
    """The innermost open span of this thread, or ``None`` — also inside
    a head-sampled-out trace, where nothing is recorded."""
    span = _LOCAL.open.span
    return span if span.__class__ is Span else None


def bind_span(span):
    """Make *span* current on this thread and return the span it
    replaced; bind that one back when done.  The hedged-read path binds
    its request span onto the executor threads that run its branches."""
    here = _LOCAL.open
    previous = here.span
    here.span = span
    return previous


def record_wait(kind: str, seconds: float) -> None:
    """Add *seconds* of blocking (one of :data:`WAIT_KINDS`) to the open
    span — inside a GRH dispatch, its request span.  No open span, or an
    unsampled one → a no-op.  Never raises: it is called in hot paths
    and error paths alike."""
    span = _LOCAL.open.span
    if span.__class__ is Span and seconds > 0.0:
        span.add(kind, seconds)


# -- spans ---------------------------------------------------------------------

class Span:
    """One timed unit of work inside a trace."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "started_at",
                 "ended_at", "status", "attributes", "remote", "records",
                 "_trace", "_open", "_token")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: str | None, started_at: float,
                 attributes: dict | None = None) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.started_at = started_at
        self.ended_at: float | None = None
        self.status = "ok"
        self.attributes = attributes if attributes is not None else {}
        #: recorded by another process or service and adopted here (its
        #: timestamps are anchored locally; only the duration is
        #: authoritative)
        self.remote = False
        #: co-located services' ``(name, service, status, duration)``
        #: records of work done under this span (see :func:`expand`)
        self.records: list[tuple] | None = None
        self._trace: _Trace | None = None
        self._open: _Open | None = None
        self._token = None

    @property
    def duration(self) -> float:
        """Seconds from start to end (to now, while still open)."""
        end = self.ended_at if self.ended_at is not None \
            else time.perf_counter()
        return end - self.started_at

    @property
    def traceparent(self) -> str:
        return format_traceparent(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def add(self, key: str, amount) -> None:
        """Add *amount* to a numeric attribute.

        The one attribute update safe from several threads at once
        (concurrent hedge branches); dropped once the span has finished,
        so an exported span never changes under its readers.
        """
        with _LOCK:
            if self.ended_at is None:
                attributes = self.attributes
                attributes[key] = attributes.get(key, 0) + amount

    def add_records(self, records: list[tuple]) -> None:
        """Record a co-located service's work as children of this span,
        one ``(name, service, status, duration)`` tuple each.

        Records that arrive after the trace was handed over (a hedge
        loser's) leave together, as one rootless fragment.
        """
        trace = self._trace
        with _LOCK:
            if trace is None or trace.spans is not None:
                if self.records is None:
                    self.records = list(records)
                else:
                    self.records.extend(records)
                return
        tracer = trace.tracer
        now = tracer.clock()
        tracer._hand_over([_record_span(self, tracer._next_span_id(),
                                        record, now) for record in records])

    def __repr__(self) -> str:
        state = f"{self.duration * 1e3:.3f}ms" if self.ended_at is not None \
            else "open"
        return f"<Span {self.name!r} {state} trace={self.trace_id[:8]}…>"


def _record_span(parent: Span, span_id: str, record: tuple,
                 ended_at: float) -> Span:
    """A service record built into a remote child span of *parent*."""
    name, service, status, duration = record
    span = Span(name, parent.trace_id, span_id, parent.span_id,
                ended_at - duration, {"service": service})
    span.ended_at = ended_at
    span.status = status
    span.remote = True
    return span


def expand(spans: Iterable[Span]) -> list[Span]:
    """*spans* with each span's records built into child spans, placed
    just before it (finish order) — for readers that need every span of
    a trace as a :class:`Span`.  A record's id is its parent's id with
    the record's ordinal in the top 16 bits, so repeated reads agree."""
    out: list[Span] = []
    for span in spans:
        if span.records:
            base = int(span.span_id, 16)
            for ordinal, record in enumerate(span.records, 1):
                out.append(_record_span(
                    span, f"{base ^ (ordinal << 48):016x}", record,
                    span.ended_at))
        out.append(span)
    return out


class _Trace:
    """One sampled trace's finished spans, collected until its root
    finishes; ``spans`` is ``None`` once the trace was handed over."""

    __slots__ = ("tracer", "spans")

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer
        self.spans: list[Span] | None = []

    def add(self, span: Span, root: bool = False) -> None:
        """Collect one finished span; the root hands the trace over."""
        with _LOCK:
            spans = self.spans
            if spans is not None:
                spans.append(span)
                if not root:
                    return
                self.spans = None
        self.tracer._hand_over(spans if spans is not None else [span])


class _Unsampled:
    """A head-sampled-out trace: one handle, no spans.

    The handle stands in for every span of its trace (``begin`` under it
    returns it again) and keeps only start times, so each ``finish``
    still returns a duration for the latency histograms.  It carries the
    trace id and the id its root would have had, so the ``-00``
    ``traceparent`` and log records still name the trace.
    :func:`current_span` does not return it: nothing under an unsampled
    trace is recorded, so no wait, record or marker is even measured.
    """

    __slots__ = ("name", "trace_id", "span_id", "attributes", "_starts",
                 "_open", "_token")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 attributes: dict | None, started_at: float,
                 here: _Open) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.attributes = attributes if attributes is not None else {}
        self._starts = [started_at]
        self._open = here
        self._token = here.span

    @property
    def traceparent(self) -> str:
        return format_traceparent(self.trace_id, self.span_id, False)

    def set_attribute(self, key: str, value) -> None:
        pass


class NoopSpan:
    """The disabled tracer's span: every operation is a no-op."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    status = "ok"
    attributes: dict = {}
    duration = 0.0
    #: ``None`` so callers never stamp a traceparent from a noop span
    traceparent = None

    def set_attribute(self, key: str, value) -> None:
        pass


NOOP_SPAN = NoopSpan()


# -- tracers -------------------------------------------------------------------

class Tracer:
    """Creates spans, tracks the open one, hands finished traces over.

    The open span is thread-local: concurrent GRH dispatches each see
    their own ancestry.  ``begin`` makes the new span current and
    ``finish`` restores its predecessor, so straight-line code gets
    correct parent/child links without passing spans around.

    ``sampler`` (see :mod:`repro.obs.ops.sampling`) decides, per *root*
    span, whether the trace is kept; an unsampled trace builds no spans
    (see :class:`_Unsampled`), and its verdict rides the ``traceparent``
    flags byte so remote services skip capture too.
    """

    def __init__(self, exporters: Iterable = (),
                 clock: Callable[[], float] = time.perf_counter,
                 sampler=None) -> None:
        self._exports = [exporter.export for exporter in exporters]
        self.clock = clock
        self.sampler = sampler
        # span ids: one 64-bit random seed xor a counter — unique within
        # and (by the seed) across processes, no per-span entropy cost;
        # a trace id is the seed's hex before its root's span id
        self._seed = int.from_bytes(os.urandom(8), "big")
        self._trace_prefix = f"{self._seed:016x}"
        self._id_blocks = itertools.count()
        self._id_pool: list[str] = []

    def add_exporter(self, exporter) -> None:
        """Append an exporter to the chain (before any trace finishes)."""
        self._exports.append(exporter.export)

    def _hand_over(self, spans: list[Span]) -> None:
        for export in self._exports:
            export(spans)

    # -- id generation -----------------------------------------------------

    def _next_span_id(self) -> str:
        """Ids are formatted a block at a time: one loop per
        :data:`_ID_BLOCK` spans instead of a cold formatting call inside
        every traced booking (``begin`` pops the pool itself)."""
        try:
            return self._id_pool.pop()
        except IndexError:
            last = (next(self._id_blocks) + 1) * _ID_BLOCK
            seed = self._seed
            self._id_pool.extend([f"{seed ^ counter:016x}" for counter
                                  in range(last, last - _ID_BLOCK, -1)])
            return self._next_span_id()

    # -- lifecycle ---------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span of this thread (an unsampled trace's
        handle included)."""
        return _LOCAL.open.span

    def begin(self, name: str, attributes: dict | None = None,
              parent: Span | None | object = ...) -> Span:
        """Start a span and make it current.

        ``parent`` defaults to the current span; pass ``None`` to force
        a new root (a new trace id).
        """
        here = _LOCAL.open
        previous = here.span
        if parent is ...:
            parent = previous
        if parent.__class__ is _Unsampled:
            parent._starts.append(self.clock())
            here.span = parent
            return parent
        try:
            span_id = self._id_pool.pop()
        except IndexError:
            span_id = self._next_span_id()
        if parent is None:
            trace_id = self._trace_prefix + span_id
            sampler = self.sampler
            if sampler is not None and not sampler.sample(trace_id):
                span = _Unsampled(name, trace_id, span_id, attributes,
                                  self.clock(), here)
                here.span = span
                return span
            span = Span(name, trace_id, span_id, None, self.clock(),
                        attributes)
            span._trace = _Trace(self)
        else:
            span = Span(name, parent.trace_id, span_id, parent.span_id,
                        self.clock(), attributes)
            span._trace = parent._trace
        span._open = here
        span._token = previous
        here.span = span
        return span

    def finish(self, span: Span, status: str | None = None) -> float:
        """End a span, restore its predecessor as current and return its
        duration in seconds.  Finishing a root hands its trace over."""
        now = self.clock()
        if span.__class__ is _Unsampled:
            starts = span._starts
            started = starts.pop()
            if not starts:
                span._open.span = span._token
            return now - started
        span.ended_at = now
        if status is not None:
            span.status = status
        span._open.span = span._token
        span._token = None
        span._trace.add(span, root=span.parent_id is None)
        return now - span.started_at

    def adopt(self, span_dict: dict, parent: Span | None = None
              ) -> Span | None:
        """Import a finished span recorded by another process.

        The remote clock is unrelated to ours, so the span is anchored
        at adoption time and only its duration is kept.  With *parent*
        (the GRH request span whose ``traceparent`` reached the remote
        service) it joins that span's trace; without one it is handed
        over alone.  Returns the adopted span, or ``None`` for malformed
        input or an unsampled parent.
        """
        if parent.__class__ is _Unsampled:
            return None
        try:
            duration = float(span_dict.get("duration", 0.0))
            now = self.clock()
            span = Span(str(span_dict["name"]), str(span_dict["trace"]),
                        str(span_dict["id"]), span_dict.get("parent"),
                        now - duration,
                        dict(span_dict.get("attributes") or {}))
        except (KeyError, TypeError, ValueError):
            return None
        span.ended_at = span.started_at + duration
        span.status = str(span_dict.get("status", "ok"))
        span.remote = True
        if parent is None:
            self._hand_over([span])
        else:
            parent._trace.add(span)
        return span


class NoopTracer:
    """API-compatible tracer that records nothing.

    :class:`~repro.obs.Observability` exposes it when disabled, so user
    code holding an observability handle can call ``tracer.begin`` /
    ``tracer.finish`` unconditionally at near-zero cost.
    """

    def current(self) -> None:
        return None

    def begin(self, name: str, attributes: dict | None = None,
              parent=...) -> NoopSpan:
        return NOOP_SPAN

    def finish(self, span, status: str | None = None) -> float:
        return 0.0

    def adopt(self, span_dict: dict, parent=None) -> None:
        return None


NOOP_TRACER = NoopTracer()


# -- exporters -----------------------------------------------------------------
#
# An exporter's ``export`` receives one handed-over trace: a list of
# finished spans in finish order, the root last — or a rootless
# fragment, a span that finished after its trace was handed over.

def span_to_dict(span: Span) -> dict:
    """The span's portable form (JSONL lines, ``log:spans`` markup)."""
    record = {"trace": span.trace_id, "id": span.span_id,
              "parent": span.parent_id, "name": span.name,
              "status": span.status, "duration": span.duration}
    if span.attributes:
        record["attributes"] = span.attributes
    if span.remote:
        record["remote"] = True
    return record


class RingBufferExporter:
    """Keeps the last ``capacity`` finished spans in memory.

    A span's records ride along with it and are built into spans when
    read, so ``capacity`` (and ``len``) counts the spans the tracer
    began or adopted.  Export takes the lock once per trace; readers
    copy under the same lock, because iterating the deque while another
    thread appends raises ``RuntimeError: deque mutated during
    iteration``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def export(self, spans: list[Span]) -> None:
        with self._lock:
            self._spans.extend(spans)

    def spans(self) -> list[Span]:
        with self._lock:
            retained = list(self._spans)
        return expand(retained)

    def trace(self, trace_id: str) -> list[Span]:
        """Every retained span of one trace, oldest-finished first."""
        with self._lock:
            retained = [span for span in self._spans
                        if span.trace_id == trace_id]
        return expand(retained)

    def trace_ids(self) -> list[str]:
        """Distinct trace ids, oldest first."""
        seen: dict[str, None] = {}
        with self._lock:
            for span in self._spans:
                seen.setdefault(span.trace_id, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self._spans)


class JsonlExporter:
    """Appends one JSON line per finished span to a file.

    ``max_bytes`` caps the file: when set, the file rotates through
    ``backups`` numbered siblings (``path.1`` … ``path.N``, oldest
    dropped) instead of growing without bound on long runs — the same
    :class:`~repro.obs.sink.RotatingSink` the structured logger writes
    through.  ``max_bytes=None`` keeps the unbounded seed behavior.
    """

    def __init__(self, path: str, max_bytes: int | None = None,
                 backups: int = 3) -> None:
        self.path = path
        self._sink = RotatingSink(path, max_bytes=max_bytes,
                                  backups=backups)

    @property
    def rotations(self) -> int:
        return self._sink.rotations

    def export(self, spans: list[Span]) -> None:
        for span in expand(spans):
            self._sink.write(json.dumps(span_to_dict(span),
                                        separators=(",", ":")))

    def flush(self) -> None:
        self._sink.flush()

    def close(self) -> None:
        self._sink.close()


# -- trace rendering -----------------------------------------------------------

def render_trace(spans: list[Span]) -> str:
    """An indented tree of one trace's spans, durations in ms.

    Spans whose parent was not retained (ring-buffer eviction) render as
    extra roots rather than disappearing.
    """
    by_id = {span.span_id: span for span in spans}
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        key = span.parent_id if span.parent_id in by_id else None
        children.setdefault(key, []).append(span)
    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        flags = " remote" if span.remote else ""
        status = "" if span.status == "ok" else f" [{span.status}]"
        attrs = ""
        if span.attributes:
            attrs = " " + " ".join(f"{k}={v}" for k, v in
                                   sorted(span.attributes.items()))
        lines.append(f"{'  ' * depth}{span.name} "
                     f"{span.duration * 1e3:.3f}ms{status}{flags}{attrs}")
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)


#: annotation span ids: same seed-plus-counter scheme as the tracer's
_annotation_seed = int.from_bytes(os.urandom(8), "big")
_annotation_ids = itertools.count(1)


def next_annotation_id() -> str:
    """A span id for a server-side annotation (no per-span entropy)."""
    return f"{(_annotation_seed ^ next(_annotation_ids)) & 0xFFFFFFFFFFFFFFFF:016x}"


# -- log:spans markup ----------------------------------------------------------

def spans_to_xml(span_dicts: Iterable[dict]) -> Element:
    """``log:spans`` — server-side spans annotated onto a response."""
    wrapper = Element(SPANS_QNAME, nsdecls={"log": LOG_NS})
    for record in span_dicts:
        attributes = {QName(None, "trace"): str(record["trace"]),
                      QName(None, "id"): str(record["id"]),
                      QName(None, "name"): str(record["name"]),
                      QName(None, "status"): str(record.get("status", "ok")),
                      QName(None, "duration"):
                      repr(float(record.get("duration", 0.0)))}
        if record.get("parent"):
            attributes[QName(None, "parent")] = str(record["parent"])
        if record.get("attributes"):
            attributes[QName(None, "attrs")] = json.dumps(
                record["attributes"], separators=(",", ":"))
        wrapper.append(Element(_SPAN, attributes))
    return wrapper


def xml_to_span_dicts(element: Element) -> list[dict]:
    """Parse a ``log:spans`` annotation; malformed entries are skipped
    (observability must never fail the request it is annotating), and a
    ``duration`` that is not a finite, non-negative number reads as 0."""
    records: list[dict] = []
    for child in element.findall(_SPAN):
        trace = child.get("trace")
        span_id = child.get("id")
        name = child.get("name")
        if not trace or not span_id or not name:
            continue
        record = {"trace": trace, "id": span_id, "name": name,
                  "parent": child.get("parent"),
                  "status": child.get("status", "ok"), "remote": True}
        try:
            duration = float(child.get("duration", "0"))
        except ValueError:
            duration = 0.0
        record["duration"] = duration if 0.0 <= duration < math.inf \
            else 0.0
        attrs = child.get("attrs")
        if attrs:
            try:
                record["attributes"] = json.loads(attrs)
            except ValueError:
                pass
        records.append(record)
    return records
