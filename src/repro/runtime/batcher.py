"""GRH dispatch batcher: coalesce concurrent requests per language.

With several rule instances in flight, many component requests target
the same language service at nearly the same moment.  Each one is a
full transport round-trip — and for HTTP endpoints the round-trip, not
the evaluation, dominates.  :class:`DispatchBatcher` parks outgoing
``query``/``test`` requests for up to a *window* and ships every
request bound for the same language as one message through
``GenericRequestHandler.deliver`` — the GRH's one way a message
leaves it (PROTOCOL.md §10): several travel as one ``log:batch``
envelope, whose ``log:batchresults`` answer fans back positionally,
waking each blocked caller with exactly its own outcome; a lone one
travels as the plain ``log:request``.

Scope is deliberately narrow:

* only ``query`` and ``test`` requests batch — they are read-only, so
  retrying a whole envelope after a transient failure re-evaluates but
  never re-effects.  Action envelopes are not built here: the engine
  hands one group's actions to ``GenericRequestHandler.
  execute_actions`` (PROTOCOL.md §7), each slot under its own dedup
  keys.
* only non-inline addresses batch — an in-process service is a plain
  function call, there is no round-trip to amortize.
* the batcher runs no thread: the caller that opens a bucket leads it
  and ships it when the window closes, unless the caller that filled
  it, :meth:`DispatchBatcher.flush` or :meth:`DispatchBatcher.stop`
  shipped it first.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from ..grh.resilience import GRHError, TransientServiceFailure
from ..obs.trace import bind_span, record_wait

if TYPE_CHECKING:  # pragma: no cover
    from ..grh.handler import GenericRequestHandler, Route
    from ..xmlmodel import Element


class _Entry:
    """One parked request: its payload and the caller's wakeup slot."""

    __slots__ = ("payload", "event", "outcome", "parked_at", "parked")

    def __init__(self, payload: "Element") -> None:
        self.payload = payload
        self.event = threading.Event()
        #: the reply element, or this request's :class:`GRHError`
        self.outcome: Element | GRHError | None = None
        #: when this request was parked; the flush stamps ``parked``
        #: (seconds spent waiting for co-travellers) so the caller can
        #: attribute its park time (PROTOCOL.md §14)
        self.parked_at = time.monotonic()
        self.parked: float | None = None


class DispatchBatcher:
    """Coalesces same-language GRH requests into one message each.

    The request that opens a bucket leads it: it waits up to *window*
    on its own answer, then ships the bucket unless it has already
    gone.  The request that fills a bucket to *max_batch* ships it at
    once (zero added latency).  So a parked request waits at most one
    window.  The concurrent runtime wires one of these into
    ``GenericRequestHandler.batcher`` when built with
    ``Runtime(batching=True)``.
    """

    def __init__(self, grh: "GenericRequestHandler", window: float = 0.005,
                 max_batch: int = 16) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.grh = grh
        self.window = window
        self.max_batch = max_batch
        self._lock = threading.Lock()
        #: one bucket per language route — never per address: languages
        #: served at one URL keep their own envelopes, names and
        #: policies (PROTOCOL.md §10)
        self._buckets: dict["Route", list[_Entry]] = {}
        self._stop = False
        # lifetime counters (monitoring snapshots); mutated under
        # ``_lock`` — concurrent flushes increment them, and unlocked
        # ``+= 1`` loses increments.  A flush of one counts as a batch
        # of one, though it travels as the plain request
        self.batches = 0
        self.batched_requests = 0
        self.size_flushes = 0
        self.deadline_flushes = 0

    def submit(self, route: "Route", payload: "Element") -> "Element":
        """Park *payload* for the language of *route*; block until its
        message answers.

        Returns this request's own reply element, or raises its own
        :class:`GRHError` (a slot's ``log:error``, or its copy of a
        whole-message failure).
        """
        entry = _Entry(payload)
        with self._lock:
            if self._stop:
                raise TransientServiceFailure("dispatch batcher is stopped")
            bucket = self._buckets.setdefault(route, [])
            bucket.append(entry)
            leads = len(bucket) == 1
            full = len(bucket) >= self.max_batch
            if full:
                del self._buckets[route]
                self.size_flushes += 1
        if full:
            self._ship(route, bucket)
        elif leads and not entry.event.wait(self.window):
            with self._lock:
                due = self._buckets.get(route) is bucket
                if due:
                    del self._buckets[route]
                    self.deadline_flushes += 1
            if due:
                self._ship(route, bucket)
        entry.event.wait()
        if entry.parked is not None:
            # attributed on the caller's thread, where this dispatch's
            # request span is open
            record_wait("batch_park", entry.parked)
        if isinstance(entry.outcome, GRHError):
            raise entry.outcome
        return entry.outcome

    def _ship(self, route: "Route", entries: list[_Entry]) -> None:
        flush_started = time.monotonic()
        for entry in entries:
            # park time ends when the message starts travelling; the
            # round-trip after this point is network/service time
            entry.parked = flush_started - entry.parked_at
        outcomes = None
        # the message is every parked caller's, not the shipping one's:
        # ship it with no request span open, so a co-located service
        # annotates each slot for its own caller instead of recording
        # them all onto the shipping caller's span
        previous = bind_span(None)
        try:
            outcomes = self.grh.deliver(
                route, [entry.payload for entry in entries])
            with self._lock:
                self.batches += 1
                self.batched_requests += len(entries)
        finally:
            bind_span(previous)
            # never strand a parked caller, whatever escaped deliver()
            for position, entry in enumerate(entries):
                entry.outcome = outcomes[position] if outcomes is not None \
                    else GRHError("the batched message was never answered")
                entry.event.set()

    def flush(self) -> None:
        """Ship every pending bucket now (the runtime's drain path)."""
        with self._lock:
            due = list(self._buckets.items())
            self._buckets.clear()
        for route, bucket in due:
            self._ship(route, bucket)

    def stop(self) -> None:
        """Refuse new requests and ship the parked ones."""
        with self._lock:
            self._stop = True
        self.flush()

    def counters(self) -> dict:
        """Lifetime batching counters (monitoring snapshot)."""
        return {
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "size_flushes": self.size_flushes,
            "deadline_flushes": self.deadline_flushes,
        }
