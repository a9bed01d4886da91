"""GRH dispatch batcher: coalesce concurrent requests per language.

With several rule instances in flight, many component requests target
the same language service at nearly the same moment.  Each one is a
full transport round-trip — and for HTTP endpoints the round-trip, not
the evaluation, dominates.  :class:`DispatchBatcher` parks outgoing
``query``/``test`` requests for up to a *window* and ships every
request bound for the same language as one ``log:batch`` envelope
(PROTOCOL.md §10); the ``log:batchresults`` answer fans back
positionally, waking each blocked caller with exactly its own
response.  The envelope is a message like any other: it travels
through the transport's one ``send``.

Scope is deliberately narrow:

* only ``query`` and ``test`` requests batch — they are read-only, so
  retrying a whole envelope after a transient failure re-evaluates but
  never re-effects.  Action envelopes are not built here: the engine
  builds them from one group's actions (``GenericRequestHandler.
  execute_actions``, PROTOCOL.md §7), each slot under its own dedup
  keys.
* only non-inline addresses batch — an in-process service is a plain
  function call, there is no round-trip to amortize.
* resilience is per-envelope: the batch goes through
  ``ResilienceManager.call_routed`` like any single request, so
  replica routing, failover, retry policies and circuit breakers see
  batch failures exactly as they see single-request failures.  A
  per-request ``log:error`` *inside* a successful envelope is scoped
  to its one caller.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from ..grh.handler import MAX_TIMEOUT_SCALE
from ..grh.messages import (batch_to_xml, error_text, is_error,
                            xml_to_batch_results)
from ..grh.resilience import ServiceReportedError, TransientServiceFailure
from ..obs.trace import bind_span, record_wait

if TYPE_CHECKING:  # pragma: no cover
    from ..grh.handler import GenericRequestHandler, Route
    from ..xmlmodel import Element


def _scoped_copy(exc: BaseException) -> BaseException:
    """Per-caller copy of a whole-envelope failure.

    Every parked caller re-raises its error on its own thread; handing
    all of them the *same* exception object means concurrent raises
    mutate its ``__traceback__`` racily and produce tracebacks mixing
    frames from different callers.  The copy chains to the original via
    ``__cause__`` so the envelope failure stays visible.
    """
    try:
        copy = type(exc)(*exc.args)
    except Exception:
        copy = TransientServiceFailure(str(exc))
    copy.__cause__ = exc
    return copy


class _Entry:
    """One parked request: its payload and the caller's wakeup slot."""

    __slots__ = ("payload", "event", "result", "error", "parked_at",
                 "parked")

    def __init__(self, payload: "Element") -> None:
        self.payload = payload
        self.event = threading.Event()
        self.result: Element | None = None
        self.error: BaseException | None = None
        #: when this request was parked; the flush stamps ``parked``
        #: (seconds spent waiting for co-travellers) so the caller can
        #: attribute its park time (PROTOCOL.md §14)
        self.parked_at = time.monotonic()
        self.parked: float | None = None


class _Bucket:
    """Requests accumulating for one language within one window."""

    __slots__ = ("route", "deadline", "entries")

    def __init__(self, route: "Route", deadline: float) -> None:
        self.route = route
        self.deadline = deadline
        self.entries: list[_Entry] = []


class DispatchBatcher:
    """Coalesces same-language GRH requests into ``log:batch`` envelopes.

    A bucket flushes when it reaches *max_batch* requests (flushed by
    the submitting thread, zero added latency) or when its *window*
    deadline passes (flushed by the background flusher thread).  The
    concurrent runtime wires one of these into
    ``GenericRequestHandler.batcher`` when built with
    ``Runtime(batching=True)``.
    """

    def __init__(self, grh: "GenericRequestHandler", window: float = 0.005,
                 max_batch: int = 16,
                 max_timeout_scale: int = MAX_TIMEOUT_SCALE) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_timeout_scale < 1:
            raise ValueError("max_timeout_scale must be >= 1")
        self.grh = grh
        self.window = window
        self.max_batch = max_batch
        #: a deep envelope gets proportionally more wall-clock budget
        #: than a single request, capped at this factor (PROTOCOL.md §10)
        self.max_timeout_scale = max_timeout_scale
        self._lock = threading.Lock()
        #: one bucket per language route — never per address: languages
        #: served at one URL keep their own envelopes, names and
        #: policies (PROTOCOL.md §10)
        self._buckets: dict["Route", _Bucket] = {}
        self._stop = False
        # lifetime counters (monitoring snapshots); mutated under
        # ``_lock`` — submitters and the flusher increment concurrently,
        # and unlocked ``+= 1`` loses increments
        self.batches = 0
        self.batched_requests = 0
        self.size_flushes = 0
        self.deadline_flushes = 0
        self._flusher = threading.Thread(
            target=self._flush_loop, name="eca-batch-flusher", daemon=True)
        self._flusher.start()

    # -- caller side ---------------------------------------------------------

    def submit(self, route: "Route", payload: "Element") -> "Element":
        """Park *payload* for the language of *route*; block until its
        batch answers.

        Returns this request's own response element, or raises its
        scoped error (``ServiceReportedError`` for a per-request
        ``log:error``, the envelope's failure for a whole-batch one).
        """
        entry = _Entry(payload)
        ripe: _Bucket | None = None
        with self._lock:
            if self._stop:
                raise TransientServiceFailure("dispatch batcher is stopped")
            bucket = self._buckets.get(route)
            if bucket is None:
                bucket = _Bucket(route, time.monotonic() + self.window)
                self._buckets[route] = bucket
            bucket.entries.append(entry)
            if len(bucket.entries) >= self.max_batch:
                del self._buckets[route]
                self.size_flushes += 1
                ripe = bucket
        if ripe is not None:
            self._flush_bucket(ripe)
        while not entry.event.wait(1.0):
            if self._stop:
                raise TransientServiceFailure(
                    "dispatch batcher stopped while request was parked")
        if entry.parked is not None:
            # attributed on the caller's thread, where this dispatch's
            # request span is open
            record_wait("batch_park", entry.parked)
        if entry.error is not None:
            raise entry.error
        return entry.result

    # -- flushing ------------------------------------------------------------

    def _flush_loop(self) -> None:
        pause = max(self.window / 2, 0.001)
        while not self._stop:
            time.sleep(pause)
            now = time.monotonic()
            due: list[_Bucket] = []
            with self._lock:
                for route, bucket in list(self._buckets.items()):
                    if bucket.deadline <= now:
                        del self._buckets[route]
                        self.deadline_flushes += 1
                        due.append(bucket)
            for bucket in due:
                self._flush_bucket(bucket)

    def _flush_bucket(self, bucket: _Bucket) -> None:
        grh = self.grh
        entries = bucket.entries
        route = bucket.route
        descriptor = route.descriptor
        flush_started = time.monotonic()
        for entry in entries:
            # park time ends when the envelope starts travelling; the
            # round-trip after this point is network/service time
            entry.parked = flush_started - entry.parked_at
        envelope = batch_to_xml([entry.payload for entry in entries])
        timeout = grh.resilience.timeout_for(descriptor)
        if timeout is not None:
            # the policy's timeout budgets ONE request; an envelope of n
            # requests gets n budgets, capped — otherwise a deep batch
            # is held to a single request's deadline (PROTOCOL.md §10)
            timeout *= min(len(entries), self.max_timeout_scale)

        def attempt_once(address: str) -> list:
            # the envelope is a message like any other: one send, the
            # GRH's one failure taxonomy
            response = grh.exchange(grh.transport.send, address, envelope,
                                    timeout, descriptor)
            return xml_to_batch_results(response, expected=len(entries))

        # the envelope is every parked caller's, not the flushing one's:
        # ship it with no request span open, so a co-located service
        # annotates each slot for its own caller instead of recording
        # them all onto the flusher's span
        previous = bind_span(None)
        try:
            # read-only requests only: failing over to another replica
            # re-evaluates, never re-effects
            results = grh.resilience.call_routed(route.addresses, descriptor,
                                                 attempt_once)
        except BaseException as exc:
            for entry in entries:
                entry.error = _scoped_copy(exc)
                entry.event.set()
            return
        finally:
            bind_span(previous)
        with self._lock:
            self.batches += 1
            self.batched_requests += len(entries)
        for entry, result in zip(entries, results):
            if is_error(result):
                entry.error = ServiceReportedError(error_text(result))
            else:
                entry.result = result
            entry.event.set()

    def flush(self) -> None:
        """Flush every pending bucket now (the runtime's drain path)."""
        with self._lock:
            due = list(self._buckets.values())
            self._buckets.clear()
        for bucket in due:
            self._flush_bucket(bucket)

    def stop(self) -> None:
        """Flush residuals and stop the flusher thread."""
        self.flush()
        self._stop = True
        self._flusher.join(timeout=2.0)
        # wake anything still parked (a submit that raced the stop)
        with self._lock:
            residual = list(self._buckets.values())
            self._buckets.clear()
        for bucket in residual:
            self._flush_bucket(bucket)

    def counters(self) -> dict:
        """Lifetime batching counters (monitoring snapshot)."""
        return {
            "batches": self.batches,
            "batched_requests": self.batched_requests,
            "size_flushes": self.size_flushes,
            "deadline_flushes": self.deadline_flushes,
        }
