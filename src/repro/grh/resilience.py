"""Resilience for the mediation layer: retries, breakers, dead letters.

The paper's component-language services are *autonomous* and possibly
remote (Sec. 4.4) — they fail, time out and recover on their own
schedule.  Homogeneous reaction-rule systems (ECA-LP / ECA-RuleML)
treat failure handling as first-class; this module provides the
equivalent for the heterogeneous-services setting, at the one place all
service traffic passes through — the Generic Request Handler:

* :class:`RetryPolicy` — per-language retry with exponential backoff and
  *deterministic* jitter (no hidden randomness: the jitter is a hash of
  the endpoint and the attempt number, so tests and replays are exact);
* :class:`CircuitBreaker` — per-endpoint closed → open → half-open
  breaker that sheds load to services that keep failing instead of
  stacking timeouts onto every rule instance;
* :class:`DeadLetterQueue` — failed detections and the unexecuted suffix
  of failed action requests are captured for later replay via
  :meth:`repro.core.ECAEngine.replay_dead_letters`;
* :class:`ResilienceManager` — owns the policies, breakers, counters,
  the replica health board it routes on and the injectable
  ``clock``/``sleep`` used by all of the above.

Failure classification (see docs/PROTOCOL.md §6/§11): a
transport-level failure (connection refused, a dead socket, a gateway
502/503/504, a crash inside an in-process service) is **transient** —
it is retried and counted against the endpoint's breaker.  A clean
``log:error`` response *or an HTTP error status from a live service*
(the transport marks it ``service_reported``) is an **application
error** from a healthy service — it is not retried (unless the policy
opts in) and never trips the breaker.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, TYPE_CHECKING

from ..obs.trace import bind_span, current_span, record_wait
from .health import ReplicaHealthBoard
from .messages import Detection, Request, dead_letter_to_xml, request_to_xml

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..bindings import Relation
    from ..xmlmodel import Element
    from .component import ComponentSpec
    from .registry import LanguageDescriptor

__all__ = ["GRHError", "CircuitOpenError", "ActionExecutionError",
           "TransientServiceFailure", "ServiceReportedError",
           "RetryPolicy", "BreakerPolicy", "HedgePolicy", "CircuitBreaker",
           "DeadLetter", "DeadLetterQueue", "ResilienceManager"]


class GRHError(RuntimeError):
    """Raised when mediation fails (unknown language, service error...)."""


class CircuitOpenError(GRHError):
    """The endpoint's circuit breaker is open; the request was shed."""


class ActionExecutionError(GRHError):
    """An action component's request failed.

    The service runs the request's tuples in relation order and stops at
    the first that fails: ``executed`` is the length of the prefix it
    reported as run (0 when no answer came back — then every tuple is
    uncertain); ``remaining`` holds the failed tuple and every tuple
    after it (the same relation is captured in the dead letter queue for
    replay).  ``executed + len(remaining)`` is the number of distinct
    tuples of the component's relation (PROTOCOL.md §7).
    """

    def __init__(self, message: str, executed: int = 0,
                 remaining: "Relation | None" = None) -> None:
        super().__init__(message)
        self.executed = executed
        self.remaining = remaining


class TransientServiceFailure(RuntimeError):
    """Internal: transport/crash failure — retryable, counts for breaker."""


class ServiceReportedError(RuntimeError):
    """Internal: the service answered ``log:error`` — an application
    error from a healthy service (not retried by default).

    ``executed`` is the ``log:error``'s count of action tuples that ran
    before the failing one (``None`` when it carries none).  A report of
    partial progress is never retried: the same request would run the
    committed prefix again."""

    def __init__(self, message: str, executed: int | None = None) -> None:
        super().__init__(message)
        self.executed = executed


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry one service request.

    The default (``max_attempts=1``) performs no retries, keeping the
    seed semantics.  ``timeout`` (seconds) is propagated per-request into
    timeout-capable transports.  Jitter is deterministic: attempt ``n``
    against endpoint ``a`` always sleeps the same amount.
    """

    max_attempts: int = 1
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    timeout: float | None = None
    #: opt in to retrying clean ``log:error`` responses too
    retry_on_service_errors: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be non-negative")

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered
        deterministically by ``key`` (normally the endpoint address)."""
        delay = min(self.max_delay,
                    self.base_delay * self.backoff_factor ** (attempt - 1))
        if self.jitter:
            frac = zlib.crc32(f"{key}#{attempt}".encode()) % 1000 / 1000.0
            delay *= 1.0 + self.jitter * frac
        return delay


@dataclass(frozen=True)
class BreakerPolicy:
    """When a per-endpoint circuit breaker opens and how it recovers."""

    failure_threshold: int = 5
    reset_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout < 0:
            raise ValueError("reset_timeout must be non-negative")


@dataclass(frozen=True)
class HedgePolicy:
    """When a replicated read sends a hedged second request.

    ``delay`` pins the hedge delay; ``None`` (the default) adapts it to
    the replica set's observed p95 latency, clamped to
    ``[min_delay, max_delay]``, falling back to ``initial_delay`` until
    enough samples exist.  ``max_threads`` bounds the shared executor
    the racing branches run on (PROTOCOL.md §12).
    """

    delay: float | None = None
    initial_delay: float = 0.05
    min_delay: float = 0.005
    max_delay: float = 2.0
    max_threads: int = 16

    def __post_init__(self) -> None:
        if self.max_threads < 2:
            raise ValueError("max_threads must be >= 2")
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValueError("need 0 <= min_delay <= max_delay")


class CircuitBreaker:
    """Closed → open → half-open breaker for one endpoint.

    Closed: requests pass; consecutive transient failures count toward
    the threshold.  Open: requests are shed without touching the
    transport until ``reset_timeout`` has elapsed.  Half-open: exactly
    *one* probe request passes (``probing`` latches under the manager's
    lock; concurrent callers are shed until the probe settles); success
    closes the breaker, failure reopens it.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = "closed"
        self.failures = 0
        self.opened_at = 0.0
        self.opens = 0
        #: a half-open probe request is in flight; cleared when the
        #: probe settles (success, transient failure, or release)
        self.probing = False

    def allow(self, now: float) -> bool:
        if self.state == "open":
            if now - self.opened_at >= self.policy.reset_timeout:
                self.state = "half_open"
                self.probing = True
                return True
            return False
        if self.state == "half_open":
            if self.probing:
                return False
            self.probing = True
            return True
        return True

    def retry_after(self, now: float) -> float:
        if self.state == "open":
            return max(0.0,
                       self.policy.reset_timeout - (now - self.opened_at))
        if self.state == "half_open" and self.probing:
            # conservative: the in-flight probe either closes the
            # breaker soon or reopens it for a full reset window
            return self.policy.reset_timeout
        return 0.0

    def release_probe(self) -> None:
        """The probe ended without reaching the breaker (e.g. a clean
        service-reported error): let the next caller probe instead of
        latching half-open shut forever."""
        self.probing = False

    def record_success(self) -> None:
        self.failures = 0
        self.probing = False
        if self.state != "closed":
            self.state = "closed"

    def record_failure(self, now: float) -> bool:
        """Count one transient failure; returns True if this opened
        (or re-opened) the breaker."""
        self.failures += 1
        self.probing = False
        if (self.state == "half_open"
                or self.failures >= self.policy.failure_threshold):
            self.state = "open"
            self.opened_at = now
            self.failures = 0
            self.opens += 1
            return True
        return False


@dataclass
class DeadLetter:
    """One failed unit of work, parked for replay.

    ``kind`` is ``"detection"`` (a rule instance whose evaluation failed
    — replay re-runs the whole instance) or ``"action"`` (an action
    request that failed part-way — replay executes the failed tuple and
    every tuple after it, never the ones the service reported as run).
    """

    kind: str
    error: str
    enqueued_at: float = 0.0
    #: 1 when first parked; a letter re-parked by a failed replay has
    #: the replayed letter's count plus one
    attempts: int = 1
    #: park-order sequence stamped by the queue and journaled with the
    #: letter: replay follows it so the same set of letters always
    #: replays in the same, reproducible order — even when concurrent
    #: workers parked them in racing interleavings
    seq: int = 0
    #: detection letters
    detection: Detection | None = None
    #: action letters
    component_id: str | None = None
    spec: "ComponentSpec | None" = None
    bindings: "Relation | None" = None
    #: the idempotency key each tuple of ``bindings`` was dispatched
    #: under (``None`` when the engine is not durable): replay sends them
    #: again, so a tuple whose effect landed but whose answer was lost is
    #: suppressed by the service instead of running twice
    dedups: "tuple[str | None, ...] | None" = None

    def begin(self, tuples) -> "tuple[str | None, ...] | None":
        """The exactly-once guard of a replay (``guard.begin`` of
        :meth:`~repro.grh.GenericRequestHandler.execute_action`): the keys
        the parked tuples already have.  Their intent record was
        journaled before the first dispatch, so nothing is written."""
        return self.dedups

    def to_xml(self) -> "Element":
        """``log:deadletter`` markup, for archiving or monitoring UIs."""
        from .messages import detection_to_xml
        payload = None
        if self.kind == "detection" and self.detection is not None:
            payload = detection_to_xml(self.detection)
        elif self.kind == "action" and self.bindings is not None:
            payload = request_to_xml(Request("action", self.component_id,
                                             self.spec.payload(),
                                             self.bindings,
                                             dedups=self.dedups))
        return dead_letter_to_xml(self.kind, self.error, self.attempts,
                                  payload)


class DeadLetterQueue:
    """Bounded FIFO of :class:`DeadLetter`, in ``seq`` (park) order.

    A letter joins through :meth:`append` and leaves only through
    :meth:`settle`; replay walks :meth:`pending`, which removes nothing.
    ``on_park(letter, replaces)`` and ``on_settle(letter, actions)`` are
    the hooks the durability layer installs to journal both;
    :meth:`restore` refills the queue on recovery without them, each
    letter keeping its journaled ``seq``.

    Thread-safe: workers park concurrently, and every park stamps the
    letter's ``seq`` under the queue lock.  The hooks fire *after* that
    lock is released (they take the durability manager's lock, which
    may be held by whoever iterates this queue — an ABBA deadlock
    otherwise), but under ``_hook_lock``, acquired first and held
    through the hooks, so journal order is seq order.
    """

    def __init__(self, max_size: int = 1000) -> None:
        self.max_size = max_size
        #: by ``seq``; insertion order is seq order
        self._letters: dict[int, DeadLetter] = {}
        self.dropped = 0
        self.on_park: Callable[[DeadLetter, DeadLetter | None], None] | None \
            = None
        self.on_settle: Callable[[DeadLetter, int], None] | None = None
        self._lock = threading.Lock()
        #: serializes mutation + hook firing (see class docstring);
        #: always acquired before ``_lock``, never while holding it
        self._hook_lock = threading.Lock()
        self._seq = 0

    def append(self, letter: DeadLetter) -> None:
        """Park a letter."""
        self._park(letter, None)

    def settle(self, letter: DeadLetter, actions: int,
               replacement: DeadLetter | None = None) -> None:
        """Take *letter* out: its replay ran *actions* tuples, and left
        *replacement* to do, if anything — parked in its place, by one
        journal record.  A letter no longer held is left alone."""
        if replacement is not None:
            self._park(replacement, letter)
            return
        with self._hook_lock:
            with self._lock:
                if self._letters.pop(letter.seq, None) is None:
                    return
            if self.on_settle is not None:
                self.on_settle(letter, actions)

    def _park(self, letter: DeadLetter, replaces: DeadLetter | None) -> None:
        with self._hook_lock:
            with self._lock:
                if replaces is not None:
                    self._letters.pop(replaces.seq, None)
                self._seq += 1
                letter.seq = self._seq
                self._letters[letter.seq] = letter
                overflow = []
                while len(self._letters) > self.max_size:
                    overflow.append(self._letters.pop(next(iter(
                        self._letters))))
                self.dropped += len(overflow)
            if self.on_park is not None:
                self.on_park(letter, replaces)
            if self.on_settle is not None:
                for dropped in overflow:
                    self.on_settle(dropped, 0)

    def pending(self, limit: int | None = None) -> list[DeadLetter]:
        """Up to *limit* letters, oldest first, left in the queue."""
        with self._lock:
            letters = list(self._letters.values())
        return letters if limit is None else letters[:limit]

    def restore(self, letters: Iterable[DeadLetter]) -> None:
        with self._lock:
            for letter in letters:
                self._seq = max(self._seq, letter.seq)
                self._letters[letter.seq] = letter

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[DeadLetter]:
        # iterate a snapshot: a worker parking a letter mid-iteration
        # must not blow up a monitoring scrape
        return iter(self.pending())


#: sentinel distinguishing "use the default breaker" from "no breaker"
_DEFAULT = object()


class ResilienceManager:
    """Policies, breakers, dead letters and counters for one GRH.

    ``clock`` and ``sleep`` are injectable so tests (and deterministic
    replays) never wait on wall-clock time.  Per-language overrides come
    from :class:`~repro.grh.registry.LanguageDescriptor` fields; the
    manager's ``retry``/``breaker`` are the defaults.
    """

    def __init__(self, retry: RetryPolicy | None = None,
                 breaker: BreakerPolicy | None = _DEFAULT,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 max_dead_letters: int = 1000,
                 hedge: HedgePolicy | None = _DEFAULT) -> None:
        self.default_retry = retry if retry is not None else RetryPolicy()
        self.default_breaker = (BreakerPolicy() if breaker is _DEFAULT
                                else breaker)
        self.default_hedge = (HedgePolicy() if hedge is _DEFAULT else hedge)
        self.clock = clock
        self.sleep = sleep
        self.dead_letters = DeadLetterQueue(max_dead_letters)
        self._breakers: dict[str, CircuitBreaker] = {}
        self.retries = 0
        self.attempts = 0
        self.breaker_opens = 0
        self.breaker_rejections = 0
        self.failovers = 0
        self.hedges_launched = 0
        self.hedge_outcomes = {"primary_won": 0, "hedge_won": 0,
                               "discarded": 0}
        self._per_service: dict[str, dict[str, int]] = {}
        #: guards the counters, per-service tallies and breaker state:
        #: the GRH may be dispatched from several threads at once, and
        #: plain ``int += 1`` loses increments under contention
        self._lock = threading.Lock()
        #: observability hook: called as ``observer(event, address)`` for
        #: ``"retry"``, ``"breaker_open"``, ``"breaker_close"``,
        #: ``"breaker_reject"`` and ``"failover"`` — always *outside*
        #: ``_lock``, so the observer may take its own locks (tracer,
        #: log sink) without risking lock-order deadlocks.  ``None``
        #: (default) is free.
        self.observer: Callable[[str, str], None] | None = None
        #: per-replica health/load signals the router scores replicas
        #: on (PROTOCOL.md §12.2)
        self.health = ReplicaHealthBoard()
        #: deterministic rotation for power-of-two-choices candidates
        self._route_turn = 0
        self._hedge_pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._closed = False

    # -- policy resolution ---------------------------------------------------

    def policy_for(self, descriptor: "LanguageDescriptor") -> RetryPolicy:
        return descriptor.retry if descriptor.retry is not None \
            else self.default_retry

    def timeout_for(self, descriptor: "LanguageDescriptor") -> float | None:
        if descriptor.timeout is not None:
            return descriptor.timeout
        return self.policy_for(descriptor).timeout

    def breaker_for(self, address: str,
                    descriptor: "LanguageDescriptor") -> CircuitBreaker | None:
        policy = descriptor.breaker if descriptor.breaker is not None \
            else self.default_breaker
        if policy is None:
            return None
        breaker = self._breakers.get(address)
        if breaker is None:
            with self._lock:
                breaker = self._breakers.setdefault(
                    address, CircuitBreaker(policy))
        return breaker

    # -- the retry loop ------------------------------------------------------

    def call_routed(self, addresses: Sequence[str],
                    descriptor: "LanguageDescriptor",
                    attempt: Callable[[str], object], *,
                    failover_ok: bool | None = None,
                    hedge_ok: bool = False):
        """Run one logical request against a replica set.

        ``attempt`` receives the address the router selected (power of
        two choices over in-flight count × latency EWMA, skipping
        replicas marked down).  On a connection-level failure the
        request fails over to the next live replica when ``failover_ok``
        (default: whenever there is more than one address — the caller
        gates actions on dedup safety, PROTOCOL.md §12).  ``hedge_ok``
        additionally races a hedged second request on another replica
        after a p95-based delay — read-only kinds only; first response
        wins, the loser is discarded and counted.
        """
        addresses = tuple(addresses)
        if not addresses:
            raise GRHError(
                f"language {descriptor.name!r} has no service endpoint")
        if failover_ok is None:
            failover_ok = len(addresses) > 1
        if hedge_ok and len(addresses) > 1 and not self._closed:
            policy = descriptor.hedge if descriptor.hedge is not None \
                else self.default_hedge
            if policy is not None and len(self.health.live(addresses)) > 1:
                return self._call_hedged(addresses, descriptor, attempt,
                                         policy, failover_ok)
        return self._call_failover(addresses, descriptor, attempt,
                                   failover_ok=failover_ok)

    def _admit(self, addresses: Sequence[str],
               descriptor: "LanguageDescriptor",
               excluded: set[str]) -> tuple[str, CircuitBreaker | None, bool]:
        """Select and admit one replica; ``(address, breaker, probing)``.

        Candidates exclude replicas that already failed this pass (all
        of them eligible again when that empties the set) and replicas
        the health board marks down; among the survivors, power of two
        choices — a deterministic rotation picks two neighbours, the
        lower score wins.  Raises :class:`CircuitOpenError` when every
        candidate's breaker sheds the request.
        """
        candidates = [address for address in addresses
                      if address not in excluded] or list(addresses)
        board = self.health
        if len(candidates) > 1:
            candidates = board.live(candidates)
        if len(candidates) > 1:
            with self._lock:
                turn = self._route_turn
                self._route_turn += 1
            first = candidates[turn % len(candidates)]
            second = candidates[(turn + 1) % len(candidates)]
            if board.score(second) < board.score(first):
                first, second = second, first
            order = [first, second] + [address for address in candidates
                                       if address not in (first, second)]
        else:
            order = candidates
        rejected: list[tuple[str, CircuitBreaker]] = []
        for address in order:
            breaker = self.breaker_for(address, descriptor)
            # happy path: a closed breaker admits everything — skip the
            # clock read (allow() only needs the time to leave "open")
            if breaker is None or breaker.state == "closed":
                return address, breaker, False
            with self._lock:
                admitted = breaker.allow(self.clock())
                probing = admitted and breaker.state == "half_open"
            if admitted:
                return address, breaker, probing
            rejected.append((address, breaker))
        with self._lock:
            self.breaker_rejections += 1
        now = self.clock()
        address, breaker = min(rejected,
                               key=lambda pair: pair[1].retry_after(now))
        observer = self.observer
        if observer is not None:
            observer("breaker_reject", address)
        raise CircuitOpenError(
            f"circuit open for service {descriptor.name!r} at "
            f"{address!r}; retry after {breaker.retry_after(now):.3g}s")

    def _has_alternative(self, addresses: Sequence[str],
                         failed: set[str]) -> bool:
        """Is there a live, non-shed replica left to fail over to?"""
        board = self.health
        now = None
        for address in addresses:
            if address in failed:
                continue
            if board.is_down(address):
                continue
            breaker = self._breakers.get(address)
            if breaker is not None and breaker.state == "open":
                if now is None:
                    now = self.clock()
                if breaker.retry_after(now) > 0:
                    continue
            return True
        return False

    def _call_failover(self, addresses: Sequence[str],
                       descriptor: "LanguageDescriptor",
                       attempt: Callable[[str], object], *,
                       failover_ok: bool,
                       exclude: frozenset[str] = frozenset(),
                       on_pick: Callable[[str], None] | None = None):
        """The retry + breaker + failover loop for one logical request.

        Failover (connection-level failure, another live replica
        available) retargets *immediately* and does not consume a retry
        pass; exhausting the live candidates falls back to the retry
        policy's backoff, after which every replica is eligible again.
        """
        policy = descriptor.retry if descriptor.retry is not None \
            else self.default_retry
        observer = self.observer
        # health accounting only matters when there is a routing choice;
        # single-address dispatch keeps the pre-replica happy path
        board = self.health if len(addresses) > 1 else None
        passes = 1
        failed: set[str] = set(exclude)
        while True:
            address, breaker, probing = self._admit(addresses, descriptor,
                                                    failed)
            if on_pick is not None:
                on_pick(address)
                on_pick = None
            with self._lock:
                self.attempts += 1
            if board is not None:
                board.begin(address)
            started = self.clock()
            settled = False
            try:
                result = attempt(address)
            except TransientServiceFailure:
                settled = True
                with self._lock:
                    opened = breaker is not None and \
                        breaker.record_failure(self.clock())
                    if opened:
                        self.breaker_opens += 1
                    self._record(address, ok=False)
                if board is not None:
                    board.record_failure(address)
                    if opened:
                        board.mark_down(address)
                if opened and observer is not None:
                    observer("breaker_open", address)
                failed.add(address)
                if failover_ok and self._has_alternative(addresses, failed):
                    with self._lock:
                        self.failovers += 1
                    if observer is not None:
                        observer("failover", address)
                    continue
                shed = breaker is not None and breaker.state == "open"
                if passes >= policy.max_attempts or shed:
                    raise
            except ServiceReportedError as exc:
                with self._lock:
                    self._record(address, ok=False)
                if board is not None:
                    board.record_error(address)
                if passes >= policy.max_attempts or exc.executed or \
                        not policy.retry_on_service_errors:
                    raise
            else:
                settled = True
                recovered = False
                with self._lock:
                    if breaker is not None and (breaker.failures
                                                or breaker.state != "closed"):
                        recovered = breaker.state != "closed"
                        breaker.record_success()
                    self._record(address, ok=True)
                if board is not None:
                    board.record_success(address, self.clock() - started)
                if recovered and observer is not None:
                    observer("breaker_close", address)
                return result
            finally:
                if board is not None:
                    board.end(address)
                if probing and not settled:
                    # the probe ended without reaching the breaker (a
                    # service-reported error, or a foreign exception):
                    # free the half-open slot for the next caller
                    with self._lock:
                        breaker.release_probe()
            with self._lock:
                self.retries += 1
            if observer is not None:
                observer("retry", address)
            slept_from = self.clock()
            self.sleep(policy.delay_for(passes, address))
            # backoff is idle time, not service time: attribute the gap
            # so the critical path separates "the service is slow" from
            # "we kept backing off" (PROTOCOL.md §14)
            record_wait("retry_backoff", self.clock() - slept_from)
            passes += 1
            failed = set(exclude)

    # -- hedged reads (PROTOCOL.md §12) --------------------------------------

    def hedge_delay(self, addresses: Sequence[str],
                    policy: HedgePolicy) -> float:
        """The delay before a hedged second read: pinned, or adaptive
        p95 over the replicas' recent latencies, clamped."""
        if policy.delay is not None:
            return policy.delay
        p95 = self.health.p95(addresses)
        if p95 is None:
            return policy.initial_delay
        return min(max(p95, policy.min_delay), policy.max_delay)

    def _executor(self, policy: HedgePolicy):
        with self._lock:
            if self._closed:
                return None
            if self._hedge_pool is None:
                self._hedge_pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=policy.max_threads,
                    thread_name_prefix="eca-hedge")
            return self._hedge_pool

    def _discard_hedge(self, future) -> None:
        """The losing branch completed after the race was decided:
        swallow its outcome, count the discard."""
        if not future.cancelled():
            future.exception()
        with self._lock:
            self.hedge_outcomes["discarded"] += 1

    def _call_hedged(self, addresses: Sequence[str],
                     descriptor: "LanguageDescriptor",
                     attempt: Callable[[str], object],
                     policy: HedgePolicy, failover_ok: bool):
        """Race a primary and (after the hedge delay) a second replica.

        First successful response wins; the loser is left to finish on
        the executor and its result is discarded and counted.  If one
        branch fails the other's answer is awaited; if both fail, the
        primary's error propagates.
        """
        executor = self._executor(policy)
        if executor is None:  # closed mid-flight: plain failover path
            return self._call_failover(addresses, descriptor, attempt,
                                       failover_ok=failover_ok)
        delay = self.hedge_delay(addresses, policy)
        picked: list[str] = []
        # both branches run on executor threads, off the dispatching
        # caller — bind the caller's request span onto them so waits and
        # co-located services' records inside the attempts still land on
        # this request (concurrent adds are safe; the analyzer clamps any
        # joint over-report into the request's wall budget)
        span = current_span()
        call = self._call_failover
        if span is not None:
            def call(*args, _span=span, **kwargs):
                previous = bind_span(_span)
                try:
                    return self._call_failover(*args, **kwargs)
                finally:
                    bind_span(previous)
        primary = executor.submit(
            call, addresses, descriptor, attempt,
            failover_ok=failover_ok, on_pick=picked.append)
        try:
            return primary.result(timeout=delay)
        # concurrent.futures.TimeoutError: a distinct class from the
        # builtin until 3.11 (where it became an alias, so this clause
        # covers both) — Future.result raises the futures one
        except concurrent.futures.TimeoutError:
            if primary.done():  # the call itself failed with a timeout
                raise
        if not picked:
            # the primary is still queued (hedge pool saturated) and has
            # not routed yet: a hedge launched now could land on the very
            # replica the primary later picks, doubling its load instead
            # of spreading it — await the primary alone
            return primary.result()
        with self._lock:
            self.hedges_launched += 1
        hedge = executor.submit(
            call, addresses, descriptor, attempt,
            failover_ok=failover_ok, exclude=frozenset(picked[:1]))
        pending = {primary: "primary_won", hedge: "hedge_won"}
        first_error: BaseException | None = None
        # from here the caller only waits on the race; that idle time is
        # hedge wait, not network time (PROTOCOL.md §14)
        hedged_from = self.clock()
        try:
            while pending:
                done, _ = concurrent.futures.wait(
                    list(pending),
                    return_when=concurrent.futures.FIRST_COMPLETED)
                for future in done:
                    outcome = pending.pop(future)
                    error = future.exception()
                    if error is None:
                        for loser in pending:
                            loser.add_done_callback(self._discard_hedge)
                        with self._lock:
                            self.hedge_outcomes[outcome] += 1
                        return future.result()
                    if outcome == "primary_won" or first_error is None:
                        first_error = error
        finally:
            record_wait("hedge_wait", self.clock() - hedged_from)
        raise first_error

    # -- lifecycle -----------------------------------------------------------

    def prune(self, active: Iterable[str]) -> int:
        """Evict every address not in *active*; returns the eviction
        count.  Called by the GRH when replica sets are re-pointed, so
        the breaker and stats maps stay bounded by the registered
        addresses rather than growing with historical churn."""
        active = set(active)
        evicted: set[str] = set()
        with self._lock:
            for address in [a for a in self._breakers if a not in active]:
                del self._breakers[address]
                evicted.add(address)
            for address in [a for a in self._per_service
                            if a not in active]:
                del self._per_service[address]
                evicted.add(address)
        for address in set(self.health.addresses()) - active:
            self.health.forget(address)
            evicted.add(address)
        return len(evicted)

    def close(self) -> None:
        """Stop the hedge executor (engine shutdown).  Dispatch keeps
        working afterwards — hedging is simply skipped."""
        with self._lock:
            self._closed = True
            pool, self._hedge_pool = self._hedge_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _record(self, address: str, ok: bool) -> None:
        """Tally one outcome; the caller holds ``self._lock``."""
        try:
            counts = self._per_service[address]
        except KeyError:
            counts = self._per_service[address] = {"successes": 0,
                                                   "failures": 0}
        counts["successes" if ok else "failures"] += 1

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters for ``grh.stats``: retries, breaker activity, dead
        letters and per-service failure rates."""
        services = {}
        with self._lock:
            per_service = {address: dict(counts) for address, counts
                           in self._per_service.items()}
            breakers = {address: breaker.state
                        for address, breaker in self._breakers.items()}
            retries, attempts = self.retries, self.attempts
            opens = self.breaker_opens
            rejections = self.breaker_rejections
            failovers = self.failovers
            hedges = dict(self.hedge_outcomes,
                          launched=self.hedges_launched)
        for address, counts in per_service.items():
            total = counts["successes"] + counts["failures"]
            services[address] = dict(counts,
                                     failure_rate=counts["failures"] / total
                                     if total else 0.0)
        return {
            "retries": retries,
            "attempts": attempts,
            "breaker_opens": opens,
            "breaker_rejections": rejections,
            "failovers": failovers,
            "hedges": hedges,
            "breakers": breakers,
            "dead_letters": len(self.dead_letters),
            "dead_letters_dropped": self.dead_letters.dropped,
            "services": services,
            "replicas": self.health.snapshot(),
        }
