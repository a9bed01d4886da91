"""Replica health: the board the router scores replicas on and the
background prober that revives killed ones (PROTOCOL.md §12.2).

The :class:`~repro.grh.resilience.ResilienceManager` owns the board —
it is the component that routes on it — and the GRH starts the prober
when it first routes a replicated HTTP language.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterable

__all__ = ["HEALTHY", "SUSPECT", "DOWN", "ReplicaHealthBoard",
           "HealthProber"]

#: replica health states: ``healthy`` replicas take traffic, ``suspect``
#: ones are deprioritized by the router's score, ``down`` ones are
#: skipped while any alternative is live
HEALTHY, SUSPECT, DOWN = "healthy", "suspect", "down"


class _ReplicaState:
    """Mutable per-address health record; guarded by the board's lock."""

    __slots__ = ("address", "state", "in_flight", "ewma", "failures",
                 "successes", "latencies", "probes", "probe_failures")

    def __init__(self, address: str) -> None:
        self.address = address
        self.state = HEALTHY
        self.in_flight = 0
        #: seconds; 0.0 until the first completed request
        self.ewma = 0.0
        self.failures = 0          # consecutive connection-level failures
        self.successes = 0
        self.latencies: deque[float] = deque(maxlen=64)
        self.probes = 0
        self.probe_failures = 0


class ReplicaHealthBoard:
    """Per-replica health state for every address the GRH dispatches to.

    Fed *passively* by the :class:`~repro.grh.resilience.ResilienceManager`
    (connection-level failures and timeouts mark a replica suspect, then
    down; breaker trips mark it down; a clean ``log:error`` from a live
    service marks it suspect — the service answered, so it is not dead)
    and *actively* by a :class:`HealthProber` that confirms liveness via
    ``/healthz`` and restores killed-and-restarted replicas to rotation.

    The board also carries the router's load signals: an in-flight count
    and a latency EWMA per address (power-of-two-choices score), plus a
    small latency window for the hedging delay's p95.  Thread-safe — the
    GRH dispatches from many worker threads at once.
    """

    def __init__(self, suspect_after: int = 1, down_after: int = 3,
                 ewma_alpha: float = 0.2) -> None:
        if not 1 <= suspect_after <= down_after:
            raise ValueError("need 1 <= suspect_after <= down_after")
        self.suspect_after = suspect_after
        self.down_after = down_after
        self.ewma_alpha = ewma_alpha
        self._states: dict[str, _ReplicaState] = {}
        self._lock = threading.Lock()
        self.transitions = 0

    def _state(self, address: str) -> _ReplicaState:
        state = self._states.get(address)
        if state is None:
            state = self._states[address] = _ReplicaState(address)
        return state

    def _move(self, record: _ReplicaState, state: str) -> None:
        if record.state != state:
            record.state = state
            self.transitions += 1

    def track(self, address: str) -> None:
        with self._lock:
            self._state(address)

    def forget(self, address: str) -> None:
        """Drop a churned-out address (replica restarted on a new port)."""
        with self._lock:
            self._states.pop(address, None)

    def addresses(self) -> list[str]:
        with self._lock:
            return list(self._states)

    # -- router signals ------------------------------------------------------

    def begin(self, address: str) -> None:
        with self._lock:
            self._state(address).in_flight += 1

    def end(self, address: str) -> None:
        with self._lock:
            state = self._state(address)
            if state.in_flight > 0:
                state.in_flight -= 1

    def score(self, address: str) -> float:
        """Power-of-two-choices score: lower is better.  In-flight load
        weighted by the replica's latency EWMA (1 ms floor so a replica
        with no samples yet still orders by queue depth), with a suspect
        penalty so a degraded replica only wins when clearly idle."""
        with self._lock:
            state = self._state(address)
            score = (state.in_flight + 1) * max(state.ewma, 0.001)
            if state.state == SUSPECT:
                score *= 8.0
            return score

    # -- passive signals (ResilienceManager) ---------------------------------

    def record_success(self, address: str, latency: float) -> None:
        with self._lock:
            state = self._state(address)
            state.failures = 0
            state.successes += 1
            if latency >= 0:
                state.latencies.append(latency)
                state.ewma = latency if state.ewma == 0.0 else (
                    state.ewma + self.ewma_alpha * (latency - state.ewma))
            self._move(state, HEALTHY)

    def record_failure(self, address: str) -> None:
        """One connection-level failure (refused, reset, timed out)."""
        with self._lock:
            state = self._state(address)
            state.failures += 1
            if state.failures >= self.down_after:
                self._move(state, DOWN)
            elif state.failures >= self.suspect_after:
                self._move(state, SUSPECT)

    def record_error(self, address: str) -> None:
        """A service-reported error: the replica is alive but unwell."""
        with self._lock:
            state = self._state(address)
            if state.state == HEALTHY:
                self._move(state, SUSPECT)

    def mark_down(self, address: str) -> None:
        """Breaker trip: stop routing here until a probe or a success."""
        with self._lock:
            self._move(self._state(address), DOWN)

    # -- active signals (HealthProber) ---------------------------------------

    def record_probe(self, address: str, alive: bool) -> None:
        with self._lock:
            state = self._state(address)
            state.probes += 1
            if alive:
                state.failures = 0
                # liveness is all a probe proves: revive DOWN replicas,
                # but leave SUSPECT for record_success on real traffic —
                # a replica answering /healthz while erroring on real
                # requests must keep its routing penalty
                if state.state == DOWN:
                    self._move(state, HEALTHY)
            else:
                state.probe_failures += 1
                self._move(state, DOWN)

    # -- queries -------------------------------------------------------------

    def state_of(self, address: str) -> str:
        with self._lock:
            state = self._states.get(address)
            return state.state if state is not None else HEALTHY

    def is_down(self, address: str) -> bool:
        with self._lock:
            state = self._states.get(address)
            return state is not None and state.state == DOWN

    def live(self, addresses: Iterable[str]) -> list[str]:
        """Addresses not marked down; all of them when everything is
        down — a fully-dark replica set still gets traffic (the request
        itself is the cheapest possible probe)."""
        addresses = list(addresses)
        with self._lock:
            up = [address for address in addresses
                  if (state := self._states.get(address)) is None
                  or state.state != DOWN]
        return up or addresses

    def p95(self, addresses: Iterable[str]) -> float | None:
        """p95 latency over the replicas' recent windows (hedge delay)."""
        samples: list[float] = []
        with self._lock:
            for address in addresses:
                state = self._states.get(address)
                if state is not None:
                    samples.extend(state.latencies)
        if len(samples) < 8:
            return None
        samples.sort()
        return samples[min(len(samples) - 1, int(len(samples) * 0.95))]

    def snapshot(self) -> dict:
        """Per-address health for ``/introspect/replicas`` and metrics."""
        with self._lock:
            return {
                address: {
                    "state": state.state,
                    "in_flight": state.in_flight,
                    "ewma_s": state.ewma,
                    "consecutive_failures": state.failures,
                    "successes": state.successes,
                    "probes": state.probes,
                    "probe_failures": state.probe_failures,
                }
                for address, state in self._states.items()
            }


class HealthProber:
    """Low-rate background ``/healthz`` prober feeding the health board.

    *Any* HTTP response proves liveness — a replica without an
    introspection surface answers 404/405 on ``/healthz`` and is still
    alive; only a connection-level failure marks it down.  Non-HTTP
    addresses (in-process services) are skipped: passive signals cover
    them.  The thread is a daemon, but :meth:`stop` joins it so engine
    shutdown leaves nothing running (PROTOCOL.md §12).
    """

    def __init__(self, board: ReplicaHealthBoard,
                 addresses: Callable[[], Iterable[str]],
                 interval: float = 1.0, timeout: float = 1.0,
                 probe: Callable[[str], bool] | None = None) -> None:
        self.board = board
        self.addresses = addresses
        self.interval = interval
        self.timeout = timeout
        self._probe = probe if probe is not None else self._http_probe
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.cycles = 0

    def _http_probe(self, address: str) -> bool:
        import http.client
        from urllib.parse import urlsplit
        parts = urlsplit(address)
        conn_cls = http.client.HTTPSConnection if parts.scheme == "https" \
            else http.client.HTTPConnection
        connection = conn_cls(parts.hostname, parts.port,
                              timeout=self.timeout)
        try:
            path = parts.path.rstrip("/") + "/healthz"
            connection.request("GET", path)
            connection.getresponse().read()
            return True
        # HTTPException covers garbage/partial responses (BadStatusLine,
        # LineTooLong, ...) which are not OSErrors — a replica answering
        # gibberish is not provably alive
        except (OSError, http.client.HTTPException):
            return False
        finally:
            connection.close()

    def probe_once(self) -> None:
        """One probe sweep over every HTTP address (also used directly
        by tests and the chaos bench to force a health refresh)."""
        for address in list(self.addresses()):
            if self._stop.is_set():
                return
            if not address.startswith(("http://", "https://")):
                continue
            self.board.record_probe(address, self._probe(address))
        self.cycles += 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.probe_once()
            except Exception:
                # one bad sweep (an injected probe raising, a URL that
                # fails to parse) must not kill the loop: a silently dead
                # prober would leave DOWN replicas out of rotation forever
                continue

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="eca-health-prober",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()
