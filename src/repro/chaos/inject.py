"""Fault injection: enacting a :class:`~repro.chaos.FaultPlan`.

Three layers, composable but independent (PROTOCOL.md §12):

* :class:`ChaosTransport` wraps any transport on the *client* side and
  perturbs requests before/after they reach the real transport.  This
  is the cheap harness: no sockets are harmed, yet the GRH sees the
  exact §11 failure taxonomy (``TransportError`` for connection-level
  faults, ``ServiceStatusError`` for injected error statuses).
* :class:`ChaosService` wraps an aware handler on the *server* side,
  inside a real :class:`~repro.services.HttpServiceServer` — injected
  resets genuinely kill TCP connections mid-request, which is how the
  failover × durability test provokes "the action ran but the ack
  died" (§12.4).
* :class:`ReplicaCluster` runs N real HTTP replicas of one service
  with kill/restart on *stable* ports, so a restarted replica comes
  back on its registered address.

Determinism: every injection point keeps a per-replica request
counter; fault ``index`` is that counter, so a run that issues the same
request sequence replays the same faults.  The ``injected`` log records
``(replica, index, kind)`` tuples for the replay assertions.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from ..services.transports import (AwareHandler, HttpServiceServer,
                                   OpaqueHandler, ServiceStatusError,
                                   TransportError)
from ..xmlmodel import Element
from .plan import FaultDecision, FaultPlan

__all__ = ["ChaosTransport", "ChaosService", "ReplicaCluster"]


class _FaultCounter:
    """Thread-safe per-key monotonic request counters."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def next(self, key: str) -> int:
        with self._lock:
            index = self._counts.get(key, 0)
            self._counts[key] = index + 1
            return index

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


class ChaosTransport:
    """A transport decorator that injects the plan's faults client-side.

    ``alias`` maps concrete addresses (ephemeral localhost ports) onto
    the stable replica names the plan was authored against ("r0",
    "r1", ...) so the same plan applies across runs whose ports differ.
    Unaliased addresses fall through under their own name.

    Faults are injected *before* the wrapped transport is invoked
    (except ``slow_body``, which delays after a successful response),
    so a reset consumes no real network work.  Kill windows — measured
    from :meth:`start` on the injected clock — black-hole every request
    to the dead replica, which is how a cluster-less test simulates a
    crashed endpoint.
    """

    def __init__(self, inner, plan: FaultPlan, *,
                 alias: dict[str, str] | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.inner = inner
        self.plan = plan
        self.alias = dict(alias or {})
        self.clock = clock
        self.sleep = sleep
        self._counter = _FaultCounter()
        self._epoch: float | None = None
        #: replay log — (replica, index, kind) per injected fault
        self.injected: list[tuple[str, int, str]] = []
        self._log_lock = threading.Lock()

    # -- harness controls ----------------------------------------------------

    def start(self) -> None:
        """Start the kill-window clock (idempotent)."""
        if self._epoch is None:
            self._epoch = self.clock()

    def elapsed(self) -> float:
        return 0.0 if self._epoch is None else self.clock() - self._epoch

    def request_counts(self) -> dict[str, int]:
        return self._counter.snapshot()

    # -- injection -----------------------------------------------------------

    def _key(self, address: str) -> str:
        return self.alias.get(address, address)

    def _record(self, replica: str, index: int, kind: str) -> None:
        with self._log_lock:
            self.injected.append((replica, index, kind))

    def _perturb(self, address: str) -> FaultDecision | None:
        """Apply the pre-dispatch fault for this request; returns the
        decision when post-dispatch work (slow_body) remains."""
        replica = self._key(address)
        index = self._counter.next(replica)
        if self._epoch is not None and self.plan.killed(replica,
                                                        self.elapsed()):
            self._record(replica, index, "killed")
            raise TransportError(
                f"cannot reach {address!r}: replica killed by fault plan")
        decision = self.plan.decision(replica, index)
        if decision is None:
            return None
        self._record(replica, index, decision.kind)
        if decision.kind == "latency":
            self.sleep(decision.delay)
            return None
        if decision.kind == "reset":
            raise TransportError(
                f"cannot reach {address!r}: injected connection reset")
        if decision.kind == "blackhole":
            self.sleep(decision.delay)
            raise TransportError(
                f"cannot reach {address!r}: injected blackhole timed out")
        if decision.kind == "error":
            # mirror transports._raise_for_status: gateway statuses stay
            # transient, anything else is the service's own report
            if decision.status in (502, 503, 504):
                raise TransportError(
                    f"cannot reach {address!r}: HTTP {decision.status} "
                    f"injected")
            raise ServiceStatusError(
                decision.status,
                f"HTTP {decision.status} injected from {address!r}")
        return decision  # slow_body: delay after the real call

    def _after(self, decision: FaultDecision | None) -> None:
        if decision is not None and decision.kind == "slow_body":
            self.sleep(decision.delay)

    # -- the transport contract ----------------------------------------------

    def dispatches_inline(self, address: str) -> bool:
        return self.inner.dispatches_inline(address)

    def bind(self, address: str, handler: AwareHandler) -> str:
        return self.inner.bind(address, handler)

    def bind_opaque(self, address: str, handler: OpaqueHandler) -> str:
        return self.inner.bind_opaque(address, handler)

    def send(self, address: str, message: Element,
             timeout: float | None = None) -> Element:
        decision = self._perturb(address)
        result = self.inner.send(address, message, timeout=timeout)
        self._after(decision)
        return result

    def fetch(self, address: str, query: str,
              timeout: float | None = None) -> str:
        decision = self._perturb(address)
        result = self.inner.fetch(address, query, timeout=timeout)
        self._after(decision)
        return result

    def pool_stats(self) -> dict[str, dict]:
        stats = getattr(self.inner, "pool_stats", None)
        return stats() if stats is not None else {}

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


class ChaosService:
    """An aware-handler decorator that injects faults server-side.

    Lives inside a real :class:`HttpServiceServer`, so an injected
    ``reset`` raises :class:`ConnectionResetError` — which the HTTP
    handler re-raises to abort the socket without answering.  Crucially
    the wrapped handler *may already have run* when the reset fires
    (``reset_after_work=True``): the client saw a connection-level
    failure, the service saw a completed action.  That is the ambiguity
    the §12.4 failover × durability test exercises — only service-side
    dedup makes re-dispatch after such a failure exactly-once.
    """

    def __init__(self, handler: AwareHandler, plan: FaultPlan, replica: str,
                 *, reset_after_work: bool = False,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.handler = handler
        self.plan = plan
        self.replica = replica
        self.reset_after_work = reset_after_work
        self.sleep = sleep
        self._counter = _FaultCounter()
        self.injected: list[tuple[str, int, str]] = []
        self._log_lock = threading.Lock()

    def __call__(self, message: Element) -> Element:
        index = self._counter.next(self.replica)
        decision = self.plan.decision(self.replica, index)
        if decision is None:
            return self.handler(message)
        with self._log_lock:
            self.injected.append((self.replica, index, decision.kind))
        if decision.kind == "latency":
            self.sleep(decision.delay)
            return self.handler(message)
        if decision.kind == "slow_body":
            result = self.handler(message)
            self.sleep(decision.delay)
            return result
        if decision.kind == "reset":
            if self.reset_after_work:
                # the work happens, the ack does not: the client cannot
                # distinguish this from a pre-dispatch failure
                self.handler(message)
            raise ConnectionResetError("chaos: injected connection reset")
        if decision.kind == "blackhole":
            self.sleep(decision.delay)
            raise ConnectionResetError("chaos: injected blackhole")
        # error: a plain exception becomes HTTP 500 + log:error, i.e.
        # the service-reported path; gateway-status injection is a
        # client-side (ChaosTransport) concern
        raise RuntimeError(
            f"chaos: injected HTTP {decision.status or 500} failure")


class ReplicaCluster:
    """N real HTTP replicas of one service, with kill/restart.

    All replicas share the *same* handler callables — the §12
    requirement for safe action failover (shared dedup memory); give
    per-replica wrappers via ``wrap`` to make them distinguishable
    (e.g. a :class:`ChaosService` per replica).

    Ports are pinned after the first start, so :meth:`restart` brings a
    killed replica back on exactly the address the registry knows.
    """

    def __init__(self, aware_handler: AwareHandler | None = None,
                 opaque_handler: OpaqueHandler | None = None,
                 count: int = 3,
                 wrap: Callable[[int, AwareHandler], AwareHandler]
                 | None = None) -> None:
        if count < 1:
            raise ValueError("a cluster needs at least one replica")
        self._handlers: list[AwareHandler | None] = [
            (wrap(index, aware_handler) if wrap and aware_handler
             else aware_handler)
            for index in range(count)]
        self._opaque = opaque_handler
        self._servers: list[HttpServiceServer | None] = [None] * count
        self._ports: list[int] = [0] * count
        self._addresses: list[str | None] = [None] * count
        self.count = count

    def start(self) -> tuple[str, ...]:
        """Start every replica; returns their addresses in order."""
        for index in range(self.count):
            if self._servers[index] is None:
                self.restart(index)
        return self.addresses

    @property
    def addresses(self) -> tuple[str, ...]:
        return tuple(address for address in self._addresses
                     if address is not None)

    def address(self, index: int) -> str:
        address = self._addresses[index]
        if address is None:
            raise RuntimeError(f"replica {index} was never started")
        return address

    def alive(self, index: int) -> bool:
        return self._servers[index] is not None

    def kill(self, index: int) -> None:
        """Stop replica ``index``; its port stays reserved for restart."""
        server = self._servers[index]
        if server is not None:
            self._servers[index] = None
            server.stop()

    def restart(self, index: int) -> str:
        """(Re)start replica ``index`` on its pinned port."""
        if self._servers[index] is not None:
            return self.address(index)
        server = HttpServiceServer(aware_handler=self._handlers[index],
                                   opaque_handler=self._opaque,
                                   port=self._ports[index])
        address = server.start()
        self._servers[index] = server
        if self._ports[index] == 0:
            self._ports[index] = int(address.rsplit(":", 1)[1].strip("/"))
            self._addresses[index] = address
        return self.address(index)

    def stop(self) -> None:
        for index in range(self.count):
            self.kill(index)

    def __enter__(self) -> "ReplicaCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
