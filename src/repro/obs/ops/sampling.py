"""Trace samplers: keep the traces that matter, afford the rest.

The PR-3 tracer exports every span of every rule instance.  At the
ROADMAP's traffic (millions of rule instances) that is neither
affordable nor useful — observability systems for event/action
processing keep *representative* healthy traces plus *all* interesting
ones.  Two complementary mechanisms:

**Head sampling** (:class:`ProbabilisticSampler`,
:class:`RateLimitedSampler`) decides when a trace *starts*: the tracer
asks ``sampler.sample(trace_id)`` once per root span, children inherit
the verdict, and an unsampled trace builds no spans — it is only timed,
for the latency histograms.  The verdict also rides the
``traceparent`` flags byte (``…-00``), so a remote service skips
server-side span capture for a trace nobody will keep (PROTOCOL.md §9).
Head sampling is the cheapest — an unsampled trace costs one hash and
a few clock reads — but it is blind: it drops erroring traces at the
same rate as healthy ones.

**Tail sampling** (:class:`TailSampler`) decides when a trace *ends*:
it sits in the exporter chain, where the tracer hands it each trace
whole once its root finishes, and keeps the trace iff it is
*interesting* — a span erred, a resilience event (retry, breaker,
dead-letter) was recorded on it, or the root exceeded a latency
threshold — or, for healthy traces, with a configured probability.
Tail sampling sees everything, so it keeps 100% of failures while
retaining only p of the healthy bulk.

Samplers are deterministic: the probabilistic verdict is a CRC-32 hash
of the trace id mixed with a caller-supplied seed, so a test (or a
replay) with pinned ids gets pinned decisions, and the same trace id
always gets the same verdict across engines sharing a seed.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Callable, Protocol, runtime_checkable

from ..trace import expand

__all__ = ["Sampler", "AlwaysSampler", "ProbabilisticSampler",
           "RateLimitedSampler", "TailSampler", "DEFAULT_TAIL_MARKERS"]


@runtime_checkable
class Sampler(Protocol):
    """Head sampler contract: one verdict per new trace."""

    def sample(self, trace_id: str) -> bool:
        """``True`` keeps the trace; called once per root span."""
        ...


class AlwaysSampler:
    """Keeps everything — the explicit form of ``sampler=None``."""

    def sample(self, trace_id: str) -> bool:
        return True


def _hash_fraction(trace_id: str, seed: int) -> float:
    """A uniform-ish fraction in [0, 1) from a trace id and a seed.

    CRC-32 over the id text, then a multiply-xorshift finalizer
    (lowbias32) folding in the seed.  The CRC alone would not do: it is
    linear over GF(2), so two seeds entering via XOR or via the CRC
    start value differ by a *constant* across same-length ids and
    reseeding would barely change any threshold decision.  The
    finalizer diffuses the seed through every bit while staying cheap,
    stable across processes, and decoupled from the id-generation
    sequence.
    """
    x = (zlib.crc32(trace_id.encode()) + (seed & 0xFFFFFFFF)) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x7FEB352D) & 0xFFFFFFFF
    x ^= x >> 15
    x = (x * 0x846CA68B) & 0xFFFFFFFF
    x ^= x >> 16
    return x / 4294967296.0


class ProbabilisticSampler:
    """Head sampler keeping a fixed fraction of traces.

    The verdict is a pure function of ``(trace_id, seed)`` — no RNG
    state, no lock, deterministic under replay.
    """

    def __init__(self, probability: float, seed: int = 0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        self.probability = probability
        self.seed = seed

    def sample(self, trace_id: str) -> bool:
        return _hash_fraction(trace_id, self.seed) < self.probability


class RateLimitedSampler:
    """Head sampler admitting at most ``max_per_second`` new traces.

    A token bucket (capacity ``burst``, default one second's worth):
    under the rate everything is kept; over it, excess traces are shed
    deterministically by arrival order.  Thread-safe — detections may
    start traces from several threads.
    """

    def __init__(self, max_per_second: float, burst: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_per_second <= 0:
            raise ValueError("max_per_second must be positive")
        self.max_per_second = max_per_second
        self.burst = burst if burst is not None else max(1.0, max_per_second)
        self.clock = clock
        self._tokens = self.burst
        self._refilled_at = clock()
        self._lock = threading.Lock()
        self.admitted = 0
        self.shed = 0

    def sample(self, trace_id: str) -> bool:
        now = self.clock()
        with self._lock:
            elapsed = now - self._refilled_at
            if elapsed > 0:
                self._tokens = min(self.burst,
                                   self._tokens
                                   + elapsed * self.max_per_second)
                self._refilled_at = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.admitted += 1
                return True
            self.shed += 1
            return False


#: span-attribute keys that mark a trace as interesting to the tail
#: sampler; the resilience observer stamps them on the active GRH
#: request span (see ``Observability.install``)
DEFAULT_TAIL_MARKERS = ("retries", "breaker_open", "breaker_reject",
                        "dead_letter")


class TailSampler:
    """Exporter-chain tail sampler: keep a whole trace if it earned it.

    Sits between the tracer and the real exporters.  The tracer hands
    ``export`` each trace whole, root last, and the verdict is taken
    over the whole tree:

    * any span with ``status != "ok"`` → keep (erroring and
      dead-lettered instances always survive — the engine marks a
      failed instance's root span ``error``);
    * any span carrying a *marker* attribute (resilience events:
      retry, breaker open/rejection, dead-letter) → keep;
    * root duration ≥ ``latency_threshold`` (seconds) → keep;
    * otherwise keep with ``probability`` (same deterministic
      ``(trace_id, seed)`` hash as the head sampler).

    A kept trace goes on to ``downstream``; a dropped one is discarded.
    A rootless fragment (a span that finished after its trace was
    handed over, such as a hedged read's losing branch) has no trace
    left to be judged with, so it passes through unjudged — the tail
    sampler never loses what it could not judge.
    """

    def __init__(self, probability: float = 0.0,
                 latency_threshold: float | None = None,
                 markers: tuple[str, ...] = DEFAULT_TAIL_MARKERS,
                 seed: int = 0, downstream: tuple = ()) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        self.probability = probability
        self.latency_threshold = latency_threshold
        self.markers = frozenset(markers)
        self.seed = seed
        self.downstream = list(downstream)
        self._lock = threading.Lock()
        self.kept = 0
        self.dropped = 0
        self.fragments = 0

    # -- the exporter contract ---------------------------------------------

    def export(self, spans: list) -> None:
        root = spans[-1]
        fragment = root.parent_id is not None
        keep = fragment or self._keep(spans, root)
        with self._lock:
            if fragment:
                self.fragments += 1
            elif keep:
                self.kept += 1
            else:
                self.dropped += 1
        if keep:
            for exporter in self.downstream:
                exporter.export(spans)

    def _keep(self, spans: list, root) -> bool:
        for span in expand(spans):
            if span.status != "ok":
                return True
            if self.markers and not self.markers.isdisjoint(span.attributes):
                return True
        if self.latency_threshold is not None and \
                root.duration >= self.latency_threshold:
            return True
        if self.probability:
            return _hash_fraction(root.trace_id, self.seed) \
                < self.probability
        return False
