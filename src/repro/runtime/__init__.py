"""Concurrent execution runtime for the ECA engine.

``repro.runtime`` is the engine's scheduler, and makes its natural
parallelism — independent rule instances (paper Section 4) —
executable: sharded lanes with bounded-queue admission control
(:mod:`.pool`).  The default engine is ``Runtime(workers=0)``, which
runs no thread and evaluates on the producer's; construct with
``ECAEngine(grh, runtime=Runtime(...))`` to go concurrent.  See
PROTOCOL.md §10 and the README "Scaling" section.
"""

from .pool import BACKPRESSURE_POLICIES, BackpressureError, Runtime

__all__ = ["Runtime", "BackpressureError", "BACKPRESSURE_POLICIES"]
