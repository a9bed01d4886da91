"""SNOOP-style composite event detection with logical variables.

Implements the event algebra of Chakravarthy et al. [CKAK94] — the
composite event language the paper cites for its event component
(Sec. 4.2, [Spa06]) — extended with logical variables as in the
framework: every (composite) occurrence carries a *relation of variable
bindings*, and combining sub-occurrences joins their relations, so shared
variables act as join variables across constituent events.

Operators: ``Or``, ``And``, ``Seq``, ``Any(m, ...)``, ``Not(A, B, C)``
(B does not occur between A and C), ``Aperiodic(A, B, C)`` (each B inside
an A..C window), ``Periodic(A, dt, C)``.

Parameter contexts [CKAK94] govern which initiator occurrences a
terminator pairs with and which are consumed:

* ``unrestricted`` — every initiator pairs, nothing is consumed,
* ``recent``       — only the most recent initiator is kept,
* ``chronicle``    — the oldest initiator pairs and is consumed (FIFO),
* ``continuous``   — every stored initiator pairs; all used are consumed,
* ``cumulative``   — all initiators are merged into one occurrence and
  consumed together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..bindings import Relation
from .base import Event, Occurrence
from .atomic import AtomicPattern

__all__ = ["Detector", "Atomic", "Or", "And", "Seq", "Any", "Not",
           "Aperiodic", "AperiodicCumulative", "Periodic", "CONTEXTS",
           "SnoopError"]

CONTEXTS = ("unrestricted", "recent", "chronicle", "continuous", "cumulative")


class SnoopError(ValueError):
    """Raised for invalid operator configuration."""


def _combine(first: Occurrence, second: Occurrence) -> Occurrence | None:
    """Join two occurrences; None when their bindings are incompatible."""
    joined = first.bindings.join(second.bindings)
    if not joined:
        return None
    constituents = tuple(sorted(first.constituents + second.constituents,
                                key=lambda event: event.sequence))
    return Occurrence(min(first.start, second.start),
                      max(first.end, second.end), joined, constituents)


def _merge_all(occurrences: Sequence[Occurrence]) -> Occurrence:
    """Cumulative merge: union of bindings, all constituents."""
    bindings = Relation()
    constituents: tuple[Event, ...] = ()
    for occurrence in occurrences:
        bindings = bindings.union(occurrence.bindings)
        constituents += occurrence.constituents
    constituents = tuple(sorted(set(constituents),
                                key=lambda event: event.sequence))
    return Occurrence(min(o.start for o in occurrences),
                      max(o.end for o in occurrences), bindings, constituents)


class _Store:
    """Initiator storage implementing one parameter context."""

    def __init__(self, context: str) -> None:
        if context not in CONTEXTS:
            raise SnoopError(f"unknown parameter context {context!r}")
        self.context = context
        self.items: list[Occurrence] = []

    def add(self, occurrence: Occurrence) -> None:
        if self.context == "recent":
            self.items = [occurrence]
        else:
            self.items.append(occurrence)

    def pair_with(self, terminator: Occurrence,
                  eligible=lambda initiator: True) -> list[Occurrence]:
        """Detections for an incoming terminator, honouring the context."""
        candidates = [item for item in self.items if eligible(item)]
        if not candidates:
            return []
        if self.context == "recent":
            combined = _combine(candidates[-1], terminator)
            return [combined] if combined else []
        if self.context == "chronicle":
            for candidate in candidates:  # oldest first
                combined = _combine(candidate, terminator)
                if combined:
                    self.items.remove(candidate)
                    return [combined]
            return []
        if self.context == "cumulative":
            merged = _merge_all(candidates)
            combined = _combine(merged, terminator)
            if combined:
                for candidate in candidates:
                    self.items.remove(candidate)
                return [combined]
            return []
        # unrestricted / continuous: pair with every candidate
        out = []
        used = []
        for candidate in candidates:
            combined = _combine(candidate, terminator)
            if combined:
                out.append(combined)
                used.append(candidate)
        if self.context == "continuous":
            for candidate in used:
                self.items.remove(candidate)
        return out

    def clear(self) -> None:
        self.items.clear()


class Detector:
    """Base class of all operator nodes (push-based evaluation)."""

    def feed(self, event: Event) -> list[Occurrence]:
        """Process one raw event; detected occurrences of this node."""
        raise NotImplementedError

    def poll(self, now: float) -> list[Occurrence]:
        """Time-driven detections (only ``Periodic`` produces any)."""
        return []

    def reset(self) -> None:
        """Discard all partial-match state."""
        raise NotImplementedError

    def variables(self) -> set[str]:
        raise NotImplementedError


@dataclass
class Atomic(Detector):
    """Leaf node: an atomic event pattern."""

    pattern: AtomicPattern

    def feed(self, event: Event) -> list[Occurrence]:
        occurrence = self.pattern.match(event)
        return [occurrence] if occurrence else []

    def reset(self) -> None:
        pass

    def variables(self) -> set[str]:
        return self.pattern.variables()


@dataclass
class Or(Detector):
    """E1 ∨ E2: occurs whenever either child occurs."""

    children: list[Detector]

    def feed(self, event: Event) -> list[Occurrence]:
        out: list[Occurrence] = []
        for child in self.children:
            out.extend(child.feed(event))
        return out

    def poll(self, now: float) -> list[Occurrence]:
        out: list[Occurrence] = []
        for child in self.children:
            out.extend(child.poll(now))
        return out

    def reset(self) -> None:
        for child in self.children:
            child.reset()

    def variables(self) -> set[str]:
        names: set[str] = set()
        for child in self.children:
            names |= child.variables()
        return names


class _Binary(Detector):
    def __init__(self, left: Detector, right: Detector,
                 context: str = "unrestricted") -> None:
        self.left = left
        self.right = right
        self.context = context
        self._left_store = _Store(context)
        self._right_store = _Store(context)

    def reset(self) -> None:
        self.left.reset()
        self.right.reset()
        self._left_store.clear()
        self._right_store.clear()

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()


class And(_Binary):
    """E1 ∧ E2 (conjunction, order irrelevant)."""

    def feed(self, event: Event) -> list[Occurrence]:
        left_occurrences = self.left.feed(event)
        right_occurrences = self.right.feed(event)
        out: list[Occurrence] = []
        for occurrence in left_occurrences:
            out.extend(self._right_store.pair_with(occurrence))
            self._left_store.add(occurrence)
        for occurrence in right_occurrences:
            out.extend(self._left_store.pair_with(occurrence))
            self._right_store.add(occurrence)
        return out


class Seq(_Binary):
    """E1 ; E2 — E2 strictly after E1."""

    def feed(self, event: Event) -> list[Occurrence]:
        left_occurrences = self.left.feed(event)
        right_occurrences = self.right.feed(event)
        out: list[Occurrence] = []
        for occurrence in right_occurrences:
            out.extend(self._left_store.pair_with(
                occurrence,
                eligible=lambda initiator: initiator.end < occurrence.start))
        for occurrence in left_occurrences:
            self._left_store.add(occurrence)
        return out


class Any(Detector):
    """ANY(m; E1, ..., En): m *distinct* children have occurred."""

    def __init__(self, m: int, children: list[Detector],
                 context: str = "chronicle") -> None:
        if not 1 <= m <= len(children):
            raise SnoopError(f"ANY({m}) needs between 1 and {len(children)} "
                             "children")
        self.m = m
        self.children = children
        self.context = context
        self._stores = [_Store(context) for _ in children]

    def feed(self, event: Event) -> list[Occurrence]:
        out: list[Occurrence] = []
        for index, child in enumerate(self.children):
            for occurrence in child.feed(event):
                self._stores[index].add(occurrence)
                detection = self._try_complete()
                if detection is not None:
                    out.append(detection)
        return out

    def _try_complete(self) -> Occurrence | None:
        filled = [store for store in self._stores if store.items]
        if len(filled) < self.m:
            return None
        # take the oldest occurrence from the m earliest-filled stores
        chosen_stores = sorted(filled,
                               key=lambda store: store.items[0].end)[:self.m]
        combined: Occurrence | None = None
        for store in chosen_stores:
            occurrence = store.items[0]
            combined = occurrence if combined is None else _combine(
                combined, occurrence)
            if combined is None:
                return None
        for store in chosen_stores:
            del store.items[0]
        return combined

    def poll(self, now: float) -> list[Occurrence]:
        return []

    def reset(self) -> None:
        for child in self.children:
            child.reset()
        for store in self._stores:
            store.clear()

    def variables(self) -> set[str]:
        names: set[str] = set()
        for child in self.children:
            names |= child.variables()
        return names


class Not(Detector):
    """NOT(B)[A, C]: C after A with no B strictly in between."""

    def __init__(self, initiator: Detector, forbidden: Detector,
                 terminator: Detector, context: str = "unrestricted") -> None:
        self.initiator = initiator
        self.forbidden = forbidden
        self.terminator = terminator
        self._store = _Store(context)
        self._forbidden_times: list[float] = []

    def feed(self, event: Event) -> list[Occurrence]:
        started = self.initiator.feed(event)
        blocked = self.forbidden.feed(event)
        finished = self.terminator.feed(event)
        for occurrence in blocked:
            self._forbidden_times.append(occurrence.end)
        out: list[Occurrence] = []
        for occurrence in finished:
            def clean(initiator_occurrence: Occurrence,
                      _terminator=occurrence) -> bool:
                return not any(initiator_occurrence.end < t < _terminator.start
                               for t in self._forbidden_times)
            out.extend(self._store.pair_with(
                occurrence,
                eligible=lambda init, _t=occurrence: init.end < _t.start
                and clean(init)))
        for occurrence in started:
            self._store.add(occurrence)
        return out

    def reset(self) -> None:
        self.initiator.reset()
        self.forbidden.reset()
        self.terminator.reset()
        self._store.clear()
        self._forbidden_times.clear()

    def variables(self) -> set[str]:
        return self.initiator.variables() | self.terminator.variables()


class Aperiodic(Detector):
    """A(B)[A, C]: signal each B inside an open A..C window."""

    def __init__(self, opener: Detector, body: Detector,
                 closer: Detector) -> None:
        self.opener = opener
        self.body = body
        self.closer = closer
        self._windows: list[Occurrence] = []

    def feed(self, event: Event) -> list[Occurrence]:
        opened = self.opener.feed(event)
        inner = self.body.feed(event)
        closed = self.closer.feed(event)
        out: list[Occurrence] = []
        for occurrence in inner:
            for window in self._windows:
                if window.end < occurrence.start:
                    combined = _combine(window, occurrence)
                    if combined:
                        out.append(combined)
        if closed:
            close_start = min(occurrence.start for occurrence in closed)
            self._windows = [window for window in self._windows
                             if window.end >= close_start]
        self._windows.extend(opened)
        return out

    def reset(self) -> None:
        self.opener.reset()
        self.body.reset()
        self.closer.reset()
        self._windows.clear()

    def variables(self) -> set[str]:
        return self.opener.variables() | self.body.variables()


class AperiodicCumulative(Detector):
    """A*(B)[A, C]: accumulate the Bs inside an A..C window and signal
    once, at C, with the union of their bindings (SNOOP's A* operator)."""

    def __init__(self, opener: Detector, body: Detector,
                 closer: Detector) -> None:
        self.opener = opener
        self.body = body
        self.closer = closer
        self._windows: list[tuple[Occurrence, list[Occurrence]]] = []

    def feed(self, event: Event) -> list[Occurrence]:
        opened = self.opener.feed(event)
        inner = self.body.feed(event)
        closed = self.closer.feed(event)
        for occurrence in inner:
            for window, collected in self._windows:
                if window.end < occurrence.start:
                    collected.append(occurrence)
        out: list[Occurrence] = []
        if closed:
            close_start = min(occurrence.start for occurrence in closed)
            remaining = []
            for window, collected in self._windows:
                if window.end >= close_start:
                    remaining.append((window, collected))
                    continue
                for closing in closed:
                    if not collected:
                        combined = _combine(window, closing)
                    else:
                        merged = _merge_all(collected)
                        combined = _combine(window, merged)
                        if combined is not None:
                            combined = _combine(combined, closing)
                    if combined is not None:
                        out.append(combined)
            self._windows = remaining
        self._windows.extend((occurrence, []) for occurrence in opened)
        return out

    def reset(self) -> None:
        self.opener.reset()
        self.body.reset()
        self.closer.reset()
        self._windows.clear()

    def variables(self) -> set[str]:
        return (self.opener.variables() | self.body.variables()
                | self.closer.variables())


class Periodic(Detector):
    """P(A, dt, C): fire every ``dt`` time units inside an A..C window."""

    def __init__(self, opener: Detector, period: float,
                 closer: Detector) -> None:
        if period <= 0:
            raise SnoopError("period must be positive")
        self.opener = opener
        self.period = period
        self.closer = closer
        self._windows: list[tuple[Occurrence, float]] = []  # (window, next)

    def feed(self, event: Event) -> list[Occurrence]:
        out = self.poll(event.timestamp)
        opened = self.opener.feed(event)
        closed = self.closer.feed(event)
        if closed:
            close_start = min(occurrence.start for occurrence in closed)
            self._windows = [(window, next_fire)
                             for window, next_fire in self._windows
                             if window.end >= close_start]
        for occurrence in opened:
            self._windows.append((occurrence, occurrence.end + self.period))
        return out

    def poll(self, now: float) -> list[Occurrence]:
        out: list[Occurrence] = []
        updated: list[tuple[Occurrence, float]] = []
        for window, next_fire in self._windows:
            while next_fire <= now:
                out.append(Occurrence(window.start, next_fire,
                                      window.bindings, window.constituents))
                next_fire += self.period
            updated.append((window, next_fire))
        self._windows = updated
        return out

    def reset(self) -> None:
        self.opener.reset()
        self.closer.reset()
        self._windows.clear()

    def variables(self) -> set[str]:
        return self.opener.variables()
