"""The event model: events are XML fragments with occurrence metadata.

Section 3 of the paper: events are values too — "variables can be bound to
... events (marked up as XML or RDF fragments)".  An :class:`Event` wraps
an XML element (its domain markup, e.g. ``<travel:booking .../>``) plus a
timestamp and a monotonically increasing sequence number assigned by the
stream it occurred on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..xmlmodel import Element, QName

__all__ = ["Event", "EventStream", "Occurrence"]


@dataclass(frozen=True)
class Event:
    """One event occurrence."""

    payload: Element
    timestamp: float
    sequence: int = 0

    @property
    def name(self) -> QName:
        return self.payload.name

    def get(self, attribute: str) -> str | None:
        return self.payload.get(attribute)

    def __repr__(self) -> str:
        return (f"Event({self.name.local}@{self.timestamp}"
                f"#{self.sequence})")


@dataclass(frozen=True)
class Occurrence:
    """A (composite) event occurrence produced by a detector.

    ``start``/``end`` span the constituent events (for an atomic event both
    equal its timestamp); ``bindings`` is the relation of variable-binding
    tuples extracted while matching — the *answers* the ECA engine receives
    (Fig. 6); ``constituents`` is the matched event sequence, which the
    paper says is signalled back alongside the bindings.
    """

    start: float
    end: float
    bindings: "object"  # repro.bindings.Relation (kept loose to avoid cycle)
    constituents: tuple[Event, ...]

    def __repr__(self) -> str:
        return (f"Occurrence([{self.start}, {self.end}], "
                f"{len(self.constituents)} events, "
                f"{len(self.bindings)} tuples)")


class EventStream:
    """An ordered event source with monotone timestamps.

    ``emit`` stamps and delivers an event to all subscribers; subscribers
    are callables ``(Event) -> None`` (the event-detection services).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._clock = start_time
        self._sequence = itertools.count()
        self._subscribers: list[Callable[[Event], None]] = []
        self.history: list[Event] = []

    def subscribe(self, subscriber: Callable[[Event], None]) -> None:
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Callable[[Event], None]) -> None:
        self._subscribers.remove(subscriber)

    @property
    def now(self) -> float:
        return self._clock

    def advance(self, delta: float) -> None:
        """Move the stream clock forward without emitting anything."""
        if delta < 0:
            raise ValueError("time cannot move backwards")
        self._clock += delta

    def emit(self, payload: Element, at: float | None = None) -> Event:
        """Stamp ``payload`` as an event and deliver it."""
        if at is not None:
            if at < self._clock:
                raise ValueError(
                    f"timestamp {at} is before stream time {self._clock}")
            self._clock = at
        event = Event(payload, self._clock, next(self._sequence))
        self.history.append(event)
        for subscriber in list(self._subscribers):
            subscriber(event)
        return event

    def emit_all(self, payloads: Iterable[Element],
                 spacing: float = 1.0) -> list[Event]:
        """Emit several events, advancing the clock between them."""
        events = []
        for payload in payloads:
            events.append(self.emit(payload))
            self.advance(spacing)
        return events

    def __iter__(self) -> Iterator[Event]:
        return iter(self.history)

    def __len__(self) -> int:
        return len(self.history)
