"""Plain-Python oracles: what each generated event must make the system do.

One oracle per workload, built from the generated world alone — dict
lookups, no rule engine, no XML, nothing imported from ``repro``.  For
every event it answers with the multiset of messages the sink must
receive for that event id, how many rule instances the event starts and
how many of them die (empty relation before the action); the
``hetero_semweb`` oracle also tracks where every person must be
(``fleet:at``) when the run ends.

A message is ``(mailbox, tag, ((attribute, value), ...))`` with the
attributes sorted by name, which is also how the harness reads the
sink.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from generators import (DistributedWorld, Event, FLEET_NS, FanoutWorld,
                        Fig4World, HeteroWorld, PERKS)

Message = tuple[str, str, tuple[tuple[str, str], ...]]


def message(mailbox: str, tag: str, **attrs: str) -> Message:
    return (mailbox, tag, tuple(sorted(attrs.items())))


@dataclass(frozen=True)
class Expectation:
    """What one event must cause."""

    messages: tuple[Message, ...] = ()
    instances: int = 0
    dead: int = 0


NOTHING = Expectation()


class Fig4Oracle:
    """Own cars → their classes → fleet cars of that class at the
    destination; one offer per (own car, class, available model)."""

    def __init__(self, world: Fig4World) -> None:
        self._owned = {name: models for name, _home, models in world.persons}
        self._class_of = dict(world.classes)
        self._available: dict[tuple[str, str], set[str]] = defaultdict(set)
        for _id, model, klass, city in world.fleet:
            self._available[city, klass].add(model)

    def expect(self, event: Event) -> Expectation:
        person, to = event.get("person"), event.get("to")
        offers = []
        for own in set(self._owned[person]):
            for model in self._available.get((to, self._class_of[own]), ()):
                offers.append(message("offers", "offer", id=event.id,
                                      person=person, car=model))
        return Expectation(tuple(offers), 1, 0 if offers else 1)


class FanoutOracle:
    """Every rule listening on the destination city fires once."""

    def __init__(self, world: FanoutWorld) -> None:
        self._rules: dict[str, list[str]] = defaultdict(list)
        for rule_id, city in world.rules:
            self._rules[city].append(rule_id)

    def expect(self, event: Event) -> Expectation:
        rules = self._rules.get(event.get("to"), ())
        return Expectation(
            tuple(message("sink", "seen", id=event.id, rule=rule_id,
                          person=event.get("person"))
                  for rule_id in rules),
            len(rules), 0)


class HeteroOracle:
    """A payment closes its person's open booking: the person is offered
    every car of the booked class at the booked city whose mileage lies
    in ``[mileage_at_least, mileage_below)`` and, if there is one, moves
    to that city."""

    def __init__(self, world: HeteroWorld) -> None:
        self._cars: dict[tuple[str, str], list[str]] = defaultdict(list)
        for index, (depot, klass, mileage) in enumerate(world.cars):
            if world.mileage_at_least <= mileage < world.mileage_below:
                self._cars[world.depots[depot], klass].append(
                    f"{FLEET_NS}c{index}")
        self.location = dict(world.persons)
        self._open: dict[str, tuple[str, str]] = {}

    def expect(self, event: Event) -> Expectation:
        person = event.get("person")
        if event.tag == "booking":
            self._open[person] = (event.get("to"), event.get("class"))
            return NOTHING
        to, klass = self._open.pop(person)
        cars = self._cars.get((to, klass), ())
        if cars:
            self.location[person] = to
        return Expectation(
            tuple(message("moves", "moved", id=event.id, person=person,
                          car=car, to=to) for car in cars),
            1, 0 if cars else 1)


class DistributedOracle:
    """One grant per perk of the person's tier; basic members hold the
    placeholder perk and die at the test."""

    def __init__(self, world: DistributedWorld) -> None:
        self._tier = dict(world.persons)

    def expect(self, event: Event) -> Expectation:
        person = event.get("person")
        tier = self._tier[person]
        if tier == "basic":
            return Expectation((), 1, 1)
        return Expectation(
            tuple(message("perks", "grant", id=event.id, person=person,
                          perk=perk) for perk in PERKS[tier]),
            1, 0)
