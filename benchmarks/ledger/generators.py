"""Seeded input generators for the ledger's four workloads.

Everything here is plain Python data (tuples, dicts, strings) drawn from
``random.Random(seed)``: the same seed gives the same world and the same
event sequence, and nothing from ``repro`` is imported, so the oracle
can share these values without sharing any code with the program.  The
program never sees the seed or a workload name — ``deploy.py`` turns the
data into documents, triples, rules and event payloads.

Worlds are *stratified* where a free draw would move the expected work
per event by more than the regression bounds from one seed to the next
(fleet cars are dealt over the (city, class) cells, every fan-out city
carries the same number of rules): the seed still decides who owns
what, which rule listens where and which events arrive in which order,
but the work per thousand events stays comparable between seeds.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect
from dataclasses import dataclass

#: namespace of the hetero_semweb triples; a car's identity is its URI
FLEET_NS = "http://example.org/fleet#"
CLASS_NAMES = ("A", "B", "C", "D", "E", "F")
MODELS = ("Golf", "Passat", "Polo", "Clio", "Laguna", "Espace", "Corsa",
          "Astra", "Focus", "Fiesta", "Panda", "Punto")
CITY_NAMES = ("Paris", "Rome", "Munich", "Berlin", "Lisbon", "Vienna",
              "Oslo", "Madrid")
_FIRST = ("John", "Jane", "Max", "Mia", "Ada", "Alan", "Grace", "Edsger")
_LAST = ("Doe", "Roe", "Power", "Wall", "Byron", "Turing", "Hopper",
         "Dijkstra")


def person_name(index: int) -> str:
    return (f"{_FIRST[index % len(_FIRST)]} "
            f"{_LAST[(index // len(_FIRST)) % len(_LAST)]} {index}")


def class_of_model(model: str) -> str:
    return CLASS_NAMES[MODELS.index(model) % len(CLASS_NAMES)]


@dataclass(frozen=True)
class Event:
    """One generated event: a tag plus its attributes.

    ``id`` is unique per run and is what the sink stamps effects by.
    """

    id: str
    tag: str
    attrs: tuple[tuple[str, str], ...]

    def get(self, name: str) -> str:
        return dict(self.attrs)[name]


class _Source:
    """A seeded, endless event source with run-unique ids."""

    def __init__(self, seed: int, salt: str) -> None:
        self.rng = random.Random(f"{seed}:{salt}:events")
        self._ids = itertools.count()

    def _event(self, tag: str, **attrs: str) -> Event:
        event_id = f"e{next(self._ids)}"
        return Event(event_id, tag, (("id", event_id),
                                     *sorted(attrs.items())))

    def draw(self) -> Event:
        raise NotImplementedError

    def take(self, count: int) -> list[Event]:
        return [self.draw() for _ in range(count)]


# -- fig4_inproc -------------------------------------------------------------

@dataclass(frozen=True)
class Fig4World:
    cities: tuple[str, ...]
    #: (name, home city, owned models)
    persons: tuple[tuple[str, str, tuple[str, ...]], ...]
    #: model -> class, for every model
    classes: tuple[tuple[str, str], ...]
    #: (id, model, class, location)
    fleet: tuple[tuple[str, str, str, str], ...]


def fig4_world(seed: int, persons: int = 50, fleet_size: int = 40,
               cities: int = 3) -> Fig4World:
    rng = random.Random(f"{seed}:fig4:world")
    city_names = CITY_NAMES[:cities]
    people = tuple(
        (person_name(index), rng.choice(city_names),
         tuple(rng.sample(MODELS, 2)))
        for index in range(persons))
    # deal the fleet over the (city, class) cells in a seeded order, and
    # alternate the two models of a class within a cell: every cell
    # offers two distinct models, so every booking yields the same
    # number of offers whatever the seed
    cells = [(city, klass) for city in city_names for klass in CLASS_NAMES]
    rng.shuffle(cells)
    fleet = []
    for index in range(fleet_size):
        city, klass = cells[index % len(cells)]
        models = [m for m in MODELS if class_of_model(m) == klass]
        fleet.append((f"f{index}", models[(index // len(cells)) % 2], klass,
                      city))
    rng.shuffle(fleet)
    return Fig4World(city_names, people,
                     tuple((m, class_of_model(m)) for m in MODELS),
                     tuple(fleet))


class Fig4Events(_Source):
    """Bookings by uniformly drawn persons to uniformly drawn cities."""

    def __init__(self, seed: int, world: Fig4World) -> None:
        super().__init__(seed, "fig4")
        self.world = world

    def draw(self) -> Event:
        person = self.rng.choice(self.world.persons)[0]
        origin = self.rng.choice(self.world.cities)
        return self._event("booking", person=person,
                           to=self.rng.choice(self.world.cities),
                           **{"from": origin})


# -- fanout_inproc -----------------------------------------------------------

@dataclass(frozen=True)
class FanoutWorld:
    cities: tuple[str, ...]
    #: rule id -> the city its event pattern names, in registration order
    rules: tuple[tuple[str, str], ...]
    #: cumulative Zipf weights over ``cities`` (rank = position)
    cumulative: tuple[float, ...]


def fanout_world(seed: int, rules: int = 2000, cities: int = 500,
                 skew: float = 1.0) -> FanoutWorld:
    rng = random.Random(f"{seed}:fanout:world")
    city_names = [f"city{index}" for index in range(cities)]
    # every city carries rules/cities rules; the seed draws which rule
    # ids (and so which registration slots) listen on which city, and
    # which cities are the popular ones
    targets = [city_names[index % cities] for index in range(rules)]
    rng.shuffle(targets)
    rng.shuffle(city_names)
    weights = [1.0 / (rank + 1) ** skew for rank in range(cities)]
    return FanoutWorld(
        tuple(city_names),
        tuple((f"r{index}", city) for index, city in enumerate(targets)),
        tuple(itertools.accumulate(weights)))


class FanoutEvents(_Source):
    """Bookings whose destination is Zipf-distributed over the cities."""

    def __init__(self, seed: int, world: FanoutWorld) -> None:
        super().__init__(seed, "fanout")
        self.world = world

    def draw(self) -> Event:
        cumulative = self.world.cumulative
        rank = bisect(cumulative, self.rng.random() * cumulative[-1])
        return self._event("booking",
                           person=person_name(self.rng.randrange(1000)),
                           to=self.world.cities[rank])


# -- hetero_semweb -----------------------------------------------------------

@dataclass(frozen=True)
class HeteroWorld:
    cities: tuple[str, ...]
    #: depot index -> city
    depots: tuple[str, ...]
    #: (depot index, class, mileage) per car; the car id is its position
    cars: tuple[tuple[int, str, int], ...]
    #: person name -> initial city
    persons: tuple[tuple[str, str], ...]
    mileage_below: int
    mileage_at_least: int


def hetero_world(seed: int, cars: int = 30_000, depots: int = 500,
                 cities: int = 200, persons: int = 400) -> HeteroWorld:
    rng = random.Random(f"{seed}:hetero:world")
    city_names = tuple(f"city{index}" for index in range(cities))
    depot_cities = [city_names[index % cities] for index in range(depots)]
    rng.shuffle(depot_cities)
    fleet = []
    for index in range(cars):
        # dealt over (depot, class) so every city offers the same number
        # of cars per class; the mileage decides which ones qualify
        fleet.append((index % depots,
                      CLASS_NAMES[(index // depots) % len(CLASS_NAMES)],
                      rng.randrange(100_000)))
    people = tuple((f"p{index}", rng.choice(city_names))
                   for index in range(persons))
    return HeteroWorld(city_names, tuple(depot_cities), tuple(fleet),
                       people, mileage_below=16_000, mileage_at_least=2_000)


class HeteroEvents(_Source):
    """Bookings that open and payments that close, one for one.

    A booking only builds detector state; a payment pairs with the open
    booking of the same person (``snoop:seq`` in chronicle context).
    The first ``max_open`` events are bookings, after that bookings and
    payments alternate, each payment closing a randomly drawn open
    booking: the detector's initiator store holds ``max_open`` entries
    throughout, at most one per person, so the pairing the oracle
    computes is unambiguous.
    """

    def __init__(self, seed: int, world: HeteroWorld,
                 max_open: int = 12) -> None:
        super().__init__(seed, "hetero")
        self.world = world
        self.max_open = max_open
        self._open: list[str] = []

    def draw(self) -> Event:
        rng = self.rng
        if len(self._open) < self.max_open:
            while True:
                person = rng.choice(self.world.persons)[0]
                if person not in self._open:
                    break
            self._open.append(person)
            return self._event("booking", person=person,
                               to=rng.choice(self.world.cities),
                               **{"class": rng.choice(CLASS_NAMES)})
        person = self._open.pop(rng.randrange(len(self._open)))
        return self._event("payment", person=person)


# -- distributed_http --------------------------------------------------------

TIERS = ("basic", "silver", "gold")
PERKS = {"basic": ("none",), "silver": ("upgrade",),
         "gold": ("upgrade", "lounge")}


@dataclass(frozen=True)
class DistributedWorld:
    #: person -> tier; a third of the persons hold each tier
    persons: tuple[tuple[str, str], ...]


def distributed_world(seed: int, persons: int = 200) -> DistributedWorld:
    rng = random.Random(f"{seed}:distributed:world")
    tiers = [TIERS[index % len(TIERS)] for index in range(persons)]
    rng.shuffle(tiers)
    return DistributedWorld(tuple((f"p{index}", tier)
                                  for index, tier in enumerate(tiers)))


class DistributedEvents(_Source):
    """Bookings by persons cycling through the tiers.

    The tier cycles basic → silver → gold so exactly one event in three
    dies at the test component and every block carries the same number
    of reactions; the seed draws which person of the tier books.
    """

    def __init__(self, seed: int, world: DistributedWorld) -> None:
        super().__init__(seed, "distributed")
        self.by_tier = {tier: [name for name, held in world.persons
                               if held == tier] for tier in TIERS}
        self._turn = itertools.cycle(TIERS)

    def draw(self) -> Event:
        person = self.rng.choice(self.by_tier[next(self._turn)])
        return self._event("booking", person=person,
                           to=self.rng.choice(CITY_NAMES))
