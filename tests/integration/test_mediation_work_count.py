"""What one detection costs in mediated requests — counted, not timed, so a
structural regression fails on any machine.  Two rule sets: the paper's
Fig. 4 (below), and a fan-out of constant-pattern E→A rules (further down)
whose every byte on the wire is pinned as well.

The rule has the paper's shape: one framework-aware XQ-lite query, two
framework-unaware eXist-like queries (Fig. 9: one plain request per input
tuple) and one action component.  Per event the GRH must mediate exactly

    1 (xq)  +  fetches (one per input tuple of each opaque query)  +  1 (action)

requests — the action travels **once** with every surviving tuple — while
the sink still sees one message per surviving tuple.  Sending the action
once per tuple again would add (survivors − 1) requests per event.
"""

import hashlib
import random

from repro.actions import ACTION_NS
from repro.core import ECAEngine
from repro.services import XQ_LANG, standard_deployment
from repro.xmlmodel import E, ECA_NS

CITIES = ("Paris", "Rome", "Oslo")
CLASSES = ("A", "B", "C")
MODELS = {"Golf": "B", "Polo": "A", "Passat": "C", "Corsa": "A", "Astra": "B"}

RULE = f"""
<eca:rule xmlns:eca="{ECA_NS}" xmlns:act="{ACTION_NS}" id="fig4">
  <eca:event><booking person="{{Person}}" to="{{To}}" id="{{Id}}"/></eca:event>
  <eca:variable name="OwnCar">
    <eca:query>
      <xq:xquery xmlns:xq="{XQ_LANG}">
        for $c in doc('persons.xml')//person[@name = $Person]/car
        return $c/model/text()
      </xq:xquery>
    </eca:query>
  </eca:variable>
  <eca:variable name="Class">
    <eca:query>
      <eca:opaque language="exist-like">
        doc('classes.xml')//entry[@model = '{{OwnCar}}']/@class
      </eca:opaque>
    </eca:query>
  </eca:variable>
  <eca:variable name="Avail">
    <eca:query>
      <eca:opaque language="exist-like">
        doc('fleet.xml')//car[@location = '{{To}}'][@class = '{{Class}}']/@model
      </eca:opaque>
    </eca:query>
  </eca:variable>
  <eca:action>
    <act:send to="offers">
      <offer id="{{Id}}" person="{{Person}}" car="{{Avail}}"/>
    </act:send>
  </eca:action>
</eca:rule>
"""


def make_world(rng):
    """Documents as plain data first, so the expectation below never
    touches the program."""
    owned = {f"person{index}": rng.sample(sorted(MODELS), rng.randrange(1, 4))
             for index in range(8)}
    fleet = [(f"rental{index}", rng.choice(CITIES), rng.choice(CLASSES))
             for index in range(30)]
    persons = E("persons", None, *(
        E("person", {"name": name},
          *(E("car", None, E("model", None, model)) for model in models))
        for name, models in owned.items()))
    classes = E("classes", None, *(
        E("entry", {"model": model, "class": klass})
        for model, klass in MODELS.items()))
    cars = E("fleet", None, *(
        E("car", {"model": model, "location": city, "class": klass})
        for model, city, klass in fleet))
    return owned, fleet, {"persons.xml": persons, "classes.xml": classes,
                          "fleet.xml": cars}


def expected_for(owned, fleet, person, city):
    """(fetches, offered models) of one booking."""
    cars = owned[person]
    offered = []
    for model in cars:
        offered += [rental for rental, location, klass in fleet
                    if location == city and klass == MODELS[model]]
    # one class lookup per owned car, one availability lookup per
    # (car, class) tuple — each car has exactly one class
    return 2 * len(cars), offered


#: sha256 over every message the transport serialized in the test below —
#: the registration, then 50 bookings' requests and responses, in order.
#: Each instance of this rule is alone in its group, so coalescing one
#: feed's actions (PROTOCOL.md §7) may not change a byte of it.
FIG4_WIRE_SHA256 = "7047bdec2f5b37a3d84ac18e4275377e69e817af0d4e229945dac0de440e5a69"


def recording(monkeypatch):
    """Count codec passes and hash every serialized message."""
    from repro.services import transports

    digest = hashlib.sha256()
    passes = [0]
    serialize, parse = transports.serialize, transports.parse

    def counting_serialize(node, *args, **kwargs):
        text = serialize(node, *args, **kwargs)
        passes[0] += 1
        digest.update(text.encode("utf-8"))
        return text

    def counting_parse(text, *args, **kwargs):
        passes[0] += 1
        return parse(text, *args, **kwargs)

    monkeypatch.setattr(transports, "serialize", counting_serialize)
    monkeypatch.setattr(transports, "parse", counting_parse)
    return digest, passes


def test_one_action_request_per_event_whatever_the_tuple_count(monkeypatch):
    digest, _ = recording(monkeypatch)
    rng = random.Random(2006)
    owned, fleet, documents = make_world(rng)
    deployment = standard_deployment()
    for name, root in documents.items():
        deployment.add_document(name, root)
    engine = ECAEngine(deployment.grh, keep_instances=False)
    engine.register_rule(RULE)
    grh = deployment.grh
    wide = 0
    for index in range(50):
        person, city = rng.choice(sorted(owned)), rng.choice(CITIES)
        fetches, offered = expected_for(owned, fleet, person, city)
        requests_before = grh.request_count
        actions_before = engine.stats["actions"]
        seen_before = len(deployment.runtime.messages("offers"))
        deployment.stream.emit(E("booking", {"person": person, "to": city,
                                             "id": f"b{index}"}))
        sent = deployment.runtime.messages("offers")[seen_before:]
        # one message per surviving tuple (two cars of one class offer
        # the same rental twice: two tuples, two messages) ...
        assert sorted(message.content.get("car") for message in sent) \
            == sorted(offered), (person, city)
        assert engine.stats["actions"] - actions_before == len(offered)
        # ... and one action request, not one per tuple
        action_requests = 1 if offered else 0
        assert grh.request_count - requests_before \
            == 1 + fetches + action_requests, (person, city, offered)
        wide += len(offered) > 1
    # the guard is not vacuous: most events carry several tuples
    assert wide >= 20
    assert engine.stats["failed"] == 0
    assert digest.hexdigest() == FIG4_WIRE_SHA256


# -- fan-out: N constant-pattern E→A rules, k of which match an event ---------

FANOUT_CITIES = 10
FANOUT_PER_CITY = 4

#: sha256 over every message the transport serialized — the registrations,
#: then 200 events' requests and responses, in order — re-recorded when one
#: feed's actions began to travel as one ``log:batch`` per language
#: (PROTOCOL.md §7).  A change that means to alter the wire format
#: re-records this; any other change may not move a byte.
FANOUT_WIRE_SHA256 = "7b10381048cc98591807ebffda7808c7ab78521a9556ad96275e74f5410950c2"


def fanout_rule(rule_id, city):
    return f"""
    <eca:rule xmlns:eca="{ECA_NS}" xmlns:act="{ACTION_NS}" id="{rule_id}">
      <eca:event><booking person="{{Person}}" to="{city}" id="{{Id}}"/></eca:event>
      <eca:action>
        <act:send to="sink">
          <seen id="{{Id}}" rule="{rule_id}" person="{{Person}}"/>
        </act:send>
      </eca:action>
    </eca:rule>
    """


def test_fanout_one_envelope_and_the_recorded_bytes(monkeypatch):
    digest, passes = recording(monkeypatch)
    rng = random.Random(2006)
    deployment = standard_deployment()
    engine = ECAEngine(deployment.grh, keep_instances=False)
    targets = [f"city{index % FANOUT_CITIES}"
               for index in range(FANOUT_CITIES * FANOUT_PER_CITY)]
    rng.shuffle(targets)
    for index, city in enumerate(targets):
        engine.register_rule(fanout_rule(f"r{index}", city))
    grh = deployment.grh
    for index in range(200):
        city = f"city{rng.randrange(FANOUT_CITIES)}"
        requests_before, passes_before = grh.request_count, passes[0]
        seen_before = len(deployment.runtime.messages("sink"))
        deployment.stream.emit(E("booking", {
            "person": f"person{rng.randrange(50)}", "to": city,
            "id": f"b{index}"}))
        sent = deployment.runtime.messages("sink")[seen_before:]
        assert sorted(message.content.get("rule") for message in sent) \
            == sorted(f"r{slot}" for slot, target in enumerate(targets)
                      if target == city)
        # the k matching rules' actions leave as one envelope ...
        assert grh.request_count - requests_before == 1
        # ... envelope out, envelope in, results out, results in
        assert passes[0] - passes_before == 4
    assert engine.stats["failed"] == 0
    assert digest.hexdigest() == FANOUT_WIRE_SHA256
