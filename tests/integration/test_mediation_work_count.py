"""What one Fig. 4 detection costs in mediated requests — counted, not
timed, so a structural regression fails on any machine.

The rule has the paper's shape: one framework-aware XQ-lite query, two
framework-unaware eXist-like queries (Fig. 9: one plain request per input
tuple) and one action component.  Per event the GRH must mediate exactly

    1 (xq)  +  fetches (one per input tuple of each opaque query)  +  1 (action)

requests — the action travels **once** with every surviving tuple — while
the sink still sees one message per surviving tuple.  Sending the action
once per tuple again would add (survivors − 1) requests per event.
"""

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


def test_one_action_request_per_event_whatever_the_tuple_count():
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
