#!/usr/bin/env python3
"""The planned SPARQL backend: indexed store, join planner, pushdown.

The same travel-domain rule as ``semantic_fleet.py``, but the query
component uses the **rdf-sparql** language (PROTOCOL.md §15): the
fleet graph is served by an indexed ``TripleStore``, the query is
compiled once by the selectivity-driven join planner, and the rule's
input bindings are **pushed down** — the whole binding set seeds the
join and the query runs once, not once per tuple.

The script then prints what the observability surface shows for the
run: the executed plan with per-stage estimates and actuals, which
indexes answered the scans, and the plan-cache behaviour on a second
firing.

Run: ``python examples/planned_sparql.py``
"""

from repro import ECAEngine, parse_rule, standard_deployment
from repro.domain import FLEET_NS, TRAVEL_NS, booking_event, fleet_graph
from repro.sparql import RDF_SPARQL_LANG

ECA = 'xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml"'

OFFER_RULE = f"""
<eca:rule {ECA} id="offer-on-booking">
  <eca:event>
    <travel:booking xmlns:travel="{TRAVEL_NS}"
                    person="{{Person}}" to="{{To}}"/>
  </eca:event>

  <!-- planned SPARQL: ?To is bound by the event, so the engine seeds
       the join with it instead of substituting text per tuple -->
  <eca:query>
    <q:select xmlns:q="{RDF_SPARQL_LANG}">
      SELECT ?Car ?Model WHERE {{
        ?Car fleet:location ?To ;
             fleet:carClass 'B' ;
             fleet:model ?Model .
      }}
    </q:select>
  </eca:query>

  <eca:action>
    <offer model="{{Model}}" car="{{Car}}" for="{{Person}}"/>
  </eca:action>
</eca:rule>
"""


def main() -> None:
    graph = fleet_graph()
    deployment = standard_deployment(graph=graph)
    service = deployment.sparql
    service.prefixes["fleet"] = FLEET_NS

    engine = ECAEngine(deployment.grh)
    engine.register_rule(parse_rule(OFFER_RULE))

    print(">>> John Doe books a flight to Paris")
    deployment.stream.emit(booking_event())

    print("\ndefault mailbox:")
    for message in deployment.runtime.messages("default"):
        print(f"   {message.content.get('model')} "
              f"({message.content.get('car')}) offered to "
              f"{message.content.get('for')}")

    executed = service.recent_plans[-1]
    print(f"\nexecuted plan (seed rows: {executed['seed_rows']}, "
          f"cache hit: {executed['cache_hit']}):")
    print(executed["plan"])
    print("per-stage estimates vs actuals:")
    for stage in executed["stages"]:
        print(f"   {stage['op']:>8}: estimated {stage['estimated']:>8.1f}, "
              f"actual {stage['rows']}")

    # a second booking re-uses the compiled plan: the cache is keyed on
    # query text + seed signature, and a plan survives writes to the
    # store while the statistics it was costed from stay within 2x
    deployment.stream.advance(1)
    deployment.stream.emit(booking_event(person="Jane Roe"))
    again = service.recent_plans[-1]
    print(f"\nsecond firing: cache hit = {again['cache_hit']}")

    snapshot = service.store.snapshot()
    print(f"\nstore: {snapshot['triples']} triples, "
          f"{snapshot['predicates']} predicates; "
          f"index probes so far: {snapshot['probes']}")
    print(f"service stats: {service.stats}")


if __name__ == "__main__":
    main()
