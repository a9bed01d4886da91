"""Coalescing is invisible: one deployment of many rules acts like the
sum of one-rule deployments.

Seeded sets of rules that do not interact share one event type: each
rule has 0–2 queries (XQ-lite or Datalog), an optional test and 1–2
actions over at most two action languages, one of which refuses some
tuples.  Every event completes every rule, so in one deployment the
rules' detections form one group and their actions travel as
``log:batch`` envelopes (PROTOCOL.md §7); alone, each rule's actions
travel as plain requests.  The multiset of effects and the engine's
stats must not tell the two apart — under the synchronous engine and
under lanes.  The last test plants a mutant (an envelope's slots fanned
back in reverse) and checks that the property catches it.
"""

import random
from collections import Counter

import pytest

from repro.actions import ACTION_NS
from repro.core import ECAEngine
from repro.grh import GenericRequestHandler, LanguageDescriptor
from repro.runtime import Runtime
from repro.services import DATALOG_LANG, XQ_LANG, standard_deployment
from repro.services.base import LanguageService, ServiceError
from repro.xmlmodel import E, ECA_NS, serialize

PICKY = "urn:test:picky"
SEEDS = range(12)
STATS = ("detections", "instances", "completed", "dead", "failed",
         "actions")

PROGRAM = """
    pair("a", "x"). pair("a", "y"). pair("b", "y"). pair("c", "z").
"""

ITEMS = E("items", None,
          E("item", {"k": "a"}, E("v", None, "1")),
          E("item", {"k": "a"}, E("v", None, "2")),
          E("item", {"k": "b"}, E("v", None, "3")))


class Picky(LanguageService):
    """A second action language: records each tuple it runs and refuses
    the ones a Datalog query bound to ``y`` (the ``log:error`` reports
    the prefix that ran) — which rules' tuples those are depends on the
    rules, so siblings in one envelope fail differently."""

    service_name = "picky"

    def __init__(self):
        self.done = []

    def action(self, request, binding):
        if "y" in binding.values():
            raise ServiceError("no y")
        self.done.append((request.component_id, tuple(sorted(
            (name, str(value)) for name, value in binding.items()))))


def generate_rules(seed):
    """3–6 rules, each an ECA-ML text."""
    rng = random.Random(seed)
    rules = []
    for index in range(rng.randint(3, 6)):
        rule_id = f"g{seed}r{index}"
        bound = ["N", "K"]
        parts = []
        for step in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                name = f"V{step}"
                parts.append(
                    f'<eca:variable name="{name}"><eca:query>'
                    f'<xq:xquery xmlns:xq="{XQ_LANG}">'
                    "for $i in doc('items.xml')//item[@k = $K] "
                    "return $i/v/text()</xq:xquery>"
                    "</eca:query></eca:variable>")
            else:
                name = f"W{step}"
                parts.append(
                    f'<eca:query><dl:query xmlns:dl="{DATALOG_LANG}">'
                    f'pair("{{K}}", {name})</dl:query></eca:query>')
            bound.append(name)
        if rng.random() < 0.5:
            parts.append(f"<eca:test>$N != '{rng.randrange(10)}'</eca:test>")
        for action in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                attributes = " ".join(f'{name.lower()}="{{{name}}}"'
                                      for name in bound)
                parts.append(
                    f'<eca:action><act:send xmlns:act="{ACTION_NS}" '
                    f'to="sink"><fx r="{rule_id}" a="{action}" {attributes}/>'
                    "</act:send></eca:action>")
            else:
                parts.append(f'<eca:action><eca:opaque language="{PICKY}">'
                             f"{rule_id}</eca:opaque></eca:action>")
        rules.append(f"""
        <eca:rule xmlns:eca="{ECA_NS}" id="{rule_id}">
          <eca:event><ping n="{{N}}" k="{{K}}"/></eca:event>
          {"".join(parts)}
        </eca:rule>""")
    return rules


def generate_events(seed):
    rng = random.Random(seed + 10_000)
    return [(str(rng.randrange(10)), rng.choice("abc")) for _ in range(12)]


def run(rules, events, workers):
    """Effects and stats of one deployment holding *rules*."""
    deployment = standard_deployment(datalog_program=PROGRAM)
    deployment.add_document("items.xml", ITEMS.copy())
    picky = Picky()
    deployment.grh.add_service(LanguageDescriptor(PICKY, "action", "picky"),
                               picky)
    runtime = Runtime(workers=workers) if workers else None
    engine = ECAEngine(deployment.grh, keep_instances=False, runtime=runtime)
    try:
        for markup in rules:
            engine.register_rule(markup)
        for n, k in events:
            deployment.stream.emit(E("ping", {"n": n, "k": k}))
        engine.drain()
    finally:
        engine.shutdown()
    effects = Counter(serialize(message.content) for message
                      in deployment.runtime.messages("sink"))
    effects.update(picky.done)
    return effects, Counter({key: engine.stats[key] for key in STATS})


def together_and_apart(seed, workers):
    rules, events = generate_rules(seed), generate_events(seed)
    together = run(rules, events, workers)
    effects, stats = Counter(), Counter()
    for markup in rules:
        alone = run([markup], events, workers)
        effects.update(alone[0])
        stats.update(alone[1])
    return together, (effects, stats)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_one_deployment_equals_the_sum_of_one_rule_deployments(seed, workers):
    together, apart = together_and_apart(seed, workers)
    assert together[0] == apart[0]
    assert together[1] == apart[1]
    assert together[1]["actions"], "the rules never acted"


def test_slots_fanned_back_out_of_order_are_caught(monkeypatch):
    original = GenericRequestHandler.deliver

    def reversed_fan_back(self, route, payloads, *rest, **options):
        return original(self, route, payloads, *rest, **options)[::-1]

    monkeypatch.setattr(GenericRequestHandler, "deliver", reversed_fan_back)
    caught = []
    for seed in SEEDS:
        together, apart = together_and_apart(seed, 0)
        if together != apart:
            caught.append(seed)
    # six of the twelve seeds catch it (seeds 2, 3, 6, 8, 9 and 11)
    assert len(caught) >= len(SEEDS) // 4, caught


def test_the_generator_reaches_the_envelope_path():
    """Most seeds put several slots of one language into one round."""
    envelopes = 0
    original = GenericRequestHandler.deliver

    def counting(self, route, payloads, *rest, **options):
        nonlocal envelopes
        envelopes += len(payloads) > 1
        return original(self, route, payloads, *rest, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GenericRequestHandler, "deliver", counting)
        for seed in SEEDS:
            run(generate_rules(seed), generate_events(seed), 0)
    assert envelopes >= len(SEEDS) * 6
