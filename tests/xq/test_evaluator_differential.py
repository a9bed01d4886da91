"""The compiled XQ-lite evaluator against the interpreter it replaced.

``reference_evaluator`` is the ``_XQRuntime`` that used to be
``repro.xq.evaluator``, running on the tree-walking XPath oracle of
``tests/xpath`` — a query evaluated there touches none of the compiled
code.  The corpus:

* every string constant of the ``tests/xpath``, ``tests/xq``,
  ``tests/conditions`` and ``tests/integration`` modules that parses as a
  query;
* the three query texts of the paper's Fig. 4 rule with **every** value
  the ledger's ``fig4_inproc`` world can substitute into them (each
  person, each model, each city × class), over that world's documents;
* hand-written corners: nested FLWORs shadowing variables, ``let`` of an
  empty and of a singleton sequence, ``where``/``order by`` on mixed keys,
  constructors inheriting and overriding namespace scope through embedded
  expressions, atomic-value spacing, and errors behind untaken branches.

Items that are nodes of an input document are compared by identity;
constructed elements by everything a constructor decides (name, attribute
order, ``nsdecls``, children); errors by class and message.
"""

import importlib.util
import math
import pathlib
import random
import re

import pytest

from repro.xmlmodel import (Comment, Document, E, Element,
                            ProcessingInstruction, Text)
from repro.xpath import AttributeNode
from repro.xq import XQSyntaxError, parse_query
from repro.xq import evaluator as compiled

from ..xpath.test_evaluator_differential import (every_node, random_document,
                                                 string_constants)
from . import reference_evaluator as reference

REPOSITORY = pathlib.Path(__file__).parent.parent.parent
NAMESPACES = {"t": "urn:example:t"}


# -- observing an evaluation ----------------------------------------------------

def shape(node):
    if isinstance(node, Text):
        return ("text", node.value)
    if isinstance(node, Comment):
        return ("comment", node.value)
    if isinstance(node, ProcessingInstruction):
        return ("pi", node.target, node.data)
    if isinstance(node, Document):   # the default context node of a query
        return ("document", tuple(shape(child) for child in node.children))
    return ("element", node.name, tuple(node.attributes.items()),
            tuple(node.nsdecls.items()),
            tuple(shape(child) for child in node.children))


def identity(item, input_nodes):
    if isinstance(item, AttributeNode):
        return ("attribute", id(item.owner), item.name, item.value)
    if isinstance(item, (Element, Document, Text, Comment,
                         ProcessingInstruction)):
        if id(item) in input_nodes:
            return ("node", id(item))
        return ("constructed", shape(item))
    if isinstance(item, float) and math.isnan(item):
        return ("nan",)
    return ("atom", type(item).__name__, item)


def outcome(evaluator, text, input_nodes, **arguments):
    try:
        sequence = evaluator.evaluate_query(text, **arguments)
    except Exception as exc:  # the class and the message are the verdict
        return ("raised", type(exc).__name__, str(exc))
    return ("sequence", tuple(identity(item, input_nodes)
                              for item in sequence))


def assert_same(text, input_nodes, **arguments):
    expected = outcome(reference, text, input_nodes, **arguments)
    actual = outcome(compiled, text, input_nodes, **arguments)
    assert actual == expected, text
    return expected


def nodes_of(*roots):
    found = set()
    for root in roots:
        found.add(id(root))
        if root.parent is not None:
            found.add(id(root.parent))
        found.update(id(node) for node in every_node(root))
    return found


def parses(text):
    try:
        parse_query(text)
    except XQSyntaxError:
        return False
    return True


# -- the corpus over seeded documents ---------------------------------------------

CORNERS = [
    "for $a in //x return $a/@k",
    "for $a in //x, $b in $a/y return ($a/@k, $b)",
    "for $a in //x for $a in $a/y return $a",
    "for $a in //x let $a := count($a/*) return $a",
    "let $e := //nothing return count($e)",
    "let $one := (//x)[1]/@k return $one",
    "let $s := string((//x)[1]/@k) return ($s, $s = $n)",
    "let $d := distinct-values(//@k) for $v in $d return concat($v, '!')",
    "for $a in //* where $a/@k > 1 return name($a)",
    "for $a in //* where $a/y return $a/y[1]",
    "for $a in //*[@k] order by $a/@k return string($a/@k)",
    "for $a in //*[@k] order by $a/@k descending return $a",
    "for $a in //* order by name($a) return name($a)",
    "for $a in //* order by $a/@nokey return 1",
    "for $a in (3, 1, 2) order by $a return $a",
    "for $a in ('b', 'a', 10) order by $a return $a",
    "for $a in //x return for $b in //y return ($a = $b)",
    # a FLWOR's variables end with it
    "((for $a in (1, 2) return $a), $a)", "((let $n := 5 return $n), $n)",
    "<r>{for $n in (7, 8) return $n}{$n}</r>",
    "for $a in (1, 2) return ((for $a in (3, 4) return $a), $a)",
    "for $a in (1, 2) where (for $a in (0) return $a) = 0 return $a",
    "for $a in //x return if ($a/y) then $a/y else 'none'",
    "if (//x) then count(//x) else $unbound",
    "if (//nothing) then $unbound else 'skipped'",
    "if (//nothing) then 1 else $unbound",
    "if ('') then 1 else 2", "if (0) then 1 else 2", "if (()) then 1 else 2",
    "()", "(1, (2, 3), //x[1])", "(//x, //x)",
    "count((1, 2))", "(for $a in //x return $a)/y", "//x[for $a in . return 1]",
    "<r/>", "<r a='1' b=\"{count(//x)}\">t{1}{2} {'s'}<n/>{//x[1]}</r>",
    "<r>{//x/@k}</r>", "<r>{(//text())[1]}</r>", "<r>{1}{//x[1]}{2}{3}</r>",
    "<r>  <n/>  </r>", "<r> a {1} </r>", "<r a='{//x/@k}{(1, 2)}z'/>",
    "<t:r><t:n/></t:r>", "<u:r/>", "<r u:a='1'/>", "<r><u:n/></r>",
    "<r xmlns='urn:d'><n/>{<m/>}</r>", "<r xmlns:u='urn:u'><u:n/>{<u:m/>}</r>",
    "<r xmlns:u='urn:u'>{for $a in //x return <u:n k='{$a/@k}'/>}</r>",
    "<r xmlns:u='urn:1'><m xmlns:u='urn:2'>{<u:n/>}</m>{<u:n/>}</r>",
    "<r>{<u:n/>}</r>", "<r a='{$unbound}'/>", "<u:r a='{$unbound}'/>",
    "for $a in //x return <row n='{name($a)}'>{$a/y}</row>",
    "declare namespace u = 'urn:u'; <u:r>{//u:x}</u:r>",
    "declare namespace t = 'urn:other'; //t:x",
    "declare default element namespace 'urn:example:t'; (//x, <n/>)",
    "declare default element namespace 'urn:example:t'; "
    "<r xmlns=''>{<n/>}</r>",
    "doc('a.xml')//x[@k = $Person]", "doc('missing.xml')", "doc()",
    "doc('a.xml')//x[1] | doc('b.xml')//x[1]",
    "for $d in (doc('a.xml'), doc('b.xml')) return count($d//x)",
    "string(/)", "string-length()", "normalize-space()", "name()", ".", "/",
    "floor(number('x'))", "round(1 div 0)", "substring('abc', 1 div 0)",
    "$unbound", "nosuch()", "//u:x",
]
# a syntax error is raised anew, with the same message, on every call
MALFORMED = ["1 +", "for $a in", "<r>", "doc('d.xml')//["]

CORPUS = CORNERS + MALFORMED + [text for text in string_constants()
                                if parses(text)]


def test_corpus_is_not_trivial():
    assert len(CORPUS) > len(CORNERS) + 100
    assert all(parses(text) for text in CORNERS)
    assert not any(parses(text) for text in MALFORMED)


@pytest.mark.parametrize("seed", range(10))
def test_corpus_over_random_documents(seed):
    document, root = random_document(seed)
    _, second = random_document(seed + 50)
    rng = random.Random(f"xq-differential:{seed}")
    documents = {"a.xml": root, "b.xml": second, "cars.xml": root,
                 "persons.xml": root, "classes.xml": second}
    input_nodes = nodes_of(root, second)
    elements = [node for node in every_node(root)
                if isinstance(node, Element)]
    variables = {"n": 2.0, "Person": "1", "p": "2",
                 "nodes": rng.sample(elements, min(len(elements), 5))}
    raised = 0
    for text in CORPUS:
        for context_node in (None, document, root):
            verdict = assert_same(text, input_nodes,
                                  context_node=context_node,
                                  variables=variables, documents=documents,
                                  namespaces=NAMESPACES)
            raised += verdict[0] == "raised"
    assert raised < 2 * len(CORPUS)   # most of the corpus evaluates


# -- Fig. 4, every value the ledger's world can substitute ---------------------------

def fig4_world():
    path = REPOSITORY / "benchmarks" / "ledger" / "generators.py"
    if not path.exists():
        pytest.skip("the ledger's generators are not in this checkout")
    spec = importlib.util.spec_from_file_location("ledger_generators", path)
    module = importlib.util.module_from_spec(spec)
    import sys
    sys.modules[spec.name] = module   # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.fig4_world(2006), module.CLASS_NAMES


def fig4_documents(world):
    persons = E("persons")
    for name, home, models in world.persons:
        person = E("person", {"name": name, "home": home})
        for model in models:
            car = E("car")
            car.append(E("model", None, model))
            person.append(car)
        persons.append(person)
    classes = E("classes")
    for model, klass in world.classes:
        classes.append(E("entry", {"model": model, "class": klass}))
    fleet = E("fleet")
    for car_id, model, klass, city in world.fleet:
        fleet.append(E("car", {"id": car_id, "model": model, "class": klass,
                               "location": city}))
    return {"persons.xml": persons, "classes.xml": classes,
            "fleet.xml": fleet}


def test_fig4_queries_with_every_substituted_value():
    from repro.domain.workload import full_pipeline_rule_markup
    markup = full_pipeline_rule_markup("r")
    own_car, klass, avail = (
        " ".join(text.split()) for text in re.findall(
            r"<(?:xq:xquery|eca:opaque)[^>]*>(.*?)</(?:xq:xquery|eca:opaque)>",
            markup, re.S))
    assert "$Person" in own_car and "{OwnCar}" in klass and "{To}" in avail
    world, class_names = fig4_world()
    documents = fig4_documents(world)
    input_nodes = nodes_of(*documents.values())
    answers = 0
    for name, _home, _models in world.persons:
        verdict = assert_same(own_car, input_nodes, documents=documents,
                              variables={"Person": name})
        answers += len(verdict[1])
    for model, _klass in world.classes:
        verdict = assert_same(klass.replace("{OwnCar}", model), input_nodes,
                              documents=documents)
        answers += len(verdict[1])
    for city in world.cities:
        for class_name in class_names:
            verdict = assert_same(
                avail.replace("{To}", city).replace("{Class}", class_name),
                input_nodes, documents=documents)
            answers += len(verdict[1])
    # two cars per person, one class per model, the whole fleet once
    assert answers == 2 * len(world.persons) + len(world.classes) \
        + len(world.fleet)
