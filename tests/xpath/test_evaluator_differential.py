"""The compiled XPath evaluator against the interpreter it replaced.

``reference_evaluator`` is the ``isinstance``-dispatch tree walker that
used to be ``repro.xpath.evaluator``: it sorts into document order after
every step and never fuses ``//name``.  Three layers:

* a corpus — every string constant of the ``tests/xpath``, ``tests/xq``,
  ``tests/conditions`` and ``tests/integration`` modules that parses as
  XPath, plus hand-written corners (positional predicates behind ``//``,
  reverse axes, unions with attributes, nested descendant scans, errors
  hidden behind a short-circuit) — evaluated over seeded random documents
  whose siblings are often structurally equal, from several context nodes;
* a hypothesis property over generated trees and generated location paths
  (axes × node tests × positional and boolean predicates), derandomized so
  a failure replays;
* direct checks that the order-aware steps really skip the sort, and only
  where that is sound.

Both must return the same value — node lists compared by identity and
order — or raise the same exception class with the same message.
"""

import ast
import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.xmlmodel import (Comment, Document, Element, ProcessingInstruction,
                            QName, Text)
from repro.xpath import (AttributeNode, XPathSyntaxError, evaluate,
                         parse_xpath, sort_document_order)
from repro.xpath import evaluator as compiled

from . import reference_evaluator as reference

TESTS = pathlib.Path(__file__).parent.parent
CORPUS_DIRECTORIES = ("xpath", "xq", "conditions", "integration")
T_NS = "urn:example:t"
NAMESPACES = {"t": T_NS}


# -- observing an evaluation ----------------------------------------------------

def identity(item):
    """What makes two result items *the same item*: the node itself (an
    attribute node is made on demand, so its owner and name stand in)."""
    if isinstance(item, AttributeNode):
        return ("attribute", id(item.owner), item.name, item.value)
    if isinstance(item, (Element, Document, Text, Comment,
                         ProcessingInstruction)):
        return ("node", id(item))
    if isinstance(item, float) and math.isnan(item):
        return ("nan",)
    return ("atom", type(item).__name__, item)


def outcome(evaluator, expression, node, variables, **options):
    try:
        value = evaluator.evaluate(expression, node, variables=variables,
                                   namespaces=NAMESPACES, **options)
    except Exception as exc:  # the class and the message are the verdict
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(value, list):
        return ("sequence", tuple(identity(item) for item in value))
    return ("value", identity(value))


def assert_same(expression, node, variables, **options):
    expected = outcome(reference, expression, node, variables, **options)
    actual = outcome(compiled, expression, node, variables, **options)
    assert actual == expected, (expression, options)


# -- the corpus -------------------------------------------------------------------

def string_constants(directories=CORPUS_DIRECTORIES):
    found = set()
    for directory in directories:
        for path in sorted((TESTS / directory).glob("test_*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) \
                        and isinstance(node.value, str) and node.value.strip():
                    found.add(node.value)
    return sorted(found)


def parses(text):
    try:
        parse_xpath(text)
    except XPathSyntaxError:
        return False
    return True


CORNERS = [
    # positional predicates behind '//' count per parent, not per scan
    "//x[1]", "(//x)[1]", "//x[last()]", "(//x)[last()]", "//x[$n]",
    "//x[position() = 2]", "//x[position() < last()]", "//x[y[last()]]",
    "//x[@k][1]", "//x[1][@k]", "//x[count(y) = 1]", "//x[not(y)]",
    "//x[y]", "//x[@k = '1' or @k = '2'][y]", "//x[fn:contains(@k, '1')]",
    "//*[1]", "//t:x[@k]", "//t:*", "//node()[1]", "//text()[2]",
    "//comment()", "//processing-instruction()", "//@k", "//@*", "//x/@*",
    "//@*[1]", "//@*[last()]", "//x/@*[2]",
    # nested scans and mixed axes
    "..//y", "a//b//c", ".//b//b", "//b//b[1]", "//b/..", "//y/../x",
    "//y/ancestor::*", "//y/ancestor::*[1]", "//y/ancestor-or-self::*[2]",
    "//y/preceding-sibling::*[1]", "//y/following-sibling::*[1]",
    "//y/preceding-sibling::node()", "//x/following-sibling::x",
    "//x/self::x", "//x/self::node()/y", "//x/descendant::y",
    "//x/descendant-or-self::x", "//x/child::node()", "/*/*/*",
    "//@k/..", "//@k/self::node()", "//@k/ancestor::*[1]", "//x//@k",
    "//@k//x", "@k", "@*", "..", ".", "/", "/*", "*[2]/*[1]",
    # unions, with attributes and out of order
    "//y | //x", "//x/@k | //y | //x", "//@k | //@j", "(//y | //x)[2]",
    "(//y | //x)/..", "$nodes | //x", "$nodes/..", "$nodes//y",
    "$nodes/y", "$nodes/self::x", "$nodes/@k", "$nodes[2]", "$nodes[$n]",
    "$one/y", "$one//y[1]", "count($nodes/descendant-or-self::*)",
    # the focus is back on the outer node after an inner predicate ran
    "count($nodes[@k]) + count(*)", "$nodes[y] | *", "(//x)[1] | *",
    "count(//x[@k]) + count(*)", "//x[@k] | *", "*[//x[@k]]/@k",
    "//*[*[@k]/* = *]", "//*[$nodes[1]][position() = last()]",
    "*[*[2]][position() = 2]", "*[count(*[1]/*[1]) = position()]",
    # values, coercions, numeric corners
    "count(//x)", "sum(//@k)", "string(//x)", "string(/)", "name(//*[2])",
    "local-name(//@*)", "namespace-uri(//t:x)", "normalize-space(//y)",
    "string-length()", "number(//@k)", "//x[@k > 1]", "//x[@k = $n]",
    "//x[@k != //y/@k]", "//x = //y", "1 div 0", "-1 div 0", "0 div 0",
    "5 mod 0", "floor(number('x'))", "ceiling(1 div 0)", "round(-1 div 0)",
    "round(2.5)", "substring('12345', 1.5, 2.6)", "substring('abc', 0 div 0)",
    "substring('abc', 1, 1 div 0)", "substring('abc', -1 div 0, 1 div 0)",
    "distinct-values(//@k)", "string-join(//@k, '-')", "max(//@k)",
    "boolean(//nothing)", "not(//x)", "'a' = 'a' and 1 < 2",
    # errors: which one, and whether it is reached at all
    "$unbound", "//x[$unbound]", "//nothing[$unbound]", "nosuch(1)",
    "//x[nosuch()]", "//nothing[nosuch()]", "u:x", "//u:x", "@u:k",
    "//x/@u:k", "//nothing/u:x", "//comment()/u:x", "text()/u:x",
    "1 or $unbound", "0 and $unbound", "0 or $unbound", "1 and nosuch()",
    "//x[y or $unbound]", "//x[u:q or $unbound]", "//x[@k = $unbound][1]",
    "//x[1][@k = $unbound]", "'text'/x", "count('text')", "$n/x",
    "//x | 3", "-//x", "count()", "concat('a')", "doc('x')",
]


def random_document(seed):
    """A seeded document: few names, so paths hit; siblings that are
    structurally equal, so identity (not equality) has to tell them
    apart; every node kind; one namespace."""
    rng = random.Random(f"xpath-differential:{seed}")
    names = ["x", "y", "a", "b", "c", QName(T_NS, "x")]

    def element(depth):
        node = Element(rng.choice(names))
        for key in rng.sample(["k", "j", QName(T_NS, "k")],
                              rng.randrange(0, 3)):
            node.set(key, rng.choice(["1", "2", "x"]))
        if depth < 4:
            # bushy near the root, so no seed yields a trivial document
            for _ in range(rng.randrange(3, 6) if depth < 2
                           else rng.randrange(0, 4)):
                roll = rng.random()
                if roll < 0.6:
                    child = element(depth + 1)
                    node.append(child)
                    if rng.random() < 0.3:    # an equal twin, distinct node
                        node.append(child.copy())
                elif roll < 0.85:
                    node.append(Text(rng.choice(["t", "u", " ", "7"])))
                elif roll < 0.95:
                    node.append(Comment(rng.choice(["c", "d"])))
                else:
                    node.append(ProcessingInstruction("pi", "data"))
        return node

    root = element(0)
    return Document([Comment("prolog"), root]), root


def every_node(root):
    yield root
    for child in root.children:
        if isinstance(child, Element):
            yield from every_node(child)
        else:
            yield child


def variables_for(root, rng):
    elements = [node for node in every_node(root)
                if isinstance(node, Element)]
    shuffled = rng.sample(elements, min(len(elements), 6))
    return {"n": 2.0, "nodes": shuffled, "one": [rng.choice(elements)],
            "Person": "John Doe 0"}


CORPUS = CORNERS + [text for text in string_constants() if parses(text)]


def test_corpus_is_not_trivial():
    assert len(CORPUS) > len(CORNERS) + 100
    assert all(parses(text) for text in CORNERS)


@pytest.mark.parametrize("seed", range(10))
def test_corpus_over_random_documents(seed):
    document, root = random_document(seed)
    rng = random.Random(f"xpath-differential:contexts:{seed}")
    variables = variables_for(root, rng)
    inner = rng.choice(list(every_node(root)))
    for expression in CORPUS:
        for node in (document, root, inner):
            assert_same(expression, node, variables)
    for expression in CORNERS:
        assert_same(expression, root, variables,
                    default_element_namespace=T_NS)


def test_document_order_sort_agrees_on_shuffled_nodes():
    for seed in range(10):
        document, root = random_document(seed)
        other_document, other_root = random_document(seed + 100)
        rng = random.Random(seed)
        nodes = list(every_node(root)) + [document]
        nodes += [attribute for node in every_node(root)
                  for attribute in compiled.AXIS_FUNCTIONS["attribute"](node)]
        nodes += list(every_node(other_root))[:5]
        nodes += rng.sample(nodes, len(nodes) // 2)   # duplicates
        rng.shuffle(nodes)
        expected = [identity(node)
                    for node in reference.sort_document_order(nodes)]
        assert [identity(node)
                for node in sort_document_order(nodes)] == expected


# -- generated trees × generated location paths -----------------------------------

@st.composite
def trees(draw, depth=0):
    element = Element(draw(st.sampled_from(["a", "b", "c"])))
    for key in draw(st.lists(st.sampled_from(["k", "j"]), unique=True,
                             max_size=2)):
        element.set(key, draw(st.sampled_from(["1", "2"])))
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.integers(0, 4))
            if kind < 3:
                child = draw(trees(depth=depth + 1))
                element.append(child)
                if draw(st.booleans()):
                    element.append(child.copy())
            elif kind == 3:
                element.append(Text(draw(st.sampled_from(["t", "1"]))))
            else:
                element.append(Comment("c"))
    return element


AXES = ["child", "descendant", "descendant-or-self", "self", "parent",
        "ancestor", "ancestor-or-self", "following-sibling",
        "preceding-sibling", "attribute"]
NODE_TESTS = ["a", "b", "c", "*", "node()", "text()", "comment()", "k"]
PREDICATES = ["", "", "[1]", "[2]", "[last()]", "[position() > 1]", "[@k]",
              "[@k = '1']", "[b]", "[not(a)]", "[@k][1]", "[1][@k]",
              "[$n]", "[count(*) > 1]", "[. = '1']", "[a or @j = '2']"]

steps = st.builds(
    lambda axis, test, predicate: f"{axis}::{test}{predicate}",
    st.sampled_from(AXES), st.sampled_from(NODE_TESTS),
    st.sampled_from(PREDICATES))
abbreviated = st.builds(
    lambda test, predicate: f"{test}{predicate}",
    st.sampled_from(["a", "b", "*", "@k", "@*", "..", ".", "text()"]),
    st.sampled_from(["", "[1]", "[last()]", "[@k]"])).filter(
        lambda step: not (step[0] == "." and "[" in step))
location_paths = st.builds(
    lambda lead, first, rest: lead + first + "".join(rest),
    st.sampled_from(["", "/", "//", ".//", "$nodes/", "$nodes//"]),
    st.one_of(steps, abbreviated),
    st.lists(st.builds(lambda separator, step: separator + step,
                       st.sampled_from(["/", "//"]),
                       st.one_of(steps, abbreviated)), max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trees(), location_paths, st.randoms(use_true_random=False))
def test_generated_paths_over_generated_trees(tree, path, rng):
    Document([tree])
    nodes = list(every_node(tree))
    variables = {"n": 2.0, "nodes": rng.sample(nodes, min(len(nodes), 4))}
    for node in (tree, rng.choice(nodes)):
        assert_same(path, node, variables)


# -- the sort is skipped where, and only where, it is sound --------------------------

def counting_sorts(monkeypatch):
    calls = []

    def counted(nodes):
        calls.append(len(nodes))
        return sort_document_order(nodes)
    monkeypatch.setattr(compiled, "sort_document_order", counted)
    return calls


def test_fig4_shaped_paths_never_sort(monkeypatch):
    root = Element("persons")
    for index in range(5):
        person = Element("person", {QName(None, "name"): f"p{index}"})
        for model in ("Golf", "Polo"):
            car = Element("car", {QName(None, "class"): "B"})
            car.append(Element("model", None, [model]))
            person.append(car)
        root.append(person)
    calls = counting_sorts(monkeypatch)
    assert len(evaluate("//person[@name = $P]/car", root,
                        variables={"P": "p3"})) == 2
    assert len(evaluate("person/car/model/text()", root)) == 10
    assert len(evaluate("//car[@class = 'B'][model]/@class", root)) == 10
    assert [a.value for a in evaluate("//person/@name", root)] \
        == [f"p{index}" for index in range(5)]
    assert calls == []
    # so the fused scan ran to the end: had a predicate raised inside it,
    # the steps would have been retried one by one, and '//' then child
    # from a nested list sorts — as the unfusable //person[1] does
    evaluate("//person[1]", root)
    assert len(calls) == 1


def test_child_of_a_nested_list_is_sorted():
    # //b is [outer, inner, last]; gathering their c children node by
    # node gives [outer's c, inner's c, last's c], but inner's c comes
    # first in the document
    inner = Element("b", None, [Element("c")])
    outer = Element("b", None, [inner, Element("c")])
    root = Element("a", None, [outer, Element("b", None, [Element("c")])])
    result = evaluate("//b/c", root)
    assert [identity(node) for node in result] == \
        [identity(node) for node in reference.evaluate("//b/c", root)]
    assert result[0] is inner.children[0]


def test_overriding_a_core_function_disables_the_fused_scan():
    root = Element("r", None, [Element("x"), Element("x")])
    expr = parse_xpath("//x[not(y)]")
    context = compiled.Context(node=root,
                               functions={"not": lambda focus, args: 2.0})
    # with not() returning a number the predicate is positional: the
    # second x of its parent, exactly as the interpreter reads it
    for evaluator in (compiled, reference):
        result = evaluator.evaluate_expr(expr, context)
        assert len(result) == 1 and result[0] is root.children[1]


# -- [@a = 'lit'] / [@a = $v] is a dictionary probe, and only on Element + str -------

PROBE_SHAPES = [
    # probed: bare unprefixed attribute against a literal or a variable
    "//x[@k = $v]", "//x[$v = @k]", "//x[@k = '1']", "//x['1' = @k]",
    "//*[@k = $v][@j = '2']", "@k = $v", "@k = '1'", "//x[@missing = $v]",
    "//x[@k = $unbound]", "//nothing[@k = $unbound]", "@k = $unbound",
    # the same words, but not the probed shape: the general comparison
    "//x[@k != 'x']", "//x[@k != $v]", "//x[@t:k = 'x']", "//x[@t:k = $v]",
    "//x[@u:k = 'x']", "//x[@* = '1']", "//x[@k[1] = '1']", "//x[@k = @j]",
    "//x[@k = 1]", "//x[@k = y]", "//x[../@k = '1']", "//x[@k < $v]",
]


def probe_values(root, rng):
    elements = [node for node in every_node(root)
                if isinstance(node, Element)]
    return {
        "string": "1", "other string": "x", "empty string": "",
        "number": 1.0, "integer": 2, "nan": math.nan,
        "true": True, "false": False,
        "node-set": rng.sample(elements, min(len(elements), 4)),
        "empty node-set": [],
        "single element": rng.choice(elements),
        "attribute node": AttributeNode(root, QName(None, "k"), "1"),
    }


@pytest.mark.parametrize("seed", range(6))
def test_attribute_probe_agrees_for_every_value_type(seed):
    document, root = random_document(seed)
    rng = random.Random(f"xpath-differential:probe:{seed}")
    contexts = [document, root] + [
        node for node in every_node(root)
        if isinstance(node, (Text, Comment, ProcessingInstruction))][:3]
    contexts.append(AttributeNode(root, QName(None, "k"), "1"))
    for value in probe_values(root, rng).values():
        for expression in PROBE_SHAPES:
            for node in contexts:
                assert_same(expression, node, {"v": value})
    for expression in PROBE_SHAPES:           # $v itself unbound
        assert_same(expression.replace("$unbound", "$v"), root, {})


def test_fig4_predicates_allocate_no_attribute_node(monkeypatch):
    root = Element("fleet")
    for index in range(6):
        root.append(Element("car", {QName(None, "location"): f"city{index % 2}",
                                    QName(None, "class"): "AB"[index % 2],
                                    QName(None, "model"): f"m{index}"}))
    made = []

    class Counted(AttributeNode):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)
    monkeypatch.setattr(compiled, "AttributeNode", Counted)
    compiled.compile_expr.cache_clear()     # closures capture the class
    try:
        cars = evaluate("//car[@location = 'city1'][@class = $Class]", root,
                        variables={"Class": "B"})
        assert [car.get("model") for car in cars] == ["m1", "m3", "m5"]
        assert made == []
        # ... while the same predicate on the general path makes one per
        # candidate that has the attribute (a number is not probed)
        evaluate("//car[@location = 1]", root)
        assert len(made) == 6
        # and the step that *selects* attributes still yields real nodes
        made.clear()
        models = evaluate("//car[@class = 'A']/@model", root)
        assert [node.value for node in models] == ["m0", "m2", "m4"]
        assert len(made) == 3
    finally:
        compiled.compile_expr.cache_clear()
