"""The tokenizer against the parser it replaced, and the serializer against
the function it replaced.

``reference_parser`` is the character-at-a-time recursive-descent parser
that used to be ``repro.xmlmodel.parser``; ``reference_serializer`` is the
serializer before ``_write_element`` stopped copying its scope per element.
Three layers:

* a corpus — every markup literal of this directory's tests, hand-written
  documents for the corners, and seeded GRH envelopes — must give the same
  tree (names, attribute order, ``nsdecls``, text coalescing, parents) or
  the same ``XMLSyntaxError`` (message, line and column), and the same
  ``serialize()`` bytes;
* seeded one-character mutations of that corpus must give the same verdict,
  and on reject the same message and position;
* generated trees must survive ``parse(serialize(t))``, and written the
  same by both serializers.

The reference's two known faults are the only licensed differences: where
it lets a bare ``ValueError``/``OverflowError`` escape (malformed numeric
character reference, empty local name) or dies of ``RecursionError``, the
tokenizer must raise ``XMLSyntaxError``.
"""

import ast
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bindings import Relation, Uri, relation_to_answers
from repro.grh.messages import (Detection, Request, batch_results_to_xml,
                                batch_to_xml, detection_to_xml, error_message,
                                ok_message, request_to_xml)
from repro.xmlmodel import (Comment, Document, Element, ProcessingInstruction,
                            QName, Text, XMLSyntaxError, canonicalize, parse,
                            serialize)
from repro.xmlmodel import parser as tokenizer

from . import reference_parser, reference_serializer

HERE = pathlib.Path(__file__).parent


# -- observing a parse ----------------------------------------------------------

def shape(node, parent=None):
    """Everything a parse decides about a node, ``Element.__eq__`` ignores
    prefixes, comments and white space; this does not."""
    assert node.parent is parent
    if isinstance(node, Text):
        return ("text", node.value)
    if isinstance(node, Comment):
        return ("comment", node.value)
    if isinstance(node, ProcessingInstruction):
        return ("pi", node.target, node.data)
    children = tuple(shape(child, node) for child in node.children)
    if isinstance(node, Document):
        return ("document", children)
    return ("element", node.name, tuple(node.attributes.items()),
            tuple(node.nsdecls.items()), children)


def outcome(parser, *args):
    """``("tree", shape, bytes)``, ``("rejected", message, line, column)`` or
    ``("fault", exception type)`` for an error that is not a syntax error."""
    try:
        node = parser(*args)
    except XMLSyntaxError as exc:
        return ("rejected", str(exc), exc.line, exc.column)
    except (ValueError, OverflowError, RecursionError) as exc:
        return ("fault", type(exc).__name__)
    top = node if isinstance(node, Document) else node.parent
    assert isinstance(top, Document) and top.parent is None
    return ("tree", shape(top), serialize(top))


def assert_same(text, entry="parse", *args):
    expected = outcome(getattr(reference_parser, entry), text, *args)
    actual = outcome(getattr(tokenizer, entry), text, *args)
    if expected[0] == "fault":
        assert actual[0] == "rejected", (text, expected, actual)
    else:
        assert actual == expected, text
    return actual


# -- the corpus -------------------------------------------------------------------

def literals_of_test_modules():
    """Every string constant with a ``<`` in this directory's test modules."""
    found = []
    for path in sorted(HERE.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "<" in node.value):
                found.append(node.value)
    return found


HANDWRITTEN = [
    # prolog and epilogue
    '<?xml version="1.0" encoding="UTF-8"?>\n<!-- head -->\n<?style x?>\n'
    '<!DOCTYPE a [<!ELEMENT a (b)>]>\n<a><b/></a>\n<!-- tail --><?end?>\n',
    '\ufeff<a/>', '\ufeff<?xml version="1.0"?><a/>', '<?xml?><a/>',
    '<!DOCTYPE a><a/>', '  \n<!DOCTYPE a SYSTEM "a.dtd">\n<a>x</a>  ',
    '\u00a0<?xml version="1.0"?><a/>', '<?xml-stylesheet href="x"?><a/>',
    # character data: entities, references, CDATA, coalescing
    '<a>&lt;&amp;&gt;&quot;&apos; &#65;&#x42;&#X43; &#10;</a>',
    '<a>one<![CDATA[<two> & ]]]>three<![CDATA[]]><b/><![CDATA[]]></a>',
    '<a><![CDATA[]]></a>', '<a>x<!-- c -->y<?p d?>z</a>', '<a> <b/> </a>',
    '<a>a>b]]>c</a>', '<a>\r\n\t x \r</a>',
    # attributes: quoting, order, white space, references
    '<a  x = "1"\n\ty=\'2\'  z="a&amp;b&#9;&lt;"  />',
    "<a x='\"' y=\"'\" z='<>'/>", '<a x="&#10;&#13;"></a >', '<a\n/>',
    '<a x="1"\n></a\n>', '<é ü="ä">ö</é>', '<a:b.c-d_e xmlns:a="u"/>',
    # namespaces
    '<a xmlns="urn:d"><b xmlns=""><c/></b><d xmlns="urn:e"/></a>',
    '<p:a xmlns:p="urn:1"><p:b xmlns:p="urn:2"><p:c xmlns:p="urn:3"/>'
    '<p:d/></p:b><p:e p:k="v"/></p:a>',
    '<a p:k="late" xmlns:p="urn:after"/>', '<a xml:lang="en" xml:space="x"/>',
    '<xmlns:a/>', '<a xmlns:p="urn:1" xmlns:p="urn:2"><p:b/></a>',
    '<a xmlns:p="u" xmlns:q="u" p:k="1" k="2"/>',
    # rejected: each check of the parser once
    '', ' ', 'x', '<', '<a', '<a ', '<a b', '<a b=', '<a b="', '<a b="1"',
    '<a b="1"c="2"/>', '<a b=1/>', '<a b="1" b="2"/>', '<a/ >', '<a / >',
    '< a/>', '<1a/>', '<a><1/></a>', '<²/>', '<a ²="1"/>', '<a></²>',
    '<a>', '<a><b>', '<a></b>', '<a></a', '<a></a x>', '<a></ a>', '<a><',
    '<a>&', '<a>&amp', '<a>&bogus;</a>', '<a>&a&b;</a>', '<a b="&bogus;"/>',
    '<a><!-- x', '<a><![CDATA[ x', '<a><?p x', '<a><?', '<a><??>', '<a><!x>',
    '<!-- x --><a/>', '</a>', '<?p?><a/>', '<a/>x', '<a/><b/>', '<a/><!--',
    '<?xml version="1.0"?><a/>x', '<?xml version="1.0"', '<!DOCTYPE a [<a/>',
    '<?xml version="1.0"?><!-- x', '<?xml version="1.0"?>',
    '<p:a/>', '<a p:k="1"/>', '<a xmlns:p=""/>', '<a xmlns:="u"/>',
    '<a xmlns:p="u" xmlns:q="u" p:k="1" q:k="2"/>',
    '<a xmlns:p="http://www.w3.org/2000/xmlns/" p:k="1"/>',
    '<a xmlns:p="u" xmlns:q="u" p:k="1" q:k="2" r:k="3"/>',
    '<p:a>\n<b></c>\n</p:a>', '<p:a>\n\n</p:a>', '<a>\n<p:b/>\n</a>',
    '<a>\n<b q:k="1">\n</b>\n</a>', '<:a/>', '<a xmlns="u"><:b/></a>',
    # the reference's faults: the tokenizer must reject these
    '<a>&#xZZ;</a>', '<a>&#;</a>', '<a>&#x;</a>', '<a>&#1114112;</a>',
    '<a>&#-1;</a>', '<a b="&#99999999999999999999;"/>',
    '<p: xmlns:p="u"/>', '<a xmlns:p="u" p:="1"/>',
]


def envelopes(seed):
    """Wire text of ``log:request``/``log:answers``/``log:batch`` messages
    built the way the GRH builds them, over seeded bindings."""
    rng = random.Random(seed)
    payloads = [
        parse('<t:booking xmlns:t="urn:travel" id="7" to="Paris &amp; Rome">'
              '<t:car xmlns:t="urn:fleet" t:class="B"><plain xmlns=""/></t:car>'
              '<![CDATA[<raw>]]><!-- note --><?audit on?></t:booking>'),
        parse('<cars xmlns="urn:fleet"><car m="Golf">text &lt; tail</car>'
              '<x:car xmlns:x="urn:other" xmlns=""><y/></x:car></cars>'),
        parse("<plain k='\"q\"'>\n  <nested/>\n</plain>"),
    ]
    strings = ["", "Paris", "a<b>&c;\"'", "line\nbreak\ttab", "é²\u2028", " "]

    def value():
        kind = rng.randrange(6)
        if kind == 0:
            return rng.choice(payloads)
        if kind == 1:
            return rng.choice(strings)
        if kind == 2:
            return Uri(f"urn:thing:{rng.randrange(100)}?a=1&b=2")
        if kind == 3:
            return rng.choice([True, False])
        return rng.choice([rng.randrange(-5, 5000), rng.random() * 100])

    def relation():
        names = rng.sample(["Person", "Car", "To", "Class", "N"],
                           rng.randrange(1, 5))
        return Relation({name: value() for name in names}
                        for _ in range(rng.randrange(0, 5)))

    def request():
        bindings = relation()
        return request_to_xml(Request(
            rng.choice(["query", "action", "test", "register-event"]),
            f"rule{rng.randrange(50)}#q{rng.randrange(4)}",
            rng.choice(payloads + [None]), bindings,
            dedups=rng.choice([None, tuple(
                rng.choice([None, f"i7/2&{index}"])
                for index in range(len(bindings)))]),
            traceparent=rng.choice([None, "00-ab-cd-01"])))

    messages = [relation_to_answers(relation()) for _ in range(6)]
    messages += [request() for _ in range(6)]
    messages += [batch_to_xml([request() for _ in range(rng.randrange(1, 4))])
                 for _ in range(3)]
    messages.append(batch_results_to_xml(
        [relation_to_answers(relation()), ok_message(),
         error_message("no <such> service & more")]))
    messages.append(detection_to_xml(Detection(
        "rule1#e", 1.5, 2.25, relation(), events=tuple(payloads[:2]),
        detection_id="d-9")))
    wire = [serialize(message) for message in messages]
    wire += [serialize(message, indent="  ", declaration=True)
             for message in messages[::4]]
    return wire


CORPUS = list(dict.fromkeys(literals_of_test_modules() + HANDWRITTEN
                           + envelopes(2006) + envelopes(17)))


class TestCorpus:
    def test_corpus_holds_every_construct_it_is_meant_to(self):
        joined = "\n".join(CORPUS)
        for needle in ('type="xml"', 'xmlns=""', "<![CDATA[", "<!--", "<?",
                       "&amp;", "&#10;", "<log:request", "<log:answers",
                       "<log:batch", "<log:detection"):
            assert needle in joined, needle
        assert len(CORPUS) > 200

    def test_same_tree_same_bytes_or_same_error(self):
        verdicts = [assert_same(text)[0] for text in CORPUS]
        assert verdicts.count("tree") > 100
        assert verdicts.count("rejected") > 60

    def test_other_entry_points_agree(self):
        for text in CORPUS:
            assert_same(text, "parse_document")
            assert_same(text, "parse_fragment",
                        {"p": "urn:given", "t": "urn:given-t"})

    def test_serializer_is_byte_identical(self):
        for text in CORPUS:
            try:
                tree = reference_parser.parse(text)
            except (ValueError, OverflowError):
                continue
            for node in (tree, tree.parent):
                assert serialize(node) == reference_serializer.serialize(node)
                assert (serialize(node, indent="  ", declaration=True)
                        == reference_serializer.serialize(
                            node, indent="  ", declaration=True))
            assert canonicalize(tree) == reference_serializer.canonicalize(tree)


# -- mutations --------------------------------------------------------------------

ALPHABET = "<>/=&;#\"'!?-[]:x0 \n\t\r_.\u00b2\u00e9\u00a0\u2028"


def mutate(text, rng):
    if not text:
        return rng.choice(ALPHABET)
    at = rng.randrange(len(text))
    kind = rng.randrange(3)
    if kind == 0:
        return text[:at] + text[at + 1:]
    if kind == 1:
        return text[:at] + rng.choice(ALPHABET) + text[at:]
    at = min(at, len(text) - 2) if len(text) > 1 else 0
    return text[:at] + text[at:at + 2][::-1] + text[at + 2:]


class TestMutations:
    @pytest.mark.parametrize("seed", range(10))
    def test_same_verdict_and_position(self, seed):
        rng = random.Random(seed)
        verdicts = {"tree": 0, "rejected": 0}
        for text in CORPUS:
            for _ in range(32):
                verdicts[assert_same(mutate(text, rng))[0]] += 1
        assert verdicts["tree"] > 400 and verdicts["rejected"] > 4000


# -- the two repaired faults, by name ---------------------------------------------

class TestRepairedFaults:
    @pytest.mark.parametrize("reference", ["&#xZZ;", "&#;", "&#1114112;"])
    def test_bad_character_reference_is_a_syntax_error(self, reference):
        for text in (f"<a>\n{reference}</a>", f'<a>\n<b k="{reference}"/></a>'):
            with pytest.raises((ValueError, OverflowError)) as old:
                reference_parser.parse(text)
            assert not isinstance(old.value, XMLSyntaxError)
            with pytest.raises(XMLSyntaxError, match="character reference") \
                    as new:
                parse(text)
            assert new.value.line == 2

    def test_deep_nesting_is_a_syntax_error(self):
        text = "<a>" * 2000 + "</a>" * 2000
        with pytest.raises(RecursionError):
            reference_parser.parse(text)
        with pytest.raises(XMLSyntaxError, match="nesting deeper than"):
            parse(text)

    def test_deepest_accepted_tree_is_still_usable(self):
        from repro.xmlmodel.parser import _MAX_DEPTH
        text = "<a>" * _MAX_DEPTH + "x" + "</a>" * _MAX_DEPTH
        tree = parse(text)
        assert serialize(tree) == text
        assert tree.copy() == tree
        assert tree.text() == "x" and sum(1 for _ in tree.iter()) == _MAX_DEPTH
        with pytest.raises(XMLSyntaxError, match="nesting deeper than"):
            parse(f"<a>{text}</a>")


# -- generated trees --------------------------------------------------------------

_locals = st.sampled_from(["a", "b", "item", "x-1", "_y.z", "é", "名前"])
_uris = st.sampled_from([None, "urn:one", "urn:two", "http://x/?a=1&b=2"])
_text = st.text(alphabet="ab<>&;'\" \n\t\rü]", max_size=8)


@st.composite
def trees(draw, author_prefixes, depth=0):
    attributes = {
        QName(draw(_uris), draw(_locals)): draw(_text)
        for _ in range(draw(st.integers(0, 3)))}
    nsdecls = {}
    if author_prefixes:
        nsdecls = draw(st.dictionaries(
            st.sampled_from(["", "p", "q", "ns0"]),
            st.sampled_from(["urn:one", "urn:two", "urn:unused"]), max_size=2))
    element = Element(QName(draw(_uris), draw(_locals)), attributes,
                      nsdecls=nsdecls)
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["element", "text", "comment", "pi"]))
            if kind == "element":
                element.append(draw(trees(author_prefixes, depth=depth + 1)))
            elif kind == "text":
                # an empty Text writes as nothing and so does not come back
                element.append(Text(draw(_text.filter(bool))))
            elif kind == "comment":
                element.append(Comment(draw(st.text("ab- <&", max_size=5))
                                       .replace("--", "-")))
            else:
                element.append(ProcessingInstruction(
                    draw(_locals), draw(st.text("ab<&", max_size=4))))
    return element


def agrees_with_references(tree):
    wire = serialize(tree)
    assert wire == reference_serializer.serialize(tree)
    assert (serialize(tree, indent=" ")
            == reference_serializer.serialize(tree, indent=" "))
    assert canonicalize(tree) == reference_serializer.canonicalize(tree)
    parsed = parse(wire)
    assert shape(parsed.parent) == shape(reference_parser.parse(wire).parent)
    return wire, parsed


class TestGeneratedTrees:
    @given(trees(author_prefixes=False))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, tree):
        """Trees as the engine builds them: names only, prefixes invented."""
        wire, parsed = agrees_with_references(tree)
        assert parsed == tree
        assert serialize(parsed) == wire

    @given(trees(author_prefixes=True))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_with_author_prefixes(self, tree):
        """``nsdecls`` is advisory and may bind one URI twice or declare a
        default the element is not in; which binding the serializer picks
        then depends on the order they were made, so the first written form
        need not repeat — but what was parsed must."""
        wire, parsed = agrees_with_references(tree)
        assert parsed == tree
        again = serialize(parsed)
        assert serialize(parse(again)) == again
