"""``trusted_element`` against ``Element(...)`` + ``append``.

The envelope builders and ``Element.copy`` make their nodes through
``repro.xmlmodel.nodes.trusted_element``, which assigns what it is given
where the public constructor converts, copies and checks.  For a caller
that keeps its side of the contract the two must be indistinguishable:
same tree, same bytes, same parents, roots and scopes.  The trees are the
parser differential suite's — every well-formed document of its corpus,
with the seeded GRH envelopes in it, and its generated trees.
"""

import pytest
from hypothesis import given, settings

from repro.xmlmodel import (Comment, Document, Element, ProcessingInstruction,
                            QName, Text, XMLSyntaxError, canonicalize, parse,
                            serialize)
from repro.xmlmodel.nodes import trusted_element

from .test_parser_differential import CORPUS, shape, trees


def leaf(node):
    if isinstance(node, Text):
        return Text(node.value)
    if isinstance(node, Comment):
        return Comment(node.value)
    return ProcessingInstruction(node.target, node.data)


def by_constructor(tree):
    element = Element(tree.name, tree.attributes, nsdecls=tree.nsdecls)
    for child in tree.children:
        element.append(by_constructor(child) if isinstance(child, Element)
                       else leaf(child))
    return element


def by_trusted_element(tree):
    return trusted_element(
        tree.name, dict(tree.attributes), dict(tree.nsdecls),
        [by_trusted_element(child) if isinstance(child, Element)
         else leaf(child) for child in tree.children])


def assert_indistinguishable(built, expected):
    assert built == expected
    assert shape(built) == shape(expected)          # parents, orders, nsdecls
    assert serialize(built) == serialize(expected)
    assert serialize(built, indent="  ") == serialize(expected, indent="  ")
    assert canonicalize(built) == canonicalize(expected)
    for mine, theirs in zip(built.iter(), expected.iter()):
        assert mine.root() is built and theirs.root() is expected
        assert mine.scope() == theirs.scope()
        assert list(mine.scope().items()) == list(theirs.scope().items())


def well_formed(corpus):
    for text in corpus:
        try:
            yield parse(text)
        except XMLSyntaxError:
            continue


class TestDifferential:
    def test_corpus_trees_are_built_alike(self):
        count = 0
        for tree in well_formed(CORPUS):
            assert_indistinguishable(by_trusted_element(tree),
                                     by_constructor(tree))
            count += 1
        assert count > 100

    @given(trees(author_prefixes=True))
    @settings(max_examples=150, deadline=None)
    def test_generated_trees_are_built_alike(self, tree):
        assert_indistinguishable(by_trusted_element(tree),
                                 by_constructor(tree))

    def test_copy_is_the_tree_the_constructor_would_build(self):
        for tree in well_formed(CORPUS):
            clone = tree.copy()
            assert clone.parent is None
            assert_indistinguishable(clone, by_constructor(tree))
            # nothing is shared with the original
            for mine, theirs in zip(clone.iter(), tree.iter()):
                assert mine is not theirs
                assert mine.attributes is not theirs.attributes
                assert mine.nsdecls is not theirs.nsdecls


class TestCopyOfEveryNodeKind:
    def test_comments_instructions_and_text_subclasses(self):
        class Marked(Text):
            """A caller's own text node; a copy is plain ``Text``."""

        tree = Element(QName("urn:a", "a"), {QName(None, "k"): "v"},
                       nsdecls={"p": "urn:a"})
        inner = Element(QName(None, "b"))
        inner.extend([Marked("one"), Comment(" two "),
                      ProcessingInstruction("three", "x=1"), Text("four")])
        tree.extend([Comment("head"), inner, Marked("tail")])
        clone = tree.copy()
        assert_indistinguishable(clone, by_constructor(tree))
        kinds = [type(child) for child in clone.children[1].children]
        assert kinds == [Text, Comment, ProcessingInstruction, Text]
        assert type(clone.children[2]) is Text
        assert serialize(clone) == serialize(tree) == (
            '<p:a xmlns:p="urn:a" k="v"><!--head--><b>one<!-- two -->'
            '<?three x=1?>four</b>tail</p:a>')


class TestRefusals:
    def test_a_child_with_a_parent_is_refused_as_append_refuses_it(self):
        owner = Element(QName(None, "owner"))
        taken = owner.append(Element(QName(None, "taken")))
        free = Element(QName(None, "free"))
        with pytest.raises(ValueError) as by_append:
            Element(QName(None, "other")).append(taken)
        with pytest.raises(ValueError) as by_trusted:
            trusted_element(QName(None, "other"), {}, {}, [free, taken])
        assert str(by_trusted.value) == str(by_append.value)
        # nothing was adopted on the way to the refusal
        assert free.parent is None
        assert taken.parent is owner and owner.children == [taken]

    def test_the_same_child_twice_is_refused(self):
        child = Element(QName(None, "child"))
        with pytest.raises(ValueError, match="already has a parent"):
            trusted_element(QName(None, "other"), {}, {}, [child, child])
        assert child.parent is None

    def test_a_parsed_fragment_must_be_detached_first(self):
        """``append`` lifts a parsed tree out of its ``Document``; the
        trusted constructor does not look, so its callers copy or detach."""
        fragment = parse("<a/>")
        assert isinstance(fragment.parent, Document)
        with pytest.raises(ValueError, match="already has a parent"):
            trusted_element(QName(None, "other"), {}, {}, [fragment])
        assert isinstance(fragment.parent, Document)
        built = trusted_element(QName(None, "other"), {}, {},
                                [fragment.detach()])
        assert built.children == [fragment] and fragment.parent is built
