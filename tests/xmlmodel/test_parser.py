"""Well-formedness, namespace resolution and round-tripping of the parser."""

import pytest

from repro.xmlmodel import (Comment, ProcessingInstruction, QName,
                            XMLSyntaxError, parse, parse_document,
                            parse_fragment, serialize)


class TestBasicParsing:
    def test_single_empty_element(self):
        root = parse("<a/>")
        assert root.name == QName(None, "a")
        assert root.children == []

    def test_element_with_text(self):
        root = parse("<a>hello</a>")
        assert root.text() == "hello"

    def test_nested_elements(self):
        root = parse("<a><b><c/></b><d/></a>")
        assert [child.name.local for child in root.elements()] == ["b", "d"]
        assert root.find("b").find("c") is not None

    def test_attributes(self):
        root = parse('<a x="1" y="two"/>')
        assert root.get("x") == "1"
        assert root.get("y") == "two"
        assert root.get("z") is None
        assert root.get("z", "dflt") == "dflt"

    def test_mixed_content_preserved(self):
        root = parse("<p>one <b>two</b> three</p>")
        assert root.text() == "one two three"
        kinds = [type(child).__name__ for child in root.children]
        assert kinds == ["Text", "Element", "Text"]

    def test_comment_and_pi_children(self):
        root = parse("<a><!-- note --><?app do it?></a>")
        assert isinstance(root.children[0], Comment)
        assert root.children[0].value == " note "
        pi = root.children[1]
        assert isinstance(pi, ProcessingInstruction)
        assert pi.target == "app"
        assert pi.data == "do it"

    def test_cdata_becomes_text(self):
        root = parse("<a><![CDATA[<not & parsed>]]></a>")
        assert root.text() == "<not & parsed>"

    def test_predefined_entities(self):
        root = parse("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert root.text() == "<&>\"'"

    def test_numeric_character_references(self):
        root = parse("<a>&#65;&#x42;</a>")
        assert root.text() == "AB"

    def test_entities_in_attributes(self):
        root = parse('<a v="a&amp;b&lt;c"/>')
        assert root.get("v") == "a&b<c"

    def test_document_with_declaration_and_doctype(self):
        doc = parse_document(
            '<?xml version="1.0"?><!DOCTYPE a><a><b/></a>')
        assert doc.root_element.name.local == "a"

    def test_whitespace_around_root_ok(self):
        root = parse("\n  <a/>  \n")
        assert root.name.local == "a"


class TestNamespaces:
    def test_default_namespace(self):
        root = parse('<a xmlns="urn:x"><b/></a>')
        assert root.name == QName("urn:x", "a")
        assert root.find(QName("urn:x", "b")) is not None

    def test_prefixed_namespace(self):
        root = parse('<p:a xmlns:p="urn:x"><p:b/><c/></p:a>')
        assert root.name == QName("urn:x", "a")
        assert root.elements().__next__().name == QName("urn:x", "b")
        assert root.findall("c")[0].name == QName(None, "c")

    def test_unprefixed_attribute_has_no_namespace(self):
        root = parse('<a xmlns="urn:x" k="v"/>')
        assert root.get(QName(None, "k")) == "v"
        assert root.get(QName("urn:x", "k")) is None

    def test_prefixed_attribute(self):
        root = parse('<a xmlns:p="urn:x" p:k="v"/>')
        assert root.get(QName("urn:x", "k")) == "v"

    def test_namespace_scoping_and_shadowing(self):
        root = parse('<a xmlns:p="urn:one"><b xmlns:p="urn:two"><p:c/></b>'
                     "<p:d/></a>")
        inner = root.find("b").elements().__next__()
        assert inner.name == QName("urn:two", "c")
        assert root.findall(QName("urn:one", "d"))

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XMLSyntaxError, match="undeclared"):
            parse("<p:a/>")

    def test_xml_prefix_is_builtin(self):
        root = parse('<a xml:lang="de"/>')
        assert root.get(
            QName("http://www.w3.org/XML/1998/namespace", "lang")) == "de"

    def test_fragment_with_inherited_prefixes(self):
        root = parse_fragment("<p:a/>", namespaces={"p": "urn:x"})
        assert root.name == QName("urn:x", "a")

    def test_scope_reports_inscope_decls(self):
        root = parse('<a xmlns:p="urn:one"><b xmlns:q="urn:two"/></a>')
        assert root.find("b").scope() == {"p": "urn:one", "q": "urn:two"}


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "<a>",                       # unclosed
        "<a></b>",                   # mismatched
        "<a b=c/>",                  # unquoted attribute
        '<a b="1" b="2"/>',          # duplicate attribute
        "<a>&unknown;</a>",          # unknown entity
        "<a/><b/>",                  # two roots
        "< a/>",                     # space before name
        "<a><!-- unterminated</a>",  # unterminated comment
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            parse("<a>\n<b></c>\n</a>")
        assert excinfo.value.line == 2

    def test_duplicate_expanded_attribute_rejected(self):
        with pytest.raises(XMLSyntaxError, match="duplicate"):
            parse('<a xmlns:p="urn:x" xmlns:q="urn:x" p:k="1" q:k="2"/>')


class TestRoundTrip:
    @pytest.mark.parametrize("markup", [
        "<a/>",
        "<a>text</a>",
        '<a k="v"><b/>tail</a>',
        '<a xmlns="urn:x"><b y="1">t</b></a>',
        '<p:a xmlns:p="urn:x" p:k="&lt;&amp;&gt;"><p:b/></p:a>',
        "<a>one<b/>two<c>three</c></a>",
    ])
    def test_parse_serialize_parse_fixpoint(self, markup):
        first = parse(markup)
        second = parse(serialize(first))
        assert first == second

    def test_structural_equality_ignores_prefix_choice(self):
        left = parse('<p:a xmlns:p="urn:x"><p:b/></p:a>')
        right = parse('<a xmlns="urn:x"><b/></a>')
        assert left == right

    def test_structural_equality_ignores_insignificant_whitespace(self):
        left = parse("<a>\n  <b/>\n</a>")
        right = parse("<a><b/></a>")
        assert left == right

    def test_text_differences_are_significant(self):
        assert parse("<a>x</a>") != parse("<a>y</a>")
