"""Evaluation semantics of the XPath subset."""

import math

import pytest

from repro.xmlmodel import parse
from repro.xpath import (AttributeNode, XPathEvaluationError, evaluate,
                         string_value)

DOC = parse("""
<library>
  <book year="2003" lang="de">
    <title>Semantic Web Grundlagen</title>
    <price>30</price>
  </book>
  <book year="2005">
    <title>Active Rules</title>
    <price>45</price>
    <note>draft</note>
  </book>
  <journal year="2005"><title>TPLP</title></journal>
</library>
""")


def titles(value):
    return [string_value(node) for node in value]


class TestPaths:
    def test_child_step(self):
        assert len(evaluate("book", DOC)) == 2

    def test_multi_step_path(self):
        assert titles(evaluate("book/title", DOC)) == [
            "Semantic Web Grundlagen", "Active Rules"]

    def test_absolute_path(self):
        title = DOC.find("book").find("title")
        assert titles(evaluate("/library/journal/title", title)) == ["TPLP"]

    def test_descendant_or_self_abbreviation(self):
        assert titles(evaluate("//title", DOC)) == [
            "Semantic Web Grundlagen", "Active Rules", "TPLP"]

    def test_wildcard(self):
        assert len(evaluate("*", DOC)) == 3

    def test_attribute_axis(self):
        values = [node.value for node in evaluate("book/@year", DOC)]
        assert values == ["2003", "2005"]

    def test_parent_abbreviation(self):
        title = DOC.find("book").find("title")
        assert evaluate("..", title)[0] is DOC.find("book")

    def test_self_dot(self):
        assert evaluate(".", DOC) == [DOC]

    def test_ancestor_axis(self):
        title = DOC.find("book").find("title")
        names = [node.name.local for node in evaluate("ancestor::*", title)]
        assert names == ["library", "book"]

    def test_following_sibling(self):
        first = DOC.find("book")
        names = [n.name.local for n in evaluate("following-sibling::*", first)]
        assert names == ["book", "journal"]

    def test_preceding_sibling_positions(self):
        journal = DOC.find("journal")
        # position 1 on a reverse axis is the nearest preceding sibling
        nearest = evaluate("preceding-sibling::book[1]", journal)
        assert evaluate("title", nearest[0])[0].text() == "Active Rules"

    def test_text_kind_test(self):
        title = DOC.find("book").find("title")
        assert [t.value for t in evaluate("text()", title)] == [
            "Semantic Web Grundlagen"]

    def test_union_in_document_order(self):
        result = evaluate("journal/title | book/title", DOC)
        assert titles(result) == ["Semantic Web Grundlagen", "Active Rules",
                                  "TPLP"]

    def test_result_deduplicated(self):
        assert len(evaluate("book | book", DOC)) == 2


class TestPredicates:
    def test_numeric_predicate(self):
        assert titles(evaluate("book[2]/title", DOC)) == ["Active Rules"]

    def test_last(self):
        assert titles(evaluate("book[last()]/title", DOC)) == ["Active Rules"]

    def test_attribute_comparison(self):
        assert titles(evaluate("book[@year=2005]/title", DOC)) == [
            "Active Rules"]

    def test_existence_predicate(self):
        assert titles(evaluate("book[note]/title", DOC)) == ["Active Rules"]

    def test_absent_attribute(self):
        assert titles(evaluate("book[not(@lang)]/title", DOC)) == [
            "Active Rules"]

    def test_chained_predicates(self):
        assert titles(evaluate("book[@year=2005][1]/title", DOC)) == [
            "Active Rules"]

    def test_predicate_on_price_value(self):
        assert titles(evaluate("book[price > 40]/title", DOC)) == [
            "Active Rules"]


class TestValuesAndOperators:
    @pytest.mark.parametrize("expr,expected", [
        ("1 + 2 * 3", 7.0),
        ("(1 + 2) * 3", 9.0),
        ("10 div 4", 2.5),
        ("10 mod 3", 1.0),
        ("-3 + 1", -2.0),
        ("2 < 3", True),
        ("2 >= 3", False),
        ("'a' = 'a'", True),
        ("'a' != 'b'", True),
        ("true() and false()", False),
        ("true() or false()", True),
    ])
    def test_arithmetic_and_logic(self, expr, expected):
        assert evaluate(expr, DOC) == expected

    def test_division_by_zero_is_infinite(self):
        assert evaluate("1 div 0", DOC) == math.inf
        assert math.isnan(evaluate("0 div 0", DOC))

    def test_nodeset_to_number(self):
        assert evaluate("sum(book/price)", DOC) == 75.0

    def test_existential_comparison(self):
        # any book year equal to 2003?
        assert evaluate("book/@year = 2003", DOC) is True
        # note: != is also existential in XPath 1.0
        assert evaluate("book/@year != 2003", DOC) is True
        assert evaluate("book/@year = 1999", DOC) is False

    def test_variables(self):
        assert evaluate("book[@year=$y]/title", DOC,
                        variables={"y": "2005"})[0].text() == "Active Rules"

    def test_unbound_variable_raises(self):
        with pytest.raises(XPathEvaluationError, match="unbound"):
            evaluate("$nope", DOC)

    def test_variable_holding_nodeset(self):
        books = evaluate("book", DOC)
        assert titles(evaluate("$books[2]/title", DOC,
                               variables={"books": books})) == ["Active Rules"]


class TestFunctions:
    @pytest.mark.parametrize("expr,expected", [
        ("count(book)", 2.0),
        ("count(//title)", 3.0),
        ("concat('a', 'b', 'c')", "abc"),
        ("contains('booking', 'ok')", True),
        ("starts-with('Munich', 'Mu')", True),
        ("substring('12345', 2, 3)", "234"),
        ("substring('12345', 2)", "2345"),
        ("substring-before('a=b', '=')", "a"),
        ("substring-after('a=b', '=')", "b"),
        ("string-length('abcd')", 4.0),
        ("normalize-space('  a   b ')", "a b"),
        ("translate('bar', 'abc', 'ABC')", "BAr"),
        ("floor(2.7)", 2),
        ("ceiling(2.1)", 3),
        ("round(2.5)", 3.0),
        ("number('42')", 42.0),
        ("string(12)", "12"),
        ("string(12.5)", "12.5"),
        ("boolean('x')", True),
        ("not('')", True),
    ])
    def test_core_functions(self, expr, expected):
        assert evaluate(expr, DOC) == expected

    @pytest.mark.parametrize("expr", [
        "floor(number('x'))", "ceiling(number('x'))", "round(number('x'))",
    ])
    def test_rounding_nan_is_nan(self, expr):
        assert math.isnan(evaluate(expr, DOC))

    @pytest.mark.parametrize("expr,expected", [
        ("floor(1 div 0)", math.inf), ("floor(-1 div 0)", -math.inf),
        ("ceiling(1 div 0)", math.inf), ("round(1 div 0)", math.inf),
        ("round(-1 div 0)", -math.inf),
        # XPath 1.0 §4.2's own examples
        ("substring('12345', 1.5, 2.6)", "234"),
        ("substring('12345', 0, 3)", "12"),
        ("substring('12345', 0 div 0, 3)", ""),
        ("substring('12345', 1, 0 div 0)", ""),
        ("substring('12345', -42, 1 div 0)", "12345"),
        ("substring('12345', -1 div 0, 1 div 0)", ""),
        ("substring('abc', number('x'))", ""),
        ("substring('abc', 1 div 0)", ""),
        ("substring('abc', 2, 1 div 0)", "bc"),
    ])
    def test_numeric_corner_cases(self, expr, expected):
        # these used to escape as bare ValueError / OverflowError
        assert evaluate(expr, DOC) == expected

    def test_distinct_values_keeps_first_occurrences_in_order(self):
        assert evaluate("distinct-values(//@year)", DOC) == ["2003", "2005"]
        many = parse("<r>" + "".join(f"<v>{i % 7}</v>" for i in range(500))
                     + "</r>")
        assert evaluate("distinct-values(v)", many) \
            == [str(i) for i in range(7)]

    def test_string_value_of_an_empty_document(self):
        from repro.xmlmodel import Document
        empty = Document([])
        assert string_value(empty) == ""
        assert evaluate("string(/)", empty) == ""
        assert evaluate("string-length()", empty) == 0.0
        assert evaluate("normalize-space()", empty) == ""

    def test_string_of_nodeset_takes_first(self):
        assert evaluate("string(book/title)", DOC) == "Semantic Web Grundlagen"

    def test_name_functions(self):
        assert evaluate("name(book)", DOC) == "book"
        assert evaluate("local-name(book)", DOC) == "book"

    def test_unknown_function_raises(self):
        with pytest.raises(XPathEvaluationError, match="unknown function"):
            evaluate("frobnicate(1)", DOC)


class TestNamespaces:
    NSDOC = parse('<t:a xmlns:t="urn:travel"><t:b>x</t:b><c>y</c></t:a>')

    def test_prefixed_name_test(self):
        result = evaluate("t:b", self.NSDOC, namespaces={"t": "urn:travel"})
        assert [node.text() for node in result] == ["x"]

    def test_unprefixed_matches_no_namespace(self):
        assert [n.text() for n in evaluate("c", self.NSDOC)] == ["y"]
        assert evaluate("b", self.NSDOC) == []

    def test_default_element_namespace_option(self):
        result = evaluate("b", self.NSDOC,
                          default_element_namespace="urn:travel")
        assert [node.text() for node in result] == ["x"]

    def test_undeclared_prefix_raises(self):
        with pytest.raises(XPathEvaluationError, match="undeclared prefix"):
            evaluate("q:b", self.NSDOC)

    def test_prefix_wildcard(self):
        result = evaluate("t:*", self.NSDOC, namespaces={"t": "urn:travel"})
        assert [node.name.local for node in result] == ["b"]


class TestAttributeNodes:
    def test_attribute_node_fields(self):
        node = evaluate("book/@year", DOC)[0]
        assert isinstance(node, AttributeNode)
        assert node.value == "2003"
        assert node.owner is DOC.find("book")

    def test_attribute_string_value(self):
        assert evaluate("string(book[1]/@year)", DOC) == "2003"
