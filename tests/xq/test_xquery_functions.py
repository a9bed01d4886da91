"""XQuery 1.0 function additions usable from XQ-lite."""

import math

import pytest

from repro.xmlmodel import parse
from repro.xq import evaluate_query

DOC = parse("""
<cars>
  <car class="B"><price>100</price></car>
  <car class="C"><price>250</price></car>
  <car class="B"><price>180</price></car>
</cars>
""")


class TestSequenceFunctions:
    def test_distinct_values(self):
        (result,) = evaluate_query(
            "string-join(distinct-values(//car/@class), ',')", DOC)
        assert result == "B,C"

    def test_string_join_default_separator(self):
        (result,) = evaluate_query(
            "string-join(distinct-values(//car/@class))", DOC)
        assert result == "BC"

    def test_exists_and_empty(self):
        assert evaluate_query("exists(//car)", DOC) == [True]
        assert evaluate_query("exists(//bike)", DOC) == [False]
        assert evaluate_query("empty(//bike)", DOC) == [True]
        assert evaluate_query("empty(//car)", DOC) == [False]

    def test_min_max_avg(self):
        assert evaluate_query("min(//price)", DOC) == [100.0]
        assert evaluate_query("max(//price)", DOC) == [250.0]
        result = evaluate_query("avg(//price)", DOC)
        assert result[0] == pytest.approx(530 / 3)

    def test_abs(self):
        assert evaluate_query("abs(-5)", DOC) == [5.0]

    def test_aggregates_of_empty_sequence_are_nan(self):
        (result,) = evaluate_query("min(//bike)", DOC)
        assert math.isnan(result)

    def test_distinct_values_in_flwor(self):
        result = evaluate_query(
            "for $k in distinct-values(//car/@class) "
            "return <class name='{$k}'/>", DOC)
        assert [node.get("name") for node in result] == ["B", "C"]


class TestDefaultContextNode:
    """Without a context node a query runs against an empty document,
    whose string-value is the empty string."""

    def test_string_functions_on_the_empty_document(self):
        assert evaluate_query("string(/)") == [""]
        assert evaluate_query("string-length()") == [0.0]
        assert evaluate_query("normalize-space()") == [""]
        assert evaluate_query("string(.)") == [""]

    def test_numeric_corner_cases_are_values_not_crashes(self):
        assert evaluate_query("round(1 div 0)") == [math.inf]
        assert evaluate_query("substring('abc', 1 div 0)") == [""]
        assert math.isnan(evaluate_query("floor(number('x'))")[0])
