"""Property-based checks of the XPath evaluator against naive recursion."""

from hypothesis import given, settings, strategies as st

from repro.xmlmodel import Element, QName, Text
from repro.xpath import evaluate


@st.composite
def trees(draw, depth=0):
    name = draw(st.sampled_from(["a", "b", "c"]))
    element = Element(QName(None, name))
    n_attrs = draw(st.integers(0, 2))
    for index in range(n_attrs):
        element.set(f"k{index}", draw(st.sampled_from(["1", "2", "x"])))
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                element.append(draw(trees(depth=depth + 1)))
            else:
                element.append(Text(draw(st.sampled_from(["t", "u", ""]))))
    return element


def naive_descendants(element):
    out = []
    for child in element.children:
        if isinstance(child, Element):
            out.append(child)
            out.extend(naive_descendants(child))
    return out


class TestAgainstNaiveRecursion:
    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_descendant_axis(self, tree):
        expected = [node for node in naive_descendants(tree)]
        assert evaluate("descendant::*", tree) == expected

    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_double_slash_name_test(self, tree):
        expected = [node for node in naive_descendants(tree)
                    if node.name.local == "b"]
        result = evaluate(".//b", tree)
        assert result == expected

    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_count_all_descendants(self, tree):
        assert evaluate("count(descendant::*)", tree) == \
            float(len(naive_descendants(tree)))

    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_string_value_is_concatenated_text(self, tree):
        assert evaluate("string(.)", tree) == tree.text()

    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_union_of_disjoint_nametests_covers_all(self, tree):
        everything = evaluate("descendant::*", tree)
        unioned = evaluate(
            "descendant::a | descendant::b | descendant::c", tree)
        assert unioned == everything

    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_parent_of_children_is_self(self, tree):
        for child in evaluate("*", tree):
            assert evaluate("..", child) == [tree]

    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_positions_partition_children(self, tree):
        children = evaluate("*", tree)
        by_position = [node for index in range(1, len(children) + 1)
                       for node in evaluate(f"*[{index}]", tree)]
        assert by_position == children

    @settings(max_examples=60, deadline=None)
    @given(trees())
    def test_attribute_count_matches_model(self, tree):
        expected = float(sum(len(node.attributes)
                             for node in [tree] + naive_descendants(tree)))
        assert evaluate("count(descendant-or-self::*/@*)", tree) == expected

    @settings(max_examples=40, deadline=None)
    @given(trees())
    def test_sibling_axes_are_inverse(self, tree):
        children = evaluate("*", tree)
        for index, child in enumerate(children):
            following = evaluate("following-sibling::*", child)
            preceding = evaluate("preceding-sibling::*", child)
            assert following == children[index + 1:]
            assert preceding == children[:index]
