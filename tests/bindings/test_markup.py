"""log:answers serialization — the wire format of Figs. 6-9."""

import pytest
from hypothesis import given, strategies as st

from repro.bindings import (Binding, MarkupError, Relation, Uri,
                            answer_to_binding, answers_to_relation,
                            binding_to_answer, relation_to_answers,
                            results_from_answer, value_to_text)
from repro.xmlmodel import E, LOG_NS, QName, parse, serialize


class TestValueMarkup:
    @pytest.mark.parametrize("value", [
        "John Doe", 42, 2.5, True, False, Uri("http://example.org/x"),
    ])
    def test_scalar_roundtrip(self, value):
        answer = binding_to_answer(Binding({"V": value}))
        single = answer_to_binding(answer)
        assert single == Binding({"V": value})
        assert type(single["V"]) is type(value)
        relation = answers_to_relation(
            relation_to_answers(Relation([{"V": value}])))
        (binding,) = relation
        assert binding == Binding({"V": value})
        assert type(binding["V"]) is type(value)

    def test_xml_fragment_roundtrip(self):
        fragment = E("car", {"model": "Golf"})
        relation = answers_to_relation(
            relation_to_answers(Relation([{"OwnCar": fragment}])))
        (binding,) = relation
        assert binding["OwnCar"] == fragment

    def test_value_to_text(self):
        assert value_to_text(5.0) == "5"
        assert value_to_text(True) == "true"
        assert value_to_text("x") == "x"
        assert "<car" in value_to_text(E("car"))


class TestAnswersDocument:
    def test_message_shape(self):
        relation = Relation([{"Person": "John Doe", "To": "Paris"}])
        message = relation_to_answers(relation)
        assert message.name == QName(LOG_NS, "answers")
        answers = message.findall(QName(LOG_NS, "answer"))
        assert len(answers) == 1
        names = {v.get("name") for v in answers[0].elements()}
        assert names == {"Person", "To"}

    def test_serialized_and_reparsed(self):
        relation = Relation([
            {"Person": "John Doe", "OwnCar": "Golf"},
            {"Person": "John Doe", "OwnCar": "Passat"},
        ])
        wire = serialize(relation_to_answers(relation))
        assert answers_to_relation(parse(wire)) == relation

    def test_empty_relation(self):
        assert answers_to_relation(relation_to_answers(Relation())) == Relation()

    def test_results_extraction(self):
        answer = binding_to_answer(Binding({"P": "x"}),
                                   results=["Golf", "Passat"])
        assert results_from_answer(answer) == ["Golf", "Passat"]

    def test_xml_result_extraction(self):
        answer = binding_to_answer(Binding(), results=[E("car", {"m": "Golf"})])
        (result,) = results_from_answer(answer)
        assert result == E("car", {"m": "Golf"})

    def test_typed_results(self):
        answer = binding_to_answer(Binding(), results=[42, True, Uri("u:x")])
        assert results_from_answer(answer) == [42, True, Uri("u:x")]


class TestMarkupErrors:
    def test_wrong_root(self):
        with pytest.raises(MarkupError, match="log:answers"):
            answers_to_relation(E("nope"))

    def test_variable_without_name(self):
        bad = parse(f'<log:answers xmlns:log="{LOG_NS}"><log:answer>'
                    f'<log:variable>v</log:variable>'
                    f'</log:answer></log:answers>')
        with pytest.raises(MarkupError, match="name"):
            answers_to_relation(bad)

    def test_duplicate_variable(self):
        bad = parse(f'<log:answers xmlns:log="{LOG_NS}"><log:answer>'
                    f'<log:variable name="X">1</log:variable>'
                    f'<log:variable name="X">2</log:variable>'
                    f'</log:answer></log:answers>')
        with pytest.raises(MarkupError, match="duplicate"):
            answers_to_relation(bad)

    def test_bad_boolean(self):
        bad = parse(f'<log:answers xmlns:log="{LOG_NS}"><log:answer>'
                    f'<log:variable name="X" type="boolean">maybe'
                    f'</log:variable></log:answer></log:answers>')
        with pytest.raises(MarkupError, match="boolean"):
            answers_to_relation(bad)

    def test_unknown_type(self):
        bad = parse(f'<log:answers xmlns:log="{LOG_NS}"><log:answer>'
                    f'<log:variable name="X" type="blob">z'
                    f'</log:variable></log:answer></log:answers>')
        with pytest.raises(MarkupError, match="unknown variable type"):
            answers_to_relation(bad)


_values = st.one_of(
    st.text(alphabet="abc ,&<>", max_size=8),
    st.integers(-1000, 1000),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet="abc:/.", min_size=1, max_size=10).map(Uri),
)
_relations = st.lists(
    st.dictionaries(st.sampled_from(["A", "B", "C"]), _values, max_size=3),
    max_size=5,
).map(Relation)


class TestMarkupProperties:
    @given(_relations)
    def test_roundtrip_through_wire_format(self, relation):
        wire = serialize(relation_to_answers(relation))
        assert answers_to_relation(parse(wire)) == relation
