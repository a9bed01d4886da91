"""QName parsing and namespace edge cases."""

import pytest

from repro.xmlmodel import NamespaceError, QName, XML_NS


class TestQNameParsing:
    def test_plain_local_name(self):
        assert QName.parse("booking") == QName(None, "booking")

    def test_default_namespace_applied(self):
        assert QName.parse("booking", default="urn:t") == \
            QName("urn:t", "booking")

    def test_prefixed_name(self):
        assert QName.parse("t:booking", {"t": "urn:t"}) == \
            QName("urn:t", "booking")

    def test_clark_notation(self):
        assert QName.parse("{urn:t}booking") == QName("urn:t", "booking")
        assert QName("urn:t", "booking").clark == "{urn:t}booking"
        assert QName(None, "x").clark == "x"

    def test_builtin_xml_prefix(self):
        assert QName.parse("xml:lang") == QName(XML_NS, "lang")

    def test_undeclared_prefix(self):
        with pytest.raises(NamespaceError):
            QName.parse("t:booking", {})
        with pytest.raises(NamespaceError):
            QName.parse("t:booking")

    def test_empty_local_rejected(self):
        with pytest.raises(ValueError):
            QName("urn:t", "")

    def test_equality_ignores_prefix_origin(self):
        left = QName.parse("a:x", {"a": "urn:one"})
        right = QName.parse("b:x", {"b": "urn:one"})
        assert left == right and hash(left) == hash(right)

    def test_same_local_different_uri_differ(self):
        assert QName("urn:one", "x") != QName("urn:two", "x")
        assert QName(None, "x") != QName("urn:one", "x")


class TestQNameIsAValue:
    """The name is the pair (uri, local): hashed and compared in C, and
    as immutable, picklable and prefix-blind as it always was."""

    def test_no_python_level_hash_or_eq(self):
        assert QName.__hash__ is tuple.__hash__
        assert QName.__eq__ is tuple.__eq__

    def test_empty_local_rejected_without_a_namespace_too(self):
        with pytest.raises(ValueError):
            QName(None, "")
        with pytest.raises(ValueError):
            QName(uri=None, local="")

    def test_fields_by_name_and_keyword_construction(self):
        name = QName(uri="urn:t", local="booking")
        assert (name.uri, name.local) == ("urn:t", "booking")
        assert QName(None, "x").uri is None

    def test_attribute_assignment_raises(self):
        name = QName("urn:t", "booking")
        with pytest.raises(AttributeError):
            name.uri = "urn:other"
        with pytest.raises(AttributeError):
            name.local = "other"
        with pytest.raises(AttributeError):
            name.prefix = "t"           # no instance dictionary either
        assert not hasattr(name, "__dict__")

    def test_pickle_and_copy_round_trip(self):
        import copy
        import pickle
        for name in (QName("urn:t", "booking"), QName(None, "x")):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                clone = pickle.loads(pickle.dumps(name, protocol))
                assert clone == name and type(clone) is QName
            for clone in (copy.copy(name), copy.deepcopy(name)):
                assert clone == name and type(clone) is QName

    def test_dict_key_equal_to_one_parsed_from_text(self):
        attributes = {QName(None, "name"): "John", QName("urn:t", "k"): "v"}
        assert attributes[QName.parse("name")] == "John"
        assert attributes[QName.parse("a:k", {"a": "urn:t"})] == "v"
        assert attributes[QName.parse("{urn:t}k")] == "v"
        assert QName.parse("k") not in attributes

    def test_repr_shape(self):
        assert repr(QName("urn:t", "x")) == "QName(uri='urn:t', local='x')"
        assert repr(QName(None, "x")) == "QName(uri=None, local='x')"
        assert str(QName("urn:t", "x")) == "{urn:t}x"
