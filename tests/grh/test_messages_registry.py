"""Protocol messages (FIG7) and the language registry (FIG1/FIG2)."""

import pytest

from repro.bindings import Relation
from repro.grh import (Detection, ECA_ONTOLOGY, LanguageDescriptor,
                       LanguageRegistry, MessageError, RegistryError, Request,
                       detection_to_xml, error_message, error_text, is_error,
                       ok_message, request_to_xml, xml_to_detection,
                       xml_to_request)
from repro.rdf import Literal, RDF, URIRef
from repro.xmlmodel import canonicalize, parse, serialize


class TestRequestMessages:
    def test_roundtrip_with_content_and_bindings(self):
        request = Request("query", "rule-1::query-0",
                          parse("<q xmlns='urn:ql'>//car</q>"),
                          Relation([{"Person": "John Doe"}]))
        wire = serialize(request_to_xml(request))
        back = xml_to_request(parse(wire))
        assert back.kind == "query"
        assert back.component_id == "rule-1::query-0"
        assert back.content == parse("<q xmlns='urn:ql'>//car</q>")
        assert back.bindings == request.bindings

    def test_request_without_content(self):
        request = Request("unregister-event", "r::event", None,
                          Relation.unit())
        back = xml_to_request(parse(serialize(request_to_xml(request))))
        assert back.content is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(MessageError, match="unknown request kind"):
            Request("frobnicate", "id", None, Relation.unit())

    @pytest.mark.parametrize("bad", [
        "<log:request xmlns:log='http://www.semwebtech.org/languages/2006/log'/>",
        "<not-a-request/>",
    ])
    def test_malformed_request_rejected(self, bad):
        with pytest.raises(MessageError):
            xml_to_request(parse(bad))

    def test_fig7_wire_shape(self):
        # Fig. 7: "query code together with the values of the input
        # variables is communicated to the GRH"
        request = Request("query", "car-rental-offer::query-0",
                          parse("<xq xmlns='urn:xq'>for $c ...</xq>"),
                          Relation([{"Person": "John Doe", "From": "Munich",
                                     "To": "Paris"}]))
        wire = serialize(request_to_xml(request))
        assert "log:request" in wire or ":request" in wire
        assert "John Doe" in wire and "for $c" in wire


class TestDetectionMessages:
    def test_roundtrip(self):
        detection = Detection("r::event", 1.0, 3.5,
                              Relation([{"Person": "John Doe"}]))
        back = xml_to_detection(parse(serialize(detection_to_xml(detection))))
        assert back == detection

    def test_integral_times_serialized_plainly(self):
        wire = serialize(detection_to_xml(
            Detection("r::event", 2.0, 2.0, Relation.unit())))
        assert 'start="2"' in wire

    def test_missing_answers_rejected(self):
        from repro.xmlmodel import LOG_NS
        with pytest.raises(MessageError, match="answers"):
            xml_to_detection(parse(
                f'<log:detection xmlns:log="{LOG_NS}" id="x"/>'))


class TestAckMessages:
    def test_ok_and_error(self):
        assert not is_error(ok_message())
        error = error_message("boom")
        assert is_error(error)
        assert error_text(error) == "boom"


class TestLanguageRegistry:
    def descriptor(self, uri="urn:lang:x", family="query", name="x"):
        return LanguageDescriptor(uri, family, name)

    def test_register_and_lookup(self):
        registry = LanguageRegistry()
        descriptor = self.descriptor()
        registry.register(descriptor)
        assert registry.lookup("urn:lang:x") is descriptor
        assert registry.lookup_by_name("x") is descriptor
        assert "urn:lang:x" in registry

    def test_lookup_by_name_accepts_uri(self):
        registry = LanguageRegistry()
        registry.register(self.descriptor())
        assert registry.lookup_by_name("urn:lang:x").name == "x"

    def test_duplicate_rejected(self):
        registry = LanguageRegistry()
        registry.register(self.descriptor())
        with pytest.raises(RegistryError, match="already registered"):
            registry.register(self.descriptor())

    def test_unknown_lookup(self):
        registry = LanguageRegistry()
        with pytest.raises(RegistryError):
            registry.lookup("urn:ghost")
        with pytest.raises(RegistryError):
            registry.lookup_by_name("ghost")

    def test_invalid_family_rejected(self):
        with pytest.raises(RegistryError, match="family"):
            LanguageDescriptor("urn:x", "transmogrify", "x")

    def test_family_listing_fig2(self):
        # FIG2: the hierarchy of language families under the ECA level
        registry = LanguageRegistry()
        registry.register(self.descriptor("urn:e", "event", "e"))
        registry.register(self.descriptor("urn:q1", "query", "q1"))
        registry.register(self.descriptor("urn:q2", "query", "q2"))
        registry.register(self.descriptor("urn:t", "test", "t"))
        registry.register(self.descriptor("urn:a", "action", "a"))
        assert len(registry.languages()) == 5
        assert {d.name for d in registry.languages("query")} == {"q1", "q2"}

    def test_rdf_export_fig1(self):
        registry = LanguageRegistry()
        registry.register(LanguageDescriptor("urn:q", "query", "q",
                                             replicas=("svc:q",)))
        graph = registry.to_rdf()
        assert (URIRef("urn:q"), RDF.type, ECA_ONTOLOGY.QueryLanguage) in graph
        assert graph.value(URIRef("urn:q"), ECA_ONTOLOGY.implementedBy) == \
            URIRef("svc:q")
        assert graph.value(URIRef("urn:q"), ECA_ONTOLOGY.name) == Literal("q")


class TestWireEquivalence:
    def test_request_canonical_bytes_stable(self):
        request = Request("query", "r::q", parse("<q xmlns='urn:l'/>"),
                          Relation([{"A": 1}]))
        first = canonicalize(request_to_xml(request))
        second = canonicalize(parse(serialize(request_to_xml(request))))
        assert first == second
