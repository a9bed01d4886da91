"""The standard deployment wiring (FIG2/FIG3 sanity)."""

from repro.actions import ACTION_NS
from repro.conditions import TEST_NS
from repro.core import ECAEngine
from repro.events import ATOMIC_NS, SNOOP_NS, XCHANGE_NS
from repro.services import (DATALOG_LANG, EXIST_LANG, SPARQL_LANG, XQ_LANG,
                            standard_deployment)
from repro.sparql import RDF_SPARQL_LANG
from repro.xmlmodel import E, parse


class TestStandardDeployment:
    def test_all_language_families_populated(self):
        deployment = standard_deployment()
        registry = deployment.registry
        assert {d.uri for d in registry.languages("event")} == {
            ATOMIC_NS, SNOOP_NS, XCHANGE_NS}
        assert {d.uri for d in registry.languages("query")} == {
            XQ_LANG, EXIST_LANG, SPARQL_LANG, DATALOG_LANG,
            RDF_SPARQL_LANG}
        assert {d.uri for d in registry.languages("test")} == {TEST_NS}
        assert {d.uri for d in registry.languages("action")} == {ACTION_NS}

    def test_only_exist_like_is_framework_unaware(self):
        deployment = standard_deployment()
        unaware = [d.uri for d in deployment.registry.languages()
                   if not d.framework_aware]
        assert unaware == [EXIST_LANG]

    def test_registry_rdf_export_covers_all_languages(self):
        from repro.rdf import RDF
        deployment = standard_deployment()
        graph = deployment.registry.to_rdf()
        typed = {s for s, p, _ in graph.triples(None, RDF.type, None)}
        assert len(typed) == len(deployment.registry.languages())

    def test_add_document_shared_across_services(self):
        deployment = standard_deployment()
        doc = parse("<d><item/></d>")
        deployment.add_document("d.xml", doc)
        assert deployment.xq.documents["d.xml"] is doc
        assert deployment.exist.documents["d.xml"] is doc
        assert deployment.runtime.documents["d.xml"] is doc

    def test_action_updates_visible_to_queries(self):
        """One shared mutable world: an insert action changes what the
        query services see afterwards."""
        deployment = standard_deployment()
        deployment.add_document("d.xml", parse("<items/>"))
        engine = ECAEngine(deployment.grh)
        engine.register_rule(f"""
        <eca:rule xmlns:eca="http://www.semwebtech.org/languages/2006/eca-ml"
                  id="writer">
          <eca:event><add v="{{V}}"/></eca:event>
          <eca:action>
            <act:insert xmlns:act="{ACTION_NS}" document="d.xml" at="/items">
              <item v="{{V}}"/>
            </act:insert>
          </eca:action>
        </eca:rule>""")
        deployment.stream.emit(E("add", {"v": "1"}))
        deployment.stream.emit(E("add", {"v": "2"}))
        assert deployment.exist.execute(
            "count(doc('d.xml')//item)") == "2"

    def test_events_reach_all_three_event_services(self):
        deployment = standard_deployment()
        # each service keeps its own detectors; feeding the stream reaches
        # all of them without error even with nothing registered
        deployment.stream.emit(E("anything"))
        assert len(deployment.stream) == 1

    def test_serialization_flag_plumbed_through(self):
        fast = standard_deployment(serialize_messages=False)
        assert fast.transport.serialize_messages is False
