"""Language routes: where a registered language lives and how it is
reached, resolved at registration (PROTOCOL.md §8, §12.1)."""

from repro.bindings import Relation, relation_to_answers
from repro.core import ECAEngine
from repro.grh import (ComponentSpec, GenericRequestHandler,
                       LanguageDescriptor, LanguageRegistry)
from repro.obs import Observability
from repro.obs.ops import IntrospectionSurface
from repro.services import InProcessTransport
from repro.xmlmodel import E, QName

_TRACEPARENT = QName(None, "traceparent")


class SpyTransport(InProcessTransport):
    """Records every send and counts ``dispatches_inline`` probes."""

    def __init__(self, inline=True):
        super().__init__()
        self.inline = inline
        self.probes = 0
        self.sent = []

    def dispatches_inline(self, address):
        self.probes += 1
        return self.inline

    def send(self, address, message, timeout=None):
        self.sent.append((address, message.get(_TRACEPARENT) is not None))
        return super().send(address, message, timeout)


def _answer(tag):
    return lambda message: relation_to_answers(Relation([{"Q": tag}]))


class _Service:
    def __init__(self, tag):
        self.handle = _answer(tag)


def _markup(uri):
    return ComponentSpec("query", uri, content=E("{%s}q" % uri))


def _opaque(name):
    return ComponentSpec("query", name, opaque="the query")


def _answered(grh, spec):
    return [row["Q"] for row in grh.evaluate_query("r::q", spec,
                                                   Relation.unit())]


class TestOneRoutePerLanguage:
    def test_uri_and_name_reach_the_same_address(self):
        transport = SpyTransport()
        grh = GenericRequestHandler(LanguageRegistry(), transport)
        grh.observability = Observability()
        grh.add_service(LanguageDescriptor("urn:ql", "query", "ql"),
                        _Service("ql"))
        assert _answered(grh, _markup("urn:ql")) == ["ql"]
        assert _answered(grh, _opaque("ql")) == ["ql"]
        # same address, same inline verdict (no traceparent stamped)
        assert transport.sent == [("svc:ql", False), ("svc:ql", False)]

    def test_uri_wins_over_a_name_and_first_name_wins(self):
        transport = InProcessTransport()
        grh = GenericRequestHandler(LanguageRegistry(), transport)
        # "first" is named after "second"'s URI; "third" reuses a name
        grh.add_remote_language(
            LanguageDescriptor("urn:first", "query", "urn:second"),
            transport.bind("svc:first", _answer("first")))
        grh.add_remote_language(
            LanguageDescriptor("urn:second", "query", "shared"),
            transport.bind("svc:second", _answer("second")))
        grh.add_remote_language(
            LanguageDescriptor("urn:third", "query", "shared"),
            transport.bind("svc:third", _answer("third")))
        assert _answered(grh, _opaque("urn:second")) == ["second"]
        assert _answered(grh, _opaque("shared")) == ["second"]
        assert _answered(grh, _opaque("urn:third")) == ["third"]

    def test_set_replicas_one_to_two_and_back(self):
        transport = SpyTransport()
        grh = GenericRequestHandler(LanguageRegistry(), transport)
        grh.observability = Observability()
        grh.resilience.default_hedge = None
        for tag in ("a", "b"):
            transport.bind(f"svc:{tag}", _answer(tag))
        grh.add_remote_language(
            LanguageDescriptor("urn:rq", "query", "rq"), "svc:a")
        assert {_answered(grh, _markup("urn:rq"))[0]
                for _ in range(4)} == {"a"}

        grh.set_replicas("urn:rq", ("svc:a", "svc:b"))
        transport.sent.clear()
        assert {_answered(grh, _markup("urn:rq"))[0]
                for _ in range(8)} == {"a", "b"}
        # a replicated language is never dispatched inline
        assert all(stamped for _, stamped in transport.sent)
        assert grh.active_addresses() == {"svc:a", "svc:b"}

        grh.set_replicas("urn:rq", ("svc:b",))
        transport.sent.clear()
        assert {_answered(grh, _markup("urn:rq"))[0]
                for _ in range(4)} == {"b"}
        assert not any(stamped for _, stamped in transport.sent)
        assert grh.active_addresses() == {"svc:b"}
        assert set(grh.resilience.health.addresses()) <= {"svc:b"}

    def test_inline_is_probed_once_per_address_set(self):
        transport = SpyTransport()
        grh = GenericRequestHandler(LanguageRegistry(), transport)
        grh.add_remote_language(LanguageDescriptor("urn:x", "query", "x"),
                                transport.bind("svc:x", _answer("x")))
        grh.add_remote_language(LanguageDescriptor("urn:y", "query", "y"),
                                transport.bind("svc:y", _answer("y")))
        for n in range(50):
            spec = _markup("urn:x") if n % 2 else _opaque("y")
            assert len(_answered(grh, spec)) == 1
        assert transport.probes <= 2


class TestIntrospectedServices:
    def test_each_language_listed_once_under_its_uri(self):
        transport = InProcessTransport()
        grh = GenericRequestHandler(LanguageRegistry(), transport)
        grh.add_remote_language(LanguageDescriptor("urn:x", "query", "x"),
                                transport.bind("svc:x", _answer("x")))
        grh.add_remote_language(
            LanguageDescriptor("urn:y", "query", "y",
                               replicas=("svc:y0", "svc:y1")))
        engine = ECAEngine(grh)
        try:
            status, payload = IntrospectionSurface(engine).handle(
                "/introspect/replicas", {})
        finally:
            engine.shutdown()
        assert status == 200
        assert payload["services"] == {"urn:x": ["svc:x"],
                                       "urn:y": ["svc:y0", "svc:y1"]}
