"""The transport contract, run against every shipped transport.

One parametrized suite instead of per-class probes: whatever carries
``log:`` messages between the GRH and a service must pass all of it —
``InProcessTransport`` (with and without serialization), both sides of
``HybridTransport``, ``PooledHttpTransport``, and each of those wrapped
in a ``ChaosTransport`` whose plan injects nothing.

* ``send`` and ``fetch`` round-trip, with or without ``timeout=``;
* a ``log:batch`` is a message: ``send`` carries it and the answers fan
  back positionally, a failing slot as its own ``log:error``
  (PROTOCOL.md §10);
* an unknown or unreachable address raises ``TransportError`` that is
  *not* ``service_reported`` (transient, §6);
* over HTTP, a handler's ``RuntimeError`` is the service's verdict —
  ``ServiceStatusError(500)`` — while 502/503/504 stay transient (§11).
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.bindings import Relation, answers_to_relation, relation_to_answers
from repro.chaos import ChaosTransport, FaultPlan
from repro.grh.messages import (Request, batch_to_xml, error_text, is_error,
                                request_to_xml, xml_to_batch_results)
from repro.services import (HttpServiceServer, HybridTransport,
                            InProcessTransport, PooledHttpTransport,
                            ServiceStatusError, TransportError)

#: a request id / query text the handlers refuse
REFUSED = "bad"

IN_PROCESS = ("in-process", "in-process-unserialized", "hybrid-local")
OVER_HTTP = ("hybrid-http", "pooled-http")


def _aware(message):
    if message.get("id") == REFUSED:
        raise RuntimeError("slot refused")
    return relation_to_answers(Relation([{"Id": message.get("id")}]))


def _opaque(query):
    if query == REFUSED:
        raise RuntimeError("query refused")
    return f"result-of({query})"


def _request(component_id):
    return request_to_xml(Request("query", component_id, None,
                                  Relation.unit()))


def _ids(answers):
    return [str(row["Id"]) for row in answers_to_relation(answers)]


@dataclass
class Target:
    transport: object
    aware: str        # address of the aware handler
    opaque: str       # address of the opaque handler
    unknown: str      # an address nothing answers at


@contextmanager
def _opened(kind, chaos):
    if kind in ("in-process", "in-process-unserialized"):
        transport = InProcessTransport(
            serialize_messages=kind == "in-process")
    elif kind.startswith("hybrid"):
        transport = HybridTransport(timeout=5.0)
    else:
        transport = PooledHttpTransport(timeout=5.0)
    server = None
    if kind in IN_PROCESS:
        transport.bind("svc:aware", _aware)
        transport.bind_opaque("svc:opaque", _opaque)
        target = Target(transport, "svc:aware", "svc:opaque", "svc:nowhere")
    else:
        server = HttpServiceServer(aware_handler=_aware,
                                   opaque_handler=_opaque)
        url = server.start()
        # port 1 refuses connections on localhost: unreachable, at once
        target = Target(transport, url, url, "http://127.0.0.1:1/")
    if chaos:
        # an empty plan: the wrapper must be invisible
        target.transport = ChaosTransport(transport, FaultPlan(0))
    try:
        yield target
    finally:
        close = getattr(transport, "close", None)
        if close is not None:
            close()
        if server is not None:
            server.stop()


def _params(kinds):
    return [(kind, chaos) for chaos in (False, True) for kind in kinds]


def _param_id(param):
    return param[0] + ("+chaos" if param[1] else "")


@pytest.fixture(params=_params(IN_PROCESS + OVER_HTTP), ids=_param_id)
def target(request):
    with _opened(*request.param) as opened:
        yield opened


@pytest.fixture(params=_params(OVER_HTTP), ids=_param_id)
def http_target(request):
    with _opened(*request.param) as opened:
        yield opened


class TestRoundTrip:
    def test_send(self, target):
        response = target.transport.send(target.aware, _request("c0"))
        assert _ids(response) == ["c0"]

    def test_fetch(self, target):
        assert target.transport.fetch(target.opaque, "q") == "result-of(q)"

    def test_timeout_is_optional(self, target):
        transport = target.transport
        assert _ids(transport.send(target.aware, _request("c0"),
                                   timeout=2.0)) == ["c0"]
        assert _ids(transport.send(target.aware, _request("c1"))) == ["c1"]
        assert transport.fetch(target.opaque, "q", timeout=2.0) \
            == "result-of(q)"
        assert transport.fetch(target.opaque, "q") == "result-of(q)"


class TestBatchIsAMessage:
    def test_batch_fans_back_positionally(self, target):
        envelope = batch_to_xml([_request("c0"), _request(REFUSED),
                                 _request("c2")])
        response = target.transport.send(target.aware, envelope)
        first, refused, last = xml_to_batch_results(response, expected=3)
        assert _ids(first) == ["c0"]
        assert is_error(refused)
        assert "slot refused" in error_text(refused)
        assert _ids(last) == ["c2"]


class TestFailureTaxonomy:
    def test_unknown_address_is_transient(self, target):
        for call, argument in ((target.transport.send, _request("c0")),
                               (target.transport.fetch, "q")):
            with pytest.raises(TransportError) as caught:
                call(target.unknown, argument, timeout=2.0)
            assert not getattr(caught.value, "service_reported", False)

    def test_handler_exception_over_http_is_reported(self, http_target):
        transport = http_target.transport
        with pytest.raises(ServiceStatusError) as caught:
            transport.send(http_target.aware, _request(REFUSED))
        assert caught.value.status == 500
        assert caught.value.service_reported
        assert "slot refused" in str(caught.value)
        with pytest.raises(ServiceStatusError) as caught:
            transport.fetch(http_target.opaque, REFUSED)
        assert caught.value.status == 500

    @pytest.mark.parametrize("status", [502, 503, 504])
    def test_gateway_statuses_are_transient(self, http_target, status):
        with _Gateway(status) as url:
            for call, argument in (
                    (http_target.transport.send, _request("c0")),
                    (http_target.transport.fetch, "q")):
                with pytest.raises(TransportError) as caught:
                    call(url, argument)
                assert not getattr(caught.value, "service_reported",
                                   False)


class _Gateway:
    """A front that answers every request with one gateway status."""

    def __init__(self, status):
        class Refuse(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, format, *args):
                pass

            def do_GET(self):
                self.send_response(status)
                self.send_header("Content-Length", "0")
                self.end_headers()

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.do_GET()

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Refuse)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)

    def __enter__(self):
        self._thread.start()
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/"

    def __exit__(self, *exc_info):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(5)
