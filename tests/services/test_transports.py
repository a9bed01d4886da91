"""Transports: in-process broker and the real localhost HTTP endpoints."""

import socket
import urllib.parse

import pytest

from repro.bindings import Relation, relation_to_answers
from repro.services import (HttpServiceServer, InProcessTransport,
                            PooledHttpTransport, TransportError)
from repro.xmlmodel import canonicalize, parse, serialize


@pytest.fixture
def http():
    transport = PooledHttpTransport()
    yield transport
    transport.close()


def echo_handler(message):
    """Returns the request unchanged (wrapped), to inspect wire bytes."""
    wrapper = parse("<echo/>")
    wrapper.append(message.copy() if message.parent is None else message)
    return wrapper


class TestInProcessTransport:
    def test_send_roundtrips_through_markup(self):
        transport = InProcessTransport()
        seen = []

        def handler(message):
            seen.append(message)
            return relation_to_answers(Relation([{"X": 1}]))

        transport.bind("svc:q", handler)
        response = transport.send("svc:q", parse("<ping a='1'/>"))
        assert seen[0] == parse("<ping a='1'/>")
        # the handler received a *reparsed* copy, not the original object
        assert response == relation_to_answers(Relation([{"X": 1}]))

    def test_serialization_can_be_disabled(self):
        transport = InProcessTransport(serialize_messages=False)
        original = parse("<ping/>")
        received = []
        transport.bind("svc:q", lambda m: (received.append(m), m)[1])
        transport.send("svc:q", original)
        assert received[0] is original

    def test_unknown_address(self):
        transport = InProcessTransport()
        with pytest.raises(TransportError, match="no service bound"):
            transport.send("svc:ghost", parse("<x/>"))
        with pytest.raises(TransportError, match="no opaque service"):
            transport.fetch("svc:ghost", "q")

    def test_opaque_fetch(self):
        transport = InProcessTransport()
        transport.bind_opaque("svc:exist", lambda q: f"result-of({q})")
        assert transport.fetch("svc:exist", "query") == "result-of(query)"


class TestHttpTransport:
    def test_aware_post_roundtrip(self, http):
        def handler(message):
            return relation_to_answers(Relation([{"Got": message.name.local}]))

        with HttpServiceServer(aware_handler=handler) as url:
            response = http.send(url, parse("<ping/>"))
            assert "Got" in serialize(response)

    def test_opaque_get_roundtrip(self, http):
        with HttpServiceServer(opaque_handler=lambda q: f"<r q='{q}'/>") as url:
            assert http.fetch(url, "the query") == "<r q='the query'/>"

    def test_unreachable_endpoint(self, http):
        with pytest.raises(TransportError):
            http.send("http://127.0.0.1:1/", parse("<x/>"), timeout=0.5)

    def test_service_exception_becomes_transport_error(self, http):
        def handler(message):
            raise RuntimeError("boom")

        with HttpServiceServer(aware_handler=handler) as url:
            with pytest.raises(TransportError):
                http.send(url, parse("<x/>"))

    def test_wrong_method_rejected(self, http):
        with HttpServiceServer(aware_handler=lambda m: m) as url:
            with pytest.raises(TransportError):
                http.fetch(url, "q")


class TestTruncatedBody:
    def test_body_shorter_than_content_length_is_refused(self):
        """A client that declares 100 bytes, sends 4 and half-closes
        gets a 400 and a closed connection; the service never runs."""
        calls = []

        def handler(message):
            calls.append(message)
            return message

        with HttpServiceServer(aware_handler=handler) as url:
            parts = urllib.parse.urlsplit(url)
            with socket.create_connection((parts.hostname, parts.port),
                                          timeout=5) as sock:
                sock.sendall(b"POST / HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 100\r\n\r\n<a/>")
                sock.shutdown(socket.SHUT_WR)
                answer = b""
                while chunk := sock.recv(65536):
                    answer += chunk
        status_line, _, rest = answer.partition(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 400")
        assert b"shorter than Content-Length" in answer
        assert b"connection: close" in rest.lower()
        assert calls == []


class TestHttpServiceServerLifecycle:
    def test_stop_before_start_is_safe(self):
        server = HttpServiceServer(aware_handler=lambda m: m)
        server.stop()  # must not deadlock waiting on serve_forever

    def test_double_stop_is_idempotent(self):
        server = HttpServiceServer(aware_handler=lambda m: m)
        server.start()
        server.stop()
        server.stop()  # second stop is a no-op, not an error

    def test_context_manager_still_works(self):
        server = HttpServiceServer(aware_handler=lambda m: m)
        with server as url:
            assert url.startswith("http://")
        server.stop()  # and an extra stop after __exit__ is fine


class TestPerRequestTimeouts:
    def test_http_send_accepts_timeout_override(self, http):
        def handler(message):
            return parse("<ok/>")

        with HttpServiceServer(aware_handler=handler) as url:
            response = http.send(url, parse("<x/>"), timeout=2.0)
            assert response.name.local == "ok"

    def test_in_process_accepts_and_ignores_timeout(self):
        transport = InProcessTransport()
        transport.bind("svc:x", lambda m: parse("<ok/>"))
        transport.bind_opaque("svc:o", lambda q: "v")
        assert transport.send("svc:x", parse("<x/>"),
                              timeout=0.01).name.local == "ok"
        assert transport.fetch("svc:o", "q", timeout=0.01) == "v"

    def test_hybrid_routes_timeout_through(self):
        from repro.services import HybridTransport
        recorded = []

        class SpyHttp:
            def send(self, address, message, timeout=None):
                recorded.append(("send", timeout))
                return parse("<ok/>")

            def fetch(self, address, query, timeout=None):
                recorded.append(("fetch", timeout))
                return "v"

        hybrid = HybridTransport()
        hybrid.http = SpyHttp()
        hybrid.send("http://x/", parse("<x/>"), timeout=1.25)
        hybrid.fetch("http://x/", "q", timeout=0.75)
        assert recorded == [("send", 1.25), ("fetch", 0.75)]


class TestWireEquivalence:
    """DESIGN.md §5: identical canonical bytes over both transports."""

    def test_same_message_bytes_in_process_and_http(self, http):
        message = relation_to_answers(Relation([{"Person": "John Doe",
                                                 "Class": "B"}]))
        captured = {}

        def capture(received):
            captured["inproc"] = canonicalize(received)
            return parse("<ok/>")

        in_process = InProcessTransport()
        in_process.bind("svc:x", capture)
        in_process.send("svc:x", message)

        def capture_http(received):
            captured["http"] = canonicalize(received)
            return parse("<ok/>")

        with HttpServiceServer(aware_handler=capture_http) as url:
            http.send(url, message)

        assert captured["inproc"] == captured["http"]
