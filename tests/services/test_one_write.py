"""One write per HTTP message, and no ``email`` parser at either end.

Every socket opened while a test here runs is a counting subclass, so
the writes that carry a request and its response are observed, not
inferred: a return to split writes (headers, then body) fails on any
host.  Both ends read header blocks with their own bounded reader; a
request that enters ``email.feedparser`` fails here too.
"""

import email.feedparser
import socket

import pytest

from repro.bindings import Relation, relation_to_answers
from repro.grh import GenericRequestHandler, LanguageDescriptor, LanguageRegistry
from repro.grh.messages import Request
from repro.services import (HttpServiceServer, PooledHttpTransport,
                            ServiceStatusError, transports)
from repro.xmlmodel import parse, serialize


class _CountingSocket(socket.socket):
    """Notes the local port of every ``send``/``sendall`` call."""

    writes: list[int] = []

    def send(self, data, *flags):
        self.writes.append(self.getsockname()[1])
        return super().send(data, *flags)

    def sendall(self, data, *flags):
        self.writes.append(self.getsockname()[1])
        return super().sendall(data, *flags)


@pytest.fixture
def writes(monkeypatch):
    """Every socket opened during the test logs its writes here."""
    log: list[int] = []
    monkeypatch.setattr(_CountingSocket, "writes", log)
    monkeypatch.setattr(socket, "socket", _CountingSocket)
    return log


def _port(url):
    return int(url.rstrip("/").rsplit(":", 1)[1])


def _tally(writes, url):
    """``(client writes, server writes)`` of the exchanges with *url*."""
    server = writes.count(_port(url))
    return len(writes) - server, server


def _service(message):
    if message.name.local == "fail":
        raise RuntimeError("service refused")
    return relation_to_answers(Relation([{"Q": "fine"}]))


class _Healthz:
    """The liveness route of the introspection surface, alone."""

    def handles(self, path):
        return path == "/healthz"

    def handle(self, path, params):
        return 200, {"status": "ok"}


@pytest.fixture
def served(writes):
    """A server with every route the tests reach, and a pooled client."""
    server = HttpServiceServer(aware_handler=_service,
                               opaque_handler=lambda query: f"got {query}",
                               introspection=_Healthz())
    url = server.start()
    transport = PooledHttpTransport(timeout=5.0)
    yield url, transport
    transport.close()
    server.stop()


class TestOneWritePerMessage:
    def test_200_post(self, served, writes):
        url, transport = served
        assert "fine" in serialize(transport.send(url, parse("<ping/>")))
        assert _tally(writes, url) == (1, 1)

    def test_each_keep_alive_request(self, served, writes):
        url, transport = served
        for _ in range(3):
            transport.send(url, parse("<ping/>"))
        assert _tally(writes, url) == (3, 3)

    def test_500_with_a_log_error_body(self, served, writes):
        url, transport = served
        with pytest.raises(ServiceStatusError,
                           match="service refused") as caught:
            transport.send(url, parse("<fail/>"))
        assert caught.value.status == 500
        assert _tally(writes, url) == (1, 1)

    def test_413(self, served, writes, monkeypatch):
        monkeypatch.setattr(transports, "MAX_BODY_BYTES", 16)
        url, transport = served
        with pytest.raises(ServiceStatusError) as caught:
            transport.send(url, parse("<x>over sixteen bytes</x>"))
        assert caught.value.status == 413
        assert _tally(writes, url) == (1, 1)

    def test_400(self, served, writes):
        url, _ = served
        with socket.create_connection(("127.0.0.1", _port(url)),
                                      timeout=5.0) as raw:
            raw.sendall(b"POST / HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: banana\r\n\r\n")
            reply = b""
            while chunk := raw.recv(4096):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert _tally(writes, url) == (1, 1)

    def test_get_healthz(self, served, writes):
        url, transport = served
        assert transport.fetch(url + "healthz", "") == '{"status":"ok"}'
        assert _tally(writes, url) == (1, 1)

    def test_opaque_get(self, served, writes):
        url, transport = served
        assert transport.fetch(url, "q") == "got q"
        assert _tally(writes, url) == (1, 1)


class TestNoEmailParser:
    def test_a_mediated_request_never_enters_it(self, served, monkeypatch):
        url, transport = served
        entered = []

        def refuse(self, data):
            entered.append(data)
            raise AssertionError("email.feedparser entered")

        monkeypatch.setattr(email.feedparser.FeedParser, "feed", refuse)
        grh = GenericRequestHandler(LanguageRegistry(), transport)
        grh.add_remote_language(
            LanguageDescriptor("urn:test:guard", "query", "guard"), url)
        try:
            response = grh._send(grh.route("urn:test:guard"),
                                 Request("query", "c0", None,
                                         Relation.unit()))
            assert "fine" in serialize(response)
            assert transport.fetch(url, "q") == "got q"
        finally:
            grh.close()
        assert entered == []
