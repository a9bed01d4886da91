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

The HTTP pair is also held to third parties: the pooled client against
a stock stdlib server (unbuffered writes; chunked, HTTP/1.0,
close-delimited and ``Connection: close`` replies), the service server
against ``http.client`` and raw sockets (the header limits, ``Expect:
100-continue``, pipelining, the connection rules), and the §11 rule that
only a *reused* socket dying before the reply's first byte is retried.
"""

import http.client
import socket
import threading
import urllib.parse
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


# -- the pooled client against a stock stdlib server ---------------------------

class _Framed(BaseHTTPRequestHandler):
    """A stock handler (unbuffered: status line, headers and body may
    leave in separate sends) answering ``<ok/>`` in the framing its
    request path names."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.do_GET()

    def do_GET(self):
        framing = urllib.parse.urlsplit(self.path).path.strip("/")
        body = b"<ok/>"
        if framing == "http10":
            self.protocol_version = "HTTP/1.0"
        self.send_response(200)
        if framing == "chunked":
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for piece in (body[:2], body[2:]):
                self.wfile.write(b"%x\r\n%s\r\n" % (len(piece), piece))
            self.wfile.write(b"0\r\nX-Trailer: dropped\r\n\r\n")
            return
        if framing == "close":
            self.send_header("Connection", "close")
        if framing == "eof":
            self.close_connection = True
        else:
            self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class TestPooledClientAgainstAStockServer:
    @pytest.mark.parametrize("framing, keeps_alive", [
        ("plain", True), ("chunked", True), ("http10", False),
        ("eof", False), ("close", False)])
    def test_reply_framings(self, framing, keeps_alive):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Framed)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        transport = PooledHttpTransport(timeout=5.0)
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}/{framing}"
            for _ in range(2):
                assert transport.send(url, _request("c0")).name.local == "ok"
                assert transport.fetch(url, "q") == "<ok/>"
            (stats,) = transport.pool_stats().values()
        finally:
            transport.close()
            server.shutdown()
            server.server_close()
            thread.join(5)
        if keeps_alive:
            assert (stats["created"], stats["reused"]) == (1, 3)
        else:
            assert (stats["created"], stats["retired"]) == (4, 4)


# -- the service server against http.client and raw sockets --------------------

def _echo(message):
    return message


def _raw(url):
    parts = urllib.parse.urlsplit(url)
    return socket.create_connection((parts.hostname, parts.port),
                                    timeout=5.0)


def _replies(reader, count):
    """Read *count* replies off a raw connection: (status, head, body)."""
    out = []
    for _ in range(count):
        status = int(reader.readline().split()[1])
        head = {}
        while (line := reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            head[name.strip().lower()] = value.strip()
        out.append((status, head,
                    reader.read(int(head.get("content-length", 0)))))
    return out


def _closed(reader):
    try:
        return reader.read() == b""
    except ConnectionResetError:
        return True


class TestServerHeadReader:
    """``HttpServiceServer`` reads each head with one bounded reader and
    keeps the stdlib's connection rules."""

    POST = b"POST / HTTP/1.1\r\nHost: x\r\n"
    PING = b"Content-Length: 7\r\n\r\n<ping/>"

    @pytest.fixture
    def url(self):
        with HttpServiceServer(aware_handler=_echo,
                               opaque_handler=_opaque) as url:
            yield url

    def _one(self, url, request):
        """Send *request* on a new connection: its reply, and whether the
        server then closed the connection."""
        with _raw(url) as raw:
            raw.sendall(request)
            reader = raw.makefile("rb")
            (reply,) = _replies(reader, 1)
            raw.settimeout(0.5)
            try:
                closed = _closed(reader)
            except TimeoutError:
                closed = False
        return reply, closed

    def test_duplicate_equal_content_lengths_are_one(self, url):
        (status, _, body), closed = self._one(
            url, self.POST + b"Content-Length: 7\r\n" + self.PING)
        assert (status, body, closed) == (200, b"<ping/>", False)

    def test_conflicting_content_lengths_are_400(self, url):
        (status, head, _), closed = self._one(
            url, self.POST + b"Content-Length: 8\r\n" + self.PING)
        assert (status, head["connection"], closed) == (400, "close", True)

    @pytest.mark.parametrize("extra, status", [(98, 200), (99, 431)])
    def test_header_line_count(self, url, extra, status):
        # Host, Content-Length and *extra* fields: 100 lines pass, 101
        # do not
        fields = b"".join(b"X-%d: v\r\n" % n for n in range(extra))
        (got, _, _), closed = self._one(url, self.POST + fields + self.PING)
        assert (got, closed) == (status, status != 200)

    def test_a_70_kib_header_line_is_431(self, url):
        (status, _, _), closed = self._one(
            url, self.POST + b"X-Big: " + b"a" * 70 * 1024 + b"\r\n"
            + self.PING)
        assert (status, closed) == (431, True)

    def test_expect_100_continue(self, url):
        with _raw(url) as raw:
            raw.sendall(self.POST + b"Expect: 100-continue\r\n"
                        b"Content-Length: 7\r\n\r\n")
            reader = raw.makefile("rb")
            # the interim answer must arrive before the body is sent
            assert _replies(reader, 1)[0][0] == 100
            raw.sendall(b"<ping/>")
            ((status, _, body),) = _replies(reader, 1)
        assert (status, body) == (200, b"<ping/>")

    def test_pipelined_requests_answer_in_order(self, url):
        bodies = (b"<a/>", b"<b/>", b"<c/>")
        with _raw(url) as raw:
            raw.sendall(b"".join(
                self.POST + b"Content-Length: %d\r\n\r\n%s" % (len(b), b)
                for b in bodies))
            replies = _replies(raw.makefile("rb"), 3)
        assert [(status, body) for status, _, body in replies] \
            == [(200, body) for body in bodies]

    @pytest.mark.parametrize("version, connection, stays_open", [
        (b"HTTP/1.1", b"", True),
        (b"HTTP/1.1", b"Connection: close\r\n", False),
        (b"HTTP/1.0", b"", False),
        (b"HTTP/1.0", b"Connection: keep-alive\r\n", True)])
    def test_connection_rules(self, url, version, connection, stays_open):
        (status, _, _), closed = self._one(
            url, b"POST / " + version + b"\r\nHost: x\r\n" + connection
            + self.PING)
        assert (status, closed) == (200, not stays_open)

    @pytest.mark.parametrize("line, status", [
        (b"GARBAGE", 400), (b"GET / HTTP/x.y", 400), (b"GET /", 400),
        (b"GET / HTTP/1.1 extra", 400), (b"GET / HTTP/2.0", 400)])
    def test_malformed_request_lines(self, url, line, status):
        (got, _, _), closed = self._one(url, line + b"\r\nHost: x\r\n\r\n")
        assert (got, closed) == (status, True)

    def test_http_client_keep_alive(self, url):
        parts = urllib.parse.urlsplit(url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                          timeout=5.0)
        try:
            for body in (b"<a/>", b"<b/>"):
                conn.request("POST", "/", body=body,
                             headers={"Content-Type": "application/xml"})
                response = conn.getresponse()
                assert (response.status, response.read()) == (200, body)
            conn.request("GET", "/?query=q")
            response = conn.getresponse()
            assert (response.status, response.read()) \
                == (200, b"result-of(q)")
            conn.request("GET", f"/?query={REFUSED}")
            response = conn.getresponse()
            assert response.status == 500
            assert b"query refused" in response.read()
        finally:
            conn.close()


# -- the §11 stale-socket rule -----------------------------------------------------

OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n<ok/>"


class _Scripted:
    """A raw-socket server answering request *n* (over all connections)
    with ``script[n]`` — ``(reply bytes, keep the connection open)`` —
    and past the script with a keep-alive ``<ok/>``."""

    def __init__(self, script):
        self.script = list(script)
        self.connections = 0
        self.requests = 0
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._accept, daemon=True)

    def __enter__(self):
        self._thread.start()
        host, port = self._sock.getsockname()
        return f"http://{host}:{port}/"

    def __exit__(self, *exc_info):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._thread.join(5)

    def _accept(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn):
        try:
            with conn, conn.makefile("rb") as reader:
                while reader.readline():
                    length = 0
                    while (line := reader.readline()) not in (b"\r\n", b""):
                        name, _, value = line.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    reader.read(length)
                    self.requests += 1
                    reply, keep_open = self.script.pop(0) if self.script \
                        else (OK_REPLY, True)
                    conn.sendall(reply)
                    if not keep_open:
                        return
        except OSError:
            pass


class TestStaleSocketRule:
    """One fresh retry when a *reused* socket dies before the reply's
    first byte (PROTOCOL.md §11) — and for nothing else."""

    @staticmethod
    def _two_sends(script, timeout=5.0):
        server = _Scripted(script)
        transport = PooledHttpTransport(timeout=timeout)
        outcomes = []
        try:
            with server as url:
                for _ in range(2):
                    try:
                        outcomes.append(
                            transport.send(url, _request("c0")).name.local)
                    except TransportError as exc:
                        outcomes.append(type(exc))
        finally:
            transport.close()
        return outcomes, (server.connections, server.requests)

    def test_reused_socket_closed_while_idle_is_retried_once(self):
        outcomes, seen = self._two_sends([(OK_REPLY, False)])
        assert outcomes == ["ok", "ok"]
        assert seen == (2, 2)

    def test_a_hangup_on_a_fresh_socket_is_not_retried(self):
        outcomes, seen = self._two_sends([(b"", False)])
        assert outcomes == [TransportError, "ok"]
        assert seen == (2, 2)

    def test_a_reply_cut_after_its_first_byte_is_not_retried(self):
        cut = b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n<o"
        outcomes, seen = self._two_sends([(OK_REPLY, True), (cut, False)])
        assert outcomes == ["ok", TransportError]
        assert seen == (1, 2)

    def test_a_timeout_on_a_reused_socket_is_not_retried(self):
        outcomes, seen = self._two_sends([(OK_REPLY, True), (b"", True)],
                                         timeout=0.3)
        assert outcomes == ["ok", TransportError]
        assert seen == (1, 2)
