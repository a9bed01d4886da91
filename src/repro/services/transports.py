"""Transports: how the GRH reaches component-language services.

Two interchangeable implementations of the same contract (Fig. 3's arrows
between the GRH and the services):

* :class:`InProcessTransport` — services run in the same process; by
  default every message is still serialized to markup and re-parsed, so
  the bytes a service sees are identical to the HTTP case (the paper's
  services are autonomous remote processors; we keep that property
  observable).
* :class:`PooledHttpTransport` — services run behind real HTTP endpoints
  (stdlib ``http.server`` on localhost), POSTing ``log:`` messages;
  plain GET with a ``query`` parameter reaches framework-UNaware
  services the way the paper's eXist node is reached (Fig. 9).  Requests
  ride per-origin keep-alive connection pools (bounded size, idle
  reaping, broken-connection retirement and one transparent reconnect
  on a stale socket): per-request TCP setup is the dominant cost of an
  HTTP round-trip under load (PROTOCOL.md §11).  Both ends write a
  message with one ``send`` and read its header block with one bounded
  reader, :func:`_read_head`.

Failure taxonomy (PROTOCOL.md §11): a *connection-level* failure — the
endpoint could not be reached, or the socket died before a response —
raises plain :class:`TransportError` (transient, retryable,
breaker-counted by the GRH).  An HTTP *error status* means a live
service answered and refused: it raises :class:`ServiceStatusError`
(``service_reported``), which the GRH maps onto its non-retryable
``ServiceReportedError`` path.  Gateway statuses (502/503/504) are the
exception — they signal infrastructure trouble in front of the
service and stay transient.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from ..grh.messages import (batch_results_to_xml, error_message, error_text,
                            is_batch, is_error, xml_to_batch)
from ..obs.trace import record_wait
from ..xmlmodel import Element, parse, serialize

__all__ = ["TransportError", "ServiceStatusError", "InProcessTransport",
           "HttpServiceServer", "PooledHttpTransport",
           "HybridTransport", "AwareHandler", "OpaqueHandler", "serve"]

#: A framework-aware service endpoint: XML message in, XML message out.
AwareHandler = Callable[[Element], Element]

#: A framework-unaware service endpoint: query string in, raw text out.
OpaqueHandler = Callable[[str], str]


class TransportError(RuntimeError):
    """Raised when an endpoint is unknown or unreachable."""


class ServiceStatusError(TransportError):
    """A live service answered an HTTP error status.

    Unlike a connection-level :class:`TransportError`, the HTTP
    conversation itself succeeded — the failure is the *service's own
    report*, deterministic for the request that provoked it.  The GRH
    reads ``service_reported`` and routes it onto the
    ``ServiceReportedError`` path: not retried unless the policy opts
    in via ``retry_on_service_errors``, and never counted against the
    endpoint's circuit breaker (PROTOCOL.md §6/§11).
    """

    #: duck-typed marker the GRH checks (no import cycle with repro.grh)
    service_reported = True

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


#: HTTP statuses that signal trouble *in front of* the service (load
#: balancer, gateway, overload shedding) rather than a service verdict
#: on the request — kept transient/retryable like connection failures.
_TRANSIENT_HTTP_STATUSES = frozenset({502, 503, 504})

#: the largest body either end reads (PROTOCOL.md §11): a request whose
#: ``Content-Length`` is longer is answered 413 before any of the body
#: is read, a reply whose ``Content-Length`` or chunk sum is longer is
#: refused where that shows; clients see ``ServiceStatusError`` for both
MAX_BODY_BYTES = 16 * 1024 * 1024

#: header-block limits at both ends, the stdlib's own: bytes per line
#: and field lines per block
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _BadHead(ValueError):
    """``(status, message)``: a header block over the limits (431) or
    contradicting itself (400)."""


def _read_head(reader) -> dict[str, str]:
    """Read one header block through its blank line, at either end.

    Returns the fields by lower-cased name, a repeated field's values
    joined with ``", "``.  A line over ``_MAX_LINE`` bytes, more than
    ``_MAX_HEADERS`` lines or two ``Content-Length`` values that
    disagree raise :class:`_BadHead`.
    """
    head: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _BadHead(431, f"header line over {_MAX_LINE} bytes")
        if line in (b"\r\n", b"\n", b""):
            return head
        name, colon, value = line.decode("iso-8859-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if not colon or not name:
            raise _BadHead(400, f"malformed header line {line[:64]!r}")
        if name not in head:
            head[name] = value
        elif name != "content-length":
            head[name] += ", " + value
        elif head[name] != value:
            raise _BadHead(400, "conflicting Content-Length headers")
    raise _BadHead(431, f"more than {_MAX_HEADERS} header lines")


def _raise_for_status(address: str, status: int, reason: str,
                      body: str) -> None:
    """Classify a non-2xx HTTP response (PROTOCOL.md §11).

    A ``log:error`` body carries the service's own message and is
    surfaced verbatim; gateway statuses stay transient
    (:class:`TransportError`); everything else is a deterministic
    service report (:class:`ServiceStatusError`).
    """
    if status in _TRANSIENT_HTTP_STATUSES:
        raise TransportError(
            f"cannot reach {address!r}: HTTP {status} {reason}")
    message = f"HTTP {status} {reason} from {address!r}"
    text = body.strip()
    if text.startswith("<"):
        try:
            element = parse(text)
        except Exception:
            element = None
        if element is not None and is_error(element):
            message = error_text(element)
    raise ServiceStatusError(status, message)


def serve(handler: AwareHandler, message: Element) -> Element:
    """Answer one incoming message with *handler*; both transports
    deliver through here.

    A ``log:batch`` is a message too (PROTOCOL.md §10): its requests are
    handled in order, a per-request exception becomes that request's
    ``log:error`` result (the rest of the batch still runs), and the
    responses ride back positionally in one ``log:batchresults`` — so
    services need no batching code of their own.  A ``ConnectionError``
    is a crash, not a verdict: it aborts the whole envelope, exactly as
    it aborts a single request, and the caller sees a transient failure.
    An envelope of queries and tests is read-only, so running it again
    elsewhere loses nothing; an envelope of actions (one group's, §7)
    runs again elsewhere only when every tuple carries a ``dedup`` key,
    which the service honours per slot.
    """
    if not is_batch(message):
        return handler(message)
    results = []
    for request in xml_to_batch(message):
        try:
            results.append(handler(request))
        except ConnectionError:
            raise
        except Exception as exc:
            results.append(error_message(str(exc)))
    return batch_results_to_xml(results)


class InProcessTransport:
    """Directly invokes handlers registered under string addresses."""

    def dispatches_inline(self, address: str) -> bool:
        """Handlers run synchronously on the caller's thread, so they
        see the caller's thread-local state (e.g. the open request span) —
        trace context need not ride the envelope (PROTOCOL.md §8)."""
        return True

    def __init__(self, serialize_messages: bool = True) -> None:
        self.serialize_messages = serialize_messages
        self._aware: dict[str, AwareHandler] = {}
        self._opaque: dict[str, OpaqueHandler] = {}

    def bind(self, address: str, handler: AwareHandler) -> str:
        self._aware[address] = handler
        return address

    def bind_opaque(self, address: str, handler: OpaqueHandler) -> str:
        self._opaque[address] = handler
        return address

    def send(self, address: str, message: Element,
             timeout: float | None = None) -> Element:
        # in-process calls cannot be interrupted; ``timeout`` is accepted
        # for contract compatibility with the HTTP transport
        if address not in self._aware:
            raise TransportError(f"no service bound at {address!r}")
        handler = self._aware[address]
        if not self.serialize_messages:
            return serve(handler, message)
        wire_out = serialize(message)
        response = serve(handler, parse(wire_out))
        return parse(serialize(response))

    def fetch(self, address: str, query: str,
              timeout: float | None = None) -> str:
        if address not in self._opaque:
            raise TransportError(f"no opaque service bound at {address!r}")
        try:
            return self._opaque[address](query)
        except (ConnectionError, TransportError):
            # a (simulated) crash or a transport fault: transient
            raise
        except Exception as exc:
            # the same verdict the HTTP path reaches through a 500: the
            # service ran and refused this query — deterministic, so the
            # GRH reports it instead of retrying (PROTOCOL.md §11)
            raise ServiceStatusError(500, str(exc)) from exc


class _ServiceHTTPHandler(BaseHTTPRequestHandler):
    """Serves one service: POST = aware protocol, GET ?query= = opaque.

    When the server was built with a metrics registry, ``GET /metrics``
    answers its Prometheus text exposition (scrape endpoint).  When it
    was built with an introspection surface
    (:class:`repro.obs.ops.IntrospectionSurface`), the health and
    ``/introspect/*`` routes answer JSON snapshots (PROTOCOL.md §9).
    """

    aware_handler: AwareHandler | None = None
    opaque_handler: OpaqueHandler | None = None
    metrics_registry = None
    introspection = None
    #: keep-alive: one TCP connection serves many requests, which is
    #: what :class:`PooledHttpTransport` amortizes (PROTOCOL.md §11)
    protocol_version = "HTTP/1.1"
    #: a malformed request line is still answered with a status line
    default_request_version = "HTTP/1.0"
    #: reap idle keep-alive connections server-side so abandoned
    #: clients do not pin handler threads forever
    timeout = 30.0
    #: a buffered ``wfile``: every answer, errors included, collects its
    #: status line, headers and body and leaves in one ``send`` when
    #: ``handle_one_request`` (or ``finish``) flushes
    wbufsize = -1
    #: an answer leaves in one write, but Nagle would still hold back
    #: the last segment of one longer than a segment until the client's
    #: delayed ACK (~40 ms), dwarfing the round-trip it rides on
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # silence stderr
        pass

    def parse_request(self) -> bool:
        """The stdlib's request-line and connection rules (HTTP/0.9
        aside), with the header block read by :func:`_read_head`."""
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline,
                               "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        try:
            command, path, version = words
            major, minor = map(int, version.removeprefix("HTTP/").split("."))
            if not version.startswith("HTTP/") or major != 1:
                raise ValueError(version)
        except ValueError:
            self.send_error(400, f"Bad request syntax ({self.requestline!r})")
            return False
        self.command, self.request_version = command, version
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = _read_head(self.rfile)
        except _BadHead as exc:
            self.send_error(*exc.args)
            return False
        connection = self.headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            (major, minor) < (1, 1) and connection != "keep-alive")
        if (major, minor) >= (1, 1) and \
                self.headers.get("expect", "").lower() == "100-continue":
            # the client holds its body back until this interim answer
            # arrives, so it cannot wait in the buffer for the final one
            self.handle_expect_100()
            self.wfile.flush()
        return True

    def do_POST(self) -> None:
        if self.aware_handler is None:
            self.send_error(405, "service is not framework-aware")
            return
        length_header = self.headers.get("content-length")
        if length_header is None:
            self.send_error(400, "missing Content-Length")
            return
        try:
            length = int(length_header)
            if length < 0:
                raise ValueError(length_header)
        except ValueError:
            self.send_error(400, "invalid Content-Length")
            return
        if length > MAX_BODY_BYTES:
            # send_error closes the connection, so the unread body is
            # never mistaken for the next request
            self.send_error(413, f"request body over {MAX_BODY_BYTES} bytes")
            return
        raw = self.rfile.read(length)
        if len(raw) < length:
            # the client stopped sending early: acting on the prefix
            # would serve a message the client never finished
            self.send_error(400, "request body shorter than Content-Length")
            return
        try:
            body = raw.decode("utf-8")
        except UnicodeDecodeError:
            self.send_error(400, "request body is not valid UTF-8")
            return
        try:
            response = serve(self.aware_handler, parse(body))
            payload = serialize(response).encode("utf-8")
        except ConnectionError:
            # a (simulated or real) crash that takes the connection
            # down with it: abort without answering, so the client
            # sees a socket-level failure — transient by taxonomy
            raise
        except Exception as exc:
            # a service exception is the service's own report, not a
            # transport fault: HTTP 500 with a log:error body, which
            # clients classify as ServiceStatusError/ServiceReported
            self._answer(500, serialize(error_message(str(exc)))
                         .encode("utf-8"))
            return
        self._answer(200, payload)

    def _answer(self, status: int, payload: bytes,
                content_type: str = "application/xml; charset=utf-8") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:
        parsed = urllib.parse.urlparse(self.path)
        introspection = self.introspection
        if introspection is not None and introspection.handles(parsed.path):
            params = {key: values[0] for key, values in
                      urllib.parse.parse_qs(parsed.query).items()}
            try:
                status, payload = introspection.handle(parsed.path, params)
                body = json.dumps(payload,
                                  separators=(",", ":")).encode("utf-8")
            except Exception as exc:
                self.send_error(500, str(exc))
                return
            self._answer(status, body, "application/json; charset=utf-8")
            return
        if parsed.path == "/metrics" and self.metrics_registry is not None:
            try:
                payload = self.metrics_registry.render_prometheus() \
                    .encode("utf-8")
            except Exception as exc:
                self.send_error(500, str(exc))
                return
            self._answer(200, payload,
                         "text/plain; version=0.0.4; charset=utf-8")
            return
        if self.opaque_handler is None:
            self.send_error(405, "service has no opaque interface")
            return
        params = urllib.parse.parse_qs(parsed.query)
        query = params.get("query", [""])[0]
        try:
            payload = self.opaque_handler(query).encode("utf-8")
        except ConnectionError:
            raise  # crash takes the connection down: see do_POST
        except Exception as exc:
            self._answer(500, serialize(error_message(str(exc)))
                         .encode("utf-8"))
            return
        self._answer(200, payload)


class HttpServiceServer:
    """Hosts one service on a localhost HTTP port (own thread)."""

    def __init__(self, aware_handler: AwareHandler | None = None,
                 opaque_handler: OpaqueHandler | None = None,
                 metrics=None, introspection=None, port: int = 0) -> None:
        # ``metrics`` is a MetricsRegistry (or anything with a
        # ``render_prometheus()`` method); when given, the server also
        # answers ``GET /metrics``.  ``introspection`` is an
        # IntrospectionSurface (anything with ``handles(path)`` and
        # ``handle(path, params) -> (status, payload)``); when given,
        # the server also answers the health and /introspect/* routes.
        # ``port`` pins the listen port (0 = ephemeral): a killed
        # replica restarting on its *registered* address needs its old
        # port back (PROTOCOL.md §12; SO_REUSEADDR makes this safe)
        handler_class = type("BoundHandler", (_ServiceHTTPHandler,),
                             {"aware_handler": staticmethod(aware_handler)
                              if aware_handler else None,
                              "opaque_handler": staticmethod(opaque_handler)
                              if opaque_handler else None,
                              "metrics_registry": metrics,
                              "introspection": introspection})
        class _QuietServer(ThreadingHTTPServer):
            #: a pooled client warming its pool opens tens of
            #: connections in one burst; the stock backlog of 5 drops
            #: SYN-ACKs and each dropped one costs a ~1 s retransmit
            request_queue_size = 128

            def handle_error(self, request, client_address):
                # a client that timed out and hung up mid-response is
                # routine (per-request timeouts abandon slow requests);
                # everything else still gets the stock traceback
                import sys
                if isinstance(sys.exception(), ConnectionError):
                    return
                super().handle_error(request, client_address)

        self._server = _QuietServer(("127.0.0.1", port), handler_class)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)
        self._started = False
        self._stopped = False

    def start(self) -> str:
        self._thread.start()
        self._started = True
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/"

    def stop(self) -> None:
        """Stop the server.  Idempotent, and safe before :meth:`start`:
        ``shutdown()`` is only issued when ``serve_forever`` actually
        runs (it would otherwise block forever on its event)."""
        if self._stopped:
            return
        self._stopped = True
        if self._started:
            self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class HybridTransport:
    """Routes by address: ``http(s)://`` endpoints over HTTP, everything
    else through an in-process broker.

    This matches real deployments of the framework: some language
    processors run remotely (the paper's autonomous Web Services), others
    are co-located with the engine.
    """

    def __init__(self, serialize_messages: bool = True,
                 timeout: float = 10.0, max_per_endpoint: int = 32,
                 idle_timeout: float = 30.0) -> None:
        self.local = InProcessTransport(serialize_messages)
        self.http = PooledHttpTransport(
            timeout, max_per_endpoint=max_per_endpoint,
            idle_timeout=idle_timeout)

    def pool_stats(self) -> dict[str, dict]:
        """Per-origin connection counters of the HTTP side."""
        return self.http.pool_stats()

    def close(self) -> None:
        """Close the HTTP side's pooled connections."""
        self.http.close()

    @staticmethod
    def _is_http(address: str) -> bool:
        return address.startswith("http://") or address.startswith("https://")

    def dispatches_inline(self, address: str) -> bool:
        return not self._is_http(address)

    def bind(self, address: str, handler: AwareHandler) -> str:
        return self.local.bind(address, handler)

    def bind_opaque(self, address: str, handler: OpaqueHandler) -> str:
        return self.local.bind_opaque(address, handler)

    def send(self, address: str, message: Element,
             timeout: float | None = None) -> Element:
        if self._is_http(address):
            return self.http.send(address, message, timeout=timeout)
        return self.local.send(address, message, timeout=timeout)

    def fetch(self, address: str, query: str,
              timeout: float | None = None) -> str:
        if self._is_http(address):
            return self.http.fetch(address, query, timeout=timeout)
        return self.local.fetch(address, query, timeout=timeout)


class _NoResponse(ConnectionError):
    """The connection died before any byte of the response arrived."""


def _too_large(status: int) -> ServiceStatusError:
    return ServiceStatusError(
        status, f"HTTP {status} reply body over {MAX_BODY_BYTES} bytes")


def _read_chunked(reader, status: int) -> bytes:
    """A ``Transfer-Encoding: chunked`` body, refused as soon as its
    chunk sum passes ``MAX_BODY_BYTES``; trailer fields are dropped."""
    chunks, total = [], 0
    while True:
        size = int(reader.readline(_MAX_LINE + 1).split(b";", 1)[0], 16)
        if size < 0:
            raise ValueError(f"negative chunk size {size}")
        if size == 0:
            _read_head(reader)
            return b"".join(chunks)
        total += size
        if total > MAX_BODY_BYTES:
            raise _too_large(status)
        chunk = reader.read(size + 2)       # the data and its CRLF
        if len(chunk) < size + 2:
            raise ConnectionError("connection closed inside a chunk")
        chunks.append(chunk[:size])


class _PooledConnection:
    """One keep-alive socket, the one buffered reader its replies are
    read through for its whole life, and bookkeeping."""

    __slots__ = ("sock", "reader", "idle_since", "requests")

    def __init__(self) -> None:
        self.sock = self.reader = None
        self.idle_since = 0.0
        self.requests = 0

    def close(self) -> None:
        for part in (self.reader, self.sock):
            try:
                if part is not None:
                    part.close()
            except Exception:
                pass


class _EndpointPool:
    """Bounded keep-alive connections for one ``scheme://host:port``.

    * acquire is LIFO — the most recently released (warmest) connection
      is reused first, so the cold end of the idle deque ages out;
    * idle connections past ``idle_timeout`` are reaped at acquire;
    * at capacity, acquire blocks until a connection is released (or
      its wait budget runs out → :class:`TransportError`), so the pool
      bound is also a client-side concurrency bound per endpoint.
    """

    def __init__(self, host: str, port: int, max_size: int,
                 idle_timeout: float) -> None:
        self.host = host
        self.port = port
        self.max_size = max_size
        self.idle_timeout = idle_timeout
        self._idle: deque[_PooledConnection] = deque()
        self._in_use = 0
        self._lock = threading.Lock()
        self._released = threading.Condition(self._lock)
        self._closed = False
        # lifetime counters (PROTOCOL.md §11 observability)
        self.created = 0
        self.reused = 0
        self.retired = 0
        self.reaped = 0

    def _reap_locked(self, now: float) -> None:
        # the deque is LIFO, so the left end holds the longest-idle
        # connections; everything past the idle budget is dead weight
        while self._idle and now - self._idle[0].idle_since \
                > self.idle_timeout:
            self._idle.popleft().close()
            self.reaped += 1

    def acquire(self, wait_timeout: float | None,
                fresh: bool = False) -> tuple[_PooledConnection, bool]:
        """A connection and whether it was reused.  ``fresh`` skips the
        idle stack (the transparent-reconnect path must not pick up
        another possibly-stale socket)."""
        deadline = None if wait_timeout is None \
            else time.monotonic() + wait_timeout
        with self._released:
            while True:
                if self._closed:
                    raise TransportError("connection pool is closed")
                now = time.monotonic()
                self._reap_locked(now)
                if not fresh and self._idle:
                    pooled = self._idle.pop()
                    self._in_use += 1
                    self.reused += 1
                    return pooled, True
                if self._in_use + len(self._idle) < self.max_size:
                    self._in_use += 1
                    self.created += 1
                    return _PooledConnection(), False
                if fresh and self._idle:
                    # make room for the fresh socket by closing the
                    # coldest idle one (likely stale for the same
                    # reason the one being replaced was)
                    self._idle.popleft().close()
                    self.retired += 1
                    continue
                remaining = None if deadline is None \
                    else deadline - now
                if remaining is not None and remaining <= 0:
                    raise TransportError(
                        f"connection pool for {self.host}:{self.port} "
                        f"exhausted ({self.max_size} in use)")
                self._released.wait(0.05 if remaining is None
                                    else min(remaining, 0.05))

    def release(self, pooled: _PooledConnection, reusable: bool) -> None:
        with self._released:
            self._in_use -= 1
            if reusable and not self._closed:
                pooled.idle_since = time.monotonic()
                self._idle.append(pooled)
            else:
                pooled.close()
                self.retired += 1
            self._released.notify()

    def discard(self, pooled: _PooledConnection) -> None:
        """Retire a broken connection (stale socket, protocol error)."""
        self.release(pooled, reusable=False)

    def close(self) -> None:
        with self._released:
            self._closed = True
            while self._idle:
                self._idle.pop().close()
            self._released.notify_all()

    def stats(self) -> dict:
        with self._lock:
            return {"idle": len(self._idle), "in_use": self._in_use,
                    "created": self.created, "reused": self.reused,
                    "retired": self.retired, "reaped": self.reaped}


class PooledHttpTransport:
    """Reaches services over HTTP (POST for aware, GET for opaque) on
    per-origin keep-alive connection pools (PROTOCOL.md §11):

    * each origin keeps up to ``max_per_endpoint`` warm connections —
      a request costs one round-trip, not TCP setup plus a round-trip;
    * connections idle past ``idle_timeout`` seconds are reaped;
    * a send on a *reused* connection that dies before any response
      byte is transparently retried once on a fresh connection (the
      server closed the keep-alive socket between requests — routine,
      not a service failure).  Nothing else is retried here — fresh
      connections, timeouts, replies cut off after their first byte;
      they surface to the §6 resilience layer.
    """

    def __init__(self, timeout: float = 10.0, max_per_endpoint: int = 32,
                 idle_timeout: float = 30.0) -> None:
        if max_per_endpoint < 1:
            raise ValueError("max_per_endpoint must be >= 1")
        self.timeout = timeout
        self.max_per_endpoint = max_per_endpoint
        self.idle_timeout = idle_timeout
        self._pools: dict[tuple[str, int], _EndpointPool] = {}
        self._lock = threading.Lock()

    def dispatches_inline(self, address: str) -> bool:
        return False

    # -- pool management -----------------------------------------------------

    def _pool_for(self, host: str, port: int) -> _EndpointPool:
        key = (host, port)
        pool = self._pools.get(key)
        if pool is None:
            with self._lock:
                pool = self._pools.setdefault(
                    key, _EndpointPool(host, port, self.max_per_endpoint,
                                       self.idle_timeout))
        return pool

    def pool_stats(self) -> dict[str, dict]:
        """Per-origin connection counters (monitoring snapshot)."""
        with self._lock:
            pools = dict(self._pools)
        return {f"{host}:{port}": pool.stats()
                for (host, port), pool in pools.items()}

    def close(self) -> None:
        """Close every pooled connection; the transport stays usable
        (new pools are built on demand)."""
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()

    # -- the round-trip ------------------------------------------------------

    def _roundtrip(self, address: str, method: str, body: bytes | None,
                   timeout: float | None) -> tuple[int, str, bytes]:
        parts = urllib.parse.urlsplit(address)
        if parts.scheme not in ("http", "https"):
            raise TransportError(f"unsupported address {address!r}")
        origin = (parts.hostname or "",
                  parts.port or (443 if parts.scheme == "https" else 80))
        path = parts.path or "/"
        if parts.query:
            path = f"{path}?{parts.query}"
        head = f"{method} {path} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
        if body is not None:
            head += ("Content-Type: application/xml; charset=utf-8\r\n"
                     f"Content-Length: {len(body)}\r\n")
        request = (head + "\r\n").encode("ascii") + (body or b"")
        effective = self.timeout if timeout is None else timeout
        pool = self._pool_for(*origin)
        fresh = False
        while True:
            waited_from = time.monotonic()
            pooled, reused = pool.acquire(effective, fresh=fresh)
            # pool-acquisition wait is not network time: attribute it
            # separately so the critical path names the real bottleneck
            # (an exhausted pool vs. a slow service) — PROTOCOL.md §14
            record_wait("pool_wait", time.monotonic() - waited_from)
            try:
                status, reason, payload, reusable = self._once(
                    pooled, origin, request, effective)
            except ServiceStatusError:
                pool.discard(pooled)    # a refused reply, left unread
                raise
            except (OSError, ValueError) as exc:
                pool.discard(pooled)
                if reused and isinstance(exc, _NoResponse):
                    # stale keep-alive socket: the server hung up while
                    # the connection sat idle — one reconnect, max (a
                    # fresh acquire never returns a reused connection)
                    fresh = True
                    continue
                raise TransportError(
                    f"cannot reach {address!r}: {exc}") from exc
            pooled.requests += 1
            # a fully-read response leaves the connection clean
            pool.release(pooled, reusable=reusable)
            return status, reason, payload

    @staticmethod
    def _once(pooled: _PooledConnection, origin: tuple[str, int],
              request: bytes, timeout: float | None
              ) -> tuple[int, str, bytes, bool]:
        """Write one request, read its reply: ``(status, reason, body,
        reusable)``.  :class:`_NoResponse` when the socket dies before
        the reply's first byte."""
        if pooled.sock is None:
            sock = socket.create_connection(origin, timeout)
            # a request leaves in one write, but Nagle would still hold
            # back the last segment of one longer than a segment until
            # the server's delayed ACK (~40 ms)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            pooled.sock, pooled.reader = sock, sock.makefile("rb")
        else:
            # per-request budget, also overwriting whatever timeout the
            # previous request left on this reused socket
            pooled.sock.settimeout(timeout)
        reader = pooled.reader
        try:
            pooled.sock.sendall(request)    # line, headers, body: one write
            line = reader.readline(_MAX_LINE + 1)
        except TimeoutError:
            raise
        except OSError as exc:
            raise _NoResponse(str(exc)) from exc
        if not line:
            raise _NoResponse("connection closed before any response byte")
        while True:
            version, code, *reason = line.decode("iso-8859-1").split(None, 2)
            status = int(code)
            if not version.startswith("HTTP/") or not 100 <= status <= 999:
                raise ValueError(f"bad status line {line[:64]!r}")
            head = _read_head(reader)
            if status != 100:           # an interim answer: skip it
                break
            line = reader.readline(_MAX_LINE + 1)
        reason = reason[0].strip() if reason else ""
        connection = head.get("connection", "").lower()
        if version in ("HTTP/1.0", "HTTP/0.9"):
            will_close = "keep-alive" not in connection \
                and "keep-alive" not in head
        else:
            will_close = "close" in connection
        if head.get("transfer-encoding", "").lower() == "chunked":
            body = _read_chunked(reader, status)
        elif status in (204, 304):
            body = b""
        elif "content-length" in head:
            length = int(head["content-length"])
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
            if length > MAX_BODY_BYTES:
                raise _too_large(status)
            body = reader.read(length)
            if len(body) < length:
                raise ConnectionError("connection closed inside the body")
        else:
            # delimited by the server closing the connection
            body, will_close = reader.read(MAX_BODY_BYTES + 1), True
            if len(body) > MAX_BODY_BYTES:
                raise _too_large(status)
        return status, reason, body, not will_close

    def send(self, address: str, message: Element,
             timeout: float | None = None) -> Element:
        body = serialize(message).encode("utf-8")
        status, reason, payload = self._roundtrip(address, "POST", body,
                                                  timeout)
        if not 200 <= status < 300:
            _raise_for_status(address, status, reason,
                              payload.decode("utf-8", "replace"))
        return parse(payload.decode("utf-8"))

    def fetch(self, address: str, query: str,
              timeout: float | None = None) -> str:
        url = f"{address}?{urllib.parse.urlencode({'query': query})}"
        status, reason, payload = self._roundtrip(url, "GET", None, timeout)
        if not 200 <= status < 300:
            _raise_for_status(address, status, reason,
                              payload.decode("utf-8", "replace"))
        return payload.decode("utf-8")
