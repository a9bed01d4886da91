"""The request/answer message vocabulary of the framework.

All communication between the ECA engine, the Generic Request Handler and
the component-language services is XML (Figs. 5–9).  Four message kinds:

* ``log:request`` — engine → service: register/unregister an event
  component, evaluate a query, execute an action.  Carries the component
  content and the relevant input variable bindings — the whole input
  relation in one request, whatever the kind.
* ``log:answers`` — service → engine: tuples of variable bindings
  (defined in :mod:`repro.bindings.markup`).
* ``log:detection`` — event service → engine: an event component matched;
  carries the component id, the occurrence interval and the bindings.
* ``log:ok`` / ``log:error`` — acknowledgements.  The ``log:error`` of an
  action request says how many tuples ran before the one that failed
  (``executed``, PROTOCOL.md §7).

Messages are plain elements; transports serialize them (the in-process
broker can optionally skip serialization, the HTTP transport cannot —
DESIGN.md §5 requires identical bytes either way, which the tests check
via canonicalization).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bindings import (ANSWER, MarkupError, Relation, answer_to_binding,
                        answers_to_relation, relation_to_answers)
from ..xmlmodel import Element, LOG_NS, QName, Text
from ..xmlmodel.nodes import trusted_element

__all__ = ["Request", "Detection", "request_to_xml", "xml_to_request",
           "detection_to_xml", "xml_to_detection", "ok_message",
           "error_message", "is_error", "error_text", "error_executed",
           "dead_letter_to_xml", "MessageError", "REQUEST_KINDS",
           "batch_to_xml", "xml_to_batch", "is_batch",
           "batch_results_to_xml", "xml_to_batch_results"]

REQUEST_KINDS = ("register-event", "unregister-event", "query", "action",
                 "test")

_REQUEST = QName(LOG_NS, "request")
_COMPONENT = QName(LOG_NS, "component")
_ANSWERS = QName(LOG_NS, "answers")
_DETECTION = QName(LOG_NS, "detection")
_EVENTS = QName(LOG_NS, "events")
_OK = QName(LOG_NS, "ok")
_ERROR = QName(LOG_NS, "error")
_DEADLETTER = QName(LOG_NS, "deadletter")
_BATCH = QName(LOG_NS, "batch")
_BATCHRESULTS = QName(LOG_NS, "batchresults")
_RESULT = QName(LOG_NS, "result")
_DEDUP = QName(None, "dedup")
_EXECUTED = QName(None, "executed")
_KIND = QName(None, "kind")
_ID = QName(None, "id")
_TRACEPARENT = QName(None, "traceparent")
_START = QName(None, "start")
_END = QName(None, "end")
_DETECTION_ID = QName(None, "detection-id")
_ATTEMPTS = QName(None, "attempts")
_N = QName(None, "n")


class MessageError(ValueError):
    """Raised on malformed protocol messages."""


@dataclass(frozen=True)
class Request:
    """One request from the engine/GRH to a component service.

    ``dedups`` holds the optional idempotency keys of an action request,
    one per tuple of ``bindings`` in relation order (the ``dedup``
    attribute of each ``log:answer`` on the wire; ``None`` for a tuple
    without a key, ``None`` altogether when no tuple has one).  A durable
    engine stamps them.  A service that honours them skips, tuple by
    tuple, a key it has already completed, closing the last crash-replay
    ambiguity window (PROTOCOL.md §7); services that ignore them degrade
    to at-least-once for that one window.

    ``traceparent`` is the optional trace-context of the GRH request
    span that issued this request (the ``traceparent`` attribute on the
    wire, PROTOCOL.md §8).  A service that understands it annotates its
    response with a ``log:spans`` element so its server-side spans
    stitch into the originating rule instance's trace; services that
    ignore it lose nothing — the attribute is advisory.
    """

    kind: str
    component_id: str
    content: Element | None
    bindings: Relation
    dedups: tuple[str | None, ...] | None = None
    traceparent: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise MessageError(f"unknown request kind {self.kind!r}")
        if self.dedups is not None \
                and len(self.dedups) != len(self.bindings):
            raise MessageError(
                f"{len(self.dedups)} idempotency keys for "
                f"{len(self.bindings)} tuples")


@dataclass(frozen=True)
class Detection:
    """An event-component detection signalled back to the engine.

    Besides the bindings, the message carries "the event sequence that
    matched the pattern" (Fig. 6 (1)) as the constituent payloads.

    ``detection_id`` is a service-assigned, per-service-monotonic
    identifier carried on the wire (the ``detection-id`` attribute).  A
    durable engine uses it to deduplicate at-least-once redelivery; an
    engine without durability ignores it.  ``None`` means the service
    did not stamp one (the engine assigns a local id if it needs one).
    """

    component_id: str
    start: float
    end: float
    bindings: Relation
    events: tuple[Element, ...] = ()
    detection_id: str | None = None


def request_to_xml(request: Request) -> Element:
    attributes = {_KIND: request.kind, _ID: request.component_id}
    if request.traceparent is not None:
        attributes[_TRACEPARENT] = request.traceparent
    children = []
    if request.content is not None:
        children.append(trusted_element(_COMPONENT, {}, {},
                                        [request.content.copy()]))
    answers = relation_to_answers(request.bindings)
    if request.dedups is not None:
        for answer, key in zip(answers.children, request.dedups):
            if key is not None:
                answer.attributes[_DEDUP] = key
    children.append(answers)
    return trusted_element(_REQUEST, attributes, {"log": LOG_NS}, children)


def _keyed_relation(answers: Element) -> tuple[Relation, tuple | None]:
    """The tuples of an action request with the key each one carries.

    A relation drops repeated tuples, so the keys are paired with the
    tuples while parsing (the first occurrence's key stands) and not by
    position afterwards."""
    keyed = {}
    for answer in answers.children:
        if isinstance(answer, Element) and answer.name == ANSWER:
            keyed.setdefault(answer_to_binding(answer),
                             answer.attributes.get(_DEDUP))
    dedups = tuple(keyed.values())
    if all(key is None for key in dedups):
        dedups = None
    return Relation(keyed), dedups


def _first_children(element: Element, first: QName,
                    second: QName) -> tuple[Element | None, Element | None]:
    """``(element.find(first), element.find(second))`` in one walk."""
    found_first = found_second = None
    for child in element.children:
        if isinstance(child, Element):
            name = child.name
            if found_first is None and name == first:
                found_first = child
            elif found_second is None and name == second:
                found_second = child
    return found_first, found_second


def xml_to_request(element: Element) -> Request:
    if element.name != _REQUEST:
        raise MessageError(f"expected log:request, got {element.name.clark}")
    attributes = element.attributes
    kind = attributes.get(_KIND)
    component_id = attributes.get(_ID)
    if not kind or not component_id:
        raise MessageError("log:request needs kind and id attributes")
    wrapper, answers = _first_children(element, _COMPONENT, _ANSWERS)
    content = None
    if wrapper is not None:
        inner = list(wrapper.elements())
        if len(inner) != 1:
            raise MessageError("log:component must hold exactly one element")
        # A copy, not a detach: over an unserialized transport, a retry or
        # a hedge, this is the caller's own tree and is read again.
        content = inner[0].copy()
    try:
        dedups = None
        if answers is None:
            bindings = Relation.unit()
        elif kind == "action":
            bindings, dedups = _keyed_relation(answers)
        else:
            bindings = answers_to_relation(answers)
        return Request(kind, component_id, content, bindings, dedups=dedups,
                       traceparent=attributes.get(_TRACEPARENT))
    except MarkupError as exc:
        raise MessageError(str(exc)) from exc


def detection_to_xml(detection: Detection) -> Element:
    attributes = {_ID: detection.component_id,
                  _START: _number(detection.start),
                  _END: _number(detection.end)}
    if detection.detection_id is not None:
        attributes[_DETECTION_ID] = detection.detection_id
    children = [relation_to_answers(detection.bindings)]
    if detection.events:
        children.append(trusted_element(
            _EVENTS, {}, {}, [payload.copy() for payload in detection.events]))
    return trusted_element(_DETECTION, attributes, {"log": LOG_NS}, children)


def xml_to_detection(element: Element) -> Detection:
    if element.name != _DETECTION:
        raise MessageError(
            f"expected log:detection, got {element.name.clark}")
    attributes = element.attributes
    component_id = attributes.get(_ID)
    if not component_id:
        raise MessageError("log:detection needs an id attribute")
    answers, events_wrapper = _first_children(element, _ANSWERS, _EVENTS)
    if answers is None:
        raise MessageError("log:detection needs log:answers content")
    try:
        bindings = answers_to_relation(answers)
    except MarkupError as exc:
        raise MessageError(str(exc)) from exc
    try:
        start = float(attributes.get(_START, "0"))
        end = float(attributes.get(_END, "0"))
    except ValueError as exc:
        raise MessageError("invalid detection interval") from exc
    events: tuple[Element, ...] = ()
    if events_wrapper is not None:
        events = tuple(child.copy() for child in events_wrapper.elements())
    return Detection(component_id, start, end, bindings, events,
                     detection_id=attributes.get(_DETECTION_ID))


def _number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def ok_message() -> Element:
    return trusted_element(_OK, {}, {"log": LOG_NS}, [])


def error_message(text: str, executed: int | None = None) -> Element:
    """``log:error``; ``executed`` is set by action requests only: the
    number of tuples, counted from the front of the request's relation,
    that ran before the one that failed."""
    attributes = {} if executed is None else {_EXECUTED: str(executed)}
    return trusted_element(_ERROR, attributes, {"log": LOG_NS}, [Text(text)])


def dead_letter_to_xml(kind: str, error: str, attempts: int,
                       payload: Element | None = None) -> Element:
    """``log:deadletter`` — a failed unit of work parked for replay.

    ``payload`` is the original ``log:detection`` (failed instance) or
    ``log:request`` (the unexecuted suffix of a failed action request,
    each ``log:answer`` still under its ``dedup`` key), so a dead letter is
    self-contained: archiving it preserves everything needed to replay.
    """
    children = [trusted_element(_ERROR, {}, {}, [Text(error)])]
    if payload is not None:
        children.append(payload.copy())
    return trusted_element(_DEADLETTER,
                           {_KIND: kind, _ATTEMPTS: str(attempts)},
                           {"log": LOG_NS}, children)


def is_error(element: Element) -> bool:
    return element.name == _ERROR


def error_text(element: Element) -> str:
    return element.text()


def error_executed(element: Element) -> int | None:
    """The ``executed`` count of a ``log:error`` (``None`` when absent)."""
    text = element.attributes.get(_EXECUTED)
    if text is None:
        return None
    if not (text.isascii() and text.isdigit()):
        raise MessageError(f"invalid log:error executed count {text!r}")
    return int(text)


# -- batch envelopes (PROTOCOL.md §10) ---------------------------------------
#
# ``log:batch`` coalesces several independent ``log:request`` envelopes
# from concurrent rule instances into one transport round-trip; the
# service answers with ``log:batchresults`` holding one ``log:result``
# wrapper per request, **in request order**.  A child that failed is a
# ``log:error`` inside its wrapper — the failure is scoped to that one
# request, never to the whole batch.  Both sides validate the ``n``
# attribute against the actual child count so a truncated envelope is a
# protocol error, not a silently shorter batch.


def batch_to_xml(requests: list[Element]) -> Element:
    """Wrap ``log:request`` elements into one ``log:batch`` envelope."""
    element = trusted_element(_BATCH, {_N: str(len(requests))},
                              {"log": LOG_NS}, [])
    # the requests are the caller's trees, not ours: `append` checks them
    for request in requests:
        element.append(request)
    return element


def is_batch(element: Element) -> bool:
    return element.name == _BATCH


def xml_to_batch(element: Element) -> list[Element]:
    """Unwrap a ``log:batch`` into its ``log:request`` children."""
    if element.name != _BATCH:
        raise MessageError(f"expected log:batch, got {element.name.clark}")
    children = list(element.elements())
    try:
        declared = int(element.attributes.get(_N, ""))
    except ValueError as exc:
        raise MessageError("log:batch needs an integer n attribute") from exc
    if declared != len(children):
        raise MessageError(
            f"log:batch declares n={declared} but holds "
            f"{len(children)} requests")
    for child in children:
        if child.name != _REQUEST:
            raise MessageError(
                f"log:batch may only hold log:request children, "
                f"got {child.name.clark}")
    return children


def batch_results_to_xml(results: list[Element]) -> Element:
    """Wrap per-request responses into one ``log:batchresults``.

    Each response (``log:answers``, ``log:ok`` or ``log:error``) rides
    in its own ``log:result`` wrapper at the position of the request it
    answers.
    """
    wrappers = []
    for result in results:
        wrapper = trusted_element(_RESULT, {}, {}, [])
        # a handler's response is its tree, not ours: `append` checks it
        wrapper.append(result)
        wrappers.append(wrapper)
    return trusted_element(_BATCHRESULTS, {_N: str(len(results))},
                           {"log": LOG_NS}, wrappers)


def xml_to_batch_results(element: Element,
                         expected: int | None = None) -> list[Element]:
    """Unwrap ``log:batchresults`` into per-request response elements.

    With *expected*, the count is validated against the number of
    requests the caller sent — a short or long answer is a protocol
    error (fan-back must stay positional).
    """
    if element.name != _BATCHRESULTS:
        raise MessageError(
            f"expected log:batchresults, got {element.name.clark}")
    wrappers = list(element.elements())
    try:
        declared = int(element.attributes.get(_N, ""))
    except ValueError as exc:
        raise MessageError(
            "log:batchresults needs an integer n attribute") from exc
    if declared != len(wrappers):
        raise MessageError(
            f"log:batchresults declares n={declared} but holds "
            f"{len(wrappers)} results")
    if expected is not None and declared != expected:
        raise MessageError(
            f"log:batchresults answers {declared} requests, "
            f"expected {expected}")
    results = []
    for wrapper in wrappers:
        if wrapper.name != _RESULT:
            raise MessageError(
                f"log:batchresults may only hold log:result children, "
                f"got {wrapper.name.clark}")
        inner = list(wrapper.elements())
        if len(inner) != 1:
            raise MessageError(
                "log:result must hold exactly one response element")
        results.append(inner[0])
    return results
