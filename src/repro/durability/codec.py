"""Compact journal encodings for detections, dead letters, bindings and
tuple keys.

The journal sits on the engine's hot path (several records per
detection), so the hot record kinds are encoded straight to JSON *text*
instead of round-tripping through ``log:detection`` markup or generic
``json.dumps`` over nested dicts — profiling puts the XML build+
serialize at ~30us per detection and generic dumps at several more,
against a total journaling budget of ~15us.  String escaping uses the
C ``encode_basestring_ascii`` from the stdlib ``json`` package; only
*values* that really are XML (``Element`` bindings, triggering-event
payloads) pay for serialization.

The value encoding mirrors the ``log:variable`` type tags
(``bindings/markup.py``) so a journaled value decodes to the same
Python type it had in the engine — which is what keeps idempotency
keys stable across crash-replay.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _esc

from ..bindings import Binding, Relation
from ..bindings.values import Uri
from ..grh.component import ComponentSpec
from ..grh.messages import Detection
from ..grh.resilience import DeadLetter
from ..xmlmodel import Element, parse, serialize

__all__ = ["encode_detection", "decode_detection", "encode_letter",
           "decode_letter", "tuple_key"]


def _encode_value(value) -> tuple[str, str]:
    """(type tag, text) for one binding value; inverse of _decode_value."""
    if isinstance(value, Element):
        return "x", serialize(value)
    if isinstance(value, bool):
        return "b", "true" if value else "false"
    if isinstance(value, Uri):
        return "u", str(value)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and value.is_integer():
            return "n", str(int(value))
        return "n", str(value)
    return "s", str(value)


def _decode_value(tag: str, text: str):
    if tag == "s":
        return text
    if tag == "x":
        return parse(text)
    if tag == "n":
        try:
            return int(text)
        except ValueError:
            return float(text)
    if tag == "b":
        return text == "true"
    if tag == "u":
        return Uri(text)
    raise ValueError(f"unknown value tag {tag!r}")


def _encode_rows(parts: list, relation) -> None:
    """Append the JSON array of *relation*'s tuples to *parts*."""
    parts.append("[")
    first_row = True
    for binding in relation:
        # Binding inherits the generic Mapping.items() (one Python
        # __getitem__ per entry); its backing dict iterates at C speed
        row = binding._data if isinstance(binding, Binding) else binding
        parts.append("[" if first_row else ",[")
        first_row = False
        first = True
        for name, value in row.items():
            tag, text = ("s", value) if type(value) is str \
                else _encode_value(value)
            parts.append("[" if first else ",[")
            first = False
            parts.append(_esc(name))
            parts.append(',"')
            parts.append(tag)
            parts.append('",')
            parts.append(_esc(text))
            parts.append("]")
        parts.append("]")
    parts.append("]")


def _decode_rows(rows) -> Relation:
    return Relation([Binding({name: _decode_value(tag, text)
                              for name, tag, text in row})
                     for row in rows])


def encode_detection(detection: Detection) -> str:
    """The JSON text of one detection, for embedding in a ``det`` record.

    Hand-assembled (C-escaped strings, direct concatenation): this runs
    once per detection on the happy path.
    """
    parts = ['{"c":', _esc(detection.component_id),
             ',"s":', repr(float(detection.start)),
             ',"e":', repr(float(detection.end)),
             ',"id":',
             "null" if detection.detection_id is None
             else _esc(detection.detection_id),
             ',"b":']
    _encode_rows(parts, detection.bindings)
    parts.append(',"ev":[')
    parts.append(",".join(_esc(serialize(payload))
                          for payload in detection.events))
    parts.append("]}")
    return "".join(parts)


def decode_detection(data: dict | str) -> Detection:
    """Inverse of :func:`encode_detection`.

    Accepts the parsed object (a journal record read by ``json.loads``)
    or the raw JSON text (a live in-flight entry, or one restored from
    a checkpoint, where the encoded form is kept as-is).
    """
    if isinstance(data, str):
        data = json.loads(data)
    events = tuple(parse(payload) for payload in data["ev"])
    return Detection(data["c"], data["s"], data["e"],
                     _decode_rows(data["b"]), events,
                     detection_id=data["id"])


def encode_letter(letter: DeadLetter) -> str:
    """The JSON text of one dead letter, for a ``park`` record or the
    checkpoint's ``dlq`` (its ``seq`` travels beside it): a detection
    letter's detection as :func:`encode_detection` writes it; an action
    letter's component, unexecuted tuples and their ``dedup`` keys."""
    parts = ['{"k":"', letter.kind, '","e":', _esc(letter.error),
             ',"a":', str(letter.attempts)]
    if letter.detection is not None:
        parts += [',"d":', encode_detection(letter.detection)]
    spec = letter.spec
    if spec is not None:
        opaque = spec.opaque is not None
        parts += [',"c":', _esc(letter.component_id),
                  ',"l":', _esc(spec.language), ',"o":' if opaque else ',"x":',
                  _esc(spec.opaque if opaque else serialize(spec.content)),
                  ',"dd":', json.dumps(letter.dedups), ',"b":']
        _encode_rows(parts, letter.bindings)
    parts.append("}")
    return "".join(parts)


def decode_letter(data: dict | str, seq: int) -> DeadLetter:
    """Inverse of :func:`encode_letter` (parsed object or JSON text);
    ``enqueued_at`` is process-local and restores as 0.0."""
    if isinstance(data, str):
        data = json.loads(data)
    letter = DeadLetter(data["k"], data["e"], attempts=data["a"], seq=seq)
    if "d" in data:
        letter.detection = decode_detection(data["d"])
    if "l" in data:
        letter.component_id = data["c"]
        letter.spec = ComponentSpec(
            "action", data["l"], opaque=data.get("o"),
            content=parse(data["x"]) if "x" in data else None)
        letter.bindings = _decode_rows(data["b"])
        letter.dedups = None if data["dd"] is None else tuple(data["dd"])
    return letter


def tuple_key(binding: Binding) -> str:
    """A canonical digest of one binding tuple.

    Variables are sorted and values type-tagged exactly as in the
    journal encoding, so a binding decoded from a ``det`` record on
    replay maps to the same key as the live binding did before the
    crash.
    """
    data = binding._data if isinstance(binding, Binding) else binding
    parts = []
    for name, value in sorted(data.items()):
        if type(value) is str:
            parts.append(name + "\x00s\x00" + value)
        else:
            tag, text = _encode_value(value)
            parts.append(name + "\x00" + tag + "\x00" + text)
    return hashlib.sha1(
        "\x01".join(parts).encode("utf-8")).hexdigest()[:20]
