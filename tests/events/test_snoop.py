"""SNOOP composite event detection: operators, contexts, variables."""

import pytest

from repro.events import (And, Any, Aperiodic, Atomic, AtomicPattern,
                          EventStream, Not, Or, Periodic, Seq, SnoopError)
from repro.xmlmodel import E, parse


def atom(markup):
    return Atomic(AtomicPattern(parse(markup)))


def feed_sequence(detector, payloads, spacing=1.0):
    """Emit payloads through a stream; collect detections in order."""
    stream = EventStream()
    detections = []
    stream.subscribe(lambda event: detections.extend(detector.feed(event)))
    stream.emit_all(payloads, spacing=spacing)
    return detections


A = '<a k="{K}"/>'
B = '<b k="{K}"/>'
C = "<c/>"


class TestBasicOperators:
    def test_or_detects_either(self):
        detector = Or([atom("<a/>"), atom("<b/>")])
        detections = feed_sequence(detector, [E("a"), E("c"), E("b")])
        assert len(detections) == 2

    def test_and_any_order(self):
        detections = feed_sequence(And(atom("<a/>"), atom("<b/>")),
                                   [E("b"), E("a")])
        assert len(detections) == 1
        assert detections[0].start == 0.0 and detections[0].end == 1.0

    def test_seq_requires_order(self):
        detector = Seq(atom("<a/>"), atom("<b/>"))
        assert len(feed_sequence(detector, [E("a"), E("b")])) == 1
        detector.reset()
        assert len(feed_sequence(detector, [E("b"), E("a")])) == 0

    def test_seq_three_stage(self):
        detector = Seq(Seq(atom("<a/>"), atom("<b/>")), atom("<c/>"))
        detections = feed_sequence(detector, [E("a"), E("b"), E("c")])
        assert len(detections) == 1
        assert [e.name.local for e in detections[0].constituents] == \
            ["a", "b", "c"]

    def test_any_two_of_three(self):
        detector = Any(2, [atom("<a/>"), atom("<b/>"), atom("<c/>")])
        detections = feed_sequence(detector, [E("a"), E("c")])
        assert len(detections) == 1
        names = {e.name.local for e in detections[0].constituents}
        assert names == {"a", "c"}

    def test_any_same_event_type_insufficient(self):
        detector = Any(2, [atom("<a/>"), atom("<b/>")])
        assert len(feed_sequence(detector, [E("a"), E("a")])) == 0

    def test_any_m_validation(self):
        with pytest.raises(SnoopError):
            Any(3, [atom("<a/>")])

    def test_not_detects_absence(self):
        detector = Not(atom("<a/>"), atom("<b/>"), atom("<c/>"))
        assert len(feed_sequence(detector, [E("a"), E("c")])) == 1

    def test_not_suppressed_by_forbidden(self):
        detector = Not(atom("<a/>"), atom("<b/>"), atom("<c/>"))
        assert len(feed_sequence(detector, [E("a"), E("b"), E("c")])) == 0

    def test_aperiodic_signals_each_inner_event(self):
        detector = Aperiodic(atom("<a/>"), atom("<b/>"), atom("<c/>"))
        detections = feed_sequence(
            detector, [E("a"), E("b"), E("b"), E("c"), E("b")])
        assert len(detections) == 2  # the two b's inside the a..c window

    def test_periodic_fires_on_clock(self):
        detector = Periodic(atom("<a/>"), 2.0, atom("<c/>"))
        stream = EventStream()
        detections = []
        stream.subscribe(lambda ev: detections.extend(detector.feed(ev)))
        stream.emit(E("a"))            # t=0, next fire at 2
        stream.advance(5.0)
        stream.emit(E("x"))            # t=5 → fires for t=2 and t=4
        assert len(detections) == 2
        stream.emit(E("c"))            # closes the window
        stream.advance(10.0)
        stream.emit(E("x"))
        assert len(detections) == 2

    def test_periodic_requires_positive_period(self):
        with pytest.raises(SnoopError):
            Periodic(atom("<a/>"), 0, atom("<c/>"))


class TestVariables:
    def test_join_variable_across_events(self):
        # K must be equal in both constituent events
        detector = Seq(atom(A), atom(B))
        detections = feed_sequence(
            detector, [E("a", {"k": "1"}), E("b", {"k": "2"}),
                       E("b", {"k": "1"})])
        assert len(detections) == 1
        (binding,) = detections[0].bindings
        assert binding["K"] == "1"

    def test_disjoint_variables_union(self):
        detector = And(atom('<a x="{X}"/>'), atom('<b y="{Y}"/>'))
        detections = feed_sequence(
            detector, [E("a", {"x": "1"}), E("b", {"y": "2"})])
        (binding,) = detections[0].bindings
        assert dict(binding) == {"X": "1", "Y": "2"}

    def test_variables_listing(self):
        detector = Seq(atom(A), Or([atom(B), atom(C)]))
        assert detector.variables() == {"K"}


class TestParameterContexts:
    def setup_method(self):
        self.payloads = [E("a", {"n": "1"}), E("a", {"n": "2"}), E("b"),
                         E("b")]

    def run(self, context):
        detector = Seq(Atomic(AtomicPattern(parse('<a n="{N}"/>'))),
                       atom("<b/>"), context)
        return feed_sequence(detector, self.payloads)

    def test_unrestricted_all_pairs(self):
        detections = self.run("unrestricted")
        assert len(detections) == 4  # both a's × both b's

    def test_recent_keeps_latest_initiator(self):
        detections = self.run("recent")
        assert len(detections) == 2
        values = [b["N"] for d in detections for b in d.bindings]
        assert values == ["2", "2"]

    def test_chronicle_fifo(self):
        detections = self.run("chronicle")
        assert len(detections) == 2
        values = [b["N"] for d in detections for b in d.bindings]
        assert values == ["1", "2"]

    def test_continuous_consumes_all_on_use(self):
        detections = self.run("continuous")
        # first b consumes both initiators; second b finds none
        assert len(detections) == 2
        values = sorted(b["N"] for d in detections for b in d.bindings)
        assert values == ["1", "2"]

    def test_cumulative_merges_initiators(self):
        detections = self.run("cumulative")
        assert len(detections) == 1
        values = sorted(b["N"] for b in detections[0].bindings)
        assert values == ["1", "2"]
        assert len(detections[0].constituents) == 3  # a, a, b

    def test_unknown_context_rejected(self):
        with pytest.raises(SnoopError, match="unknown parameter context"):
            Seq(atom("<a/>"), atom("<b/>"), "bogus")


class TestReset:
    def test_reset_clears_partial_state(self):
        detector = Seq(atom("<a/>"), atom("<b/>"))
        feed_sequence(detector, [E("a")])
        detector.reset()
        assert feed_sequence(detector, [E("b")]) == []
