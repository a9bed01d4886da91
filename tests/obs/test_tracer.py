"""The tracing core: spans, tracers, exporters, traceparent, markup."""

import json
import threading

import pytest

from repro.obs import (JsonlExporter, NOOP_TRACER, NoopSpan,
                       RingBufferExporter, Tracer, format_traceparent,
                       parse_traceparent, record_wait, render_trace,
                       span_to_dict, spans_to_xml, xml_to_span_dicts)
from repro.xmlmodel import parse, serialize


class TestSpanLifecycle:
    def test_begin_finish_records_timing(self):
        ticks = iter([1.0, 3.5])
        tracer = Tracer(clock=lambda: next(ticks))
        span = tracer.begin("work")
        tracer.finish(span)
        assert span.started_at == 1.0
        assert span.ended_at == 3.5
        assert span.duration == 2.5
        assert span.status == "ok"

    def test_finish_status_override(self):
        tracer = Tracer()
        span = tracer.begin("work")
        tracer.finish(span, status="error")
        assert span.status == "error"

    def test_attributes(self):
        tracer = Tracer()
        span = tracer.begin("work", {"a": 1})
        span.set_attribute("b", 2)
        tracer.finish(span)
        assert span.attributes == {"a": 1, "b": 2}

    def test_ids_are_well_formed_and_unique(self):
        tracer = Tracer()
        spans = [tracer.begin("s", parent=None) for _ in range(100)]
        trace_ids = {span.trace_id for span in spans}
        span_ids = {span.span_id for span in spans}
        assert len(trace_ids) == 100 and len(span_ids) == 100
        for span in spans:
            assert len(span.trace_id) == 32
            assert len(span.span_id) == 16
            int(span.trace_id, 16), int(span.span_id, 16)
        for span in reversed(spans):
            tracer.finish(span)


class TestAncestry:
    def test_children_inherit_trace_and_parent(self):
        tracer = Tracer()
        root = tracer.begin("root", parent=None)
        child = tracer.begin("child")
        grandchild = tracer.begin("grandchild")
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        tracer.finish(grandchild)
        tracer.finish(child)
        tracer.finish(root)

    def test_finish_restores_predecessor(self):
        tracer = Tracer()
        root = tracer.begin("root", parent=None)
        child = tracer.begin("child")
        assert tracer.current() is child
        tracer.finish(child)
        assert tracer.current() is root
        tracer.finish(root)
        assert tracer.current() is None

    def test_explicit_none_parent_forces_new_trace(self):
        tracer = Tracer()
        first = tracer.begin("a", parent=None)
        second = tracer.begin("b", parent=None)
        assert second.trace_id != first.trace_id
        assert second.parent_id is None
        tracer.finish(second)
        assert tracer.current() is first
        tracer.finish(first)

    def test_current_span_is_thread_local(self):
        tracer = Tracer()
        main_root = tracer.begin("main", parent=None)
        seen = {}

        def worker():
            # the other thread does not inherit this thread's ancestry
            seen["before"] = tracer.current()
            span = tracer.begin("worker")
            seen["trace"] = span.trace_id
            tracer.finish(span)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["before"] is None
        assert seen["trace"] != main_root.trace_id
        tracer.finish(main_root)


class TestTraceparent:
    def test_round_trip(self):
        trace_id, span_id = "ab" * 16, "cd" * 8
        value = format_traceparent(trace_id, span_id)
        assert value == f"00-{'ab' * 16}-{'cd' * 8}-01"
        assert parse_traceparent(value) == (trace_id, span_id)

    def test_span_property_round_trips(self):
        tracer = Tracer()
        span = tracer.begin("s")
        assert parse_traceparent(span.traceparent) == \
            (span.trace_id, span.span_id)
        tracer.finish(span)

    def test_malformed_values_yield_none(self):
        for bad in (None, "", "xx", "00-short-cd-01",
                    "00-" + "g" * 32 + "-" + "cd" * 8 + "-01",
                    "00-" + "ab" * 16 + "-" + "zz" * 8 + "-01",
                    "ab" * 16):
            assert parse_traceparent(bad) is None


class TestAdoption:
    def test_adopt_anchors_remote_span_locally(self):
        ticks = iter([100.0])
        tracer = Tracer(clock=lambda: next(ticks))
        span = tracer.adopt({"trace": "ab" * 16, "id": "cd" * 8,
                             "parent": "ef" * 8, "name": "service:query",
                             "duration": 0.25, "status": "ok",
                             "attributes": {"service": "xq"}})
        assert span.remote is True
        assert span.started_at == 99.75 and span.ended_at == 100.0
        assert span.duration == 0.25
        assert span.parent_id == "ef" * 8

    def test_adopt_rejects_malformed(self):
        tracer = Tracer()
        assert tracer.adopt({"id": "x"}) is None
        assert tracer.adopt({"trace": "t", "id": "i", "name": "n",
                             "duration": "not-a-number"}) is None


class TestExporters:
    def test_ring_buffer_keeps_last_n(self):
        ring = RingBufferExporter(capacity=3)
        tracer = Tracer([ring])
        for index in range(5):
            tracer.finish(tracer.begin(f"s{index}", parent=None))
        assert [span.name for span in ring.spans()] == ["s2", "s3", "s4"]
        assert len(ring) == 3

    def test_ring_buffer_trace_lookup(self):
        ring = RingBufferExporter()
        tracer = Tracer([ring])
        root = tracer.begin("root", parent=None)
        tracer.finish(tracer.begin("child"))
        tracer.finish(root)
        other = tracer.begin("other", parent=None)
        tracer.finish(other)
        assert [span.name for span in ring.trace(root.trace_id)] == \
            ["child", "root"]
        assert ring.trace_ids() == [root.trace_id, other.trace_id]

    def test_jsonl_exporter_writes_one_line_per_span(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        exporter = JsonlExporter(path)
        tracer = Tracer([exporter])
        span = tracer.begin("work", {"k": "v"}, parent=None)
        tracer.finish(span)
        exporter.close()
        (line,) = open(path).read().splitlines()
        record = json.loads(line)
        assert record["name"] == "work"
        assert record["trace"] == span.trace_id
        assert record["attributes"] == {"k": "v"}

    def test_trace_is_handed_over_once_root_last(self):
        handed = []
        tracer = Tracer([type("Recorder", (), {
            "export": staticmethod(handed.append)})()])
        root = tracer.begin("root", parent=None)
        child = tracer.begin("child")
        tracer.finish(child)
        assert handed == []  # collected on the trace, not exported
        tracer.finish(root)
        assert handed == [[child, root]]

    def test_span_finishing_after_its_root_leaves_alone(self):
        ring = RingBufferExporter()
        tracer = Tracer([ring])
        root = tracer.begin("rule", parent=None)
        request = tracer.begin("grh.request")
        tracer.finish(root)          # out of order: the trace leaves now
        assert [span.name for span in ring.spans()] == ["rule"]
        request.add_records([("service:query", "xq", "ok", 0.001)])
        tracer.finish(request)
        # the late span and its record arrive as a rootless fragment
        assert [span.name for span in ring.spans()] == [
            "rule", "service:query", "grh.request"]
        late = ring.spans()[2]
        assert late.parent_id == root.span_id

    def test_finish_returns_the_duration(self):
        ticks = iter([1.0, 1.25, 2.0, 4.0])
        tracer = Tracer(clock=lambda: next(ticks))
        root = tracer.begin("root", parent=None)
        child = tracer.begin("child")
        assert tracer.finish(child) == 0.75
        assert tracer.finish(root) == 3.0


class TestRecords:
    def test_records_become_child_spans_where_read(self):
        ring = RingBufferExporter()
        tracer = Tracer([ring])
        root = tracer.begin("rule", parent=None)
        request = tracer.begin("grh.request")
        request.add_records([("service:query", "xq", "ok", 0.002)])
        request.add_records([("service:query", "xq", "error", 0.001)])
        tracer.finish(request)
        tracer.finish(root)
        assert len(ring) == 2        # the records ride on their span
        spans = ring.trace(root.trace_id)
        assert [span.name for span in spans] == [
            "service:query", "service:query", "grh.request", "rule"]
        first, second = spans[:2]
        for record in (first, second):
            assert record.remote and record.parent_id == request.span_id
            assert record.attributes == {"service": "xq"}
            assert record.ended_at == request.ended_at
        assert second.status == "error"
        assert first.duration == pytest.approx(0.002)
        # ids are well formed, distinct, and the same on every read
        ids = [span.span_id for span in spans]
        assert len(set(ids)) == 4 and all(len(i) == 16 for i in ids)
        assert [span.span_id for span in ring.spans()] == ids

    def test_waits_add_under_the_open_span_only(self):
        tracer = Tracer()
        root = tracer.begin("rule", parent=None)
        record_wait("pool_wait", 0.25)
        record_wait("pool_wait", 0.5)
        record_wait("retry_backoff", 0.0)   # nothing to attribute
        tracer.finish(root)
        record_wait("pool_wait", 1.0)       # no open span: a no-op
        root.add("pool_wait", 1.0)          # finished: dropped
        assert root.attributes == {"pool_wait": 0.75}


class TestNoop:
    def test_noop_tracer_is_inert(self):
        span = NOOP_TRACER.begin("anything", {"a": 1})
        assert isinstance(span, NoopSpan)
        span.set_attribute("b", 2)
        assert span.attributes == {}
        NOOP_TRACER.finish(span, status="error")
        assert NOOP_TRACER.current() is None
        assert NOOP_TRACER.adopt({"trace": "t"}) is None

    def test_noop_span_has_no_traceparent(self):
        # callers guard on ``span.traceparent`` before stamping envelopes
        assert NOOP_TRACER.begin("x").traceparent is None


class TestRenderTrace:
    def _finished(self, tracer, name, parent=...):
        span = tracer.begin(name, parent=parent)
        tracer.finish(span)
        return span

    def test_indented_tree(self):
        ring = RingBufferExporter()
        tracer = Tracer([ring])
        root = tracer.begin("rule", parent=None)
        child = tracer.begin("phase:query")
        self._finished(tracer, "grh.request")
        tracer.finish(child)
        tracer.finish(root)
        text = render_trace(ring.trace(root.trace_id))
        lines = text.splitlines()
        assert lines[0].startswith("rule ")
        assert lines[1].startswith("  phase:query ")
        assert lines[2].startswith("    grh.request ")

    def test_orphans_render_as_roots(self):
        ring = RingBufferExporter()
        tracer = Tracer([ring])
        root = tracer.begin("rule", parent=None)
        tracer.finish(tracer.begin("child"))
        tracer.finish(root)
        spans = [span for span in ring.trace(root.trace_id)
                 if span.name == "child"]  # parent evicted / not retained
        assert render_trace(spans).startswith("child ")


class TestSpansMarkup:
    def test_xml_round_trip(self):
        records = [{"trace": "ab" * 16, "id": "cd" * 8, "parent": "ef" * 8,
                    "name": "service:query", "status": "error",
                    "duration": 0.125, "attributes": {"service": "xq"}}]
        element = parse(serialize(spans_to_xml(records)))
        (back,) = xml_to_span_dicts(element)
        assert back["trace"] == "ab" * 16
        assert back["id"] == "cd" * 8
        assert back["parent"] == "ef" * 8
        assert back["name"] == "service:query"
        assert back["status"] == "error"
        assert back["duration"] == 0.125
        assert back["attributes"] == {"service": "xq"}
        assert back["remote"] is True

    def test_malformed_entries_are_skipped(self):
        from repro.xmlmodel import LOG_NS
        element = parse(
            f'<log:spans xmlns:log="{LOG_NS}">'
            '<log:span trace="t" id="i" name="n" duration="0.1"/>'
            '<log:span trace="t2"/>'   # no id, no name: skipped
            '<log:span trace="t3" id="i3" name="n3" duration="oops"/>'
            '</log:spans>')
        records = xml_to_span_dicts(element)
        assert [record["name"] for record in records] == ["n", "n3"]
        assert records[1]["duration"] == 0.0   # bad duration degrades to 0

    def test_non_finite_and_negative_durations_read_as_zero(self, tmp_path):
        from repro.xmlmodel import LOG_NS
        element = parse(
            f'<log:spans xmlns:log="{LOG_NS}">'
            + "".join(f'<log:span trace="{"ab" * 16}" id="{"cd" * 8}" '
                      f'name="n{index}" duration="{value}"/>'
                      for index, value in enumerate(
                          ("nan", "inf", "-inf", "-5.0", "0.5")))
            + '</log:spans>')
        records = xml_to_span_dicts(element)
        assert [record["duration"] for record in records] == [
            0.0, 0.0, 0.0, 0.0, 0.5]
        # and what is adopted from them writes strict JSON
        path = str(tmp_path / "spans.jsonl")
        exporter = JsonlExporter(path)
        tracer = Tracer([exporter])
        for record in records:
            tracer.adopt(record)
        exporter.close()
        for line in open(path).read().splitlines():
            json.loads(line, parse_constant=pytest.fail)

    def test_span_to_dict_includes_remote_flag(self):
        tracer = Tracer()
        span = tracer.adopt({"trace": "t" * 32, "id": "i" * 16,
                             "name": "remote", "duration": 0.0})
        assert span_to_dict(span)["remote"] is True
