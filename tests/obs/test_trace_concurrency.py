"""Concurrency regressions: exporters and samplers under parallel load.

The GRH dispatches from the engine thread while admin scrapes, metric
scrapes and remote-span adoption can touch the same exporters from
other threads.  These tests hammer the shared structures from several
threads at once; before the ring buffer's export path took the readers'
lock, the reader side raised ``RuntimeError: deque mutated during
iteration`` under exactly this load.  Under it, every sampled span of
every trace still reaches the exporters exactly once, and the tail
sampler judges every trace exactly once.
"""

import sys
import threading
from collections import Counter

from repro.obs import RingBufferExporter, Span, Tracer, record_wait
from repro.obs.ops import ProbabilisticSampler, TailSampler
from repro.obs.trace import bind_span

THREADS = 8
SPANS_PER_THREAD = 300


def hammer(worker, threads=THREADS):
    errors = []

    def wrapped(tag):
        try:
            worker(tag)
        except Exception as exc:
            errors.append(exc)

    pool = [threading.Thread(target=wrapped, args=(index,))
            for index in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return errors


class TestRingBufferConcurrency:
    def test_parallel_writers_and_readers(self):
        ring = RingBufferExporter(capacity=256)
        handed = []
        tracer = Tracer([ring, type("Recorder", (), {
            "export": staticmethod(handed.extend)})()])
        done = threading.Event()
        errors = []

        def reader():
            try:
                while not done.is_set():
                    for span in ring.spans():
                        assert span.name == "rule"
                    ring.trace_ids()
            except Exception as exc:
                errors.append(exc)

        scraper = threading.Thread(target=reader)
        scraper.start()
        try:
            def writer(tag):
                for _ in range(SPANS_PER_THREAD):
                    span = tracer.begin("rule")
                    tracer.finish(span)

            errors.extend(hammer(writer))
        finally:
            done.set()
            scraper.join()
        assert errors == []
        assert len(handed) == THREADS * SPANS_PER_THREAD
        assert len({id(span) for span in handed}) == len(handed)
        assert len(ring.spans()) == 256  # capped, newest retained

    def test_parallel_head_sampled_tracers_count_consistently(self):
        ring = RingBufferExporter(capacity=100_000)
        tracer = Tracer([ring], sampler=ProbabilisticSampler(0.5, seed=3))
        kept = [[] for _ in range(THREADS)]

        def worker(tag):
            for _ in range(SPANS_PER_THREAD):
                root = tracer.begin("rule")
                child = tracer.begin("phase:query")
                tracer.finish(child)
                tracer.finish(root)
                if isinstance(root, Span):  # sampled: real spans built
                    kept[tag].extend((child, root))

        assert hammer(worker) == []
        expected = [span for spans in kept for span in spans]
        exported = ring.spans()
        # every span of every sampled trace, once; nothing else
        assert Counter(map(id, exported)) == Counter(map(id, expected))
        total = 2 * THREADS * SPANS_PER_THREAD
        assert 0 < len(exported) < total  # both verdicts actually occurred

    def test_concurrent_waits_on_one_bound_span_sum_exactly(self):
        tracer = Tracer()
        request = tracer.begin("grh.request", parent=None)

        def worker(tag):
            previous = bind_span(request)
            try:
                for _ in range(SPANS_PER_THREAD):
                    record_wait("pool_wait", 0.5)
                    request.add_records([("service:query", "xq", "ok", 0.0)])
            finally:
                bind_span(previous)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert hammer(worker) == []
        finally:
            sys.setswitchinterval(interval)
        tracer.finish(request)
        total = THREADS * SPANS_PER_THREAD
        assert request.attributes["pool_wait"] == 0.5 * total
        assert len(request.records) == total

    def test_records_racing_the_hand_over_arrive_exactly_once(self):
        """Records added while the trace is handed over land either in
        the handed trace or in a fragment: never lost, never appended
        to a list an exporter already holds."""
        handed = []

        class Recorder:
            @staticmethod
            def export(spans):
                # what each span holds at the moment it is handed over
                handed.append([(span, len(span.records or ()))
                               for span in spans])

        tracer = Tracer([Recorder()])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                handed.clear()
                root = tracer.begin("rule", parent=None)
                request = tracer.begin("grh.request")
                start = threading.Barrier(THREADS + 1)

                def worker(tag):
                    start.wait(5)
                    for _ in range(50):
                        request.add_records(
                            [("service:query", "xq", "ok", 0.0)])

                threads = [threading.Thread(target=worker, args=(index,))
                           for index in range(THREADS)]
                for thread in threads:
                    thread.start()
                start.wait(5)
                tracer.finish(request)
                tracer.finish(root)
                for thread in threads:
                    thread.join(10)
                    assert not thread.is_alive()
                (trace,) = [spans for spans in handed
                            if spans[-1][0] is root]
                in_trace = sum(count for _, count in trace)
                # nothing was appended after the hand-over
                assert in_trace == len(request.records or ())
                fragments = [spans for spans in handed
                             if spans[-1][0] is not root]
                assert all(span.remote and
                           span.parent_id == request.span_id
                           for spans in fragments for span, _ in spans)
                assert in_trace + sum(map(len, fragments)) == THREADS * 50
        finally:
            sys.setswitchinterval(interval)


class TestTailSamplerConcurrency:
    def test_parallel_traces_are_judged_exactly_once(self):
        ring = RingBufferExporter(capacity=100_000)
        tail = TailSampler(probability=0.0, downstream=[ring])

        def worker(tag):
            for index in range(SPANS_PER_THREAD):
                trace = f"t{tag}-{index}"
                status = "error" if index % 3 == 0 else "ok"
                child = Span("phase", trace, "c", "r", 0.0)
                child.ended_at, child.status = 0.0, status
                root = Span("rule", trace, "r", None, 0.0)
                root.ended_at, root.status = 0.0, status
                tail.export([child, root])

        assert hammer(worker) == []
        total = THREADS * SPANS_PER_THREAD
        assert tail.kept + tail.dropped == total
        assert tail.fragments == 0
        erroring = THREADS * len(range(0, SPANS_PER_THREAD, 3))
        assert tail.kept == erroring
        assert len(ring.spans()) == 2 * erroring
