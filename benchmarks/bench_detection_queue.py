"""BENCH-D2: the priority-bucketed detection queue vs the O(n) scan.

The seed's ``_pop_highest_priority`` scanned the whole pending list on
every pop, making a batched flood of n detections O(n²); the engine now
uses one FIFO deque per priority level plus a heap of non-empty levels
— O(log P) per operation in the number of *distinct* priorities.  This
bench pushes/pops n detections through both structures at several sizes
to document the gap, and pins the bucketed queue to linear scaling.
"""

import timeit

from repro.runtime.pool import _DetectionQueue

PRIORITIES = (0, 1, 2, 3, 5, 8, 13)


def scan_pop_workload(n):
    """The seed's structure: a list scanned for the max-priority item."""
    def run():
        pending = [(PRIORITIES[i % len(PRIORITIES)], i) for i in range(n)]
        while pending:
            best = 0
            for index in range(1, len(pending)):
                if pending[index][0] > pending[best][0]:
                    best = index
            pending.pop(best)
    return run


def bucketed_workload(n):
    def run():
        queue = _DetectionQueue()
        for i in range(n):
            queue.push(PRIORITIES[i % len(PRIORITIES)], i)
        while queue:
            queue.pop()
    return run


class TestQueueThroughput:
    def test_1_scan_1000(self, benchmark):
        benchmark(scan_pop_workload(1000))

    def test_2_bucketed_1000(self, benchmark):
        benchmark(bucketed_workload(1000))

    def test_3_bucketed_10000(self, benchmark):
        benchmark(bucketed_workload(10000))


class TestAcceptanceBound:
    def test_bucketed_queue_scales_linearly(self):
        """10x the detections must cost ~10x, not ~100x.

        The quadratic scan fails this by an order of magnitude; the
        bucketed queue passes with slack (bound 3x per-item drift)."""
        small, large = 1000, 10000
        t_small = min(timeit.repeat(bucketed_workload(small),
                                    number=5, repeat=5))
        t_large = min(timeit.repeat(bucketed_workload(large),
                                    number=5, repeat=5))
        per_item_ratio = (t_large / large) / (t_small / small)
        assert per_item_ratio < 3.0, (
            f"per-item cost grew {per_item_ratio:.1f}x from n={small} "
            f"to n={large}")

    def test_bucketed_beats_scan_at_scale(self):
        n = 3000
        t_scan = min(timeit.repeat(scan_pop_workload(n), number=2, repeat=3))
        t_bucket = min(timeit.repeat(bucketed_workload(n), number=2,
                                     repeat=3))
        assert t_bucket < t_scan, (
            f"bucketed {t_bucket:.4f}s not faster than scan {t_scan:.4f}s "
            f"at n={n}")
