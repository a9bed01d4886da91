"""TripleStore: incremental statistics, adoption, probes, snapshots."""

import sys
import threading
import time

import pytest

from repro.rdf import Graph, Literal, URIRef
from repro.sparql import TripleStore, plan_query, run_plan

EX = "http://example.org/"


def term(name):
    return URIRef(EX + name)


class TestStatistics:
    def test_incremental_add(self):
        store = TripleStore()
        store.add(term("a"), term("knows"), term("b"))
        store.add(term("a"), term("knows"), term("c"))
        store.add(term("b"), term("knows"), term("c"))
        assert store.predicate_count(term("knows")) == 3
        assert store.distinct_subjects(term("knows")) == 2
        assert store.distinct_objects(term("knows")) == 2
        assert store.subject_fanout(term("knows")) == pytest.approx(1.5)
        assert store.object_fanout(term("knows")) == pytest.approx(1.5)

    def test_duplicate_add_does_not_inflate(self):
        store = TripleStore()
        for _ in range(3):
            store.add(term("a"), term("p"), term("b"))
        assert store.predicate_count(term("p")) == 1
        assert store.distinct_subjects(term("p")) == 1

    def test_remove_walks_statistics_back_to_zero(self):
        store = TripleStore()
        store.add(term("a"), term("p"), term("b"))
        store.add(term("a"), term("p"), term("c"))
        assert store.remove(term("a"), term("p"), term("b"))
        assert store.predicate_count(term("p")) == 1
        assert store.distinct_subjects(term("p")) == 1
        assert store.remove(term("a"), term("p"), term("c"))
        assert store.predicate_count(term("p")) == 0
        assert store.distinct_subjects(term("p")) == 0
        assert store.subject_fanout(term("p")) == 0.0
        # a predicate never seen behaves like one fully removed
        assert not store.remove(term("a"), term("p"), term("c"))

    def test_store_wide_distincts(self):
        store = TripleStore([
            (term("a"), term("p"), term("b")),
            (term("b"), term("q"), Literal("x")),
        ])
        assert store.distinct_subjects() == 2
        assert store.distinct_objects() == 2

    def test_predicate_stats_sorted_and_limited(self):
        store = TripleStore([
            (term("a"), term("rare"), term("b")),
            (term("a"), term("common"), term("b")),
            (term("a"), term("common"), term("c")),
        ])
        rows = store.predicate_stats()
        assert rows[0]["predicate"].endswith("common")
        assert rows[0]["triples"] == 2
        assert rows[0]["distinct_subjects"] == 1
        assert rows[0]["distinct_objects"] == 2
        assert len(store.predicate_stats(limit=1)) == 1


class TestConstruction:
    def test_from_graph_copies(self):
        graph = Graph([(term("a"), term("p"), term("b"))])
        graph.namespaces["ex"] = EX
        store = TripleStore.from_graph(graph)
        assert store is not graph
        assert store.namespaces["ex"] == EX
        assert store.predicate_count(term("p")) == 1
        store.add(term("c"), term("p"), term("d"))
        assert len(graph) == 1  # the copy forked

    def test_adopt_preserves_identity(self):
        graph = Graph([
            (term("a"), term("p"), term("b")),
            (term("a"), term("p"), term("c")),
            (term("x"), term("q"), Literal("1")),
        ])
        store = TripleStore.adopt(graph)
        assert store is graph
        assert isinstance(graph, TripleStore)
        assert store.predicate_count(term("p")) == 2
        assert store.distinct_subjects(term("p")) == 1
        assert store.distinct_objects(term("p")) == 2
        # mutations through the old reference keep statistics honest
        graph.add(term("b"), term("p"), term("c"))
        assert store.distinct_subjects(term("p")) == 2

    def test_adopt_is_idempotent(self):
        store = TripleStore()
        assert TripleStore.adopt(store) is store

    def test_adopt_rejects_exotic_subclasses(self):
        class Odd(Graph):
            pass

        with pytest.raises(TypeError):
            TripleStore.adopt(Odd())


class _YieldingTallies(dict):
    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value

    def __getitem__(self, key):
        value = super().__getitem__(key)
        time.sleep(0)
        return value


class TestProbesAndSnapshot:
    def test_record_probes_accumulates(self):
        store = TripleStore()
        store.record_probes({"spo": 2, "pos": 1})
        store.record_probes({"spo": 3})
        assert store.probes["spo"] == 5
        assert store.probes["pos"] == 1
        assert store.probes["osp"] == 0

    def test_concurrent_folds_lose_no_probe(self):
        """Runtime lanes run plans over one store at once, and each run
        folds its tallies into the store: no fold may be lost."""
        store = TripleStore([(term("a"), term("p"), term("b"))])
        _table, stats = run_plan(store, plan_query(
            store, f"SELECT * WHERE {{ ?s <{EX}p> ?o }}"))
        assert stats.probes == {"spo": 0, "pos": 1, "osp": 0, "scan": 0}
        # yield the interpreter between a tally's read and its write, so
        # an unguarded fold loses updates on every run, not now and then
        store.probes = _YieldingTallies(store.probes)
        lanes, runs = 8, 400
        start = threading.Barrier(lanes)

        def lane():
            start.wait(timeout=60)
            for _ in range(runs):
                store.record_probes(stats.probes)

        threads = [threading.Thread(target=lane) for _ in range(lanes)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.snapshot()["probes"] == {
            "spo": 0, "pos": 1 + lanes * runs, "osp": 0, "scan": 0}

    def test_snapshot_shape(self):
        store = TripleStore([(term("a"), term("p"), term("b"))])
        view = store.snapshot()
        assert view["triples"] == 1
        assert view["predicates"] == 1
        assert view["subjects"] == 1
        assert view["objects"] == 1
        assert view["version"] == store.version
        assert set(view["probes"]) == {"spo", "pos", "osp", "scan"}
