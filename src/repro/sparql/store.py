"""An indexed RDF triple store with cardinality statistics.

:class:`TripleStore` is the storage half of the ``repro.sparql``
subsystem (ROADMAP item 3): the three hash indexes of
:class:`repro.rdf.Graph` (SPO/POS/OSP, O(1) ``count`` for every
bound-mask) plus the *per-predicate statistics* the join planner orders
scans by — triples per predicate, distinct subjects and distinct
objects per predicate, all maintained incrementally on add/remove.

The planner's key quantity is the expected fan-out of a half-bound
pattern: how many objects does one subject have under predicate ``p``
on average (``?s`` bound at runtime, ``?o`` free), and vice versa.
Those are plain ratios of the maintained counters, so estimation is
O(1) per pattern and never touches the data.

The store also carries the executor's index probe counters (how often
each index answered a scan), surfaced through ``eca_sparql_*`` metrics
and ``/introspect/sparql``.
"""

from __future__ import annotations

import threading
from typing import Iterable

from ..rdf import Graph, Term, Triple

__all__ = ["TripleStore"]

#: probe counter keys: the three indexes plus the full-extent scan
PROBE_KINDS = ("spo", "pos", "osp", "scan")


class TripleStore(Graph):
    """A :class:`~repro.rdf.Graph` that keeps planner statistics.

    Fully substitutable for a plain graph (Turtle/RDF-XML parsers and
    every service accepting a graph work unchanged); the extra
    bookkeeping is two dict updates per mutation.
    """

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        #: predicate → {subject: triple count}; ``len`` of the inner
        #: dict is the distinct-subject count for the predicate
        self._pred_subjects: dict[Term, dict[Term, int]] = {}
        #: executor probe tallies, keyed by PROBE_KINDS
        self.probes: dict[str, int] = dict.fromkeys(PROBE_KINDS, 0)
        #: runtime lanes execute plans over one store concurrently: a
        #: tally fold is a read-modify-write
        self._probes_lock = threading.Lock()
        super().__init__(triples)

    # -- mutation (statistics ride along) ------------------------------------

    def add(self, subject: Term, predicate: Term, obj: Term) -> None:
        before = self.version
        super().add(subject, predicate, obj)
        if self.version != before:
            by_subject = self._pred_subjects.setdefault(predicate, {})
            by_subject[subject] = by_subject.get(subject, 0) + 1

    def remove(self, subject: Term, predicate: Term, obj: Term) -> bool:
        removed = super().remove(subject, predicate, obj)
        if removed:
            by_subject = self._pred_subjects[predicate]
            left = by_subject[subject] - 1
            if left:
                by_subject[subject] = left
            else:
                del by_subject[subject]
                if not by_subject:
                    del self._pred_subjects[predicate]
        return removed

    @classmethod
    def from_graph(cls, graph: Graph) -> "TripleStore":
        """An indexed copy of ``graph`` (namespaces included)."""
        store = cls(graph)
        store.namespaces.update(graph.namespaces)
        return store

    @classmethod
    def adopt(cls, graph: Graph) -> "TripleStore":
        """Upgrade a plain :class:`Graph` to a ``TripleStore`` *in
        place*, preserving object identity.

        Deployments share one mutable RDF world between services and
        the action runtime by passing the same graph object around; a
        copy would silently fork that world.  Adoption re-classes the
        object (both classes are plain-attribute Python classes) and
        derives the statistics from the already-built POS index, so
        every existing reference — and every future mutation through
        it — sees the indexed store.
        """
        if isinstance(graph, cls):
            return graph
        if type(graph) is not Graph:
            raise TypeError(f"can only adopt plain Graph instances, "
                            f"not {type(graph).__name__}")
        graph.__class__ = cls
        graph.probes = dict.fromkeys(PROBE_KINDS, 0)
        graph._probes_lock = threading.Lock()
        pred_subjects: dict[Term, dict[Term, int]] = {}
        for predicate, by_object in graph._pos.items():
            by_subject: dict[Term, int] = {}
            for subjects in by_object.values():
                for subject in subjects:
                    by_subject[subject] = by_subject.get(subject, 0) + 1
            pred_subjects[predicate] = by_subject
        graph._pred_subjects = pred_subjects
        return graph

    # -- statistics (all O(1)) ------------------------------------------------

    def predicate_count(self, predicate: Term) -> int:
        """Triples carrying ``predicate``."""
        return self._p_count.get(predicate, 0)

    def distinct_predicates(self) -> int:
        """Distinct predicates in the store."""
        return len(self._p_count)

    def distinct_subjects(self, predicate: Term | None = None) -> int:
        """Distinct subjects under ``predicate`` (or store-wide)."""
        if predicate is None:
            return len(self._spo)
        return len(self._pred_subjects.get(predicate, ()))

    def distinct_objects(self, predicate: Term | None = None) -> int:
        """Distinct objects under ``predicate`` (or store-wide)."""
        if predicate is None:
            return len(self._osp)
        return len(self._pos.get(predicate, ()))

    def subject_fanout(self, predicate: Term) -> float:
        """Average objects per subject for ``predicate`` (≥ 1 when the
        predicate exists): the expected matches of ``(bound, p, ?o)``."""
        subjects = self.distinct_subjects(predicate)
        if not subjects:
            return 0.0
        return self.predicate_count(predicate) / subjects

    def object_fanout(self, predicate: Term) -> float:
        """Average subjects per object for ``predicate``: the expected
        matches of ``(?s, p, bound)``."""
        objects = self.distinct_objects(predicate)
        if not objects:
            return 0.0
        return self.predicate_count(predicate) / objects

    def predicate_stats(self, limit: int | None = None) -> list[dict]:
        """Per-predicate statistics, largest extent first (introspection
        and ``/introspect/sparql``)."""
        rows = [{
            "predicate": str(predicate),
            "triples": count,
            "distinct_subjects": self.distinct_subjects(predicate),
            "distinct_objects": self.distinct_objects(predicate),
        } for predicate, count in self._p_count.items()]
        rows.sort(key=lambda row: (-row["triples"], row["predicate"]))
        return rows[:limit] if limit is not None else rows

    def record_probes(self, tallies: dict[str, int]) -> None:
        """Fold one execution's index probe counts into the store."""
        with self._probes_lock:
            for kind, amount in tallies.items():
                self.probes[kind] = self.probes.get(kind, 0) + amount

    def snapshot(self) -> dict:
        """Store-level view for metrics and the admin surface."""
        with self._probes_lock:
            probes = dict(self.probes)
        return {
            "triples": len(self),
            "predicates": self.distinct_predicates(),
            "subjects": len(self._spo),
            "objects": len(self._osp),
            "version": self.version,
            "probes": probes,
        }
