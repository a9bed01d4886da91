"""An indexed RDF triple store.

Three hash indexes (SPO, POS, OSP) give constant-time-per-result pattern
matching for any combination of bound positions — the workhorse behind
the SPARQL-subset evaluator.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .terms import BNode, Literal, RDF, Term, URIRef

__all__ = ["Graph", "Triple"]

Triple = tuple[Term, Term, Term]


class Graph:
    """A set of RDF triples with pattern-matching access."""

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: set[Triple] = set()
        self._spo: dict[Term, dict[Term, set[Term]]] = {}
        self._pos: dict[Term, dict[Term, set[Term]]] = {}
        self._osp: dict[Term, dict[Term, set[Term]]] = {}
        # per-position triple counts: O(1) cardinality for the three
        # single-bound patterns (the two-bound ones read index bucket
        # sizes directly)
        self._s_count: dict[Term, int] = {}
        self._p_count: dict[Term, int] = {}
        self._o_count: dict[Term, int] = {}
        #: bumped on every successful add/remove; a cached SPARQL plan
        #: costed at this version is reused without re-reading statistics
        self.version = 0
        self.namespaces: dict[str, str] = {}
        for triple in triples:
            self.add(*triple)

    # -- mutation ---------------------------------------------------------------

    def add(self, subject: Term, predicate: Term, obj: Term) -> None:
        """Add one triple (idempotent)."""
        self._validate(subject, predicate, obj)
        triple = (subject, predicate, obj)
        if triple in self._triples:
            return
        self._triples.add(triple)
        self._spo.setdefault(subject, {}).setdefault(predicate, set()).add(obj)
        self._pos.setdefault(predicate, {}).setdefault(obj, set()).add(subject)
        self._osp.setdefault(obj, {}).setdefault(subject, set()).add(predicate)
        self._s_count[subject] = self._s_count.get(subject, 0) + 1
        self._p_count[predicate] = self._p_count.get(predicate, 0) + 1
        self._o_count[obj] = self._o_count.get(obj, 0) + 1
        self.version += 1

    def remove(self, subject: Term, predicate: Term, obj: Term) -> bool:
        """Remove one triple; returns whether it was present."""
        triple = (subject, predicate, obj)
        if triple not in self._triples:
            return False
        self._triples.discard(triple)
        self._discard(self._spo, subject, predicate, obj)
        self._discard(self._pos, predicate, obj, subject)
        self._discard(self._osp, obj, subject, predicate)
        for counts, term in ((self._s_count, subject),
                             (self._p_count, predicate),
                             (self._o_count, obj)):
            left = counts[term] - 1
            if left:
                counts[term] = left
            else:
                del counts[term]
        self.version += 1
        return True

    @staticmethod
    def _discard(index: dict, first: Term, second: Term, third: Term) -> None:
        """Drop one entry from a nested index, pruning empty buckets so
        iteration and bucket-size counts never visit dead keys."""
        inner = index[first]
        bucket = inner[second]
        bucket.discard(third)
        if not bucket:
            del inner[second]
            if not inner:
                del index[first]

    def bind(self, prefix: str, uri: str) -> None:
        """Declare a prefix for parsing/serialization convenience."""
        self.namespaces[prefix] = uri

    @staticmethod
    def _validate(subject: Term, predicate: Term, obj: Term) -> None:
        if isinstance(subject, Literal):
            raise ValueError("literal cannot be a subject")
        if not isinstance(predicate, URIRef):
            raise ValueError("predicate must be a URIRef")
        if not isinstance(obj, (URIRef, BNode, Literal)):
            raise ValueError(f"invalid object term: {obj!r}")

    # -- access -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def triples(self, subject: Term | None = None,
                predicate: Term | None = None,
                obj: Term | None = None) -> Iterator[Triple]:
        """All triples matching the pattern; ``None`` is a wildcard."""
        if subject is not None:
            if predicate is None and obj is not None:
                # (s, ?, o): the OSP index holds exactly the predicates
                # linking the pair — no scan over the subject's triples
                for pred in self._osp.get(obj, {}).get(subject, ()):
                    yield (subject, pred, obj)
                return
            by_predicate = self._spo.get(subject)
            if by_predicate is None:
                return
            if predicate is not None:
                for candidate in by_predicate.get(predicate, ()):
                    if obj is None or candidate == obj:
                        yield (subject, predicate, candidate)
                return
            for pred, objects in by_predicate.items():
                for candidate in objects:
                    yield (subject, pred, candidate)
            return
        if predicate is not None:
            by_object = self._pos.get(predicate)
            if by_object is None:
                return
            if obj is not None:
                for subj in by_object.get(obj, ()):
                    yield (subj, predicate, obj)
                return
            for candidate, subjects in by_object.items():
                for subj in subjects:
                    yield (subj, predicate, candidate)
            return
        if obj is not None:
            by_subject = self._osp.get(obj)
            if by_subject is None:
                return
            for subj, predicates in by_subject.items():
                for pred in predicates:
                    yield (subj, pred, obj)
            return
        yield from self._triples

    def count(self, subject: Term | None = None,
              predicate: Term | None = None,
              obj: Term | None = None) -> int:
        """Exact cardinality of a pattern, O(1) for every bound-mask:
        position counters cover the single-bound patterns, index bucket
        sizes the double-bound ones, set membership the ground triple."""
        if subject is None:
            if predicate is None:
                if obj is None:
                    return len(self._triples)
                return self._o_count.get(obj, 0)
            if obj is None:
                return self._p_count.get(predicate, 0)
            return len(self._pos.get(predicate, {}).get(obj, ()))
        if predicate is None:
            if obj is None:
                return self._s_count.get(subject, 0)
            return len(self._osp.get(obj, {}).get(subject, ()))
        if obj is None:
            return len(self._spo.get(subject, {}).get(predicate, ()))
        return 1 if (subject, predicate, obj) in self._triples else 0

    # -- convenience ---------------------------------------------------------------

    def subjects(self, predicate: Term | None = None,
                 obj: Term | None = None) -> Iterator[Term]:
        seen = set()
        for subj, _, _ in self.triples(None, predicate, obj):
            if subj not in seen:
                seen.add(subj)
                yield subj

    def objects(self, subject: Term | None = None,
                predicate: Term | None = None) -> Iterator[Term]:
        seen = set()
        for _, _, obj in self.triples(subject, predicate, None):
            if obj not in seen:
                seen.add(obj)
                yield obj

    def value(self, subject: Term, predicate: Term) -> Term | None:
        """The unique object for (subject, predicate), if any."""
        for _, _, obj in self.triples(subject, predicate, None):
            return obj
        return None

    def instances_of(self, cls: URIRef) -> Iterator[Term]:
        yield from self.subjects(RDF.type, cls)
